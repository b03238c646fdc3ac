"""Chain index: the random-access view the analyses run on.

A :class:`ChainIndex` ingests blocks in height order and maintains:

* transaction lookup by txid, with block height and timestamp;
* the UTXO set and a ``spent_by`` map (which input consumed an output);
* per-address histories — every receive and every spend with heights and
  values — which is what Heuristic 2's "has this address appeared
  before?" and "has it received more than one input?" questions read;
* running balances and the set of *sink addresses* (received but never
  spent from), which the paper uses to bound the number of users and to
  define "active bitcoins" in Figure 2.

The index is deliberately append-only: the paper analyses a chain prefix,
and temporal replay (false-positive estimation) is done by *consulting
heights*, not by mutating the index.

Ingestion is **one walk per block**: ``add_block`` validates and
applies each transaction exactly once, and the same pass emits the
block's :class:`~repro.chain.delta.BlockDelta` (id-space, see
``chain/delta.py``) that every subscriber receives — no second walk, no
per-event objects (address histories are plain rows, transaction
locations plain ``(height, position)`` pairs, wrapped into
:class:`Receive` / :class:`Spend` / :class:`TxLocation` on read).  A
rejected block is reverted whole.  :meth:`ChainIndex.subscribe_deltas`
is the fan-out hook (an observer that wants the block reads
``delta.block``).

Durability: :meth:`ChainIndex.export_state` flattens the whole index
into plain picklable data (raw block bytes, tuple-keyed maps, per-record
rows) and :meth:`ChainIndex.restore_state` rebuilds from it *lazily* —
blocks, transactions, and address records stay as flat data until first
touched.  That laziness is what keeps a snapshot restore bounded by
O(flat bytes) instead of O(every Python object the chain ever created):
a restored serving index answers balance/cluster queries and ingests
tail blocks while materializing only the objects those paths actually
touch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator

from ..obs import NULL_LOGGER, NULL_REGISTRY
from .delta import BlockDelta, TxDelta, build_block_delta
from .errors import (
    DoubleSpendError,
    MissingInputError,
    UnknownAddressError,
    UnknownTransactionError,
)
from .intern import AddressInterner
from .model import (
    COINBASE_TXID,
    COINBASE_VOUT,
    Block,
    OutPoint,
    Transaction,
    TxOut,
)
from .serialize import block_from_bytes, serialize_block


@dataclass(frozen=True, slots=True)
class Receive:
    """One credit to an address: output ``vout`` of ``txid`` at ``height``."""

    height: int
    txid: bytes
    vout: int
    value: int


@dataclass(frozen=True, slots=True)
class Spend:
    """One debit from an address: input ``vin`` of ``txid`` at ``height``."""

    height: int
    txid: bytes
    vin: int
    value: int


@dataclass(slots=True)
class AddressRecord:
    """Everything the index knows about one address.

    Histories are kept as plain ``(height, txid, vout | vin, value)``
    rows in chain order — the shape the snapshot stores, so a live-built
    record and a restored one are the same thing, and ingestion builds
    no object per event.  :attr:`receives` / :attr:`spends` wrap the
    rows on read; hot paths read the rows directly.
    """

    address: str
    address_id: int = -1
    """Dense interned id (see :class:`~repro.chain.intern.AddressInterner`);
    -1 for records built outside a :class:`ChainIndex`."""

    receive_rows: list[tuple[int, bytes, int, int]] = field(default_factory=list)
    spend_rows: list[tuple[int, bytes, int, int]] = field(default_factory=list)

    @property
    def receives(self) -> list[Receive]:
        """Every credit, in chain order."""
        return [Receive(*row) for row in self.receive_rows]

    @property
    def spends(self) -> list[Spend]:
        """Every debit, in chain order."""
        return [Spend(*row) for row in self.spend_rows]

    @property
    def first_seen_height(self) -> int:
        """Height of the first appearance (always a receive)."""
        return self.receive_rows[0][0]

    @property
    def total_received(self) -> int:
        return sum(row[3] for row in self.receive_rows)

    @property
    def total_spent(self) -> int:
        return sum(row[3] for row in self.spend_rows)

    @property
    def balance(self) -> int:
        return self.total_received - self.total_spent

    @property
    def is_sink(self) -> bool:
        """True when the address has never spent anything."""
        return not self.spend_rows

    # Rows sort by height first and ``(h,)`` sorts before every row at
    # height ``h``, so a 1-tuple probe bisects on height alone.

    def receives_after(self, height: int) -> list[Receive]:
        """Receives strictly after ``height`` (ordered)."""
        rows = self.receive_rows
        return [Receive(*row) for row in rows[bisect_left(rows, (height + 1,)):]]

    def receives_before(self, height: int) -> int:
        """Count of receives strictly before ``height``."""
        return bisect_left(self.receive_rows, (height,))


@dataclass(frozen=True, slots=True)
class TxLocation:
    """Where a transaction sits in the chain."""

    height: int
    timestamp: int
    index_in_block: int


class ChainIndex:
    """Indexed view over an ordered sequence of blocks."""

    def __init__(self) -> None:
        self._tx_locator: dict[bytes, tuple[int, int]] = {}
        """txid -> (height, index in block) for every indexed tx; the
        transaction itself is ``block_at(height).transactions[i]``."""
        # UTXO/spender maps are keyed by plain (txid, vout) tuples, not
        # OutPoint objects: the keys then restore from a snapshot at
        # pickle speed with zero per-entry reconstruction.
        self._utxos: dict[tuple[bytes, int], TxOut] = {}
        self._spent_by: dict[tuple[bytes, int], tuple[bytes, int]] = {}
        self._interner = AddressInterner()
        self._records_by_id: list[AddressRecord | None] = []
        """Aligned with the interner: one record per address id."""
        self._blocks: list[Block] = []
        # Addresses appearing in a tx's outputs whose prevouts include the
        # same address ("self-change" usage, §4.2).
        self._self_change_history: dict[str, list[int]] = {}
        # Per-tx memos, seated by the ingest walk while the resolved data
        # is in hand, so the batch heuristics and `block_delta` catch-up
        # never re-resolve scripts or prevouts (which, on a snapshot-
        # restored index, would materialize historic blocks and defeat
        # the lazy restore): sender ids (dedup'd, insertion-ordered),
        # output ids (position-aligned, -1 for exotic scripts), and the
        # (address id, value) of each consumed output.
        self._input_ids: dict[bytes, tuple[int, ...]] = {}
        self._output_ids: dict[bytes, tuple[int, ...]] = {}
        self._input_spends: dict[bytes, tuple[tuple[int, int], ...]] = {}
        self._observers: list[tuple[Callable[[BlockDelta], None], str]] = []
        """``(observer, name)`` pairs in registration order.  Names key
        the per-subscriber fan-out metrics."""
        self.metrics = NULL_REGISTRY
        """Telemetry sink (:class:`~repro.obs.metrics.MetricsRegistry`).
        Defaults to the shared disabled registry — assign an enabled one
        to record per-stage ingest timings (``ingest.*``) and per-block
        flight spans; see ``docs/metrics.md``."""
        self.log = NULL_LOGGER
        """Structured event sink (:class:`~repro.obs.log.EventLogger`).
        Defaults to the shared null logger — assign a
        :class:`~repro.obs.log.JsonLinesLogger` to record ingest and
        subscriber-failure events; see ``docs/observability.md``."""
        self._timestamps: list[int] = []
        # Lazy backing for a snapshot-restored index; None in a live-built
        # one.  `_blocks` / `_records_by_id` hold None at not-yet-
        # materialized positions, with the flat data waiting here.
        self._raw_blocks: list[bytes | None] | None = None
        self._lazy_records: list[tuple | None] | None = None
        """Per address id: ``(receive_rows, spend_rows)`` until the
        :class:`AddressRecord` is first touched."""

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> None:
        """Ingest the next block.  Blocks must arrive in height order.

        All or nothing: a block with an invalid transaction raises
        (:class:`DoubleSpendError` / :class:`MissingInputError`) and
        leaves the index exactly as it was — no subscriber is notified,
        and the correct block for that height still ingests.
        """
        expected = len(self._blocks)
        if block.height != expected:
            raise MissingInputError(
                f"blocks must be added in order: expected height {expected}, "
                f"got {block.height}"
            )
        metrics = self.metrics
        timed = metrics.enabled
        if timed:
            start = perf_counter()
        emit = bool(self._observers)
        columns = self._walk_block(block, emit)
        self._blocks.append(block)
        self._timestamps.append(block.header.timestamp)
        if self._raw_blocks is not None:
            self._raw_blocks.append(None)  # serialized on demand at export
        if timed:
            now = perf_counter()
            metrics.histogram("ingest.index_seconds").observe(now - start)
        if emit:
            if timed:
                start = perf_counter()
            delta = BlockDelta.from_columns(block, *columns)
            if timed:
                now = perf_counter()
                metrics.histogram("ingest.delta_build_seconds").observe(
                    now - start
                )
            self._notify_observers(delta)
            if timed:
                metrics.flight.record(
                    "block",
                    height=block.height,
                    txs=len(block.transactions),
                    seconds=perf_counter() - start,
                )
        if self.log.enabled:
            self.log.debug(
                "block_ingested",
                height=block.height,
                txs=len(block.transactions),
            )

    def _walk_block(self, block: Block, emit: bool) -> tuple:
        """The one transaction walk of ingestion.

        Validates and applies every transaction (UTXO set, spender map,
        address histories, interning, per-tx memos) and, in the same
        pass, emits the block's :class:`BlockDelta` columns — returned
        as the argument tuple of :meth:`BlockDelta.from_columns` (the
        per-tx :class:`TxDelta` list only when ``emit``, i.e. someone is
        subscribed).  :func:`~repro.chain.delta.build_block_delta`
        derives the identical delta from the memos this walk seats
        (pinned by ``tests/chain/test_delta.py``).

        A failing transaction reverts everything the block applied so
        far before the error propagates; the success path pays one
        journal append per consumed input for that.
        """
        height = block.height
        locator = self._tx_locator
        utxos = self._utxos
        utxos_pop = utxos.pop
        spent_by = self._spent_by
        records = self._records_by_id
        lazy = self._lazy_records
        id_of = self._interner.id_of
        intern = self._interner.intern
        self_change = self._self_change_history
        txds: list[TxDelta] = []
        event_ids: list[int] = []
        event_values: list[int] = []
        involved_flat: list[int] = []
        h1_a: list[int] = []
        h1_b: list[int] = []
        block_involved: dict[int, None] = {}
        minted = 0
        consumed: list[tuple[tuple[bytes, int], TxOut]] = []  # undo journal
        first_new_id = len(records)
        applied = 0
        try:
            for position, tx in enumerate(block.transactions):
                txid = tx.txid
                if txid in locator:
                    raise DoubleSpendError(f"duplicate transaction {tx.txid_hex}")
                inputs = tx.inputs
                input_ids: dict[int, None] = {}  # dedup'd, insertion-ordered
                input_spends: list[tuple[int, int]] = []
                for vin, txin in enumerate(inputs):
                    prevout = txin.prevout
                    prev_txid = prevout.txid
                    prev_vout = prevout.vout
                    if prev_vout == COINBASE_VOUT and prev_txid == COINBASE_TXID:
                        continue
                    key = (prev_txid, prev_vout)
                    spent = utxos_pop(key, None)
                    if spent is None:
                        outpoint = f"{prev_txid[::-1].hex()}:{prev_vout}"
                        if key in spent_by:
                            raise DoubleSpendError(
                                f"{tx.txid_hex} double-spends {outpoint}"
                            )
                        raise MissingInputError(
                            f"{tx.txid_hex} spends unknown outpoint {outpoint}"
                        )
                    consumed.append((key, spent))
                    spent_by[key] = (txid, vin)
                    value = spent.value
                    address = spent.address
                    if address is None:
                        input_spends.append((-1, value))
                        continue
                    ident = id_of(address)
                    record = records[ident]
                    if record is None:
                        record = self._materialize_record(ident)
                    record.spend_rows.append((height, txid, vin, value))
                    input_ids[ident] = None
                    input_spends.append((ident, value))
                    event_ids.append(ident)
                    event_values.append(-value)
                involved = input_ids.copy()
                output_ids: list[int] = []
                for vout, txout in enumerate(tx.outputs):
                    utxos[(txid, vout)] = txout
                    address = txout.address
                    if address is None:
                        output_ids.append(-1)
                        continue
                    value = txout.value
                    ident = id_of(address)
                    if ident is None:
                        ident = intern(address)
                        records.append(
                            AddressRecord(
                                address, ident, [(height, txid, vout, value)], []
                            )
                        )
                        if lazy is not None:
                            lazy.append(None)
                    else:
                        record = records[ident]
                        if record is None:
                            record = self._materialize_record(ident)
                        record.receive_rows.append((height, txid, vout, value))
                        if ident in input_ids:
                            self_change.setdefault(address, []).append(height)
                    output_ids.append(ident)
                    involved[ident] = None
                    event_ids.append(ident)
                    event_values.append(value)
                sender_ids = tuple(input_ids)
                if len(sender_ids) > 1:
                    # H1 pairs (i0, i1) … (i0, ik); see BlockDelta.h1_a.
                    h1_a.extend(sender_ids[:1] * (len(sender_ids) - 1))
                    h1_b.extend(sender_ids[1:])
                is_coinbase = (
                    len(inputs) == 1
                    and inputs[0].prevout.vout == COINBASE_VOUT
                    and inputs[0].prevout.txid == COINBASE_TXID
                )
                if is_coinbase:
                    minted += tx.total_output_value
                involved_flat.extend(involved)
                block_involved.update(involved)
                self._input_ids[txid] = sender_ids
                self._output_ids[txid] = output_ids = tuple(output_ids)
                self._input_spends[txid] = input_spends = tuple(input_spends)
                locator[txid] = (height, position)
                applied += 1
                if emit:
                    txds.append(
                        TxDelta(
                            tx, is_coinbase, sender_ids, input_spends,
                            output_ids, tuple(involved),
                        )
                    )
        except BaseException:
            self._revert_block(block, applied, consumed, first_new_id)
            raise
        return (
            txds, event_ids, event_values, involved_flat, h1_a, h1_b,
            block_involved, minted,
        )

    def _revert_block(
        self,
        block: Block,
        applied: int,
        consumed: list[tuple[tuple[bytes, int], TxOut]],
        first_new_id: int,
    ) -> None:
        """Undo a partially walked block: its first ``applied``
        transactions in full, plus the inputs the failing one consumed
        (a transaction only fails while consuming inputs, before any of
        its outputs exist)."""
        height = block.height
        utxos = self._utxos
        self_change = self._self_change_history
        # Inputs first: an output created *and* consumed inside this
        # block goes back into the UTXO set here and out again below.
        for key, spent in consumed:
            del self._spent_by[key]
            utxos[key] = spent
            if spent.address is not None:
                self.address(spent.address).spend_rows.pop()
        for tx in block.transactions[:applied]:
            txid = tx.txid
            for vout, txout in enumerate(tx.outputs):
                del utxos[(txid, vout)]
                address = txout.address
                if address is None:
                    continue
                ident = self._interner.id_of(address)
                if ident < first_new_id:
                    self._records_by_id[ident].receive_rows.pop()
                heights = self_change.get(address)
                if heights and heights[-1] == height:
                    heights.pop()
                    if not heights:
                        del self_change[address]
            del self._tx_locator[txid]
            del self._input_ids[txid]
            del self._output_ids[txid]
            del self._input_spends[txid]
        del self._records_by_id[first_new_id:]
        if self._lazy_records is not None:
            del self._lazy_records[first_new_id:]
        self._interner.truncate(first_new_id)

    def block_delta(self, height: int) -> BlockDelta:
        """The shared ingest plan for one already-ingested block.

        Streaming fan-out builds each block's delta exactly once inside
        :meth:`add_block`; this rebuilds the identical plan on demand —
        the catch-up path consumers use to fold blocks the index held
        before they attached.
        """
        return build_block_delta(self, self.block_at(height))

    def _notify_observers(self, delta: BlockDelta) -> None:
        """Fan one block's shared :class:`BlockDelta` out to every
        observer registered when ingestion finished, in registration
        order — the *same* object to each, so the whole pipeline costs
        one transaction walk per block.

        The observer list is snapshotted first, so a callback that
        subscribes or unsubscribes mid-fan-out cannot skip or double-
        deliver this block (late subscribers start at the *next* block).
        A raising observer does not starve the ones after it: every
        observer is notified before the first exception propagates to the
        ``add_block`` caller — and *every* failure (not just the first)
        is counted per subscriber and retained in the flight recorder,
        so a flaky later subscriber stays visible even though only the
        first exception is raised (the rest ride along as notes).
        """
        errors: list[BaseException] = []
        metrics = self.metrics
        timed = metrics.enabled
        for observer, name in tuple(self._observers):
            if timed:
                start = perf_counter()
            try:
                observer(delta)
            except Exception as exc:  # noqa: BLE001 — isolate per observer
                errors.append(exc)
                if timed:
                    metrics.counter(
                        "ingest.subscriber_errors", subscriber=name
                    ).inc()
                    metrics.flight.record(
                        "subscriber_error",
                        height=delta.height,
                        subscriber=name,
                        error=repr(exc),
                    )
                if self.log.enabled:
                    self.log.error(
                        "subscriber_error",
                        height=delta.height,
                        subscriber=name,
                        error=repr(exc),
                    )
            if timed:
                metrics.histogram(
                    "ingest.fanout_seconds", subscriber=name
                ).observe(perf_counter() - start)
        if errors:
            first = errors[0]
            for later in errors[1:]:
                first.add_note(
                    f"additional observer failure at height {delta.height}: "
                    f"{later!r}"
                )
            raise first

    def subscribe_deltas(
        self,
        observer: Callable[[BlockDelta], None],
        *,
        name: str | None = None,
    ) -> Callable[[], None]:
        """Register a per-block delta observer; returns an unsubscribe
        callable.

        Observers are called after each block is fully ingested (index
        queries see the block), in registration order, each exactly once
        per block, every one receiving the block's single shared
        :class:`~repro.chain.delta.BlockDelta`.  This is the hook the
        incremental clustering engine and the service layer's
        materialized views stream from; see :meth:`_notify_observers`
        for the fan-out contract under mid-callback (un)subscription and
        observer exceptions.

        ``name`` labels the subscriber in the per-subscriber fan-out
        metrics and error spans (``ingest.fanout_seconds{subscriber=…}``);
        it defaults to the callable's qualified name.
        """
        if name is None:
            name = getattr(observer, "__qualname__", None) or repr(observer)
        entry = (observer, name)
        self._observers.append(entry)

        def unsubscribe() -> None:
            if entry in self._observers:
                self._observers.remove(entry)

        return unsubscribe

    def add_chain(self, blocks: Iterable[Block]) -> None:
        """Ingest a whole chain in order."""
        for block in blocks:
            self.add_block(block)

    # ------------------------------------------------------------------
    # chain / block access
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the chain tip (-1 when empty)."""
        return len(self._blocks) - 1

    @property
    def blocks(self) -> list[Block]:
        """The ingested blocks in height order (fully materialized)."""
        if self._raw_blocks is not None:
            for height, block in enumerate(self._blocks):
                if block is None:
                    self._materialize_block(height)
        return self._blocks

    def block_at(self, height: int) -> Block:
        """The block at ``height``."""
        block = self._blocks[height]
        if block is None:
            block = self._materialize_block(height)
        return block

    def _materialize_block(self, height: int) -> Block:
        """Parse a restored block from its raw bytes on first touch (the
        decoder seats every txid from its wire slice)."""
        block = block_from_bytes(self._raw_blocks[height], height=height)
        self._blocks[height] = block
        return block

    def timestamp_at(self, height: int) -> int:
        """The block timestamp at ``height``."""
        return self._timestamps[height]

    # ------------------------------------------------------------------
    # transaction access
    # ------------------------------------------------------------------

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._tx_locator

    def _locate(self, txid: bytes) -> tuple[int, int]:
        located = self._tx_locator.get(txid)
        if located is None:
            raise UnknownTransactionError(txid[::-1].hex())
        return located

    def tx(self, txid: bytes) -> Transaction:
        """Look up a transaction by internal-order txid."""
        height, index_in_block = self._locate(txid)
        return self.block_at(height).transactions[index_in_block]

    def location(self, txid: bytes) -> TxLocation:
        """Block height/timestamp/position for a txid."""
        height, index_in_block = self._locate(txid)
        return TxLocation(height, self._timestamps[height], index_in_block)

    def height_of(self, txid: bytes) -> int:
        """Block height of a txid (:meth:`location` without the object)."""
        return self._locate(txid)[0]

    def iter_transactions(self) -> Iterator[tuple[Transaction, TxLocation]]:
        """All transactions with their locations, in chain order."""
        for height in range(len(self._blocks)):
            block = self.block_at(height)
            for i, tx in enumerate(block.transactions):
                yield tx, TxLocation(block.height, block.header.timestamp, i)

    @property
    def tx_count(self) -> int:
        return len(self._tx_locator)

    # ------------------------------------------------------------------
    # outputs / UTXO
    # ------------------------------------------------------------------

    def output(self, outpoint: OutPoint) -> TxOut:
        """The output a prevout references (spent or unspent)."""
        utxo = self._utxos.get((outpoint.txid, outpoint.vout))
        if utxo is not None:
            return utxo
        tx = self.tx(outpoint.txid)
        return tx.outputs[outpoint.vout]

    def is_unspent(self, outpoint: OutPoint) -> bool:
        """True while an output is in the UTXO set."""
        return (outpoint.txid, outpoint.vout) in self._utxos

    def spender_of(self, outpoint: OutPoint) -> tuple[bytes, int] | None:
        """``(txid, vin)`` of the input spending an output, if spent."""
        return self._spent_by.get((outpoint.txid, outpoint.vout))

    @property
    def utxo_count(self) -> int:
        return len(self._utxos)

    def utxo_value(self) -> int:
        """Total satoshis in the UTXO set."""
        return sum(out.value for out in self._utxos.values())

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------

    @property
    def interner(self) -> AddressInterner:
        """The index's address interner (string ⇄ dense id)."""
        return self._interner

    def has_address(self, address: str) -> bool:
        return address in self._interner

    def _materialize_record(self, address_id: int) -> AddressRecord:
        """Inflate a restored address record: its rows are already in
        the live shape, so this only takes ownership of them (copies —
        the restored state's lists are not the index's to append to)."""
        receives, spends = self._lazy_records[address_id]
        record = AddressRecord(
            self._interner.address_of(address_id),
            address_id,
            list(receives),
            list(spends),
        )
        self._records_by_id[address_id] = record
        self._lazy_records[address_id] = None
        return record

    def address(self, address: str) -> AddressRecord:
        """The :class:`AddressRecord` for ``address``."""
        ident = self._interner.id_of(address)
        if ident is None:
            raise UnknownAddressError(address)
        return self.address_by_id(ident)

    def address_by_id(self, address_id: int) -> AddressRecord:
        """The :class:`AddressRecord` for an interned address id."""
        try:
            record = self._records_by_id[address_id]
        except IndexError:
            raise UnknownAddressError(f"id:{address_id}") from None
        if record is None:
            record = self._materialize_record(address_id)
        return record

    def iter_addresses(self) -> Iterator[AddressRecord]:
        """Every record, in interned-id (= first-sight) order."""
        for address_id in range(len(self._records_by_id)):
            yield self.address_by_id(address_id)

    @property
    def address_count(self) -> int:
        return len(self._records_by_id)

    def sink_addresses(self) -> list[str]:
        """Addresses that have received but never spent (paper §4.1)."""
        return [rec.address for rec in self.iter_addresses() if rec.is_sink]

    def input_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of the addresses a transaction spends from
        (deduplicated, insertion-ordered).  Empty for coinbases.

        Memoized per txid for transactions in the index: the clustering
        heuristics resolve the same senders repeatedly (H1 unions, H2
        candidate checks, dice lookups, FP replay).
        """
        txid = tx.txid
        cached = self._input_ids.get(txid)
        if cached is not None:
            return cached
        seen: dict[int, None] = {}
        for txin in tx.inputs:
            if txin.is_coinbase:
                continue
            addr = self.output(txin.prevout).address
            if addr is not None:
                seen.setdefault(self._interner.intern(addr))
        ids = tuple(seen)
        if txid in self:
            self._input_ids[txid] = ids
        return ids

    def output_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of a transaction's output addresses, aligned with
        ``tx.outputs`` (-1 for outputs with no extractable address).

        Memoized per txid for transactions in the index: the service
        layer's materialized views (balances, activity) each credit the
        same outputs per block, and script → address extraction is the
        expensive part of that loop.

        For a transaction *not* in the index, addresses are resolved
        without allocating (-1 also covers never-interned addresses):
        interning here would inject phantom ids into the dense
        first-sight id space the per-height snapshot universes rely on.
        """
        txid = tx.txid
        cached = self._output_ids.get(txid)
        if cached is not None:
            return cached
        if txid in self:
            # Ingestion already interned every output address; intern()
            # is a pure lookup here.
            intern = self._interner.intern
            ids = tuple(
                -1 if out.address is None else intern(out.address)
                for out in tx.outputs
            )
            self._output_ids[txid] = ids
            return ids
        id_of = self._interner.id_of
        ids = []
        for out in tx.outputs:
            address = out.address
            ident = id_of(address) if address is not None else None
            ids.append(-1 if ident is None else ident)
        return tuple(ids)

    def input_addresses(self, tx: Transaction) -> list[str]:
        """Addresses owning the outputs a transaction spends (deduplicated,
        insertion-ordered).  Empty for coinbases.  This is the reporting
        edge of :meth:`input_address_ids`."""
        return self._interner.addresses_of(self.input_address_ids(tx))

    def input_spends(self, tx: Transaction) -> tuple[tuple[int, int], ...]:
        """``(address id, value)`` of each consumed output, aligned with
        the transaction's non-coinbase inputs (-1 for exotic scripts).

        Memoized at ingestion (the block walk holds every spent output as
        it pops the UTXO), so for indexed transactions this never
        resolves a prevout — the property the balance view's spend
        debits and a lazily restored index both rely on.
        """
        txid = tx.txid
        cached = self._input_spends.get(txid)
        if cached is not None:
            return cached
        spends: list[tuple[int, int]] = []
        id_of = self._interner.id_of
        for txin in tx.inputs:
            if txin.is_coinbase:
                continue
            out = self.output(txin.prevout)
            ident = id_of(out.address) if out.address is not None else None
            spends.append((-1 if ident is None else ident, out.value))
        resolved = tuple(spends)
        if txid in self:
            self._input_spends[txid] = resolved
        return resolved

    def input_value(self, tx: Transaction) -> int:
        """Total satoshis consumed by a transaction's inputs."""
        if tx.is_coinbase:
            return 0
        return sum(value for _ident, value in self.input_spends(tx))

    def fee(self, tx: Transaction) -> int:
        """Miner fee (inputs minus outputs); 0 for coinbases."""
        if tx.is_coinbase:
            return 0
        return self.input_value(tx) - tx.total_output_value

    # ------------------------------------------------------------------
    # temporal queries used by Heuristic 2 (§4.1/§4.2)
    # ------------------------------------------------------------------

    def appearances_before(self, address: str, height: int) -> int:
        """How many times ``address`` was paid strictly before ``height``."""
        ident = self._interner.id_of(address)
        if ident is None:
            return 0
        return self.address_by_id(ident).receives_before(height)

    def first_seen(self, address: str) -> int | None:
        """Height of the first receive, or ``None`` if never seen."""
        ident = self._interner.id_of(address)
        if ident is None:
            return None
        return self.address_by_id(ident).first_seen_height

    def self_change_heights(self, address: str) -> list[int]:
        """Heights at which ``address`` was used as a self-change address
        (appears among both the inputs and the outputs of one tx)."""
        return self._self_change_history.get(address, [])

    def was_self_change_before(self, address: str, height: int) -> bool:
        """True if the address served as self-change strictly before
        ``height`` (one of the §4.2 refinements)."""
        return any(h < height for h in self._self_change_history.get(address, ()))

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    STATE_VERSION = 1
    """Bump on any incompatible change to the exported state shape."""

    def export_state(self) -> dict:
        """Flatten the index into plain picklable data.

        Everything is primitives, tuples, lists, and dicts — no model
        objects — so serialization and deserialization both run at
        C speed, and :meth:`restore_state` can rebuild lazily.  Blocks
        are exported as their wire bytes (reusing the raw bytes a
        restored index was itself loaded from, where still unparsed).
        """
        raw_blocks: list[bytes] = []
        for height, block in enumerate(self._blocks):
            raw = self._raw_blocks[height] if self._raw_blocks is not None else None
            if raw is None:
                raw = serialize_block(block)
            raw_blocks.append(raw)
        records: list[tuple] = []
        for address_id, record in enumerate(self._records_by_id):
            if record is None:
                records.append(self._lazy_records[address_id])
            else:
                records.append((list(record.receive_rows), list(record.spend_rows)))
        return {
            "version": self.STATE_VERSION,
            "raw_blocks": raw_blocks,
            "timestamps": list(self._timestamps),
            "tx_locator": dict(self._tx_locator),
            "utxos": {
                key: (out.value, out.script_pubkey)
                for key, out in self._utxos.items()
            },
            "spent_by": dict(self._spent_by),
            "addresses": list(self._interner),
            "records": records,
            "self_change": {
                address: list(heights)
                for address, heights in self._self_change_history.items()
            },
        }

    @classmethod
    def restore_state(cls, state: dict) -> "ChainIndex":
        """Rebuild an index from :meth:`export_state` output, lazily.

        Blocks, transactions, and address records are left as flat data
        and materialized on first access; the UTXO set, spender map, and
        interner are rebuilt eagerly (tail ingestion needs them all
        immediately).  The restored index is fully live: it ingests new
        blocks, fans out to observers, and can itself be exported again.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported chain state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        index = cls()
        raw_blocks = list(state["raw_blocks"])
        index._raw_blocks = raw_blocks
        index._blocks = [None] * len(raw_blocks)
        index._timestamps = list(state["timestamps"])
        index._tx_locator = dict(state["tx_locator"])
        index._utxos = {
            key: TxOut(value, script)
            for key, (value, script) in state["utxos"].items()
        }
        index._spent_by = dict(state["spent_by"])
        index._interner = AddressInterner.from_addresses(state["addresses"])
        lazy_records = list(state["records"])
        index._lazy_records = lazy_records
        index._records_by_id = [None] * len(lazy_records)
        index._self_change_history = {
            address: list(heights)
            for address, heights in state["self_change"].items()
        }
        if len(index._timestamps) != len(raw_blocks):
            raise ValueError("chain state timestamps misaligned with blocks")
        if len(index._interner) != len(lazy_records):
            raise ValueError("chain state records misaligned with interner")
        return index
