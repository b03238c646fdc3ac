"""Chain index: the random-access view the analyses run on.

A :class:`ChainIndex` ingests blocks in height order and maintains:

* transaction lookup by txid, with block height and timestamp;
* the UTXO set and which input consumed each spent output;
* per-address histories — every receive and every spend with heights and
  values — which is what Heuristic 2's "has this address appeared
  before?" and "has it received more than one input?" questions read;
* running balances and the set of *sink addresses* (received but never
  spent from), which the paper uses to bound the number of users and to
  define "active bitcoins" in Figure 2.

The index is deliberately append-only: the paper analyses a chain prefix,
and temporal replay (false-positive estimation) is done by *consulting
heights*, not by mutating the index.

**One flat representation.**  The index holds no object per
transaction, output or address:

* a block that arrived from ``blk*.dat`` is kept as its wire bytes
  (``Block.wire``, seated by the decoder) and decoded on demand through
  a small most-recent memo; a block built in memory (simulator, tests)
  is kept as the object it is;
* every output is one row of an append-only *receive log* and every
  consumed input one row of a *spend log* — parallel stdlib ``array``
  columns (``_COLUMNS``), a transaction's rows contiguous and in
  output / input order.  A receive row carries its address id (-1 for
  exotic scripts), transaction ordinal, value, the next row of the same
  address and the spend row that consumed it (-1 while unspent — the
  UTXO set); a spend row carries its transaction ordinal, input
  position, the receive row it consumed and the next spend of the same
  address.  Per address id the index keeps the first and last row in
  each log, so a history read follows one chain (O(rows of that
  address)) and "is this output its address's first receive" is one
  comparison;
* transactions are ordinals into a txid / height table.

:class:`AddressRecord`, :class:`Receive`, :class:`Spend` and
:class:`TxLocation` are values built on read.

Ingestion is **one walk per block**: ``add_block`` validates and
applies each transaction exactly once, and the same pass emits the
block's :class:`~repro.chain.delta.BlockDelta` (id-space, see
``chain/delta.py``) that every subscriber receives.  A rejected block
is reverted whole (the logs are truncated to the block-start marks).
:meth:`ChainIndex.subscribe_deltas` is the fan-out hook (an observer
that wants the block reads ``delta.block`` during its fold; the index
itself does not keep the object).

Durability: :meth:`ChainIndex.export_state` is the same data — wire
blocks, the txid table and every column as raw bytes (state version 2)
— and :meth:`ChainIndex.restore_state` loads it back as it is, so a
live-built index and a restored one are the same thing.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..obs import NULL_LOGGER, NULL_REGISTRY
from .delta import BlockDelta, TxDelta, build_block_delta
from .errors import (
    BlockStructureError,
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
    """Everything the index knows about one address, as a value.

    Built on read (:meth:`ChainIndex.address` /
    :meth:`ChainIndex.address_by_id`) from the index's receive and spend
    logs: histories are plain ``(height, txid, vout | vin, value)`` rows
    in chain order, as of the moment of the read.  :attr:`receives` /
    :attr:`spends` wrap the rows.
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

    def as_of(self, height: int) -> tuple[int, int, int | None, int | None]:
        """``(balance, transaction count, first seen, last seen)`` over
        the rows at heights up to and including ``height``.

        The count is of *distinct* transactions among the receive and
        spend rows — one that pays the address twice, or spends from it
        and pays it change, involves it once — which is what
        :class:`~repro.service.views.ActivityView` counts per block.
        ``(0, 0, None, None)`` when nothing had paid the address yet.
        """
        receives = self.receive_rows[:self.receives_before(height + 1)]
        if not receives:
            return 0, 0, None, None
        spends = self.spend_rows[:bisect_left(self.spend_rows, (height + 1,))]
        txids = {row[1] for row in receives}
        txids.update(row[1] for row in spends)
        return (
            sum(row[3] for row in receives) - sum(row[3] for row in spends),
            len(txids),
            receives[0][0],
            max(receives[-1][0], spends[-1][0]) if spends else receives[-1][0],
        )


@dataclass(frozen=True, slots=True)
class TxLocation:
    """Where a transaction sits in the chain."""

    height: int
    timestamp: int
    index_in_block: int


class HistoryColumns(NamedTuple):
    """int64 copies of the rows of blocks ``0..height``
    (:meth:`ChainIndex.history_columns`): per transaction ordinal its
    height and spend-row count (0 exactly for a coinbase); the receive
    and spend rows past the ``since`` marks, a spend row with the
    address id and value of the receive row it consumed and a receive
    row's spender -1 while unspent at ``height``; and the row ``ends``,
    the ``since`` of a later call."""

    tx_heights: np.ndarray
    tx_spends: np.ndarray
    recv_addr: np.ndarray
    recv_tx: np.ndarray
    recv_value: np.ndarray
    recv_spender: np.ndarray
    spend_tx: np.ndarray
    spend_addr: np.ndarray
    spend_value: np.ndarray
    ends: tuple[int, int]


_PER_BLOCK = (("_timestamps", "q"), ("_block_first_tx", "I"))
_PER_TX = (("_tx_heights", "I"),)
_TX_ROW_STARTS = (("_recv_start", "I"), ("_spend_start", "I"))
_RECEIVE_LOG = (
    ("_recv_addr", "i"),
    ("_recv_tx", "I"),
    ("_recv_value", "q"),
    ("_recv_next", "i"),
    ("_recv_spender", "i"),
)
_SPEND_LOG = (
    ("_spend_tx", "I"),
    ("_spend_vin", "I"),
    ("_spend_src", "I"),
    ("_spend_next", "i"),
)
_PER_ADDRESS = (
    ("_first_recv", "i"),
    ("_last_recv", "i"),
    ("_first_spend", "i"),
    ("_last_spend", "i"),
)
_STATE_COLUMNS = _PER_BLOCK + _PER_TX + _TX_ROW_STARTS + _RECEIVE_LOG + _SPEND_LOG
_COLUMNS = _STATE_COLUMNS + _PER_ADDRESS
"""``(attribute, array typecode)`` of every column of the index, grouped
by what one entry stands for.  The typecodes are the narrowest the
ranges allow (ids, ordinals and rows 32-bit, satoshis and timestamps
64-bit).  The exported state stores each of ``_STATE_COLUMNS`` under its
attribute name without the underscore, as little-endian bytes; the
per-address chain ends are an index over the two logs and are rebuilt
from them (:func:`_chain_ends`)."""


def _column_bytes(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _column_from_bytes(typecode: str, data: bytes) -> array:
    column = array(typecode)
    column.frombytes(data)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _chain_ends(owner: np.ndarray, links: np.ndarray, n_ids: int):
    """``(first, last)`` row per address id (-1 for none) of the chains
    ``links`` threads through a log whose rows belong to ``owner`` ids
    (-1 rows belong to nobody).  A chain's first row is nobody's
    successor and its last row has none — one of each per address, so
    the two scatters below never write an id twice."""
    has_owner = owner >= 0
    is_successor = np.zeros(len(owner), dtype=bool)
    is_successor[links[links >= 0]] = True
    ends = []
    for mask in (has_owner & ~is_successor, has_owner & (links < 0)):
        rows = np.flatnonzero(mask)
        end = np.full(n_ids, -1, dtype=np.int32)
        end[owner[rows]] = rows
        column = array("i")
        column.frombytes(end.tobytes())
        ends.append(column)
    return ends


def _cut_chain(links: array, row: int, limit: int) -> int:
    """Follow an address's row chain from ``row`` and unlink the part at
    or past ``limit``; returns the last surviving row."""
    while True:
        following = links[row]
        if following >= limit:
            links[row] = -1
        if following < 0 or following >= limit:
            return row
        row = following


class ChainIndex:
    """Indexed view over an ordered sequence of blocks."""

    _MEMO_BLOCKS = 16
    """Decoded wire-held blocks kept by :meth:`block_at` (most recently
    used): enough for a scanning analysis and the lookups around it,
    small enough that reading the chain never re-inflates it."""

    def __init__(self) -> None:
        self._blocks: list[bytes | Block] = []
        """Per height: the block's wire bytes, or the :class:`Block`
        itself when it arrived without any."""
        self._decoded: dict[int, Block] = {}
        """:meth:`block_at`'s memo, least recently used first."""
        self._txids: list[bytes] = []
        """The txid table: one entry per transaction ordinal (chain
        order); ``_tx_heights`` is its height column."""
        self._tx_locator: dict[bytes, int] = {}
        """txid -> transaction ordinal."""
        for name, typecode in _COLUMNS:
            setattr(self, name, array(typecode))
        # Transaction ``o`` owns receive rows ``_recv_start[o]`` up to
        # ``_recv_start[o + 1]`` (one per output) and likewise its spend
        # rows (one per non-coinbase input).
        self._recv_start.append(0)
        self._spend_start.append(0)
        self._interner = AddressInterner()
        # Addresses appearing in a tx's outputs whose prevouts include the
        # same address ("self-change" usage, §4.2).
        self._self_change_history: dict[str, list[int]] = {}
        self._observers: list[tuple[Callable[[BlockDelta], None], str]] = []
        """``(observer, name)`` pairs in registration order.  Names key
        the per-subscriber fan-out metrics."""
        self._catch_ups: list[tuple[Callable, int]] | None = None
        """:meth:`catching_up`'s queued ``(observer, height)`` requests."""
        self._metrics = NULL_REGISTRY
        self.log = NULL_LOGGER
        """Structured event sink (:class:`~repro.obs.log.EventLogger`).
        Defaults to the shared null logger — assign a
        :class:`~repro.obs.log.JsonLinesLogger` to record ingest and
        subscriber-failure events; see ``docs/observability.md``."""

    def instrument(self, registry) -> None:
        """Record telemetry into ``registry`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`; until then the
        shared disabled one): per-stage ingest timings (``ingest.*``),
        per-block flight spans and the sampled ``chain.*`` size gauges;
        see ``docs/metrics.md``."""
        self._metrics = registry
        if registry.enabled:
            registry.gauge_fn("chain.blocks_resident", lambda: self.blocks_resident)
            registry.gauge_fn("chain.history_rows", lambda: self.history_rows)
            registry.gauge_fn("chain.wire_bytes", lambda: self.wire_bytes)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> None:
        """Ingest the next block.  Blocks must arrive in height order.

        All or nothing: a block at the wrong height or with an invalid
        transaction raises (:class:`BlockStructureError` /
        :class:`DoubleSpendError` / :class:`MissingInputError`) and
        leaves the index exactly as it was — no subscriber is notified,
        and the correct block for that height still ingests.

        A decoded block is kept as its wire bytes; the object is the
        caller's (and, during the fan-out, the subscribers') to drop.
        """
        expected = len(self._blocks)
        if block.height != expected:
            raise BlockStructureError(
                f"blocks must be added in order: expected height {expected}, "
                f"got {block.height}"
            )
        metrics = self._metrics
        timed = metrics.enabled
        if timed:
            start = perf_counter()
        emit = bool(self._observers)
        first_tx = len(self._txids)
        columns = self._walk_block(block, emit)
        self._blocks.append(block if block.wire is None else block.wire)
        self._timestamps.append(block.header.timestamp)
        self._block_first_tx.append(first_tx)
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

        Validates and applies every transaction (one receive row per
        output, one spend row per consumed input, interning, the txid
        table) and, in the same pass, emits the block's
        :class:`BlockDelta` columns — returned as the argument tuple of
        :meth:`BlockDelta.from_columns` (the per-tx :class:`TxDelta`
        list only when ``emit``, i.e. someone is subscribed).
        :func:`~repro.chain.delta.build_block_delta` derives the
        identical delta from the rows this walk appends (pinned by
        ``tests/chain/test_delta.py``).

        Anything raised part-way truncates every log to where the block
        began before the error propagates.  Each row's columns are
        appended before the row is linked to, so the truncation is exact
        wherever the walk stopped; the success path keeps no journal.
        """
        height = block.height
        locator = self._tx_locator
        locate = locator.get
        txids = self._txids
        tx_heights = self._tx_heights
        recv_start = self._recv_start
        spend_start = self._spend_start
        recv_addr = self._recv_addr
        recv_tx = self._recv_tx
        recv_value = self._recv_value
        recv_next = self._recv_next
        recv_spender = self._recv_spender
        spend_tx = self._spend_tx
        spend_vin = self._spend_vin
        spend_src = self._spend_src
        spend_next = self._spend_next
        first_recv = self._first_recv
        last_recv = self._last_recv
        first_spend = self._first_spend
        last_spend = self._last_spend
        id_of = self._interner.id_of
        intern = self._interner.intern
        address_of = self._interner.address_of
        self_change = self._self_change_history
        txds: list[TxDelta] = []
        event_ids: list[int] = []
        event_values: list[int] = []
        involved_flat: list[int] = []
        h1_a: list[int] = []
        h1_b: list[int] = []
        block_involved: dict[int, None] = {}
        minted = 0
        marks = (len(txids), len(recv_addr), len(spend_tx), len(first_recv))
        self_changed: list[str] = []
        ordinal, recv_row, spend_row, _n_ids = marks  # the next of each
        try:
            for tx in block.transactions:
                txid = tx.txid
                if txid in locator:
                    raise DoubleSpendError(f"duplicate transaction {tx.txid_hex}")
                inputs = tx.inputs
                input_ids: dict[int, None] = {}  # dedup'd, insertion-ordered
                for vin, txin in enumerate(inputs):
                    prevout = txin.prevout
                    prev_txid = prevout.txid
                    prev_vout = prevout.vout
                    if prev_vout == COINBASE_VOUT and prev_txid == COINBASE_TXID:
                        continue
                    source = locate(prev_txid)
                    if source is not None:
                        spent = recv_start[source] + prev_vout
                        if not recv_start[source] <= spent < recv_start[source + 1]:
                            source = None
                    if source is None:
                        raise MissingInputError(
                            f"{tx.txid_hex} spends unknown outpoint "
                            f"{prev_txid[::-1].hex()}:{prev_vout}"
                        )
                    if recv_spender[spent] >= 0:
                        raise DoubleSpendError(
                            f"{tx.txid_hex} double-spends "
                            f"{prev_txid[::-1].hex()}:{prev_vout}"
                        )
                    row = spend_row
                    spend_row += 1
                    spend_tx.append(ordinal)
                    spend_vin.append(vin)
                    spend_src.append(spent)
                    spend_next.append(-1)
                    recv_spender[spent] = row
                    ident = recv_addr[spent]
                    if ident < 0:
                        continue
                    previous = last_spend[ident]
                    if previous < 0:
                        first_spend[ident] = row
                    else:
                        spend_next[previous] = row
                    last_spend[ident] = row
                    input_ids[ident] = None
                    event_ids.append(ident)
                    event_values.append(-recv_value[spent])
                involved = input_ids.copy()
                output_ids: list[int] = []
                output_value = 0
                for txout in tx.outputs:
                    address = txout.address
                    value = txout.value
                    output_value += value
                    row = recv_row
                    recv_row += 1
                    ident = -1 if address is None else id_of(address)
                    is_new = ident is None
                    if is_new:
                        ident = intern(address)
                    recv_addr.append(ident)
                    recv_tx.append(ordinal)
                    recv_value.append(value)
                    recv_next.append(-1)
                    recv_spender.append(-1)
                    output_ids.append(ident)
                    if ident < 0:
                        continue
                    if is_new:
                        first_recv.append(row)
                        last_recv.append(row)
                        first_spend.append(-1)
                        last_spend.append(-1)
                    else:
                        recv_next[last_recv[ident]] = row
                        last_recv[ident] = row
                        if ident in input_ids:
                            # Keyed by the interned string, so the index
                            # holds one object per address and exports
                            # the same bytes whichever object the block
                            # carried.
                            address = address_of(ident)
                            self_change.setdefault(address, []).append(height)
                            self_changed.append(address)
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
                    minted += output_value
                elif spend_row == spend_start[-1]:  # coinbase ⇔ no spend rows
                    raise BlockStructureError(f"{tx.txid_hex} spends nothing")
                involved_flat.extend(involved)
                block_involved.update(involved)
                txids.append(txid)
                tx_heights.append(height)
                recv_start.append(recv_row)
                spend_start.append(spend_row)
                locator[txid] = ordinal
                ordinal += 1
                if emit:
                    txds.append(
                        TxDelta(tx, is_coinbase, sender_ids, tuple(output_ids))
                    )
        except BaseException:
            self._revert_block(marks, self_changed)
            raise
        return (
            txds, event_ids, event_values, involved_flat, h1_a, h1_b,
            block_involved, minted,
        )

    def _revert_block(
        self, marks: tuple[int, int, int, int], self_changed: list[str]
    ) -> None:
        """Undo a partially walked block: un-spend what it consumed, cut
        every surviving address's row chains at the block-start marks
        and truncate the logs, the txid table and the interner to them.

        The cuts follow each touched address's chain from its first row
        — O(its rows), paid on this failure path only."""
        n_tx, n_recv, n_spend, n_ids = marks
        recv_addr = self._recv_addr
        recv_spender = self._recv_spender
        touched = set(recv_addr[n_recv:])
        for spent in self._spend_src[n_spend:]:
            if spent < n_recv:
                recv_spender[spent] = -1
                touched.add(recv_addr[spent])
        for ident in touched:
            if not 0 <= ident < n_ids:
                continue
            self._last_recv[ident] = _cut_chain(
                self._recv_next, self._first_recv[ident], n_recv
            )
            head = self._first_spend[ident]
            if head >= n_spend:
                self._first_spend[ident] = self._last_spend[ident] = -1
            elif head >= 0:
                self._last_spend[ident] = _cut_chain(
                    self._spend_next, head, n_spend
                )
        for txid in self._txids[n_tx:]:
            self._tx_locator.pop(txid, None)
        del self._txids[n_tx:]
        for columns, length in (
            (_PER_TX, n_tx),
            (_TX_ROW_STARTS, n_tx + 1),
            (_RECEIVE_LOG, n_recv),
            (_SPEND_LOG, n_spend),
            (_PER_ADDRESS, n_ids),
        ):
            for name, _typecode in columns:
                del getattr(self, name)[length:]
        self._interner.truncate(n_ids)
        self_change = self._self_change_history
        for address in reversed(self_changed):
            heights = self_change[address]
            heights.pop()
            if not heights:
                del self_change[address]

    def block_delta(self, height: int) -> BlockDelta:
        """Rebuild the delta :meth:`add_block` emitted for one held block
        — for :meth:`catch_up`, the one loop over blocks already held."""
        return build_block_delta(self, self.block_at(height))

    def catch_up(self, observer: Callable, height: int) -> None:
        """Replay ``block_delta(h)`` into ``observer`` for each ``h`` in
        ``(height, tip]``, before it subscribes: queued inside
        :meth:`catching_up`, a scope of its own outside one."""
        if self._catch_ups is None:
            with self.catching_up():
                self.catch_up(observer, height)
        elif height < self.height:
            self._catch_ups.append((observer, height))

    @contextmanager
    def catching_up(self):
        """On exit, serve every :meth:`catch_up` made in the scope with one
        pass: each height's delta is built **once** and handed to every
        queued observer still behind it, in request order (the live
        fan-out's).  A nested scope joins the outer one.  If the scope
        raises, every subscriber registered in it is unsubscribed."""
        if self._catch_ups is not None:
            yield
            return
        requests = self._catch_ups = []
        before = list(self._observers)
        try:
            yield
            start = min((behind for _, behind in requests), default=self.height)
            for height in range(start + 1, self.height + 1):
                delta = self.block_delta(height)
                for observer, behind in requests:
                    if behind < height:
                        observer(delta)
        except BaseException:
            self._observers[:] = [e for e in self._observers if e in before]
            raise
        finally:
            self._catch_ups = None

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
        metrics = self._metrics
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
        observer exceptions.  Blocks already held reach an observer
        only through :meth:`catch_up`.

        An observer may read ``delta.block`` and each ``TxDelta.tx``
        while it folds, and must not keep them (or the delta) afterwards:
        the index holds the block as bytes, so a retained delta is what
        would keep the block's objects alive.

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

    def block_at(self, height: int) -> Block:
        """The block at ``height`` (decoded through the memo when the
        index holds its wire bytes)."""
        entry = self._blocks[height]
        if not isinstance(entry, bytes):
            return entry
        if height < 0:
            height += len(self._blocks)
        memo = self._decoded
        block = memo.pop(height, None)
        if block is None:
            block = block_from_bytes(entry, height=height)
            if len(memo) >= self._MEMO_BLOCKS:
                del memo[next(iter(memo))]
        memo[height] = block
        return block

    def timestamp_at(self, height: int) -> int:
        """The block timestamp at ``height``."""
        return self._timestamps[height]

    @property
    def blocks_resident(self) -> int:
        """Decoded :class:`Block` objects the index holds right now:
        the blocks that arrived without wire bytes plus the memo."""
        return len(self._decoded) + sum(
            not isinstance(entry, bytes) for entry in self._blocks
        )

    @property
    def wire_bytes(self) -> int:
        """Bytes of block wire data held in place of block objects."""
        return sum(len(entry) for entry in self._blocks if isinstance(entry, bytes))

    @property
    def history_rows(self) -> int:
        """Rows in the receive and spend logs together."""
        return len(self._recv_addr) + len(self._spend_tx)

    def history_columns(
        self, height: int, since: tuple[int, int] = (0, 0)
    ) -> HistoryColumns:
        """The rows of blocks ``0..height`` (:class:`HistoryColumns`),
        copied out of the columns — never viewed, which would pin them."""
        n_tx = (
            self._block_first_tx[height + 1]
            if height + 1 < len(self._blocks)
            else len(self._txids)
        )
        recv_end = self._recv_start[n_tx]
        spend_end = self._spend_start[n_tx]

        def column(name: str, start: int, stop: int) -> np.ndarray:
            values = getattr(self, name)[start:stop]
            return np.frombuffer(values, dtype=values.typecode).astype(np.int64)

        recv, spend = (since[0], recv_end), (since[1], spend_end)
        consumed = column("_spend_src", *spend)
        spender = column("_recv_spender", *recv)
        spender[spender >= spend_end] = -1
        return HistoryColumns(
            column("_tx_heights", 0, n_tx),
            np.diff(column("_spend_start", 0, n_tx + 1)),
            *(column(name, *recv) for name in ("_recv_addr", "_recv_tx")),
            column("_recv_value", *recv),
            spender,
            column("_spend_tx", *spend),
            column("_recv_addr", 0, recv_end)[consumed],
            column("_recv_value", 0, recv_end)[consumed],
            (recv_end, spend_end),
        )

    # ------------------------------------------------------------------
    # transaction access
    # ------------------------------------------------------------------

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._tx_locator

    def _ordinal(self, txid: bytes) -> int:
        ordinal = self._tx_locator.get(txid)
        if ordinal is None:
            raise UnknownTransactionError(txid[::-1].hex())
        return ordinal

    def tx(self, txid: bytes) -> Transaction:
        """Look up a transaction by internal-order txid."""
        ordinal = self._ordinal(txid)
        height = self._tx_heights[ordinal]
        return self.block_at(height).transactions[
            ordinal - self._block_first_tx[height]
        ]

    def location(self, txid: bytes) -> TxLocation:
        """Block height/timestamp/position for a txid."""
        ordinal = self._ordinal(txid)
        height = self._tx_heights[ordinal]
        return TxLocation(
            height, self._timestamps[height], ordinal - self._block_first_tx[height]
        )

    def height_of(self, txid: bytes) -> int:
        """Block height of a txid (:meth:`location` without the object)."""
        return self._tx_heights[self._ordinal(txid)]

    def iter_transactions(self) -> Iterator[tuple[Transaction, TxLocation]]:
        """All transactions with their locations, in chain order."""
        for height in range(len(self._blocks)):
            block = self.block_at(height)
            for i, tx in enumerate(block.transactions):
                yield tx, TxLocation(block.height, block.header.timestamp, i)

    @property
    def tx_count(self) -> int:
        return len(self._txids)

    # ------------------------------------------------------------------
    # outputs / UTXO
    # ------------------------------------------------------------------

    def _output_row(self, outpoint: OutPoint) -> int | None:
        """The receive row of an indexed output, else ``None``."""
        ordinal = self._tx_locator.get(outpoint.txid)
        if ordinal is None:
            return None
        first = self._recv_start[ordinal]
        row = first + outpoint.vout
        return row if first <= row < self._recv_start[ordinal + 1] else None

    def output(self, outpoint: OutPoint) -> TxOut:
        """The output a prevout references (spent or unspent)."""
        return self.tx(outpoint.txid).outputs[outpoint.vout]

    def is_unspent(self, outpoint: OutPoint) -> bool:
        """True while an output is in the UTXO set."""
        row = self._output_row(outpoint)
        return row is not None and self._recv_spender[row] < 0

    def spender_of(self, outpoint: OutPoint) -> tuple[bytes, int] | None:
        """``(txid, vin)`` of the input spending an output, if spent."""
        row = self._output_row(outpoint)
        if row is None or self._recv_spender[row] < 0:
            return None
        spender = self._recv_spender[row]
        return self._txids[self._spend_tx[spender]], self._spend_vin[spender]

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------

    @property
    def interner(self) -> AddressInterner:
        """The index's address interner (string ⇄ dense id)."""
        return self._interner

    def has_address(self, address: str) -> bool:
        return address in self._interner

    def address(self, address: str) -> AddressRecord:
        """The :class:`AddressRecord` for ``address``."""
        ident = self._interner.id_of(address)
        if ident is None:
            raise UnknownAddressError(address)
        return self.address_by_id(ident)

    def address_by_id(self, address_id: int) -> AddressRecord:
        """The :class:`AddressRecord` for an interned address id, built
        from the logs: O(rows of that address)."""
        if not 0 <= address_id < len(self._first_recv):
            raise UnknownAddressError(f"id:{address_id}")
        heights = self._tx_heights
        txids = self._txids
        start = self._recv_start
        tx = self._recv_tx
        value = self._recv_value
        following = self._recv_next
        receives = []
        row = self._first_recv[address_id]
        while row >= 0:
            ordinal = tx[row]
            receives.append(
                (heights[ordinal], txids[ordinal], row - start[ordinal], value[row])
            )
            row = following[row]
        tx = self._spend_tx
        vin = self._spend_vin
        source = self._spend_src
        following = self._spend_next
        spends = []
        row = self._first_spend[address_id]
        while row >= 0:
            ordinal = tx[row]
            spends.append(
                (heights[ordinal], txids[ordinal], vin[row], value[source[row]])
            )
            row = following[row]
        return AddressRecord(
            self._interner.address_of(address_id), address_id, receives, spends
        )

    def iter_addresses(self) -> Iterator[AddressRecord]:
        """Every record, in interned-id (= first-sight) order."""
        for address_id in range(len(self._first_recv)):
            yield self.address_by_id(address_id)

    @property
    def address_count(self) -> int:
        return len(self._first_recv)

    def sink_addresses(self) -> list[str]:
        """Addresses that have received but never spent (paper §4.1)."""
        address_of = self._interner.address_of
        return [
            address_of(ident)
            for ident, row in enumerate(self._first_spend)
            if row < 0
        ]

    def _consumed_rows(self, tx: Transaction):
        """The receive rows a transaction's non-coinbase inputs consume,
        in input order.  An indexed transaction's spend rows name them;
        only a foreign one's prevouts are looked up."""
        ordinal = self._tx_locator.get(tx.txid)
        if ordinal is not None:
            return self._spend_src[
                self._spend_start[ordinal]:self._spend_start[ordinal + 1]
            ]
        rows = []
        for txin in tx.inputs:
            if not txin.is_coinbase:
                row = self._output_row(txin.prevout)
                if row is None:
                    raise UnknownTransactionError(txin.prevout.txid[::-1].hex())
                rows.append(row)
        return rows

    def input_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of the addresses a transaction spends from
        (deduplicated, insertion-ordered).  Empty for coinbases."""
        addr = self._recv_addr
        return tuple(
            dict.fromkeys(
                ident for row in self._consumed_rows(tx) if (ident := addr[row]) >= 0
            )
        )

    def output_address_ids(self, tx: Transaction) -> tuple[int, ...]:
        """Interned ids of a transaction's output addresses, aligned with
        ``tx.outputs`` (-1 for outputs with no extractable address).

        For an indexed transaction these are its receive rows' ids — no
        script is touched.  For a transaction *not* in the index,
        addresses are resolved without allocating (-1 also covers
        never-interned addresses): interning here would inject phantom
        ids into the dense first-sight id space the per-height snapshot
        universes rely on.
        """
        ordinal = self._tx_locator.get(tx.txid)
        if ordinal is not None:
            return tuple(
                self._recv_addr[
                    self._recv_start[ordinal]:self._recv_start[ordinal + 1]
                ]
            )
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
        the transaction's non-coinbase inputs (-1 for exotic scripts)."""
        addr = self._recv_addr
        value = self._recv_value
        return tuple((addr[row], value[row]) for row in self._consumed_rows(tx))

    def input_value(self, tx: Transaction) -> int:
        """Total satoshis consumed by a transaction's inputs."""
        if tx.is_coinbase:
            return 0
        return sum(value for _ident, value in self.input_spends(tx))

    # ------------------------------------------------------------------
    # temporal queries used by Heuristic 2 (§4.1/§4.2)
    # ------------------------------------------------------------------

    def fresh_outputs(self, txid: bytes) -> list[int]:
        """Output positions of an indexed transaction whose address had
        never been paid before that very output (H2's condition 1): the
        output's row *is* its address's first receive row."""
        ordinal = self._ordinal(txid)
        first = self._recv_start[ordinal]
        addr = self._recv_addr
        first_recv = self._first_recv
        return [
            row - first
            for row in range(first, self._recv_start[ordinal + 1])
            if addr[row] >= 0 and first_recv[addr[row]] == row
        ]

    def first_receive_heights(self, address_id: int, limit: int) -> list[int]:
        """Heights of the address's first ``limit`` receives, in chain
        order (fewer when it has fewer): O(``limit``) however long the
        history, which is what H2's "had received exactly one input
        before" asks of every output of a candidate transaction."""
        heights = []
        row = self._first_recv[address_id]
        while row >= 0 and len(heights) < limit:
            heights.append(self._tx_heights[self._recv_tx[row]])
            row = self._recv_next[row]
        return heights

    def self_change_heights(self, address: str) -> list[int]:
        """Heights at which ``address`` was used as a self-change address
        (appears among both the inputs and the outputs of one tx)."""
        return self._self_change_history.get(address, [])

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    STATE_VERSION = 2
    """Bump on any incompatible change to the exported state shape.
    Version 2: wire blocks, the txid table and every column of
    ``_STATE_COLUMNS`` as raw little-endian bytes."""

    def export_state(self) -> dict:
        """The index as plain picklable data: what it holds, as it
        holds it.

        Wire-held blocks export the bytes they arrived as; a block kept
        as an object is serialized here.  Every column exports as one
        ``bytes``.  The UTXO set and the spender map are columns of the
        receive log, so nothing is rebuilt per entry on either side.
        """
        state = {
            "version": self.STATE_VERSION,
            "blocks": [
                entry if isinstance(entry, bytes) else serialize_block(entry)
                for entry in self._blocks
            ],
            "txids": b"".join(self._txids),
            "addresses": list(self._interner),
            "self_change": {
                address: list(heights)
                for address, heights in self._self_change_history.items()
            },
        }
        for name, _typecode in _STATE_COLUMNS:
            state[name[1:]] = _column_bytes(getattr(self, name))
        return state

    @classmethod
    def restore_state(cls, state: dict) -> "ChainIndex":
        """Rebuild an index from :meth:`export_state` output.

        The columns load as they are; only the txid locator and the
        interner's string → id map are rebuilt (one dict insert per
        transaction and per address).  The restored index is fully live:
        it ingests new blocks, fans out to observers, and can itself be
        exported again — to the same bytes a never-restarted index
        exports.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported chain state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        index = cls()
        index._blocks = list(state["blocks"])
        table = state["txids"]
        index._txids = [table[i:i + 32] for i in range(0, len(table), 32)]
        index._tx_locator = {txid: i for i, txid in enumerate(index._txids)}
        for name, typecode in _STATE_COLUMNS:
            setattr(index, name, _column_from_bytes(typecode, state[name[1:]]))
        index._interner = AddressInterner.from_addresses(state["addresses"])
        index._self_change_history = {
            address: list(heights)
            for address, heights in state["self_change"].items()
        }

        def aligned(columns, length: int) -> bool:
            return all(len(getattr(index, name)) == length for name, _ in columns)

        n_tx = len(index._txids)
        if not (
            aligned(_PER_BLOCK, len(index._blocks))
            and len(table) == 32 * n_tx == 32 * len(index._tx_locator)
            and aligned(_PER_TX, n_tx)
            and aligned(_TX_ROW_STARTS, n_tx + 1)
            and aligned(_RECEIVE_LOG, index._recv_start[-1])
            and aligned(_SPEND_LOG, index._spend_start[-1])
        ):
            raise ValueError("chain state columns are misaligned")
        n_ids = len(index._interner)
        owner = np.frombuffer(state["recv_addr"], dtype="<i4")
        index._first_recv, index._last_recv = _chain_ends(
            owner, np.frombuffer(state["recv_next"], dtype="<i4"), n_ids
        )
        index._first_spend, index._last_spend = _chain_ends(
            owner[np.frombuffer(state["spend_src"], dtype="<u4")],
            np.frombuffer(state["spend_next"], dtype="<i4"),
            n_ids,
        )
        return index
