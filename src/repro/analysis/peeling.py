"""Peeling-chain tracking (§5).

A peeling chain is a long run of transactions in which a large coin
repeatedly "peels off" a small payment and sends the remainder to a
one-time change address.  The paper's methodology:

    "At each hop, we look at the two output addresses in the
    transaction.  If one of these output addresses is a change address,
    we can follow the chain to the next hop ... and can identify the
    meaningful recipient in the transaction as the other output
    address (the 'peel')."

:class:`PeelingTracker` implements exactly this on top of Heuristic 2:
start from an address or outpoint holding a large value, find the
transaction that spends it, ask H2 for the change output, record every
other output as a peel, and continue from the change.  Single-output
sweeps are followed as chain continuations (they move the whole
remainder), matching how the paper followed the 158,336 BTC deposit
into the first chain head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.index import ChainIndex
from ..chain.model import OutPoint, Transaction
from ..core.heuristic2 import Heuristic2, Heuristic2Config

TERMINATED_MAX_HOPS = "max-hops"
TERMINATED_UNSPENT = "unspent"
TERMINATED_NO_CHANGE = "no-change-identified"
TERMINATED_EXHAUSTED = "value-exhausted"


@dataclass(frozen=True, slots=True)
class Peel:
    """One meaningful recipient payment peeled off a chain."""

    hop: int
    txid: bytes
    height: int
    address: str
    value: int
    address_id: int = -1
    """Interned id of ``address`` (-1 when the tracker ran against an
    index without that address interned — never the case for outputs
    seen by a :class:`~repro.chain.index.ChainIndex`).  Downstream
    aggregation resolves entities by id; the string is the reporting
    edge."""

    spent_height: int | None = None
    """Height at which the recipient spent this peel output, or ``None``
    while it sits unspent.  The spend is the first on-chain evidence of
    who owns the peel (a sweep co-spends it with the recipient's other
    deposits), so it is the natural horizon for naming the recipient."""


@dataclass
class PeelHop:
    """One transaction along a followed chain."""

    hop: int
    txid: bytes
    height: int
    kind: str
    """``peel`` (change + recipients), ``sweep`` (single-output move)."""

    peels: list[Peel]
    change_address: str | None
    remaining_value: int


@dataclass
class PeelChain:
    """A fully followed chain."""

    start: OutPoint
    start_address: str | None
    hops: list[PeelHop] = field(default_factory=list)
    terminated: str = TERMINATED_MAX_HOPS

    @property
    def peels(self) -> list[Peel]:
        """All peels along the chain, in order."""
        return [peel for hop in self.hops for peel in hop.peels]

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    def total_peeled(self) -> int:
        return sum(p.value for p in self.peels)


class PeelingTracker:
    """Follows peeling chains using Heuristic 2 change identification."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        h2_config: Heuristic2Config | None = None,
        dice_addresses: frozenset[str] = frozenset(),
        value_peel_threshold: float | None = 0.85,
    ) -> None:
        """``value_peel_threshold`` enables the peel-shape fallback: when
        Heuristic 2 is ambiguous (every output fresh — common when peel
        recipients are per-transaction deposit addresses), a transaction
        whose largest output carries at least this fraction of the total
        is treated as a peel with the largest output as the remainder —
        the 'small amount peeled, remainder to change' structure §5
        defines.  Set to ``None`` to follow strict H2 only."""
        self.index = index
        self._interner_id_of = index.interner.id_of
        self.heuristic2 = Heuristic2(
            index,
            h2_config or Heuristic2Config.refined(),
            dice_addresses=dice_addresses,
        )
        if value_peel_threshold is not None and not 0.5 < value_peel_threshold <= 1.0:
            raise ValueError("value_peel_threshold must be in (0.5, 1]")
        self.value_peel_threshold = value_peel_threshold

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def follow_address(self, address: str, *, max_hops: int = 100) -> PeelChain:
        """Follow the chain starting from the (latest unspent-then-spent)
        coin at ``address``: typically the chain head's funding output."""
        record = self.index.address(address)
        if not record.receive_rows:
            raise ValueError(f"{address} never received anything")
        _height, txid, vout, _value = record.receive_rows[0]
        return self.follow(OutPoint(txid, vout), max_hops=max_hops)

    def follow(
        self,
        start: OutPoint,
        *,
        max_hops: int = 100,
        stop_at=None,
    ) -> PeelChain:
        """Follow the chain starting from one outpoint.

        ``stop_at`` is an optional predicate over addresses: when a
        single-output sweep pays an address the predicate accepts (e.g.
        a known exchange deposit address), the sweep is recorded as a
        terminal peel instead of being followed into the recipient's
        wallet.
        """
        start_address = self.index.output(start).address
        chain = PeelChain(start=start, start_address=start_address)
        current = start
        for hop_number in range(1, max_hops + 1):
            spender = self.index.spender_of(current)
            if spender is None:
                chain.terminated = TERMINATED_UNSPENT
                return chain
            txid, _vin = spender
            tx = self.index.tx(txid)
            height = self.index.location(txid).height
            next_outpoint, hop = self._advance(tx, height, hop_number)
            if (
                hop.kind == "sweep"
                and stop_at is not None
                and hop.change_address is not None
                and stop_at(hop.change_address)
            ):
                # The whole remainder went to a known entity: terminal peel.
                hop.kind = "exit"
                hop.peels = [
                    Peel(
                        hop=hop_number,
                        txid=tx.txid,
                        height=height,
                        address=hop.change_address,
                        value=hop.remaining_value,
                        address_id=self._peel_id(hop.change_address),
                        spent_height=self._spent_height(tx.txid, 0),
                    )
                ]
                hop.change_address = None
                chain.hops.append(hop)
                chain.terminated = TERMINATED_EXHAUSTED
                return chain
            chain.hops.append(hop)
            if next_outpoint is None:
                chain.terminated = (
                    TERMINATED_EXHAUSTED if hop.kind == "peel" else TERMINATED_NO_CHANGE
                )
                return chain
            current = next_outpoint
        chain.terminated = TERMINATED_MAX_HOPS
        return chain

    # ------------------------------------------------------------------
    # one hop
    # ------------------------------------------------------------------

    def _advance(
        self, tx: Transaction, height: int, hop_number: int
    ) -> tuple[OutPoint | None, PeelHop]:
        # Single-output transactions move the whole remainder: follow.
        if len(tx.outputs) == 1:
            out = tx.outputs[0]
            hop = PeelHop(
                hop=hop_number,
                txid=tx.txid,
                height=height,
                kind="sweep",
                peels=[],
                change_address=out.address,
                remaining_value=out.value,
            )
            return OutPoint(tx.txid, 0), hop
        label, _reason = self.heuristic2.identify_change(tx)
        change_vout: int | None = label.vout if label is not None else None
        kind = "peel"
        if change_vout is None and self.value_peel_threshold is not None:
            change_vout = self._peel_shape_vout(tx)
            kind = "peel-value"
        if change_vout is None:
            # Without an identified change address the paper cannot
            # continue the chain with confidence.
            hop = PeelHop(
                hop=hop_number,
                txid=tx.txid,
                height=height,
                kind="no-change",
                peels=[],
                change_address=None,
                remaining_value=0,
            )
            return None, hop
        peels = []
        for vout, out in enumerate(tx.outputs):
            if vout == change_vout:
                continue
            address = out.address  # extracted once: base58 decode is hot
            if address is None:
                continue
            peels.append(
                Peel(
                    hop=hop_number,
                    txid=tx.txid,
                    height=height,
                    address=address,
                    value=out.value,
                    address_id=self._peel_id(address),
                    spent_height=self._spent_height(tx.txid, vout),
                )
            )
        hop = PeelHop(
            hop=hop_number,
            txid=tx.txid,
            height=height,
            kind=kind,
            peels=peels,
            change_address=tx.outputs[change_vout].address,
            remaining_value=tx.outputs[change_vout].value,
        )
        return OutPoint(tx.txid, change_vout), hop

    def _peel_id(self, address: str) -> int:
        """Interned id for a peel recipient (-1 if never interned)."""
        ident = self._interner_id_of(address)
        return -1 if ident is None else ident

    def _spent_height(self, txid: bytes, vout: int) -> int | None:
        """Height at which the peel output was spent, if it has been."""
        spender = self.index.spender_of(OutPoint(txid, vout))
        if spender is None:
            return None
        return self.index.location(spender[0]).height

    def _peel_shape_vout(self, tx: Transaction) -> int | None:
        """The remainder output under the peel-shape rule, or None."""
        total = tx.total_output_value
        if total <= 0:
            return None
        best_vout, best_value = max(
            enumerate(out.value for out in tx.outputs), key=lambda kv: kv[1]
        )
        if best_value / total < self.value_peel_threshold:
            return None
        return best_vout


@dataclass(frozen=True)
class ServicePeelSummary:
    """Table 2 row fragment: peels and value seen to one service."""

    service: str
    peel_count: int
    total_value: int


def summarize_peels_by_entity(
    chain: PeelChain, name_of_address, *, name_of_id=None, name_of_peel=None
) -> dict[str, ServicePeelSummary]:
    """Aggregate a chain's peels per named recipient entity.

    ``name_of_address`` is a callable (typically
    :meth:`repro.tagging.naming.ClusterNaming.name_of_address`) returning
    an entity name or ``None`` for unnamed recipients.  Pass
    ``name_of_id`` (e.g.
    :meth:`~repro.tagging.naming.ClusterNaming.name_of_address_id`) to
    resolve interned peels by dense id instead of re-hashing address
    strings.  ``name_of_peel`` takes precedence over both: a callable
    over the whole :class:`Peel` (typically
    :meth:`repro.pipeline.AnalystView.name_of_peel`), for namers that
    use the peel's height or spend height, not just its address.
    """
    counts: dict[str, int] = {}
    values: dict[str, int] = {}
    for peel in chain.peels:
        if name_of_peel is not None:
            entity = name_of_peel(peel)
        elif name_of_id is not None and peel.address_id >= 0:
            entity = name_of_id(peel.address_id)
        else:
            entity = name_of_address(peel.address)
        if entity is None:
            continue
        counts[entity] = counts.get(entity, 0) + 1
        values[entity] = values.get(entity, 0) + peel.value
    return {
        entity: ServicePeelSummary(
            service=entity, peel_count=counts[entity], total_value=values[entity]
        )
        for entity in counts
    }
