"""Forward taint propagation (haircut model).

An extension of the paper's flow tracking: instead of following only the
change chain, propagate *taint* forward through every spend, diluting
proportionally when tainted and clean values are co-spent ("haircut"
accounting).  This quantifies how much of a theft's value reaches each
named entity even through folding and splits — the cases §5 says the
peeling methodology handles poorly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..chain.index import ChainIndex
from ..chain.model import OutPoint


@dataclass
class TaintResult:
    """Outcome of a taint propagation run."""

    initial_taint: int
    taint_by_outpoint: dict[OutPoint, float] = field(default_factory=dict)
    taint_at_entities: dict[str, float] = field(default_factory=dict)
    txs_processed: int = 0

    @property
    def unspent_taint(self) -> float:
        """Taint still sitting in unspent outputs."""
        return sum(self.taint_by_outpoint.values())


def taint_step(
    index: ChainIndex,
    tx,
    taint: dict[OutPoint, float],
    *,
    name_of_address,
    min_taint: float,
    at_entities: dict[str, float],
) -> list[OutPoint] | None:
    """Apply one transaction's haircut to a live taint map, in place.

    Returns ``None`` when the transaction spends no tainted outpoint
    (nothing happened); otherwise the list of outpoints that joined the
    taint frontier (possibly empty).  Tainted inputs are popped from
    ``taint``; each output's proportional share either accrues to
    ``at_entities`` (named address: the subpoena point, propagation
    stops) or is written back to ``taint`` as a new frontier outpoint.
    Shares below ``min_taint`` evaporate.  This function *is* the batch
    tracker's inner loop, shared with the streaming
    :class:`~repro.service.views.TaintView` so the two cannot drift.

    The untouched case must stay cheap: the streaming view offers every
    chain transaction to every watched case, so membership is checked
    with dict pops alone and input values are only resolved once the
    transaction is known to spend taint.
    """
    tainted_in = 0.0
    touched = False
    for txin in tx.inputs:
        if txin.is_coinbase:
            continue
        share = taint.pop(txin.prevout, None)
        if share is not None:
            touched = True
            tainted_in += share
    if not touched:
        return None
    frontier: list[OutPoint] = []
    total_in = index.input_value(tx)  # memoized at ingestion
    if tainted_in < min_taint or total_in == 0:
        return frontier
    ratio = tainted_in / total_in
    for vout, out in enumerate(tx.outputs):
        share = out.value * ratio
        if share < min_taint:
            continue
        entity = name_of_address(out.address) if out.address else None
        if entity is not None:
            at_entities[entity] = at_entities.get(entity, 0.0) + share
            continue
        outpoint = OutPoint(tx.txid, vout)
        taint[outpoint] = taint.get(outpoint, 0.0) + share
        frontier.append(outpoint)
    return frontier


class TaintTracker:
    """Haircut taint propagation over a chain index."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        name_of_address=None,
        min_taint: float = 1.0,
    ) -> None:
        self.index = index
        self.name_of_address = name_of_address or (lambda _a: None)
        self.min_taint = min_taint

    def propagate(
        self, sources: list[OutPoint], *, max_txs: int = 50_000
    ) -> TaintResult:
        """Propagate taint forward from the given outputs.

        Taint stops at outputs whose address is *named* (it has arrived
        at a known entity — the subpoena point) and at unspent outputs.
        """
        taint: dict[OutPoint, float] = {}
        initial = 0
        for outpoint in sources:
            value = self.index.output(outpoint).value
            taint[outpoint] = float(value)
            initial += value
        result = TaintResult(initial_taint=initial)
        queue: list[tuple[int, int, bytes]] = []
        queued: set[bytes] = set()

        def enqueue(outpoint: OutPoint) -> None:
            spender = self.index.spender_of(outpoint)
            if spender is None:
                return
            txid, _vin = spender
            if txid in queued:
                return
            queued.add(txid)
            location = self.index.location(txid)
            heapq.heappush(queue, (location.height, location.index_in_block, txid))

        for outpoint in list(taint):
            enqueue(outpoint)
        while queue and result.txs_processed < max_txs:
            _height, _pos, txid = heapq.heappop(queue)
            tx = self.index.tx(txid)
            result.txs_processed += 1
            frontier = taint_step(
                self.index,
                tx,
                taint,
                name_of_address=self.name_of_address,
                min_taint=self.min_taint,
                at_entities=result.taint_at_entities,
            )
            for outpoint in frontier or ():
                enqueue(outpoint)
        result.taint_by_outpoint = taint
        return result
