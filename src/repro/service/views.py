"""Streaming materialized views over a :class:`~repro.chain.index.ChainIndex`.

The forensics questions of §5 — "what does this address hold *now*, who
else holds with it, where did the stolen coins go?" — used to be batch
recomputations: every answer re-walked the chain.  Each view here
instead attaches to :meth:`ChainIndex.subscribe_deltas
<repro.chain.index.ChainIndex.subscribe_deltas>` and folds every new block
into warm state the moment it is ingested, so the
:class:`~repro.service.service.ForensicsService` answers from O(1)-ish
lookups:

* :class:`BalanceView` — per-address balances (dense arrays keyed by
  interned id) and the coins issued so far.
* :class:`TaintView` — live haircut-taint frontiers for any number of
  watched theft cases, advanced per block by the *same*
  :func:`~repro.analysis.taint.taint_step` the batch
  :class:`~repro.analysis.taint.TaintTracker` runs, so streamed state
  provably equals a from-scratch propagation at every height.
* :class:`ActivityView` — per-address transaction incidence counts and
  first/last-seen heights, the raw material for per-cluster activity
  profiles and supercluster/chokepoint queries.

Every view folds from the block's shared
:class:`~repro.chain.delta.BlockDelta` (see ``chain/delta.py``): the
index walks each block's transactions exactly once at ingestion and the
whole observer fan-out — engine, these views, the differential
aggregates — reads the one flat plan, so no view ever touches a
transaction list or re-resolves an id memo on the hot path.  Each fold
has one implementation, a numpy scatter over the delta's columns; the
scalar loops it must equal are the reference folds in
``tests/helpers.py`` (``tests/service/test_fold_kernels.py``).

Every view follows the incremental engine's contract: construction
catches up on blocks the index already holds through the index's one
loop, :meth:`ChainIndex.catch_up <repro.chain.index.ChainIndex.catch_up>`,
then streams; ``detach`` stops following.  A new taint view watches no
case, so it has nothing to catch up, and balances and activity are
functions of the index's rows, so those two catch up — and restore,
having no snapshot segment — with a few numpy passes over
:meth:`ChainIndex.history_columns
<repro.chain.index.ChainIndex.history_columns>`.  The equivalence
property (view state at height ``h`` == batch recomputation over the
``h``-prefix) is pinned by ``tests/service/test_views.py`` in the same
style as the PR 1 incremental==batch clustering test, and the
delta-vs-transaction-walk property by ``tests/chain/test_delta.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..analysis.taint import TaintTracker, taint_step
from ..chain.delta import BlockDelta
from ..chain.index import ChainIndex
from ..chain.model import OutPoint
from ..core.arrays import IntVector
from ..obs import NULL_REGISTRY


class MaterializedView:
    """Base class: catch-up, ordered streaming, detach.

    Subclasses implement :meth:`_apply_delta`; the base class guarantees
    it sees every block's delta exactly once, in height order
    (out-of-order delivery raises, mirroring the incremental clustering
    engine).  Construction catches up from :attr:`height` (a restored
    view sets it first) through :meth:`ChainIndex.catch_up
    <repro.chain.index.ChainIndex.catch_up>`, then subscribes.  A
    subclass whose state the index's rows determine overrides
    :meth:`_catch_up` to build the blocks the index already holds in one
    pass instead of one delta each.

    Folds report per-view telemetry when a ``metrics`` registry is
    given: ``view.fold_seconds{view=…}`` times each :meth:`_apply_delta`
    (a refinement of the index's per-subscriber fan-out timing) and
    ``view.grown_slots{view=…}`` counts dense-array growth.
    """

    OBSERVER_NAME = "view"
    """Subscriber label in fan-out and fold metrics (per subclass)."""

    _height = -1

    def __init__(self, index: ChainIndex, *, metrics=None) -> None:
        if self._height not in (-1, index.height):  # a restored view
            raise ValueError(
                f"view state is at height {self._height} but the index is "
                f"at {index.height}"
            )
        self.index = index
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._catch_up()
        self._unsubscribe = index.subscribe_deltas(
            self._observe_delta, name=self.OBSERVER_NAME
        )

    def _catch_up(self) -> None:
        self.index.catch_up(self._observe_delta, self._height)

    @property
    def height(self) -> int:
        """Last height folded into the view (-1 before any block)."""
        return self._height

    def detach(self) -> None:
        """Stop observing the index (materialized state remains)."""
        self._unsubscribe()

    def _observe_delta(self, delta: BlockDelta) -> None:
        if delta.height != self._height + 1:
            raise ValueError(
                f"blocks must stream in order: expected height "
                f"{self._height + 1}, got {delta.height}"
            )
        metrics = self.metrics
        if metrics.enabled:
            start = perf_counter()
            self._apply_delta(delta)
            metrics.histogram(
                "view.fold_seconds", view=self.OBSERVER_NAME
            ).observe(perf_counter() - start)
        else:
            self._apply_delta(delta)
        self._height = delta.height


class BalanceView(MaterializedView):
    """Per-address balances and the coins issued, streamed.

    Point queries (:meth:`balance_of`, :meth:`balance_of_id`) read the
    dense balance array directly.

    The fold is one ``np.add.at`` scatter of the delta's event columns
    into an :class:`IntVector` grown once per block from ``max_id``
    (the scalar per-event loop it must equal lives in
    ``tests/helpers.py``; ``tests/service/test_fold_kernels.py`` holds
    the two together at every height).  Catch-up reads the rows: a
    balance is the sum of its address's unspent receive values.
    """

    OBSERVER_NAME = "balances"

    def __init__(self, index: ChainIndex, *, metrics=None) -> None:
        self._balances = IntVector()
        """Current balance per interned address id."""
        self.supply = 0
        """Total coins issued by the view's height."""
        super().__init__(index, metrics=metrics)

    def _catch_up(self) -> None:
        index = self.index
        rows = index.history_columns(index.height)
        self._balances.grow_to(index.address_count)
        unspent = (rows.recv_spender < 0) & (rows.recv_addr >= 0)
        values = rows.recv_value
        np.add.at(self._balances.array, rows.recv_addr[unspent], values[unspent])
        self.supply = int(values[rows.tx_spends[rows.recv_tx] == 0].sum())
        self._height = index.height

    def _apply_delta(self, delta: BlockDelta) -> None:
        # Every event id is ≤ max_id, so one grow per block covers the
        # whole fold.
        balances = self._balances
        if delta.max_id >= len(balances):
            if self.metrics.enabled:
                self.metrics.counter(
                    "view.grown_slots", view=self.OBSERVER_NAME
                ).inc(delta.max_id + 1 - len(balances))
            balances.grow_to(delta.max_id + 1)
        np.add.at(balances.array, delta.event_ids, delta.event_values)
        self.supply += delta.minted

    # -- point queries -------------------------------------------------

    def balance_of_id(self, ident: int) -> int:
        """Current balance of an interned address id (0 if never seen)."""
        if 0 <= ident < len(self._balances):
            return self._balances[ident]
        return 0

    def balance_of(self, address: str) -> int:
        """Current balance of an address string (reporting edge)."""
        ident = self.index.interner.id_of(address)
        return 0 if ident is None else self.balance_of_id(ident)


@dataclass
class TaintCase:
    """One watched theft: live frontier plus arrival accounting."""

    label: str
    sources: tuple[OutPoint, ...]
    initial_taint: int
    taint: dict[OutPoint, float] = field(default_factory=dict)
    at_entities: dict[str, float] = field(default_factory=dict)
    txs_processed: int = 0


class TaintView(MaterializedView):
    """Incremental haircut-taint propagation for watched theft cases.

    :meth:`watch` registers a case: a catch-up propagation (the batch
    :class:`~repro.analysis.taint.TaintTracker`) brings it level with
    the chain tip, after which every new block's transactions are folded
    through :func:`~repro.analysis.taint.taint_step` — the identical
    inner loop, so streamed case state equals a fresh batch propagation
    at every height.  ``name_of_address`` must be stable over time for
    that equivalence to hold (the service wires direct tag lookups, not
    height-dependent cluster naming).
    """

    OBSERVER_NAME = "taint"

    def __init__(
        self,
        index: ChainIndex,
        *,
        name_of_address=None,
        min_taint: float = 1.0,
        metrics=None,
    ) -> None:
        self.name_of_address = name_of_address or (lambda _a: None)
        self.min_taint = min_taint
        self._cases: dict[str, TaintCase] = {}
        self.epoch = 0
        """Bumped on every :meth:`watch`: taint answers depend on the
        watch set as well as the chain height, so caches key on
        ``(height, epoch)`` — (re)watching at an unchanged tip must not
        serve pre-watch answers."""
        super().__init__(index, metrics=metrics)

    def _catch_up(self) -> None:
        # No case is watched yet; :meth:`watch` catches each one up.
        self._height = self.index.height

    def _apply_delta(self, delta: BlockDelta) -> None:
        index = self.index
        for case in self._cases.values():
            if not case.taint:
                continue
            for txd in delta.txs:
                if txd.is_coinbase:
                    continue
                frontier = taint_step(
                    index,
                    txd.tx,
                    case.taint,
                    name_of_address=self.name_of_address,
                    min_taint=self.min_taint,
                    at_entities=case.at_entities,
                )
                if frontier is not None:
                    case.txs_processed += 1

    # -- durable state -------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: every watched case's live frontier.

        ``name_of_address`` is deliberately *not* part of the state —
        it is configuration (the service rewires it from the restored
        tag store), and the view's equivalence contract already requires
        it to be time-stable.
        """
        return {
            "height": self._height,
            "epoch": self.epoch,
            "cases": [
                (
                    case.label,
                    [(point.txid, point.vout) for point in case.sources],
                    case.initial_taint,
                    {
                        (point.txid, point.vout): value
                        for point, value in case.taint.items()
                    },
                    dict(case.at_entities),
                    case.txs_processed,
                )
                for case in self._cases.values()
            ],
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        name_of_address=None,
        min_taint: float = 1.0,
        metrics=None,
    ) -> "TaintView":
        """Rebuild a view from :meth:`export_state` output, no catch-up.

        Restored cases resume streaming immediately — no batch
        re-propagation, which is exactly the recovery-time win the
        state store exists for.
        """
        view = cls.__new__(cls)
        view._height = state["height"]
        view.name_of_address = name_of_address or (lambda _a: None)
        view.min_taint = min_taint
        view._cases = {}
        view.epoch = state["epoch"]
        for label, sources, initial, taint, at_entities, processed in state["cases"]:
            view._cases[label] = TaintCase(
                label=label,
                sources=tuple(OutPoint(txid, vout) for txid, vout in sources),
                initial_taint=initial,
                taint={
                    OutPoint(txid, vout): value
                    for (txid, vout), value in taint.items()
                },
                at_entities=dict(at_entities),
                txs_processed=processed,
            )
        MaterializedView.__init__(view, index, metrics=metrics)
        return view

    # -- case management ----------------------------------------------

    def watch(self, label: str, sources: list[OutPoint]) -> TaintCase:
        """Start tracking taint from the given outpoints under ``label``.

        Spends already in the chain are caught up with a batch
        propagation; subsequent blocks stream.  Re-watching a label
        replaces the case.
        """
        tracker = TaintTracker(
            self.index,
            name_of_address=self.name_of_address,
            min_taint=self.min_taint,
        )
        caught_up = tracker.propagate(list(sources), max_txs=10 ** 9)
        case = TaintCase(
            label=label,
            sources=tuple(sources),
            initial_taint=caught_up.initial_taint,
            taint=dict(caught_up.taint_by_outpoint),
            at_entities=dict(caught_up.taint_at_entities),
            txs_processed=caught_up.txs_processed,
        )
        self._cases[label] = case
        self.epoch += 1
        return case

    def watch_txs(self, label: str, txids: list[bytes]) -> TaintCase:
        """Watch every output of several transactions as one case."""
        sources: list[OutPoint] = []
        for txid in txids:
            tx = self.index.tx(txid)
            sources.extend(OutPoint(txid, vout) for vout in range(len(tx.outputs)))
        return self.watch(label, sources)

    @property
    def labels(self) -> list[str]:
        """Watched case labels, registration-ordered."""
        return list(self._cases)

    def case(self, label: str) -> TaintCase:
        """The live case for ``label`` (``KeyError`` if unwatched)."""
        return self._cases[label]


class ActivityView(MaterializedView):
    """Per-address tx incidence counts and first/last-seen heights.

    A transaction *involves* an address when the address appears among
    its resolved input senders or its outputs.  Per-cluster rollups of
    the same involvement live in
    :class:`~repro.service.aggregates.ClusterAggregateView`.

    Incidence is one ``np.add.at`` scatter of the delta's flat per-tx
    involvement multiset, first/last-seen one masked assignment over
    the block's deduplicated ids (the scalar per-id loop they must
    equal lives in ``tests/helpers.py``).  Catch-up reads the rows: one
    sort of the distinct ``(address id, tx ordinal)`` pairs of every
    receive row and every spend's consumed row, whose runs are the
    per-address counts and first/last heights.
    """

    OBSERVER_NAME = "activity"

    def __init__(self, index: ChainIndex, *, metrics=None) -> None:
        self._tx_counts = IntVector()
        self._first_seen = IntVector()
        self._last_seen = IntVector()
        super().__init__(index, metrics=metrics)

    def _catch_up(self) -> None:
        index = self.index
        rows = index.history_columns(index.height)
        received = rows.recv_addr >= 0
        spent = rows.spend_addr >= 0
        # Ids are below 2**31 and ordinals below 2**32: one int64 key
        # per pair, ordered by id and then by ordinal (= by height), and
        # deduplicated (``np.unique`` would import ``numpy.ma`` first).
        pairs = (
            rows.recv_addr[received] << 32 | rows.recv_tx[received],
            rows.spend_addr[spent] << 32 | rows.spend_tx[spent],
        )
        keys = np.sort(np.concatenate(pairs))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        ids = keys >> 32
        heights = rows.tx_heights[keys & 0xFFFFFFFF]
        first = np.flatnonzero(np.diff(ids, prepend=-1))  # run starts
        last = np.flatnonzero(np.diff(ids, append=-1))  # run ends
        n = index.address_count
        self._tx_counts.grow_to(n)
        self._first_seen.grow_to(n, fill=-1)
        self._last_seen.grow_to(n, fill=-1)
        self._tx_counts.array[:] = np.bincount(ids, minlength=n)
        self._first_seen.array[ids[first]] = heights[first]
        self._last_seen.array[ids[last]] = heights[last]
        self._height = index.height

    def _apply_delta(self, delta: BlockDelta) -> None:
        height = delta.height
        counts = self._tx_counts
        first = self._first_seen
        last = self._last_seen
        if delta.max_id >= len(counts):
            n = delta.max_id + 1
            if self.metrics.enabled:
                self.metrics.counter(
                    "view.grown_slots", view=self.OBSERVER_NAME
                ).inc(n - len(counts))
            counts.grow_to(n)
            first.grow_to(n, fill=-1)
            last.grow_to(n, fill=-1)
        # involved_flat repeats an id once per involving tx — the
        # incidence multiset — while first/last touch each involved id
        # once off the deduplicated column.
        np.add.at(counts.array, delta.involved_flat, 1)
        ids = delta.involved_ids
        first_arr = first.array
        seen = first_arr[ids]
        first_arr[ids] = np.where(seen < 0, height, seen)
        last.array[ids] = height

    # -- queries -------------------------------------------------------

    def tx_count_of_id(self, ident: int) -> int:
        """Transactions involving an address id (0 if never seen)."""
        if 0 <= ident < len(self._tx_counts):
            return self._tx_counts[ident]
        return 0

    def seen_range_of_id(self, ident: int) -> tuple[int, int] | None:
        """``(first, last)`` involvement heights, or ``None`` if unseen."""
        if 0 <= ident < len(self._first_seen) and self._first_seen[ident] >= 0:
            return self._first_seen[ident], self._last_seen[ident]
        return None
