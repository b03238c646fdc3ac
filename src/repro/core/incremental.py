"""Incremental streaming clustering with checkpointed time-travel (§4).

The paper's temporal analyses — the false-positive ladder, super-cluster
formation, Figure 2's series — all ask "what did the clustering look
like *as of height h*?".  Batch :class:`~repro.core.clustering.ClusteringEngine`
answers by re-running H1+H2 from block 0 per cutoff, making every
time-series experiment O(chain × heights).  This engine instead
subscribes to the index's shared per-block delta fan-out
(:meth:`ChainIndex.subscribe_deltas
<repro.chain.index.ChainIndex.subscribe_deltas>`) and clusters *as the
chain arrives* — folding the
:class:`~repro.chain.delta.BlockDelta`'s pre-resolved id arrays rather
than re-walking the block's transaction list — so one pass yields every
height:

* **H1** co-spend unions are applied eagerly to an append-only
  :class:`~repro.core.union_find.IntUnionFind`, with a checkpoint per
  block — the H1 state at any height is a replay of a log prefix.
* **H2** labels are decided with the purely-past checks the moment their
  transaction arrives, then *watched*: a later input to the candidate
  within the waiting window voids the label (the §4.2 wait rule), which
  is recorded as the label's ``voided_at`` height.  A label is part of
  the clustering at horizon ``h`` iff it was born by ``h`` and not yet
  voided at ``h`` — exactly the batch engine's ``as_of_height``
  semantics.
* :meth:`cluster_as_of` combines the two: replay the H1 log up to the
  height's checkpoint onto a fresh structure, then union the then-active
  change links.  :meth:`cluster_count_series` sweeps all heights
  forward, counting each height's links with
  :func:`~repro.core.union_find.link_components`; nothing undoes a union.

Equivalence contract (tested property-style): for every height ``h``,
``cluster_as_of(h)`` induces the same partition and the same label set
as ``ClusteringEngine.cluster(as_of_height=h)``.  The contract assumes
non-decreasing block timestamps (true of all simulated worlds): with
time running backwards a receive could fall outside one horizon's
wait-window clamp while being inside a later one.  When the wait rule
is configured, the engine *enforces* that assumption: a block whose
timestamp precedes its predecessor's raises
:class:`~repro.chain.errors.NonMonotonicTimestampError` instead of
silently mislabeling (the block is left unclustered; with
``wait_seconds=None`` no clamp exists and non-monotone stamps are
accepted).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..chain.delta import BlockDelta, TxDelta
from ..chain.errors import NonMonotonicTimestampError
from ..chain.index import ChainIndex
from ..obs import COUNT_BUCKETS, NULL_REGISTRY
from .clustering import Clustering, InternedPartition
from .heuristic2 import (
    ChangeLabel,
    Heuristic2,
    Heuristic2Config,
    Heuristic2Result,
    is_dice_spend,
)
from .union_find import IntUnionFind, link_components


@dataclass(eq=False)
class _LiveLabel:
    """One change label being tracked through time."""

    label: ChangeLabel
    address_id: int
    input_id: int | None
    """First input's address id (the union partner); None if inputs had
    no resolvable addresses."""

    deadline: int | None
    """Chain-time instant after which later inputs no longer void the
    label (``None`` when no waiting period is configured)."""

    voided_at: int | None = None
    """Height of the first disqualifying later input, or ``None`` while
    the label stands."""

    settled_at: int | None = None
    """Height at which the label became permanent — its wait window
    closed unvoided (or its birth height when no window was configured).
    ``None`` while the window is still open (the label is *voidable*).
    Mutually exclusive with :attr:`voided_at`.  Differential consumers
    key on this: a settled label's change link can be folded into
    derived per-cluster state for good, an open one only overlaid."""

    def active_at(self, height: int) -> bool:
        return self.label.height <= height and (
            self.voided_at is None or self.voided_at > height
        )


@dataclass(frozen=True)
class ClusterBlockDelta:
    """One block's clustering churn, for differential consumers.

    Everything a per-cluster materialized view needs to fold a block
    without re-reading the partition: the H1 merges the block applied
    (in fold order, as ``(absorbed_root, kept_root)`` entries off the
    engine's merge log), the labels born at the height, the labels a
    later receive *voided* at the height, and the labels whose wait
    window closed unvoided at the height (now permanent).  Every born
    label is, at any later height, exactly one of open / voided /
    settled, so ``base links (H1 + settled) ∪ open links`` always equals
    the engine's active link set at the tip.
    """

    height: int
    merges: tuple[tuple[int, int], ...]
    born: tuple[_LiveLabel, ...]
    voided: tuple[_LiveLabel, ...]
    settled: tuple[_LiveLabel, ...]


@dataclass(frozen=True)
class ClusterSnapshot:
    """Per-height clustering accounting (one point of
    :meth:`IncrementalClusteringEngine.cluster_count_series`)."""

    height: int
    address_count: int
    h1_clusters: int
    clusters: int
    active_labels: int


class IncrementalClusteringEngine:
    """Streams H1+H2 clustering from a :class:`ChainIndex`, per block.

    Construction catches up on blocks the index already holds, then
    subscribes to the index's observer hook so every future
    ``add_block`` is clustered on arrival.  Call :meth:`detach` to stop
    following the index.
    """

    def __init__(
        self,
        index: ChainIndex,
        *,
        h2_config: Heuristic2Config | None = None,
        dice_addresses: frozenset[str] = frozenset(),
        follow: bool = True,
        metrics=None,
    ) -> None:
        self.index = index
        self.h2_config = h2_config or Heuristic2Config.refined()
        self.dice_addresses = dice_addresses
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        """Telemetry sink for the ``engine.*`` per-block fold metrics
        (H1 pair-batch sizes, effective merges, label lifecycle)."""
        self._h2 = Heuristic2(index, self.h2_config, dice_addresses=dice_addresses)
        self._uf = IntUnionFind()
        """H1-only unions, eagerly applied; H2 links are overlaid per
        query so voided labels never need un-unioning."""
        self._marks: list[int] = []
        """Merge-log position at the end of each height."""
        self._seen: list[int] = []
        """Addresses seen by the end of each height.  Ids are allocated
        dense and first-sight ordered, so this is ``1 + max id`` over
        the block prefix's outputs — computed from the blocks themselves
        because in catch-up mode the interner already holds the whole
        chain."""
        self._max_id = -1
        self._labels: list[_LiveLabel] = []
        """All labels ever born, in chain order."""
        self._label_marks: list[int] = []
        """Labels born by the end of each height (birth order is chain
        order, so each height's births are one contiguous slice)."""
        self._voids_at: dict[int, list[_LiveLabel]] = {}
        """height -> labels voided at that height (delta bookkeeping)."""
        self._settles_at: dict[int, list[_LiveLabel]] = {}
        """height -> labels that became permanent at that height."""
        self._watch: dict[int, list[_LiveLabel]] = {}
        """address id -> labels whose wait window is still open there."""
        self._watch_heap: list[tuple[int, int, _LiveLabel]] = []
        """(deadline, seq, label) min-heap: expired watch entries are
        swept out as block time passes, so the watch set stays bounded
        by the labels whose windows are genuinely open."""
        self._last_timestamp: int | None = None
        """Previous block's timestamp, for the monotonicity check."""
        self._refused_height: int | None = None
        """Height of the block the monotonicity check rejected, if any:
        the engine is permanently behind the index from that point, so
        every later block is refused with a diagnosis instead of a
        misleading out-of-order error."""
        self._as_of_cache: OrderedDict[int, Clustering] = OrderedDict()
        """Recently materialized ``cluster_as_of`` answers, keyed by
        height.  Sound because a height's answer is immutable once the
        height has been clustered: later blocks only append, and a
        wait-rule void recorded at ``v`` never changes ``active_at(h)``
        for ``h < v``.  This is what lets a serving layer ask for the
        tip clustering per query without re-materializing."""
        self._h1_as_of_cache: OrderedDict[int, Clustering] = OrderedDict()
        """Recently materialized ``cluster_h1_as_of`` answers.  Kept
        separate from ``_as_of_cache`` so co-spend-only callers (peel
        recipient naming) never evict full-heuristic horizons."""
        self._unsubscribe = None
        for height in range(index.height + 1):
            self._observe_delta(index.block_delta(height))
        if follow:
            self._unsubscribe = index.subscribe_deltas(
                self._observe_delta, name="engine"
            )

    # ------------------------------------------------------------------
    # streaming ingestion
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Last height clustered (-1 before any block)."""
        return len(self._marks) - 1

    def detach(self) -> None:
        """Stop observing the index (already-clustered state remains)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _observe_delta(self, delta: BlockDelta) -> None:
        height = delta.height
        if self._refused_height is not None:
            raise NonMonotonicTimestampError(
                f"engine stopped at height {len(self._marks) - 1} after "
                f"refusing non-monotonic block {self._refused_height}; "
                f"detach() and rebuild to cluster this chain"
            )
        if height != len(self._marks):
            raise ValueError(
                f"blocks must stream in order: expected height "
                f"{len(self._marks)}, got {height}"
            )
        id_of = self.index.interner.id_of
        uf = self._uf
        watching = self.h2_config.wait_seconds is not None
        now = delta.timestamp
        if watching:
            # The wait-window clamp assumes chain time never runs
            # backwards; refuse the block rather than mislabel (§4.2).
            if self._last_timestamp is not None and now < self._last_timestamp:
                self._refused_height = height
                raise NonMonotonicTimestampError(
                    f"block {height} timestamp {now} precedes previous "
                    f"block's {self._last_timestamp}; the §4.2 wait rule "
                    f"requires non-decreasing timestamps (use "
                    f"wait_seconds=None to cluster such chains)"
                )
            self._sweep_expired_watches(now, height)
        self._last_timestamp = now
        # The delta pre-resolved every id: grow the universe once per
        # block (ids are dense, inputs always precede the block's max).
        if delta.max_id > self._max_id:
            self._max_id = delta.max_id
            if delta.max_id >= len(uf):
                uf.ensure(delta.max_id + 1)
        # 1. Wait-rule voiding: a receive to a watched candidate at a
        #    *later* height, inside its window, kills the label — unless
        #    every sender is a known dice game (§4.2).  Runs before the
        #    unions but never reads the union-find, so hoisting the H1
        #    pass out of the per-tx loop changes nothing.
        if watching and self._watch:
            for txd in delta.txs:
                self._apply_voiding(txd, height, now)
        # 2. H1: co-spent inputs union (outputs already seated above).
        #    The delta pre-flattened every tx's co-spend chain into one
        #    pair-array pass — same merge log as per-tx union_many
        #    chains (see BlockDelta.h1_a), one C loop per block.
        if len(delta.h1_a):
            uf.union_many(delta.h1_a, delta.h1_b)
        # 3. H2: purely-past label decisions for this block's txs.  Runs
        #    after the voiding pass so same-height receives never void a
        #    newborn label (the batch rule is strictly-later receives).
        for txd in delta.txs:
            label, _reason = self._h2.identify_change_static(
                txd.tx, height=height, ids=(txd.input_ids, txd.output_ids)
            )
            if label is None:
                continue
            input_ids = txd.input_ids
            live = _LiveLabel(
                label=label,
                address_id=id_of(label.address),
                input_id=input_ids[0] if input_ids else None,
                deadline=(
                    now + self.h2_config.wait_seconds if watching else None
                ),
            )
            self._labels.append(live)
            if watching:
                self._watch.setdefault(live.address_id, []).append(live)
                heapq.heappush(
                    self._watch_heap, (live.deadline, len(self._labels), live)
                )
            else:
                # No wait window: nothing can ever void the label, so it
                # is permanent from birth.
                live.settled_at = height
                self._settles_at.setdefault(height, []).append(live)
        previous_mark = self._marks[-1] if self._marks else 0
        previous_label_mark = self._label_marks[-1] if self._label_marks else 0
        self._marks.append(uf.checkpoint())
        self._seen.append(self._max_id + 1)
        self._label_marks.append(len(self._labels))
        metrics = self.metrics
        if metrics.enabled:
            metrics.histogram(
                "engine.h1_pairs", buckets=COUNT_BUCKETS
            ).observe(len(delta.h1_a))
            metrics.counter("engine.merges").inc(
                self._marks[-1] - previous_mark
            )
            metrics.counter("engine.labels_born").inc(
                self._label_marks[-1] - previous_label_mark
            )
            metrics.counter("engine.labels_voided").inc(
                len(self._voids_at.get(height, ()))
            )
            metrics.counter("engine.labels_settled").inc(
                len(self._settles_at.get(height, ()))
            )

    def _sweep_expired_watches(self, now: int, height: int) -> None:
        """Drop watch entries whose wait window has closed (the labels
        stand for good); each label is pushed and popped exactly once.
        Unvoided expirations are recorded as settling at ``height`` —
        the block whose timestamp closed the window — which is the
        moment differential consumers may fold the label's change link
        into permanent per-cluster state."""
        heap = self._watch_heap
        while heap and heap[0][0] < now:
            _deadline, _seq, live = heapq.heappop(heap)
            if live.voided_at is None:
                live.settled_at = height
                self._settles_at.setdefault(height, []).append(live)
            watchers = self._watch.get(live.address_id)
            if watchers is None:
                continue
            watchers = [w for w in watchers if w is not live]
            if watchers:
                self._watch[live.address_id] = watchers
            else:
                del self._watch[live.address_id]

    def _apply_voiding(self, txd: TxDelta, height: int, now: int) -> None:
        excused: bool | None = None  # lazily computed, once per tx
        for ident in txd.output_ids:
            if ident < 0:
                continue
            watchers = self._watch.get(ident)
            if not watchers:
                continue
            still_open = []
            for live in watchers:
                if live.voided_at is not None:
                    continue
                if now > live.deadline:
                    continue  # window closed; label stands for good
                if live.label.height >= height:
                    still_open.append(live)  # same-block receive: no void
                    continue
                if excused is None:
                    excused = self._receive_excused(txd.tx)
                if excused:
                    still_open.append(live)
                else:
                    live.voided_at = height
                    self._voids_at.setdefault(height, []).append(live)
            if still_open:
                self._watch[ident] = still_open
            else:
                del self._watch[ident]

    def _receive_excused(self, tx) -> bool:
        """The §4.2 dice exception, same guard and sender test as batch."""
        if not (self.h2_config.dice_exception and self.dice_addresses):
            return False
        return is_dice_spend(self.index, tx, self.dice_addresses)

    # ------------------------------------------------------------------
    # per-block deltas (differential consumers)
    # ------------------------------------------------------------------

    def cluster_delta(self, height: int) -> ClusterBlockDelta:
        """One clustered block's churn, re-exposed off the merge log.

        The H1 entries are the engine union-find's own
        :meth:`~repro.core.union_find.IntUnionFind.log_span` between the
        height's checkpoints — safe to read at any time because the log
        is append-only and time travel replays onto fresh structures,
        so a height's span never changes once the height is clustered.
        Labels are the live objects (identity-shared with the engine's
        watch state); consumers read, never mutate.
        """
        if not 0 <= height <= self.height:
            raise IndexError(
                f"height {height} outside clustered range 0..{self.height}"
            )
        merge_start = self._marks[height - 1] if height else 0
        label_start = self._label_marks[height - 1] if height else 0
        return ClusterBlockDelta(
            height=height,
            merges=tuple(self._uf.log_span(merge_start, self._marks[height])),
            born=tuple(self._labels[label_start:self._label_marks[height]]),
            voided=tuple(self._voids_at.get(height, ())),
            settled=tuple(self._settles_at.get(height, ())),
        )

    def open_labels(self) -> list[_LiveLabel]:
        """Labels still voidable at the tip (window open, unvoided).

        Exactly the labels a differential consumer must *overlay* rather
        than fold: their change links are part of the tip clustering but
        may still disappear via the §4.2 wait rule.
        """
        return [
            live
            for live in self._labels
            if live.voided_at is None and live.settled_at is None
        ]

    @property
    def open_label_count(self) -> int:
        """How many labels are still inside their §4.2 wait window.

        The health model reads this as the engine's backlog: every open
        label is overlay work for differential consumers, so a count
        that keeps growing means change outputs are not settling."""
        return sum(
            1
            for live in self._labels
            if live.voided_at is None and live.settled_at is None
        )

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    STATE_VERSION = 2

    def export_state(self) -> dict:
        """Flatten the engine into plain picklable data.

        Labels are exported as tuples in birth order; the watch map and
        the deadline heap reference them by index, so
        :meth:`from_state` rebuilds the exact identity-shared structure
        (a label voided later must be the same object everywhere).  The
        union-find state carries its merge log, and ``marks`` the
        per-height log positions — together the full time-travel record.
        """
        label_index = {id(live): i for i, live in enumerate(self._labels)}
        return {
            "version": self.STATE_VERSION,
            "uf": self._uf.export_state(),
            "marks": list(self._marks),
            "seen": list(self._seen),
            "max_id": self._max_id,
            "last_timestamp": self._last_timestamp,
            "refused_height": self._refused_height,
            "labels": [
                (
                    live.label.txid,
                    live.label.vout,
                    live.label.address,
                    live.label.height,
                    live.address_id,
                    live.input_id,
                    live.deadline,
                    live.voided_at,
                    live.settled_at,
                )
                for live in self._labels
            ],
            "watch": {
                address_id: [label_index[id(live)] for live in watchers]
                for address_id, watchers in self._watch.items()
            },
            "watch_heap": [
                (deadline, seq, label_index[id(live)])
                for deadline, seq, live in self._watch_heap
            ],
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        h2_config: Heuristic2Config | None = None,
        dice_addresses: frozenset[str] = frozenset(),
        follow: bool = True,
        metrics=None,
    ) -> "IncrementalClusteringEngine":
        """Rebuild an engine from :meth:`export_state` output.

        ``index`` must hold exactly the chain prefix the state was
        exported at (same heights, same interner ids); ``h2_config`` and
        ``dice_addresses`` must match the exporting engine's, since they
        govern how *future* blocks are clustered.  The restored engine
        resumes streaming right where the exported one stopped.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported engine state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        engine = cls.__new__(cls)
        engine.index = index
        engine.h2_config = h2_config or Heuristic2Config.refined()
        engine.dice_addresses = dice_addresses
        engine.metrics = metrics if metrics is not None else NULL_REGISTRY
        engine._h2 = Heuristic2(
            index, engine.h2_config, dice_addresses=dice_addresses
        )
        engine._uf = IntUnionFind.from_state(state["uf"])
        engine._marks = list(state["marks"])
        engine._seen = list(state["seen"])
        engine._max_id = state["max_id"]
        engine._last_timestamp = state["last_timestamp"]
        engine._refused_height = state["refused_height"]
        engine._labels = [
            _LiveLabel(
                label=ChangeLabel(txid, vout, address, height),
                address_id=address_id,
                input_id=input_id,
                deadline=deadline,
                voided_at=voided_at,
                settled_at=settled_at,
            )
            for (
                txid,
                vout,
                address,
                height,
                address_id,
                input_id,
                deadline,
                voided_at,
                settled_at,
            ) in state["labels"]
        ]
        # Per-height delta indexes are derived data: rebuilt from the
        # label fields rather than exported (one pass, no extra state).
        engine._label_marks = []
        engine._voids_at = {}
        engine._settles_at = {}
        born_so_far = 0
        for height in range(len(engine._marks)):
            while (
                born_so_far < len(engine._labels)
                and engine._labels[born_so_far].label.height == height
            ):
                born_so_far += 1
            engine._label_marks.append(born_so_far)
        for live in engine._labels:
            if live.voided_at is not None:
                engine._voids_at.setdefault(live.voided_at, []).append(live)
            if live.settled_at is not None:
                engine._settles_at.setdefault(live.settled_at, []).append(live)
        engine._watch = {
            address_id: [engine._labels[i] for i in watcher_indices]
            for address_id, watcher_indices in state["watch"].items()
        }
        # The exported heap order is a valid heap invariant (entries
        # compare on (deadline, seq) alone), so it is adopted verbatim.
        engine._watch_heap = [
            (deadline, seq, engine._labels[i])
            for deadline, seq, i in state["watch_heap"]
        ]
        engine._as_of_cache = OrderedDict()
        engine._h1_as_of_cache = OrderedDict()
        engine._unsubscribe = None
        if len(engine._marks) != index.height + 1:
            raise ValueError(
                f"engine state is at height {len(engine._marks) - 1} but the "
                f"index is at {index.height}"
            )
        if follow:
            engine._unsubscribe = index.subscribe_deltas(
                engine._observe_delta, name="engine"
            )
        return engine

    # ------------------------------------------------------------------
    # time travel
    # ------------------------------------------------------------------

    def _check_height(self, height: int | None) -> int | None:
        """Resolve a horizon; ``None`` means "empty chain, empty answer"
        (matching the batch engine on a chain with no blocks)."""
        if height is None:
            if self.height < 0:
                return None
            height = self.height
        if not 0 <= height <= self.height:
            raise IndexError(
                f"height {height} outside clustered range 0..{self.height}"
            )
        return height

    def cluster_as_of(self, height: int | None = None) -> Clustering:
        """A materialized :class:`Clustering` equal to the batch engine's
        ``cluster(as_of_height=height)`` — without re-running heuristics.

        Replays the H1 merge log up to the height's checkpoint onto a
        fresh structure over the prefix universe, then applies the
        change links active at that horizon.  The last few materialized
        answers are memoized per height (immutable once clustered, so
        reuse is exact); heavy query traffic against a fixed tip pays
        the materialization once.
        """
        height = self._check_height(height)
        if height is None:
            return Clustering(
                uf=InternedPartition(IntUnionFind(), self.index.interner),
                heuristics="h1+h2",
                h2_result=Heuristic2Result(),
            )
        cached = self._as_of_cache.get(height)
        if cached is not None:
            self._as_of_cache.move_to_end(height)
            return cached
        uf = IntUnionFind(self._seen[height])
        uf.replay(self._uf.log_prefix(self._marks[height]))
        active = [live for live in self._labels if live.active_at(height)]
        result = Heuristic2Result(labels=[live.label for live in active])
        links = [live for live in active if live.input_id is not None]
        uf.union_many(
            [live.address_id for live in links],
            [live.input_id for live in links],
        )
        clustering = Clustering(
            uf=InternedPartition(uf, self.index.interner),
            heuristics="h1+h2",
            h2_result=result,
        )
        self._as_of_cache[height] = clustering
        while len(self._as_of_cache) > self._AS_OF_CACHE_SIZE:
            self._as_of_cache.popitem(last=False)
        return clustering

    _AS_OF_CACHE_SIZE = 4
    """Materialized horizons kept around; each holds an O(addresses)
    structure, so the memo is deliberately tiny."""

    def cluster_h1_as_of(self, height: int | None = None) -> Clustering:
        """The co-spend-only (Heuristic 1) partition as of ``height``.

        Same checkpoint replay as :meth:`cluster_as_of` but without the
        change-link overlay: only unions witnessed by actual co-spends.
        This is the partition of record for naming *counterparties* —
        a peel recipient's output is by construction not the spender's
        change, so any change label claiming it contradicts the peel
        classification, and settled cross-party change links are exactly
        what drag recipients into the wrong cluster.
        """
        height = self._check_height(height)
        if height is None:
            return Clustering(
                uf=InternedPartition(IntUnionFind(), self.index.interner),
                heuristics="h1",
            )
        cached = self._h1_as_of_cache.get(height)
        if cached is not None:
            self._h1_as_of_cache.move_to_end(height)
            return cached
        uf = IntUnionFind(self._seen[height])
        uf.replay(self._uf.log_prefix(self._marks[height]))
        clustering = Clustering(
            uf=InternedPartition(uf, self.index.interner),
            heuristics="h1",
        )
        self._h1_as_of_cache[height] = clustering
        while len(self._h1_as_of_cache) > self._AS_OF_CACHE_SIZE:
            self._h1_as_of_cache.popitem(last=False)
        return clustering

    def cluster_count_series(self) -> list[ClusterSnapshot]:
        """Cluster counts at *every* height, in one forward sweep.

        Replays the H1 merge log height by height onto a fresh structure
        (O(1) per union, no finds).  Birth, void, owner and partner
        columns over every label are built once; each height masks its
        active links, resolves their endpoints with two ``find_many``
        calls and counts what they merge with
        :func:`~repro.core.union_find.link_components`:
        ``clusters = h1_clusters - (merged roots - groups)``.  The
        replayed structure only ever moves forward.
        """
        never = len(self._marks)
        born, voided, owners, partners = np.array(
            [
                (
                    live.label.height,
                    never if live.voided_at is None else live.voided_at,
                    live.address_id,
                    -1 if live.input_id is None else live.input_id,
                )
                for live in self._labels
            ],
            dtype="<i8",
        ).reshape(-1, 4).T
        linked = partners >= 0
        uf = IntUnionFind()
        log = self._uf.log_prefix(self._marks[-1]) if self._marks else []
        points: list[ClusterSnapshot] = []
        position = 0
        for height, (mark, seen) in enumerate(zip(self._marks, self._seen)):
            uf.ensure(seen)
            uf.replay(log[position:mark])
            position = mark
            active = (born <= height) & (voided > height)
            links = active & linked
            members, starts = link_components(
                uf.find_many(owners[links]), uf.find_many(partners[links])
            )
            points.append(
                ClusterSnapshot(
                    height=height,
                    address_count=seen,
                    h1_clusters=uf.component_count,
                    clusters=uf.component_count - len(members) + len(starts),
                    active_labels=int(np.count_nonzero(active)),
                )
            )
        return points
