"""Differential per-cluster aggregates: the merge-aware materialized view.

Every ranked or rolled-up forensics answer — ``top_clusters``,
``cluster_profile``, ``cluster_balance`` — needs whole-partition
aggregates: per-cluster balance, activity, size, and a per-metric
ranking.  The batch path rebuilds those from a full pass over every
address array on the first query after each block, so per-block serving
cost grows with chain size.  :class:`ClusterAggregateView` instead
folds each block's *deltas* as it streams:

* per-address balance/activity churn arrives pre-flattened on the
  block's shared :class:`~repro.chain.delta.BlockDelta` (the one
  transaction walk the whole fan-out shares): balance folds read the
  flat event log, incidence folds read the per-tx deduplicated involved
  lists, and only the touched clusters are updated;
* H1 co-spend unions and settled H2 change links arrive as merge events
  (:meth:`IncrementalClusteringEngine.cluster_delta
  <repro.core.incremental.IncrementalClusteringEngine.cluster_delta>`,
  itself re-exposing the
  :meth:`IntUnionFind.drain_merges
  <repro.core.union_find.IntUnionFind.drain_merges>` merge-log hook),
  and each merge folds the absorbed cluster's aggregate into the kept
  cluster's — O(1) per merge, never a member scan;
* H2 labels whose §4.2 wait window is still open are *overlaid*, not
  folded: a later receive may void them, so their change links join
  clusters only in a small overlay (bounded by the open-window label
  count, with untouched groups reused verbatim across flushes), while
  the fold-for-good happens the block their window closes;
* folding is *lazily flushed*: ingest only queues the shared delta, and
  the first query or export at the new tip folds every queued block and
  refreshes overlay + rankings once — interleaved traffic pays the same
  as eager per-block maintenance, bulk ingest (catch-up, tail replay)
  coalesces it.

Per-flush maintenance is therefore O(queued churn + merges + changed
overlay), not O(addresses).

Cluster identity is *canonical*: a cluster's public id is its minimum
member address id (ids are dense and first-sight ordered, so this is
the cluster's earliest-seen address).  Canonical ids are a pure
function of the partition — independent of union order, restore
history, or batch-vs-differential construction — which is what lets
the property suite demand byte-equality between this view and the
batch ``_agg`` rebuild, and what makes ranking tie-breaks stable (see
:class:`~repro.service.queries.ClusterRanking`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..chain.delta import BlockDelta
from ..chain.index import ChainIndex
from ..core.arrays import IntVector
from ..core.incremental import IncrementalClusteringEngine
from ..core.union_find import IntUnionFind
from ..obs import COUNT_BUCKETS, NULL_REGISTRY
from .queries import ClusterRanking, TOP_CLUSTER_METRICS
from .views import ClusterActivity, MaterializedView


def _fold_array(state_value) -> IntVector:
    """Restore one fold array from bytes (v2) or a list (v1 snapshots).

    The live arrays are :class:`~repro.core.arrays.IntVector` buffers:
    the merge folds index them scalar-by-scalar (item access returns
    plain Python ints), while the kernelized churn fold scatters into
    the backing numpy array directly."""
    if isinstance(state_value, bytes):
        return IntVector.from_bytes(state_value)
    return IntVector.from_list(state_value)


class RankIndex:
    """One metric's live ranking: a sorted key list maintained by churn.

    Keys are ``(-value, cluster id)`` so ascending list order is the
    serving order: best value first, ties broken by the smallest
    canonical cluster id.  Updates cost O(log n) to locate plus a
    C-level ``memmove``; reads are slices (:meth:`top`) or a bisect
    (:meth:`rank_of`) — no per-block re-sort anywhere.

    Two backings share this interface.  The live tip view mutates, so
    it carries the key list and value map.  A settled horizon state is
    immutable and serves only a ``top(n)`` slice or a single-id
    ``rank_of``, so :meth:`from_columns` keeps just the two lexsorted
    numpy columns (``_neg``, ``_cid``) and never pays the
    list-of-tuples / dict materialization; a point lookup is one
    C-level equality scan.  Mutators materialize the list backing on
    first touch, so the distinction never leaks.
    """

    __slots__ = ("_keys", "_values", "_neg", "_cid")

    def __init__(self) -> None:
        self._keys: list[tuple[int, int]] = []
        self._values: dict[int, int] = {}
        self._neg: np.ndarray | None = None
        self._cid: np.ndarray | None = None

    def _materialize(self) -> None:
        """Switch an array-backed index to the mutable list backing."""
        if self._neg is None:
            return
        negs, cids = self._neg, self._cid
        self._keys = list(zip(negs.tolist(), cids.tolist()))
        self._values = dict(zip(cids.tolist(), np.negative(negs).tolist()))
        self._neg = None
        self._cid = None

    def _position_of(self, cluster_id: int) -> int:
        """Array backing: 0-based rank of ``cluster_id``, or -1.

        Ids are unique, so one vectorized equality scan finds the
        cluster's (single) slot — no value map needed."""
        hits = np.nonzero(self._cid == cluster_id)[0]
        return int(hits[0]) if len(hits) else -1

    def __len__(self) -> int:
        if self._neg is not None:
            return len(self._neg)
        return len(self._keys)

    def __contains__(self, cluster_id: int) -> bool:
        if self._neg is not None:
            return self._position_of(cluster_id) >= 0
        return cluster_id in self._values

    def value_of(self, cluster_id: int) -> int | None:
        if self._neg is not None:
            position = self._position_of(cluster_id)
            return -int(self._neg[position]) if position >= 0 else None
        return self._values.get(cluster_id)

    def set(self, cluster_id: int, value: int) -> None:
        """Insert or move one cluster's entry."""
        self._materialize()
        old = self._values.get(cluster_id)
        if old == value:
            return
        if old is not None:
            del self._keys[bisect_left(self._keys, (-old, cluster_id))]
        insort(self._keys, (-value, cluster_id))
        self._values[cluster_id] = value

    def discard(self, cluster_id: int) -> None:
        """Drop one cluster's entry (no-op when absent)."""
        self._materialize()
        old = self._values.pop(cluster_id, None)
        if old is not None:
            del self._keys[bisect_left(self._keys, (-old, cluster_id))]

    def apply(self, discards, updates) -> None:
        """Bulk churn: drop ``discards`` ids, then upsert ``updates``
        ``(cluster id, value)`` pairs.

        Small batches walk the incremental :meth:`set`/:meth:`discard`
        path; a batch comparable to the index itself rewrites the value
        map and re-sorts once — O(n log n) beats thousands of O(n)
        list memmoves, which is the regime deferred time-travel
        finalization lands in."""
        self._materialize()
        if len(discards) + len(updates) < max(64, len(self._keys) // 8):
            for cluster_id in discards:
                self.discard(cluster_id)
            for cluster_id, value in updates:
                self.set(cluster_id, value)
            return
        values = self._values
        for cluster_id in discards:
            values.pop(cluster_id, None)
        values.update(updates)
        if not values:
            self._keys = []
            return
        cids = np.fromiter(values.keys(), dtype="<i8", count=len(values))
        negs = np.fromiter(values.values(), dtype="<i8", count=len(values))
        np.negative(negs, out=negs)
        order = np.lexsort((cids, negs))
        self._keys = list(
            zip(negs[order].tolist(), cids[order].tolist())
        )

    def top(self, n: int) -> tuple[tuple[int, int], ...]:
        """The best ``n`` entries as ``(cluster id, value)`` pairs."""
        if self._neg is not None:
            return tuple(
                zip(
                    self._cid[:n].tolist(),
                    np.negative(self._neg[:n]).tolist(),
                )
            )
        return tuple((cid, -neg) for neg, cid in self._keys[:n])

    def rank_of(self, cluster_id: int) -> int | None:
        """1-based rank of one cluster, or ``None`` if not ranked."""
        if self._neg is not None:
            position = self._position_of(cluster_id)
            return position + 1 if position >= 0 else None
        value = self._values.get(cluster_id)
        if value is None:
            return None
        return bisect_left(self._keys, (-value, cluster_id)) + 1

    def as_ranking(self) -> ClusterRanking:
        """Materialize the full, immutable per-height ranking object."""
        if self._neg is not None:
            order = tuple(
                zip(self._cid.tolist(), np.negative(self._neg).tolist())
            )
        else:
            order = tuple((cid, -neg) for neg, cid in self._keys)
        return ClusterRanking(
            order=order,
            rank_of={cid: rank for rank, (cid, _value) in enumerate(order, 1)},
        )

    def copy(self) -> "RankIndex":
        """An independent copy (checkpoint material for time travel)."""
        clone = RankIndex.__new__(RankIndex)
        if self._neg is not None:
            clone._keys = []
            clone._values = {}
            clone._neg = self._neg.copy()
            clone._cid = self._cid.copy()
            return clone
        clone._keys = list(self._keys)
        clone._values = dict(self._values)
        clone._neg = None
        clone._cid = None
        return clone

    @classmethod
    def from_columns(cls, cluster_ids, values) -> "RankIndex":
        """Build wholesale from parallel id/value numpy columns — one
        lexsort, stored as the array backing (the time-travel settle
        path; ids must be unique)."""
        index = cls.__new__(cls)
        vals = np.asarray(values, dtype="<i8")
        cids = np.asarray(cluster_ids, dtype="<i8")
        negs = np.negative(vals)
        order = np.lexsort((cids, negs))
        index._keys = []
        index._values = {}
        index._neg = negs[order]
        index._cid = cids[order]
        return index


@dataclass(frozen=True)
class _OverlayGroup:
    """Base clusters joined only by still-voidable H2 change links."""

    cid: int
    """Canonical id of the combined cluster (min over member minimums)."""

    roots: tuple[int, ...]
    """The base-partition roots the open links connect."""

    size: int
    balance: int
    tx_count: int
    first_seen: int
    last_seen: int


@dataclass(frozen=True, slots=True)
class _HeightRecord:
    """One folded height's entry in the aggregate delta log.

    The time-travel analog of :class:`BalanceView`'s per-height event
    log: everything a replay needs to advance a materialized
    :class:`_HorizonState` from height ``h-1`` to ``h`` without
    re-reading the chain.  Base merges are *not* stored here — ``mark``
    is the base union-find's log position after the height's folds, so
    the merge span is read off the live base's own (append-only) log.
    Columnar churn buffers are the block delta's arrays, retained by
    reference like :class:`~repro.service.views.BalanceView` retains its
    event columns.  Label transitions reference the engine's live label
    objects (identity-shared; replay reads only the immutable
    ``address_id``/``input_id`` fields).
    """

    height: int
    max_id: int
    """Universe bound at this height (ids are dense, so ``max_id + 1``
    is the prefix universe)."""
    mark: int
    """Base merge-log position after this height's unions folded."""
    born_open: tuple
    """Labels born at this height whose §4.2 window is open (overlay
    entries until voided or settled)."""
    closed: tuple
    """Labels voided or settled at this height (they leave the open
    overlay set; a settle's permanent link is inside the merge span)."""
    event_ids: np.ndarray
    event_values: np.ndarray
    involved_flat: np.ndarray


class _HorizonState:
    """The full aggregate state materialized at one historical height.

    A checkpoint (or replay scratch) for time travel: the base
    partition, the five per-root fold arrays, the per-address
    balance/activity arrays (so historical ``cluster_profile`` answers
    carry as-of-height address fields too), the open-label overlay, and
    the three rank indexes.  Advancing to the next height replays one
    :class:`_HeightRecord`; serving always advances a :meth:`clone`, so
    materialized checkpoints are never mutated.
    """

    __slots__ = (
        "height", "mark", "uf",
        "balance", "tx_count", "first", "last", "min_member",
        "a_balance", "a_tx_count", "a_first", "a_last",
        "open", "groups", "group_of", "ranks", "derived_dirty",
    )

    def __init__(self) -> None:
        self.height = -1
        self.mark = 0
        self.uf = IntUnionFind()
        self.balance = IntVector()
        self.tx_count = IntVector()
        self.first = IntVector()
        self.last = IntVector()
        self.min_member = IntVector()
        self.a_balance = IntVector()
        self.a_tx_count = IntVector()
        self.a_first = IntVector()
        self.a_last = IntVector()
        self.open: set = set()
        self.groups: list[_OverlayGroup] = []
        self.group_of: dict[int, _OverlayGroup] = {}
        self.ranks: dict[str, RankIndex] = {
            metric: RankIndex() for metric in TOP_CLUSTER_METRICS
        }
        self.derived_dirty = True
        """True while ``groups``/``group_of``/``ranks`` lag the base
        state — replay advances only the base folds and :meth:`settle`
        rebuilds the derived structures wholesale at serve time."""

    def clone(self) -> "_HorizonState":
        """An independent copy of the *base* state — array memcpys plus
        container copies, never a per-id Python loop.

        The derived structures (overlay groups, rank indexes) are NOT
        copied: every clone exists to be advanced by replay, which
        invalidates them anyway, and the served height rebuilds them
        wholesale via :meth:`settle`.  The clone starts dirty."""
        clone = _HorizonState.__new__(_HorizonState)
        clone.height = self.height
        clone.mark = self.mark
        clone.uf = self.uf.copy()
        clone.balance = self.balance.copy()
        clone.tx_count = self.tx_count.copy()
        clone.first = self.first.copy()
        clone.last = self.last.copy()
        clone.min_member = self.min_member.copy()
        clone.a_balance = self.a_balance.copy()
        clone.a_tx_count = self.a_tx_count.copy()
        clone.a_first = self.a_first.copy()
        clone.a_last = self.a_last.copy()
        clone.open = set(self.open)
        clone.groups = []
        clone.group_of = {}
        clone.ranks = {metric: RankIndex() for metric in TOP_CLUSTER_METRICS}
        clone.derived_dirty = True
        return clone

    def settle(self) -> None:
        """(Re)build the derived structures — overlay groups and rank
        indexes — wholesale from the settled base folds.

        Replay (:meth:`ClusterAggregateView._tt_advance`) maintains only
        the base partition and fold arrays; this pays the whole derived
        epilogue exactly once per *served* height: one vectorized pass
        gathers every component's fold columns, one lexsort per metric
        builds its rank index, and every overlay group re-aggregates its
        few member roots.  That beats maintaining the derived state
        incrementally across N replayed heights by the depth of the
        replay.  Idempotent; a clean state returns immediately."""
        if not self.derived_dirty:
            return
        uf = self.uf
        self.groups = []
        self.group_of = {}
        open_links = [
            live for live in self.open if live.input_id is not None
        ]
        if open_links:
            owners = uf.find_many(
                np.fromiter(
                    (live.address_id for live in open_links),
                    dtype="<i8",
                    count=len(open_links),
                )
            )
            spenders = uf.find_many(
                np.fromiter(
                    (live.input_id for live in open_links),
                    dtype="<i8",
                    count=len(open_links),
                )
            )
            self._settle_overlay(owners, spenders)
        roots = uf.root_ids()
        if self.group_of:
            ungrouped = np.ones(len(uf), dtype=bool)
            ungrouped[
                np.fromiter(
                    self.group_of, dtype="<i8", count=len(self.group_of)
                )
            ] = False
            roots = roots[ungrouped[roots]]
        cids = self.min_member.array[roots]
        sizes = uf.root_sizes.array[roots]
        balances = self.balance.array[roots]
        tx_counts = self.tx_count.array[roots]
        if self.groups:
            groups = self.groups
            cids = np.concatenate(
                (cids, [group.cid for group in groups])
            )
            sizes = np.concatenate(
                (sizes, [group.size for group in groups])
            )
            balances = np.concatenate(
                (balances, [group.balance for group in groups])
            )
            tx_counts = np.concatenate(
                (tx_counts, [group.tx_count for group in groups])
            )
        positive_balance = balances > 0
        active = tx_counts > 0
        self.ranks = {
            "size": RankIndex.from_columns(cids, sizes),
            "balance": RankIndex.from_columns(
                cids[positive_balance], balances[positive_balance]
            ),
            "activity": RankIndex.from_columns(
                cids[active], tx_counts[active]
            ),
        }
        self.derived_dirty = False

    def _settle_overlay(
        self, owners: np.ndarray, spenders: np.ndarray
    ) -> None:
        """Vectorized overlay grouping for :meth:`settle`, matching
        :meth:`ClusterAggregateView._build_overlay`'s aggregation.

        The open-link pair graph is tiny (one edge per open label), so
        components come from a scalar union-find over its roots; every
        per-group quantity — sorted member tuple, fold sums, seen-range
        extremes, canonical id — is then a ``reduceat`` over one
        lexsorted gather instead of a per-root Python read."""
        parent: dict[int, int] = {}
        get = parent.get

        def gfind(item: int) -> int:
            root = item
            while True:
                above = get(root, root)
                if above == root:
                    break
                root = above
            while item != root:
                parent[item], item = root, parent[item]
            return root

        for ra, rb in zip(owners.tolist(), spenders.tolist()):
            if ra == rb:
                continue
            if ra not in parent:
                parent[ra] = ra
            if rb not in parent:
                parent[rb] = rb
            fa = gfind(ra)
            fb = gfind(rb)
            if fa != fb:
                parent[fb] = fa
        if not parent:
            return
        items = np.fromiter(parent, dtype="<i8", count=len(parent))
        labels = np.fromiter(
            (gfind(item) for item in parent), dtype="<i8", count=len(parent)
        )
        order = np.lexsort((items, labels))
        members = items[order]
        grouped = labels[order]
        starts = np.nonzero(
            np.concatenate(([True], grouped[1:] != grouped[:-1]))
        )[0]
        sizes = np.add.reduceat(self.uf.root_sizes.array[members], starts)
        balances = np.add.reduceat(self.balance.array[members], starts)
        tx_counts = np.add.reduceat(self.tx_count.array[members], starts)
        cids = np.minimum.reduceat(self.min_member.array[members], starts)
        lasts = np.maximum.reduceat(self.last.array[members], starts)
        unseen = np.iinfo("<i8").max
        firsts = self.first.array[members].copy()
        firsts[firsts < 0] = unseen
        firsts = np.minimum.reduceat(firsts, starts)
        firsts[firsts == unseen] = -1
        bounds = starts.tolist()
        bounds.append(len(members))
        member_list = members.tolist()
        groups: list[_OverlayGroup] = []
        group_of: dict[int, _OverlayGroup] = {}
        rows = zip(
            cids.tolist(), sizes.tolist(), balances.tolist(),
            tx_counts.tolist(), firsts.tolist(), lasts.tolist(),
        )
        for i, (cid, size, balance, tx_count, first, last) in enumerate(rows):
            roots_key = tuple(member_list[bounds[i]:bounds[i + 1]])
            group = _OverlayGroup(
                cid=cid,
                roots=roots_key,
                size=size,
                balance=balance,
                tx_count=tx_count,
                first_seen=first,
                last_seen=last,
            )
            groups.append(group)
            for root in roots_key:
                group_of[root] = group
        self.groups = groups
        self.group_of = group_of


def _refresh_rank_indexes(
    ranks: dict[str, RankIndex],
    old_cids: set[int],
    new_entries: list[tuple[int, int, int, int]],
) -> None:
    """Rank churn shared by live flushes and time-travel replay (same
    inclusion rule as the batch builders: ``size`` ranks everything,
    ``balance``/``activity`` only positive totals).  Batched per metric
    so a large refresh (a deferred time-travel finalize) takes each
    index's one-sort bulk path instead of per-entry memmoves."""
    new_cids = {entry[0] for entry in new_entries}
    gone = old_cids - new_cids
    size_updates: list[tuple[int, int]] = []
    balance_discards: list[int] = list(gone)
    balance_updates: list[tuple[int, int]] = []
    activity_discards: list[int] = list(gone)
    activity_updates: list[tuple[int, int]] = []
    for cid, size, balance, tx_count in new_entries:
        size_updates.append((cid, size))
        if balance > 0:
            balance_updates.append((cid, balance))
        else:
            balance_discards.append(cid)
        if tx_count > 0:
            activity_updates.append((cid, tx_count))
        else:
            activity_discards.append(cid)
    ranks["size"].apply(gone, size_updates)
    ranks["balance"].apply(balance_discards, balance_updates)
    ranks["activity"].apply(activity_discards, activity_updates)


class HorizonAggregates:
    """Read-only cluster-aggregate surface at one historical height.

    Returned by :meth:`ClusterAggregateView.horizon`; exposes the same
    query methods the live view serves at the tip, plus the per-address
    reads a historical ``cluster_profile`` needs, all against a replayed
    :class:`_HorizonState`.  Instances share materialized states with
    the view's checkpoint spine and memo — strictly read-only.
    """

    __slots__ = ("_state",)

    def __init__(self, state: _HorizonState) -> None:
        self._state = state

    @property
    def height(self) -> int:
        return self._state.height

    def cluster_id_of(self, ident: int | None) -> int | None:
        state = self._state
        if ident is None or not 0 <= ident < len(state.uf):
            return None
        root = state.uf.find(ident)
        group = state.group_of.get(root)
        return group.cid if group is not None else state.min_member[root]

    def cluster_placements_of(
        self, idents
    ) -> list[tuple[int, int] | None]:
        state = self._state
        universe = len(state.uf)
        find = state.uf.find
        overlay_get = state.group_of.get
        min_member = state.min_member
        out: list[tuple[int, int] | None] = []
        append = out.append
        for ident in idents:
            if ident is None or not 0 <= ident < universe:
                append(None)
                continue
            root = find(ident)
            group = overlay_get(root)
            append(
                (root, group.cid if group is not None else min_member[root])
            )
        return out

    def _locate(self, cluster_id: int) -> tuple[int, _OverlayGroup | None]:
        state = self._state
        if not 0 <= cluster_id < len(state.uf):
            raise KeyError(cluster_id)
        root = state.uf.find(cluster_id)
        return root, state.group_of.get(root)

    def size_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        return (
            group.size if group is not None else self._state.uf.size_of(root)
        )

    def balance_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        return (
            group.balance if group is not None else self._state.balance[root]
        )

    def activity_of_cluster(self, cluster_id: int) -> ClusterActivity | None:
        root, group = self._locate(cluster_id)
        if group is not None:
            if not group.tx_count:
                return None
            return ClusterActivity(
                tx_count=group.tx_count,
                first_seen=group.first_seen,
                last_seen=group.last_seen,
            )
        state = self._state
        if not state.tx_count[root]:
            return None
        return ClusterActivity(
            tx_count=state.tx_count[root],
            first_seen=state.first[root],
            last_seen=state.last[root],
        )

    def _rank_index(self, by: str) -> RankIndex:
        rank_index = self._state.ranks.get(by)
        if rank_index is None:
            raise ValueError(
                f"ranking metric must be one of {TOP_CLUSTER_METRICS}"
            )
        return rank_index

    def top(self, n: int, by: str) -> tuple[tuple[int, int], ...]:
        return self._rank_index(by).top(n)

    def rank_of(self, by: str, cluster_id: int) -> int | None:
        return self._rank_index(by).rank_of(cluster_id)

    def ranking(self, by: str) -> ClusterRanking:
        return self._rank_index(by).as_ranking()

    @property
    def cluster_count(self) -> int:
        return len(self._state.ranks["size"])

    # -- per-address reads (historical profile fields) -----------------

    def balance_of_id(self, ident: int) -> int:
        state = self._state
        if 0 <= ident < len(state.a_balance):
            return state.a_balance[ident]
        return 0

    def tx_count_of_id(self, ident: int) -> int:
        state = self._state
        if 0 <= ident < len(state.a_tx_count):
            return state.a_tx_count[ident]
        return 0

    def seen_range_of_id(self, ident: int) -> tuple[int, int] | None:
        state = self._state
        if 0 <= ident < len(state.a_first) and state.a_first[ident] >= 0:
            return state.a_first[ident], state.a_last[ident]
        return None


class DirtyRootCursor:
    """One consumer's registration for dirty-root naming churn.

    Mirrors :class:`~repro.core.union_find.MergeCursor`: each consumer
    holds its own cursor, and :meth:`ClusterAggregateView.drain_naming_dirty`
    returns (and clears) only *that cursor's* accumulated set — so the
    query engine's incremental cluster-name aggregate and the invariant
    auditor can both follow naming churn without starving each other.
    Pending roots are distributed into every registered cursor at drain
    time, so an idle consumer's backlog is a deduplicated set of base
    roots (bounded by the universe), never an unbounded log.
    """

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty: set[int] = set()


class ClusterAggregateView(MaterializedView):
    """Streaming per-cluster balance/activity/size/ranking maintenance.

    Attach *after* the service's
    :class:`~repro.core.incremental.IncrementalClusteringEngine` (the
    service constructor and snapshot-restore path both do): each block's
    :meth:`_apply_delta` pulls the engine's
    :meth:`~repro.core.incremental.IncrementalClusteringEngine.cluster_delta`
    for the height, so the engine must already have clustered it.

    Internal structure: a *base* partition (own
    :class:`~repro.core.union_find.IntUnionFind`) carrying H1 unions
    plus permanently settled H2 change links, with per-base-root
    aggregate arrays folded on every base merge via the union-find's
    merge-cursor hook; plus an *overlay* of open-window H2 links.  Base
    folds are irreversible (min/max folds have no inverse) — which is
    exactly why voidable links never enter the base: a §4.2 void simply
    drops the link from the next flush's overlay, and the engine's own
    checkpoint/rollback time-travel brackets never leak in (they
    restore the merge log exactly, and this view's base is never rolled
    back — the flush refuses retractions loudly).

    Maintenance is **lazily flushed**: :meth:`_apply_delta` only queues
    the block's shared :class:`~repro.chain.delta.BlockDelta` (O(1) on
    the ingest hot path), and the first query/export at the new tip
    folds every queued block and refreshes overlay + rankings *once*.
    Under interleaved traffic that equals per-block maintenance; under
    bulk ingest (catch-up, snapshot tail replay, block sync) the rank
    and overlay churn for a cluster touched in many queued blocks
    coalesces into a single update.  The deferral is safe because
    everything a flush reads is stable history: the engine's per-height
    merge spans and label churn never change once a height is
    clustered, and the open-label fields the overlay reads
    (``address_id``/``input_id``) are immutable.
    """

    OBSERVER_NAME = "aggregates"

    _TT_INTERVAL = 16
    """Checkpoint spine spacing: replaying to any height crosses at
    most this many records once the spine is warm.  Spacing trades
    checkpoint memory for replay depth; with the overlay/rank epilogue
    deferred to serve time, short replays are cheap enough that a dense
    spine pays for itself immediately under scrubbing workloads."""

    _TT_MEMO_SIZE = 4
    """Exact-height LRU depth (mirrors the engine's as-of memo)."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        engine: IncrementalClusteringEngine,
        follow: bool = True,
        use_kernels: bool = True,
        time_travel: bool = True,
        metrics=None,
    ) -> None:
        self.engine = engine
        self._use_kernels = use_kernels
        """Kernelized churn: per-address balance/incidence folding is
        batched per *flush* through :meth:`_fold_churn` (numpy group-by
        over every queued block's columnar buffers) instead of one
        Python dict pass per block.  ``use_kernels=False`` keeps the
        scalar per-block reference fold."""
        self._uf = IntUnionFind()
        """Base partition: H1 merges + settled change links."""
        self._cursor = self._uf.merge_cursor()
        """Fold hook: every base merge is drained into aggregate folds."""
        self._balance = IntVector()
        """Per base root: summed member balance (junk at non-roots)."""
        self._tx_count = IntVector()
        self._first = IntVector()
        self._last = IntVector()
        self._min_member = IntVector()
        """Per base root: minimum member id — the canonical cluster id."""
        self._open: set = set()
        """Open-window (still voidable) live labels, maintained from the
        engine's per-block born/voided/settled deltas."""
        self._overlay_groups: list[_OverlayGroup] = []
        self._overlay_of: dict[int, _OverlayGroup] = {}
        """base root -> the overlay group currently absorbing it."""
        self._ranks: dict[str, RankIndex] = {
            metric: RankIndex() for metric in TOP_CLUSTER_METRICS
        }
        self._pending: list[BlockDelta] = []
        """Blocks observed but not yet folded (drained by :meth:`_flush`
        on the first query or export at the new tip)."""
        self._naming_dirty: set[int] = set()
        """Base roots whose *canonical id mapping* may have changed
        since the last :meth:`drain_naming_dirty` — fold endpoints and
        structurally changed overlay groups, never plain churn (balance
        or activity updates cannot move a cluster's id).  This is the
        *pending* set: drains distribute it into every registered
        :class:`DirtyRootCursor` before returning the caller's own."""
        self._naming_cursors: list[DirtyRootCursor] = []
        self._default_naming_cursor: DirtyRootCursor | None = None
        """Backs cursor-less :meth:`drain_naming_dirty` calls (the
        pre-cursor single-consumer API), lazily registered."""
        self.naming_epoch = 0
        """Bumped once per drain that observed structural dirty roots:
        name-bearing query answers depend on the canonical-id mapping as
        well as the height, so caches key on ``(height, naming_epoch)``
        for those kinds (see :meth:`QueryEngine._cache_key
        <repro.service.queries.QueryEngine._cache_key>`)."""
        self._tt_enabled = time_travel
        self._tt_records: dict[int, _HeightRecord] = {}
        """The per-height aggregate delta log, keyed by height."""
        self._tt_base: _HorizonState | None = (
            _HorizonState() if time_travel else None
        )
        """Oldest materialized state (genesis for a fresh view; the
        restore height after a v2/v3 snapshot seeds it).  ``None`` means
        time travel cannot serve yet."""
        self._tt_spine: dict[int, _HorizonState] = {}
        """Sparse checkpoints at :attr:`_TT_INTERVAL` multiples,
        materialized lazily as replays first cross them."""
        self._tt_memo: OrderedDict[int, _HorizonState] = OrderedDict()
        """Exact-height LRU of recently served horizon states."""
        super().__init__(index, follow=follow, metrics=metrics)

    # ------------------------------------------------------------------
    # streaming maintenance
    # ------------------------------------------------------------------

    def _apply_delta(self, delta: BlockDelta) -> None:
        engine = self.engine
        if engine.height < delta.height:
            raise ValueError(
                f"engine is at height {engine.height} but block "
                f"{delta.height} arrived; attach ClusterAggregateView "
                f"after a following engine (a detached engine, a refused "
                f"non-monotonic block, or view-before-engine "
                f"subscription order all leave the merge deltas missing)"
            )
        self._pending.append(delta)

    def _flush(self) -> None:
        """Fold every queued block, then refresh overlay and rankings.

        The fold itself runs per queued block, in order (first/last-seen
        and stale-id reads are height-sensitive); the overlay rebuild
        and the rank churn run once at the end over the union of every
        queued block's touched ids — the coalescing that makes bulk
        ingest cheap.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        metrics = self.metrics
        timed = metrics.enabled
        if timed:
            flush_start = perf_counter()
            metrics.histogram(
                "aggregates.queued_blocks", buckets=COUNT_BUCKETS
            ).observe(len(pending))
            metrics.counter("aggregates.churn_rows").inc(
                sum(
                    len(delta.event_ids) + len(delta.involved_flat)
                    for delta in pending
                )
            )
        uf = self._uf
        find = uf.find
        min_member = self._min_member
        prev_groups = self._overlay_groups
        prev_of = self._overlay_of

        stale_cids: set[int] = set()
        touched: set[int] = set()
        deferred: list[
            tuple[int, np.ndarray, np.ndarray, np.ndarray]
        ] | None = ([] if self._use_kernels else None)
        for delta in pending:
            self._fold_block(delta, stale_cids, touched, deferred)
        if deferred:
            # Kernel mode deferred every block's per-address churn; fold
            # it now, after the per-block merge folds (so every id lands
            # at its post-merge root) and before the overlay rebuild
            # (which reads the base arrays).
            self._fold_churn(deferred, touched)

        # Overlay rebuild from the now-current open links, resolving
        # each endpoint's post-fold base root exactly once.  A root
        # *newly* absorbed by a group loses its standalone rank entry;
        # roots grouped before the flush never had one.  Groups whose
        # topology and member aggregates are untouched are reused
        # verbatim — their rank entries are already correct, so they
        # contribute neither stale ids nor new entries.
        open_links = [
            live for live in self._open if live.input_id is not None
        ]
        # Resolve the flush's touched ids to post-fold roots in one
        # batch gather — at bulk-ingest flushes this set spans every
        # address the queued blocks touched.
        touched_roots = (
            set(
                uf.find_many(
                    np.fromiter(touched, dtype="<i8", count=len(touched))
                ).tolist()
            )
            if touched
            else set()
        )
        pairs: list[tuple[int, int]] = []
        for live in open_links:
            ra = find(live.address_id)
            rb = find(live.input_id)
            pairs.append((ra, rb))
            if ra not in prev_of:
                stale_cids.add(min_member[ra])
                touched_roots.add(ra)
            if rb not in prev_of:
                stale_cids.add(min_member[rb])
                touched_roots.add(rb)
        self._build_overlay(pairs, touched_roots)

        # Pre-flush groups that did not survive verbatim dissolve: their
        # ids may vanish and their member roots may stand alone again.
        # A group replaced by a rebuilt one was handled structurally in
        # :meth:`_build_overlay`; one that vanished outright reverts its
        # members' canonical ids to standalone, so they re-resolve.
        reused = {id(group) for group in self._overlay_groups}
        overlay_of = self._overlay_of
        naming_dirty = self._naming_dirty
        for group in prev_groups:
            if id(group) not in reused:
                stale_cids.add(group.cid)
                for root in group.roots:
                    touched_roots.add(find(root))
                    if overlay_of.get(root) is None:
                        # Reverted to standalone (or folded away): its
                        # canonical id left the group.  Members landing
                        # in a rebuilt group were marked structurally in
                        # _build_overlay; this per-root check catches
                        # the ones no new group absorbed.
                        naming_dirty.add(root)

        # Rank churn, once per touched cluster: stale ids out, live
        # entries in.  Plain churn never changes a cluster's id — those
        # entries are overwritten in place, not discarded — so the
        # stale set stays O(merges + links + changed groups), not
        # O(churn + open labels).
        grouped = self._overlay_of
        prev_ids = {id(group) for group in prev_groups}
        standalone = [root for root in touched_roots if root not in grouped]
        # One gather per column: after a bulk ingest this is every
        # cluster the queued blocks touched.
        roots = np.fromiter(standalone, dtype="<i8", count=len(standalone))
        new_entries: list[tuple[int, int, int, int]] = list(
            zip(
                min_member.array[roots].tolist(),
                uf.root_sizes.array[roots].tolist(),
                self._balance.array[roots].tolist(),
                self._tx_count.array[roots].tolist(),
            )
        )
        for group in self._overlay_groups:
            if id(group) in prev_ids:
                continue  # reused verbatim: entries already live
            new_entries.append(
                (group.cid, group.size, group.balance, group.tx_count)
            )
        self._refresh_ranks(stale_cids, new_entries)
        if timed:
            seconds = perf_counter() - flush_start
            metrics.histogram("aggregates.flush_seconds").observe(seconds)
            metrics.flight.record(
                "flush",
                height=self._height,
                blocks=len(pending),
                seconds=seconds,
            )
        log = self.index.log
        if log.enabled:
            log.debug(
                "aggregate_flush",
                height=self._height,
                blocks=len(pending),
            )

    def _fold_block(
        self,
        delta: BlockDelta,
        stale_cids: set[int],
        touched: set[int],
        deferred: list | None = None,
    ) -> None:
        """Fold one queued block into the base partition and arrays.

        ``stale_cids`` collects canonical ids that may disappear
        (resolved *before* the block's unions fold them away);
        ``touched`` collects address ids whose post-fold clusters need
        their rank entries refreshed.  When ``deferred`` is given
        (kernel mode) the per-address balance/incidence fold is
        deferred: the block's columnar buffers are queued for one
        batched :meth:`_fold_churn` pass at the end of the flush.
        """
        height = delta.height
        churn = self.engine.cluster_delta(height)
        uf = self._uf
        find = uf.find
        min_member = self._min_member

        # 1. Universe growth, once per block off the delta's max id.
        grown_from = len(uf)
        max_id = delta.max_id
        if max_id >= grown_from:
            uf.ensure(max_id + 1)
            n = max_id + 1
            self._balance.grow_to(n)
            self._tx_count.grow_to(n)
            self._first.grow_to(n, fill=-1)
            self._last.grow_to(n, fill=-1)
            min_member.grow_to(n)
            min_member.array[grown_from:] = np.arange(
                grown_from, n, dtype="<i8"
            )

        # 2. Open-label bookkeeping off the engine's delta: watched
        #    births join the overlay set, voids and settles leave it.
        open_set = self._open
        for live in churn.born:
            if live.deadline is not None:
                open_set.add(live)
        for live in churn.voided:
            open_set.discard(live)
        for live in churn.settled:
            open_set.discard(live)
        settle_links = [
            live for live in churn.settled if live.input_id is not None
        ]

        # 3. Canonical ids the block's unions can fold away, resolved
        #    before any mutation.
        for absorbed, kept in churn.merges:
            stale_cids.add(min_member[find(absorbed)])
            stale_cids.add(min_member[find(kept)])
            touched.add(absorbed)
            touched.add(kept)
        for live in settle_links:
            stale_cids.add(min_member[find(live.address_id)])
            stale_cids.add(min_member[find(live.input_id)])
            touched.add(live.address_id)
            touched.add(live.input_id)

        # 4. Fold the block's merges into the base: H1 unions (replayed
        #    off the engine's merge log) plus change links that settled
        #    this block.  The merge cursor turns every *effective* base
        #    merge into one aggregate fold, smaller into larger.
        for absorbed, kept in churn.merges:
            uf.union(absorbed, kept)
        for live in settle_links:
            uf.union(live.address_id, live.input_id)
        retracted, folds = uf.drain_merges(self._cursor)
        if retracted:
            raise RuntimeError(
                "cluster aggregate base was rolled back; folded "
                "aggregates cannot be retracted"
            )
        balance = self._balance
        tx_count = self._tx_count
        first = self._first
        last = self._last
        naming_dirty = self._naming_dirty
        for absorbed, kept in folds:
            naming_dirty.add(absorbed)
            naming_dirty.add(kept)
            balance[kept] += balance[absorbed]
            tx_count[kept] += tx_count[absorbed]
            first_absorbed = first[absorbed]
            if first_absorbed >= 0 and (
                first[kept] < 0 or first_absorbed < first[kept]
            ):
                first[kept] = first_absorbed
            if last[absorbed] > last[kept]:
                last[kept] = last[absorbed]
            if min_member[absorbed] < min_member[kept]:
                min_member[kept] = min_member[absorbed]

        # Delta-log capture: everything a horizon replay needs to cross
        # this height.  The mark is taken *after* the block's unions, so
        # ``(previous mark, mark]`` on the (append-only) base log is
        # exactly this block's effective merges; the columnar churn
        # buffers are retained by reference, BalanceView-style.
        if self._tt_enabled:
            self._tt_records[height] = _HeightRecord(
                height=height,
                max_id=delta.max_id,
                mark=uf.checkpoint(),
                born_open=tuple(
                    live for live in churn.born if live.deadline is not None
                ),
                closed=tuple(churn.voided) + tuple(churn.settled),
                event_ids=delta.event_ids,
                event_values=delta.event_values,
                involved_flat=delta.involved_flat,
            )

        # 5. Per-address churn folded at the post-merge roots: balance
        #    deltas off the delta's flat event log, incidences off the
        #    pre-deduplicated per-tx involved lists — one find per
        #    touched id (every balance-event id also has an incidence,
        #    so the single pass covers both dicts).  Kernel mode defers
        #    this to one batched pass per flush: balance is a pure sum,
        #    first/last are min/max folds, and all three commute with
        #    the merge folds above, so applying the whole flush's churn
        #    at the final post-merge roots is equivalent.
        if deferred is not None:
            deferred.append(
                (height, delta.event_ids, delta.event_values,
                 delta.involved_flat)
            )
            return
        self._fold_block_churn(delta, touched)

    def _fold_block_churn(self, delta: BlockDelta, touched: set[int]) -> None:
        """Scalar per-block churn fold: the per-element reference path
        that :meth:`_fold_churn` batches per flush in kernel mode (and
        the stage the scale benchmark times against it)."""
        height = delta.height
        find = self._uf.find
        balance = self._balance
        tx_count = self._tx_count
        first = self._first
        last = self._last
        balance_deltas: dict[int, int] = {}
        for ident, change in delta.events:
            balance_deltas[ident] = balance_deltas.get(ident, 0) + change
        involvement: dict[int, int] = {}
        for txd in delta.txs:
            for ident in txd.involved:
                involvement[ident] = involvement.get(ident, 0) + 1
        for ident, hits in involvement.items():
            root = find(ident)
            tx_count[root] += hits
            if first[root] < 0:
                first[root] = height
            last[root] = height
            change = balance_deltas.get(ident)
            if change:
                balance[root] += change
        touched.update(involvement)

    def _fold_churn(
        self,
        churn: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        touched: set[int],
    ) -> None:
        """Batched per-address churn fold over one flush's queued blocks.

        Pure numpy: the whole flush's event and involvement columns are
        resolved to their post-merge roots in two
        :meth:`~repro.core.union_find.IntUnionFind.find_many` batch
        gathers, then scattered straight into the fold arrays' backing
        stores — ``np.add.at`` for balance sums and incidence counts,
        ``np.minimum.at`` / ``np.maximum.at`` for first/last-seen.  No
        per-id Python loop survives.

        Equivalence with the scalar per-block fold: balance is a sum
        decomposition (merge folds preserve sums), tx_count likewise,
        and first/last are min/max folds — the scalar "set first if
        unseen" relies on heights arriving in increasing order, which
        the min scatter reproduces without the ordering assumption (the
        ``-1`` never-seen sentinel is swapped for +inf at the touched
        roots first, and every touched root receives at least one real
        height, so no sentinel survives).  Applying churn after this
        flush's merge folds puts each contribution at its final root,
        where sums/mins/maxes land identically.  ``touched`` collects
        the resolved roots rather than the member ids — equivalent
        downstream, which only reads ``touched`` through ``find``.
        """
        inv_ids = np.concatenate([block[3] for block in churn])
        if not len(inv_ids):
            return
        inv_heights = np.concatenate(
            [
                np.full(len(block[3]), block[0], dtype=np.int64)
                for block in churn
            ]
        )
        event_ids = np.concatenate([block[1] for block in churn])
        event_values = np.concatenate([block[2] for block in churn])
        uf = self._uf
        if len(event_ids):
            np.add.at(
                self._balance.array, uf.find_many(event_ids), event_values
            )
        inv_roots = uf.find_many(inv_ids)
        np.add.at(self._tx_count.array, inv_roots, 1)
        uniq_roots = np.unique(inv_roots)
        first = self._first.array
        unseen = first[uniq_roots]
        unseen[unseen < 0] = np.iinfo(np.int64).max
        first[uniq_roots] = unseen
        np.minimum.at(first, inv_roots, inv_heights)
        np.maximum.at(self._last.array, inv_roots, inv_heights)
        touched.update(uniq_roots.tolist())

    def _build_overlay(
        self,
        root_pairs: list[tuple[int, int]],
        touched_roots: set[int],
    ) -> None:
        """Group base roots connected by open (voidable) change links.

        ``root_pairs`` holds each open link's endpoints already resolved
        to base roots (the caller needs those roots anyway); grouping
        runs on a small inline dict-backed union-find, and per-group
        aggregation reads the base arrays directly.  A component whose
        root set matches a pre-flush group exactly and touches no root
        in ``touched_roots`` reuses that group object verbatim — the
        flush detects reuse by identity and skips its rank churn.
        """
        prev_of = self._overlay_of
        parent: dict[int, int] = {}
        get = parent.get

        def gfind(item: int) -> int:
            root = item
            while True:
                above = get(root, root)
                if above == root:
                    break
                root = above
            while item != root:
                parent[item], item = root, parent[item]
            return root

        for ra, rb in root_pairs:
            if ra == rb:
                continue
            if ra not in parent:
                parent[ra] = ra
            if rb not in parent:
                parent[rb] = rb
            fa = gfind(ra)
            fb = gfind(rb)
            if fa != fb:
                parent[fb] = fa
        members: dict[int, list[int]] = {}
        for item in parent:
            members.setdefault(gfind(item), []).append(item)
        groups: list[_OverlayGroup] = []
        reuse_hits = 0
        sizes = self._uf.root_sizes
        balances = self._balance
        tx_counts = self._tx_count
        firsts = self._first
        lasts = self._last
        min_member = self._min_member
        for roots in members.values():
            # Every tracked root was unioned with a distinct partner, so
            # components here always span at least two base clusters.
            roots_key = tuple(sorted(roots))
            prev = prev_of.get(roots_key[0])
            if (
                prev is not None
                and prev.roots == roots_key
                and touched_roots.isdisjoint(roots_key)
            ):
                # Same topology, no member churn or fold: every
                # aggregate (and the cid) is provably unchanged.
                groups.append(prev)
                reuse_hits += 1
                continue
            size = balance = tx_count = 0
            first = last = -1
            cid = None
            for root in roots_key:
                size += sizes[root]
                balance += balances[root]
                tx_count += tx_counts[root]
                root_first = firsts[root]
                if root_first >= 0 and (first < 0 or root_first < first):
                    first = root_first
                if lasts[root] > last:
                    last = lasts[root]
                root_min = min_member[root]
                if cid is None or root_min < cid:
                    cid = root_min
            if prev is None or prev.cid != cid or prev.roots != roots_key:
                # Structural change: member roots' canonical-id mapping
                # shifted (an aggregates-only rebuild keeps every id).
                self._naming_dirty.update(roots_key)
                if prev is not None:
                    self._naming_dirty.update(prev.roots)
            groups.append(
                _OverlayGroup(
                    cid=cid,
                    roots=roots_key,
                    size=size,
                    balance=balance,
                    tx_count=tx_count,
                    first_seen=first,
                    last_seen=last,
                )
            )
        if reuse_hits and self.metrics.enabled:
            self.metrics.counter("aggregates.overlay_reuse_hits").inc(
                reuse_hits
            )
        self._overlay_groups = groups
        self._overlay_of = {
            root: group for group in groups for root in group.roots
        }

    def _refresh_ranks(
        self,
        old_cids: set[int],
        new_entries: list[tuple[int, int, int, int]],
    ) -> None:
        """Apply one flush's ranking churn: stale ids out, live ids in.

        Inclusion mirrors the batch ``_agg`` builders exactly: ``size``
        ranks every cluster in the universe; ``balance`` and
        ``activity`` rank only clusters with a positive total (balances
        are non-negative, so this equals the batch pass that skips
        zero-balance member addresses).
        """
        ranks = self._ranks
        gone = old_cids.difference(entry[0] for entry in new_entries)
        # RankIndex.apply picks the path: a per-block flush walks the
        # incremental insorts, the first flush after a bulk ingest
        # rewrites the value map and re-sorts once.
        ranks["size"].apply(
            gone, [(cid, size) for cid, size, _balance, _txs in new_entries]
        )
        for name, column in (("balance", 2), ("activity", 3)):
            ranks[name].apply(
                gone.union(e[0] for e in new_entries if e[column] <= 0),
                [(e[0], e[column]) for e in new_entries if e[column] > 0],
            )

    # ------------------------------------------------------------------
    # queries (all at the view's height; each flushes queued blocks)
    # ------------------------------------------------------------------

    def cluster_id_of(self, ident: int | None) -> int | None:
        """Canonical cluster id for an address id, or ``None`` if the id
        is outside the view's universe."""
        self._flush()
        if ident is None or not 0 <= ident < len(self._uf):
            return None
        root = self._uf.find(ident)
        group = self._overlay_of.get(root)
        return group.cid if group is not None else self._min_member[root]

    def cluster_placements_of(
        self, idents
    ) -> list[tuple[int, int] | None]:
        """Bulk :meth:`cluster_id_of` returning ``(base root, canonical
        id)`` per input id (``None`` for ids outside the universe).

        One flush, locals bound once: the cluster-name aggregate
        resolves batches of tagged addresses through this instead of one
        method call (plus flush check) per id, and keeps the returned
        root to know when a cached resolution goes stale (see
        :meth:`drain_naming_dirty`).
        """
        self._flush()
        uf = self._uf
        universe = len(uf)
        find = uf.find
        overlay_get = self._overlay_of.get
        min_member = self._min_member
        out: list[tuple[int, int] | None] = []
        append = out.append
        for ident in idents:
            if ident is None or not 0 <= ident < universe:
                append(None)
                continue
            root = find(ident)
            group = overlay_get(root)
            append(
                (root, group.cid if group is not None else min_member[root])
            )
        return out

    def naming_cursor(self) -> DirtyRootCursor:
        """Register a dirty-root consumer (see :class:`DirtyRootCursor`).

        The cursor sees only roots marked dirty *after* registration —
        a new consumer does a full build first (ids resolved through
        :meth:`cluster_placements_of` carry their base root for exactly
        this), then follows churn through :meth:`drain_naming_dirty`.
        Cursors are not durable state: a restored view starts with none
        registered, and consumers re-register against the view they
        actually follow.
        """
        cursor = DirtyRootCursor()
        self._naming_cursors.append(cursor)
        return cursor

    def release_naming_cursor(self, cursor: DirtyRootCursor) -> None:
        """Deregister a cursor (its backlog stops accumulating)."""
        try:
            self._naming_cursors.remove(cursor)
        except ValueError:
            pass
        if cursor is self._default_naming_cursor:
            self._default_naming_cursor = None

    def drain_naming_dirty(
        self, cursor: DirtyRootCursor | None = None
    ) -> set[int]:
        """Return (and clear) the base roots whose canonical-id mapping
        may have changed since ``cursor`` last drained.

        Every registered cursor observes every dirty root exactly once:
        the pending set is distributed into each cursor's own set here,
        then the caller's set is handed over and replaced.  Calling
        without a cursor uses a lazily registered default — the old
        single-consumer API, still what a lone consumer needs.  An id
        resolved through :meth:`cluster_placements_of` stays valid until
        a drain reports its root — fold endpoints and structural overlay
        changes are reported, plain churn (which cannot move a cluster's
        id) is not.
        """
        self._flush()
        if cursor is None:
            cursor = self._default_naming_cursor
            if cursor is None:
                cursor = self._default_naming_cursor = self.naming_cursor()
        pending = self._naming_dirty
        if pending:
            self.naming_epoch += 1
            for registered in self._naming_cursors:
                registered.dirty |= pending
            self._naming_dirty = set()
        dirty = cursor.dirty
        if not dirty:
            return dirty
        cursor.dirty = set()
        return dirty

    @property
    def pending_blocks(self) -> int:
        """Blocks queued but not yet folded (the flush-queue depth the
        health model reports)."""
        return len(self._pending)

    def _locate(self, cluster_id: int) -> tuple[int, _OverlayGroup | None]:
        """Resolve a canonical id to its base root / overlay group."""
        self._flush()
        if not 0 <= cluster_id < len(self._uf):
            raise KeyError(cluster_id)
        root = self._uf.find(cluster_id)
        return root, self._overlay_of.get(root)

    def size_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        return group.size if group is not None else self._uf.size_of(root)

    def balance_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        return group.balance if group is not None else self._balance[root]

    def activity_of_cluster(self, cluster_id: int) -> ClusterActivity | None:
        """Aggregate activity, or ``None`` for a never-active cluster
        (matching the batch rollup, which skips zero-count clusters)."""
        root, group = self._locate(cluster_id)
        if group is not None:
            if not group.tx_count:
                return None
            return ClusterActivity(
                tx_count=group.tx_count,
                first_seen=group.first_seen,
                last_seen=group.last_seen,
            )
        if not self._tx_count[root]:
            return None
        return ClusterActivity(
            tx_count=self._tx_count[root],
            first_seen=self._first[root],
            last_seen=self._last[root],
        )

    def _rank_index(self, by: str) -> RankIndex:
        self._flush()
        rank_index = self._ranks.get(by)
        if rank_index is None:
            raise ValueError(
                f"ranking metric must be one of {TOP_CLUSTER_METRICS}"
            )
        return rank_index

    def top(self, n: int, by: str) -> tuple[tuple[int, int], ...]:
        """The best ``n`` clusters by one metric: ``(id, value)`` pairs."""
        return self._rank_index(by).top(n)

    def rank_of(self, by: str, cluster_id: int) -> int | None:
        """1-based standing of one cluster under one metric."""
        return self._rank_index(by).rank_of(cluster_id)

    def ranking(self, by: str) -> ClusterRanking:
        """Materialize one metric's full per-height ranking object."""
        return self._rank_index(by).as_ranking()

    @property
    def cluster_count(self) -> int:
        """Clusters at the tip (the size ranking covers every cluster)."""
        self._flush()
        return len(self._ranks["size"])

    # ------------------------------------------------------------------
    # time travel (historical horizons)
    # ------------------------------------------------------------------

    def covers(self, height: int) -> bool:
        """True when :meth:`horizon` can serve ``height`` by replay —
        the height is inside the delta log's materialized span."""
        self._flush()
        return (
            self._tt_enabled
            and self._tt_base is not None
            and self._tt_base.height <= height <= self._height
        )

    def horizon(self, height: int) -> HorizonAggregates | None:
        """The aggregate surface at a historical ``height``, or ``None``
        when the delta log does not cover it (time travel disabled, or a
        v2/v3 restore whose pre-restore history was never logged).

        Replays forward from the nearest materialized state — the base,
        a spine checkpoint, or a memoized exact height — applying one
        :class:`_HeightRecord` per height crossed.  Spine checkpoints at
        :attr:`_TT_INTERVAL` multiples are materialized the first time a
        replay crosses them, so a warm view bounds any replay to one
        interval of records instead of the whole log.
        """
        self._flush()
        if not (
            self._tt_enabled
            and self._tt_base is not None
            and self._tt_base.height <= height <= self._height
        ):
            return None
        metrics = self.metrics
        timed = metrics.enabled
        memo = self._tt_memo
        state = memo.get(height)
        if state is not None:
            memo.move_to_end(height)
            if timed:
                metrics.counter("timetravel.memo_hits").inc()
            return HorizonAggregates(state)
        if timed:
            start = perf_counter()
        best = self._tt_base
        for spine_height, checkpoint in self._tt_spine.items():
            if best.height < spine_height <= height:
                best = checkpoint
        for memo_height in memo:
            if best.height < memo_height <= height:
                best = memo[memo_height]
        depth = height - best.height
        if timed and depth < height - self._tt_base.height:
            metrics.counter("timetravel.checkpoint_hits").inc()
        if best.height == height:
            state = best
        else:
            state = best.clone()
            spine = self._tt_spine
            records = self._tt_records
            interval = self._TT_INTERVAL
            while state.height < height:
                self._tt_advance(state, records[state.height + 1])
                crossed = state.height
                if (
                    crossed < height
                    and crossed % interval == 0
                    and crossed not in spine
                ):
                    spine[crossed] = state.clone()
                    if timed:
                        metrics.counter(
                            "timetravel.checkpoints_materialized"
                        ).inc()
            memo[height] = state
            while len(memo) > self._TT_MEMO_SIZE:
                memo.popitem(last=False)
        # Settle the deferred overlay/rank rebuild at the served height
        # only — spine checkpoints stay lazy until directly served.
        state.settle()
        if timed:
            seconds = perf_counter() - start
            metrics.histogram(
                "timetravel.replay_heights", buckets=COUNT_BUCKETS
            ).observe(depth)
            metrics.histogram("timetravel.replay_seconds").observe(seconds)
            metrics.flight.record(
                "timetravel",
                height=height,
                tip=self._height,
                depth=depth,
                seconds=seconds,
            )
        return HorizonAggregates(state)

    def _tt_advance(self, state: _HorizonState, record: _HeightRecord) -> None:
        """Advance one materialized state across one height record.

        Mirrors the live flush's fold order — universe growth,
        open-label transitions, merge folds, per-address churn — so a
        replayed state at ``h`` is value-identical to the live view had
        ingestion stopped at ``h``.  Merge folds read the live base's
        log span ``(state.mark, record.mark]``: each entry's endpoints
        are the exact roots at its application point, so stale canonical
        ids read straight off ``min_member`` with no finds, and the span
        replays onto the state's own union-find in O(1) per entry.

        The flush epilogue (overlay rebuild + rank churn) is *deferred*:
        only the served height's derived state is ever read, so replay
        advances just the base folds and :meth:`_HorizonState.settle`
        rebuilds the derived structures wholesale once per horizon
        instead of once per height crossed.
        """
        height = record.height
        uf = state.uf

        # 1. Universe growth.
        grown_from = len(uf)
        if record.max_id >= grown_from:
            n = record.max_id + 1
            uf.ensure(n)
            state.balance.grow_to(n)
            state.tx_count.grow_to(n)
            state.first.grow_to(n, fill=-1)
            state.last.grow_to(n, fill=-1)
            state.min_member.grow_to(n)
            state.min_member.array[grown_from:] = np.arange(
                grown_from, n, dtype="<i8"
            )
            state.a_balance.grow_to(n)
            state.a_tx_count.grow_to(n)
            state.a_first.grow_to(n, fill=-1)
            state.a_last.grow_to(n, fill=-1)

        # 2. Open-label transitions.
        open_set = state.open
        for live in record.born_open:
            open_set.add(live)
        for live in record.closed:
            open_set.discard(live)

        # 3. Merge folds off the base log span, sequentially: an entry's
        #    ``kept`` may be absorbed by a later entry, so min_member
        #    reads interleave with the folds exactly as the recorded
        #    unions did.
        span = self._uf.log_span(state.mark, record.mark)
        min_member = state.min_member
        balance = state.balance
        tx_count = state.tx_count
        first = state.first
        last = state.last
        for absorbed, kept in span:
            balance[kept] += balance[absorbed]
            tx_count[kept] += tx_count[absorbed]
            first_absorbed = first[absorbed]
            if first_absorbed >= 0 and (
                first[kept] < 0 or first_absorbed < first[kept]
            ):
                first[kept] = first_absorbed
            if last[absorbed] > last[kept]:
                last[kept] = last[absorbed]
            if min_member[absorbed] < min_member[kept]:
                min_member[kept] = min_member[absorbed]
        uf.replay(span)
        state.mark = record.mark

        # 4. Per-address churn at this height — the same kernel folds
        #    the live views run, scattered into both the per-address
        #    arrays and the per-root fold arrays at post-span roots.
        find_many = uf.find_many
        involved = record.involved_flat
        if len(involved):
            np.add.at(state.a_tx_count.array, involved, 1)
            a_first = state.a_first.array
            a_first[involved[a_first[involved] < 0]] = height
            state.a_last.array[involved] = height
            inv_roots = find_many(involved)
            np.add.at(tx_count.array, inv_roots, 1)
            uniq_roots = np.unique(inv_roots)
            first_arr = first.array
            # Heights replay in order, so a seen first is already the
            # minimum; only the -1 sentinel takes this height.
            first_arr[uniq_roots[first_arr[uniq_roots] < 0]] = height
            last.array[uniq_roots] = height
        if len(record.event_ids):
            np.add.at(
                state.a_balance.array, record.event_ids, record.event_values
            )
            np.add.at(
                balance.array,
                find_many(record.event_ids),
                record.event_values,
            )
        state.derived_dirty = True
        state.height = height

    def seed_time_travel_base(self, balances, activity) -> None:
        """Anchor the delta log at the view's *current* height from the
        restored sibling views.

        v2/v3 snapshots carry no time-travel segment: history below the
        restore height is unrecoverable, but seeding a base checkpoint
        here means every height from the restore point forward is logged
        and served.  ``balances`` / ``activity`` are the service's
        restored :class:`~repro.service.views.BalanceView` /
        :class:`~repro.service.views.ActivityView` at the same height.
        """
        if not self._tt_enabled:
            return
        self._flush()
        base = _HorizonState()
        base.height = self._height
        base.mark = self._uf.checkpoint()
        base.uf = self._uf.copy()
        base.balance = self._balance.copy()
        base.tx_count = self._tx_count.copy()
        base.first = self._first.copy()
        base.last = self._last.copy()
        base.min_member = self._min_member.copy()
        n = len(base.uf)
        # Sibling views grow off the same per-block max_id, so their
        # arrays already span the universe; grow_to is belt-and-braces
        # for an empty chain.
        base.a_balance = balances._balances.copy()
        base.a_balance.grow_to(n)
        base.a_tx_count = activity._tx_counts.copy()
        base.a_tx_count.grow_to(n)
        base.a_first = activity._first_seen.copy()
        base.a_first.grow_to(n, fill=-1)
        base.a_last = activity._last_seen.copy()
        base.a_last.grow_to(n, fill=-1)
        base.open = set(self._open)
        base.settle()
        self._tt_base = base
        self._tt_records = {}
        self._tt_spine = {}
        self._tt_memo = OrderedDict()

    def export_time_travel(self) -> dict | None:
        """The delta log + base checkpoint as plain data (the optional
        ``timetravel`` snapshot segment), or ``None`` when disabled.

        Label references serialize as indices into the engine's
        birth-ordered label list (the same convention the engine's own
        export uses), so a restore re-binds them to the restored
        engine's live label objects.  The spine and memo are replay
        caches, rebuilt on demand — never exported.
        """
        if not self._tt_enabled or self._tt_base is None:
            return None
        self._flush()
        label_index = {
            id(live): position
            for position, live in enumerate(self.engine._labels)
        }
        base = self._tt_base
        return {
            "version": 1,
            "height": self._height,
            "base": {
                "height": base.height,
                "mark": base.mark,
                "uf": base.uf.export_state(),
                "balance": base.balance.tobytes(),
                "tx_count": base.tx_count.tobytes(),
                "first_seen": base.first.tobytes(),
                "last_seen": base.last.tobytes(),
                "min_member": base.min_member.tobytes(),
                "a_balance": base.a_balance.tobytes(),
                "a_tx_count": base.a_tx_count.tobytes(),
                "a_first": base.a_first.tobytes(),
                "a_last": base.a_last.tobytes(),
                "open": [label_index[id(live)] for live in base.open],
            },
            "records": [
                (
                    record.height,
                    record.max_id,
                    record.mark,
                    [label_index[id(live)] for live in record.born_open],
                    [label_index[id(live)] for live in record.closed],
                    record.event_ids.tobytes(),
                    record.event_values.tobytes(),
                    record.involved_flat.tobytes(),
                )
                for record in sorted(
                    self._tt_records.values(), key=lambda r: r.height
                )
            ],
        }

    def load_time_travel(self, state: dict) -> None:
        """Restore :meth:`export_time_travel` output onto this view.

        The engine must already be restored: label references are
        indices into its birth-ordered label list, re-bound here to the
        same live objects the view's ``_open`` set holds.
        """
        labels = self.engine._labels
        base_state = state["base"]
        base = _HorizonState()
        base.height = base_state["height"]
        base.mark = base_state["mark"]
        base.uf = IntUnionFind.from_state(base_state["uf"])
        base.balance = IntVector.from_bytes(base_state["balance"])
        base.tx_count = IntVector.from_bytes(base_state["tx_count"])
        base.first = IntVector.from_bytes(base_state["first_seen"])
        base.last = IntVector.from_bytes(base_state["last_seen"])
        base.min_member = IntVector.from_bytes(base_state["min_member"])
        base.a_balance = IntVector.from_bytes(base_state["a_balance"])
        base.a_tx_count = IntVector.from_bytes(base_state["a_tx_count"])
        base.a_first = IntVector.from_bytes(base_state["a_first"])
        base.a_last = IntVector.from_bytes(base_state["a_last"])
        base.open = {labels[position] for position in base_state["open"]}
        base.settle()
        self._tt_enabled = True
        self._tt_base = base
        self._tt_records = {
            height: _HeightRecord(
                height=height,
                max_id=max_id,
                mark=mark,
                born_open=tuple(labels[position] for position in born),
                closed=tuple(labels[position] for position in closed),
                event_ids=np.frombuffer(event_ids, dtype="<i8"),
                event_values=np.frombuffer(event_values, dtype="<i8"),
                involved_flat=np.frombuffer(involved_flat, dtype="<i8"),
            )
            for height, max_id, mark, born, closed,
            event_ids, event_values, involved_flat in state["records"]
        }
        self._tt_spine = {}
        self._tt_memo = OrderedDict()

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: the base partition and its fold arrays.

        The overlay, open-label set, and rank indexes are *derived*
        (from the engine's open labels and the base aggregates) and are
        rebuilt on restore — exporting them would only create a second
        source of truth to keep consistent.  Queued blocks are flushed
        first, so an export always reflects the view's full height.

        Version 2: the five fold arrays export as raw int64 bytes (one
        buffer each); :meth:`from_state` still accepts the version-1
        list shape.
        """
        self._flush()
        return {
            "version": 2,
            "height": self._height,
            "uf": self._uf.export_state(),
            "balance": self._balance.tobytes(),
            "tx_count": self._tx_count.tobytes(),
            "first_seen": self._first.tobytes(),
            "last_seen": self._last.tobytes(),
            "min_member": self._min_member.tobytes(),
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        *,
        engine: IncrementalClusteringEngine,
        follow: bool = True,
        use_kernels: bool = True,
        time_travel: bool = True,
        metrics=None,
    ) -> "ClusterAggregateView":
        """Rebuild a view from :meth:`export_state` output, no catch-up.

        ``engine`` must be the restored engine at the same height — the
        open-label overlay is reconstructed from its live label state,
        so restored rankings are identical to the exporting view's.
        Accepts both the version-2 bytes shape and the pre-columnar
        version-1 list shape.

        The delta log restores separately (:meth:`load_time_travel` for
        manifest-v4 snapshots with a ``timetravel`` segment;
        :meth:`seed_time_travel_base` anchors a fresh base at the
        restore height for older snapshots) — until one of those runs,
        :meth:`covers` is ``False`` and historical horizons fall back to
        the batch rebuild.
        """
        view = cls.__new__(cls)
        view.metrics = metrics if metrics is not None else NULL_REGISTRY
        view.engine = engine
        view._use_kernels = use_kernels
        view._uf = IntUnionFind.from_state(state["uf"])
        view._cursor = view._uf.merge_cursor()
        view._balance = _fold_array(state["balance"])
        view._tx_count = _fold_array(state["tx_count"])
        view._first = _fold_array(state["first_seen"])
        view._last = _fold_array(state["last_seen"])
        view._min_member = _fold_array(state["min_member"])
        if engine.height != state["height"]:
            raise ValueError(
                f"aggregate state is at height {state['height']} but the "
                f"engine is at {engine.height}"
            )
        view._open = set(engine.open_labels())
        view._pending = []
        view._naming_dirty = set()
        view._naming_cursors = []
        view._default_naming_cursor = None
        view.naming_epoch = 0
        view._tt_enabled = time_travel
        view._tt_base = None
        view._tt_records = {}
        view._tt_spine = {}
        view._tt_memo = OrderedDict()
        view._rebuild_derived()
        view._adopt(index, state["height"], follow)
        return view

    def _rebuild_derived(self) -> None:
        """Reconstruct overlay groups and rank indexes from base state."""
        self._overlay_groups = []
        self._overlay_of = {}
        find = self._uf.find
        pairs = [
            (find(live.address_id), find(live.input_id))
            for live in self._open
            if live.input_id is not None
        ]
        self._build_overlay(pairs, set())
        self._ranks = {metric: RankIndex() for metric in TOP_CLUSTER_METRICS}
        entries: list[tuple[int, int, int, int]] = []
        grouped = self._overlay_of
        for root, size in self._uf.component_sizes().items():
            if root in grouped:
                continue
            entries.append(
                (self._min_member[root], size, self._balance[root],
                 self._tx_count[root])
            )
        for group in self._overlay_groups:
            entries.append(
                (group.cid, group.size, group.balance, group.tx_count)
            )
        self._refresh_ranks(set(), entries)
