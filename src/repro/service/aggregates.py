"""Per-cluster aggregates at every height: one state, one fold, one surface.

Every ranked or rolled-up forensics answer — ``top_clusters``,
``cluster_profile``, ``cluster_balance``, ``cluster_of`` — reads
whole-partition aggregates: per-cluster balance, activity, size, a
canonical id and a per-metric ranking.  :class:`ClusterAggregateView`
keeps them materialized as blocks stream in and serves them at any
``height <= tip`` through one call, :meth:`ClusterAggregateView.at`.

* **One state.**  :class:`_AggregateState` holds everything the
  aggregates are at one height: the *base* partition (H1 co-spend
  unions plus permanently settled H2 change links), four fold columns
  and the minimum member id per base root, the open-window H2 labels,
  and the state derived from those — the overlay groups the open links
  join and a :class:`RankIndex` per metric, built the first time that
  metric is read.  The view owns one state at the tip; a replayed
  height is another instance of the same class, with the same slots.
  Nothing per address lives here: an address's own balance and
  activity are the sibling views' at the tip and the index's rows
  (:meth:`AddressRecord.as_of <repro.chain.index.AddressRecord.as_of>`)
  below it.
* **One fold.**  :meth:`_AggregateState.advance` moves a state across a
  run of consecutive heights: grow the universe, apply the heights'
  open-label transitions, fold the run's base merges into the columns
  in one batch (each absorbed root's columns scattered at its post-span
  root, never a member scan), then scatter the run's per-address churn
  at the post-span roots.  The lazy flush runs it on the tip state over
  the queued blocks; a replay runs it on a clone of the nearest
  checkpoint, one run per spine segment.
* **One read surface.**  :class:`AggregateSurface` answers every read
  from a state, whichever height it is at.

H2 labels whose §4.2 wait window is still open are *overlaid*, not
folded: a later receive may void them, and min/max folds have no
inverse, so their change links join base clusters only in the derived
overlay and enter the base the block their window closes.

Derived state has two builders, chosen by whether the state is the
live tip.  The tip is patched per flush in O(what the run touched):
each overlay group keeps the open links that form it, only the groups
the run touched are re-linked, and rank entries move by churn.  A
replayed height is read only once reached, so replay advances the base
alone and :meth:`_AggregateState.settle` builds its overlay wholesale;
a past height's rankings are built only when its question reads one.

Folding is *lazily flushed*: ingest only queues the block's shared
:class:`~repro.chain.delta.BlockDelta`, and the first read at the new
tip folds every queued block in one run — interleaved traffic pays the
same as eager per-block maintenance, bulk ingest (catch-up, tail
replay) coalesces it.

Cluster identity is *canonical*: a cluster's public id is its minimum
member address id (ids are dense and first-sight ordered, so this is
the cluster's earliest-seen address).  Canonical ids are a pure
function of the partition — independent of union order, restore
history, or which height's state produced them — which is what lets
the property suites demand repr-equality against a batch re-clustering
(``tests/helpers.reference_answer``) and what makes ranking tie-breaks
stable (see :class:`~repro.service.queries.ClusterRanking`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..chain.delta import BlockDelta
from ..chain.index import ChainIndex
from ..core.arrays import IntVector
from ..core.incremental import IncrementalClusteringEngine
from ..core.union_find import IntUnionFind, link_components
from ..obs import COUNT_BUCKETS, NULL_REGISTRY
from .queries import ClusterRanking, TOP_CLUSTER_METRICS
from .views import ClusterActivity, MaterializedView

_UNSEEN = np.iinfo(np.int64).max
"""Stand-in for the ``-1`` never-seen sentinel while a minimum is taken."""


class AggregatesBehindError(RuntimeError):
    """A cluster question named a height the aggregate view has not
    folded — the view is detached, or a subscriber before it failed
    mid fan-out.  Cluster answers are exact or refused, never stale."""

    def __init__(self, height: int, view_height: int, chain_height: int) -> None:
        super().__init__(
            f"cluster aggregates are folded to height {view_height} but the "
            f"question is about height {height} (chain tip {chain_height}); "
            f"the aggregate view is detached or missed a block"
        )
        self.height = height
        self.view_height = view_height
        self.chain_height = chain_height


class RankIndex:
    """One metric's live ranking: a sorted key list maintained by churn.

    Keys are ``(-value, cluster id)`` so ascending list order is the
    serving order: best value first, ties broken by the smallest
    canonical cluster id.  Updates cost O(log n) to locate plus a
    C-level ``memmove``; reads are slices (:meth:`top`) or a bisect
    (:meth:`rank_of`) — no per-block re-sort anywhere.

    Every index is built on first read of its metric (see
    :class:`_Rankings`) by :meth:`from_columns`, which keeps just the
    two lexsorted numpy columns (``_neg``, ``_cid``): a replayed state
    serves only a ``top(n)`` slice or a single-id ``rank_of`` (one
    C-level equality scan) and never pays the list-of-tuples / dict
    materialization.  The tip's indexes are patched every flush, so
    their first mutation materializes the key list and value map;
    the distinction never leaks.
    """

    __slots__ = ("_keys", "_values", "_neg", "_cid")

    @classmethod
    def from_columns(cls, cluster_ids, values) -> "RankIndex":
        """Build from parallel id/value numpy columns (ids unique): one
        lexsort, stored as the array backing."""
        index = cls.__new__(cls)
        negs = np.negative(np.asarray(values, dtype="<i8"))
        cids = np.asarray(cluster_ids, dtype="<i8")
        order = np.lexsort((cids, negs))
        index._keys, index._values = [], {}
        index._neg, index._cid = negs[order], cids[order]
        return index

    def _materialize(self) -> None:
        """Switch an array-backed index to the mutable list backing."""
        if self._neg is None:
            return
        negs, cids = self._neg, self._cid
        self._keys = list(zip(negs.tolist(), cids.tolist()))
        self._values = dict(zip(cids.tolist(), np.negative(negs).tolist()))
        self._neg = None
        self._cid = None

    def __len__(self) -> int:
        if self._neg is not None:
            return len(self._neg)
        return len(self._keys)

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
        list memmoves, which is the regime the first flush after a bulk
        ingest lands in."""
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
                zip(self._cid[:n].tolist(), np.negative(self._neg[:n]).tolist())
            )
        return tuple((cid, -neg) for neg, cid in self._keys[:n])

    def rank_of(self, cluster_id: int) -> int | None:
        """1-based rank of one cluster, or ``None`` if not ranked."""
        if self._neg is not None:
            # Ids are unique: one vectorized scan finds the single slot.
            hits = np.flatnonzero(self._cid == cluster_id)
            return int(hits[0]) + 1 if len(hits) else None
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


class _Rankings(dict):
    """One state's ``metric -> RankIndex``, each built on first read.

    ``self[by]`` on a metric not built yet runs one
    :meth:`RankIndex.from_columns` lexsort over ``columns`` — per
    cluster at the state's last settle: canonical id, then one value
    column per metric in :data:`TOP_CLUSTER_METRICS` order (size,
    balance, tx count) — so a question that reads no ranking pays for
    none.  The tip's flush patch reads all three, keeping them current.
    An unknown metric raises ``ValueError``.  ``built`` lists the
    metrics built so far (a ``timetravel`` span holds that very list).
    """

    __slots__ = ("columns", "built", "metrics")

    def __init__(self, columns=(np.empty(0, dtype="<i8"),) * 4) -> None:
        super().__init__()
        self.columns = columns
        self.built: list[str] = []
        self.metrics = NULL_REGISTRY

    def __missing__(self, by: str) -> RankIndex:
        if by not in TOP_CLUSTER_METRICS:
            raise ValueError(
                f"ranking metric must be one of {TOP_CLUSTER_METRICS}"
            )
        cids, *values = self.columns
        column = values[TOP_CLUSTER_METRICS.index(by)]
        # ``balance`` and ``activity`` rank clusters with a positive
        # total; every size is positive, so ``size`` ranks them all.
        ranked = column > 0
        index = self[by] = RankIndex.from_columns(cids[ranked], column[ranked])
        self.built.append(by)
        if len(self) == len(TOP_CLUSTER_METRICS):
            self.columns = ()  # all built: nothing reads them again
        if self.metrics.enabled:
            self.metrics.counter("timetravel.rankings_built", by=by).inc()
        return index


class _OverlayGroup:
    """Base clusters joined only by still-voidable H2 change links."""

    __slots__ = (
        "cid", "roots", "size", "balance", "tx_count", "first_seen",
        "last_seen", "links",
    )

    def __init__(self, cid, roots, size, balance, tx_count, first_seen, last_seen):
        self.cid = cid  # canonical id: min over member minimums
        self.roots = roots  # the base roots the open links join, ascending
        self.size, self.balance, self.tx_count = size, balance, tx_count
        self.first_seen, self.last_seen = first_seen, last_seen
        # The open change links that form the group: kept on the tip,
        # which re-links a group from them; empty on a replayed state.
        self.links = []


@dataclass(frozen=True, slots=True)
class _HeightRecord:
    """One folded height's entry in the aggregate delta log.

    Everything :meth:`_AggregateState.advance` needs to cross the height
    without re-reading the chain.  Base merges are *not* stored here —
    ``mark`` is the tip union-find's log position after the height's
    unions, so the merge span is read off that (append-only) log.
    Columnar churn buffers are the block delta's arrays, retained by
    reference (the auditor's shadow fold holds them to the columns
    rebuilt from the index's rows).  Label transitions reference the engine's live label
    objects (identity-shared; folds read only the immutable
    ``address_id``/``input_id`` fields).
    """

    height: int
    max_id: int
    """Largest address id the block touched (ids are dense, so the
    universe after the block spans at least ``max_id + 1``)."""
    mark: int
    """Base merge-log position after this height's unions."""
    born_open: tuple
    """Labels born at this height whose §4.2 window is open (overlay
    entries until voided or settled)."""
    closed: tuple
    """Labels voided or settled at this height (they leave the open
    overlay set; a settle's permanent link is inside the merge span)."""
    event_ids: np.ndarray
    event_values: np.ndarray
    involved_flat: np.ndarray


class _Columns(NamedTuple):
    """Balance, incidence count and first/last-seen height per base
    root (junk at non-roots)."""

    balance: IntVector
    tx_count: IntVector
    first: IntVector
    last: IntVector

    def copy(self) -> "_Columns":
        return _Columns(*(column.copy() for column in self))

    def grow_to(self, n: int) -> None:
        self.balance.grow_to(n)
        self.tx_count.grow_to(n)
        self.first.grow_to(n, fill=-1)
        self.last.grow_to(n, fill=-1)

    def scatter(
        self,
        event_slots: np.ndarray,
        event_values: np.ndarray,
        involved_slots: np.ndarray,
        involved_heights: np.ndarray,
    ) -> None:
        """Fold a run of blocks' churn in one batch: balance events sum,
        each involvement counts once and widens its slot's seen range.

        ``np.minimum.at`` needs no height ordering; the ``-1`` sentinel
        is swapped for +inf at the touched slots first, and every
        touched slot receives at least one real height, so none
        survives."""
        if len(event_slots):
            np.add.at(self.balance.array, event_slots, event_values)
        np.add.at(self.tx_count.array, involved_slots, 1)
        first = self.first.array
        first[involved_slots[first[involved_slots] < 0]] = _UNSEEN
        np.minimum.at(first, involved_slots, involved_heights)
        np.maximum.at(self.last.array, involved_slots, involved_heights)


class _AggregateState:
    """The cluster aggregates at one height (see the module docstring).

    The tip, the delta log's base, spine checkpoints and replayed
    heights are all this one shape.  Checkpoints are never mutated:
    replay always advances a :meth:`clone`.
    """

    __slots__ = (
        "height", "mark", "uf", "roots", "min_member",
        "open", "groups", "group_of", "ranks", "derived_dirty",
    )

    def __init__(self) -> None:
        self.height = -1
        self.mark = 0
        """Base merge-log position this state has folded up to."""
        self.uf = IntUnionFind()
        """Base partition: H1 merges + settled change links."""
        self.roots = _Columns(IntVector(), IntVector(), IntVector(), IntVector())
        """Per base root: its members' summed balance and incidences
        and their seen range."""
        self.min_member = IntVector()
        """Per base root: minimum member id — the canonical cluster id."""
        self.open: set = set()
        """Open-window (still voidable) live labels."""
        self._reset_derived()
        self.derived_dirty = False  # an empty state is trivially settled

    def _reset_derived(self) -> None:
        self.groups: list[_OverlayGroup] = []
        self.group_of: dict[int, _OverlayGroup] = {}
        """base root -> the overlay group currently absorbing it."""
        self.ranks = _Rankings()
        self.derived_dirty = True
        """True while ``groups``/``group_of``/``ranks`` lag the base."""

    def clone(self) -> "_AggregateState":
        """An independent copy of the *base* state — array memcpys plus
        container copies, never a per-id Python loop.  The derived
        structures are not copied: every clone exists to be advanced,
        which invalidates them anyway."""
        clone = _AggregateState.__new__(_AggregateState)
        clone.height = self.height
        clone.mark = self.mark
        clone.uf = self.uf.copy()
        clone.roots = self.roots.copy()
        clone.min_member = self.min_member.copy()
        clone.open = set(self.open)
        clone._reset_derived()
        return clone

    # -- durable shape -------------------------------------------------

    def export_arrays(self) -> dict:
        """The base partition and columns as plain data (raw int64
        bytes per array); key order is part of the snapshot format."""
        return {
            "uf": self.uf.export_state(),
            "balance": self.roots.balance.tobytes(),
            "tx_count": self.roots.tx_count.tobytes(),
            "first_seen": self.roots.first.tobytes(),
            "last_seen": self.roots.last.tobytes(),
            "min_member": self.min_member.tobytes(),
        }

    @classmethod
    def from_arrays(cls, data: dict, open_labels) -> "_AggregateState":
        """Rebuild a state from :meth:`export_arrays` output plus its
        ``height`` (and ``mark``, when it is not the end of the log);
        derived state is left to :meth:`settle`.  Keys it does not name
        are ignored (a ``timetravel`` base written before this shape
        carried four per-address ``a_*`` arrays)."""
        state = cls.__new__(cls)
        state.height = data["height"]
        state.uf = IntUnionFind.from_state(data["uf"])
        state.mark = data.get("mark", state.uf.checkpoint())
        state.roots = _Columns(
            *(
                IntVector.from_bytes(data[key])
                for key in ("balance", "tx_count", "first_seen", "last_seen")
            )
        )
        state.min_member = IntVector.from_bytes(data["min_member"])
        state.open = set(open_labels)
        state._reset_derived()
        return state

    # -- the fold ------------------------------------------------------

    def advance(self, records: list[_HeightRecord], span) -> tuple[set[int], np.ndarray]:
        """Move this state across ``records`` — a run of consecutive
        heights starting at ``height + 1`` — whose base merges are
        ``span``: the tip union-find's log entries ``(mark,
        records[-1].mark]``, which the caller has already applied to
        (tip) or replayed onto (clone) ``uf``, after growing it to the
        run's universe.

        Returns what the tip's incremental derived-state patch needs:
        the canonical ids the span's merges may have retired, and the
        post-span base root of every involvement in the run.

        Churn is scattered after the whole span is folded, not block by
        block: balance and incidence are sums, first/last are min/max,
        and all four commute with the merge folds, so every
        contribution lands identically at its final root.
        """
        # 1. Universe growth: new ids start as singleton clusters.
        n = len(self.uf)
        grown_from = len(self.min_member)
        if n > grown_from:
            self.roots.grow_to(n)
            self.min_member.grow_to(n)
            self.min_member.array[grown_from:] = np.arange(
                grown_from, n, dtype="<i8"
            )

        # 2. Open-label transitions, in height order.
        open_set = self.open
        for record in records:
            open_set.update(record.born_open)
            open_set.difference_update(record.closed)

        # One find over every id the fold places: the span's absorbed
        # roots, the run's involvements and its balance events.
        ends = np.array(span, dtype="<i8").reshape(-1, 2)
        involved = np.concatenate([record.involved_flat for record in records])
        event_ids = np.concatenate([record.event_ids for record in records])
        into, involved_roots, event_roots = np.split(
            self.uf.find_many(np.concatenate((ends[:, 0], involved, event_ids))),
            [len(ends), len(ends) + len(involved)],
        )

        # 3. Merge folds, one batch: each absorbed root was a root before
        #    the span and is absorbed once, so its pre-span columns land
        #    whole at its post-span root (sums add, min/max commute).
        #    Every endpoint was a root when its entry applied, so the ids
        #    the span may retire are the endpoints' pre-span minimums.
        min_member = self.min_member.array
        stale_cids = set(min_member[ends.ravel()].tolist())
        if len(into):
            absorbed = ends[:, 0]
            balance, tx_count, first, last = (c.array for c in self.roots)
            np.add.at(balance, into, balance[absorbed])
            np.add.at(tx_count, into, tx_count[absorbed])
            np.maximum.at(last, into, last[absorbed])
            np.minimum.at(min_member, into, min_member[absorbed])
            firsts = first[absorbed]
            seen = firsts >= 0
            into, firsts = into[seen], firsts[seen]
            first[into[first[into] < 0]] = _UNSEEN
            np.minimum.at(first, into, firsts)

        # 4. The run's per-address churn, one batched scatter into the
        #    root columns at post-span roots.
        if len(involved_roots):
            heights = np.repeat(
                np.array([record.height for record in records], dtype="<i8"),
                [len(record.involved_flat) for record in records],
            )
            event_values = np.concatenate([r.event_values for r in records])
            self.roots.scatter(
                event_roots, event_values, involved_roots, heights
            )

        self.mark = records[-1].mark
        self.height = records[-1].height
        self.derived_dirty = True
        return stale_cids, involved_roots

    # -- derived state, wholesale --------------------------------------

    def link_roots(self, labels) -> tuple[list, np.ndarray, np.ndarray]:
        """The change links among ``labels`` (those with an input
        partner) and the base roots of both endpoints of each — one
        ``find_many``, in :func:`link_components` argument order."""
        links = [live for live in labels if live.input_id is not None]
        ends = np.array(
            [(live.address_id, live.input_id) for live in links], dtype="<i8"
        )
        roots = self.uf.find_many(ends.ravel()).reshape(-1, 2)
        return links, roots[:, 0], roots[:, 1]

    @staticmethod
    def attach_links(group_of, links, owners, partners) -> None:
        """Hand each link to the group its endpoint roots belong to (a
        link inside one base cluster joins nothing, now or later)."""
        for live, owner, partner in zip(
            links, owners.tolist(), partners.tolist()
        ):
            if owner != partner:
                group_of[owner].links.append(live)

    def overlay_groups(self, members, starts) -> tuple[list, tuple]:
        """One :class:`_OverlayGroup` per component in the
        :func:`link_components` layout (ascending base roots ``members``,
        group offsets ``starts``), plus the groups' canonical id, size,
        balance and tx count columns: every per-group quantity is a
        ``reduceat`` over one gather of the members' root columns."""
        if not len(starts):
            return [], (np.empty(0, dtype="<i8"),) * 4
        firsts = self.roots.first.array[members]
        firsts[firsts < 0] = _UNSEEN
        firsts = np.minimum.reduceat(firsts, starts)
        firsts[firsts == _UNSEEN] = -1
        columns = (
            np.minimum.reduceat(self.min_member.array[members], starts),
            np.add.reduceat(self.uf.root_sizes.array[members], starts),
            np.add.reduceat(self.roots.balance.array[members], starts),
            np.add.reduceat(self.roots.tx_count.array[members], starts),
            firsts,
            np.maximum.reduceat(self.roots.last.array[members], starts),
        )
        flat = members.tolist()
        bounds = [*starts.tolist(), len(flat)]
        return [
            _OverlayGroup(
                cid, tuple(flat[lo:hi]), size, balance, tx_count, first, last
            )
            for lo, hi, (cid, size, balance, tx_count, first, last) in zip(
                bounds,
                bounds[1:],
                zip(*(column.tolist() for column in columns)),
            )
        ], columns[:4]

    def settle(self) -> None:
        """(Re)build the overlay groups wholesale from the base and
        gather every cluster's canonical id, size, balance and tx count
        into one set of columns — a vectorized pass, no sort.  Rankings
        are built from those columns on first read (:class:`_Rankings`).
        Idempotent; a clean state returns immediately."""
        if not self.derived_dirty:
            return
        uf = self.uf
        members, starts = link_components(*self.link_roots(self.open)[1:])
        self.groups, grouped = self.overlay_groups(members, starts)
        self.group_of = {
            root: group for group in self.groups for root in group.roots
        }
        roots = uf.root_ids()
        if len(members):
            ungrouped = np.ones(len(uf), dtype=bool)
            ungrouped[members] = False
            roots = roots[ungrouped[roots]]
        base = (
            self.min_member.array, uf.root_sizes.array,
            self.roots.balance.array, self.roots.tx_count.array,
        )
        self.ranks = _Rankings(
            tuple(
                np.concatenate((column[roots], extra))
                for column, extra in zip(base, grouped)
            )
        )
        self.derived_dirty = False


class AggregateSurface:
    """Read-only cluster-aggregate answers from one
    :class:`_AggregateState` — the surface
    :meth:`ClusterAggregateView.at` returns for every height.

    A surface over the tip reads live state: take a fresh one per
    question rather than holding it across ``add_block``.
    """

    __slots__ = ("_state",)

    def __init__(self, state: _AggregateState) -> None:
        self._state = state

    @property
    def height(self) -> int:
        return self._state.height

    def cluster_id_of(self, ident: int | None) -> int | None:
        """Canonical cluster id for an address id, or ``None`` if the id
        is outside the universe at this height."""
        state = self._state
        if ident is None or not 0 <= ident < len(state.uf):
            return None
        root = state.uf.find(ident)
        group = state.group_of.get(root)
        return group.cid if group is not None else state.min_member[root]

    def cluster_placements_of(self, idents) -> list[tuple[int, int] | None]:
        """``(base root, canonical id)`` per input id (``None`` for ids
        outside the universe).  The cluster-name maps resolve tagged
        addresses in bulk through this, and the tip's incremental one
        keeps the returned root to know when a resolution goes stale
        (see :meth:`ClusterAggregateView.drain_naming_dirty`)."""
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
        """Resolve a canonical id to its base root / overlay group."""
        state = self._state
        if not 0 <= cluster_id < len(state.uf):
            raise KeyError(cluster_id)
        root = state.uf.find(cluster_id)
        return root, state.group_of.get(root)

    def size_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        if group is not None:
            return group.size
        return self._state.uf.root_sizes[root]

    def balance_of_cluster(self, cluster_id: int) -> int:
        root, group = self._locate(cluster_id)
        if group is not None:
            return group.balance
        return self._state.roots.balance[root]

    def activity_of_cluster(self, cluster_id: int) -> ClusterActivity | None:
        """Aggregate activity, or ``None`` for a never-active cluster."""
        root, group = self._locate(cluster_id)
        if group is not None:
            tx_count, first, last = (
                group.tx_count, group.first_seen, group.last_seen
            )
        else:
            columns = self._state.roots
            tx_count, first, last = (
                columns.tx_count[root], columns.first[root], columns.last[root]
            )
        if not tx_count:
            return None
        return ClusterActivity(
            tx_count=tx_count, first_seen=first, last_seen=last
        )

    def top(self, n: int, by: str) -> tuple[tuple[int, int], ...]:
        """The best ``n`` clusters by one metric: ``(id, value)`` pairs."""
        return self._state.ranks[by].top(n)

    def rank_of(self, by: str, cluster_id: int) -> int | None:
        """1-based standing of one cluster under one metric."""
        return self._state.ranks[by].rank_of(cluster_id)

    def ranking(self, by: str) -> ClusterRanking:
        """Materialize one metric's full ranking object."""
        return self._state.ranks[by].as_ranking()

    @property
    def cluster_count(self) -> int:
        """Clusters at this height, without building a ranking: base
        components, less the roots groups absorb, plus one per group."""
        state = self._state
        return state.uf.component_count - len(state.group_of) + len(state.groups)


class DirtyRootCursor:
    """One consumer's registration for dirty-root naming churn.

    Each consumer holds its own cursor, and
    :meth:`ClusterAggregateView.drain_naming_dirty` returns (and
    clears) only *that cursor's* accumulated set — so the
    query engine's incremental cluster-name map and the invariant
    auditor can both follow naming churn without starving each other.
    Pending roots are distributed into every registered cursor at drain
    time, so an idle consumer's backlog is a deduplicated set of base
    roots (bounded by the universe), never an unbounded log.
    """

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty: set[int] = set()


class ClusterAggregateView(MaterializedView):
    """The streaming owner of the cluster aggregates (module docstring).

    Attach *after* the service's
    :class:`~repro.core.incremental.IncrementalClusteringEngine` (the
    service constructor and snapshot-restore path both do): a flush
    pulls the engine's
    :meth:`~repro.core.incremental.IncrementalClusteringEngine.cluster_delta`
    for every queued height, so the engine must already have clustered
    them.  Deferring the fold is safe because everything it reads is
    stable history: the engine's per-height merge spans and label churn
    never change once a height is clustered, and the open-label fields
    the overlay reads (``address_id``/``input_id``) are immutable.

    The base partition only moves forward — base folds are
    irreversible, which is exactly why voidable links never enter it —
    and no method of the union-find could move it back, so a flush
    reads the run's merges as one log span past the tip state's mark.

    Alongside the tip state the view keeps the per-height delta log
    (:class:`_HeightRecord`), the log's base state, a sparse spine of
    checkpoints at :attr:`_SPINE_INTERVAL` multiples (materialized the
    first time a replay crosses them) and a small exact-height memo, so
    a warm view reaches any height in at most one interval of records.
    A replayed height builds a metric's ranking only when a question
    first reads it; the tip's are built on a flush and patched by each.
    """

    OBSERVER_NAME = "aggregates"

    _SPINE_INTERVAL = 16
    """Checkpoint spacing: trades checkpoint memory for replay depth."""

    _MEMO_SIZE = 4
    """Exact-height LRU depth (mirrors the engine's as-of memo)."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        engine: IncrementalClusteringEngine,
        metrics=None,
    ) -> None:
        self.engine = engine
        self._install(_AggregateState(), _AggregateState(), {})
        super().__init__(index, metrics=metrics)

    def _install(
        self,
        tip: _AggregateState,
        base: _AggregateState,
        records: dict[int, _HeightRecord],
    ) -> None:
        self._tip = tip
        self._pending: list[tuple] = []
        """Blocks observed but not yet folded (drained by :meth:`_flush`
        on the first read or export at the new tip): per block the five
        delta fields the flush reads — ``(height, max_id, event_ids,
        event_values, involved_flat)`` — never the delta, which would
        keep the block's transactions alive until the first read."""
        self._naming_dirty: set[int] = set()
        """Base roots whose *canonical id mapping* may have changed
        since the last :meth:`drain_naming_dirty` — merge endpoints and
        structurally changed overlay groups, never plain churn (balance
        or activity updates cannot move a cluster's id).  This is the
        *pending* set: drains distribute it into every registered
        :class:`DirtyRootCursor` before returning the caller's own."""
        self._naming_cursors: list[DirtyRootCursor] = []
        self.naming_epoch = 0
        """Bumped once per drain that observed structural dirty roots:
        name-bearing query answers depend on the canonical-id mapping as
        well as the height, so caches key on ``(height, naming_epoch)``
        for those kinds (see :meth:`QueryEngine._cache_key
        <repro.service.queries.QueryEngine._cache_key>`)."""
        self._records = records
        """The per-height aggregate delta log, keyed by height."""
        self._base = base
        """The state the delta log starts from (genesis for a view that
        has followed the chain from the start)."""
        self._spine: dict[int, _AggregateState] = {}
        self._memo: OrderedDict[int, _AggregateState] = OrderedDict()
        """Exact-height LRU of recently replayed states."""

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
        self._pending.append(
            (
                delta.height, delta.max_id, delta.event_ids,
                delta.event_values, delta.involved_flat,
            )
        )

    @property
    def pending_blocks(self) -> int:
        """Blocks queued but not yet folded (the flush-queue depth the
        health model reports)."""
        return len(self._pending)

    def _flush(self) -> None:
        """Fold every queued block into the tip state as one run, then
        patch the tip's overlay and rankings once over the union of
        what the run touched — the coalescing that makes bulk ingest
        cheap."""
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
                    len(event_ids) + len(involved_flat)
                    for _h, _max_id, event_ids, _values, involved_flat in pending
                )
            )
        # Apply each block's unions to the base — H1 merges replayed off
        # the engine's log plus change links that settled this block —
        # and log the height.  The mark is taken after the unions, so
        # ``(previous mark, mark]`` on the append-only base log is
        # exactly the block's effective merges.
        uf = self._tip.uf
        records = []
        for height, max_id, event_ids, event_values, involved_flat in pending:
            churn = self.engine.cluster_delta(height)
            uf.ensure(max_id + 1)
            pairs = [*churn.merges] + [
                (live.address_id, live.input_id)
                for live in churn.settled
                if live.input_id is not None
            ]
            if pairs:
                uf.union_many(*zip(*pairs))
            record = self._records[height] = _HeightRecord(
                height=height,
                max_id=max_id,
                mark=uf.checkpoint(),
                born_open=tuple(
                    live for live in churn.born if live.deadline is not None
                ),
                closed=churn.voided + churn.settled,
                event_ids=event_ids,
                event_values=event_values,
                involved_flat=involved_flat,
            )
            records.append(record)
        span = uf.log_span(self._tip.mark, uf.checkpoint())
        stale_cids, involved_roots = self._tip.advance(records, span)
        self._patch_tip(
            span, stale_cids, involved_roots,
            [live for record in records for live in record.born_open],
            [live for record in records for live in record.closed],
        )
        if timed:
            seconds = perf_counter() - flush_start
            metrics.histogram("aggregates.flush_seconds").observe(seconds)
            metrics.flight.record(
                "flush", height=self._height, blocks=len(pending),
                seconds=seconds,
            )
        log = self.index.log
        if log.enabled:
            log.debug(
                "aggregate_flush", height=self._height, blocks=len(pending)
            )

    def _patch_tip(
        self, span, stale_cids: set[int], involved_roots, born, closed
    ) -> None:
        """The tip's incremental derived-state builder (the wholesale
        twin replayed heights use is :meth:`_AggregateState.settle`).

        Only the overlay groups the run touched are re-linked — those
        holding a span-merge endpoint, a churned root, or the post-span
        root of an endpoint of a link ``born`` or ``closed`` in the run
        — from their still-open links plus the born ones, so a flush
        costs O(components touched), not O(open links).  Every other
        group keeps its object, ``group_of`` entries and rank entries.
        A root *newly* absorbed by a group loses its standalone entry.
        """
        tip = self._tip
        uf = tip.uf
        min_member = tip.min_member
        group_of = tip.group_of
        naming_dirty = self._naming_dirty

        # Every cluster the run changed, as post-span base roots.  A
        # merge's ``kept`` may itself have been absorbed later.
        merged = np.fromiter(chain.from_iterable(span), "<i8", 2 * len(span))
        touched_roots = set(
            uf.find_many(np.concatenate((involved_roots, merged))).tolist()
        )
        naming_dirty.update(merged.tolist())

        # The touched groups.  An untouched group holds no merge
        # endpoint, so its roots are still roots and a post-span root
        # finds it directly; an endpoint finds its pre-span group.
        _ended, owners, partners = tip.link_roots(chain(born, closed))
        dirty = touched_roots.union(
            merged.tolist(), owners.tolist(), partners.tolist()
        )
        hit = {id(g): g for g in map(group_of.get, dirty) if g is not None}
        relink = [live for group in hit.values() for live in group.links]
        links, owners, partners = tip.link_roots(
            live for live in chain(relink, born) if live in tip.open
        )
        members, starts = link_components(owners, partners)
        fresh, _columns = tip.overlay_groups(members, starts)
        fresh_of = {root: group for group in fresh for root in group.roots}
        tip.attach_links(fresh_of, links, owners, partners)
        if self.metrics.enabled:
            counter = self.metrics.counter
            counter("aggregates.overlay_links_relinked").inc(len(links))
            counter("aggregates.overlay_reuse_hits").inc(
                len(tip.groups) - len(hit)
            )

        for root in fresh_of:
            if root not in group_of:
                stale_cids.add(min_member[root])
                touched_roots.add(root)
        for group in fresh:
            prev = group_of.get(group.roots[0])
            if prev is None or prev.cid != group.cid or prev.roots != group.roots:
                # Structural change: member roots' canonical-id mapping
                # shifted (an aggregates-only rebuild keeps every id).
                naming_dirty.update(group.roots)
                if prev is not None:
                    naming_dirty.update(prev.roots)
        # Touched groups dissolve: their ids may vanish and their member
        # roots may stand alone again (re-resolving to their own
        # canonical ids).
        for group in hit.values():
            stale_cids.add(group.cid)
            for root in group.roots:
                del group_of[root]
                touched_roots.add(uf.find(root))
                if root not in fresh_of:
                    naming_dirty.add(root)
        group_of.update(fresh_of)
        tip.groups = [g for g in tip.groups if id(g) not in hit] + fresh

        # Rank churn, once per touched cluster: stale ids out, live
        # entries in.  Plain churn never changes a cluster's id — those
        # entries are overwritten in place — so the stale set stays
        # O(merges + links + changed groups).
        standalone = [root for root in touched_roots if root not in group_of]
        roots = np.fromiter(standalone, "<i8", len(standalone))
        entries = list(
            zip(
                min_member.array[roots].tolist(),
                uf.root_sizes.array[roots].tolist(),
                tip.roots.balance.array[roots].tolist(),
                tip.roots.tx_count.array[roots].tolist(),
            )
        )
        entries += [
            (group.cid, group.size, group.balance, group.tx_count)
            for group in fresh
        ]
        gone = stale_cids.difference(entry[0] for entry in entries)
        # RankIndex.apply picks the path: a per-block flush walks the
        # incremental insorts, the first flush after a bulk ingest
        # rewrites the value map and re-sorts once.  An unbuilt metric is
        # built first (:meth:`_Rankings.__missing__`, inclusion as there).
        ranks = tip.ranks
        ranks["size"].apply(
            gone, [(cid, size) for cid, size, _balance, _txs in entries]
        )
        for name, column in (("balance", 2), ("activity", 3)):
            ranks[name].apply(
                gone.union(e[0] for e in entries if e[column] <= 0),
                [(e[0], e[column]) for e in entries if e[column] > 0],
            )
        tip.derived_dirty = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def at(self, height: int | None = None) -> AggregateSurface:
        """The aggregate surface at ``height`` (default: the chain tip).

        The chain tip is served from the tip state; anything below it
        replays the delta log forward from the nearest materialized
        state.  A height above what the view has folded (detached view,
        or a failed subscriber before it) raises
        :class:`AggregatesBehindError` — cluster answers are exact or
        refused.
        """
        self._flush()
        tip = self.index.height
        if height is None:
            height = tip
        if height > self._height:
            raise AggregatesBehindError(height, self._height, tip)
        if height == tip:
            return AggregateSurface(self._tip)
        return AggregateSurface(self._replayed(height))

    horizon = at
    """The name ``benchmarks/e2e`` calls :meth:`at` by."""

    @property
    def cluster_count(self) -> int:
        """Clusters at the tip."""
        return self.at().cluster_count

    def _replayed(self, height: int) -> _AggregateState:
        """A settled state at ``height``, replayed from the nearest
        materialized one — the base, a spine checkpoint, or a memoized
        exact height — one :meth:`_AggregateState.advance` run per
        spine segment crossed."""
        base = self._base
        if not base.height <= height <= self._height:
            raise ValueError(
                f"height {height} outside the aggregate delta log "
                f"({base.height}..{self._height})"
            )
        metrics = self.metrics
        timed = metrics.enabled
        memo = self._memo
        state = memo.get(height)
        if state is not None:
            memo.move_to_end(height)
            if timed:
                metrics.counter("timetravel.memo_hits").inc()
            return state
        if timed:
            start = perf_counter()
        best = base
        for materialized in (self._spine, memo):
            for at_height, candidate in materialized.items():
                if best.height < at_height <= height:
                    best = candidate
        depth = height - best.height
        if timed and best is not base:
            metrics.counter("timetravel.checkpoint_hits").inc()
        state = best
        if depth:
            state = best.clone()
            spine = self._spine
            records = self._records
            interval = self._SPINE_INTERVAL
            log = self._tip.uf
            while state.height < height:
                stop = min(height, (state.height // interval + 1) * interval)
                run = [records[h] for h in range(state.height + 1, stop + 1)]
                span = log.log_span(state.mark, run[-1].mark)
                state.uf.ensure(max(record.max_id for record in run) + 1)
                state.uf.replay(span)
                state.advance(run, span)
                if stop < height and stop % interval == 0 and stop not in spine:
                    spine[stop] = state.clone()
                    if timed:
                        metrics.counter(
                            "timetravel.checkpoints_materialized"
                        ).inc()
            memo[height] = state
            while len(memo) > self._MEMO_SIZE:
                memo.popitem(last=False)
        # Only a height that is served pays for derived state; spine
        # checkpoints stay unsettled until served themselves.
        state.settle()
        if timed:
            state.ranks.metrics = metrics
            seconds = perf_counter() - start
            metrics.histogram(
                "timetravel.replay_heights", buckets=COUNT_BUCKETS
            ).observe(depth)
            metrics.histogram("timetravel.replay_seconds").observe(seconds)
            metrics.flight.record(
                "timetravel", height=height, tip=self._height, depth=depth,
                seconds=seconds, ranked=state.ranks.built,
            )
        return state

    # ------------------------------------------------------------------
    # naming churn
    # ------------------------------------------------------------------

    def naming_cursor(self) -> DirtyRootCursor:
        """Register a dirty-root consumer (see :class:`DirtyRootCursor`).

        The cursor sees only roots marked dirty *after* registration —
        a new consumer does a full build first (ids resolved through
        :meth:`AggregateSurface.cluster_placements_of` carry their base
        root for exactly this), then follows churn through
        :meth:`drain_naming_dirty`.  Cursors are not durable state: a
        restored view starts with none registered, and consumers
        re-register against the view they actually follow.
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

    def drain_naming_dirty(self, cursor: DirtyRootCursor) -> set[int]:
        """Return (and clear) the base roots whose canonical-id mapping
        may have changed since ``cursor`` last drained.

        Every registered cursor observes every dirty root exactly once:
        the pending set is distributed into each cursor's own set here,
        then the caller's set is handed over and replaced.  An id
        resolved through :meth:`AggregateSurface.cluster_placements_of`
        at the tip stays valid until a drain reports its root — merge
        endpoints and structural overlay changes are reported, plain
        churn (which cannot move a cluster's id) is not.
        """
        self._flush()
        pending = self._naming_dirty
        if pending:
            self.naming_epoch += 1
            for registered in self._naming_cursors:
                registered.dirty |= pending
            self._naming_dirty = set()
        dirty = cursor.dirty
        if dirty:
            cursor.dirty = set()
        return dirty

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """The tip's base partition and root columns (the ``aggregates``
        snapshot segment).

        The overlay, open-label set, and rank indexes are *derived*
        (from the engine's open labels and the base) and are rebuilt on
        restore — exporting them would only create a second source of
        truth to keep consistent.  Queued blocks are flushed first, so
        an export always reflects the view's full height.
        """
        self._flush()
        return {
            "version": 2,
            "height": self._height,
            **self._tip.export_arrays(),
        }

    def export_time_travel(self) -> dict:
        """The delta log and its base state as plain data (the
        ``timetravel`` snapshot segment).

        Label references serialize as indices into the engine's
        birth-ordered label list (the same convention the engine's own
        export uses), so a restore re-binds them to the restored
        engine's live label objects.  The spine and memo are replay
        caches, rebuilt on demand — never exported.
        """
        self._flush()
        label_index = {
            id(live): position
            for position, live in enumerate(self.engine._labels)
        }
        base = self._base
        return {
            "version": 1,
            "height": self._height,
            "base": {
                "height": base.height,
                "mark": base.mark,
                **base.export_arrays(),
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
                    self._records.values(), key=lambda r: r.height
                )
            ],
        }

    @classmethod
    def from_state(
        cls,
        index: ChainIndex,
        state: dict,
        delta_log: dict,
        *,
        engine: IncrementalClusteringEngine,
        metrics=None,
    ) -> "ClusterAggregateView":
        """Rebuild a view from :meth:`export_state` and
        :meth:`export_time_travel` output, no catch-up.

        ``engine`` must be the restored engine at the same height: the
        tip's open-label set is its live label state (so restored
        rankings are identical to the exporting view's), and the delta
        log's label references are indices into its birth-ordered label
        list.
        """
        if engine.height != state["height"]:
            raise ValueError(
                f"aggregate state is at height {state['height']} but the "
                f"engine is at {engine.height}"
            )
        view = cls.__new__(cls)
        view._height = state["height"]
        view.engine = engine
        labels = engine._labels
        tip = _AggregateState.from_arrays(state, engine.open_labels())
        tip.settle()
        tip.attach_links(tip.group_of, *tip.link_roots(tip.open))
        base_state = delta_log["base"]
        base = _AggregateState.from_arrays(
            base_state, (labels[position] for position in base_state["open"])
        )
        records = {
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
            event_ids, event_values, involved_flat in delta_log["records"]
        }
        view._install(tip, base, records)
        MaterializedView.__init__(view, index, metrics=metrics)
        return view
