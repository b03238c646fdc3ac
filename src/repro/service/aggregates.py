"""Per-cluster aggregates at every height: one state, one log, one surface.

Every ranked or rolled-up forensics answer — ``top_clusters``,
``cluster_profile``, ``cluster_balance``, ``cluster_of`` — reads
whole-partition aggregates: per-cluster balance, activity, size, a
canonical id and a per-metric ranking.  :class:`ClusterAggregateView`
keeps them materialized as blocks stream in and serves them at any
``height <= tip`` through one call, :meth:`ClusterAggregateView.at`.

* **One state.**  :class:`_AggregateState` holds everything the
  aggregates are at one height: the *base* partition (H1 co-spend
  unions plus permanently settled H2 change links), two fold columns
  (balance and tx count) and the minimum member id per base root, the
  open-window H2 labels, and the state derived from those — the overlay
  groups the open links join and a :class:`RankIndex` per metric, built
  the first time that metric is read.  The tip and every past height
  are this one class.  Nothing per address lives here: an address's
  own balance and activity are the sibling views' at the tip and the
  index's rows
  (:meth:`AddressRecord.as_of <repro.chain.index.AddressRecord.as_of>`)
  below it.
* **One log.**  :class:`_DeltaLog` holds what every height changed, in
  contiguous columns.  The lazy flush appends to it and moves the tip
  across the queued heights with :meth:`_AggregateState.advance` (the
  run's merges folded into the columns in one batch, then its churn
  scattered at the post-span roots).  A past height is a few
  whole-array passes over the tip's partition as of the height and the
  log (:meth:`_DeltaLog.state_at`): nothing is cloned or replayed, and
  an exact-height memo of four states is the only cache.  A restore
  runs the same passes over the restored tip's partition, so a
  snapshot stores the base forest and the log, nothing derived.
* **One read surface.**  :class:`AggregateSurface` answers every read
  from a state, whichever height it is at, including the bulk id
  lookup (:meth:`AggregateSurface.cluster_ids_of`) the query service
  names a height's clusters from.  The view keeps no naming state: a
  height's names are a function of its partition and the tags.

H2 labels whose §4.2 wait window is still open are *overlaid*, not
folded: a later receive may void them, and the minimum-member fold
has no inverse, so their change links join base clusters only in the
derived overlay and enter the base the block their window closes.

Derived state has two builders, chosen per flush by how much of the
tip the run touched.  After a short run (a followed block) the tip is
patched in O(what the run touched): each overlay group keeps the open
links that form it, only the groups the run touched are re-linked, and
rank entries move by churn.  After a long run (the first read after a
bulk ingest), a restore, and at every past height, the state is
settled wholesale (:meth:`_AggregateState.settle`), and its rankings
are built only when a question reads one.

Folding is *lazily flushed*: ingest only queues the block's delta
columns, and the first read at the new tip folds every queued block in
one run — interleaved traffic pays the same as eager per-block
maintenance, bulk ingest (catch-up, tail replay) coalesces it.

Cluster identity is *canonical*: a cluster's public id is its minimum
member address id (ids are dense and first-sight ordered, so this is
the cluster's earliest-seen address).  Canonical ids are a pure
function of the partition — independent of union order, restore
history, or which height's state produced them — which is what lets
the property suites demand repr-equality against a batch re-clustering
(``tests/helpers.reference_answer``) and what makes ranking tie-breaks
stable (see :class:`RankIndex`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
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
from .queries import TOP_CLUSTER_METRICS
from .views import MaterializedView

_UNSEEN = np.iinfo(np.int64).max
"""A born label's ``closed_at`` while its window is still open."""


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
    """One metric's ranking: best value first, ties broken by the
    smallest canonical cluster id.  Only a positive value is ranked, so
    ``size`` ranks every cluster and ``balance`` / ``activity`` the
    clusters with a positive total.

    **Tie-break contract:** a canonical id is the cluster's minimum
    member address id, i.e. its earliest-seen address, and a pure
    function of the partition, so the order is identical across batch
    rebuilds, snapshot restores and differential maintenance (pinned by
    ``tests/service/test_ranking_determinism.py``).

    Two backings, one behaviour.  :meth:`from_columns` keeps the id and
    value columns it is handed, unsorted and uncopied: ``top(n)`` is one
    ``np.partition`` plus a sort of the candidates at or above the n-th
    value (ties included), ``rank_of`` one vectorized count.  A short
    flush patches the tip's indexes: their first mutation sorts once into
    a ``(-value, cluster id)`` key list plus a value map, and an update
    then costs a bisect plus a C-level ``memmove``.  A long run settles
    the tip, which starts its indexes over from columns.
    """

    __slots__ = ("_keys", "_values", "_cid", "_value")

    @classmethod
    def from_columns(cls, cluster_ids, values) -> "RankIndex":
        """An array-backed index over parallel id/value columns (ids
        unique), kept as they are."""
        index = cls.__new__(cls)
        index._keys, index._values = [], {}
        index._cid = np.asarray(cluster_ids, dtype="<i8")
        index._value = np.asarray(values, dtype="<i8")
        return index

    def _sorted(self, pick=None) -> tuple[np.ndarray, np.ndarray]:
        """The ranked entries among the ``pick`` positions (default: all
        of them) in serving order, as ``(ids, values)`` columns."""
        if pick is None:
            pick = np.flatnonzero(self._value > 0)
        cids, values = self._cid[pick], self._value[pick]
        order = np.lexsort((cids, np.negative(values)))
        return cids[order], values[order]

    def _materialize(self) -> None:
        """Switch an array-backed index to the mutable list backing."""
        if self._cid is None:
            return
        cids, values = self._sorted()
        self._keys = list(zip(np.negative(values).tolist(), cids.tolist()))
        self._values = dict(zip(cids.tolist(), values.tolist()))
        self._cid = None
        self._value = None

    def __len__(self) -> int:
        if self._cid is not None:
            return int(np.count_nonzero(self._value > 0))
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
        """Churn: drop ``discards`` ids, then upsert ``updates``
        ``(cluster id, value)`` pairs, one :meth:`discard` / :meth:`set`
        each.  A run that touched a large share of the clusters never
        gets here: the flush settles the tip wholesale instead
        (:meth:`ClusterAggregateView._flush`)."""
        for cluster_id in discards:
            self.discard(cluster_id)
        for cluster_id, value in updates:
            self.set(cluster_id, value)

    def top(self, n: int) -> tuple[tuple[int, int], ...]:
        """The best ``n`` entries as ``(cluster id, value)`` pairs."""
        if self._cid is None:
            return tuple((cid, -neg) for neg, cid in self._keys[:n])
        values = self._value
        pick = None
        if 0 < n < len(self):
            # The n-th best value is positive; every entry at or above
            # it is a candidate, ties included.
            nth = np.partition(values, len(values) - n)[len(values) - n]
            pick = np.flatnonzero(values >= nth)
        cids, values = self._sorted(pick)
        return tuple(zip(cids[:n].tolist(), values[:n].tolist()))

    def rank_of(self, cluster_id: int) -> int | None:
        """1-based rank of one cluster, or ``None`` if not ranked."""
        if self._cid is None:
            value = self._values.get(cluster_id)
            if value is None:
                return None
            return bisect_left(self._keys, (-value, cluster_id)) + 1
        # Ids are unique: one vectorized scan finds the single slot, one
        # count of the entries served before it gives the rank.
        cids, values = self._cid, self._value
        hits = np.flatnonzero(cids == cluster_id)
        if not len(hits) or values[hits[0]] <= 0:
            return None
        value = values[hits[0]]
        ahead = np.count_nonzero(values > value) + np.count_nonzero(
            (values == value) & (cids < cluster_id)
        )
        return int(ahead) + 1


class _Rankings(dict):
    """One state's ``metric -> RankIndex``, each built on first read.

    ``columns`` are, per cluster at the state's last settle, the
    canonical id and one value column per metric in
    :data:`TOP_CLUSTER_METRICS` order (size, balance, tx count);
    ``self[by]`` on a metric not built yet wraps its column in
    :meth:`RankIndex.from_columns`.  The tip's flush patch reads all
    three.  An unknown metric raises ``ValueError``.  ``built`` lists the
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
        index = self[by] = RankIndex.from_columns(cids, column)
        self.built.append(by)
        if self.metrics.enabled:
            self.metrics.counter("timetravel.rankings_built", by=by).inc()
        return index


class _OverlayGroup:
    """Base clusters joined only by still-voidable H2 change links."""

    __slots__ = ("cid", "roots", "size", "balance", "tx_count", "links")

    def __init__(self, cid, roots, size, balance, tx_count):
        self.cid = cid  # canonical id: min over member minimums
        self.roots = roots  # the base roots the open links join, ascending
        self.size, self.balance, self.tx_count = size, balance, tx_count
        # The open change links that form the group: kept on the tip,
        # which re-links a group from them; empty on a past height.
        self.links = []


class _Columns(NamedTuple):
    """Balance and incidence count per base root (junk at non-roots)."""

    balance: IntVector
    tx_count: IntVector

    def grow_to(self, n: int) -> None:
        self.balance.grow_to(n)
        self.tx_count.grow_to(n)

    def scatter(
        self,
        event_slots: np.ndarray,
        event_values: np.ndarray,
        involved_slots: np.ndarray,
    ) -> None:
        """Fold a run of blocks' churn in one batch: balance events sum,
        each involvement counts once."""
        if len(event_slots):
            np.add.at(self.balance.array, event_slots, event_values)
        np.add.at(self.tx_count.array, involved_slots, 1)


class _DeltaLog:
    """The aggregate delta log: what every height changed, from genesis.

    * Per height ``h`` (slot ``h``): the block's ``max_id`` and the base
      merge-log ``mark`` after its unions (the tip's forest at ``h`` is
      its forest as of ``mark``).  Its rows in each flat column below
      are ``offsets[h]:offsets[h + 1]``.
    * Flat, in height order: the block deltas' balance events
      (``event_ids``, ``event_values``) and per-tx involvements
      (``involved``); the labels born with an open §4.2 window
      (``born``) and the labels voided or settled (``closed``).
    * Per ``born`` label: ``closed_at`` (int64 max while open).
    """

    _VECTORS = (
        "max_id", "mark", "event_offsets", "involved_offsets", "born_offsets",
        "closed_offsets", "event_ids", "event_values", "involved", "closed_at",
    )
    __slots__ = (*_VECTORS, "born", "closed", "_open_slots")

    def __init__(self) -> None:
        for name in self._VECTORS:
            setattr(self, name, IntVector())
        for offsets in (
            self.event_offsets, self.involved_offsets,
            self.born_offsets, self.closed_offsets,
        ):
            offsets.append(0)  # height 0's rows start at row 0
        self.born: list = []
        self.closed: list = []
        self._open_slots: dict = {}
        """Born label -> its ``born`` slot, until it closes."""

    @property
    def height(self) -> int:
        return len(self.mark) - 1

    @property
    def nbytes(self) -> int:
        """Bytes the columns hold, plus one pointer per label entry."""
        columns = sum(getattr(self, name).nbytes for name in self._VECTORS)
        return columns + 8 * (len(self.born) + len(self.closed))

    def append_rows(self, max_id, event_ids, event_values, involved) -> None:
        """Log a block's delta columns (the view does, as it arrives)."""
        self.max_id.append(max_id)
        self.event_ids.extend(event_ids)
        self.event_values.extend(event_values)
        self.event_offsets.append(len(self.event_ids))
        self.involved.extend(involved)
        self.involved_offsets.append(len(self.involved))

    def append_labels(self, born, closed) -> None:
        """Log the next height's label churn (the flush does, with the
        height's ``mark``)."""
        height = len(self.born_offsets) - 1
        slots = self._open_slots
        for live in born:
            slots[live] = len(self.born)
            self.born.append(live)
        self.born_offsets.append(len(self.born))
        if born:
            self.closed_at.grow_to(len(self.born), fill=_UNSEEN)
        for live in closed:
            slot = slots.pop(live, None)
            if slot is not None:  # a label with no window never opened
                self.closed_at[slot] = height
        self.closed.extend(closed)
        self.closed_offsets.append(len(self.closed))

    def churn(self, first: int, last: int) -> tuple[np.ndarray, ...]:
        """Heights ``first..last``'s event ids, event values and
        involvements: views into the log."""
        events = slice(self.event_offsets[first], self.event_offsets[last + 1])
        rows = slice(self.involved_offsets[first], self.involved_offsets[last + 1])
        return (
            self.event_ids.array[events],
            self.event_values.array[events],
            self.involved.array[rows],
        )

    def state_at(self, height: int, uf: IntUnionFind) -> "_AggregateState":
        """The base aggregates at ``height`` (derived state left to
        :meth:`_AggregateState.settle`), over the tip's base forest
        ``uf`` as of the height."""
        n = int(self.max_id.array[: height + 1].max()) + 1
        past, roots = IntUnionFind.from_parents(uf.forest_at(self.mark[height])[:n])
        return self.fold(height, past, roots)

    def fold(
        self, height: int, uf: IntUnionFind, roots: np.ndarray
    ) -> "_AggregateState":
        """The base aggregates at ``height`` over ``uf``, the base forest
        as of that height whose every id's root is ``roots``, in a few
        whole-array passes: the minimum member, balance and tx count per
        root, and the labels whose window is still open at the height.
        A past height folds a forest of its own; a restore folds the
        restored tip's."""
        ids = np.arange(len(roots), dtype="<i8")
        min_member = ids.copy()
        np.minimum.at(min_member, roots, ids)
        event_ids, event_values, involved = self.churn(0, height)
        balance = np.zeros(len(roots), dtype="<i8")
        np.add.at(balance, roots[event_ids], event_values)
        tx_count = np.bincount(roots[involved], minlength=len(roots))
        closed_at = self.closed_at.array[: self.born_offsets[height + 1]]
        born = self.born
        return _AggregateState(
            height, uf,
            _Columns(IntVector.wrap(balance), IntVector.wrap(tx_count)),
            IntVector.wrap(min_member),
            [born[slot] for slot in np.flatnonzero(closed_at > height).tolist()],
        )

    def export(self, label_index: dict) -> list[tuple]:
        """Per height the ``timetravel`` record: height, max id, mark,
        born and closed labels as ``label_index`` positions, row bytes."""
        ids, values, involved = (
            column.tobytes()
            for column in (self.event_ids, self.event_values, self.involved)
        )
        events, rows = (
            [8 * row for row in offsets.tolist()]  # byte offsets
            for offsets in (self.event_offsets, self.involved_offsets)
        )
        born, closed = (o.tolist() for o in (self.born_offsets, self.closed_offsets))
        return [
            (
                height, max_id, mark,
                [label_index[id(live)] for live in self.born[b0:b1]],
                [label_index[id(live)] for live in self.closed[c0:c1]],
                ids[e0:e1], values[e0:e1], involved[r0:r1],
            )
            for height, (max_id, mark, e0, e1, r0, r1, b0, b1, c0, c1) in enumerate(
                zip(
                    self.max_id.tolist(), self.mark.tolist(), events, events[1:],
                    rows, rows[1:], born, born[1:], closed, closed[1:],
                )
            )
        ]

    @classmethod
    def from_records(cls, records, labels) -> "_DeltaLog":
        """Rebuild the log from :meth:`export` tuples, label positions
        bound to ``labels``."""
        log = cls()
        _heights, max_ids, marks, born, closed, *columns = (
            list(zip(*records)) or [()] * 8
        )
        log.max_id, log.mark = (
            IntVector.wrap(np.array(column, dtype="<i8"))
            for column in (max_ids, marks)
        )
        log.event_ids, log.event_values, log.involved = (
            IntVector.from_bytes(b"".join(chunks)) for chunks in columns
        )
        log.event_offsets, log.involved_offsets = (
            IntVector.wrap(np.cumsum([0, *map(len, chunks)], dtype="<i8") // 8)
            for chunks in (columns[0], columns[2])
        )
        for opened, ended in zip(born, closed):
            log.append_labels(
                [labels[position] for position in opened],
                [labels[position] for position in ended],
            )
        return log


class _AggregateState:
    """The cluster aggregates at one height (see the module docstring).

    The tip and every past height are this one shape: the tip is built
    by :meth:`advance` and patched in place, a past height by
    :meth:`_DeltaLog.state_at` and never changed after.
    """

    __slots__ = (
        "height", "uf", "roots", "min_member",
        "open", "groups", "group_of", "ranks", "derived_dirty",
    )

    def __init__(
        self, height=-1, uf=None, roots=None, min_member=None, open_labels=(),
    ) -> None:
        self.height = height
        self.uf = uf if uf is not None else IntUnionFind()
        """Base partition: H1 merges + settled change links."""
        self.roots = roots or _Columns(IntVector(), IntVector())
        self.min_member = min_member if min_member is not None else IntVector()
        """Per base root: minimum member id — the canonical cluster id."""
        self.open: set = set(open_labels)  # open-window (voidable) labels
        self.groups: list[_OverlayGroup] = []
        self.group_of: dict[int, _OverlayGroup] = {}
        """base root -> the overlay group currently absorbing it."""
        self.ranks = _Rankings()
        self.derived_dirty = bool(self.open) or len(self.uf) > 0
        """True while ``groups``/``group_of``/``ranks`` lag the base (an
        empty state is trivially settled)."""

    @property
    def nbytes(self) -> int:
        """Bytes of the base forest's columns, the three per-root arrays
        and the per-cluster columns the rankings read."""
        vectors = (*self.roots, self.min_member, *self.ranks.columns)
        return self.uf.nbytes + sum(vector.nbytes for vector in vectors)

    # -- the fold ------------------------------------------------------

    def advance(
        self, log: _DeltaLog, first: int, ends: np.ndarray, born, closed
    ) -> tuple[set[int], np.ndarray]:
        """Move the tip across the log's heights ``first..log.height``:
        base merges ``ends`` (``(absorbed, kept)`` rows already applied
        to ``uf``, grown to the run's universe) and open-window labels
        ``born`` and ``closed``.
        Returns what :meth:`ClusterAggregateView._flush` rebuilds from:
        the canonical ids the merges may have retired, and the post-span
        root of every involvement in the run.  Churn is scattered after
        the whole span is folded: sums commute with the merge folds, so
        each contribution lands at its final root.
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

        # 2. Open-label transitions: a label closes after its birth.
        self.open.update(born)
        self.open.difference_update(closed)

        # One find over every id the fold places: the span's absorbed
        # roots, the run's involvements and its balance events.
        event_ids, event_values, involved = log.churn(first, log.height)
        into, involved_roots, event_roots = np.split(
            self.uf.find_many(np.concatenate((ends[:, 0], involved, event_ids))),
            [len(ends), len(ends) + len(involved)],
        )

        # 3. Merge folds, one batch: each absorbed root was a root before
        #    the span and is absorbed once, so its pre-span columns land
        #    whole at its post-span root (sums add, minimums commute).
        #    Every endpoint was a root when its entry applied, so the ids
        #    the span may retire are the endpoints' pre-span minimums.
        min_member = self.min_member.array
        stale_cids = set(min_member[ends.ravel()].tolist())
        if len(into):
            absorbed = ends[:, 0]
            for column in (self.roots.balance.array, self.roots.tx_count.array):
                np.add.at(column, into, column[absorbed])
            np.minimum.at(min_member, into, min_member[absorbed])

        # 4. The run's per-address churn, one batched scatter into the
        #    root columns at post-span roots.
        if len(involved_roots):
            self.roots.scatter(event_roots, event_values, involved_roots)

        self.height = log.height
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
        :func:`link_components` layout, plus the groups' canonical id,
        size, balance and tx count columns (each a ``reduceat`` over a
        gather of the members' root columns)."""
        if not len(starts):
            return [], (np.empty(0, dtype="<i8"),) * 4
        columns = (
            np.minimum.reduceat(self.min_member.array[members], starts),
            np.add.reduceat(self.uf.root_sizes.array[members], starts),
            np.add.reduceat(self.roots.balance.array[members], starts),
            np.add.reduceat(self.roots.tx_count.array[members], starts),
        )
        flat = members.tolist()
        bounds = [*starts.tolist(), len(flat)]
        return [
            _OverlayGroup(cid, tuple(flat[lo:hi]), *aggregates)
            for lo, hi, (cid, *aggregates) in zip(
                bounds,
                bounds[1:],
                zip(*(column.tolist() for column in columns)),
            )
        ], columns

    def settle(self) -> None:
        """(Re)build the overlay groups wholesale from the base and
        gather every cluster's canonical id, size, balance and tx count
        into the columns :class:`_Rankings` reads — no sort.  Idempotent."""
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
    :class:`_AggregateState`, whatever its height.  A surface over the
    tip reads live state: take a fresh one per question."""

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

    def cluster_ids_of(self, idents) -> np.ndarray:
        """The canonical cluster id per address id, -1 for an id outside
        the universe at this height: one ``find_many``, a gather of the
        roots' minimum members, then the overlay groups' ids."""
        state = self._state
        idents = np.asarray(idents, dtype="<i8")
        inside = (idents >= 0) & (idents < len(state.uf))
        out = np.full(len(idents), -1, dtype="<i8")
        roots = state.uf.find_many(idents[inside])
        cids = state.min_member.array[roots]
        group_of = state.group_of
        if group_of:
            grouped = np.zeros(len(state.uf), dtype=bool)
            grouped[np.fromiter(group_of, "<i8", len(group_of))] = True
            for position in np.flatnonzero(grouped[roots]).tolist():
                cids[position] = group_of[int(roots[position])].cid
        out[inside] = cids
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

    def tx_count_of_cluster(self, cluster_id: int) -> int:
        """Summed member incidences: a tx touching k member addresses
        counts k times (0 for a never-active cluster)."""
        root, group = self._locate(cluster_id)
        if group is not None:
            return group.tx_count
        return self._state.roots.tx_count[root]

    def top(self, n: int, by: str) -> tuple[tuple[int, int], ...]:
        """The best ``n`` clusters by one metric: ``(id, value)`` pairs."""
        return self._state.ranks[by].top(n)

    def rank_of(self, by: str, cluster_id: int) -> int | None:
        """1-based standing of one cluster under one metric."""
        return self._state.ranks[by].rank_of(cluster_id)

    @property
    def cluster_count(self) -> int:
        """Clusters at this height, without building a ranking: base
        components, less the roots groups absorb, plus one per group."""
        state = self._state
        return state.uf.component_count - len(state.group_of) + len(state.groups)


class ClusterAggregateView(MaterializedView):
    """The streaming owner of the cluster aggregates (module docstring).

    Attach *after* the service's
    :class:`~repro.core.incremental.IncrementalClusteringEngine` (the
    service constructor and snapshot-restore path both do): a flush
    pulls the engine's
    :meth:`~repro.core.incremental.IncrementalClusteringEngine.cluster_delta`
    for every queued height.  Deferring the fold is safe because what
    it reads is stable history: a clustered height's merge span and
    label churn never change, and the label fields the overlay reads
    (``address_id``/``input_id``) are immutable.  The base partition
    only moves forward, so a flush reads the run's merges as one log
    span past the tip state's mark.

    Alongside the tip state the view keeps the columnar delta log
    (:class:`_DeltaLog`) and an exact-height memo of past states.
    """

    OBSERVER_NAME = "aggregates"

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
        self._install(_AggregateState(), _DeltaLog())
        self._follow(index, metrics)

    def _follow(self, index: ChainIndex, metrics) -> None:
        MaterializedView.__init__(self, index, metrics=metrics)
        if self.metrics.enabled:
            self.metrics.gauge_fn(
                "timetravel.resident_bytes", self.resident_bytes
            )

    def _install(self, tip: _AggregateState, log: _DeltaLog) -> None:
        self._tip = tip
        self._log = log
        self._memo: OrderedDict[int, _AggregateState] = OrderedDict()
        """Exact-height LRU of recently built past states."""
        # For the ``query`` flight span: how the last :meth:`at` was
        # served, and the flush seconds summed while metrics are enabled.
        self.last_path = "tip"
        self.flush_seconds = 0.0

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
        # The log is the queue: a block's columns now, its unions at the
        # first read at the new tip (never the delta itself, which would
        # keep the block's transactions alive until then).
        self._log.append_rows(
            delta.max_id, delta.event_ids, delta.event_values,
            delta.involved_flat,
        )

    @property
    def pending_blocks(self) -> int:
        """Blocks queued but not yet folded (the flush-queue depth the
        health model reports)."""
        return self._height - self._tip.height

    def _flush(self) -> None:
        """Fold every queued block into the tip state as one run, then
        rebuild the tip's derived state once, by the builder the run's
        reach picks: a run that touched at least ``max(64, clusters //
        8)`` of the tip's base clusters (the first read after a bulk
        ingest, catch-up or tail replay) settles it wholesale, as a
        restore does; a shorter one patches what it touched
        (:meth:`_patch_tip`) — the coalescing that makes bulk ingest
        cheap."""
        tip, log = self._tip, self._log
        if tip.height == self._height:
            return
        first, blocks = tip.height + 1, self._height - tip.height
        metrics = self.metrics
        timed = metrics.enabled
        if timed:
            flush_start = perf_counter()
            metrics.histogram(
                "aggregates.queued_blocks", buckets=COUNT_BUCKETS
            ).observe(blocks)
        # The run's unions — H1 merges read off the engine's log plus
        # change links that settled, height by height — go to the base
        # in one pair call.  A height's mark is the checkpoint after its
        # last pair, so ``(previous mark, mark]`` on the append-only base
        # log is exactly the block's merges.
        uf = tip.uf
        uf.ensure(int(log.max_id.array[first:].max()) + 1)
        runs, born, closed = [], [], []
        for height in range(first, first + blocks):
            churn = self.engine.cluster_delta(height)
            pairs = churn.merges
            settled = [
                (live.address_id, live.input_id)
                for live in churn.settled
                if live.input_id is not None
            ]
            if settled:
                pairs = np.concatenate((pairs, np.array(settled, dtype="<i8")))
            runs.append(pairs)
            opened = [live for live in churn.born if live.deadline is not None]
            ended = churn.voided + churn.settled
            log.append_labels(opened, ended)
            born += opened
            closed += ended
        pairs = np.concatenate(runs)
        start = uf.checkpoint()
        merged_at = uf.union_many(pairs[:, 0], pairs[:, 1])
        last_pairs = np.cumsum([len(run) for run in runs])
        log.mark.extend(start + np.searchsorted(merged_at, last_pairs))
        ends = uf.log_span(start, uf.checkpoint())
        stale_cids, involved_roots = tip.advance(log, first, ends, born, closed)
        # Every cluster the run changed, as post-span base roots.  A
        # merge's ``kept`` may itself have been absorbed later.
        touched = set(
            uf.find_many(np.concatenate((involved_roots, ends.ravel()))).tolist()
        )
        if len(touched) >= max(64, uf.component_count // 8):
            path = "settle"
            tip.settle()
            tip.attach_links(tip.group_of, *tip.link_roots(tip.open))
        else:
            path = "patch"
            self._patch_tip(ends, stale_cids, touched, born, closed)
        if timed:
            seconds = perf_counter() - flush_start
            self.flush_seconds += seconds
            event_ids, _values, involved = log.churn(first, log.height)
            metrics.counter("aggregates.churn_rows").inc(
                len(event_ids) + len(involved)
            )
            metrics.histogram("aggregates.flush_seconds").observe(seconds)
            metrics.flight.record(
                "flush", height=self._height, blocks=blocks, seconds=seconds,
                path=path,
            )
        if self.index.log.enabled:
            self.index.log.debug(
                "aggregate_flush", height=self._height, blocks=blocks
            )

    def _patch_tip(
        self, ends, stale_cids: set[int], touched_roots: set[int], born, closed
    ) -> None:
        """The tip's incremental derived-state builder, for a run that
        touched few clusters (the wholesale twin, which a long run and
        every past height use, is :meth:`_AggregateState.settle`).
        ``touched_roots`` holds the post-span root of every merge
        endpoint and every involvement in the run.

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
        merged = ends.ravel()

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
        # Touched groups dissolve: their ids may vanish and their member
        # roots may stand alone again (re-resolving to their own
        # canonical ids).
        for group in hit.values():
            stale_cids.add(group.cid)
            for root in group.roots:
                del group_of[root]
                touched_roots.add(uf.find(root))
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
        # An unbuilt metric is built first (:meth:`_Rankings.__missing__`,
        # inclusion as there), and the first patch after a settle sorts
        # each column-backed index into its list backing.
        ranks = tip.ranks
        ranks["size"].apply(
            gone, [(cid, size) for cid, size, _balance, _txs in entries]
        )
        for name, column in (("balance", 2), ("activity", 3)):
            ranks[name].apply(
                gone.union(e[0] for e in entries if e[column] <= 0),
                [(e[0], e[column]) for e in entries if e[column] > 0],
            )
        ranks.columns = ()  # all three are list-backed now
        tip.derived_dirty = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def at(self, height: int | None = None) -> AggregateSurface:
        """The aggregate surface at ``height`` (default: the chain tip):
        the tip state, or a past one (:meth:`_replayed`).  A height the
        view has not folded raises :class:`AggregatesBehindError`."""
        self._flush()
        tip = self.index.height
        if height is None:
            height = tip
        if height > self._height:
            raise AggregatesBehindError(height, self._height, tip)
        if height == tip:
            self.last_path = "tip"
            return AggregateSurface(self._tip)
        return AggregateSurface(self._replayed(height))

    horizon = at
    """The name ``benchmarks/e2e`` calls :meth:`at` by."""

    @property
    def cluster_count(self) -> int:
        """Clusters at the tip."""
        return self.at().cluster_count

    def resident_bytes(self) -> int:
        """The delta log's bytes plus the memoized states' (the
        ``timetravel.resident_bytes`` gauge)."""
        return self._log.nbytes + sum(
            state.nbytes for state in self._memo.values()
        )

    def _replayed(self, height: int) -> _AggregateState:
        """A settled state at ``height``: memoized, or built from the
        tip's partition and the log (nothing cloned or replayed)."""
        if not 0 <= height <= self._height:
            raise ValueError(
                f"height {height} outside the aggregate delta log "
                f"(0..{self._height})"
            )
        metrics = self.metrics
        timed = metrics.enabled
        memo = self._memo
        state = memo.get(height)
        if state is not None:
            memo.move_to_end(height)
            self.last_path = "memo"
            if timed:
                metrics.counter("timetravel.memo_hits").inc()
            return state
        if timed:
            start = perf_counter()
        state = self._log.state_at(height, self._tip.uf)
        state.settle()
        memo[height] = state
        while len(memo) > self._MEMO_SIZE:
            memo.popitem(last=False)
        self.last_path = "built"
        if timed:
            state.ranks.metrics = metrics
            seconds = perf_counter() - start
            metrics.histogram("timetravel.build_seconds").observe(seconds)
            metrics.flight.record(
                "timetravel", height=height, tip=self._height,
                seconds=seconds, bytes=state.nbytes, ranked=state.ranks.built,
            )
        return state

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """The tip's base partition (the ``aggregates`` snapshot
        segment), queued blocks flushed first.  Everything else the tip
        holds is rebuilt on restore: the root columns and the open-label
        set from the delta log, the overlay and rankings from those.
        """
        self._flush()
        return {
            "version": 2,
            "height": self._height,
            "uf": self._tip.uf.export_state(),
        }

    def export_time_travel(self) -> dict:
        """The delta log as plain data (the ``timetravel`` snapshot
        segment): one record tuple per height after a base that names
        the height the log starts after (always genesis).  Labels
        serialize as indices into the engine's birth-ordered label list,
        which a restore re-binds to the restored engine's objects.
        """
        self._flush()
        label_index = {
            id(live): position
            for position, live in enumerate(self.engine._labels)
        }
        return {
            "version": 1,
            "height": self._height,
            "base": {"height": -1},
            "records": self._log.export(label_index),
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
        :meth:`export_time_travel` output, no catch-up: the tip is the
        log's fold (:meth:`_DeltaLog.fold`) over the restored forest
        itself, then settled.  ``engine`` must be the restored engine at
        the same height: its label list is what the log's indices name.
        Keys either segment carries beyond these are ignored.  A delta
        log that does not start at genesis, or does not end at the
        state's height, is refused.
        """
        if engine.height != state["height"]:
            raise ValueError(
                f"aggregate state is at height {state['height']} but the "
                f"engine is at {engine.height}"
            )
        start = delta_log["base"]["height"]
        if start != -1:
            # Imported here: the storage package imports the service.
            from ..storage.errors import UnsupportedSnapshotError

            raise UnsupportedSnapshotError(
                f"the 'timetravel' delta log starts after height {start}; "
                f"this build restores only a log that starts at genesis — "
                f"re-ingest from blk*.dat and snapshot again"
            )
        view = cls.__new__(cls)
        view._height = state["height"]
        view.engine = engine
        log = _DeltaLog.from_records(delta_log["records"], engine._labels)
        if log.height != view._height:
            raise ValueError(
                f"the 'timetravel' delta log ends at height {log.height} but "
                f"the aggregate state is at height {view._height}"
            )
        uf = IntUnionFind.from_state(state["uf"])
        tip = log.fold(view._height, uf, uf.find_many(np.arange(len(uf))))
        tip.settle()
        tip.attach_links(tip.group_of, *tip.link_roots(tip.open))
        view._install(tip, log)
        view._follow(index, metrics)
        return view
