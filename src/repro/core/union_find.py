"""The array-backed disjoint-set forest the clustering runs on.

:class:`IntUnionFind` is backed by flat int64 arrays indexed by the
dense address ids the chain layer interns, and only moves forward:
each effective union appends the root it absorbed to a merge-log column,
and the forest at an earlier position is the live parent column masked to
the ids absorbed before it (:meth:`IntUnionFind.forest_at`), never a replay
or an undo.  The arrays make :meth:`IntUnionFind.find_many` a few gathers,
not a pointer-chase loop per id.  :func:`link_components` is the one kernel
for the open-link overlay (still-voidable H2 change links over base roots).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .arrays import IntVector

_ROOT = np.iinfo(np.int64).max
"""Merge-log position of an id nothing has absorbed (yet)."""


class IntUnionFind:
    """Array-backed, append-only disjoint sets over dense ids ``0..n-1``.

    Union-by-size **without path compression**, because the as-of
    readers (:meth:`forest_at`, :meth:`find_at`) and a read-only
    :meth:`find_many` rely on it: an id's parent is set once, when it
    is absorbed, so the live forest is its own history.  Finds are O(log n)
    worst case (union-by-size bounds tree depth), which the flat-array
    backing more than pays back on the clustering hot path.  Parents and
    sizes live in :class:`~repro.core.arrays.IntVector` buffers; scalar
    methods bind the raw backing array (``_data``) in their loops — safe
    because a live id's parent is always a live id, so walks never enter
    the capacity tail — and :meth:`find_many` resolves whole id batches
    by iterated gather.

    Consumers that maintain *derived* per-cluster state (the service's
    differential cluster aggregates) read the merge log between two
    checkpoints with :meth:`log_span` instead of re-scanning members:
    each ``(absorbed_root, kept_root)`` row is the exact fold order
    for merging the smaller cluster's aggregate into the larger's.
    """

    __slots__ = ("_parent", "_size", "_components", "_absorbed", "_absorbed_at")

    def __init__(self, n: int = 0) -> None:
        self._parent = IntVector()
        self._size = IntVector()
        self._components = 0
        self._absorbed = IntVector()
        """Merge log: the root each union absorbed (its parent kept it)."""
        self._absorbed_at: IntVector | None = None
        """Per id: its position in ``_absorbed`` (int64 max while a root).
        Allocated by the first union: a forest nothing has merged into
        (most :meth:`from_parents` forests) holds no column."""
        if n:
            self.ensure(n)

    def ensure(self, n: int) -> None:
        """Grow the universe so ids ``0..n-1`` exist (as singletons)."""
        current = len(self._parent)
        if n <= current:
            return
        self._parent.grow_to(n)
        self._parent.array[current:] = np.arange(current, n, dtype="<i8")
        self._size.grow_to(n, fill=1)
        if self._absorbed_at is not None:
            self._absorbed_at.grow_to(n, fill=_ROOT)
        self._components += n - current

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: int) -> bool:
        return 0 <= item < len(self._parent)

    @property
    def component_count(self) -> int:
        return self._components

    def find(self, item: int) -> int:
        """Root of ``item``'s set (no path compression; see class doc)."""
        parent = self._parent._data
        above = parent[item]
        while above != item:
            item = above
            above = parent[item]
        return int(item)

    def find_many(self, ids) -> np.ndarray:
        """Roots of every id in ``ids``, as a fresh int64 array.

        Iterated whole-batch gather: each pass replaces every id with
        its parent, so the loop runs max-tree-depth times — O(log n)
        passes of C-speed indexing instead of a Python pointer chase per
        id.  Read-only (no compression, like :meth:`find`), so the
        forest stays a pure function of the merge log.  The win is
        batch size: at tens of thousands of ids this is ~8× faster than
        a :meth:`find` loop; for a handful of ids prefer the loop.
        """
        roots = np.asarray(ids, dtype="<i8")
        parent = self._parent._data
        while True:
            above = parent[roots]
            if np.array_equal(above, roots):
                return above
            roots = above

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; appends the merge to the log."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        size = self._size._data
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent._data[rb] = ra
        size[ra] += size[rb]
        self._components -= 1
        self._log_positions()._data[rb] = len(self._absorbed)
        self._absorbed.append(rb)
        return ra

    def _log_positions(self) -> IntVector:
        """The merge-log position column, allocated on first use."""
        if self._absorbed_at is None:
            self._absorbed_at = IntVector(len(self._parent), fill=_ROOT)
        return self._absorbed_at

    def union_many(self, items, partners=None) -> int | None:
        """Chain or bulk-pair unions, merge-log contract preserved.

        * ``union_many(items)`` — merge every id in ``items`` into one
          set; returns its root (the original chain form).
        * ``union_many(ids_a, ids_b)`` — the bulk batch entry point:
          union ``(ids_a[k], ids_b[k])`` for every k, in order, exactly
          as a sequential :meth:`union` loop would — identical merge
          log, so :meth:`log_span` / :meth:`forest_at` observe nothing
          different.  Accepts any aligned int sequences (numpy int64
          arrays are converted once, at C speed); the loop binds the
          parent/size arrays to locals (the log column is extended once
          per call), walks with
          ``ndarray.item`` (plain Python ints, no numpy scalar churn),
          and memoizes the anchor's root across consecutive pairs that
          share it (the co-spend columns emit one anchor per tx), so
          the engine's per-block H1 pass pays one deep walk per
          distinct id — the same count as the per-tx chain form — and
          one call per *block*.  Returns ``None``.
        """
        if partners is None:
            iterator = iter(items)
            try:
                root = self.find(next(iterator))
            except StopIteration:
                return None
            for item in iterator:
                root = self.union(root, item)
            return root
        ids_a = items.tolist() if hasattr(items, "tolist") else items
        ids_b = partners.tolist() if hasattr(partners, "tolist") else partners
        if len(ids_a) != len(ids_b):
            raise ValueError(
                f"pair arrays misaligned: {len(ids_a)} vs {len(ids_b)}"
            )
        parent = self._parent._data
        size = self._size._data
        step = parent.item
        weight = size.item
        absorbed: list[int] = []
        append = absorbed.append
        anchor = anchor_root = -1
        for a, b in zip(ids_a, ids_b):
            if a == anchor:
                # Consecutive pairs share their tx's anchor: restart the
                # walk at its last known root (still current — nothing
                # merged it away between consecutive pairs) instead of
                # re-walking from the leaf.
                a = anchor_root
            else:
                anchor = a
            above = step(a)
            while above != a:
                a = above
                above = step(a)
            anchor_root = a
            above = step(b)
            while above != b:
                b = above
                above = step(b)
            if a == b:
                continue
            sa = weight(a)
            sb = weight(b)
            if sa < sb:
                a, b = b, a
                sa, sb = sb, sa
            parent[b] = a
            size[a] = sa + sb
            append(b)
            anchor_root = a
        if absorbed:
            start = len(self._absorbed)
            self._absorbed.extend(absorbed)
            self._log_positions()._data[self._absorbed.array[start:]] = np.arange(
                start, len(self._absorbed), dtype="<i8"
            )
            self._components -= len(absorbed)
        return None

    def size_of(self, item: int) -> int:
        return self._size[self.find(item)]

    @property
    def root_sizes(self) -> IntVector:
        """The per-id size vector (meaningful only at roots; junk
        elsewhere).  Exposed read-only for hot-path consumers that
        already hold roots — indexing this skips the :meth:`size_of`
        find, and item access returns plain Python ints.  Callers must
        not mutate it."""
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes the parent, size and merge-log columns hold."""
        vectors = (self._parent, self._size, self._absorbed, self._absorbed_at)
        return sum(vector.nbytes for vector in vectors if vector is not None)

    @classmethod
    def from_parents(cls, parent: np.ndarray) -> tuple["IntUnionFind", np.ndarray]:
        """The forest whose parent column is ``parent`` (each id's
        parent an id, a root its own), with an empty merge log, and
        every id's root.  Sizes are the roots' member counts."""
        uf = cls()
        uf._parent = IntVector.wrap(parent)
        roots = uf.find_many(parent)  # an id's root is its parent's
        sizes = np.bincount(roots, minlength=len(parent))
        uf._size = IntVector.wrap(sizes)
        uf._components = int(np.count_nonzero(sizes))
        return uf, roots

    def root_ids(self) -> np.ndarray:
        """All component roots (self-parented ids), ascending — one
        vectorized scan, no per-id Python work."""
        parent = self._parent.array
        return np.nonzero(parent == np.arange(len(parent), dtype="<i8"))[0]

    def component_sizes(self) -> dict[int, int]:
        """``root -> component size`` (roots are self-parented ids)."""
        roots = self.root_ids()
        sizes = self._size.array[roots]
        return dict(zip(roots.tolist(), sizes.tolist()))

    def components(self) -> dict[int, list[int]]:
        """Materialize all sets as ``root -> member ids``."""
        n = len(self._parent)
        roots = self.find_many(np.arange(n, dtype="<i8")).tolist()
        out: dict[int, list[int]] = defaultdict(list)
        for i, root in enumerate(roots):
            out[root].append(i)
        return dict(out)

    # ------------------------------------------------------------------
    # checkpoints and the forest as of one
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """A token marking the current position in the merge log."""
        return len(self._absorbed)

    def log_span(self, start: int, stop: int) -> np.ndarray:
        """Merge-log entries between two checkpoint tokens, in merge
        order, as ``(k, 2)`` int64 ``(absorbed, kept)`` rows."""
        absorbed = self._absorbed.array[start:stop]
        return np.array((absorbed, self._parent.array[absorbed])).T

    def forest_at(self, mark: int) -> np.ndarray:
        """The parent column as of checkpoint ``mark`` (a fresh array):
        an id absorbed at or after ``mark`` is its own root again."""
        parent = self._parent.array
        ids = np.arange(len(parent), dtype="<i8")
        if self._absorbed_at is None:
            return ids
        return np.where(self._absorbed_at.array < mark, parent, ids)

    def find_at(self, ids, mark: int) -> np.ndarray:
        """Roots of ``ids`` in the forest as of checkpoint ``mark``:
        :meth:`find_many`'s iterated gather, each step masked to the
        merges before ``mark``, with no forest materialised."""
        roots = np.asarray(ids, dtype="<i8")
        if self._absorbed_at is None:
            return roots
        parent = self._parent._data
        absorbed_at = self._absorbed_at._data
        while True:
            above = np.where(absorbed_at[roots] < mark, parent[roots], roots)
            if np.array_equal(above, roots):
                return above
            roots = above

    def copy(self) -> "IntUnionFind":
        """An independent copy, merge log included."""
        clone = IntUnionFind()
        clone._parent = self._parent.copy()
        clone._size = self._size.copy()
        clone._components = self._components
        clone._absorbed = self._absorbed.copy()
        if self._absorbed_at is not None:
            clone._absorbed_at = self._absorbed_at.copy()
        return clone

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: parents, sizes, and the full merge log,
        which dates every merge for the historical horizons.

        Arrays are exported as raw little-endian int64 bytes (the log as
        the ``(n, 2)`` row-major :meth:`log_span` rows): at a million
        addresses the parent/size/log columns dominate the engine and
        aggregate segments, and a flat-bytes export keeps snapshot cost
        one ``memcpy`` per column instead of a Python-object copy per id.
        """
        return {
            "parent": self._parent.tobytes(),
            "size": self._size.tobytes(),
            "components": self._components,
            "log": self.log_span(0, self.checkpoint()).tobytes(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "IntUnionFind":
        """Rebuild a structure from :meth:`export_state` output.  A log
        that disagrees with its forest raises ``ValueError`` naming the
        first bad entry: each absorbed id in range and absorbed once,
        each ``kept`` its parent, one entry per merged-away component."""
        uf = cls()
        uf._parent = IntVector.from_bytes(state["parent"])
        uf._size = IntVector.from_bytes(state["size"])
        uf._components = state["components"]
        n = len(uf._parent)
        if n != len(uf._size):
            raise ValueError("union-find state parents/sizes misaligned")
        log = np.frombuffer(state["log"], dtype="<i8").reshape(-1, 2)
        absorbed, kept = log[:, 0], log[:, 1]
        order = np.arange(len(log), dtype="<i8")

        def refuse(bad: np.ndarray, what: str) -> None:
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"union-find merge log entry {k} {log[k]} {what}")

        refuse((absorbed < 0) | (absorbed >= n), f"is outside 0..{n - 1}")
        absorbed_at = np.full(n, _ROOT, dtype="<i8")
        absorbed_at[absorbed] = order  # a repeated id keeps its last slot
        refuse(absorbed_at[absorbed] != order, "absorbs an id twice")
        refuse(uf._parent.array[absorbed] != kept, "disagrees with the parents")
        if len(log) != n - uf._components:
            raise ValueError(
                f"union-find merge log holds {len(log)} entries; "
                f"{uf._components} components of {n} ids need {n - uf._components}"
            )
        uf._absorbed = IntVector.wrap(absorbed.copy())
        uf._absorbed_at = IntVector.wrap(absorbed_at)
        return uf


def link_components(roots_a, roots_b) -> tuple[np.ndarray, np.ndarray]:
    """Components of the graph with one edge per ``(roots_a[k],
    roots_b[k])``: self-links dropped, endpoints compacted by one
    ``np.unique``, merged by one pair-mode :meth:`IntUnionFind.union_many`,
    grouped by :meth:`IntUnionFind.find_many` plus one stable argsort.

    Returns ``(members, starts)``: the linked endpoints grouped by
    component (ascending within a group) and each group's offset (the
    ``reduceat`` layout).  Every group has at least two members, so the
    links merge ``len(members) - len(starts)`` clusters into others —
    countable without building a tuple per group.
    """
    a, b = np.asarray(roots_a, dtype="<i8"), np.asarray(roots_b, dtype="<i8")
    linked = a != b
    if not linked.any():
        return np.empty(0, dtype="<i8"), np.empty(0, dtype="<i8")
    nodes, compact = np.unique(
        np.concatenate((a[linked], b[linked])), return_inverse=True
    )
    forest = IntUnionFind(len(nodes))
    forest.union_many(*compact.reshape(2, -1))
    labels = forest.find_many(np.arange(len(nodes), dtype="<i8"))
    # ``nodes`` is ascending, so a stable sort keeps each group ascending.
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    new_group = np.concatenate(([True], labels[1:] != labels[:-1]))
    return nodes[order], np.flatnonzero(new_group)
