"""The array-backed disjoint-set forest the clustering runs on.

:class:`IntUnionFind` is backed by flat int64 arrays indexed by the
dense address ids the chain layer interns, and only moves forward:
each effective union is appended to a merge log, and the partition at an
earlier log position is rebuilt by replaying a prefix onto a fresh
structure, never by undoing the live one.  The arrays make
:meth:`IntUnionFind.find_many` a few whole-array gathers instead of one
pointer-chase loop per id.  :func:`link_components` is the one kernel for
the open-link overlay (still-voidable H2 change links over base roots).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np

from .arrays import IntVector


class IntUnionFind:
    """Array-backed, append-only disjoint sets over dense ids ``0..n-1``.

    Union-by-size **without path compression**, because :meth:`replay`,
    :meth:`log_prefix` and a read-only :meth:`find_many` rely on it: the
    forest is a pure function of its merge log, so a replayed prefix is
    exactly the forest its :meth:`checkpoint` saw.  Finds are O(log n)
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
    each ``(absorbed_root, kept_root)`` entry is the exact fold order
    for merging the smaller cluster's aggregate into the larger's.
    """

    __slots__ = ("_parent", "_size", "_components", "_log")

    def __init__(self, n: int = 0) -> None:
        self._parent = IntVector()
        self._size = IntVector()
        self._components = 0
        self._log: list[tuple[int, int]] = []
        """Merge log: ``(absorbed_root, kept_root)`` per effective union."""
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
        self._log.append((rb, ra))
        return ra

    def union_many(self, items, partners=None) -> int | None:
        """Chain or bulk-pair unions, merge-log contract preserved.

        * ``union_many(items)`` — merge every id in ``items`` into one
          set; returns its root (the original chain form).
        * ``union_many(ids_a, ids_b)`` — the bulk batch entry point:
          union ``(ids_a[k], ids_b[k])`` for every k, in order, exactly
          as a sequential :meth:`union` loop would — identical merge
          log, so :meth:`checkpoint` / :meth:`log_span` / :meth:`replay`
          observe nothing different.  Accepts any aligned int sequences
          (numpy int64 arrays are converted once, at C speed); the loop
          binds the parent/size/log structures to locals, walks with
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
        append = self._log.append
        merged = 0
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
            merged += 1
            append((b, a))
            anchor_root = a
        self._components -= merged
        return None

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

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
    # checkpoint / replay
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """A token marking the current position in the merge log."""
        return len(self._log)

    def replay(self, entries: Iterable[tuple[int, int]]) -> None:
        """Re-apply previously recorded merges (chronological order).

        Entries must come from a structure's own log (via
        :meth:`log_prefix` or :meth:`log_span`) and be applied onto the
        exact state they were recorded against — each ``absorbed`` must
        currently be a root.  No finds are needed, so replay is O(1) per
        entry.
        """
        parent = self._parent._data
        size = self._size._data
        log = self._log
        n = 0
        for absorbed, kept in entries:
            parent[absorbed] = kept
            size[kept] += size[absorbed]
            log.append((absorbed, kept))
            n += 1
        self._components -= n

    def log_prefix(self, token: int) -> list[tuple[int, int]]:
        """The first ``token`` merge-log entries (chronological)."""
        return self._log[:token]

    def log_span(self, start: int, stop: int) -> list[tuple[int, int]]:
        """Merge-log entries between two checkpoint tokens (chronological)."""
        return self._log[start:stop]

    def copy(self) -> "IntUnionFind":
        """An independent copy, merge log included."""
        clone = IntUnionFind()
        clone._parent = self._parent.copy()
        clone._size = self._size.copy()
        clone._components = self._components
        clone._log = list(self._log)
        return clone

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Plain-data state: parents, sizes, and the full merge log.

        The log is part of the state on purpose — the incremental
        engine's time travel replays log prefixes, so a restored
        structure must be able to answer every historical horizon the
        live one could.

        Arrays are exported as raw little-endian int64 bytes (the log
        as an ``(n, 2)`` row-major buffer): at a million addresses the
        parent/size/log columns dominate the engine and aggregate
        segments, and a flat-bytes export keeps snapshot cost one
        ``memcpy`` per column instead of a Python-object copy per id.
        """
        return {
            "parent": self._parent.tobytes(),
            "size": self._size.tobytes(),
            "components": self._components,
            "log": np.asarray(
                self._log if self._log else np.empty((0, 2)), dtype="<i8"
            ).tobytes(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "IntUnionFind":
        """Rebuild a structure from :meth:`export_state` output."""
        uf = cls()
        uf._parent = IntVector.from_bytes(state["parent"])
        uf._size = IntVector.from_bytes(state["size"])
        uf._log = [
            (absorbed, kept)
            for absorbed, kept in np.frombuffer(state["log"], dtype="<i8")
            .reshape(-1, 2)
            .tolist()
        ]
        uf._components = state["components"]
        if len(uf._parent) != len(uf._size):
            raise ValueError("union-find state parents/sizes misaligned")
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
