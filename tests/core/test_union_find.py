"""Union-find unit + property tests: the array-backed production
structure and the generic oracle it is held to
(``tests/helpers.ReferenceUnionFind``)."""

import numpy as np
from hypothesis import given, strategies as st

from repro.core.union_find import IntUnionFind, link_components

from tests.helpers import (
    ReferenceUnionFind,
    reference_forest_at,
    reference_merge_log,
    same_cluster,
)


class TestBasics:
    def test_singletons(self):
        uf = ReferenceUnionFind(["a", "b", "c"])
        assert len(uf) == 3
        assert uf.component_count == 3
        assert not uf.connected("a", "b")

    def test_union_merges(self):
        uf = ReferenceUnionFind()
        uf.union("a", "b")
        assert uf.connected("a", "b")
        assert uf.component_count == 1
        assert uf.size_of("a") == 2

    def test_union_idempotent(self):
        uf = ReferenceUnionFind()
        uf.union("a", "b")
        uf.union("a", "b")
        assert uf.component_count == 1
        assert uf.size_of("b") == 2

    def test_transitivity(self):
        uf = ReferenceUnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")
        assert uf.size_of("c") == 3

    def test_union_all(self):
        uf = ReferenceUnionFind()
        root = uf.union_all(["w", "x", "y", "z"])
        assert uf.size_of(root) == 4
        assert uf.union_all([]) is None
        assert uf.union_all(["solo"]) == uf.find("solo")

    def test_find_adds_missing(self):
        uf = ReferenceUnionFind()
        assert uf.find("new") == "new"
        assert "new" in uf

    def test_connected_with_unknown_items(self):
        uf = ReferenceUnionFind(["a"])
        assert not uf.connected("a", "ghost")

    def test_components(self):
        uf = ReferenceUnionFind(["a", "b", "c", "d"])
        uf.union("a", "b")
        components = uf.components()
        sizes = sorted(len(m) for m in components.values())
        assert sizes == [1, 1, 2]

    def test_copy_is_independent(self):
        uf = ReferenceUnionFind(["a", "b"])
        clone = uf.copy()
        clone.union("a", "b")
        assert not uf.connected("a", "b")
        assert clone.connected("a", "b")

    def test_find_root_never_adds(self):
        uf = ReferenceUnionFind(["a"])
        assert uf.find_root("ghost") is None
        assert len(uf) == 1
        uf.union("a", "b")
        assert uf.find_root("b") == uf.find("a")

    def test_component_sizes_matches_components(self):
        uf = ReferenceUnionFind(["a", "b", "c", "d"])
        uf.union("a", "b")
        uf.union("b", "c")
        sizes = uf.component_sizes()
        assert sizes == {
            root: len(members) for root, members in uf.components().items()
        }


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
        )
    )
    def test_invariants(self, unions):
        uf = ReferenceUnionFind(range(31))
        for a, b in unions:
            uf.union(a, b)
        components = uf.components()
        # Component count agrees with the incremental counter.
        assert len(components) == uf.component_count
        # Sizes sum to the universe and match size_of.
        assert sum(len(m) for m in components.values()) == 31
        for root, members in components.items():
            for member in members:
                assert uf.find(member) == root
                assert uf.size_of(member) == len(members)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40
        )
    )
    def test_equivalence_closure(self, unions):
        """connected() is exactly the transitive closure of the unions."""
        import networkx as nx

        uf = ReferenceUnionFind(range(21))
        graph = nx.Graph()
        graph.add_nodes_from(range(21))
        for a, b in unions:
            uf.union(a, b)
            graph.add_edge(a, b)
        for component in nx.connected_components(graph):
            members = sorted(component)
            for x in members[1:]:
                assert uf.connected(members[0], x)


class TestIntUnionFind:
    def test_basics(self):
        uf = IntUnionFind(4)
        assert len(uf) == 4
        assert uf.component_count == 4
        uf.union(0, 1)
        assert same_cluster(uf, 0, 1)
        assert not same_cluster(uf, 0, 2)
        assert uf.size_of(1) == 2
        assert uf.component_count == 3
        assert 3 in uf and 4 not in uf

    def test_ensure_grows_singletons(self):
        uf = IntUnionFind()
        uf.ensure(3)
        uf.union(0, 2)
        uf.ensure(2)  # shrinking request is a no-op
        assert len(uf) == 3
        assert uf.component_count == 2

    def test_union_many(self):
        uf = IntUnionFind(5)
        root = uf.union_many([0, 1, 2, 3])
        assert uf.size_of(root) == 4
        assert uf.union_many([]) is None
        assert uf.union_many([4]) == uf.find(4)

    def test_component_accessors_agree(self):
        uf = IntUnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        sizes = uf.component_sizes()
        components = uf.components()
        assert sizes == {r: len(m) for r, m in components.items()}
        assert sum(sizes.values()) == 6

    def test_forest_at_rebuilds_structure(self):
        uf = IntUnionFind(8)
        for a, b in [(0, 1), (2, 3), (1, 3), (5, 6)]:
            uf.union(a, b)
        log = uf.log_span(0, uf.checkpoint()).tolist()
        assert uf.forest_at(uf.checkpoint()).tolist() == reference_forest_at(
            log, len(log), 8
        )
        rebuilt, _roots = IntUnionFind.from_parents(uf.forest_at(uf.checkpoint()))
        assert rebuilt.component_sizes() == uf.component_sizes()
        # Two merges in: the third and fourth unions are undone.
        earlier, _roots = IntUnionFind.from_parents(uf.forest_at(2))
        assert earlier.component_sizes() == {0: 2, 2: 2, 4: 1, 5: 1, 6: 1, 7: 1}

    def test_copy_is_independent(self):
        uf = IntUnionFind(3)
        clone = uf.copy()
        clone.union(0, 1)
        assert not same_cluster(uf, 0, 1)
        assert same_cluster(clone, 0, 1)


class TestIntProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
        )
    )
    def test_matches_generic_union_find(self, unions):
        """The array-backed structure is the generic one, observably."""
        int_uf = IntUnionFind(31)
        generic = ReferenceUnionFind(range(31))
        for a, b in unions:
            int_uf.union(a, b)
            generic.union(a, b)
        assert int_uf.component_count == generic.component_count
        for i in range(31):
            assert int_uf.size_of(i) == generic.size_of(i)
        as_sets = lambda components: {
            frozenset(m) for m in components.values()
        }
        assert as_sets(int_uf.components()) == as_sets(generic.components())


class TestBulkKernels:
    """Pair-mode ``union_many`` and ``find_many``: the batch entry
    points must be observably identical to their scalar loops —
    including the merge log, whose spans downstream fold consumers read."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 25), st.integers(0, 25)), max_size=60
        )
    )
    def test_pair_mode_matches_sequential_union_loop(self, pairs):
        sequential = IntUnionFind(26)
        bulk = IntUnionFind(26)
        checkpoints = []
        for a, b in pairs:
            sequential.union(a, b)
            checkpoints.append(sequential.checkpoint())
        ids_a = np.asarray([a for a, _ in pairs], dtype="<i8")
        ids_b = np.asarray([b for _, b in pairs], dtype="<i8")
        merged_at = bulk.union_many(ids_a, ids_b)
        # The merge positions date every pair: the checkpoint after pair
        # k is how many pairs up to k merged.
        dated = np.searchsorted(merged_at, np.arange(len(pairs)), side="right")
        assert dated.tolist() == checkpoints
        assert np.array_equal(
            bulk.log_span(0, bulk.checkpoint()),
            sequential.log_span(0, sequential.checkpoint()),
        )
        assert bulk.component_count == sequential.component_count
        assert bulk.component_sizes() == sequential.component_sizes()
        for i in range(26):
            assert bulk.find(i) == sequential.find(i)
        # Roots are plain ints (they become dict keys in fold consumers).
        assert type(bulk.find(0)) is int

    def test_pair_mode_rejects_misaligned_columns(self):
        uf = IntUnionFind(4)
        try:
            uf.union_many(np.asarray([0, 1]), np.asarray([2]))
        except ValueError as err:
            assert "misaligned" in str(err)
        else:
            raise AssertionError("misaligned pair columns were accepted")

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80
        )
    )
    def test_find_many_matches_scalar_find(self, unions):
        uf = IntUnionFind(41)
        for a, b in unions:
            uf.union(a, b)
        every_id = np.arange(41, dtype="<i8")
        roots = uf.find_many(every_id)
        assert roots.tolist() == [uf.find(i) for i in range(41)]
        # Read-only: resolving roots must not mutate the structure
        # (no path compression), so a second resolution agrees.
        assert uf.find_many(every_id).tolist() == roots.tolist()

    def test_find_many_empty_and_fresh_result(self):
        uf = IntUnionFind(3)
        assert uf.find_many(np.empty(0, dtype="<i8")).tolist() == []
        ids = np.asarray([0, 1, 2], dtype="<i8")
        roots = uf.find_many(ids)
        roots += 1  # returned array is fresh: caller may scribble on it
        assert uf.find(0) == 0


@st.composite
def _link_pairs(draw):
    """Random pairs plus duplicates, self-links and a long path whose
    node labels and edge order are both shuffled."""
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=60)
    )
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    pairs += [(x, x) for x in draw(st.lists(st.integers(0, 60), max_size=5))]
    nodes = draw(st.permutations(range(100, 100 + draw(st.integers(0, 300)))))
    pairs += list(zip(nodes, nodes[1:]))
    return draw(st.permutations(pairs))


class TestLinkComponents:
    """The open-link overlay kernel against the generic union-find."""

    @given(_link_pairs())
    def test_matches_reference_components(self, pairs):
        members, starts = link_components(
            np.asarray([a for a, _ in pairs], dtype="<i8"),
            np.asarray([b for _, b in pairs], dtype="<i8"),
        )
        split = np.split(members, starts[1:]) if len(starts) else []
        groups = [group.tolist() for group in split]
        for group in groups:
            assert len(group) >= 2
            assert group == sorted(set(group))
        reference = ReferenceUnionFind()
        for a, b in pairs:
            reference.union(a, b)
        expected = {
            frozenset(component)
            for component in reference.components().values()
            if len(component) >= 2
        }
        assert len(groups) == len(expected)
        assert {frozenset(group) for group in groups} == expected


class TestForestAtCheckpoint:
    """The one as-of rule: without path compression the live forest is
    its own history, so the parent column masked to the merges before a
    checkpoint is the forest a replay of the log prefix builds."""

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 25), st.integers(0, 25)), max_size=60
        ),
        pair_mode=st.booleans(),
        split=st.integers(0, 60),
    )
    def test_every_mark_matches_the_replayed_prefix(self, pairs, pair_mode, split):
        n = 26
        uf = IntUnionFind(n)
        if pair_mode:
            # Two pair-mode calls: the log column is extended per call.
            for chunk in (pairs[:split], pairs[split:]):
                uf.union_many(
                    np.asarray([a for a, _ in chunk], dtype="<i8"),
                    np.asarray([b for _, b in chunk], dtype="<i8"),
                )
        else:
            for a, b in pairs:
                uf.union(a, b)
        log = reference_merge_log(pairs, n)
        top = uf.checkpoint()
        assert top == len(log) == n - uf.component_count
        every_id = np.arange(n, dtype="<i8")
        for mark in range(top + 1):
            parent = reference_forest_at(log, mark, n)
            assert uf.forest_at(mark).tolist() == parent
            roots = []
            for ident in range(n):
                while parent[ident] != ident:
                    ident = parent[ident]
                roots.append(ident)
            assert uf.find_at(every_id, mark).tolist() == roots
            assert uf.find_at(every_id[::-3], mark).tolist() == roots[::-3]
            assert [tuple(row) for row in uf.log_span(mark, top).tolist()] == (
                log[mark:]
            )
        assert uf.find_at(every_id, top).tolist() == uf.find_many(every_id).tolist()


class TestLogPositionColumnOnFirstUnion:
    """A forest nothing has merged into holds no merge-log position
    column: a past state built with ``from_parents`` costs its parent
    and size columns only, until a union logs into it."""

    def test_from_parents_counts_parent_and_size_only(self):
        uf = IntUnionFind(8)
        for a, b in [(0, 1), (2, 3), (1, 3), (5, 6)]:
            uf.union(a, b)
        past, _roots = IntUnionFind.from_parents(uf.forest_at(uf.checkpoint()))
        assert past.nbytes == past._parent.nbytes + past._size.nbytes == 2 * 8 * 8
        assert past.forest_at(0).tolist() == list(range(8))
        assert past.find_at(np.arange(8, dtype="<i8"), 0).tolist() == list(range(8))
        assert past.copy().nbytes == past.nbytes

    def test_first_union_logs_like_a_fresh_forest(self):
        past, _roots = IntUnionFind.from_parents(np.asarray([0, 0, 2, 2, 4], dtype="<i8"))
        past.ensure(6)
        past.union(4, 5)
        past.union_many(np.asarray([0], dtype="<i8"), np.asarray([2], dtype="<i8"))
        assert past.checkpoint() == 2
        assert past.nbytes > past._parent.nbytes + past._size.nbytes
        assert past.log_span(0, 2).tolist() == [[5, 4], [2, 0]]
        # Before the first logged union the forest is all roots; the
        # parents it was built from are not in its log.
        assert past.forest_at(0).tolist() == list(range(6))
        assert past.forest_at(1).tolist() == [0, 1, 2, 3, 4, 4]
        assert past.forest_at(2).tolist() == [0, 1, 0, 3, 4, 4]
