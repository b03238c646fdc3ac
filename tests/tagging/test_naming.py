"""Cluster naming: propagation, conflicts, coverage accounting, and
the columnar winner rule against its one-``min`` oracle."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.clustering import Clustering
from repro.tagging.naming import ClusterNaming, TagColumns, cluster_names
from repro.tagging.tags import SOURCE_OWN, SOURCE_PUBLIC, Tag, TagStore, make_tag

from tests.helpers import ReferenceUnionFind, top_entity


def _clustering(groups):
    uf = ReferenceUnionFind()
    for group in groups:
        uf.union_all(group)
    return Clustering(uf=uf, heuristics="test")


class TestNaming:
    def test_transitive_taint(self):
        clustering = _clustering([["a1", "a2", "a3"]])
        tags = TagStore([make_tag("a1", "Mt Gox")])
        naming = ClusterNaming(clustering, tags)
        assert naming.name_of_address("a3") == "Mt Gox"
        assert naming.name_of_address("unknown") is None

    def test_confidence_weighted_vote(self):
        clustering = _clustering([["x1", "x2", "x3"]])
        tags = TagStore(
            [
                make_tag("x1", "Noise", SOURCE_PUBLIC),
                make_tag("x2", "Signal", SOURCE_OWN),
            ]
        )
        naming = ClusterNaming(clustering, tags)
        cluster = naming.named_clusters()[0]
        assert cluster.name == "Signal"
        assert cluster.has_conflict
        assert "Noise" in cluster.conflicting_entities

    def test_many_public_tags_outvote_one(self):
        clustering = _clustering([["y1", "y2", "y3", "y4"]])
        tags = TagStore(
            [
                make_tag("y1", "Popular", SOURCE_PUBLIC),
                make_tag("y2", "Popular", SOURCE_PUBLIC),
                make_tag("y3", "Popular", SOURCE_PUBLIC),
                make_tag("y4", "Lonely", SOURCE_PUBLIC),
            ]
        )
        naming = ClusterNaming(clustering, tags)
        assert naming.named_clusters()[0].name == "Popular"

    def test_clusters_named_per_entity(self):
        clustering = _clustering([["g1", "g2"], ["h1", "h2"]])
        tags = TagStore([make_tag("g1", "Gox"), make_tag("h1", "Gox")])
        naming = ClusterNaming(clustering, tags)
        assert len(naming.clusters_named("Gox")) == 2

    def test_report_amplification(self):
        clustering = _clustering([["p1", "p2", "p3", "p4", "p5"]])
        tags = TagStore([make_tag("p1", "P")])
        report = ClusterNaming(clustering, tags).report()
        assert report.named_cluster_count == 1
        assert report.named_address_count == 5
        assert report.hand_tagged_address_count == 1
        assert report.amplification == 5.0

    def test_naming_on_simulated_world_is_accurate(self, default_view):
        """Propagated names should rarely contradict ground truth."""
        naming = default_view.naming
        gt = default_view.world.ground_truth
        checked = wrong = 0
        for cluster in naming.named_clusters():
            members = [
                a
                for a in default_view.clustering.uf.iter_items()
                if default_view.clustering.uf.find(a) == cluster.root
            ]
            for address in members[:50]:
                owner = gt.owner_of(address)
                if owner is None:
                    continue
                checked += 1
                if owner != cluster.name:
                    wrong += 1
        assert checked > 100
        assert wrong / checked < 0.05


def _oracle(keys, tags):
    """Per cluster key >= 0, :func:`top_entity` over its tags'
    confidences summed left to right in ``all_tags`` order."""
    weights = {}
    for key, tag in zip(keys, tags.all_tags()):
        if key >= 0:
            entity_weights = weights.setdefault(key, {})
            entity_weights[tag.entity] = (
                entity_weights.get(tag.entity, 0.0) + tag.confidence
            )
    return {key: top_entity(w) for key, w in weights.items()}


_TAG_ROWS = st.lists(
    st.tuples(
        st.integers(-1, 5),  # the tag's cluster key; -1: in no cluster
        st.integers(0, 4),  # its address (shared addresses reorder tags)
        st.sampled_from(["A", "B", "C"]),
        # Sums of these depend on their order: 0.1 + 0.2 + 0.3 is not
        # 0.3 + 0.2 + 0.1, and 0.5 + 0.5 ties 1.0.
        st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.6, 1.0]),
    ),
    max_size=30,
)


class TestClusterNames:
    @given(rows=_TAG_ROWS)
    @example(
        rows=[(0, 0, "B", 0.1), (0, 1, "B", 0.2), (0, 2, "B", 0.3), (0, 3, "A", 0.6)]
    )
    @example(rows=[(2, 0, "B", 0.5), (2, 1, "B", 0.5), (2, 2, "A", 1.0)])
    def test_equals_the_left_to_right_oracle(self, rows):
        """Tags on a shared address come out of ``all_tags`` grouped by
        address, so the sums run in that order, not in ``rows``'."""
        tags = TagStore(
            Tag(f"addr{address}", entity, "user", confidence)
            for _key, address, entity, confidence in rows
        )
        keys = [key for key, *_tag in rows]  # one per all_tags row
        assert cluster_names(keys, TagColumns(tags)) == _oracle(keys, tags)

    def test_the_sum_is_taken_in_tag_order(self):
        """``B``'s tags sum to 0.6000000000000001 left to right, more
        than ``A``'s 0.6; summed right to left they would tie, and the
        tie would go to ``A`` by name."""
        tags = TagStore(
            [Tag(f"b{k}", "B", "user", c) for k, c in enumerate((0.1, 0.2, 0.3))]
            + [Tag("a", "A", "user", 0.6)]
        )
        assert cluster_names([7, 7, 7, 7], TagColumns(tags)) == {7: "B"}

    def test_ids_resolve_as_the_interner_sees_addresses(self):
        tags = TagStore([make_tag("x", "X"), make_tag("y", "Y")])
        columns = TagColumns(tags)
        seen = {"y": 3}
        assert columns.ids(seen.get).tolist() == [-1, 3]
        seen["x"] = 8
        assert columns.ids(seen.get).tolist() == [8, 3]
        assert cluster_names(columns.ids(seen.get), columns) == {8: "X", 3: "Y"}
