"""Cluster naming: propagation, conflicts, coverage accounting."""

from repro.core.clustering import Clustering
from repro.tagging.naming import ClusterNaming
from repro.tagging.tags import SOURCE_OWN, SOURCE_PUBLIC, TagStore, make_tag

from tests.helpers import ReferenceUnionFind


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

    def test_addresses_of_entity(self):
        clustering = _clustering([["k1", "k2"], ["m1"]])
        tags = TagStore([make_tag("k1", "K")])
        naming = ClusterNaming(clustering, tags)
        assert naming.addresses_of("K") == {"k1", "k2"}
        assert naming.addresses_of("nobody") == set()

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
