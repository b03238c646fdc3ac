"""Super-cluster detection on synthetic and simulated clusterings."""

from repro.core.clustering import Clustering
from repro.core.supercluster import diagnose_superclusters

from tests.helpers import ReferenceUnionFind


def _clustering(unions, items=()):
    uf = ReferenceUnionFind(items)
    for a, b in unions:
        uf.union(a, b)
    return Clustering(uf=uf, heuristics="test")


class TestDiagnosis:
    def test_clean_clustering_has_no_merges(self):
        clustering = _clustering([("a1", "a2"), ("b1", "b2")])
        tags = {"a1": "ServiceA", "b1": "ServiceB"}
        report = diagnose_superclusters(clustering, tags)
        assert report.merged_clusters == []
        assert report.merged_entity_count == 0

    def test_merge_detected(self):
        clustering = _clustering([("a1", "a2"), ("a2", "b1")])
        tags = {"a1": "ServiceA", "b1": "ServiceB"}
        report = diagnose_superclusters(clustering, tags)
        assert len(report.merged_clusters) == 1
        assert report.merged_clusters[0].entities == ("ServiceA", "ServiceB")

    def test_merged_entity_count_spans_clusters(self):
        clustering = _clustering(
            [("x1", "x2"), ("x2", "x3"), ("y1", "y2")]
        )
        tags = {
            "x1": "A", "x2": "B", "x3": "C",
            "y1": "D", "y2": "E",
        }
        report = diagnose_superclusters(clustering, tags)
        assert report.merged_entity_count == 5

    def test_largest_cluster_size(self):
        clustering = _clustering([("a", "b"), ("b", "c")], items=["solo"])
        report = diagnose_superclusters(clustering, {})
        assert report.largest_cluster_size == 3

    def test_untracked_tag_addresses_ignored(self):
        clustering = _clustering([("a", "b")])
        report = diagnose_superclusters(clustering, {"ghost": "X", "a": "Y"})
        assert report.merged_clusters == []


class TestOnSimulatedWorld:
    def test_refined_merges_no_more_than_naive(self, default_world):
        from repro.core.heuristic2 import Heuristic2Config
        from repro.pipeline import AnalystView

        refined = AnalystView.build(default_world)
        naive = AnalystView.build(
            default_world, h2_config=Heuristic2Config.naive()
        )
        tags = refined.tags.as_mapping()
        refined_report = diagnose_superclusters(refined.clustering, tags)
        naive_report = diagnose_superclusters(naive.clustering, tags)
        assert (
            refined_report.merged_entity_count
            <= naive_report.merged_entity_count
        )
