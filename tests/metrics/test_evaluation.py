"""Clustering metrics: exact small cases plus world-level sanity."""

import pytest

from repro.core.clustering import Clustering
from repro.metrics.evaluation import (
    cluster_purity,
    compare_clusterings,
    entity_fragmentation,
    pairwise_scores,
)
from repro.simulation.ground_truth import GroundTruth

from tests.helpers import ReferenceUnionFind


def _gt():
    gt = GroundTruth()
    gt.register_entity("A", "users")
    gt.register_entity("B", "users")
    for a in ("a1", "a2", "a3"):
        gt.register_address(a, "A")
    for b in ("b1", "b2"):
        gt.register_address(b, "B")
    return gt


def _clustering(groups, extra=()):
    uf = ReferenceUnionFind(extra)
    for group in groups:
        uf.union_all(group)
    return Clustering(uf=uf, heuristics="test")


class TestPairwise:
    def test_perfect_clustering(self):
        clustering = _clustering([["a1", "a2", "a3"], ["b1", "b2"]])
        scores = pairwise_scores(clustering, _gt())
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0
        assert scores.true_pairs == 4  # C(3,2)+C(2,2) = 3+1

    def test_underclustering_loses_recall(self):
        clustering = _clustering([["a1", "a2"]], extra=["a3", "b1", "b2"])
        scores = pairwise_scores(clustering, _gt())
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(1 / 4)

    def test_overclustering_loses_precision(self):
        clustering = _clustering([["a1", "a2", "a3", "b1", "b2"]])
        scores = pairwise_scores(clustering, _gt())
        assert scores.recall == 1.0
        # C(5,2)=10 predicted pairs, 4 correct.
        assert scores.precision == pytest.approx(0.4)

    def test_unknown_addresses_ignored(self):
        clustering = _clustering([["a1", "a2", "mystery"]])
        scores = pairwise_scores(clustering, _gt())
        assert scores.predicted_pairs == 1  # only the a1-a2 pair counted

    def test_empty_edge_cases(self):
        clustering = _clustering([])
        scores = pairwise_scores(clustering, _gt())
        assert scores.precision == 1.0
        assert scores.recall == 1.0 if scores.true_pairs == 0 else True


class TestFragmentationAndPurity:
    def test_fragmentation(self):
        clustering = _clustering([["a1", "a2"]], extra=["a3"])
        frag = entity_fragmentation(clustering, _gt(), "A")
        assert frag.cluster_count == 2
        assert frag.largest_cluster_share == pytest.approx(2 / 3)

    def test_fragmentation_unknown_entity(self):
        clustering = _clustering([["a1"]])
        frag = entity_fragmentation(clustering, _gt(), "ghost")
        assert frag.address_count == 0
        assert frag.largest_cluster_share == 0.0

    def test_purity_perfect(self):
        clustering = _clustering([["a1", "a2", "a3"], ["b1", "b2"]])
        purity = cluster_purity(clustering, _gt())
        assert purity.weighted_purity == 1.0
        assert purity.impure_clusters == 0

    def test_purity_mixed_cluster(self):
        clustering = _clustering([["a1", "a2", "b1"]])
        purity = cluster_purity(clustering, _gt())
        assert purity.weighted_purity == pytest.approx(2 / 3)
        assert purity.impure_clusters == 1


class TestComparison:
    def test_compare(self):
        worse = _clustering([["a1", "a2"]], extra=["a3", "b1", "b2"])
        better = _clustering([["a1", "a2", "a3"], ["b1", "b2"]])
        comparison = compare_clusterings(worse, better, _gt())
        assert comparison.recall_gain > 0
        assert comparison.precision_cost == 0.0


class TestOnWorld:
    def test_h2_beats_h1_on_recall_without_big_precision_loss(
        self, default_view
    ):
        gt = default_view.world.ground_truth
        comparison = compare_clusterings(
            default_view.clustering_h1,
            default_view.clustering,
            gt,
            label_a="H1",
            label_b="H1+H2",
        )
        assert comparison.scores_b.recall >= comparison.scores_a.recall
        assert comparison.scores_b.precision > 0.95
