"""Clustering quality metrics against simulation ground truth.

The paper could not measure clustering accuracy — it had no ground
truth.  The simulator does, so we report a standard partition-comparison
metric:

**pairwise precision / recall / F1** over pairs of addresses: a pair is
a true positive when the clustering puts two same-owner addresses
together.  Computed exactly via cluster-label contingency counts (no
O(n²) pair enumeration).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.clustering import Clustering
from ..simulation.ground_truth import GroundTruth


@dataclass(frozen=True)
class PairwiseScores:
    """Pairwise precision/recall over a clustering vs ground truth."""

    true_pairs: int
    predicted_pairs: int
    correct_pairs: int

    @property
    def precision(self) -> float:
        """Of the pairs the clustering joined, how many share an owner."""
        if not self.predicted_pairs:
            return 1.0
        return self.correct_pairs / self.predicted_pairs

    @property
    def recall(self) -> float:
        """Of the pairs sharing an owner, how many the clustering joined."""
        if not self.true_pairs:
            return 1.0
        return self.correct_pairs / self.true_pairs

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0:
            return 0.0
        return 2 * p * r / (p + r)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def pairwise_scores(
    clustering: Clustering, ground_truth: GroundTruth
) -> PairwiseScores:
    """Exact pairwise scores via the cluster×owner contingency table."""
    cluster_sizes: Counter = Counter()
    owner_sizes: Counter = Counter()
    cell_sizes: Counter = Counter()
    for address in clustering.uf.iter_items():
        owner = ground_truth.owner_of(address)
        if owner is None:
            continue
        root = clustering.uf.find(address)
        cluster_sizes[root] += 1
        owner_sizes[owner] += 1
        cell_sizes[(root, owner)] += 1
    correct = sum(_pairs(n) for n in cell_sizes.values())
    predicted = sum(_pairs(n) for n in cluster_sizes.values())
    true = sum(_pairs(n) for n in owner_sizes.values())
    return PairwiseScores(
        true_pairs=true, predicted_pairs=predicted, correct_pairs=correct
    )


@dataclass(frozen=True)
class ClusteringComparison:
    """Side-by-side scores for two clusterings (e.g. H1 vs H1+H2)."""

    label_a: str
    label_b: str
    scores_a: PairwiseScores
    scores_b: PairwiseScores


def compare_clusterings(
    clustering_a: Clustering,
    clustering_b: Clustering,
    ground_truth: GroundTruth,
    *,
    label_a: str = "a",
    label_b: str = "b",
) -> ClusteringComparison:
    """Score two clusterings against the same ground truth."""
    return ClusteringComparison(
        label_a=label_a,
        label_b=label_b,
        scores_a=pairwise_scores(clustering_a, ground_truth),
        scores_b=pairwise_scores(clustering_b, ground_truth),
    )
