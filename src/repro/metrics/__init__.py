"""Evaluation metrics: clustering quality vs simulation ground truth."""

from .evaluation import (
    ClusteringComparison,
    PairwiseScores,
    compare_clusterings,
    pairwise_scores,
)

__all__ = [
    "ClusteringComparison",
    "PairwiseScores",
    "compare_clusterings",
    "pairwise_scores",
]
