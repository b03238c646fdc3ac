"""The paper's core contribution: address clustering heuristics.

* :mod:`~repro.core.heuristic1` — multi-input co-spend clustering (§4.1,
  prior work);
* :mod:`~repro.core.heuristic2` — one-time change identification with
  the §4.2 refinement ladder (the paper's novel heuristic);
* :mod:`~repro.core.clustering` — the combined engine;
* :mod:`~repro.core.incremental` — streaming per-block clustering with
  checkpointed time-travel (one chain pass, every height);
* :mod:`~repro.core.fp_estimation` — temporal-replay false-positive
  estimation (13% → 1% → 0.28% → 0.17% in the paper);
* :mod:`~repro.core.supercluster` — detection of wrongly merged service
  clusters (the Mt.Gox/Instawallet/BitPay/Silk Road giant).
"""

from .clustering import Clustering, ClusteringEngine, InternedPartition
from .fp_estimation import FalsePositiveEstimator, FPEstimate
from .heuristic1 import H1Statistics, cluster_h1, cluster_h1_ids, h1_statistics
from .incremental import ClusterSnapshot, IncrementalClusteringEngine
from .heuristic2 import (
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    ChangeLabel,
    Heuristic2,
    Heuristic2Config,
    Heuristic2Result,
    dice_addresses_from_tags,
    find_candidate,
)
from .supercluster import (
    MergedClusterInfo,
    SuperClusterReport,
    diagnose_superclusters,
)
from .union_find import IntUnionFind

__all__ = [
    "ChangeLabel",
    "ClusterSnapshot",
    "Clustering",
    "ClusteringEngine",
    "FPEstimate",
    "FalsePositiveEstimator",
    "H1Statistics",
    "Heuristic2",
    "Heuristic2Config",
    "Heuristic2Result",
    "IncrementalClusteringEngine",
    "IntUnionFind",
    "InternedPartition",
    "MergedClusterInfo",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "SuperClusterReport",
    "cluster_h1",
    "cluster_h1_ids",
    "diagnose_superclusters",
    "dice_addresses_from_tags",
    "find_candidate",
    "h1_statistics",
]
