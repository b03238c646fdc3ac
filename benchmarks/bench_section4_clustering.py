"""§4 clustering accounting: H1 counts, refined H2, naming coverage.

Paper numbers (absolute scale differs — they indexed 12M addresses):
H1 → 5.5M clusters, ≤6,595,564 users; refined H2 → 3,384,179 clusters,
collapsing to 3,383,904 with tags; 2,197 named clusters covering 1.8M
addresses — ×1,600 the hand-tagged set; 20 distinct Mt Gox clusters.
The shapes asserted here: H2 strictly collapses the partition, tags
collapse it further, naming amplifies coverage, and big exchanges leave
multiple named clusters.
"""

from repro import experiments
from repro.core.incremental import IncrementalClusteringEngine


def test_section4_accounting(benchmark, bench_default_world):
    result = benchmark.pedantic(
        experiments.run_section4,
        args=(bench_default_world,),
        rounds=3,
        iterations=1,
    )
    print("\n" + result.report)
    assert result.h2_clusters < result.h1_user_upper_bound
    assert result.h2_clusters_after_tag_collapse <= result.h2_clusters
    assert result.change_addresses_identified > 100
    assert result.named_clusters > 50
    assert result.amplification > 1.0
    assert result.mtgox_cluster_count >= 2  # paper: 20
    # H2 adds recall over H1 without giving up meaningful precision.
    assert result.h2_scores.recall >= result.h1_scores.recall
    assert result.h2_scores.precision > 0.95


def _fresh_engine_answer(index, method: str):
    """The path §4 runs: a fresh engine over the whole chain, one tip
    answer, then detach.  A new engine per call, so no round is served
    from an earlier round's per-height memo."""
    engine = IncrementalClusteringEngine(index)
    try:
        return getattr(engine, method)()
    finally:
        engine.detach()


def test_heuristic1_clustering_speed(benchmark, bench_default_world):
    """Whole-chain clustering, read as the H1-only partition."""
    clustering = benchmark.pedantic(
        _fresh_engine_answer,
        args=(bench_default_world.index, "cluster_h1_as_of"),
        rounds=3,
        iterations=1,
    )
    assert clustering.cluster_count > 0


def test_combined_clustering_speed(benchmark, bench_default_world):
    """Whole-chain clustering, read as H1 + refined H2."""
    clustering = benchmark.pedantic(
        _fresh_engine_answer,
        args=(bench_default_world.index, "cluster_as_of"),
        rounds=3,
        iterations=1,
    )
    assert clustering.h2_result is not None
