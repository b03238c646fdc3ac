"""Cluster growth at every height: streaming pass vs naive re-clustering.

The temporal question behind §4 ("what did the clustering look like as
of height h?") used to cost a full H1+H2 re-run per cutoff.  The
incremental engine answers it for *all* heights from one chain pass plus
one forward sweep of the merge log.  Asserted shape: the series agrees
with batch ``cluster(as_of_height=h)`` wherever we spot-check it, grows
monotonically in addresses, and one height of the series costs a small,
pinned fraction of one batch height.
"""

import gc
import time

from repro import experiments
from repro.core.clustering import ClusteringEngine
from repro.core.incremental import IncrementalClusteringEngine
from repro.pipeline import AnalystView


SERIES_SHARE_BOUND = 1 / 125
"""Series seconds per height over batch seconds per height.  Both sides
do the same job (a cluster count as of ``h``), the series in the
production engine and the batch in the reference engine, so the ratio
does not move with the host.  On the 600-block default world
(2-vCPU Xeon container) the series reads 1/144–1/186 of a batch height
(0.36–0.42 ms against 54–75 ms); restoring a scalar ``union`` loop
over each height's open links reads 1/106–1/115, which this bound
refuses.  Best-of-N on both sides strips scheduler noise, which only
ever adds time."""

SERIES_ROUNDS = 9
BATCH_ROUNDS = 3
"""Each batch round re-clusters five heights (≈0.3 s), a series round is
one 600-height sweep (≈0.25 s)."""


def _min_seconds(run, rounds) -> float:
    """Best-of-``rounds`` wall clock of ``run()``, GC off while timed."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def _batch_engine(view) -> ClusteringEngine:
    """The batch reference engine, configured like the analyst's view."""
    return ClusteringEngine(
        view.world.index,
        h2_config=view.h2_config,
        dice_addresses=view.dice_addresses,
    )


def test_cluster_timeseries_single_pass(benchmark, bench_default_world):
    result = benchmark.pedantic(
        experiments.run_cluster_timeseries,
        args=(bench_default_world,),
        rounds=3,
        iterations=1,
    )
    print("\n" + result.report)
    index = bench_default_world.index
    assert len(result.points) == index.height + 1
    addresses = [p.address_count for p in result.points]
    assert addresses == sorted(addresses)
    assert addresses[-1] == index.address_count
    # H2 only ever collapses the H1 partition.
    assert all(p.clusters <= p.h1_clusters for p in result.points)
    # The tip of the series is the batch engine's full-chain answer.
    view = AnalystView.build(bench_default_world)
    batch = _batch_engine(view)
    assert result.final_clusters == batch.cluster().cluster_count
    assert result.final_h1_clusters == batch.cluster_h1_only().cluster_count


def test_incremental_beats_naive_per_height_loop(bench_default_world):
    """One height of the every-height series must cost at most
    ``SERIES_SHARE_BOUND`` of re-clustering one height from scratch."""
    view = AnalystView.build(bench_default_world)
    index = bench_default_world.index
    engine = IncrementalClusteringEngine(
        index, h2_config=view.h2_config, dice_addresses=view.dice_addresses
    )
    series = engine.cluster_count_series()
    batch_engine = _batch_engine(view)
    sample_heights = list(range(0, index.height + 1, max(1, index.height // 4)))
    for height in sample_heights:
        batch = batch_engine.cluster(as_of_height=height)
        assert batch.cluster_count == series[height].clusters, height
        assert batch.address_count == series[height].address_count, height

    series_per_height = _min_seconds(
        engine.cluster_count_series, SERIES_ROUNDS
    ) / len(series)
    batch_per_height = _min_seconds(
        lambda: [
            batch_engine.cluster(as_of_height=height)
            for height in sample_heights
        ],
        BATCH_ROUNDS,
    ) / len(sample_heights)
    share = series_per_height / batch_per_height
    print(
        f"\nseries: {series_per_height * 1e3:.3f} ms per height "
        f"({len(series)} heights); batch: {batch_per_height * 1e3:.1f} ms "
        f"per height ({len(sample_heights)} heights); share 1/{1 / share:.0f}, "
        f"bound 1/{1 / SERIES_SHARE_BOUND:.0f}"
    )
    assert share <= SERIES_SHARE_BOUND, (
        f"one series height costs 1/{1 / share:.0f} of a batch height, "
        f"over the 1/{1 / SERIES_SHARE_BOUND:.0f} bound: the per-height "
        f"overlay count lost its kernel"
    )
