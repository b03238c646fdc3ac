"""Two-scale ingest: the asymptotics, not just the constant.

Every other benchmark runs at the seed scale (hundreds of blocks, ~12k
addresses).  Meiklejohn et al. ran over the real chain — millions of
transactions, >12M addresses — and per-block costs that look fine at
seed scale dominate there.  This benchmark ingests the synthetic
high-volume chain (``simulation/largescale.py``) at two scales with the
full service fan-out attached (engine + four views + cluster
aggregates) and publishes, per scale, blocks/s and the process peak RSS
after the run.

One floor is pinned: ``large blocks/s >= ASYMPTOTIC_FLOOR × seed
blocks/s`` — per-block cost must stay near-flat as the address universe
grows ~30×.  (That each numpy fold equals the per-element loop it
replaced is a test, ``tests/service/test_fold_kernels.py``; what the
folds cost is ``service.views.*.fold_s`` in ``benchmarks/e2e``.)

Scale is env-tunable: ``SCALE_BENCH_BLOCKS`` (default 20000) for the
large scale, ``SCALE_BENCH_SEED_BLOCKS`` (default 600) for the small
one — the bench-smoke CI job runs trimmed, the nightly job runs full.
"""

import gc
import os
import resource
import time

from repro.chain.index import ChainIndex
from repro.service import ForensicsService
from repro.simulation import large_scale_blocks


SEED_BLOCKS = int(os.environ.get("SCALE_BENCH_SEED_BLOCKS", "600"))
LARGE_BLOCKS = int(os.environ.get("SCALE_BENCH_BLOCKS", "20000"))

FULL_SCALE_BLOCKS = 20_000
"""At or above this block count the address-count check applies."""

ASYMPTOTIC_FLOOR = 0.3
"""Large-scale end-to-end blocks/s must stay within this factor of the
seed scale's — per-block cost may not grow with the address universe."""


def _peak_rss_bytes() -> int:
    """Process high-water RSS (Linux ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _end_to_end(blocks) -> dict:
    """Full-service ingest of a prebuilt chain: seconds and blocks/s."""
    index = ChainIndex()
    service = ForensicsService(index, tags=None)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for block in blocks:
            index.add_block(block)
        clusters = service.aggregates.cluster_count  # coalesced flush
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    assert clusters > 0
    assert service.engine.height == index.height
    return {
        "blocks": len(blocks),
        "addresses": index.address_count,
        "clusters": clusters,
        "seconds": seconds,
        "blocks_per_second": len(blocks) / seconds,
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def test_per_block_cost_stays_flat_as_the_universe_grows(bench_report):
    results = {}
    for label, n_blocks in (("seed", SEED_BLOCKS), ("large", LARGE_BLOCKS)):
        scale = _end_to_end(list(large_scale_blocks(n_blocks, seed=0)))
        results[label] = scale
        print(
            f"\n[{label}] {scale['blocks']} blocks, "
            f"{scale['addresses']:,} addresses: "
            f"{scale['blocks_per_second']:,.0f} blocks/s end-to-end, "
            f"peak RSS {scale['peak_rss_bytes'] / 2**20:,.0f} MiB"
        )

    full_scale = LARGE_BLOCKS >= FULL_SCALE_BLOCKS
    bench_report(
        "scale_ingest",
        {
            "scales": results,
            "full_scale": full_scale,
            "asymptotic_floor": ASYMPTOTIC_FLOOR,
        },
    )

    if full_scale:
        # The paper's working band: >500k addresses actually interned.
        assert results["large"]["addresses"] >= 500_000
    # Asymptotics: per-block cost must stay near-flat while the address
    # universe grows ~30×.
    assert (
        results["large"]["blocks_per_second"]
        >= ASYMPTOTIC_FLOOR * results["seed"]["blocks_per_second"]
    )
