"""Two-scale ingest: the fold kernels' asymptotics, not just the constant.

Every other benchmark runs at the seed scale (hundreds of blocks, ~12k
addresses).  Meiklejohn et al. ran over the real chain — millions of
transactions, >12M addresses — and per-element Python folds that look
fine at seed scale dominate there.  This benchmark ingests the
synthetic high-volume chain (``simulation/largescale.py``) at two
scales and publishes, per scale:

* **end-to-end**: blocks/s with the full service fan-out attached
  (engine + four views + cluster aggregates) and the process peak RSS
  after the run;
* **fold comparison**: the same recorded delta stream replayed through
  kernelized and scalar instances of the balance, activity and H1
  folds, one consumer at a time in a tight loop — ``fold_speedup`` is
  total scalar fold seconds over total kernel fold seconds.  Replay
  (rather than timing inside the live ingest callback) keeps each
  consumer's arrays hot and excludes everything the kernels did not
  touch: bare chain ingest and delta construction are identical in both
  paths.  What is timed is exactly the per-element fold path the
  kernels replaced.  (The cluster aggregates have one fold and no
  scalar twin in ``src/``; their reference is the batch oracle in
  ``tests/helpers.py``.)

Floors pinned at the large scale (≥20k blocks, ≥500k addresses —
trimmed runs pin softer versions):

* ``fold_speedup >= LARGE_SPEEDUP_FLOOR`` — the kernels must beat the
  per-element path by ≥3× where it matters;
* ``large blocks/s >= ASYMPTOTIC_FLOOR × seed blocks/s`` — per-block
  cost must stay near-flat as the address universe grows ~30×: the
  asymptotics, not the constant.

Scale is env-tunable: ``SCALE_BENCH_BLOCKS`` (default 20000) for the
large scale, ``SCALE_BENCH_SEED_BLOCKS`` (default 600) for the small
one — the bench-smoke CI job runs trimmed, the nightly job runs full.
"""

import gc
import os
import resource
import time

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.core.union_find import IntUnionFind
from repro.service import ForensicsService
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks


SEED_BLOCKS = int(os.environ.get("SCALE_BENCH_SEED_BLOCKS", "600"))
LARGE_BLOCKS = int(os.environ.get("SCALE_BENCH_BLOCKS", "20000"))

FULL_SCALE_BLOCKS = 20_000
"""At or above this block count the full-scale floors apply."""

LARGE_SPEEDUP_FLOOR = 3.0
"""Kernel folds must beat the scalar fold path by this factor at full
scale."""

TRIMMED_SPEEDUP_FLOOR = 1.5
"""Softer floor for trimmed (CI smoke) runs, where warm-up and numpy
call overhead are a bigger share of the total."""

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


def _replay(deltas, fn) -> float:
    """Seconds to run ``fn`` over every delta, GC parked."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for delta in deltas:
            fn(delta)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _fold_comparison(blocks) -> dict:
    """Replay one recorded delta stream through kernel/scalar fold twins.

    The chain is ingested once while the shared :class:`BlockDelta`
    objects are recorded; each consumer then replays the stream in its
    own tight loop.
    """
    index = ChainIndex()
    engine = IncrementalClusteringEngine(index)
    deltas = []
    index.subscribe_deltas(deltas.append)
    for block in blocks:
        index.add_block(block)
    engine.detach()

    seconds: dict[str, float] = {}
    empty = ChainIndex()  # fold-only consumers never read the index

    balances_k = BalanceView(empty, follow=False, use_kernels=True)
    balances_s = BalanceView(empty, follow=False, use_kernels=False)
    seconds["balances_kernel"] = _replay(deltas, balances_k._observe_delta)
    seconds["balances_scalar"] = _replay(deltas, balances_s._observe_delta)

    activity_k = ActivityView(empty, follow=False, use_kernels=True)
    activity_s = ActivityView(empty, follow=False, use_kernels=False)
    seconds["activity_kernel"] = _replay(deltas, activity_k._observe_delta)
    seconds["activity_scalar"] = _replay(deltas, activity_s._observe_delta)

    uf_k = IntUnionFind()
    uf_s = IntUnionFind()

    def h1_kernel(delta):
        if delta.max_id >= len(uf_k):
            uf_k.ensure(delta.max_id + 1)
        if len(delta.h1_a):
            uf_k.union_many(delta.h1_a, delta.h1_b)

    def h1_scalar(delta):
        if delta.max_id >= len(uf_s):
            uf_s.ensure(delta.max_id + 1)
        for txd in delta.txs:
            if not txd.is_coinbase and txd.input_ids:
                uf_s.union_many(txd.input_ids)

    seconds["h1_kernel"] = _replay(deltas, h1_kernel)
    seconds["h1_scalar"] = _replay(deltas, h1_scalar)

    # The kernels must change nothing but speed: spot-check twin state.
    assert balances_k.supply == balances_s.supply
    assert balances_k._balances.tolist() == balances_s._balances.tolist()
    assert activity_k._tx_counts.tolist() == activity_s._tx_counts.tolist()
    assert (
        uf_k.component_count
        == uf_s.component_count
        == engine._uf.component_count
    )

    scalar = sum(t for name, t in seconds.items() if name.endswith("scalar"))
    kernel = sum(t for name, t in seconds.items() if name.endswith("kernel"))
    return {
        "fold_seconds": seconds,
        "scalar_fold_seconds": scalar,
        "kernel_fold_seconds": kernel,
        "fold_speedup": scalar / kernel,
    }


def test_ingest_scales_with_kernelized_folds(bench_report):
    results = {}
    for label, n_blocks in (("seed", SEED_BLOCKS), ("large", LARGE_BLOCKS)):
        blocks = list(large_scale_blocks(n_blocks, seed=0))
        scale = _end_to_end(blocks)
        scale.update(_fold_comparison(blocks))
        results[label] = scale
        print(
            f"\n[{label}] {scale['blocks']} blocks, "
            f"{scale['addresses']:,} addresses: "
            f"{scale['blocks_per_second']:,.0f} blocks/s end-to-end, "
            f"fold speedup ×{scale['fold_speedup']:.2f}, "
            f"peak RSS {scale['peak_rss_bytes'] / 2**20:,.0f} MiB"
        )

    full_scale = LARGE_BLOCKS >= FULL_SCALE_BLOCKS
    speedup_floor = (
        LARGE_SPEEDUP_FLOOR if full_scale else TRIMMED_SPEEDUP_FLOOR
    )
    bench_report(
        "scale_ingest",
        {
            "scales": results,
            "full_scale": full_scale,
            "speedup_floor": speedup_floor,
            "asymptotic_floor": ASYMPTOTIC_FLOOR,
        },
    )

    if full_scale:
        # The paper's working band: >500k addresses actually interned.
        assert results["large"]["addresses"] >= 500_000
    assert results["large"]["fold_speedup"] >= speedup_floor
    # Asymptotics: per-block cost must stay near-flat while the address
    # universe grows ~30×.
    assert (
        results["large"]["blocks_per_second"]
        >= ASYMPTOTIC_FLOOR * results["seed"]["blocks_per_second"]
    )
