"""Telemetry overhead: instrumented ingest must be nearly free.

The observability layer's contract (``src/repro/obs/``): every hot-path
instrument site is guarded by one ``metrics.enabled`` attribute check,
so a disabled registry (or the shared ``NULL_REGISTRY``) costs nothing
measurable, and the enabled path costs a handful of ``perf_counter``
calls and dict-free histogram observes per block.  Two costs are
pinned against the same full-fan-out ingest (service attached, GC off,
best-of-``REPEATS`` with the three modes interleaved, so host drift
lands on all of them):

* ``disabled_ratio`` — ingest with a ``MetricsRegistry(enabled=False)``
  attached over ingest with no registry at all, bounded by
  ``DISABLED_OVERHEAD_BOUND`` (≤1.01×: the no-op path is one bool
  check per site).
* ``enabled_added_us_per_block`` — what full instrumentation adds to
  one block's ingest, bounded by ``ENABLED_ADDED_US_BOUND``.  It is a
  fixed number of instrument updates per block (≈20 µs: ~16 histogram /
  counter updates and one flight span), so it is pinned as that, not as
  a ratio: the ≤1.05× it used to be pinned at held while a block took
  350 µs to ingest and stopped holding — with the instrument sites
  untouched — once a block took 180 µs.  ``enabled_ratio`` is still
  reported.

The instrumented run also proves *sum consistency*: the per-stage
ingest histograms (index walk + delta build + per-subscriber fan-out)
must account for at least ``STAGE_COVERAGE_FLOOR`` of the measured
ingest wall clock — the breakdown is trustworthy, not decorative.

Published as ``BENCH_obs_overhead.json``.
"""

import gc
import time

from repro.chain.index import ChainIndex
from repro.obs import MetricsRegistry
from repro.service import ForensicsService


DISABLED_OVERHEAD_BOUND = 1.01
ENABLED_ADDED_US_BOUND = 40.0
STAGE_COVERAGE_FLOOR = 0.90
REPEATS = 5


def _warm_world(world) -> None:
    """First-touch script extraction belongs to no timed path."""
    for block in world.blocks:
        for tx in block.transactions:
            for out in tx.outputs:
                out.address


def _ingest_seconds(world, metrics) -> tuple[float, MetricsRegistry | None]:
    """One full-fan-out ingest (engine + views + aggregates attached),
    timed with GC off; ``metrics`` is attached via the service when
    given."""
    attack = world.extras.get("attack")
    tags = attack.tags if attack is not None else None
    index = ChainIndex()
    service = ForensicsService(index, tags=tags, metrics=metrics)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for block in world.blocks:
            index.add_block(block)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert service.engine.height == index.height
    return elapsed, metrics


def test_telemetry_overhead_within_bounds(bench_default_world, bench_report):
    world = bench_default_world
    n_blocks = world.index.height + 1
    _warm_world(world)

    # Minimum wall clock per mode over interleaved rounds; the last
    # enabled run's own ``(wall clock, registry)`` feed the
    # stage-coverage check (each run gets its own registry, so its
    # totals decompose exactly one run's wall clock).
    baseline = disabled = enabled = float("inf")
    for _ in range(REPEATS):
        baseline = min(baseline, _ingest_seconds(world, None)[0])
        disabled = min(
            disabled, _ingest_seconds(world, MetricsRegistry(enabled=False))[0]
        )
        last_wall, registry = _ingest_seconds(world, MetricsRegistry())
        enabled = min(enabled, last_wall)

    disabled_ratio = disabled / baseline
    enabled_ratio = enabled / baseline
    enabled_added_us = (enabled - baseline) / n_blocks * 1e6

    # Sum consistency: the per-stage ingest histograms (index walk +
    # delta build + per-subscriber fan-out) of the last enabled run
    # must cover ≥90% of that same run's measured wall clock.
    stage_names = (
        "ingest.index_seconds",
        "ingest.delta_build_seconds",
        "ingest.fanout_seconds",
    )
    stage_seconds = {
        name: registry.total_seconds(name) for name in stage_names
    }
    stage_total = sum(stage_seconds.values())
    coverage = stage_total / last_wall

    print(
        f"\n{n_blocks} blocks, best of {REPEATS}:\n"
        f"  uninstrumented: {baseline:.3f}s\n"
        f"  disabled registry: {disabled:.3f}s (×{disabled_ratio:.3f}, "
        f"bound ×{DISABLED_OVERHEAD_BOUND})\n"
        f"  enabled registry:  {enabled:.3f}s (×{enabled_ratio:.3f}, "
        f"+{enabled_added_us:.1f} µs/block, bound "
        f"{ENABLED_ADDED_US_BOUND:.0f})\n"
        f"  stage coverage: {coverage:.1%} of wall clock "
        f"(floor {STAGE_COVERAGE_FLOOR:.0%})"
    )
    bench_report(
        "obs_overhead",
        {
            "blocks": n_blocks,
            "repeats": REPEATS,
            "baseline_seconds": baseline,
            "disabled_seconds": disabled,
            "enabled_seconds": enabled,
            "disabled_ratio": disabled_ratio,
            "enabled_ratio": enabled_ratio,
            "enabled_added_us_per_block": enabled_added_us,
            "disabled_bound": DISABLED_OVERHEAD_BOUND,
            "enabled_added_us_bound": ENABLED_ADDED_US_BOUND,
            "stage_seconds": stage_seconds,
            "stage_coverage": coverage,
            "stage_coverage_floor": STAGE_COVERAGE_FLOOR,
        },
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_BOUND, (
        f"disabled-registry ingest ×{disabled_ratio:.3f} exceeds "
        f"×{DISABLED_OVERHEAD_BOUND}: a hot site is doing work beyond "
        f"the enabled-flag check"
    )
    assert enabled_added_us <= ENABLED_ADDED_US_BOUND, (
        f"instrumentation adds {enabled_added_us:.1f} µs per block, over "
        f"{ENABLED_ADDED_US_BOUND:.0f}: an instrument site got expensive"
    )
    assert coverage >= STAGE_COVERAGE_FLOOR, (
        f"stage histograms cover only {coverage:.1%} of the measured "
        f"ingest wall clock; a stage is going untimed"
    )
