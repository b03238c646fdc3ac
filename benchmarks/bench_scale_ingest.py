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

At the large scale, best of ``REPEATS`` streamed ingests, the first
ranked answer after the ingest (the one coalesced aggregate flush plus a
top-10) may take at most ``FIRST_QUERY_CEILING`` of the ingest's own
seconds: a run that touched most clusters settles the tip wholesale
instead of patching it cluster by cluster.

At the large scale it also pins attach-late against streaming, best of
``REPEATS`` each: ``ForensicsService(index)`` on an index already
holding the chain (one catch-up pass rebuilds each block's delta once)
may take no longer than streaming the same chain with every subscriber
attached (``ATTACH_CEILING``).

And it pins history at the large scale: after the ingest and its first
query, ``HISTORY_QUESTIONS`` mixed historical questions (``top_clusters``
and ``cluster_profile`` at ``tip - 5``, ``tip - 37``, ``tip // 2``, then
at random heights) may raise the resident set by at most
``HISTORY_RSS_CEILING`` (current RSS, sampled after each question), and
the first of them may cost at most ``FIRST_QUESTION_CEILING`` times the
median one, each question's seconds taken per address seen by its height:
a past height is built from columns in time linear in its universe, so
this compares like with like and still shows a cold first question.

Scale is env-tunable: ``SCALE_BENCH_BLOCKS`` (default 20000) for the
large scale, ``SCALE_BENCH_SEED_BLOCKS`` (default 600) for the small
one — the bench-smoke CI job runs trimmed, the nightly job runs full.
"""

import gc
import os
import random
import resource
import statistics
import time
from bisect import bisect_right

from repro.chain.index import ChainIndex
from repro.service import ForensicsService, Query
from repro.simulation import large_scale_blocks


SEED_BLOCKS = int(os.environ.get("SCALE_BENCH_SEED_BLOCKS", "600"))
LARGE_BLOCKS = int(os.environ.get("SCALE_BENCH_BLOCKS", "20000"))

FIRST_QUERY = Query("top_clusters", (10, "size"))

FULL_SCALE_BLOCKS = 20_000
"""At or above this block count the address-count check applies."""

ASYMPTOTIC_FLOOR = 0.3
"""Large-scale end-to-end blocks/s must stay within this factor of the
seed scale's — per-block cost may not grow with the address universe."""

ATTACH_CEILING = 1.0
"""Attach-late seconds over streamed-ingest seconds, at the large scale:
catching up on a held chain may cost no more than streaming it."""

FIRST_QUERY_CEILING = 0.15
"""The first ranked answer's seconds over the ingest's, at the large
scale, best of ``REPEATS`` each."""

REPEATS = 3

HISTORY_QUESTIONS = 50

HISTORY_RSS_CEILING = 1.25
"""Resident set across the historical questions over the one before them."""

FIRST_QUESTION_CEILING = 2.0
"""The first historical question's seconds per address over the median
question's."""


def _peak_rss_bytes() -> int:
    """Process high-water RSS (Linux ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss_bytes() -> int:
    """Current resident set, not the high-water mark."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _end_to_end(blocks) -> dict:
    """Full-service ingest of a prebuilt chain: seconds and blocks/s."""
    return _ingest(blocks)[1]


def _ingest(blocks) -> tuple[ForensicsService, dict]:
    """:func:`_end_to_end` that also hands back the service.  ``seconds``
    runs to the end of the first ranked answer, ``ingest_seconds`` to
    the last ``add_block``."""
    index = ChainIndex()
    service = ForensicsService(index, tags=None)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for block in blocks:
            index.add_block(block)
        ingested = time.perf_counter()
        service.answer(FIRST_QUERY)  # the coalesced flush, then a top-10
        end = time.perf_counter()
    finally:
        gc.enable()
    clusters = service.aggregates.cluster_count
    assert clusters > 0
    assert service.engine.height == index.height
    return service, {
        "blocks": len(blocks),
        "addresses": index.address_count,
        "clusters": clusters,
        "seconds": end - start,
        "ingest_seconds": ingested - start,
        "first_query_seconds": end - ingested,
        "blocks_per_second": len(blocks) / (end - start),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def _history(service) -> dict:
    """Ask the historical questions; their RSS and per-address cost."""
    index = service.index
    tip = service.height
    rng = random.Random(0)
    heights = [tip - 5, tip - 37, tip // 2] + [
        rng.randrange(tip) for _ in range(HISTORY_QUESTIONS - 3)
    ]
    before = peak = _rss_bytes()
    seconds, per_address = [], []
    for number, height in enumerate(heights):
        # Ids are first-sight ordered: the addresses seen by ``height``.
        seen = bisect_right(
            range(index.address_count), height,
            key=lambda ident: index.address_by_id(ident).first_seen_height,
        )
        if number % 2:
            address = index.interner.address_of(rng.randrange(seen))
            query = Query("cluster_profile", (address, height))
        else:
            by = ("size", "balance", "activity")[number // 2 % 3]
            query = Query("top_clusters", (10, by, height))
        start = time.perf_counter()
        service.answer(query)
        seconds.append(time.perf_counter() - start)
        per_address.append(seconds[-1] / seen)
        peak = max(peak, _rss_bytes())
    return {
        "questions": len(heights),
        "rss_before_bytes": before,
        "rss_peak_bytes": peak,
        "rss_ratio": peak / before,
        "rss_ceiling": HISTORY_RSS_CEILING,
        "first_seconds": seconds[0],
        "median_seconds": statistics.median(seconds),
        "first_over_median": seconds[0] / statistics.median(seconds),
        "first_over_median_per_address": (
            per_address[0] / statistics.median(per_address)
        ),
        "first_ceiling": FIRST_QUESTION_CEILING,
    }


def _attach_late(blocks) -> float:
    """Seconds for a service to attach to an index already holding
    ``blocks`` and give its first ranked answer, best of ``REPEATS``
    (the index is filled once, with no subscriber attached)."""
    index = ChainIndex()
    for block in blocks:
        index.add_block(block)
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            service = ForensicsService(index, tags=None)
            service.answer(FIRST_QUERY)  # the coalesced flush, then a top-10
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        clusters = service.aggregates.cluster_count
        assert clusters > 0
        assert service.engine.height == index.height
        service.detach()
        del service
    return best


def test_per_block_cost_stays_flat_as_the_universe_grows(bench_report):
    results = {}
    for label, n_blocks in (("seed", SEED_BLOCKS), ("large", LARGE_BLOCKS)):
        blocks = list(large_scale_blocks(n_blocks, seed=0))
        service, scale = _ingest(blocks)
        if label == "large":
            history = _history(service)
        del service
        results[label] = scale
        print(
            f"\n[{label}] {scale['blocks']} blocks, "
            f"{scale['addresses']:,} addresses: "
            f"{scale['blocks_per_second']:,.0f} blocks/s end-to-end, "
            f"peak RSS {scale['peak_rss_bytes'] / 2**20:,.0f} MiB"
        )

    # ``blocks`` is the large chain.  Each streamed service is dropped
    # on return, so the attach-late run never holds two services.
    runs = [results["large"]] + [
        _end_to_end(blocks) for _ in range(REPEATS - 1)
    ]
    streamed = min(run["seconds"] for run in runs)
    first_query = min(run["first_query_seconds"] for run in runs)
    first_ratio = first_query / min(run["ingest_seconds"] for run in runs)
    attached = _attach_late(blocks)
    attach_ratio = attached / streamed
    print(
        f"\n[attach-late] {len(blocks)} blocks: attach {attached:.3f} s, "
        f"streamed {streamed:.3f} s ({attach_ratio:.2f}x)"
    )
    print(
        f"\n[first query] {len(blocks)} blocks: {first_query:.3f} s, "
        f"{first_ratio:.3f}x the ingest"
    )
    print(
        f"\n[history] {history['questions']} questions: RSS "
        f"{history['rss_ratio']:.2f}x, first "
        f"{history['first_seconds'] * 1e3:.1f} ms vs median "
        f"{history['median_seconds'] * 1e3:.1f} ms "
        f"({history['first_over_median']:.2f}x, "
        f"{history['first_over_median_per_address']:.2f}x per address)"
    )

    full_scale = LARGE_BLOCKS >= FULL_SCALE_BLOCKS
    bench_report(
        "scale_ingest",
        {
            "scales": results,
            "full_scale": full_scale,
            "asymptotic_floor": ASYMPTOTIC_FLOOR,
            "attach_late": {
                "blocks": len(blocks),
                "attach_seconds": attached,
                "streamed_seconds": streamed,
                "ratio": attach_ratio,
                "ceiling": ATTACH_CEILING,
            },
            "first_query": {
                "blocks": len(blocks),
                "seconds": first_query,
                "ratio": first_ratio,
                "ceiling": FIRST_QUERY_CEILING,
            },
            "history": history,
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
    # One catch-up pass: attaching late costs no more than streaming.
    assert attach_ratio <= ATTACH_CEILING
    # A bulk ingest's first ranked answer settles the tip wholesale.
    assert first_ratio <= FIRST_QUERY_CEILING
    # History: no state per question kept, no cold first question.
    assert history["rss_ratio"] <= HISTORY_RSS_CEILING
    assert history["first_over_median_per_address"] <= FIRST_QUESTION_CEILING
