"""The actor economy generates a world in linear time, byte for byte.

The economy (actors, attack, ground truth) is the one generator whose
chains carry owners, tags and H2 labels, so the paper's claims can only
run as far as it scales.  Asserted:

* the two bench worlds are byte-identical to their pinned digests
  (``tests/golden/worlds.json``; the tier-1 worlds are checked by
  ``tests/simulation/test_world_golden.py``);
* ``default_economy``'s seconds per block at 1,600 blocks are at most
  ``PER_BLOCK_GROWTH_BOUND`` × those at 400.
"""

import gc
import time

import pytest

from repro.simulation import scenarios
from tests.helpers import golden_world_digests, world_digest

SHORT_BLOCKS = 400
LONG_BLOCKS = 1_600
ROUNDS = 3

PER_BLOCK_GROWTH_BOUND = 1.3
"""Seconds per block at ``LONG_BLOCKS`` over those at ``SHORT_BLOCKS``.
Both sides are the production generator, so the ratio does not move
with the host.  A generator that is linear per block reads ≈1; one with
a per-block scan of the chain so far (a prevout lookup over every mined
block, a tag check over every tagged address, a retry of every queued
payout) grows with the chain: the quadratic generator read ≈1.75× at
1,200 blocks against 400 on a 2-vCPU Xeon container.

The rounds alternate between the two lengths, so a slow spell of a
shared host lands on both sides, and each side keeps its best round,
as scheduler noise only ever adds time.  The collector is off while
timed: a full pass walks the whole world held in memory, and the
collector took ≈0.33 ms per block at 1,600 blocks against ≈0.08 at 400
(no full pass yet), a growth that says nothing about the generator's
own loops."""


def _seconds_per_block() -> tuple[float, float]:
    best = {SHORT_BLOCKS: float("inf"), LONG_BLOCKS: float("inf")}
    for _ in range(ROUNDS):
        for n_blocks in best:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                scenarios.default_economy(0, n_blocks=n_blocks)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            best[n_blocks] = min(best[n_blocks], elapsed / n_blocks)
    return best[SHORT_BLOCKS], best[LONG_BLOCKS]


@pytest.mark.parametrize(
    "name", ["bench_silkroad_world", "bench_theft_world"]
)
def test_bench_world_matches_golden(name, request):
    world = request.getfixturevalue(name)
    assert world_digest(world) == golden_world_digests()[name]


def test_world_generation_is_linear_per_block(bench_report):
    short, long = _seconds_per_block()
    growth = long / short
    print(
        f"\ndefault_economy: {short * 1e3:.2f} ms/block at {SHORT_BLOCKS}, "
        f"{long * 1e3:.2f} ms/block at {LONG_BLOCKS}; "
        f"growth ×{growth:.2f}, bound ×{PER_BLOCK_GROWTH_BOUND}"
    )
    bench_report(
        "world_generation",
        {
            "short_blocks": SHORT_BLOCKS,
            "long_blocks": LONG_BLOCKS,
            "short_ms_per_block": short * 1e3,
            "long_ms_per_block": long * 1e3,
            "per_block_growth": growth,
            "bound": PER_BLOCK_GROWTH_BOUND,
        },
    )
    assert growth <= PER_BLOCK_GROWTH_BOUND, (
        f"seconds per block grew ×{growth:.2f} from {SHORT_BLOCKS} to "
        f"{LONG_BLOCKS} blocks, over the ×{PER_BLOCK_GROWTH_BOUND} bound: "
        f"something in the generator scans the chain (or the tags, or a "
        f"wallet's coins) once per block"
    )
