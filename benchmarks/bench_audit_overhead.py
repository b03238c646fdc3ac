"""Invariant-audit overhead: continuous checking must stay cheap.

The auditor's contract (``src/repro/obs/audit.py``): an attached
:class:`~repro.obs.InvariantAuditor` with ``audit_every=0`` costs one
modulo check per block, and a production cadence (``audit_every=16``)
pays a bounded cost per audit cycle — an *incremental* balance replay
(only the events since the previous audit), one copy of the engine's
H1 union-find for the batch-tip cross-check, and sampled view/fold
comparisons, never a from-genesis rebuild.  Two costs are pinned
against the same full-fan-out ingest (service attached, NULL metrics so
the numbers isolate audit cost, GC off, ``REPEATS`` paired rounds):

* ``disabled_ratio`` — auditor attached with ``audit_every=0`` over no
  auditor at all, bounded by ``DISABLED_OVERHEAD_BOUND`` (≤1.01×).
* ``audit_cycle_ms`` — (audited − unaudited) / audits run, bounded by
  ``AUDIT_CYCLE_MS_BOUND``.  An absolute number, not a ratio over
  ingest: the ×1.15 it used to be pinned at lost its headroom each time
  an ingest PR made the denominator faster, with the audit untouched.

Both are estimated from *paired* rounds: each round times the three
configurations back-to-back, so every arm's clock shares the round's
machine conditions.  Scheduler noise only ever adds time to whichever
single round it hits, while real per-block or per-audit work inflates
every round, so both take minimums: the cycle cost is the best audited
round minus the best unaudited one, and the disabled bound — a 1% claim
on a machine whose round-to-round noise exceeds 1% — uses the minimum
paired ratio.

Strict mode doubles as a correctness gate: a single violation anywhere
in the run aborts the benchmark loudly.

Published as ``BENCH_audit_overhead.json``.
"""

import gc
import statistics
import time

from repro.chain.index import ChainIndex
from repro.obs import InvariantAuditor
from repro.service import ForensicsService


DISABLED_OVERHEAD_BOUND = 1.01
AUDIT_CYCLE_MS_BOUND = 2.75
"""One audit cycle at 600 blocks / cadence 16 reads 0.9–2.2 ms on a
shared 2-vCPU Xeon container (the high end under neighbour load), and
the slowest host it has run on read 2.0 ms; 2.75 ms is the allowance.
A 2 ms stall added to every audit reads 3.4–4.5 ms on the same
container and fails."""
AUDIT_EVERY = 16
REPEATS = 8


def _warm_world(world) -> None:
    """First-touch script extraction belongs to no timed path."""
    for block in world.blocks:
        for tx in block.transactions:
            for out in tx.outputs:
                out.address


def _ingest_seconds(world, audit_every) -> tuple[float, int]:
    """One full-fan-out ingest (engine + views + aggregates attached),
    timed with GC off; ``audit_every`` attaches a strict auditor when
    not ``None``.  Returns ``(wall seconds, audits run)``.

    Every arm touches ``cluster_count`` each ``AUDIT_EVERY`` blocks —
    a minimal serving-load stand-in that pins the aggregate *flush*
    cadence equal across configurations.  A serving process flushes
    whenever a query lands; audits flush too, and letting the baseline
    defer every fold to one bulk flush would charge that ordinary
    serving work to the audit ratio."""
    attack = world.extras.get("attack")
    tags = attack.tags if attack is not None else None
    index = ChainIndex()
    service = ForensicsService(index, tags=tags)
    auditor = None
    if audit_every is not None:
        auditor = InvariantAuditor(
            service, audit_every=audit_every, strict=True
        )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        clusters = 0
        for block in world.blocks:
            index.add_block(block)
            if (block.height + 1) % AUDIT_EVERY == 0:
                clusters = service.aggregates.cluster_count
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert service.engine.height == index.height
    assert clusters > 0
    if auditor is not None:
        assert auditor.total_violations == 0
    return elapsed, auditor.audits_run if auditor is not None else 0


def _paired_rounds(world, repeats, configs):
    """Per-round wall clocks over ``repeats`` paired rounds.

    Each round times every configuration back-to-back (baseline,
    disabled, audited), so the arms of one round share the round's
    machine conditions and their within-round ratio cancels slow
    stretches that best-of-N across separate batches cannot.  Returns
    per-config round times plus the last audit count per config."""
    rounds = {key: [] for key in configs}
    audits = {key: 0 for key in configs}
    for _ in range(repeats):
        for key, audit_every in configs.items():
            elapsed, audits[key] = _ingest_seconds(world, audit_every)
            rounds[key].append(elapsed)
    return rounds, audits


def test_audit_overhead_within_bounds(bench_default_world, bench_report):
    world = bench_default_world
    n_blocks = world.index.height + 1
    _warm_world(world)

    rounds, audits = _paired_rounds(
        world,
        REPEATS,
        {"baseline": None, "disabled": 0, "audited": AUDIT_EVERY},
    )
    baseline = statistics.median(rounds["baseline"])
    disabled = statistics.median(rounds["disabled"])
    audited = statistics.median(rounds["audited"])
    audits_run = audits["audited"]

    disabled_ratio = min(
        d / b for d, b in zip(rounds["disabled"], rounds["baseline"])
    )
    audit_cycle_ms = (
        (min(rounds["audited"]) - min(rounds["baseline"])) / audits_run * 1e3
    )

    print(
        f"\n{n_blocks} blocks, {REPEATS} paired rounds:\n"
        f"  unaudited: {baseline:.3f}s (median)\n"
        f"  auditor attached, audit_every=0: {disabled:.3f}s "
        f"(min paired ×{disabled_ratio:.3f}, "
        f"bound ×{DISABLED_OVERHEAD_BOUND})\n"
        f"  audit_every={AUDIT_EVERY} strict: {audited:.3f}s "
        f"({audits_run} audits, {audit_cycle_ms:.2f} ms per cycle best "
        f"against best, bound {AUDIT_CYCLE_MS_BOUND} ms)"
    )
    bench_report(
        "audit_overhead",
        {
            "blocks": n_blocks,
            "repeats": REPEATS,
            "audit_every": AUDIT_EVERY,
            "audits_run": audits_run,
            "baseline_seconds": baseline,
            "disabled_seconds": disabled,
            "audited_seconds": audited,
            "disabled_ratio": disabled_ratio,
            "audit_cycle_ms": audit_cycle_ms,
            "disabled_bound": DISABLED_OVERHEAD_BOUND,
            "audit_cycle_ms_bound": AUDIT_CYCLE_MS_BOUND,
        },
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_BOUND, (
        f"idle auditor ingest ×{disabled_ratio:.3f} exceeds "
        f"×{DISABLED_OVERHEAD_BOUND}: the cadence check is doing work "
        f"beyond one modulo per block"
    )
    assert audit_cycle_ms <= AUDIT_CYCLE_MS_BOUND, (
        f"one audit cycle costs {audit_cycle_ms:.2f} ms, over the "
        f"{AUDIT_CYCLE_MS_BOUND} ms bound: an audit check lost its "
        f"incremental/sampled cost model"
    )
