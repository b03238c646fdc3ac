"""End-to-end benchmark: block files → answers → restart.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--runs K] [--out FILE]

Runs one workload (or all four, one child process each) against the
public API, prints every metric by name with its unit, checks the
answers, writes one result JSON, and — with ``--workload`` — ends with
the one-line JSON object ``BENCHMARK.json``'s contract asks for.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())

UNITS = {
    metric["name"]: metric["unit"]
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
}
SEGMENTS = (
    "chain", "engine", "aggregates", "timetravel",
    "balances", "activity", "taint", "service",
)


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def typical_each(reps: list) -> list:
    """``reps[r][k]`` seconds of operation ``k`` in repetition ``r`` ->
    the median seconds of each operation.

    Operation ``k`` is the same work in every repetition (same block,
    same queries, fresh state) and its seconds arrive with the host's
    load already divided out (``hostnoise``), so what is left between
    repetitions is the error of that correction, in both directions:
    the median, not the fastest."""
    return [statistics.median(column) for column in zip(*reps, strict=True)]


def flat(lists) -> list:
    return [value for one in lists for value in one]


# ----------------------------------------------------------------------
# the end-to-end run (tracing off)
# ----------------------------------------------------------------------


def cycle_metrics(spec, inputs, reps: list, floor: float) -> dict:
    """The end-to-end metrics the cycles give, from the quiet-host
    seconds per operation of the journeys ``reps`` (all repetitions, or
    one for its own totals)."""

    def column(name: str) -> list:
        return [journey.segments[name].quiet(floor) for journey in reps]

    first_query_s = statistics.median(flat(column("first_query_s")))
    block_to_answer = typical_each(column("block_to_answer_s"))
    hist = typical_each(column("hist_s"))
    return {
        "ingest_blocks_per_s": spec.bulk
        / (sum(typical_each(column("bulk_s"))) + first_query_s),
        "first_query_s": first_query_s,
        "follow_blocks_per_s": (spec.blocks - spec.bulk)
        / sum(typical_each(column("follow_s"))),
        "block_to_answer_p50_ms": statistics.median(block_to_answer) * 1e3,
        "block_to_answer_p95_ms": percentile(block_to_answer, 0.95) * 1e3,
        "tip_queries_per_s": len(inputs.tip_queries)
        / sum(typical_each(column("tip_s"))),
        "repeat_queries_per_s": len(inputs.repeat_draws)
        / sum(typical_each(column("repeat_s"))),
        "hist_queries_per_s": len(hist) / sum(hist),
        "hist_query_p95_ms": percentile(hist, 0.95) * 1e3,
        "snapshot_s": statistics.median(flat(column("snapshot_s"))),
        "snapshot_mib": statistics.median(
            journey.values["snapshot_mib"] for journey in reps
        ),
    }


def run_untraced(spec, seed, seconds, work, min_reps, setups):
    """Returns ``(metrics, detail, ledger)``: the metrics, what is behind
    them (per-repetition values, the host's load) and the failure ledger."""
    from hostnoise import HostNoise, Segments
    from journey import Journey, check_answers, restarts
    from oracle import Ledger
    from workloads import build_inputs

    ledger = Ledger(spec.name)
    noise = HostNoise()
    setup = Segments(noise)
    for _ in range(setups):
        inputs = None
        gc.collect()
        start = setup.start()
        inputs = build_inputs(spec, seed, work)
        setup.lap(start)
    setup.close()
    gc.freeze()  # the harness's inputs are not the program's garbage

    began = perf_counter()
    deadline = began + seconds * spec.cycle_share
    reps: list = []
    while len(reps) < min_reps or perf_counter() < deadline:
        if reps:
            shutil.rmtree(reps[-1].snapshots_dir, ignore_errors=True)
            reps[-1].service = None
        reps.append(
            Journey(spec, inputs, work, ledger, len(reps), noise=noise).run()
        )
    journey = reps[-1]
    reports = restarts(
        spec, inputs, journey.snapshots_dir, ledger, 2 * min_reps - 1, began + seconds
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_answers(spec, inputs, journey, ledger, seed)

    floor = min([noise.floor] + [report["spin_floor_s"] for report in reports])
    setup_seconds = setup.quiet(floor)
    restores = [
        report["restore_s"] * floor / report["spin_s"] for report in reports
    ]
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        **cycle_metrics(spec, inputs, reps, floor),
        "restore_s": statistics.median(restores),
        "peak_rss_mib": peak_rss_mib,
    }
    singles = [cycle_metrics(spec, inputs, [one], floor) for one in reps]
    per_rep = {name: [single[name] for single in singles] for name in singles[0]}
    per_rep.update(setup_s=setup_seconds, restore_s=restores)
    levels = noise.levels + [report["spin_s"] for report in reports]
    detail = {
        "per_rep": per_rep,
        "host": {
            "spin_floor_us": floor * 1e6,
            "load_median": statistics.median(levels) / floor,
            "load_max": max(levels) / floor,
        },
    }
    return metrics, detail, ledger


# ----------------------------------------------------------------------
# the traced run (per-layer numbers; never the end-to-end ones)
# ----------------------------------------------------------------------


def bare_index_pass(inputs, ledger) -> dict:
    """``add_block`` with no subscribers, then ``block_delta(h)`` per
    height: splits the chain layer into index walk and delta build."""
    from repro.chain.blockfile import BlockFileReader
    from repro.chain.index import ChainIndex

    index = ChainIndex()
    seconds = []
    txs = 0
    gc.collect()
    for block in BlockFileReader(inputs.blocks_dir).iter_blocks():
        start = perf_counter()
        index.add_block(block)
        seconds.append(perf_counter() - start)
        txs += len(block.transactions)
    start = perf_counter()
    events = 0
    for height in range(index.height + 1):
        events += len(index.block_delta(height).events)
    delta_s = perf_counter() - start
    ledger.check("bare index height", index.height, len(inputs.blocks) - 1)
    return {
        "chain.index.add_block_s": sum(seconds),
        "chain.index.add_block_p50_us": statistics.median(seconds) * 1e6,
        "chain.index.add_block_max_ms": max(seconds) * 1e3,
        "chain.index.txs_per_s": txs / sum(seconds),
        "chain.index.addresses": index.address_count,
        "chain.delta.build_s": delta_s,
        "chain.delta.events": events,
    }


def run_traced(spec, seed, seconds, work):
    """Returns ``(metrics, trace, ledger)``."""
    from repro.obs import MetricsRegistry

    import spans as tracing
    from journey import Journey, restarts
    from oracle import Ledger
    from workloads import ALL_KINDS, CLUSTER_KINDS, build_inputs

    ledger = Ledger(spec.name)
    inputs = build_inputs(spec, seed, work)
    gc.freeze()
    began = perf_counter()

    # plain and traced repetitions alternate, so both see the same warm-up
    tracer = tracing.Tracer()
    plain_walls: list = []
    reps: list = []
    journey = None
    while not reps or perf_counter() < began + seconds * 0.6:
        if journey is not None:
            journey.service = None
        plain = Journey(spec, inputs, work, ledger, -1).run()
        plain_walls.append(plain.ingest_wall)
        plain.service = None
        tracer.watch_gc()
        journey = Journey(spec, inputs, work, ledger, len(reps), tracer).run()
        tracer.unwatch_gc()
        reps.append(journey)
    n = len(reps)
    last = journey.values
    addresses = journey.service.index.address_count
    journey.service = None

    metrics = bare_index_pass(inputs, ledger)
    bulk_walls = []
    for registry in (None, MetricsRegistry()):
        observed = Journey(spec, inputs, work, ledger, -1, metrics=registry)
        gc.collect()
        observed.bulk()
        bulk_walls.append(
            sum(observed.values["bulk_s"]) + sum(observed.values["first_query_s"])
        )
        observed.service = None
    report = restarts(spec, inputs, journey.snapshots_dir, ledger, 1, 0.0, "traced")[0]

    spans = tracer.spans
    rows = tracing.summarize(spans)

    def per_rep(name: str, field: str = "total_s") -> float:
        return rows[name][field] / n if name in rows else 0.0

    med = statistics.median
    blocks_bytes = sum(p.stat().st_size for p in inputs.blocks_dir.iterdir())
    subscribers = ("engine", "aggregates", "balances", "activity", "taint")
    metrics.update({
        "simulation.generate_s": inputs.generate_s,
        "simulation.write_s": inputs.write_s,
        "chain.blockfile.read_s": per_rep("chain.blockfile.read"),
        "chain.blockfile.bytes_per_block": blocks_bytes / spec.blocks,
        "chain.add_block_self_s": per_rep("chain.add_block", "self_s"),
        "core.engine.fold_s": per_rep("engine"),
        "core.engine.clusters": last["clusters"],
        "core.engine.open_labels": last["open_labels"],
        "service.aggregates.observe_s": per_rep("aggregates"),
        "service.aggregates.flush_s": med(j.values["flush_s"] for j in reps),
        "service.aggregates.flush_per_block_p50_ms": med(
            flat(j.values["flush_per_block_s"] for j in reps)
        ) * 1e3,
        "service.aggregates.flush_per_block_p99_ms": percentile(
            flat(j.values["flush_per_block_s"] for j in reps), 0.99
        ) * 1e3,
        "service.aggregates.spine_build_s": med(
            sum(j.values["horizon_s"]) for j in reps
        ),
        "service.aggregates.horizon_p50_ms": med(
            flat(j.values["horizon_s"] for j in reps)
        ) * 1e3,
        "service.views.balances.fold_s": per_rep("balances"),
        "service.views.activity.fold_s": per_rep("activity"),
        "service.views.taint.fold_s": per_rep("taint"),
        "service.fanout_s": sum(per_rep(name) for name in subscribers),
    })

    latencies: dict = {}
    for phase, queries, key in (
        ("tip", inputs.tip_queries, "tip_s"),
        ("hist", inputs.hist_queries, "hist_s"),
    ):
        by_kind: dict = {}
        for j in reps:
            for query, second in zip(queries, j.values[key]):
                by_kind.setdefault(query.kind, []).append(second)
        latencies[phase] = by_kind
    for kind in ALL_KINDS:
        samples = latencies["tip"][kind]
        metrics[f"service.queries.{kind}.tip_p50_us"] = med(samples) * 1e6
        metrics[f"service.queries.{kind}.tip_p99_us"] = percentile(samples, 0.99) * 1e6
    for kind in CLUSTER_KINDS:
        samples = latencies["hist"][kind]
        metrics[f"service.queries.{kind}.hist_p50_ms"] = med(samples) * 1e3
        metrics[f"service.queries.{kind}.hist_p99_ms"] = percentile(samples, 0.99) * 1e3

    marks = last["cache_marks"]
    for phase, before, after in zip(("tip", "repeat", "hist"), marks, marks[1:]):
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        metrics[f"service.cache.hit_rate.{phase}"] = hits / max(1, hits + misses)
    metrics["service.cache.evictions"] = marks[-1]["evictions"]

    segment_bytes = last["segment_bytes"]
    for name in SEGMENTS:
        metrics[f"storage.snapshot.segment_mib.{name}"] = (
            segment_bytes.get(name, 0) / 2**20
        )
    metrics.update({
        "storage.snapshot.write_s": (
            rows["storage.snapshot"]["total_s"] / rows["storage.snapshot"]["calls"]
        ),
        "storage.bytes_per_address": sum(segment_bytes.values()) / addresses,
        "storage.verify_s": per_rep("storage.verify"),
        "storage.restore.load_s": report["load_s"],
        "storage.restore.tail_replay_s": report["tail_replay_s"],
        "storage.restore.first_query_s": report["first_query_s"],
        "storage.restore.rss_mib": report["rss_mib"],
        "obs.enabled_ingest_ratio": bulk_walls[1] / bulk_walls[0],
    })
    for i, phase in enumerate(("bulk", "follow", "queries")):
        gc_s = [j.gc_marks[i + 1][0] - j.gc_marks[i][0] for j in reps]
        gen2 = [j.gc_marks[i + 1][1] - j.gc_marks[i][1] for j in reps]
        metrics[f"runtime.gc_s.{phase}"] = med(gc_s)
        metrics[f"runtime.gc_gen2_passes.{phase}"] = med(gen2)
    overhead = med(j.ingest_wall for j in reps) / med(plain_walls)
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.coverage"] = tracing.coverage(spans)

    trace = {
        "workload": spec.name,
        "seed": seed,
        "reps": n,
        "overhead_ratio": overhead,
        "span_fields": ["id", "name", "start", "end", "parent", "rep"],
        "spans": spans,
        "latencies": latencies,
        "gc": {"seconds": tracer.gc_seconds, "gen2_passes": tracer.gc_gen2},
    }
    return metrics, trace, ledger


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------


def run_workload(args) -> dict:
    if not (REPO / "src" / "repro").is_dir():
        sys.exit("benchmarks/e2e: no src/repro beside this checkout's BENCHMARK.json")
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import SPECS

    spec = SPECS[args.workload]
    seconds, min_reps, setups = args.seconds, 3, 5
    if args.smoke:
        spec, seconds, min_reps, setups = spec.smoke(), 0.0, 1, 1
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, trace, ledger = run_traced(spec, args.seed, seconds, work)
            (OUT / f"trace-{spec.name}.json").write_text(json.dumps(trace))
            detail = {}
        else:
            metrics, detail, ledger = run_untraced(
                spec, args.seed, seconds, work, min_reps, setups
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{spec.name:<12} {name:<46} {value:>16.6g} {UNITS.get(name, '?')}")
    print(
        f"{spec.name:<12} {'failed_ops_share':<46} {ledger.share:>16.6g} ratio"
        f"  ({ledger.failed} of {ledger.attempted})"
    )
    return {
        "workload": spec.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "?")}
            for name, value in metrics.items()
        },
        **detail,
    }


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in CONTRACT["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, help="result JSON (default out/result.json)")
    args = parser.parse_args(argv)

    if args.workload and args.runs == 1 and os.environ.get("PYTHONHASHSEED") == "0":
        result = run_workload(args)
        if args.out:
            args.out.write_text(json.dumps(result))
        print(json.dumps({
            key: result[key] for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0

    # One child process per workload and run, hash seed pinned, so peak
    # RSS and GC state belong to that workload alone.
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in CONTRACT["workloads"]]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            part = OUT / f"part-{os.getpid()}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, env=env)
            if done.returncode != 0:
                return done.returncode
            runs.append(json.loads(part.read_text()))
            part.unlink()
    if args.workload and args.runs == 1 and not args.out:
        return 0  # the child already printed the contract's last line
    summary = {
        "machine": machine(),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": runs,
        "claim": None,
    }
    out = args.out or OUT / "result.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
