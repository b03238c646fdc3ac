"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments::

    python -m repro table1              # §3.1 service roster + attack
    python -m repro section4            # §4 cluster accounting
    python -m repro fp-ladder           # §4.2 refinement ladder
    python -m repro timeseries          # cluster growth at every height
    python -m repro table2              # §5 hoard peeling chains
    python -m repro table3              # §5 theft tracking
    python -m repro figure2             # category balances (ASCII chart)
    python -m repro ablation            # H2 refinement ablation
    python -m repro simulate --out DIR  # write a world as blk*.dat files
    python -m repro query cluster-of 1Abc...   # one-shot forensics query
    python -m repro serve --generate 200       # serve a query workload

``timeseries`` runs the incremental streaming engine: one pass over the
chain yields the H1 / H1+H2 cluster counts and live change-label count
at *every* height (``--scenario`` picks the world, as for ``simulate``),
instead of re-clustering per cutoff.

``query`` and ``serve`` exercise the forensics query service (the
serving layer over the incremental engine + materialized views):

* ``repro query <kind> <args...>`` answers one query against a freshly
  built service — kinds are ``cluster-of ADDR``, ``balance-of ADDR``,
  ``cluster-balance ADDR``, ``cluster-profile ADDR``,
  ``top-clusters [N] [size|balance|activity]``, ``trace-taint LABEL``.
* ``repro serve`` replays a whole workload from warm state: either a
  script file (``--script FILE``, one query per line, ``#`` comments)
  or a generated mixed stream (``--generate N``); ``--dump FILE``
  writes the workload it ran so it can be replayed verbatim later.
* Both take ``--state-dir DIR`` for a transparent warm start: the first
  run writes ``DIR/blocks/blk*.dat`` plus a baseline snapshot under
  ``DIR/snapshots/``, and every later run restores the newest snapshot
  and tail-replays only the blocks past it — then checkpoints again on
  the way out, so watched taint cases and chain growth survive
  restarts.  A restarted service answers every query identically to a
  cold-built one (the storage test suite proves it per height).
  ``--blocks-only`` restores from ``DIR`` alone and builds no world; a
  state dir that cannot serve is one ``error:`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import experiments
from .chain.blockfile import BlockFileWriter
from .chain.validation import validate_chain
from .obs import (
    JsonLinesLogger,
    MetricsRegistry,
    render_flight,
    render_health,
    render_snapshot,
)
from .service import ForensicsService, QueryRefused, format_answer, parse_query
from .simulation import scenarios
from .storage import StorageError

_SCENARIOS = {
    "default": scenarios.default_economy,
    "micro": scenarios.micro_economy,
    "silkroad": scenarios.silkroad_world,
    "theft": scenarios.theft_world,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Fistful of Bitcoins' (Meiklejohn et al., "
            "IMC 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, seed_default: int = 0):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=seed_default)
        return cmd

    add("table1", "re-identification attack roster (§3.1, Table 1)")
    add("section4", "clustering accounting (§4)")
    add("fp-ladder", "false-positive refinement ladder (§4.2)")
    add("table2", "hoard dissolution peel tracking (§5, Table 2)", seed_default=1)
    add("table3", "theft movement classification (§5, Table 3)", seed_default=2)
    add("figure2", "category balances over time (Figure 2)", seed_default=1)
    add("ablation", "H2 refinement ablation")

    series = sub.add_parser(
        "timeseries",
        help="cluster growth at every height (incremental engine, one pass)",
    )
    series.add_argument("--scenario", choices=sorted(_SCENARIOS), default="default")
    series.add_argument("--seed", type=int, default=0)

    # The options query and serve share: which world, which state dir,
    # and what telemetry to keep.
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--scenario", choices=sorted(_SCENARIOS), default="default")
    serving.add_argument("--seed", type=int, default=0)
    serving.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        help="durable state directory: warm-start from its newest snapshot",
    )
    serving.add_argument(
        "--blocks-only",
        action="store_true",
        help=(
            "trust the state dir's blocks/blk*.dat outright and skip the "
            "world build entirely (requires --state-dir with a snapshot "
            "from a previous full run)"
        ),
    )
    serving.add_argument(
        "--metrics-dump",
        type=Path,
        default=None,
        help=(
            "record per-stage ingest/query telemetry (a service built "
            "from the world re-ingests the chain through an instrumented "
            "index) and write it as JSON (metric catalogue: "
            "docs/metrics.md)"
        ),
    )
    serving.add_argument(
        "--log-json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append structured JSON-lines pipeline events to PATH "
            "(schema: docs/observability.md)"
        ),
    )

    query = sub.add_parser(
        "query",
        parents=[serving],
        help="one-shot forensics query against the serving layer",
    )
    query.add_argument(
        "tokens",
        nargs="+",
        metavar="QUERY",
        help="e.g. 'top-clusters 10 balance' or 'cluster-of <address>'",
    )

    serve = sub.add_parser(
        "serve",
        parents=[serving],
        help="replay a query workload from warm materialized views",
    )
    serve.add_argument(
        "--script",
        type=Path,
        default=None,
        help="workload file: one query per line (# comments allowed)",
    )
    serve.add_argument(
        "--generate",
        type=int,
        default=200,
        metavar="N",
        help="generate an N-query mixed workload (ignored with --script)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="extra memoized replay passes after the first",
    )
    serve.add_argument(
        "--dump",
        type=Path,
        default=None,
        help="write the executed workload as a replayable script",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="render a --metrics-dump JSON file as tables",
        description=(
            "Render the counters, gauges, histogram summaries, and "
            "flight-recorder spans captured by 'repro serve/query "
            "--metrics-dump PATH'.  See docs/metrics.md for what each "
            "metric means."
        ),
    )
    metrics_cmd.add_argument("dump", type=Path, metavar="DUMP_JSON")
    metrics_cmd.add_argument(
        "--flight",
        type=int,
        default=20,
        metavar="N",
        help="how many of the newest flight-recorder spans to show",
    )

    health_cmd = sub.add_parser(
        "health",
        help="render the component health rollup from a --metrics-dump file",
        description=(
            "Render the per-component health report (chain, engine, "
            "aggregates, views, cache, snapshots, audit) captured in a "
            "'repro serve/query --metrics-dump PATH' file.  See "
            "docs/observability.md for the health model."
        ),
    )
    health_cmd.add_argument("dump", type=Path, metavar="DUMP_JSON")

    doctor = sub.add_parser(
        "doctor",
        help="offline deep diagnostics over a --state-dir directory",
        description=(
            "Verify every snapshot segment checksum, restore the newest "
            "clean snapshot, tail-replay the block files, run the full "
            "invariant audit suite, and print a health report.  Exits "
            "non-zero when any problem is found.  Runbook: "
            "docs/observability.md."
        ),
    )
    doctor.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        help="durable state directory (as passed to serve/query)",
    )
    doctor.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the full diagnosis as JSON",
    )
    doctor.add_argument(
        "--log-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="append structured JSON-lines events from the diagnosis",
    )

    sim = sub.add_parser("simulate", help="generate a world and write block files")
    sim.add_argument("--scenario", choices=sorted(_SCENARIOS), default="default")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=Path, required=True)

    stats = sub.add_parser("stats", help="profile a scenario's chain idioms")
    stats.add_argument("--scenario", choices=sorted(_SCENARIOS), default="micro")
    stats.add_argument("--seed", type=int, default=0)
    return parser


def _or_exit(call, *args, where: str = ""):
    """``call(*args)``; a query the service refuses (malformed, or a
    horizon past the tip) exits with one ``error:`` line.  Any other
    exception propagates with its traceback."""
    try:
        return call(*args)
    except QueryRefused as exc:
        raise SystemExit(f"error: {where}{exc}") from None


def _load_workload_script(path: Path):
    """Parse a workload file: one query per line, ``#`` comments."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror or exc}") from None
    queries = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            queries.append(
                _or_exit(parse_query, line.split(), where=f"{path}:{number}: ")
            )
    return queries


def _read_dump(path: Path) -> dict | None:
    """Load a ``--metrics-dump`` JSON file, failing gracefully.

    Returns the payload dict, or ``None`` after printing a one-line
    error to stderr — missing files, empty files, malformed JSON, and
    non-object payloads all degrade to a clear message instead of a
    traceback.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return None
    if not text.strip():
        print(f"error: {path} is empty (expected --metrics-dump JSON)", file=sys.stderr)
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON ({exc})", file=sys.stderr)
        return None
    if not isinstance(payload, dict):
        print(
            f"error: {path} holds {type(payload).__name__}, expected a "
            f"--metrics-dump JSON object",
            file=sys.stderr,
        )
        return None
    return payload


def _open_logger(args):
    """The ``--log-json`` event logger, or ``None`` when not asked for.

    Opened at debug level so dumps carry the per-block ingest events;
    the JSON-lines consumer filters, not the producer."""
    path = getattr(args, "log_json", None)
    if path is None:
        return None
    return JsonLinesLogger(path, min_level="debug")


def _service_for(args, log=None):
    """The serving-layer service for ``query``/``serve``: built from the
    scenario's world, or stood up against ``--state-dir`` (from its
    block files alone with ``--blocks-only``, which builds no world).

    Returns ``(service, checkpoint, metrics)``: ``checkpoint``
    re-snapshots the (possibly mutated: new taint cases, tail growth)
    state on the way out — a no-op without ``--state-dir`` — and
    ``metrics`` is the enabled registry when ``--metrics-dump`` asked
    for one (``None`` otherwise).  A state dir that cannot serve exits
    with one ``error:`` line.
    """
    metrics = MetricsRegistry() if args.metrics_dump is not None else None
    if args.blocks_only and args.state_dir is None:
        raise SystemExit("error: --blocks-only requires --state-dir")
    world = None if args.blocks_only else _SCENARIOS[args.scenario](seed=args.seed)
    if args.state_dir is None:
        service = ForensicsService.from_world(world, metrics=metrics, log=log)
        return service, lambda: None, metrics
    try:
        warm = experiments.warm_service(
            world, args.state_dir, metrics=metrics, log=log
        )
    except StorageError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"[state-dir {args.state_dir}: {warm.report}]")
    return warm.service, warm.checkpoint, metrics


def _write_metrics_dump(path: Path | None, metrics, service=None) -> None:
    """Serialize one run's registry + flight recorder (and, when the
    service is given, its component health rollup) as JSON."""
    if path is None or metrics is None:
        return
    # Health first: collecting it sets the health.* gauges, which the
    # registry snapshot below should carry.
    health = service.health_report().as_dict() if service is not None else None
    payload = {
        "metrics": metrics.snapshot(),
        "flight": metrics.flight.dump(),
    }
    if health is not None:
        payload["health"] = health
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[metrics written to {path}; render with 'repro metrics {path}']")


def _answer_one(args, service, query) -> None:
    """``repro query``: answer one query, labelled with its source."""
    start = time.perf_counter()
    answer = _or_exit(service.answer, query)
    elapsed = time.perf_counter() - start
    print(format_answer(query, answer))
    source = (
        f"state-dir {args.state_dir}" if args.blocks_only else args.scenario
    )
    print(
        f"[{source} @ height {service.height}, "
        f"answered warm in {elapsed * 1e3:.2f}ms]"
    )


def _serve_workload(args, service, queries) -> None:
    """``repro serve``: replay a parsed script or a generated workload."""
    if queries is not None:
        if not service.taint.labels and any(
            q.kind == "trace_taint" for q in queries
        ):
            # Scripts dumped from generated workloads reference the
            # deterministic case-N labels; re-watch them.
            experiments.watch_synthetic_thefts(service)
        start = time.perf_counter()
        _or_exit(service.answer_many, queries)
        first = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(max(1, args.repeat)):
            _or_exit(service.answer_many, queries)
        repeat = (time.perf_counter() - start) / max(1, args.repeat)
        print(
            f"replayed {len(queries)} queries from {args.script}: "
            f"{first:.4f}s cold memo, {repeat:.4f}s memoized "
            f"(hit rate {service.cache.hit_rate:.1%})"
        )
    else:
        result = experiments.run_query_workload(
            seed=args.seed,
            n_queries=args.generate,
            repeats=max(1, args.repeat),
            service=service,
        )
        queries = result.queries
        print(result.report)
    if args.dump is not None:
        lines = [
            " ".join(str(part) for part in (query.kind, *query.args))
            for query in queries
        ]
        args.dump.write_text("\n".join(lines) + "\n")
        print(f"workload written to {args.dump}")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        print(experiments.run_table1(seed=args.seed).report)
    elif args.command == "section4":
        print(experiments.run_section4(seed=args.seed).report)
    elif args.command == "fp-ladder":
        print(experiments.run_fp_ladder(seed=args.seed).report)
    elif args.command == "table2":
        print(experiments.run_table2(seed=args.seed).report)
    elif args.command == "table3":
        print(experiments.run_table3(seed=args.seed).report)
    elif args.command == "figure2":
        print(experiments.run_figure2(seed=args.seed).report)
    elif args.command == "ablation":
        print(experiments.run_ablation(seed=args.seed).report)
    elif args.command == "timeseries":
        world = _SCENARIOS[args.scenario](seed=args.seed)
        print(experiments.run_cluster_timeseries(world).report)
    elif args.command in ("query", "serve"):
        # A malformed query fails here, before any world is built.
        if args.command == "query":
            queries = [_or_exit(parse_query, args.tokens)]
        elif args.script is not None:
            queries = _load_workload_script(args.script)
        else:
            queries = None
        log = _open_logger(args)
        try:
            service, checkpoint, metrics = _service_for(args, log=log)
            if args.command == "query":
                _answer_one(args, service, queries[0])
            else:
                _serve_workload(args, service, queries)
            checkpoint()
            _write_metrics_dump(args.metrics_dump, metrics, service=service)
        finally:
            if log is not None:
                log.close()
    elif args.command == "metrics":
        payload = _read_dump(args.dump)
        if payload is None:
            return 1
        print(render_snapshot(payload.get("metrics", {})))
        print()
        print(render_flight(payload.get("flight", []), tail=args.flight))
    elif args.command == "health":
        payload = _read_dump(args.dump)
        if payload is None:
            return 1
        health = payload.get("health")
        if not isinstance(health, dict):
            print(
                f"error: {args.dump} has no health report (dumps carry one "
                f"when written by 'repro serve/query --metrics-dump')",
                file=sys.stderr,
            )
            return 1
        print(render_health(health))
    elif args.command == "doctor":
        from .obs.doctor import run_doctor

        log = _open_logger(args)
        try:
            if log is not None:
                report = run_doctor(args.state_dir, log=log)
            else:
                report = run_doctor(args.state_dir)
            print(report.render())
            if args.report is not None:
                args.report.write_text(
                    json.dumps(report.as_dict(), indent=2) + "\n"
                )
                print(f"[diagnosis written to {args.report}]")
            return report.exit_code
        finally:
            if log is not None:
                log.close()
    elif args.command == "stats":
        from .chain.stats import compute_statistics, format_statistics

        world = _SCENARIOS[args.scenario](seed=args.seed)
        print(format_statistics(compute_statistics(world.index)))
    elif args.command == "simulate":
        world = _SCENARIOS[args.scenario](seed=args.seed)
        report = validate_chain(world.blocks)
        writer = BlockFileWriter(args.out)
        paths = writer.write_chain(world.blocks)
        print(
            f"scenario={args.scenario} seed={args.seed}: "
            f"{len(world.blocks)} blocks, {world.index.tx_count} txs, "
            f"{world.index.address_count} addresses "
            f"(validation {'OK' if report.ok else 'FAILED'})"
        )
        for path in paths:
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
