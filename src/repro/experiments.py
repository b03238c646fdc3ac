"""One function per paper table/figure — the reproduction entry points.

Each function takes (or builds) a simulated world, runs the analyst
pipeline, and returns a result object carrying both the data and a
rendered, paper-shaped report.  The benchmarks in ``benchmarks/`` and
the CLI both call these, so there is exactly one implementation of each
experiment.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .analysis.peeling import summarize_peels_by_entity
from .chain.model import COIN, format_btc
from .core.fp_estimation import FPEstimate
from .core.heuristic1 import h1_statistics
from .core.heuristic2 import Heuristic2Config
from .core.supercluster import diagnose_superclusters
from .metrics.evaluation import compare_clusterings, pairwise_scores
from .pipeline import AnalystView
from .core.incremental import ClusterSnapshot
from .reporting import (
    render_figure2,
    render_fp_ladder,
    render_query_workload,
    render_table,
    render_table2,
    render_table3,
    render_timeseries,
)
from .service.queries import Query
from .service.service import ForensicsService
from .simulation import scenarios
from .simulation.economy import World

# ----------------------------------------------------------------------
# Table 1 — the re-identification attack roster
# ----------------------------------------------------------------------


@dataclass
class Table1Result:
    services_by_category: dict[str, list[str]]
    transactions_made: int
    services_engaged: int
    addresses_tagged: int
    report: str


def run_table1(world: World | None = None, *, seed: int = 0) -> Table1Result:
    """§3.1/Table 1: engage every service, count transactions and tags."""
    world = world or scenarios.default_economy(seed=seed)
    attack = world.extras["attack"]
    roster = world.extras["roster"]
    by_category = {
        category: sorted(actor.name for actor in actors)
        for category, actors in roster.items()
    }
    rows = []
    for category, names in by_category.items():
        engaged = sum(1 for n in names if n in attack.stats.services_engaged)
        rows.append([category, len(names), engaged])
    report = render_table(
        ["category", "services", "engaged"],
        rows,
        title="Table 1: services interacted with (by category)",
    )
    report += (
        f"\ntransactions made: {attack.stats.transactions_made}"
        f"  (paper: 344)\naddresses tagged: {attack.tags.address_count}"
        f"  (paper: 1,070)"
    )
    return Table1Result(
        services_by_category=by_category,
        transactions_made=attack.stats.transactions_made,
        services_engaged=len(attack.stats.services_engaged),
        addresses_tagged=attack.tags.address_count,
        report=report,
    )


# ----------------------------------------------------------------------
# §4 — clustering accounting (H1 counts, refined H2, naming coverage)
# ----------------------------------------------------------------------


@dataclass
class Section4Result:
    h1_clusters: int
    h1_sinks: int
    h1_user_upper_bound: int
    h2_clusters: int
    h2_clusters_after_tag_collapse: int
    change_addresses_identified: int
    named_clusters: int
    named_addresses: int
    hand_tagged_addresses: int
    amplification: float
    mtgox_cluster_count: int
    h1_scores: object
    h2_scores: object
    report: str


def run_section4(world: World | None = None, *, seed: int = 0) -> Section4Result:
    """§4.1–4.2 numbers: cluster counts, coverage, amplification."""
    world = world or scenarios.default_economy(seed=seed)
    view = AnalystView.build(world)
    stats = h1_statistics(world.index, view.clustering_h1.uf)
    clustering = view.clustering
    naming = view.naming
    naming_report = naming.report()
    tag_map = view.tags.as_mapping()
    collapsed = clustering.effective_cluster_count(tag_map)
    comparison = compare_clusterings(
        view.clustering_h1,
        clustering,
        world.ground_truth,
        label_a="H1",
        label_b="H1+H2",
    )
    mtgox_clusters = len(naming.clusters_named("Mt Gox"))
    rows = [
        ["H1 co-spend clusters", stats.spender_clusters, "5.5M"],
        ["sink addresses", stats.sink_addresses, "—"],
        ["max users upper bound", stats.max_users_upper_bound, "6,595,564"],
        ["H1+H2 clusters", clustering.cluster_count, "3,384,179"],
        ["after tag collapse", collapsed, "3,383,904"],
        ["change addresses identified",
         len(clustering.h2_result.labels) if clustering.h2_result else 0,
         "3,540,831"],
        ["named clusters", naming_report.named_cluster_count, "2,197"],
        ["named addresses", naming_report.named_address_count, "1.8M"],
        ["hand-tagged addresses", naming_report.hand_tagged_address_count, "1,070"],
        ["amplification", f"×{naming_report.amplification:.0f}", "×1,600"],
        ["Mt Gox clusters named", mtgox_clusters, "20"],
        ["H1 pairwise recall", f"{comparison.scores_a.recall:.3f}", "—"],
        ["H1+H2 pairwise recall", f"{comparison.scores_b.recall:.3f}", "—"],
        ["H1 pairwise precision", f"{comparison.scores_a.precision:.3f}", "—"],
        ["H1+H2 pairwise precision", f"{comparison.scores_b.precision:.3f}", "—"],
    ]
    report = render_table(
        ["quantity", "measured", "paper"], rows, title="§4 clustering accounting"
    )
    return Section4Result(
        h1_clusters=stats.spender_clusters,
        h1_sinks=stats.sink_addresses,
        h1_user_upper_bound=stats.max_users_upper_bound,
        h2_clusters=clustering.cluster_count,
        h2_clusters_after_tag_collapse=collapsed,
        change_addresses_identified=(
            len(clustering.h2_result.labels) if clustering.h2_result else 0
        ),
        named_clusters=naming_report.named_cluster_count,
        named_addresses=naming_report.named_address_count,
        hand_tagged_addresses=naming_report.hand_tagged_address_count,
        amplification=naming_report.amplification,
        mtgox_cluster_count=mtgox_clusters,
        h1_scores=comparison.scores_a,
        h2_scores=comparison.scores_b,
        report=report,
    )


# ----------------------------------------------------------------------
# §4.2 — the false-positive refinement ladder + super-cluster check
# ----------------------------------------------------------------------


@dataclass
class FPLadderResult:
    estimates: list[FPEstimate]
    naive_supercluster_entities: int
    refined_supercluster_entities: int
    naive_merges_majors: bool
    refined_merges_majors: bool
    report: str


MAJOR_SERVICES = ("Mt Gox", "Instawallet", "Bitpay", "Silk Road")
"""The four entities the paper's super-cluster wrongly merged."""


def run_fp_ladder(world: World | None = None, *, seed: int = 0) -> FPLadderResult:
    """§4.2: the 13% → 1% → 0.28% → 0.17% ladder + super-cluster test."""
    world = world or scenarios.default_economy(seed=seed)
    view = AnalystView.build(world)
    estimates = view.fp_estimator().refinement_ladder()
    tag_map = view.tags.as_mapping()
    naive_view = AnalystView.build(world, h2_config=Heuristic2Config.naive())
    naive_report = diagnose_superclusters(naive_view.clustering, tag_map)
    refined_report = diagnose_superclusters(view.clustering, tag_map)
    naive_merges = _merges_any_majors(naive_report)
    refined_merges = _merges_any_majors(refined_report)
    report = render_fp_ladder(estimates)
    report += "\n" + render_table(
        ["clustering", "entities merged somewhere", "merges majors?"],
        [
            ["naive H2", naive_report.merged_entity_count, naive_merges],
            ["refined H2", refined_report.merged_entity_count, refined_merges],
        ],
        title="super-cluster diagnosis",
    )
    return FPLadderResult(
        estimates=estimates,
        naive_supercluster_entities=naive_report.merged_entity_count,
        refined_supercluster_entities=refined_report.merged_entity_count,
        naive_merges_majors=naive_merges,
        refined_merges_majors=refined_merges,
        report=report,
    )


def _merges_any_majors(report) -> bool:
    majors = set(MAJOR_SERVICES)
    return any(
        len(majors & set(info.entities)) >= 2 for info in report.merged_clusters
    )


# ----------------------------------------------------------------------
# Cluster-growth time series — the incremental engine's headline workload
# ----------------------------------------------------------------------


@dataclass
class TimeSeriesResult:
    points: list[ClusterSnapshot]
    final_clusters: int
    final_h1_clusters: int
    peak_active_labels: int
    report: str


def run_cluster_timeseries(
    world: World | None = None, *, seed: int = 0
) -> TimeSeriesResult:
    """Cluster counts at every height of the chain, in one streaming pass.

    This is the temporal view behind §4's narratives (how H2 collapses
    the partition as change links accrue, how the wait rule retires
    labels): the incremental engine clusters block by block and the
    series is read off its checkpoints — no per-height re-clustering.
    """
    world = world or scenarios.default_economy(seed=seed)
    view = AnalystView.build(world)
    points = view.incremental.cluster_count_series()
    final = points[-1] if points else None
    return TimeSeriesResult(
        points=points,
        final_clusters=final.clusters if final else 0,
        final_h1_clusters=final.h1_clusters if final else 0,
        peak_active_labels=max((p.active_labels for p in points), default=0),
        report=render_timeseries(points),
    )


# ----------------------------------------------------------------------
# Query workload — the forensics service's headline scenario
# ----------------------------------------------------------------------


WORKLOAD_KIND_WEIGHTS: dict[str, float] = {
    "cluster_of": 28.0,
    "balance_of": 24.0,
    "cluster_balance": 12.0,
    "cluster_profile": 14.0,
    "top_clusters": 8.0,
    "trace_taint": 14.0,
}
"""Default query mix: mostly point lookups (the interactive forensics
pattern — "whose address is this, what does it hold"), a steady trickle
of cluster rollups, and periodic taint checks on watched thefts."""


def generate_query_workload(
    service: ForensicsService, *, n_queries: int = 200, seed: int = 0
) -> list[Query]:
    """A deterministic mixed query stream against one service.

    Addresses are drawn uniformly from the chain's interner (so the mix
    contains hot and cold clusters alike); taint queries cycle over the
    service's watched cases and are redistributed to the other kinds
    when nothing is watched.
    """
    rng = random.Random(seed)
    interner = service.index.interner
    if len(interner) == 0:
        raise ValueError("cannot build a workload against an empty chain")
    labels = service.taint.labels
    weights = dict(WORKLOAD_KIND_WEIGHTS)
    if not labels:
        weights.pop("trace_taint")
    kinds = list(weights)
    population = rng.choices(
        kinds, weights=[weights[k] for k in kinds], k=n_queries
    )
    queries: list[Query] = []
    for kind in population:
        if kind == "trace_taint":
            queries.append(Query(kind, (rng.choice(labels),)))
        elif kind == "top_clusters":
            queries.append(
                Query(kind, (rng.choice((5, 10, 20)), rng.choice(
                    ("size", "balance", "activity")
                )))
            )
        else:
            address = interner.address_of(rng.randrange(len(interner)))
            queries.append(Query(kind, (address,)))
    return queries


@dataclass
class QueryWorkloadResult:
    queries: list[Query]
    kind_counts: dict[str, int]
    first_pass_seconds: float
    repeat_pass_seconds: float
    cache_stats: dict
    service_stats: dict
    report: str


def run_query_workload(
    world: World | None = None,
    *,
    seed: int = 0,
    n_queries: int = 200,
    repeats: int = 1,
    service: ForensicsService | None = None,
) -> QueryWorkloadResult:
    """Serve a mixed forensics workload from warm materialized views.

    Builds (or reuses) a :class:`~repro.service.service.ForensicsService`
    over the world, generates a ``n_queries``-strong mixed stream, and
    answers it twice: the first pass populates the height-keyed memo
    (views are already warm — they streamed during ingestion), the
    repeat passes measure pure cache service.  This is the
    ``repro serve`` CLI's engine and the benchmark's workload source.
    """
    repeats = max(1, repeats)  # a repeat pass is always timed and reported
    if service is None:
        world = world or scenarios.default_economy(seed=seed)
        service = ForensicsService.from_world(world)
    if not service.taint.labels:
        watch_synthetic_thefts(service)
    queries = generate_query_workload(service, n_queries=n_queries, seed=seed)
    start = time.perf_counter()
    service.answer_many(queries)
    first_pass = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        service.answer_many(queries)
    repeat_pass = (time.perf_counter() - start) / repeats
    kind_counts: dict[str, int] = {}
    for query in queries:
        kind_counts[query.kind] = kind_counts.get(query.kind, 0) + 1
    stats = service.stats()
    result = QueryWorkloadResult(
        queries=queries,
        kind_counts=kind_counts,
        first_pass_seconds=first_pass,
        repeat_pass_seconds=repeat_pass,
        cache_stats=service.cache.stats(),
        service_stats=stats,
        report="",
    )
    result.report = render_query_workload(result)
    return result


@dataclass
class WarmServiceResult:
    """A service stood up against a durable ``--state-dir``."""

    service: ForensicsService
    store: "StateStore"
    cold: bool
    snapshot_height: int | None
    tail_blocks: int
    seconds: float
    report: str

    def checkpoint(self) -> None:
        """Snapshot the service's current state (the shutdown hook the
        CLI calls after serving, so watched taint cases and tail growth
        survive the next restart)."""
        self.store.snapshot(self.service)


def instrumented_service(
    world: World,
    *,
    metrics,
    include_public_tags: bool = True,
    crawl_seed: int = 0,
    **kwargs,
) -> ForensicsService:
    """Build a service by *streaming* the world's blocks through a fresh
    index with ``metrics`` attached from block zero.

    :meth:`ForensicsService.from_world` attaches to the world's already
    built index, so its catch-up replay happens before any registry can
    observe it; this path rebuilds the chain through the instrumented
    ``add_block`` fan-out instead — every delta build, fold, and flush
    lands in the registry, and the end-to-end ingest wall clock is
    recorded as the ``ingest.wall_seconds`` gauge.  This is the engine
    behind ``repro serve --metrics-dump`` without ``--state-dir``.
    """
    from .chain.index import ChainIndex
    from .core.heuristic2 import dice_addresses_from_tags
    from .simulation.params import DICE_GAMES
    from .tagging.sources import PublicTagCrawl
    from .tagging.tags import TagStore

    attack = world.extras.get("attack")
    tags = attack.tags if attack is not None else TagStore()
    if include_public_tags:
        tags = tags.merged_with(PublicTagCrawl(world, seed=crawl_seed).crawl())
    kwargs.setdefault(
        "dice_addresses", dice_addresses_from_tags(tags, DICE_GAMES)
    )
    index = ChainIndex()
    service = ForensicsService(index, tags=tags, metrics=metrics, **kwargs)
    start = time.perf_counter()
    for block in world.blocks:
        index.add_block(block)
    metrics.gauge("ingest.wall_seconds").set(time.perf_counter() - start)
    metrics.gauge("ingest.blocks").set(len(world.blocks))
    for theft in world.extras.get("thefts", ()):
        service.watch_theft(theft.record.spec.name, theft.record.theft_txids)
    return service


def warm_service_blocks_only(
    state_dir, *, retain: int = 3, metrics=None, log=None
) -> WarmServiceResult:
    """Warm-start a service from a state directory alone — no world.

    ``warm_service`` re-simulates the whole scenario on every restart
    just to validate the block files and extend them if the world grew;
    on a pure serving restart that build dwarfs the restore it guards.
    This path trusts ``<state_dir>/blocks/blk*.dat`` outright: restore
    the newest snapshot, tail-replay the on-disk blocks past it, done.
    It therefore *requires* a prior full run — a state directory with no
    snapshot fails closed instead of silently standing up an untagged
    service (tags, taint cases, and views all live in the snapshot).
    """
    from pathlib import Path

    from .storage import StateStore, StorageError

    state_dir = Path(state_dir)
    blocks_dir = state_dir / "blocks"
    if not blocks_dir.is_dir():
        raise StorageError(
            f"no block files under {blocks_dir}; --blocks-only needs a "
            f"state directory written by a previous full run"
        )
    store = StateStore(state_dir / "snapshots", metrics=metrics, log=log)
    start = time.perf_counter()
    if store.latest() is None:
        raise StorageError(
            f"no snapshot under {state_dir}; --blocks-only can only "
            f"restore, not build — run once without it to write the "
            f"baseline snapshot"
        )
    warm = store.warm_start(blocks_dir)
    store.prune(retain)
    seconds = time.perf_counter() - start
    return WarmServiceResult(
        service=warm.service,
        store=store,
        cold=False,
        snapshot_height=warm.snapshot_height,
        tail_blocks=warm.tail_blocks,
        seconds=seconds,
        report=(
            f"blocks-only warm start: restored snapshot at height "
            f"{warm.snapshot_height} + {warm.tail_blocks} tail blocks -> "
            f"height {warm.service.height} ({seconds:.2f}s, world build "
            f"skipped)"
        ),
    )


def warm_service(
    world: World, state_dir, *, retain: int = 3, metrics=None, log=None
) -> WarmServiceResult:
    """Stand a service up against a durable state directory.

    Layout: ``<state_dir>/blocks/blk*.dat`` (the chain substrate —
    written from the world on first run, extended if the world has grown
    since) and ``<state_dir>/snapshots/snap-*`` (the
    :class:`~repro.storage.store.StateStore`).

    First run (no snapshot): builds the service cold from the world and
    captures a baseline snapshot.  Every later run restores the newest
    snapshot and tail-replays only the blocks past it — the transparent
    warm start behind ``repro serve --state-dir``.  A snapshot taken
    against a *different* chain than the current world fails closed.
    """
    from pathlib import Path

    from .chain.blockfile import BlockFileReader, BlockFileWriter
    from .storage import StateStore, StorageError

    state_dir = Path(state_dir)
    blocks_dir = state_dir / "blocks"
    store = StateStore(state_dir / "snapshots", metrics=metrics, log=log)
    start = time.perf_counter()
    on_disk = (
        BlockFileReader(blocks_dir).count_blocks() if blocks_dir.is_dir() else 0
    )
    if on_disk:
        # Guard BEFORE writing anything: appending this world's blocks
        # to a directory built from a different scenario/seed would
        # corrupt the substrate for both.  Headers chain by prev_hash,
        # so one match at the last common height pins the whole prefix.
        probe = min(on_disk, len(world.blocks)) - 1
        probed = next(
            iter(BlockFileReader(blocks_dir).iter_blocks(start_height=probe)),
            None,
        )
        if probed is None or probed.header != world.blocks[probe].header:
            raise StorageError(
                f"block files under {blocks_dir} come from a different "
                f"chain than this scenario/seed produces; point "
                f"--state-dir at a fresh directory"
            )
    if on_disk < len(world.blocks):
        writer = BlockFileWriter(blocks_dir, resume=True)
        for block in world.blocks[on_disk:]:
            writer.write_block(block)
    snapshot = store.latest()
    if snapshot is None:
        if metrics is not None and metrics.enabled:
            service = instrumented_service(world, metrics=metrics, log=log)
        else:
            service = ForensicsService.from_world(world, log=log)
        store.snapshot(service)
        seconds = time.perf_counter() - start
        result = WarmServiceResult(
            service=service,
            store=store,
            cold=True,
            snapshot_height=None,
            tail_blocks=0,
            seconds=seconds,
            report=(
                f"cold start: built height {service.height} from the world "
                f"and wrote a baseline snapshot ({seconds:.2f}s)"
            ),
        )
        return result
    warm = store.warm_start(blocks_dir)
    service = warm.service
    guard_height = min(warm.snapshot_height, len(world.blocks) - 1)
    if (
        guard_height >= 0
        and service.index.block_at(guard_height).header
        != world.blocks[guard_height].header
    ):
        raise StorageError(
            f"snapshot under {state_dir} was captured from a different "
            f"chain than this scenario/seed produces; point --state-dir "
            f"at a fresh directory"
        )
    store.prune(retain)
    seconds = time.perf_counter() - start
    return WarmServiceResult(
        service=service,
        store=store,
        cold=False,
        snapshot_height=warm.snapshot_height,
        tail_blocks=warm.tail_blocks,
        seconds=seconds,
        report=(
            f"warm start: restored snapshot at height {warm.snapshot_height}"
            f" + {warm.tail_blocks} tail blocks -> height {service.height} "
            f"({seconds:.2f}s)"
        ),
    )


def watch_synthetic_thefts(service: ForensicsService, *, cases: int = 3) -> None:
    """Watch a few mid-chain spends as stand-in theft cases
    (deterministic ``case-N`` labels) so worlds without scripted thefts
    still exercise ``trace_taint`` — and so a dumped workload replays
    against a freshly built service."""
    index = service.index
    watched = 0
    # Walk upward block by block and stop at the last case: nothing of
    # the chain is decoded, let alone held, beyond those few blocks.
    for height in range(max(0, index.height // 3), index.height + 1):
        for tx in index.block_at(height).transactions:
            if tx.is_coinbase:
                continue
            watched += 1
            service.watch_theft(f"case-{watched}", [tx.txid])
            if watched >= cases:
                return


# ----------------------------------------------------------------------
# Table 2 — tracking bitcoins from the hoard
# ----------------------------------------------------------------------


@dataclass
class Table2Result:
    chain_summaries: list[dict]
    total_peels: int
    named_peels: int
    exchange_peels: int
    exchange_btc: float
    report: str


def run_table2(world: World | None = None, *, seed: int = 1) -> Table2Result:
    """§5/Table 2: follow the three dissolution chains for 100 hops."""
    world = world or scenarios.silkroad_world(seed=seed)
    view = AnalystView.build(world)
    hoard = world.extras["hoard"]
    tracker = view.peeling_tracker()
    exchange_entities = view.entities_in_category("exchanges") | (
        view.entities_in_category("fixed")
    )
    summaries = []
    total_peels = named_peels = exchange_peels = 0
    exchange_value = 0
    for head in hoard.state.chain_start_addresses:
        chain = tracker.follow_address(head, max_hops=100)
        # Recipients are named from the co-spend partition as of each
        # peel's spend height — the tip full partition retroactively
        # mislabels peels once a change-heuristic false positive bridges
        # a recipient's wallet into a service cluster.
        summary = summarize_peels_by_entity(
            chain,
            view.naming.name_of_address,
            name_of_peel=view.name_of_peel,
        )
        # Drop user names: the paper can only name services.
        summary = {
            name: s
            for name, s in summary.items()
            if not name.startswith("user") and name != "analyst"
        }
        summaries.append(summary)
        total_peels += len(chain.peels)
        named_peels += sum(s.peel_count for s in summary.values())
        for name, s in summary.items():
            if name in exchange_entities:
                exchange_peels += s.peel_count
                exchange_value += s.total_value
    report = render_table2(summaries)
    report += (
        f"\npeels followed: {total_peels} (paper: 300)"
        f"\npeels to named services: {named_peels}"
        f"\npeels to exchanges: {exchange_peels} (paper: 54/300)"
        f"\nBTC to exchanges: {format_btc(exchange_value)}"
    )
    return Table2Result(
        chain_summaries=summaries,
        total_peels=total_peels,
        named_peels=named_peels,
        exchange_peels=exchange_peels,
        exchange_btc=exchange_value / COIN,
        report=report,
    )


# ----------------------------------------------------------------------
# Table 3 — tracking thefts
# ----------------------------------------------------------------------


@dataclass
class Table3Result:
    rows: list[dict] = field(default_factory=list)
    grammar_matches: int = 0
    exchange_flag_matches: int = 0
    report: str = ""


def run_table3(world: World | None = None, *, seed: int = 2) -> Table3Result:
    """§5/Table 3: classify each theft's movement and exchange reach."""
    world = world or scenarios.theft_world(seed=seed)
    view = AnalystView.build(world)
    tracker = view.theft_tracker()
    exchange_entities = view.entities_in_category("exchanges") | (
        view.entities_in_category("fixed")
    )
    result = Table3Result()
    for theft in world.extras["thefts"]:
        record = theft.record
        analysis = tracker.track(record.theft_txids)
        reached = analysis.reached(exchange_entities)
        row = {
            "name": record.spec.name,
            "btc": f"{record.spec.paper_btc:,.0f}",
            "movement_paper": record.spec.movement,
            "movement_found": analysis.movement,
            "reached_exchanges": reached,
            "expected_reach": record.spec.reaches_exchanges,
            "exchange_btc": analysis.value_to(exchange_entities) / COIN,
            "dormant_btc": analysis.dormant_value / COIN,
        }
        result.rows.append(row)
        if analysis.movement == record.spec.movement:
            result.grammar_matches += 1
        if reached == record.spec.reaches_exchanges:
            result.exchange_flag_matches += 1
    result.report = render_table3(result.rows)
    result.report += (
        f"\nmovement grammar recovered exactly: "
        f"{result.grammar_matches}/{len(result.rows)}"
        f"\nexchange-reach flag correct: "
        f"{result.exchange_flag_matches}/{len(result.rows)}"
    )
    return result


# ----------------------------------------------------------------------
# Figure 2 — category balances over time
# ----------------------------------------------------------------------


@dataclass
class Figure2Result:
    series: object
    peaks: dict[str, float]
    report: str


def run_figure2(world: World | None = None, *, seed: int = 1) -> Figure2Result:
    """Figure 2: balance per category as % of active bitcoins.

    Peaks skip the first fifth of the window: with only a handful of
    active coins in existence, a single payment is a huge share of
    activity, which the paper's Dec-2010-onward window never exhibits.
    """
    world = world or scenarios.silkroad_world(seed=seed)
    view = AnalystView.build(world)
    series = view.balance_series(samples=80)
    peaks = {
        c: series.peak(c, skip_fraction=0.2) for c in series.by_category
    }
    return Figure2Result(
        series=series, peaks=peaks, report=render_figure2(series)
    )


# ----------------------------------------------------------------------
# Ablation — value of each H2 refinement rung
# ----------------------------------------------------------------------


@dataclass
class AblationResult:
    rows: list[dict]
    report: str


def run_ablation(world: World | None = None, *, seed: int = 0) -> AblationResult:
    """Sweep the H2 refinement toggles; score each against ground truth."""
    world = world or scenarios.default_economy(seed=seed)
    configs = [
        ("naive", Heuristic2Config.naive()),
        (
            "+dice",
            Heuristic2Config(
                dice_exception=True,
                wait_seconds=None,
                reject_reused_change=False,
                reject_prior_self_change=False,
            ),
        ),
        (
            "+wait-week",
            Heuristic2Config(
                dice_exception=True,
                reject_reused_change=False,
                reject_prior_self_change=False,
            ),
        ),
        (
            "+reject-reused",
            Heuristic2Config(
                dice_exception=True,
                reject_reused_change=True,
                reject_prior_self_change=False,
            ),
        ),
        ("refined (all)", Heuristic2Config.refined()),
    ]
    rows = []
    for name, config in configs:
        view = AnalystView.build(world, h2_config=config)
        clustering = view.clustering
        scores = pairwise_scores(clustering, world.ground_truth)
        labels = len(clustering.h2_result.labels) if clustering.h2_result else 0
        rows.append(
            {
                "config": name,
                "clusters": clustering.cluster_count,
                "change_labels": labels,
                "precision": scores.precision,
                "recall": scores.recall,
                "f1": scores.f1,
            }
        )
    report = render_table(
        ["config", "clusters", "labels", "precision", "recall", "F1"],
        [
            [
                r["config"],
                r["clusters"],
                r["change_labels"],
                f"{r['precision']:.4f}",
                f"{r['recall']:.4f}",
                f"{r['f1']:.4f}",
            ]
            for r in rows
        ],
        title="Ablation: H2 refinement rungs",
    )
    return AblationResult(rows=rows, report=report)
