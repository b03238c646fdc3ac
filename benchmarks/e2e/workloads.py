"""The four workloads: one journey, four load shapes.

Every workload runs the same user journey against the public API —
``blk*.dat`` on disk → bulk ingest with the full fan-out → first ranked
answer → follow the chain one block at a time with a query batch after
each → snapshot → tip / repeat / historical query phases → restart in a
fresh process — so every end-to-end metric exists on every workload.
What differs is the input (scale chain or tagged economy) and where the
blocks and queries are spent; see ``SPECS`` and the README.

Only generated inputs reach the program: ``--seed`` feeds the chain
generator and the query/address draws, nothing else.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from repro.chain.blockfile import BlockFileWriter
from repro.service import ForensicsService, Query
from repro.simulation import large_scale_blocks, scenarios

TOP_METRICS = ("size", "balance", "activity")
ADDRESS_KINDS = ("cluster_of", "cluster_balance", "cluster_profile", "balance_of")
CLUSTER_KINDS = ("cluster_of", "cluster_balance", "cluster_profile", "top_clusters")
ALL_KINDS = ADDRESS_KINDS + ("top_clusters", "trace_taint")
TAINT_LABELS = ("case-1", "case-2", "case-3")
"""The labels ``experiments.watch_synthetic_thefts`` documents."""


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  ``blocks - bulk`` blocks are followed one
    at a time; the snapshot is taken ``tail`` blocks before the end, so
    the restart replays ``tail`` blocks."""

    name: str
    chain: str  # "scale" (large_scale_blocks) or "economy" (default_economy)
    blocks: int
    bulk: int
    tip_queries: int
    hot_set: int
    repeat_draws: int
    hist_queries: int
    horizons: int
    cycle_share: float  # of --seconds spent on cycles; the rest on restarts
    tail: int = 64
    oracle_samples: int = 200
    chain_options: tuple = ()  # keyword arguments of large_scale_blocks

    def __post_init__(self) -> None:
        if not 0 < self.tail < self.blocks - self.bulk:
            raise ValueError(f"{self.name}: the snapshot must fall in the followed part")

    def smoke(self) -> "Spec":
        """~20× smaller, for the self-test; numbers are never compared."""
        blocks = 160 if self.chain == "economy" else 120
        follow = max(12, (self.blocks - self.bulk) * blocks // self.blocks)
        return replace(
            self,
            blocks=blocks,
            bulk=blocks - follow,
            tail=8,
            tip_queries=max(200, self.tip_queries // 20),
            hot_set=max(50, self.hot_set // 20),
            repeat_draws=max(500, self.repeat_draws // 20),
            hist_queries=max(40, self.hist_queries // 20),
            horizons=max(10, self.horizons // 20),
            oracle_samples=20,
        )


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="bulk-ingest",
            # Untagged scale chain, almost all blocks bulk-ingested
            # before the first query: chain index walk plus one
            # coalesced aggregate flush dominate; few queries.
            chain="scale", blocks=700, bulk=500,
            tip_queries=4000, hot_set=500, repeat_draws=20000,
            hist_queries=200, horizons=50, cycle_share=0.7,
        ),
        Spec(
            name="tip-follow",
            # Tagged economy followed one block at a time with a 5-query
            # batch after every block: per-block flushes, height-keyed
            # cache invalidated every block, naming churn.
            chain="economy", blocks=400, bulk=100,
            tip_queries=4000, hot_set=500, repeat_draws=20000,
            hist_queries=200, horizons=50, cycle_share=0.7,
        ),
        Spec(
            name="query-mix",
            # Tagged economy with watched thefts, query-heavy: tip set
            # ~10x the 4,096-entry cache (misses), a hot set inside it
            # (hits), and cold historical horizons; chain and storage do
            # little.
            chain="economy", blocks=400, bulk=200,
            tip_queries=40000, hot_set=2000, repeat_draws=200000,
            hist_queries=600, horizons=150, cycle_share=0.75,
        ),
        Spec(
            name="restart",
            # Denser scale chain (fewer, larger clusters, long merge
            # log), half the time on fresh-process restore + 64-block
            # tail replay: storage segments dominate.
            chain="scale", blocks=700, bulk=500,
            chain_options=(
                ("txs_per_block", 12), ("outputs_per_tx", 3),
                ("reuse_probability", 0.6),
            ),
            tip_queries=4000, hot_set=500, repeat_draws=20000,
            hist_queries=200, horizons=50, cycle_share=0.5,
        ),
    )
}


# ----------------------------------------------------------------------
# set-up: generate the inputs (untimed by the cycles, timed as setup_s)
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    blocks: list
    blocks_dir: Path
    tags: object
    dice: frozenset
    addresses: list  # first-seen order
    seen_by: list  # seen_by[h] = addresses seen up to and including block h
    follow_batches: list
    tip_queries: list
    repeat_draws: list
    hist_queries: list
    horizons: list
    generate_s: float
    write_s: float


def build_inputs(spec: Spec, seed: int, work: Path) -> Inputs:
    rng = random.Random(seed)
    start = perf_counter()
    if spec.chain == "scale":
        blocks = list(
            large_scale_blocks(spec.blocks, seed=seed, **dict(spec.chain_options))
        )
        tags, dice = None, frozenset()
    else:
        world = scenarios.default_economy(seed, n_blocks=spec.blocks)
        blocks = list(world.blocks)
        analyst = ForensicsService.from_world(world)
        tags, dice = analyst.tags, analyst.engine.dice_addresses
    generated = perf_counter()
    blocks_dir = work / "blocks"
    shutil.rmtree(blocks_dir, ignore_errors=True)
    BlockFileWriter(blocks_dir).write_chain(blocks)
    written = perf_counter()

    addresses: list = []
    seen: set = set()
    seen_by: list = []
    for block in blocks:
        for tx in block.transactions:
            for out in tx.outputs:
                address = out.address
                if address is not None and address not in seen:
                    seen.add(address)
                    addresses.append(address)
        seen_by.append(len(addresses))

    def address_seen_by(height: int) -> str:
        return addresses[rng.randrange(seen_by[height])]

    follow_batches = []
    for i, height in enumerate(range(spec.bulk, spec.blocks)):
        batch = [Query("top_clusters", (10, TOP_METRICS[i % 3]))]
        batch += [Query(kind, (address_seen_by(height),)) for kind in ADDRESS_KINDS]
        follow_batches.append(batch)

    tip = spec.blocks - 1
    fixed = [Query("top_clusters", (n, by)) for n in (5, 10, 20, 50) for by in TOP_METRICS]
    fixed += [Query("trace_taint", (label,)) for label in TAINT_LABELS]
    per_kind = -(-(spec.tip_queries - len(fixed)) // len(ADDRESS_KINDS))
    picked = rng.sample(addresses, min(per_kind, len(addresses)))
    tip_queries = fixed + [Query(k, (a,)) for a in picked for k in ADDRESS_KINDS]
    del tip_queries[spec.tip_queries:]
    rng.shuffle(tip_queries)

    hot = rng.sample(tip_queries, min(spec.hot_set, len(tip_queries)))
    repeat_draws = rng.choices(hot, k=spec.repeat_draws)

    horizons = [rng.randrange(tip) for _ in range(spec.horizons)]
    hist_queries = []
    for i in range(spec.hist_queries):
        height = horizons[i % len(horizons)]
        kind = CLUSTER_KINDS[(i + i // len(horizons)) % len(CLUSTER_KINDS)]
        if kind == "top_clusters":
            args = (10, TOP_METRICS[i % 3], height)
        else:
            args = (address_seen_by(height), height)
        hist_queries.append(Query(kind, args))
    rng.shuffle(hist_queries)

    return Inputs(
        blocks=blocks, blocks_dir=blocks_dir, tags=tags, dice=dice,
        addresses=addresses, seen_by=seen_by, follow_batches=follow_batches,
        tip_queries=tip_queries, repeat_draws=repeat_draws,
        hist_queries=hist_queries, horizons=horizons,
        generate_s=generated - start, write_s=written - generated,
    )
