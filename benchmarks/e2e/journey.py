"""The timed journey: bulk ingest → follow + snapshot → queries → restart.

One :class:`Journey` is one repetition on fresh state.  Only the public
API is called; the program sees the block files and the generated
queries, nothing else.  With a :class:`spans.Tracer` every call into a
layer runs inside a span and a few extra spans are taken (flush, verify,
cold horizons); without one only the clocks the end-to-end metrics need
are read.  A call that raises is counted in the ledger and the journey
goes on, so the failed share means something.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

from repro import experiments
from repro.chain.blockfile import BlockFileReader
from repro.chain.index import ChainIndex
from repro.service import ForensicsService, Query
from repro.storage import StateStore

import oracle
from hostnoise import Segments
from spans import Untraced

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
FIRST_QUERY = Query("top_clusters", (10, "size"))


SNAPSHOTS_PER_REP = 3
CHUNK = 250
"""Queries per clocked chunk in the untraced tip and repeat passes."""


def answer_pass(service, queries, ledger, phase, rep, segments, chunk) -> None:
    """Answer ``queries`` in order with a clock read after every
    ``chunk`` of them; ``segments`` gets the seconds per chunk."""
    answer = service.answer
    ledger.attempted += len(queries)
    last = segments.start()
    for low in range(0, len(queries), chunk):
        for op, query in enumerate(queries[low : low + chunk], low):
            try:
                answer(query)
            except Exception as exc:
                ledger.raised(phase, rep, op, exc)
        last = segments.lap(last)
    segments.close()


class Journey:
    """One repetition.  ``segments`` collects what each phase measured:
    seconds per operation (and, with a ``noise`` meter, the host load
    around each), in the same order in every repetition, so the caller
    can combine repetitions operation by operation.  ``values`` holds the
    same seconds as plain lists, plus the counts the traced run reads."""

    def __init__(
        self, spec, inputs, work, ledger, rep, tracer=None, metrics=None, noise=None
    ):
        self.spec, self.inputs, self.work = spec, inputs, work
        self.ledger, self.rep = ledger, rep
        self.tracer = tracer
        self.probe = tracer if tracer is not None else Untraced()
        self.probe.rep = rep
        self.metrics = metrics
        self.noise = noise
        self.segments: dict = {}
        self.values: dict = {}
        self.service = None
        self.snapshots_dir = work / f"snapshots-{rep}"

    def timed(self, name: str) -> Segments:
        """The recorder of phase ``name``; its seconds are ``values[name]``."""
        recorder = self.segments[name] = Segments(self.noise)
        self.values[name] = recorder.seconds
        return recorder

    def run(self) -> "Journey":
        gc.collect()
        self.bulk()
        self.follow()
        if self.tracer is not None:
            self.extra_spans()
        self.queries()
        return self

    # -- block files -> index + fan-out -> first ranked answer ---------

    def bulk(self) -> None:
        spec, probe, ledger, values = self.spec, self.probe, self.ledger, self.values
        self.gc_marks = [probe.gc_mark()]
        blocks = self.timed("bulk_s")  # per block: read + deserialize + add_block
        first = self.timed("first_query_s")
        phase = probe.start("phase.bulk")
        last = blocks.start()
        index = ChainIndex()
        if self.tracer is not None:
            self.tracer.wrap_fanout(index)
        extra = {} if self.metrics is None else {"metrics": self.metrics}
        self.service = service = ForensicsService(
            index, tags=self.inputs.tags, dice_addresses=self.inputs.dice, **extra
        )
        self.feed = probe.blocks(BlockFileReader(self.inputs.blocks_dir).iter_blocks())
        ledger.attempted += spec.bulk + 1
        for block in islice(self.feed, spec.bulk):
            try:
                probe.call("chain.add_block", index.add_block, block)
            except Exception as exc:
                ledger.raised("bulk", self.rep, block.height, exc)
            last = blocks.lap(last)
        blocks.close()
        last = first.start()
        try:
            if self.tracer is not None:
                # the coalesced flush alone, then the query on top of it
                flush = probe.start("service.aggregates.flush")
                service.aggregates.cluster_count
                values["flush_s"] = probe.end(flush)
            probe.call("service.answer", service.answer, FIRST_QUERY)
        except Exception as exc:
            ledger.raised("first-query", self.rep, 0, exc)
        first.lap(last)
        first.close()
        probe.end(phase)
        self.gc_marks.append(probe.gc_mark())

    # -- one block, then a query batch; a snapshot on the way ----------

    def follow(self) -> None:
        spec, probe, ledger, values = self.spec, self.probe, self.ledger, self.values
        service = self.service
        add_block, answer = service.index.add_block, service.answer
        experiments.watch_synthetic_thefts(service)
        shutil.rmtree(self.snapshots_dir, ignore_errors=True)
        store = StateStore(self.snapshots_dir)
        snapshot_height = spec.blocks - 1 - spec.tail
        blocks = self.timed("follow_s")  # per block: read .. end of its batch
        block_to_answer = self.timed("block_to_answer_s")
        snapshots = self.timed("snapshot_s")
        flushes = values["flush_per_block_s"] = []
        ledger.attempted += (
            spec.blocks - spec.bulk
        ) * (1 + len(self.inputs.follow_batches[0])) + SNAPSHOTS_PER_REP
        phase = probe.start("phase.follow")
        last = blocks.start()
        for batch, block in zip(self.inputs.follow_batches, self.feed):
            arrived = indexed = answered = perf_counter()
            try:
                probe.call("chain.add_block", add_block, block)
                indexed = answered = perf_counter()
                probe.call("service.answer", answer, batch[0])
                answered = perf_counter()
                for query in islice(batch, 1, None):
                    probe.call("service.answer", answer, query)
            except Exception as exc:
                ledger.raised("follow", self.rep, block.height, exc)
            block_to_answer.seconds.append(answered - arrived)
            flushes.append(answered - indexed)
            last = blocks.lap(last)
            if block.height == snapshot_height:
                probe.end(phase)
                blocks.close()
                taken = snapshots.start()
                try:
                    # the same height again replaces the snapshot: a full
                    # write, fsync and rename each time
                    for _ in range(SNAPSHOTS_PER_REP):
                        directory = probe.call("storage.snapshot", store.snapshot, service)
                        taken = snapshots.lap(taken)
                    sizes = [p.stat().st_size for p in directory.iterdir()]
                    values["snapshot_mib"] = sum(sizes) / 2**20
                except Exception as exc:
                    ledger.raised("snapshot", self.rep, block.height, exc)
                snapshots.close()
                phase = probe.start("phase.follow")
                last = blocks.start()
        blocks.close()
        # a block's first answer is part of that block's operation
        block_to_answer.load = blocks.load
        probe.end(phase)
        self.gc_marks.append(probe.gc_mark())

    # -- traced only: storage and cold-horizon spans, counts ------------

    def extra_spans(self) -> None:
        tracer, values, service = self.tracer, self.values, self.service
        store = StateStore(self.snapshots_dir)
        manifest = store.latest()
        values["segment_bytes"] = {
            name: record["bytes"] for name, record in manifest.segments.items()
        }
        ident = tracer.start("storage.verify")
        problems = store.verify_snapshot(manifest)
        values["verify_s"] = tracer.end(ident)
        self.ledger.check("verify_snapshot", problems, [])
        values["clusters"] = service.aggregates.cluster_count
        values["open_labels"] = service.engine.open_label_count
        # spine checkpoints are built the first time a replay crosses them
        values["horizon_s"] = []
        for height in dict.fromkeys(self.inputs.horizons):
            ident = tracer.start("service.aggregates.horizon")
            service.aggregates.horizon(height)
            values["horizon_s"].append(tracer.end(ident))

    # -- misses, hits, history ------------------------------------------

    def queries(self) -> None:
        inputs, probe, values = self.inputs, self.probe, self.values
        cache = self.service.cache
        # µs-scale queries share a clock per CHUNK unless per-kind
        # latencies are wanted; ms-scale historical ones get their own
        coarse = 1 if self.tracer is not None else CHUNK
        phase = probe.start("phase.queries")
        marks = values["cache_marks"] = [cache.stats()]
        for name, queries, chunk in (
            ("tip", inputs.tip_queries, coarse),
            ("repeat", inputs.repeat_draws, coarse),
            ("hist", inputs.hist_queries, 1),
        ):
            answer_pass(
                self.service, queries, self.ledger, name, self.rep,
                self.timed(f"{name}_s"), chunk,
            )
            marks.append(cache.stats())
        probe.end(phase)
        self.gc_marks.append(probe.gc_mark())

    @property
    def ingest_wall(self) -> float:
        """Seconds on the clock over the bulk and follow phases — the
        part where a traced repetition does the same work as a plain one."""
        values = self.values
        return sum(values["bulk_s"]) + sum(values["first_query_s"]) + sum(values["follow_s"])


# ----------------------------------------------------------------------
# restart: a fresh process per repetition
# ----------------------------------------------------------------------


def restart(inputs, snapshots_dir, mode: str, *extra: str) -> dict:
    """Run ``restart_child.py`` to the end and return the JSON it printed."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "restart_child.py"), str(SRC),
            str(inputs.blocks_dir), str(snapshots_dir), mode, *extra,
        ],
        capture_output=True, text=True, timeout=150,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise RuntimeError(f"restart child failed: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def restarts(spec, inputs, snapshots_dir, ledger, min_reps, deadline, mode="timed"):
    """Restart ``min_reps`` times and on until ``deadline``; returns what
    each child reported."""
    reports: list = []
    tries = 0
    while tries < min_reps or perf_counter() < deadline:
        tries += 1
        ledger.attempted += 2  # warm_start + first answer
        try:
            report = restart(inputs, snapshots_dir, mode)
        except Exception as exc:
            ledger.raised("restart", tries, 0, exc)
            continue
        ledger.check("restart height", report["height"], spec.blocks - 1)
        ledger.check("restart tail", report["tail_blocks"], spec.tail)
        reports.append(report)
    return reports


# ----------------------------------------------------------------------
# correctness, after the clocks have stopped
# ----------------------------------------------------------------------


def check_answers(spec, inputs, journey, ledger, seed) -> None:
    """Compare the last repetition's live service with independent
    recomputation, a bulk-ingested twin and a restarted service."""
    service = journey.service
    rng = random.Random(seed + 1)
    n = spec.oracle_samples
    tip = spec.blocks - 1
    ledger.check("height", service.height, tip)
    cluster_args = (ledger, service, inputs.dice, inputs.addresses, inputs.seen_by, rng)
    oracle.check_point_balances(ledger, service, inputs.addresses, rng, n)
    oracle.check_clusters(*cluster_args, tip, n, at_tip=True)
    if spec.chain == "economy":
        for height in rng.sample(inputs.horizons, 3):
            oracle.check_clusters(*cluster_args, height, n // 4, at_tip=False)
    mix = oracle.sample_queries(inputs, rng, 500 if n >= 200 else 60)
    oracle.check_horizon_at_tip(ledger, service, mix[: len(mix) // 4])

    # followed block by block == bulk-ingested, same blocks, same watch point
    twin_index = ChainIndex()
    twin = ForensicsService(twin_index, tags=inputs.tags, dice_addresses=inputs.dice)
    for block in inputs.blocks:
        twin_index.add_block(block)
        if block.height == spec.bulk - 1:
            experiments.watch_synthetic_thefts(twin)
    oracle.check_same_answers(
        ledger, "bulk twin", service, [twin.answer(q) for q in mix], mix
    )

    # restarted == never restarted
    queries_path = journey.work / "queries.pkl"
    answers_path = journey.work / "answers.pkl"
    queries_path.write_bytes(pickle.dumps(mix))
    try:
        restart(
            inputs, journey.snapshots_dir, "answers",
            str(queries_path), str(answers_path),
        )
        restored = pickle.loads(answers_path.read_bytes())  # our child wrote it
    except Exception as exc:
        ledger.attempted += len(mix)
        ledger.raised("restart-answers", 0, 0, exc)
        return
    oracle.check_same_answers(ledger, "restarted", service, restored, mix)
