"""The restore contract, property-style: snapshot at *every* height h,
restore + tail-replay to the tip, and demand the result is
indistinguishable from the never-restarted service — clustering,
balances, taint, activity, the cluster aggregates *at every height*
(their two segments round-trip, and the rankings/profiles they serve at
the tip and at each historical height are byte-equal), and the whole
query surface.

This is the storage layer's analogue of PR 1's incremental==batch and
PR 2's view==batch properties: recovery must not be a new code path
with new answers, and because tail replay runs through the normal
observer fan-out, equality here is exact (same roots, same floats,
same tuples), not merely shape-compatible.
"""

import pytest

from repro import experiments
from repro.chain.blockfile import BlockFileWriter
from repro.chain.index import ChainIndex
from repro.service import ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import scenarios
from repro.storage import StateStore

from tests.helpers import HistoryTwin, ranking


N_BLOCKS = 36


@pytest.fixture(scope="module")
def world():
    return scenarios.micro_economy(seed=21, n_blocks=N_BLOCKS, n_users=6)


@pytest.fixture(scope="module")
def reference_and_store(world, tmp_path_factory):
    """One cold service streamed to the tip, snapshotted at every height."""
    root = tmp_path_factory.mktemp("every-height")
    blocks_dir = root / "blocks"
    BlockFileWriter(blocks_dir).write_chain(world.blocks)
    store = StateStore(root / "snapshots")
    index = ChainIndex()
    service = ForensicsService(index, tags=None)
    watched = False
    for block in world.blocks:
        index.add_block(block)
        if not watched and block.height >= N_BLOCKS // 3:
            # Watch thefts early so most snapshots carry live taint state.
            experiments.watch_synthetic_thefts(service)
            watched = True
        store.snapshot(service)
    assert len(store.snapshots()) == len(world.blocks)
    return service, store, blocks_dir


def _taint(service, label):
    """One watched case's state: what a batch ``TaintResult`` holds."""
    case = service.taint.case(label)
    return (
        case.initial_taint,
        dict(case.taint),
        dict(case.at_entities),
        case.txs_processed,
    )


def _assert_equivalent(reference, restored):
    height = reference.height
    assert restored.height == height
    # Chain index: one representation — what a restored-then-followed
    # index holds is, byte for byte, what the never-restarted one holds.
    assert restored.index.export_state() == reference.index.export_state()
    # Engine: identical accounting at every horizon, identical partition.
    assert (
        reference.engine.cluster_count_series()
        == restored.engine.cluster_count_series()
    )
    ref_clusters = reference.engine.cluster_as_of()
    new_clusters = restored.engine.cluster_as_of()
    assert (
        ref_clusters.uf.component_sizes() == new_clusters.uf.component_sizes()
    )
    # Balances (built from the restored rows, then streamed): every id,
    # and the issuance.
    for ident in range(reference.index.address_count):
        assert reference.balances.balance_of_id(
            ident
        ) == restored.balances.balance_of_id(ident), ident
    assert reference.balances.supply == restored.balances.supply
    # Activity: counts and seen-ranges per id.
    for ident in range(reference.index.address_count):
        assert reference.activity.tx_count_of_id(
            ident
        ) == restored.activity.tx_count_of_id(ident)
        assert reference.activity.seen_range_of_id(
            ident
        ) == restored.activity.seen_range_of_id(ident)
    # Taint: every watched case, exactly.
    assert reference.taint.labels == restored.taint.labels
    for label in reference.taint.labels:
        assert _taint(reference, label) == _taint(restored, label), label
    # Cluster aggregates: the restored view (tip arrays and delta log
    # from the two segments + overlay rebuilt off the restored engine's
    # open labels) must rank identically at the tip and at every height
    # below it, and the ranked/profiled answers it serves must be
    # byte-equal to the never-restarted service's.
    assert restored.aggregates.height == reference.aggregates.height == height
    interner = reference.index.interner
    for h in [*range(height + 1), None]:
        at = () if h is None else (h,)
        for by in TOP_CLUSTER_METRICS:
            expected = ranking(reference.aggregates.at(h), by)
            assert ranking(restored.aggregates.at(h), by) == expected, (h, by)
            query = Query("top_clusters", (12, by) + at)
            assert repr(reference.answer(query)) == repr(restored.answer(query))
        for ident in range(0, len(interner), 11 if h is None else 37):
            query = Query("cluster_profile", (interner.address_of(ident),) + at)
            assert repr(reference.answer(query)) == repr(
                restored.answer(query)
            ), query
    # The full query surface, answered in a mixed batch.
    queries = experiments.generate_query_workload(
        reference, n_queries=60, seed=11
    )
    assert reference.answer_many(queries) == restored.answer_many(queries)


def test_restore_and_tail_replay_equals_cold_service_at_every_height(
    reference_and_store,
):
    reference, store, blocks_dir = reference_and_store
    for manifest in store.snapshots():
        warm = store.warm_start(blocks_dir, snapshot=manifest)
        assert warm.snapshot_height == manifest.height
        assert warm.tail_blocks == reference.height - manifest.height
        if not warm.service.taint.labels:
            # Snapshots predating the watch don't carry the cases — a
            # watch is an operator action, not chain state.  Re-issuing
            # it lands on identical state (watch catch-up == streaming,
            # the PR 2 view property), which this equivalence then pins.
            experiments.watch_synthetic_thefts(warm.service)
        _assert_equivalent(reference, warm.service)


def test_restored_histories_equal_an_independent_walk(
    reference_and_store, world
):
    """Snapshot → restore → tail: every address record the restored
    index reads equals rows rebuilt from the blocks, at the snapshot
    height and after each tail block."""
    _reference, store, blocks_dir = reference_and_store
    histories = HistoryTwin()
    manifest = store.snapshots()[len(world.blocks) // 3]
    for block in world.blocks[: manifest.height + 1]:
        histories.apply(block)
    restored = store.restore(manifest).index
    histories.assert_matches(restored)
    for block in world.blocks[manifest.height + 1 :]:
        restored.add_block(block)
        histories.apply(block)
        histories.assert_matches(restored)


def test_restored_service_streams_like_cold_from_any_height(
    reference_and_store, world
):
    """Restoring and then feeding blocks by hand (no block files) is the
    same as tail replay — the restore is to *live* state."""
    reference, store, _blocks_dir = reference_and_store
    manifest = store.snapshots()[len(world.blocks) // 2]
    restored = store.restore(manifest)
    for block in world.blocks[manifest.height + 1 :]:
        restored.index.add_block(block)
    _assert_equivalent(reference, restored)
