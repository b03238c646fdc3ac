"""StateStore lifecycle: capture, discovery, retention, recovery."""

import pytest

from repro import experiments
from repro.chain.blockfile import BlockFileWriter
from repro.chain.index import ChainIndex
from repro.obs import MetricsRegistry
from repro.service import ForensicsService
from repro.simulation import scenarios
from repro.storage import (
    COMPONENTS,
    NoSnapshotError,
    SnapshotIntegrityError,
    SnapshotPolicy,
    StateStore,
    StorageError,
    read_manifest,
)


@pytest.fixture(scope="module")
def world():
    return scenarios.micro_economy(seed=13, n_blocks=50, n_users=8)


@pytest.fixture()
def served(world):
    """A cold service streaming the world's chain, with watched thefts."""
    index = ChainIndex()
    service = ForensicsService(index, tags=None)
    for block in world.blocks[:30]:
        index.add_block(block)
    experiments.watch_synthetic_thefts(service)
    for block in world.blocks[30:]:
        index.add_block(block)
    return service


class TestSnapshotCapture:
    def test_snapshot_writes_manifest_and_all_segments(self, tmp_path, served):
        store = StateStore(tmp_path)
        path = store.snapshot(served)
        manifest = read_manifest(path)
        assert manifest.height == served.height
        assert set(manifest.segments) == set(COMPONENTS)
        for record in manifest.segments.values():
            assert (path / record["file"]).stat().st_size == record["bytes"]
        assert manifest.chain["tx_count"] == served.index.tx_count

    def test_empty_service_rejected(self, tmp_path):
        service = ForensicsService(ChainIndex(), tags=None)
        with pytest.raises(StorageError, match="no blocks"):
            StateStore(tmp_path).snapshot(service)

    def test_detached_component_rejected(self, tmp_path, world):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in world.blocks[:5]:
            index.add_block(block)
        service.balances.detach()
        index.add_block(world.blocks[5])
        with pytest.raises(StorageError, match="balances"):
            StateStore(tmp_path).snapshot(service)

    def test_re_snapshot_same_height_replaces(self, tmp_path, served):
        store = StateStore(tmp_path)
        first = store.snapshot(served)
        second = store.snapshot(served)
        assert first == second
        assert len(store.snapshots()) == 1

    def test_no_scratch_left_behind(self, tmp_path, served):
        store = StateStore(tmp_path)
        store.snapshot(served)
        assert not list(tmp_path.glob(".tmp-*"))


class TestDiscoveryAndRetention:
    def test_snapshots_sorted_and_invalid_skipped(self, tmp_path, world):
        store = StateStore(tmp_path)
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in world.blocks[:10]:
            index.add_block(block)
        store.snapshot(service)
        for block in world.blocks[10:20]:
            index.add_block(block)
        store.snapshot(service)
        (tmp_path / "snap-99999999").mkdir()  # aborted: no manifest
        heights = [m.height for m in store.snapshots()]
        assert heights == [9, 19]
        assert store.latest().height == 19

    def test_prune_keeps_newest(self, tmp_path, world):
        store = StateStore(tmp_path)
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for i, block in enumerate(world.blocks[:30]):
            index.add_block(block)
            if (i + 1) % 10 == 0:
                store.snapshot(service)
        assert [m.height for m in store.snapshots()] == [9, 19, 29]
        removed = store.prune(2)
        assert [m.height for m in store.snapshots()] == [19, 29]
        assert len(removed) == 1
        with pytest.raises(ValueError):
            store.prune(0)

    def test_policy_snapshots_every_n_and_retains_k(self, tmp_path, world):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        store = StateStore(tmp_path)
        policy = SnapshotPolicy(store, every=10, retain=2).attach(service)
        for block in world.blocks:
            index.add_block(block)
        assert policy.snapshots_taken == 5  # heights 9, 19, 29, 39, 49
        assert [m.height for m in store.snapshots()] == [39, 49]
        policy.detach()

    def test_policy_snapshots_only_fully_folded_blocks(
        self, tmp_path, world, monkeypatch
    ):
        """The policy rides the delta fan-out as its last subscriber:
        when it fires, the engine and every view have folded the block."""
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        store = StateStore(tmp_path)
        SnapshotPolicy(store, every=5).attach(service)
        assert [name for _observer, name in index._observers] == [
            "engine", "aggregates", "balances", "activity", "taint",
            "snapshot-policy",
        ]
        seen = []
        capture = store.snapshot

        def spying_snapshot(target):
            seen.append(
                {
                    target.height, target.engine.height,
                    target.aggregates.height, target.balances.height,
                    target.activity.height, target.taint.height,
                }
            )
            return capture(target)

        monkeypatch.setattr(store, "snapshot", spying_snapshot)
        for block in world.blocks[:20]:
            index.add_block(block)
        assert seen == [{4}, {9}, {14}, {19}]

    def test_policy_failure_is_loud_after_everyone_was_notified(
        self, tmp_path, world, monkeypatch
    ):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        store = StateStore(tmp_path)
        SnapshotPolicy(store, every=1).attach(service)
        later = []
        index.subscribe_deltas(lambda delta: later.append(delta.height))

        def failing_snapshot(_service):
            raise StorageError("disk full")

        monkeypatch.setattr(store, "snapshot", failing_snapshot)
        with pytest.raises(StorageError, match="disk full"):
            index.add_block(world.blocks[0])
        assert later == [0]
        assert service.aggregates.height == service.height == 0

    def test_policy_attach_twice_rejected(self, tmp_path, world):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        policy = SnapshotPolicy(StateStore(tmp_path), every=10).attach(service)
        with pytest.raises(StorageError, match="attached"):
            policy.attach(service)


class TestRecovery:
    def test_restore_empty_store_raises(self, tmp_path):
        with pytest.raises(NoSnapshotError):
            StateStore(tmp_path).restore()

    def test_restore_round_trips_stats_and_queries(self, tmp_path, served, world):
        store = StateStore(tmp_path)
        store.snapshot(served)
        restored = store.restore()
        assert restored.height == served.height
        assert restored.index.tx_count == served.index.tx_count
        assert restored.index.address_count == served.index.address_count
        queries = experiments.generate_query_workload(
            served, n_queries=80, seed=5
        )
        assert served.answer_many(queries) == restored.answer_many(queries)

    def test_restore_missing_segment_fails_closed(self, tmp_path, served):
        store = StateStore(tmp_path)
        path = store.snapshot(served)
        (path / "engine.seg").unlink()
        with pytest.raises(SnapshotIntegrityError):
            store.restore()

    def test_restore_corrupt_segment_fails_closed(self, tmp_path, served):
        store = StateStore(tmp_path)
        path = store.snapshot(served)
        target = path / "balances.seg"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        target.write_bytes(bytes(raw))
        with pytest.raises(SnapshotIntegrityError):
            store.restore()

    def test_warm_start_tail_replays_to_tip(self, tmp_path, world):
        blocks_dir = tmp_path / "blocks"
        BlockFileWriter(blocks_dir).write_chain(world.blocks)
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        store = StateStore(tmp_path / "snapshots")
        for block in world.blocks[:35]:
            index.add_block(block)
        store.snapshot(service)
        warm = store.warm_start(blocks_dir)
        assert warm.snapshot_height == 34
        assert warm.tail_blocks == len(world.blocks) - 35
        assert warm.height == len(world.blocks) - 1
        assert warm.service.index.tx_count == world.index.tx_count

    def test_restored_service_keeps_streaming(self, tmp_path, world):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        store = StateStore(tmp_path)
        for block in world.blocks[:20]:
            index.add_block(block)
        store.snapshot(service)
        restored = store.restore()
        for block in world.blocks[20:]:
            restored.index.add_block(block)
        assert restored.height == world.index.height
        assert restored.engine.height == world.index.height
        assert restored.balances.height == world.index.height


class TestWarmServiceWorkflow:
    """The --state-dir workflow behind `repro serve`/`repro query`."""

    def test_cold_then_warm_then_mid_chain(self, tmp_path, world):
        first = experiments.warm_service(world, tmp_path)
        assert first.cold and first.snapshot_height is None
        assert first.service.height == world.index.height

        second = experiments.warm_service(world, tmp_path)
        assert not second.cold
        assert second.snapshot_height == world.index.height
        assert second.tail_blocks == 0

        # Simulate a mid-chain restart: regress the newest snapshot to a
        # prefix by snapshotting a prefix service into the same store.
        import shutil

        for manifest in second.store.snapshots():
            shutil.rmtree(manifest.directory)
        prefix_index = ChainIndex()
        prefix_service = ForensicsService(prefix_index, tags=None)
        for block in world.blocks[:25]:
            prefix_index.add_block(block)
        second.store.snapshot(prefix_service)

        third = experiments.warm_service(world, tmp_path)
        assert not third.cold
        assert third.snapshot_height == 24
        assert third.tail_blocks == world.index.height - 24
        assert third.service.height == world.index.height

    def test_mismatched_chain_fails_closed(self, tmp_path):
        world_a = scenarios.micro_economy(seed=1, n_blocks=20, n_users=5)
        world_b = scenarios.micro_economy(seed=2, n_blocks=20, n_users=5)
        experiments.warm_service(world_a, tmp_path)
        import shutil

        shutil.rmtree(tmp_path / "blocks")
        BlockFileWriter(tmp_path / "blocks").write_chain(world_b.blocks)
        with pytest.raises(StorageError, match="different"):
            experiments.warm_service(world_b, tmp_path)

    def test_mismatched_longer_world_rejected_before_any_write(self, tmp_path):
        """A foreign world must be rejected *before* its blocks are
        appended — otherwise the original state dir is corrupted even
        though the call raised."""
        world_a = scenarios.micro_economy(seed=1, n_blocks=20, n_users=5)
        world_b = scenarios.micro_economy(seed=2, n_blocks=30, n_users=5)
        experiments.warm_service(world_a, tmp_path)
        before = {
            path.name: path.read_bytes()
            for path in (tmp_path / "blocks").glob("blk*.dat")
        }
        with pytest.raises(StorageError, match="different"):
            experiments.warm_service(world_b, tmp_path)
        after = {
            path.name: path.read_bytes()
            for path in (tmp_path / "blocks").glob("blk*.dat")
        }
        assert after == before  # nothing was appended
        # The original world still warm-starts cleanly.
        again = experiments.warm_service(world_a, tmp_path)
        assert not again.cold
        assert again.service.height == world_a.index.height

    def test_checkpoint_persists_new_taint_cases(self, tmp_path, world):
        first = experiments.warm_service(world, tmp_path)
        experiments.watch_synthetic_thefts(first.service)
        labels = first.service.taint.labels
        assert labels
        first.checkpoint()
        second = experiments.warm_service(world, tmp_path)
        assert second.service.taint.labels == labels
        for label in labels:
            assert (
                second.service.trace_taint(label)
                == first.service.trace_taint(label)
            )


class TestClockAndTelemetry:
    """``created_unix`` comes from the injected wall clock; durations are
    monotonic measurements; the metrics registry sees every capture,
    recovery, and integrity failure."""

    def test_created_unix_pinned_by_injected_clock(self, tmp_path, served):
        store = StateStore(tmp_path, clock=lambda: 1_234_567_890.5)
        path = store.snapshot(served)
        assert read_manifest(path).created_unix == 1_234_567_890.5

    def test_duration_fields_recorded(self, tmp_path, served):
        store = StateStore(tmp_path)
        assert store.last_snapshot_seconds is None
        assert store.last_restore_seconds is None
        store.snapshot(served)
        assert store.last_snapshot_seconds > 0.0
        assert store.last_restore_seconds is None
        store.restore()
        assert store.last_restore_seconds > 0.0

    def test_snapshot_and_restore_metrics(self, tmp_path, served):
        metrics = MetricsRegistry()
        store = StateStore(tmp_path, metrics=metrics)
        path = store.snapshot(served)
        segment_bytes = sum(
            record["bytes"]
            for record in read_manifest(path).segments.values()
        )
        store.restore()
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["store.snapshot_seconds"]["count"] == 1
        assert snapshot["histograms"]["store.restore_seconds"]["count"] == 1
        assert snapshot["counters"]["store.snapshot_bytes"] == segment_bytes
        assert snapshot["counters"]["store.restore_bytes"] == segment_bytes
        kinds = [span["kind"] for span in metrics.flight.dump()]
        assert kinds == ["snapshot", "restore"]
        for span in metrics.flight.dump():
            assert span["height"] == served.height
            assert span["bytes"] == segment_bytes

    def test_integrity_failure_counted(self, tmp_path, served):
        metrics = MetricsRegistry()
        store = StateStore(tmp_path, metrics=metrics)
        path = store.snapshot(served)
        target = path / "engine.seg"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        target.write_bytes(bytes(raw))
        with pytest.raises(SnapshotIntegrityError):
            store.restore()
        counters = metrics.snapshot()["counters"]
        assert counters["store.integrity_failures"] == 1
        # A failed restore records no duration or success telemetry.
        assert store.last_restore_seconds is None
        assert "store.restore_bytes" not in counters
