"""Array-backed durable state: bytes round-trips and the version gate.

The snapshot layout stores every dense per-id array as one raw
little-endian int64 buffer.  The contracts pinned here:

* **byte-equal round trip** — ``export_state`` → ``from_state`` →
  ``export_state`` reproduces the original payload bit for bit, for
  every array-backed component (union-find, balance/activity views,
  cluster aggregates and their delta log);
* **extra base keys** — a ``timetravel`` base written while the state
  still carried four per-address arrays restores; the keys are ignored;
* **manifest gate** — only the current manifest version restores;
  older layouts (list-shaped arrays, no ``timetravel`` segment) fail
  closed with an error that names what was found and the remedy, and
  ``repro doctor`` reports them as unrestorable, not as corrupt;
* **chain state gate** — the same rule one level down: a version-1
  chain segment (pickled per-address row lists and UTXO objects) inside
  a current manifest is intact but unrestorable.
"""

import json

import pytest

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.core.union_find import IntUnionFind
from repro.service.aggregates import ClusterAggregateView, TOP_CLUSTER_METRICS
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks
from repro.storage.errors import SnapshotIntegrityError, UnsupportedSnapshotError
from repro.storage.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SUPPORTED_VERSIONS,
    read_manifest,
)


@pytest.fixture(scope="module")
def streamed():
    """One small high-merge chain streamed into every fold consumer."""
    index = ChainIndex()
    engine = IncrementalClusteringEngine(index)
    balances = BalanceView(index)
    activity = ActivityView(index)
    aggregates = ClusterAggregateView(index, engine=engine)
    for block in large_scale_blocks(30, seed=7):
        index.add_block(block)
    assert aggregates.cluster_count > 0  # force the flush
    return index, engine, balances, activity, aggregates


class TestByteEqualRoundTrip:
    def test_union_find(self, streamed):
        _index, engine, *_ = streamed
        state = engine._uf.export_state()
        assert isinstance(state["parent"], bytes)
        restored = IntUnionFind.from_state(state)
        assert restored.export_state() == state
        assert restored.component_sizes() == engine._uf.component_sizes()

    def test_union_find_rejects_misaligned_arrays(self, streamed):
        _index, engine, *_ = streamed
        state = engine._uf.export_state()
        state["size"] = state["size"][:-8]
        with pytest.raises(ValueError):
            IntUnionFind.from_state(state)

    def test_balance_view(self, streamed):
        index, _engine, balances, *_ = streamed
        state = balances.export_state()
        assert state["version"] == 2
        assert isinstance(state["balances"], bytes)
        restored = BalanceView.from_state(index, state, follow=False)
        assert restored.export_state() == state

    def test_activity_view(self, streamed):
        index, _engine, _balances, activity, _aggregates = streamed
        state = activity.export_state()
        assert isinstance(state["tx_counts"], bytes)
        restored = ActivityView.from_state(index, state, follow=False)
        assert restored.export_state() == state

    def test_aggregate_view(self, streamed):
        index, engine, _balances, _activity, aggregates = streamed
        state = aggregates.export_state()
        history = aggregates.export_time_travel()
        assert isinstance(state["balance"], bytes)
        restored = ClusterAggregateView.from_state(
            index, state, history, engine=engine, follow=False
        )
        assert restored.export_state() == state
        assert restored.export_time_travel() == history
        for metric in TOP_CLUSTER_METRICS:
            assert restored.at().ranking(metric) == aggregates.at().ranking(
                metric
            )


class TestTimeTravelBaseWrittenWithPerAddressColumns:
    def test_the_four_extra_base_keys_are_ignored(self, tmp_path):
        """Before address history moved to the index's rows, the
        ``timetravel`` base state carried four per-address arrays
        (``a_balance`` / ``a_tx_count`` / ``a_first`` / ``a_last``).  A
        snapshot written that way restores, answers every historical
        cluster query as the service that wrote it does, and snapshots
        again without them."""
        from repro.service import ForensicsService, Query
        from repro.storage import StateStore
        from repro.storage.segments import read_segment, write_segment

        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in large_scale_blocks(12, seed=3):
            index.add_block(block)
        store = StateStore(tmp_path / "snapshots")
        directory = store.snapshot(service)
        path = directory / "timetravel.seg"
        written = read_segment(path, expected_name="timetravel")
        assert not any(key.startswith("a_") for key in written["base"])
        old_base = {
            **written["base"],
            **dict.fromkeys(("a_balance", "a_tx_count", "a_first", "a_last"), b""),
        }
        record = write_segment(
            directory, "timetravel", {**written, "base": old_base}
        )
        manifest_path = directory / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["segments"]["timetravel"] = record
        manifest_path.write_text(json.dumps(raw))

        restored = store.restore(follow=False)
        assert restored.aggregates.export_time_travel() == written
        interner = index.interner
        for height in range(service.height + 1):
            queries = [Query("top_clusters", (8, "activity", height))]
            for ident in range(0, len(interner), 3):
                address = interner.address_of(ident)
                queries += [
                    Query(kind, (address, height))
                    for kind in ("cluster_of", "cluster_balance", "cluster_profile")
                ]
            for query in queries:
                assert restored.answer(query) == service.answer(query), query


class TestManifestVersionGate:
    def test_only_the_current_version_is_supported(self):
        assert MANIFEST_VERSION == 4
        assert SUPPORTED_VERSIONS == {4}

    def _state_dir(self, tmp_path):
        """``<dir>/snapshots/snap-*`` the way ``repro doctor`` expects."""
        from repro.service import ForensicsService
        from repro.storage import StateStore

        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in large_scale_blocks(4, seed=1):
            index.add_block(block)
        store = StateStore(tmp_path / "snapshots")
        return store, store.snapshot(service)

    def _rewrite_manifest(self, directory, edit):
        path = directory / MANIFEST_NAME
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_versions_are_refused_with_the_remedy(self, tmp_path, version):
        store, directory = self._state_dir(tmp_path)
        self._rewrite_manifest(
            directory, lambda raw: raw.update(format_version=version)
        )
        with pytest.raises(UnsupportedSnapshotError) as refused:
            read_manifest(directory)
        message = str(refused.value)
        assert f"format version {version} found" in message
        assert "restores version 4 only" in message
        assert "re-ingest from blk*.dat" in message
        assert store.latest() is None  # nothing a restore would pick

    def test_v4_without_the_timetravel_segment_is_refused(self, tmp_path):
        store, directory = self._state_dir(tmp_path)
        self._rewrite_manifest(
            directory, lambda raw: raw["segments"].pop("timetravel")
        )
        manifest = read_manifest(directory)
        with pytest.raises(UnsupportedSnapshotError) as refused:
            store.restore(manifest)
        message = str(refused.value)
        assert "no 'timetravel' segment found" in message
        assert "re-ingest from blk*.dat" in message

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw.update(format_version=2),
            lambda raw: raw.update(format_version=3),
            lambda raw: raw["segments"].pop("timetravel"),
        ],
        ids=["v2", "v3", "v4-no-timetravel"],
    )
    def test_doctor_reports_unrestorable_not_corrupt(self, tmp_path, edit):
        from repro.obs.doctor import run_doctor

        _store, directory = self._state_dir(tmp_path)
        self._rewrite_manifest(directory, edit)
        report = run_doctor(tmp_path)
        assert not report.ok
        text = " ".join(report.problems)
        assert "unrestorable" in text and "re-ingest from blk*.dat" in text
        assert "checksum" not in text
        assert "unreadable or missing manifest" not in text

    def _downgrade_chain_segment(self, directory):
        """Rewrite the chain segment as a version-1 state would look to
        the gate (checksums and manifest kept consistent: the snapshot
        is intact, just old)."""
        from repro.storage.segments import write_segment

        record = write_segment(directory, "chain", {"version": 1, "records": []})
        self._rewrite_manifest(
            directory, lambda raw: raw["segments"].update(chain=record)
        )

    def test_version_1_chain_state_is_refused_with_the_remedy(self, tmp_path):
        assert ChainIndex.STATE_VERSION == 2
        store, directory = self._state_dir(tmp_path)
        self._downgrade_chain_segment(directory)
        manifest = read_manifest(directory)
        with pytest.raises(UnsupportedSnapshotError) as refused:
            store.restore(manifest)
        message = str(refused.value)
        assert "chain state version 1 found" in message
        assert "restores version 2 only" in message
        assert "re-ingest from blk*.dat" in message
        with pytest.raises(ValueError, match="chain state version 1"):
            ChainIndex.restore_state({"version": 1})

    def test_doctor_reports_version_1_chain_state_as_unrestorable(self, tmp_path):
        from repro.obs.doctor import run_doctor

        _store, directory = self._state_dir(tmp_path)
        self._downgrade_chain_segment(directory)
        report = run_doctor(tmp_path)
        assert not report.ok
        text = " ".join(report.problems)
        assert "unrestorable" in text and "re-ingest from blk*.dat" in text
        assert "chain state version 1 found" in text
        assert "checksum" not in text and "corrupt" not in text

    def test_unknown_version_fails_closed(self, tmp_path):
        _store, directory = self._state_dir(tmp_path)
        self._rewrite_manifest(
            directory, lambda raw: raw.update(format_version=99)
        )
        with pytest.raises(SnapshotIntegrityError):
            read_manifest(directory)
