"""Array-backed durable state: bytes round-trips and the version gate.

The snapshot layout stores every dense per-id array as one raw
little-endian int64 buffer.  The contracts pinned here:

* **byte-equal round trip** — ``export_state`` → ``from_state`` →
  ``export_state`` reproduces the original payload bit for bit, for
  every array-backed component (union-find, cluster aggregates and
  their delta log);
* **extra base keys** — a ``timetravel`` base written while the state
  still carried four per-address arrays restores; the keys are ignored;
  a base at any height but genesis is refused;
* **nothing derivable on disk** — the ``aggregates`` segment holds the
  tip's base forest only, and one written while it also carried the
  root columns restores with them ignored;
* **extra segments** — a snapshot that still carries the ``balances``
  and ``activity`` segments restores to the same service as one
  without them;
* **manifest gate** — only the current manifest version restores;
  older layouts (list-shaped arrays, no ``timetravel`` segment) fail
  closed with an error that names what was found and the remedy, and
  ``repro doctor`` reports them as unrestorable, not as corrupt;
* **chain state gate** — the same rule one level down: a version-1
  chain segment (pickled per-address row lists and UTXO objects) inside
  a current manifest is intact but unrestorable.
"""

import json

import numpy as np
import pytest

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.core.union_find import IntUnionFind
from repro.service.aggregates import ClusterAggregateView, TOP_CLUSTER_METRICS
from repro.simulation import large_scale_blocks
from repro.storage.errors import SnapshotIntegrityError, UnsupportedSnapshotError
from repro.storage.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SUPPORTED_VERSIONS,
    read_manifest,
)

from tests.helpers import ranking


@pytest.fixture(scope="module")
def streamed():
    """One small high-merge chain streamed into every exported fold."""
    index = ChainIndex()
    engine = IncrementalClusteringEngine(index)
    aggregates = ClusterAggregateView(index, engine=engine)
    for block in large_scale_blocks(30, seed=7):
        index.add_block(block)
    assert aggregates.cluster_count > 0  # force the flush
    return index, engine, aggregates


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

    def test_union_find_rejects_a_log_that_disagrees_with_its_forest(
        self, streamed
    ):
        """A forged ``kept`` would date a merge into the wrong cluster
        and a repeated ``absorbed`` would make two merges of one root;
        both change historical answers, so restore refuses them."""
        _index, engine, *_ = streamed
        state = engine._uf.export_state()
        log = np.frombuffer(state["log"], dtype="<i8").reshape(-1, 2)
        assert len(log) > 3
        forged = log.copy()
        forged[2, 1] += 1
        with pytest.raises(ValueError, match="entry 2 .*disagrees"):
            IntUnionFind.from_state({**state, "log": forged.tobytes()})
        repeated = log.copy()
        repeated[3, 0] = repeated[1, 0]
        with pytest.raises(ValueError, match="entry 1 .*twice"):
            IntUnionFind.from_state({**state, "log": repeated.tobytes()})
        short = log[:-1].tobytes()
        with pytest.raises(ValueError, match="need"):
            IntUnionFind.from_state({**state, "log": short})

    def test_aggregate_view(self, streamed):
        index, engine, aggregates = streamed
        state = aggregates.export_state()
        history = aggregates.export_time_travel()
        assert list(state) == ["version", "height", "uf"]
        restored = ClusterAggregateView.from_state(
            index, state, history, engine=engine
        )
        restored.detach()
        assert restored.export_state() == state
        assert restored.export_time_travel() == history
        for metric in TOP_CLUSTER_METRICS:
            assert ranking(restored.at(), metric) == ranking(aggregates.at(), metric)


    def test_a_delta_log_after_genesis_is_refused(self, streamed):
        """Past heights are built from a log that starts at genesis: a
        log whose base is a later height is intact but unrestorable."""
        index, engine, aggregates = streamed
        history = aggregates.export_time_travel()
        late = {**history, "base": {**history["base"], "height": 3}}
        with pytest.raises(UnsupportedSnapshotError, match="genesis"):
            ClusterAggregateView.from_state(
                index, aggregates.export_state(), late, engine=engine
            )


    def test_a_delta_log_that_misses_the_tip_is_refused(self, streamed):
        """The restored tip's columns are the log's fold at the state's
        height, so a log that ends elsewhere cannot restore."""
        index, engine, aggregates = streamed
        history = aggregates.export_time_travel()
        short = {**history, "records": history["records"][:-1]}
        with pytest.raises(ValueError, match="ends at height"):
            ClusterAggregateView.from_state(
                index, aggregates.export_state(), short, engine=engine
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

        restored = store.restore()
        restored.detach()
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


class TestAggregatesSegmentWrittenWithRootColumns:
    """Before the tip's root columns were folded from the delta log on
    restore, the ``aggregates`` segment carried them (``balance``,
    ``tx_count``, ``first_seen``, ``last_seen``, ``min_member``) and the
    ``timetravel`` base an empty state of the same shape."""

    @staticmethod
    def _snapshot(tmp_path):
        from repro.service import ForensicsService
        from repro.storage import StateStore

        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in large_scale_blocks(12, seed=3):
            index.add_block(block)
        store = StateStore(tmp_path / "snapshots")
        return index, service, store, store.snapshot(service)

    def test_a_fresh_segment_holds_only_the_base_forest(self, tmp_path):
        """Nothing derivable is on disk: the columns are the log's."""
        from repro.storage.segments import read_segment

        *_, directory = self._snapshot(tmp_path)
        aggregates = read_segment(
            directory / "aggregates.seg", expected_name="aggregates"
        )
        assert list(aggregates) == ["version", "height", "uf"]
        history = read_segment(
            directory / "timetravel.seg", expected_name="timetravel"
        )
        assert history["base"] == {"height": -1}

    def test_the_root_columns_and_old_base_keys_are_ignored(self, tmp_path):
        """A snapshot in that layout restores to the same answers at
        every height.  Its columns are written one off from the tip's,
        so a restore that read them would answer differently."""
        from repro.service import Query
        from repro.storage.segments import read_segment, write_segment

        index, service, store, directory = self._snapshot(tmp_path)
        aggregates = read_segment(
            directory / "aggregates.seg", expected_name="aggregates"
        )
        history = read_segment(
            directory / "timetravel.seg", expected_name="timetravel"
        )
        tip = service.aggregates._tip
        n = len(tip.uf)
        seen = np.full(n, -1, dtype="<i8").tobytes()
        old_aggregates = {
            **aggregates,
            **{
                key: (column.array + 1).tobytes()
                for key, column in (
                    ("balance", tip.roots.balance),
                    ("tx_count", tip.roots.tx_count),
                )
            },
            "first_seen": seen,
            "last_seen": seen,
            "min_member": (tip.min_member.array + 1).tobytes(),
        }
        old_base = {
            "height": -1,
            "mark": 0,
            "uf": IntUnionFind().export_state(),
            **dict.fromkeys(
                ("balance", "tx_count", "first_seen", "last_seen", "min_member"),
                b"",
            ),
            "open": [],
        }
        manifest_path = directory / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        for name, state in (
            ("aggregates", old_aggregates),
            ("timetravel", {**history, "base": old_base}),
        ):
            raw["segments"][name] = write_segment(directory, name, state)
        manifest_path.write_text(json.dumps(raw))

        restored = store.restore()
        restored.detach()
        assert restored.aggregates.export_state() == aggregates
        assert restored.aggregates.export_time_travel() == history
        interner = index.interner
        for height in range(service.height + 1):
            queries = [
                Query("top_clusters", (8, by, height)) for by in TOP_CLUSTER_METRICS
            ]
            for ident in range(0, len(interner), 3):
                address = interner.address_of(ident)
                queries += [
                    Query(kind, (address, height))
                    for kind in ("cluster_of", "cluster_balance", "cluster_profile")
                ]
            for query in queries:
                assert restored.answer(query) == service.answer(query), query


class TestSnapshotWithTheBalanceAndActivitySegments:
    def test_restores_equal_to_the_six_segment_snapshot(self, tmp_path):
        """Snapshots written before the balance and activity views were
        built from the chain's rows carry two more segments.  Same
        manifest version: restore ignores them (``repro doctor`` still
        verifies them, ``tests/obs/test_doctor.py``)."""
        from repro.experiments import generate_query_workload
        from repro.service import ForensicsService
        from repro.storage import COMPONENTS, StateStore

        from tests.helpers import add_view_segments

        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in large_scale_blocks(12, seed=5):
            index.add_block(block)
        store = StateStore(tmp_path / "snapshots")
        directory = store.snapshot(service)
        assert set(read_manifest(directory).segments) == set(COMPONENTS)
        assert len(COMPONENTS) == 6
        six = store.restore()
        six.detach()
        add_view_segments(directory, service)
        assert len(read_manifest(directory).segments) == 8
        eight = store.restore()
        eight.detach()
        for restored in (six, eight):
            assert restored.balances.supply == service.balances.supply
            assert (
                restored.balances._balances.tolist()
                == service.balances._balances.tolist()
            )
            for name in ("_tx_counts", "_first_seen", "_last_seen"):
                assert (
                    getattr(restored.activity, name).tolist()
                    == getattr(service.activity, name).tolist()
                ), name
            assert (
                restored.aggregates.export_state()
                == service.aggregates.export_state()
            )
        queries = generate_query_workload(service, n_queries=40, seed=2)
        assert eight.answer_many(queries) == six.answer_many(queries)
        assert eight.answer_many(queries) == service.answer_many(queries)


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
