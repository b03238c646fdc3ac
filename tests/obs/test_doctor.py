"""``repro doctor`` deep diagnostics: clean state passes, one flipped
byte fails — the contract the nightly CI corruption drill asserts.
"""

import json

import pytest

from repro.experiments import warm_service
from repro.obs.doctor import run_doctor
from repro.simulation import scenarios


@pytest.fixture()
def state_dir(tmp_path):
    """A durable state dir (blocks + baseline snapshot) for a micro
    world, exactly as ``repro serve --state-dir`` lays it out."""
    world = scenarios.micro_economy(seed=3)
    warm = warm_service(world, tmp_path)
    warm.checkpoint()
    return tmp_path


def _flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestCleanStateDir:
    def test_doctor_passes_and_reports(self, state_dir):
        report = run_doctor(state_dir)
        assert report.ok, report.problems
        assert report.exit_code == 0
        assert report.snapshots
        assert all(not entry["problems"] for entry in report.snapshots)
        assert report.restored_height is not None
        assert report.audit["ok"] is True
        assert report.health["status"] != "failing"
        rendered = report.render()
        assert "result: HEALTHY" in rendered
        assert "audit: clean" in rendered

    def test_report_serializes(self, state_dir):
        payload = run_doctor(state_dir).as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["ok"] is True
        assert round_tripped["state_dir"] == str(state_dir)


class TestCorruptionDetected:
    def test_flipped_segment_byte_fails(self, state_dir):
        segment = sorted(
            (state_dir / "snapshots").glob("snap-*/*.seg")
        )[0]
        _flip_one_byte(segment)
        report = run_doctor(state_dir)
        assert not report.ok
        assert report.exit_code == 1
        assert any("checksum" in problem for problem in report.problems)
        assert "PROBLEM" in report.render()

    def test_flipped_byte_in_an_unrestored_segment_fails(self, state_dir):
        """A snapshot written while the balance and activity views still
        had segments restores without reading them, but doctor
        checksums every segment the manifest lists."""
        from repro.storage import StateStore

        from tests.helpers import add_view_segments

        store = StateStore(state_dir / "snapshots")
        directory = store.latest().directory
        restored = store.restore()
        restored.detach()
        add_view_segments(directory, restored)
        assert run_doctor(state_dir).exit_code == 0
        _flip_one_byte(directory / "balances.seg")
        report = run_doctor(state_dir)
        assert report.exit_code == 1
        assert any(
            "'balances'" in problem and "checksum" in problem
            for problem in report.problems
        ), report.problems

    def test_corrupted_snapshot_state_fails_full_audit(self, state_dir):
        """Checksums intact but state inconsistent: rewrite the
        ``timetravel`` segment with one forged balance event value (and
        a recomputed checksum), which the restored tip's columns are
        folded from — the doctor's full audit catches what integrity
        verification cannot."""
        import numpy as np

        from repro.storage.segments import read_segment, write_segment

        store_root = state_dir / "snapshots"
        manifest_path = sorted(store_root.glob("snap-*/MANIFEST.json"))[0]
        manifest = json.loads(manifest_path.read_text())
        record = manifest["segments"]["timetravel"]
        segment_path = manifest_path.parent / record["file"]
        state = read_segment(segment_path, expected_name="timetravel")
        records = state["records"]
        # A record is (height, max id, mark, born, closed, event ids,
        # event values, involvements); the first height with an event.
        k = next(k for k, row in enumerate(records) if row[6])
        forged = np.frombuffer(records[k][6], dtype="<i8").copy()
        forged[0] += 7
        records[k] = (*records[k][:6], forged.tobytes(), records[k][7])
        manifest["segments"]["timetravel"] = write_segment(
            manifest_path.parent, "timetravel", state
        )
        manifest_path.write_text(json.dumps(manifest, indent=2))

        report = run_doctor(state_dir)
        assert not report.ok
        assert any("audit" in problem for problem in report.problems)

    def test_missing_snapshots_dir(self, tmp_path):
        report = run_doctor(tmp_path)
        assert not report.ok
        assert report.exit_code == 1
        assert any(
            "no snapshots directory" in problem
            for problem in report.problems
        )

    def test_unreadable_manifest_reported(self, state_dir):
        manifest = sorted(
            (state_dir / "snapshots").glob("snap-*/MANIFEST.json")
        )[0]
        manifest.write_text("not json")
        report = run_doctor(state_dir)
        assert not report.ok
        assert any(
            "unreadable or missing manifest" in problem
            for problem in report.problems
        )
