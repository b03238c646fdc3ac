"""CLI dispatch (fast paths only; experiments have their own tests)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestStateDirWarmStart:
    """`repro serve/query --state-dir`: transparent warm start, with a
    restarted service answering identically to a cold-built one."""

    def _query(self, state_dir, capsys, *tokens):
        exit_code = main(
            ["query", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(state_dir), *tokens]
        )
        assert exit_code == 0
        return capsys.readouterr().out

    def test_cold_then_warm_answers_identically(self, tmp_path, capsys):
        cold = self._query(tmp_path, capsys, "top-clusters", "5", "balance")
        assert "cold start" in cold
        assert list((tmp_path / "blocks").glob("blk*.dat"))
        assert list((tmp_path / "snapshots").glob("snap-*"))
        warm = self._query(tmp_path, capsys, "top-clusters", "5", "balance")
        assert "warm start" in warm

        def answer_lines(out):
            return [
                line for line in out.splitlines()
                if not line.startswith("[")  # strip timing/start banners
            ]

        assert answer_lines(cold) == answer_lines(warm)

    def test_restart_mid_chain_tail_replays_and_matches(self, tmp_path, capsys):
        """Snapshot a prefix, then restart against the full chain: the
        tail replays and every answer matches a cold-built service."""
        import shutil

        from repro import experiments
        from repro.chain.index import ChainIndex
        from repro.service import ForensicsService
        from repro.simulation import scenarios
        from repro.storage import StateStore

        world = scenarios.micro_economy(seed=3)
        cold_out = self._query(tmp_path, capsys, "top-clusters", "5")
        # Regress the store to a mid-chain snapshot.
        store = StateStore(tmp_path / "snapshots")
        for manifest in store.snapshots():
            shutil.rmtree(manifest.directory)
        reference = ForensicsService.from_world(world)  # the CLI's config
        prefix_index = ChainIndex()
        prefix_service = ForensicsService(
            prefix_index,
            tags=reference.tags,
            dice_addresses=reference.engine.dice_addresses,
        )
        midpoint = len(world.blocks) // 2
        for block in world.blocks[:midpoint]:
            prefix_index.add_block(block)
        store.snapshot(prefix_service)

        out = self._query(tmp_path, capsys, "top-clusters", "5")
        assert f"restored snapshot at height {midpoint - 1}" in out
        assert f"+ {len(world.blocks) - midpoint} tail blocks" in out
        answers = lambda text: [  # noqa: E731 - tiny local projection
            line for line in text.splitlines() if line.startswith("  cluster")
        ]
        assert answers(out) == answers(cold_out)

    def test_serve_checkpoint_persists_taint_cases(self, tmp_path, capsys):
        exit_code = main(
            ["serve", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(tmp_path), "--generate", "30"]
        )
        assert exit_code == 0
        first = capsys.readouterr().out
        assert "taint cases: 3" in first
        exit_code = main(
            ["serve", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(tmp_path), "--generate", "30"]
        )
        assert exit_code == 0
        second = capsys.readouterr().out
        assert "warm start" in second
        # The restored service already has the watched cases and serves
        # the same generated workload with the same mix.
        assert "taint cases: 3" in second


class TestBlocksOnly:
    """`--blocks-only` restores from the state dir alone: no world build,
    the same answer and height as the full run, labelled by its source."""

    @pytest.fixture()
    def served(self, tmp_path, capsys):
        """A state dir written by a full `serve --state-dir` run."""
        assert main(
            ["serve", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(tmp_path), "--generate", "10"]
        ) == 0
        capsys.readouterr()
        return tmp_path

    def _query(self, capsys, *argv):
        assert main(["query", *argv, "top-clusters", "5", "balance"]) == 0
        return capsys.readouterr().out

    def test_answers_like_the_full_run(self, served, capsys):
        full = self._query(
            capsys, "--scenario", "micro", "--seed", "3",
            "--state-dir", str(served),
        )
        blocks_only = self._query(
            capsys, "--blocks-only", "--state-dir", str(served)
        )
        assert "world build skipped" in blocks_only

        def answer_and_height(out):
            lines = out.splitlines()
            answer = [line for line in lines if not line.startswith("[")]
            heights = re.findall(r"@ height (\d+)", out)
            assert len(heights) == 1
            return answer, int(heights[0])

        assert answer_and_height(blocks_only) == answer_and_height(full)

    def test_labelled_with_the_state_dir(self, served, capsys):
        """Not with the `--scenario` default it never built."""
        out = self._query(capsys, "--blocks-only", "--state-dir", str(served))
        assert f"[state-dir {served} @ height" in out
        assert "[default @" not in out


class TestStorageErrors:
    """A state dir that cannot serve is one `error: ...` line and exit
    status 1, never a traceback."""

    def _fails(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert message.startswith("error: ")
        assert "\n" not in message
        return message

    def test_blocks_only_without_block_files(self, tmp_path):
        message = self._fails(
            ["query", "--blocks-only", "--state-dir", str(tmp_path),
             "top-clusters", "3"]
        )
        assert "no block files" in message

    def test_blocks_only_without_snapshot(self, tmp_path):
        from repro.chain.blockfile import BlockFileWriter
        from repro.simulation import scenarios

        world = scenarios.micro_economy(seed=3, n_blocks=8)
        BlockFileWriter(tmp_path / "blocks").write_chain(world.blocks)
        message = self._fails(
            ["serve", "--blocks-only", "--state-dir", str(tmp_path),
             "--generate", "5"]
        )
        assert "no snapshot" in message

    def test_state_dir_from_a_different_chain(self, tmp_path, capsys):
        assert main(
            ["serve", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(tmp_path), "--generate", "5"]
        ) == 0
        capsys.readouterr()
        message = self._fails(
            ["serve", "--scenario", "micro", "--seed", "4",
             "--state-dir", str(tmp_path), "--generate", "5"]
        )
        assert "different chain" in message

    def test_process_exits_one_without_traceback(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "--blocks-only",
             "--state-dir", str(tmp_path), "top-clusters", "3"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.strip().splitlines()) == 1


class TestMalformedQueries:
    """A malformed query is one `error: ...` line and a non-zero exit,
    never a traceback; one that needs no chain to reject is rejected
    before any world is built."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    MALFORMED = [
        ["top-clusters", "abc"],
        ["top-clusters", "5", "bogus"],
        ["top-clusters", "-1"],
        ["top-clusters", "5", "size", "-3"],
        ["bogus-kind", "x"],
        ["cluster-of"],
    ]

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.SRC)},
        )

    def _assert_one_error_line(self, result):
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("tokens", MALFORMED, ids=" ".join)
    def test_query_exits_with_one_error_line(self, tokens):
        self._assert_one_error_line(
            self._run("query", "--scenario", "micro", *tokens)
        )

    def test_horizon_past_the_tip(self):
        result = self._run(
            "query", "--scenario", "micro", "top-clusters", "5", "size", "100000"
        )
        self._assert_one_error_line(result)
        assert "outside" in result.stderr

    def test_past_height_is_answered_and_labelled(self, capsys):
        assert main(
            ["query", "--scenario", "micro", "top-clusters", "3", "balance", "60"]
        ) == 0
        assert "top 3 clusters by balance at height 60:" in capsys.readouterr().out

    def test_malformed_serve_script_line(self, tmp_path):
        script = tmp_path / "workload.txt"
        script.write_text("top-clusters 5 size\n# a comment\ntop-clusters abc\n")
        result = self._run("serve", "--scenario", "micro", "--script", str(script))
        self._assert_one_error_line(result)
        assert f"{script}:3:" in result.stderr

    def test_missing_serve_script(self, tmp_path):
        missing = tmp_path / "nope.txt"
        result = self._run("serve", "--scenario", "micro", "--script", str(missing))
        self._assert_one_error_line(result)

    def test_handler_fault_is_not_a_refusal(self, monkeypatch):
        # A ValueError raised inside a handler is a program fault: it
        # keeps its traceback instead of passing for a user error.
        from repro.service import QueryEngine

        def broken(engine, query):
            raise ValueError("handler fault")

        monkeypatch.setitem(QueryEngine._HANDLERS, "top_clusters", broken)
        with pytest.raises(ValueError, match="handler fault"):
            main(["query", "--scenario", "micro", "top-clusters", "5"])

    @pytest.mark.parametrize("tokens", MALFORMED, ids=" ".join)
    def test_rejected_before_any_world_is_built(self, tokens, monkeypatch):
        import repro.cli

        def no_world(seed):
            raise AssertionError("a world was built for a malformed query")

        monkeypatch.setitem(repro.cli._SCENARIOS, "micro", no_world)
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--scenario", "micro", *tokens])
        assert str(excinfo.value.code).startswith("error: ")


class TestMetricsAndHealthRendering:
    """`repro metrics` / `repro health` degrade to one-line errors on
    bad dump files — no tracebacks — and render real dumps."""

    def _dump(self, tmp_path, capsys):
        dump = tmp_path / "metrics.json"
        exit_code = main(
            ["query", "--scenario", "micro", "--seed", "3",
             "--metrics-dump", str(dump),
             "top-clusters", "5", "balance"]
        )
        assert exit_code == 0
        capsys.readouterr()
        return dump

    @pytest.mark.parametrize("command", ["metrics", "health"])
    def test_missing_dump_one_line_error(self, tmp_path, capsys, command):
        exit_code = main([command, str(tmp_path / "nope.json")])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["metrics", "health"])
    def test_empty_dump_one_line_error(self, tmp_path, capsys, command):
        dump = tmp_path / "empty.json"
        dump.write_text("   \n")
        assert main([command, str(dump)]) == 1
        err = capsys.readouterr().err
        assert "is empty" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["metrics", "health"])
    def test_malformed_dump_one_line_error(self, tmp_path, capsys, command):
        dump = tmp_path / "broken.json"
        dump.write_text('{"metrics": ')
        assert main([command, str(dump)]) == 1
        err = capsys.readouterr().err
        assert "is not valid JSON" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["metrics", "health"])
    def test_non_object_dump_one_line_error(self, tmp_path, capsys, command):
        dump = tmp_path / "list.json"
        dump.write_text("[1, 2, 3]")
        assert main([command, str(dump)]) == 1
        assert "expected a --metrics-dump JSON object" in (
            capsys.readouterr().err
        )

    def test_health_missing_section_one_line_error(self, tmp_path, capsys):
        dump = tmp_path / "old-format.json"
        dump.write_text('{"metrics": {}, "flight": []}')
        assert main(["health", str(dump)]) == 1
        assert "no health report" in capsys.readouterr().err

    def test_real_dump_renders_metrics_and_health(self, tmp_path, capsys):
        dump = self._dump(tmp_path, capsys)
        assert main(["metrics", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "ingest.index_seconds" in out
        assert main(["health", str(dump)]) == 0
        out = capsys.readouterr().out
        for component in ("chain", "engine", "aggregates", "views", "cache"):
            assert component in out


class TestDoctorCommand:
    def _build_state(self, tmp_path, capsys):
        exit_code = main(
            ["serve", "--scenario", "micro", "--seed", "3",
             "--state-dir", str(tmp_path), "--generate", "10"]
        )
        assert exit_code == 0
        capsys.readouterr()

    def test_clean_state_dir_exits_zero(self, tmp_path, capsys):
        self._build_state(tmp_path, capsys)
        report_path = tmp_path / "diagnosis.json"
        exit_code = main(
            ["doctor", "--state-dir", str(tmp_path),
             "--report", str(report_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "result: HEALTHY" in out
        assert "audit: clean" in out
        import json

        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True

    def test_flipped_byte_exits_nonzero(self, tmp_path, capsys):
        self._build_state(tmp_path, capsys)
        segment = sorted((tmp_path / "snapshots").glob("snap-*/*.seg"))[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        exit_code = main(["doctor", "--state-dir", str(tmp_path)])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "PROBLEM" in out
        assert "result: PROBLEMS FOUND" in out

    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["doctor", "--state-dir", str(tmp_path)]) == 1
        assert "no snapshots directory" in capsys.readouterr().out


class TestLogJson:
    def test_query_log_json_writes_events(self, tmp_path, capsys):
        """With an instrumented rebuild (--metrics-dump) the chain is
        re-ingested, so the event log carries per-block events."""
        import json

        log_path = tmp_path / "events.jsonl"
        exit_code = main(
            ["query", "--scenario", "micro", "--seed", "3",
             "--log-json", str(log_path),
             "--metrics-dump", str(tmp_path / "metrics.json"),
             "top-clusters", "3", "balance"]
        )
        assert exit_code == 0
        capsys.readouterr()
        events = [
            json.loads(line)["event"]
            for line in log_path.read_text().splitlines()
        ]
        assert "block_ingested" in events
        assert "aggregate_flush" in events


class TestSimulateCommand:
    def test_simulate_micro_writes_block_files(self, tmp_path, capsys):
        exit_code = main(
            ["simulate", "--scenario", "micro", "--seed", "3",
             "--out", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "validation OK" in out
        assert list(tmp_path.glob("blk*.dat"))

    def test_timeseries_micro_prints_series(self, capsys):
        exit_code = main(["timeseries", "--scenario", "micro", "--seed", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "one chain pass" in out
        assert "H1+H2 clusters" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_missing_out_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "micro"])
