"""Self-test of the end-to-end benchmark at smoke size (seconds).

Checks the harness, not the numbers: the emitted names equal
``BENCHMARK.json``'s, nothing fails, the trace covers the ingest wall,
deterministic counts repeat with the seed and move with it, and a wrong
answer is counted.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
COUNTS = ("chain.index.addresses", "chain.delta.events", "core.engine.clusters")


def smoke(tmp: Path, label: str, *args: str) -> dict:
    out = tmp / f"{label}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())
    return result if "runs" in result else {"runs": [result]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    jobs = {
        "plain": (),
        "traced": ("--trace",),
        "traced-again": ("--workload", "tip-follow", "--trace"),
        "traced-other": ("--workload", "tip-follow", "--trace", "--seed", "1"),
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            label: pool.submit(smoke, tmp, label, *args)
            for label, args in jobs.items()
        }
        return {label: future.result() for label, future in futures.items()}


def values(result: dict, workload: str) -> dict:
    (run,) = [r for r in result["runs"] if r["workload"] == workload]
    return {name: m["value"] for name, m in run["metrics"].items()}


@pytest.mark.parametrize("label, key", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_emitted_names_equal_the_contract(results, label, key):
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT[key]}
    runs = results[label]["runs"]
    assert [run["workload"] for run in runs] == WORKLOADS
    for run in runs:
        emitted = {name: m["unit"] for name, m in run["metrics"].items()}
        assert emitted == expected
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in emitted)
    assert results[label]["claim"] is None
    assert list(results[label])[-1] == "claim"


def test_nothing_fails_and_the_trace_covers_ingest(results):
    for label in ("plain", "traced"):
        for run in results[label]["runs"]:
            assert run["failed"] == 0 and run["correct"] and run["attempted"] > 0
    for workload in WORKLOADS:
        assert values(results["traced"], workload)["trace.coverage"] >= 0.9


def test_counts_repeat_with_the_seed_and_move_with_it(results):
    first = values(results["traced"], "tip-follow")
    again = values(results["traced-again"], "tip-follow")
    other = values(results["traced-other"], "tip-follow")
    for name in COUNTS:
        assert first[name] == again[name]
    assert any(first[name] != other[name] for name in COUNTS)
    # the snapshot's size, segment by segment (snapshot_mib less its manifest)
    sizes = [
        sum(v for name, v in run.items() if name.startswith("storage.snapshot.segment_mib."))
        for run in (first, again, other)
    ]
    assert sizes[1] == pytest.approx(sizes[0], rel=0.01)
    assert sizes[2] != sizes[0]


def test_a_wrong_answer_raises_the_failed_share():
    from oracle import Ledger

    ledger = Ledger("unit")
    assert ledger.check("right", 41 + 1, 42)
    assert ledger.share == 0
    assert not ledger.check("injected wrong oracle value", 42, 43)
    ledger.attempted += 1
    ledger.raised("tip", 0, 7, ValueError("boom"))
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.share == pytest.approx(2 / 3)
