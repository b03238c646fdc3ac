"""Shared worlds for the benchmark harness.

Worlds are deterministic and expensive, so each is built once per
session; the benchmarks time the *analysis* stages (clustering, peel
tracking, theft classification) against the prebuilt chains, and each
bench also prints the paper-shaped table it regenerates (run with
``-s`` to see them).

The rule for a timing bound: a bench asserts an absolute number with a
stated host allowance, or a ratio whose both sides are production code.
A ratio over a baseline chosen for the bench (a cold rebuild, a bare
index) loses its headroom every time someone makes the baseline faster.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.simulation import scenarios


@pytest.fixture(scope="session")
def bench_report():
    """Write a ``BENCH_<name>.json`` machine-readable result under
    ``$BENCH_OUT_DIR`` (default ``bench-results/``); CI uploads these as
    artifacts so benchmark numbers are inspectable per commit without
    re-running."""

    def write(name: str, payload: dict) -> Path:
        out_dir = Path(os.environ.get("BENCH_OUT_DIR", "bench-results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return write


@pytest.fixture(scope="session")
def bench_default_world():
    """§3/§4 workload: full roster, 600 blocks."""
    return scenarios.default_economy(seed=0)


@pytest.fixture(scope="session")
def bench_silkroad_world():
    """Table 2 / Figure 2 workload: hoard lifecycle over ~1 simulated year."""
    return scenarios.silkroad_world(seed=1, n_blocks=1200)


@pytest.fixture(scope="session")
def bench_theft_world():
    """Table 3 workload: the seven thefts over the 2011–2013 window."""
    return scenarios.theft_world(seed=2)
