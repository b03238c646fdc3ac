"""Compare two result files of ``run.py``, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py RUNS.json          # spread only

For every workload × end-to-end metric: the base median, the new median,
their ratio (new ÷ base), the bound from ``BENCHMARK.json`` and a
verdict — ``ok``, ``regressed`` (worse than the base by more than the
bound) or ``unresolved`` (the spread of either side is wider than the
bound, so the medians cannot be told apart).  The values behind a median
are the runs of a file when it holds several (``run.py --runs K``), else
the repetitions inside its one run.  Spread is the distance between the
first and third quartile as a share of the median.

Exits non-zero on any ``regressed`` or any rise in the failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def spread(values: list) -> float:
    """Interquartile distance ÷ median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def load(path: str) -> dict:
    """workload -> {"values": {metric: [..]}, "failed": n, "attempted": n}."""
    by_workload: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        entry = by_workload.setdefault(
            run["workload"], {"runs": [], "failed": 0, "attempted": 0}
        )
        entry["runs"].append(run)
        entry["failed"] += run["failed"]
        entry["attempted"] += run["attempted"]
    for entry in by_workload.values():
        runs = entry.pop("runs")
        if len(runs) > 1:
            entry["values"] = {
                name: [run["metrics"][name]["value"] for run in runs]
                for name in runs[0]["metrics"]
            }
        else:
            entry["values"] = {
                name: runs[0]["per_rep"].get(name) or [metric["value"]]
                for name, metric in runs[0]["metrics"].items()
            }
    return by_workload


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    regressed = 0
    for workload, entry in base.items():
        print(f"{workload}")
        other = new.get(workload) if new is not None else None
        for metric in CONTRACT["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = entry["values"][name]
            median = statistics.median(values)
            line = (
                f"  {name:<26}{median:>14.6g} {metric['unit']:<9}"
                f"spread {spread(values):>6.1%} of {len(values):>2}"
            )
            if other is not None:
                new_values = other["values"][name]
                new_median = statistics.median(new_values)
                if worse_by(metric, median, new_median) > bound:
                    verdict = "regressed"
                    regressed += 1
                elif max(spread(values), spread(new_values)) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += (
                    f"  new {new_median:>14.6g}  x{new_median / median:.3f} of base"
                    f" {median:.6g}  spread {spread(new_values):>6.1%}"
                    f"  bound {bound:.0%}  {verdict}"
                )
            else:
                line += f"  bound {bound:.0%}"
                if spread(values) > bound / 3:
                    line += "  (spread above a third of the bound)"
            print(line)
        share = entry["failed"] / entry["attempted"]
        line = f"  {'failed_ops_share':<26}{share:>14.6g} ratio"
        if other is not None:
            new_share = other["failed"] / other["attempted"]
            line += f"  new {new_share:>14.6g}"
            if new_share > share:
                line += "  regressed"
                regressed += 1
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
