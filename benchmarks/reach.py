"""Reachability audit: which ``src/`` functions does no paper artifact call?

    python benchmarks/reach.py               # run every source, report, gate
    python benchmarks/reach.py --repin-cli   # re-pin tests/golden/cli.json

Every paper artifact is a ``repro`` command, a bench or an example.  This
script runs each of them in a child process with a ``sitecustomize.py``
on the child's ``PYTHONPATH``; it installs a ``sys.setprofile`` hook at
interpreter start-up, so processes a source spawns (the restart children
of ``benchmarks/e2e/run.py``) are counted too.  The sources are:

- every CLI command, with the ``query`` / ``serve`` / ``--blocks-only`` /
  ``metrics`` / ``health`` / ``doctor`` variants, each on its smallest
  world;
- ``benchmarks/e2e/run.py --smoke`` (all four workloads), untraced and
  traced;
- the five examples;
- the bench smoke pass (``bench_*.py`` with timing disabled, as CI runs
  it).

It then lists every function defined in ``src/`` (``ast``; nested
functions included, lambdas not) that no source called, one
``path:qualname`` a line, and exits 1 if one of them is not named in
``reach_allowlist.txt`` beside this file, or if an allowlist entry is
reached or names no function.  A source that exits non-zero, or a CLI
command whose stdout differs from its sha256 in ``tests/golden/cli.json``,
also fails the run.  The bench smoke pass is the exception: its timing
bounds do not hold under the hook (every call pays it), so its failed
benches are listed, not gated; CI's bench smoke step gates them.

A change meant to alter a pinned command's output re-pins with
``python benchmarks/reach.py --repin-cli`` (no hook; about a minute).

Allowlist lines are ``path:qualname  reason`` (two or more spaces, ``#``
comments).  The accepted reasons are ``error path: <test>`` (the test as
``tests/...py::name``), ``null object``, ``dunder``,
``reference for <named caller>`` and ``Figure 1 bench``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
ALLOWLIST = HERE / "reach_allowlist.txt"
GOLDEN_CLI = REPO / "tests" / "golden" / "cli.json"

# Sources whose failures are listed, not gated (timing bounds under the hook).
UNGATED = {"bench smoke pass"}

# The commands whose stdout tests/golden/cli.json pins.
GOLDEN_COMMANDS = (
    "table1",
    "section4",
    "fp-ladder",
    "table2",
    "table3",
    "figure2",
    "ablation",
    "timeseries --scenario micro",
    "stats --scenario micro",
)

REASONS = (
    re.compile(r"error path: (?P<test>tests/\S+\.py::\S+)"),
    re.compile(r"null object"),
    re.compile(r"dunder"),
    re.compile(r"reference for \S.*"),
    re.compile(r"Figure 1 bench"),
)

# Installed in every child: record each code object a call enters, and
# write the ``src/`` ones out when the interpreter exits.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_out = os.environ.get("REACH_OUT")
if _out:
    _seen = set()
    _add = _seen.add

    def _hook(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        src = os.environ["REACH_SRC"]
        lines = {
            f"{code.co_filename}\\t{code.co_qualname}\\t{code.co_firstlineno}\\n"
            for code in _seen
            if code.co_filename.startswith(src)
        }
        path = os.path.join(_out, f"hits-{os.getpid()}-{id(_seen)}.tsv")
        with open(path, "w") as handle:
            handle.writelines(sorted(lines))

    atexit.register(_dump)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


# ----------------------------------------------------------------------
# What src/ defines, and what the allowlist says
# ----------------------------------------------------------------------


def src_functions(src: Path = SRC) -> dict[str, set[int]]:
    """Every function ``src/`` defines: ``path:qualname`` → the first
    lines of its code objects (a decorated def starts at its first
    decorator, as ``co_firstlineno`` does)."""
    found: dict[str, set[int]] = {}

    def walk(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.setdefault(f"{path}:{qualname}", set()).add(first)
                walk(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for file in sorted(src.rglob("*.py")):
        path = file.relative_to(src.parent).as_posix()
        walk(ast.parse(file.read_text(), str(file)), "", path)
    return found


def parse_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """``(entries, problems)``: each ``path:qualname`` with its reason,
    and one message per malformed line, repeated entry or rejected
    reason."""
    entries: dict[str, str] = {}
    problems: list[str] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) != 2 or ":" not in parts[0]:
            problems.append(f"line {number}: expected 'path:qualname  reason'")
            continue
        name, reason = parts
        if name in entries:
            problems.append(f"line {number}: {name} is listed twice")
        if not any(pattern.fullmatch(reason) for pattern in REASONS):
            problems.append(f"line {number}: {name}: reason {reason!r} is not accepted")
        entries[name] = reason
    return entries, problems


def check_allowlist(
    entries: dict[str, str], functions: dict[str, set[int]]
) -> list[str]:
    """Each entry must name a ``src/`` function, and an ``error path``
    entry a test function that exists."""
    problems = []
    for name, reason in entries.items():
        if name not in functions:
            problems.append(f"{name}: no such function in src/")
        match = REASONS[0].fullmatch(reason)
        if match:
            file, _, test = match["test"].partition("::")
            path = REPO / file
            leaf = test.split("::")[-1]
            if not path.is_file() or f"def {leaf}(" not in path.read_text():
                problems.append(f"{name}: no test {match['test']}")
    return problems


# ----------------------------------------------------------------------
# The sources
# ----------------------------------------------------------------------


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def sources(work: Path) -> list[tuple]:
    """``(label, argv, extra env)`` for every source, in run order.  An
    argv may be a function returning several argvs, for commands built
    from what an earlier one wrote under ``work``."""
    state = work / "state"
    dump = work / "metrics.json"
    script = work / "workload.txt"
    runs = [(command, _cli(*command.split()), {}) for command in GOLDEN_COMMANDS]
    runs += [
        ("simulate", _cli("simulate", "--scenario", "micro", "--out", str(work / "sim")), {}),
        (
            "serve --state-dir (cold)",
            _cli(
                "serve", "--scenario", "micro", "--seed", "3",
                "--state-dir", str(state), "--generate", "60",
                "--metrics-dump", str(dump), "--log-json", str(work / "serve.jsonl"),
                "--dump", str(script),
            ),
            {},
        ),
        (
            "serve --state-dir (warm)",
            _cli("serve", "--scenario", "micro", "--seed", "3", "--state-dir", str(state), "--generate", "20"),
            {},
        ),
        ("serve --script", _cli("serve", "--scenario", "micro", "--seed", "3", "--script", str(script), "--repeat", "2"), {}),
        ("serve --blocks-only", _cli("serve", "--blocks-only", "--state-dir", str(state), "--generate", "20"), {}),
        (
            "query --metrics-dump (past height)",
            _cli(
                "query", "--scenario", "micro", "--metrics-dump", str(work / "query.json"),
                "--log-json", str(work / "query.jsonl"), "top-clusters", "5", "balance", "60",
            ),
            {},
        ),
        ("metrics", _cli("metrics", str(dump)), {}),
        ("health", _cli("health", str(dump)), {}),
        (
            "doctor",
            _cli(
                "doctor", "--state-dir", str(state), "--report", str(work / "doctor.json"),
                "--log-json", str(work / "doctor.jsonl"),
            ),
            {},
        ),
    ]
    # One --blocks-only query per kind, each a line the cold serve ran
    # (read when its turn comes, after that serve wrote the file).
    runs.append(
        (
            "query --blocks-only (one per kind)",
            lambda: [
                _cli("query", "--blocks-only", "--state-dir", str(state), *tokens)
                for tokens in _query_lines(script)
            ],
            {},
        )
    )
    run_py = str(REPO / "benchmarks" / "e2e" / "run.py")
    for trace in ("0", "1"):
        runs.append(
            (
                f"e2e run.py --smoke --trace {trace}",
                [sys.executable, run_py, "--smoke", "--trace", trace, "--out", str(work / f"e2e-{trace}.json")],
                {},
            )
        )
    for example in sorted((REPO / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [sys.executable, str(example)], {}))
    runs.append(
        (
            "bench smoke pass",
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-o", "python_files=bench_*.py", str(REPO / "benchmarks"),
                "--benchmark-disable", "-rf",
            ],
            {"BENCH_OUT_DIR": str(work / "bench"), "SCALE_BENCH_BLOCKS": "1200"},
        )
    )
    return runs


def _query_lines(script: Path) -> list[list[str]]:
    """The first line of each query kind in a dumped workload."""
    seen: dict[str, list[str]] = {}
    for line in script.read_text().splitlines():
        tokens = line.split()
        if tokens:
            seen.setdefault(tokens[0], tokens)
    return list(seen.values())


def _run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=REPO, env=env, capture_output=True)


def run_sources(work: Path) -> tuple[set[tuple[str, str, int]], list[str]]:
    """Run every source under the hook; ``(reached, failures)``."""
    site = work / "site"
    hits = work / "hits"
    site.mkdir()
    hits.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(site), str(SRC)]),
        "PYTHONHASHSEED": "0",
        "REACH_OUT": str(hits),
        "REACH_SRC": str(SRC) + os.sep,
    }
    golden = json.loads(GOLDEN_CLI.read_text())
    failures = []
    for label, argv, extra in sources(work):
        batch = argv() if callable(argv) else [argv]
        start = time.perf_counter()
        for command in batch:
            done = _run(command, {**env, **extra})
            output = (done.stdout + done.stderr).decode(errors="replace")
            if done.returncode != 0 and label in UNGATED:
                failed = [l for l in output.splitlines() if l.startswith("FAILED ")]
                print(f"  {label}: exit {done.returncode}, not gated:", *failed, sep="\n    ")
            elif done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n{output[-3000:]}")
            if label in golden:
                digest = hashlib.sha256(done.stdout).hexdigest()
                if digest != golden[label]:
                    failures.append(
                        f"{label}: stdout sha256 {digest} differs from "
                        f"tests/golden/cli.json ({golden[label]})"
                    )
        print(f"  {label}: {time.perf_counter() - start:.1f}s", flush=True)
    reached = set()
    for file in hits.glob("hits-*.tsv"):
        for line in file.read_text().splitlines():
            path, qualname, first = line.split("\t")
            rel = Path(path).resolve().relative_to(SRC.parent).as_posix()
            reached.add((rel, qualname, int(first)))
    return reached, failures


def unreached(
    functions: dict[str, set[int]], reached: set[tuple[str, str, int]]
) -> list[str]:
    """Functions with a code object no source entered (a name defined
    twice, such as a property and its setter, needs both)."""
    entered = {(f"{path}:{qualname}", first) for path, qualname, first in reached}
    return sorted(
        name
        for name, firsts in functions.items()
        if any((name, first) not in entered for first in firsts)
    )


def repin_cli() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    digests = {}
    for command in GOLDEN_COMMANDS:
        done = _run(_cli(*command.split()), env)
        if done.returncode != 0:
            print(f"{command}: exit {done.returncode}", file=sys.stderr)
            return 1
        digests[command] = hashlib.sha256(done.stdout).hexdigest()
        print(f"{command}: {digests[command]}")
    GOLDEN_CLI.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {GOLDEN_CLI.relative_to(REPO)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--repin-cli", action="store_true",
        help="rewrite tests/golden/cli.json from the current tree and exit",
    )
    args = parser.parse_args(argv)
    if args.repin_cli:
        return repin_cli()

    functions = src_functions()
    entries, problems = parse_allowlist(ALLOWLIST.read_text())
    problems += check_allowlist(entries, functions)
    print(f"{sum(len(f) for f in functions.values())} functions in src/; running sources:")
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reached, failures = run_sources(Path(tmp))
    missing = unreached(functions, reached)

    print(f"\n{len(missing)} unreached src/ functions:")
    for name in missing:
        reason = entries.get(name)
        print(f"  {name}" + (f"  [{reason}]" if reason else "  [NOT ALLOWLISTED]"))
    problems += [f"{name}: unreached and not allowlisted" for name in missing if name not in entries]
    problems += [
        f"{name}: allowlisted but reached; delete its line"
        for name in entries
        if name in functions and name not in missing
    ]
    for message in failures + problems:
        print(f"FAIL {message}", file=sys.stderr)
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
