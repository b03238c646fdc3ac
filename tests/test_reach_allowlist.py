"""``benchmarks/reach_allowlist.txt`` is well formed: every line is
``path:qualname  reason``, names a function ``src/`` defines, and gives
an accepted reason.  Runs no source (``benchmarks/reach.py`` does)."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO / "benchmarks" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def functions(reach):
    return reach.src_functions()


def test_every_line_is_well_formed_with_an_accepted_reason(reach):
    _entries, problems = reach.parse_allowlist(reach.ALLOWLIST.read_text())
    assert problems == []


def test_every_entry_names_a_src_function(reach, functions):
    entries, _problems = reach.parse_allowlist(reach.ALLOWLIST.read_text())
    assert reach.check_allowlist(entries, functions) == []


@pytest.mark.parametrize(
    "line",
    [
        "src/repro/cli.py:main",
        "src/repro/cli.py:main  public API",
        "src/repro/cli.py:main  a later item wants it",
        "src/repro/cli.py:main reference for one space",
    ],
)
def test_malformed_lines_and_rejected_reasons_are_reported(reach, line):
    _entries, problems = reach.parse_allowlist(line + "\n")
    assert len(problems) == 1


@pytest.mark.parametrize(
    "reason",
    [
        "error path: tests/test_cli.py::TestMalformedQueries::test_missing_serve_script",
        "null object",
        "dunder",
        "reference for benchmarks/e2e/oracle.py",
        "Figure 1 bench",
    ],
)
def test_each_accepted_reason_kind_parses(reach, functions, reason):
    entries, problems = reach.parse_allowlist(f"src/repro/cli.py:main  {reason}\n")
    assert problems == []
    assert entries == {"src/repro/cli.py:main": reason}
    assert reach.check_allowlist(entries, functions) == []


def test_comments_blank_lines_and_repeats(reach):
    entries, problems = reach.parse_allowlist(
        "# a comment\n"
        "\n"
        "src/repro/cli.py:main  dunder  # trailing comment\n"
        "src/repro/cli.py:main  dunder\n"
    )
    assert entries == {"src/repro/cli.py:main": "dunder"}
    assert problems == ["line 4: src/repro/cli.py:main is listed twice"]


def test_unreached_needs_every_code_object_of_a_name(reach):
    functions = {"a.py:f": {1}, "a.py:P.x": {3, 7}}  # a property and its setter
    getter_only = {("a.py", "f", 1), ("a.py", "P.x", 3)}
    assert reach.unreached(functions, getter_only) == ["a.py:P.x"]
    assert reach.unreached(functions, getter_only | {("a.py", "P.x", 7)}) == []


def test_golden_cli_pins_each_command_once(reach):
    import json

    pinned = json.loads(reach.GOLDEN_CLI.read_text())
    assert list(pinned) == list(reach.GOLDEN_COMMANDS)
    for digest in pinned.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_unknown_function_and_missing_test_are_reported(reach, functions):
    entries, problems = reach.parse_allowlist(
        "src/repro/cli.py:no_such_function  dunder\n"
        "src/repro/cli.py:main  error path: tests/test_cli.py::test_no_such_test\n"
    )
    assert problems == []
    found = reach.check_allowlist(entries, functions)
    assert len(found) == 2


def test_src_functions_names_nested_functions_and_methods(functions):
    assert "src/repro/cli.py:main" in functions
    assert "src/repro/service/queries.py:QueryEngine.answer" in functions
    assert any(".<locals>." in name for name in functions)
