"""Harness-side span recorder and the per-layer table built from it.

Spans are recorded from the benchmark's own files only, around every
call into a layer; nothing in ``src/`` knows about them.  They live in
memory until the run ends and are written once, as
``out/trace-<workload>.json``.  ``python benchmarks/e2e/spans.py layers
FILE`` prints the layer table from any such file.

A span is ``[id, name, start, end, parent, rep]`` (seconds from
``time.perf_counter``; ``parent`` is -1 at the root; ``rep`` is the cycle
repetition it belongs to).  Per-query latencies of the traced query
phases are kept as arrays under ``"latencies"``, not as one span each.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYER_OF = {
    "chain.blockfile.read": "chain",
    "chain.add_block": "chain",
    "engine": "core",
    "aggregates": "service",
    "balances": "service",
    "activity": "service",
    "taint": "service",
    "service.answer": "service",
    "service.aggregates.flush": "service",
    "phase.queries": "service",  # traced query passes clock each query, no spans
    "service.aggregates.horizon": "service",
    "storage.snapshot": "storage",
    "storage.verify": "storage",
}
"""Span name -> the repo module (layer) whose code runs inside it.
Subscriber spans carry the name the program itself registered with."""


class Tracer:
    """Records nested spans; one instance per traced workload run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rep = -1
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def start(self, name: str) -> int:
        ident = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([ident, name, perf_counter(), 0.0, parent, self.rep])
        self.stack.append(ident)
        return ident

    def end(self, ident: int) -> float:
        """Close span ``ident``; returns its duration in seconds."""
        now = perf_counter()
        span = self.spans[ident]
        span[3] = now
        self.stack.pop()
        return now - span[2]

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span; the span closes on a raise too."""
        ident = self.start(name)
        try:
            return fn(*args)
        finally:
            self.end(ident)

    def blocks(self, iterable):
        """Yield from ``iterable`` with a ``chain.blockfile.read`` span
        around each step (read + deserialize of one block)."""
        iterator = iter(iterable)
        while True:
            ident = self.start("chain.blockfile.read")
            try:
                block = next(iterator)
            except StopIteration:
                self.end(ident)
                self.spans.pop()  # the exhausted step read nothing
                return
            self.end(ident)
            yield block

    def wrap_fanout(self, index) -> None:
        """Shadow ``index.subscribe_deltas`` on the instance so every
        subscriber the program registers from now on runs inside a child
        span named by the program's own ``name=``."""
        subscribe = index.subscribe_deltas

        def subscribe_traced(observer, *, name=None):
            label = name or getattr(observer, "__qualname__", "subscriber")

            def observed(delta):
                ident = self.start(label)
                try:
                    observer(delta)
                finally:
                    self.end(ident)

            return subscribe(observed, name=name)

        index.subscribe_deltas = subscribe_traced

    # -- garbage-collector time, from gc.callbacks ---------------------

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_start
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def gc_mark(self) -> tuple[float, int]:
        return self.gc_seconds, self.gc_gen2

    def watch_gc(self) -> None:
        gc.callbacks.append(self.gc_callback)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self.gc_callback)


class Untraced:
    """The do-nothing stand-in for :class:`Tracer` when tracing is off."""

    rep = -1

    def start(self, name):
        return -1

    def end(self, ident):
        return 0.0

    def call(self, name, fn, *args):
        return fn(*args)

    def blocks(self, iterable):
        return iterable

    def gc_mark(self):
        return 0.0, 0


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for _ident, _name, start, end, parent, _rep in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for ident, name, start, end, _parent, _rep in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[ident]
    return dict(table)


def coverage(spans: list[list], phases=("phase.bulk", "phase.follow")) -> float:
    """Share of the named phases' wall that layer spans account for:
    Σ self time of layer spans below a phase ÷ Σ phase wall.  What is
    left is the harness's own loop and the recorder."""
    own = self_times(spans)
    name_of = {span[0]: span[1] for span in spans}
    parent_of = {span[0]: span[4] for span in spans}
    wall = sum(s[3] - s[2] for s in spans if s[1] in phases)
    covered = 0.0
    for ident, name, _start, _end, _parent, _rep in spans:
        if name not in LAYER_OF:
            continue
        node = parent_of[ident]
        while node >= 0 and name_of[node] not in phases:
            node = parent_of[node]
        if node >= 0:
            covered += own[ident]
    return covered / wall if wall else 0.0


def layers_table(trace: dict) -> str:
    """The per-layer table of one trace file, as text."""
    spans = trace["spans"]
    rows = summarize(spans)
    wall = sum(span[3] - span[2] for span in spans if span[4] < 0)
    by_layer: dict[str, float] = defaultdict(float)
    lines = [
        f"workload {trace['workload']}  seed {trace['seed']}  "
        f"traced reps {trace['reps']}  traced wall {wall:.3f} s",
        f"{'layer':<9}{'span':<30}{'calls':>8}{'total s':>10}"
        f"{'self s':>10}{'share':>8}",
    ]
    for name in sorted(rows, key=lambda n: (LAYER_OF.get(n, "harness"), n)):
        row = rows[name]
        layer = LAYER_OF.get(name, "harness")
        by_layer[layer] += row["self_s"]
        share = row["self_s"] / wall if wall else 0.0
        lines.append(
            f"{layer:<9}{name:<30}{row['calls']:>8}{row['total_s']:>10.3f}"
            f"{row['self_s']:>10.3f}{share:>8.1%}"
        )
    lines.append("")
    for layer, seconds in sorted(by_layer.items()):
        share = seconds / wall if wall else 0.0
        lines.append(f"{layer:<9}{'self time':<30}{seconds:>28.3f}{share:>8.1%}")
    lines.append(
        f"trace.coverage {coverage(spans):.4f}   "
        f"trace.overhead_ratio {trace['overhead_ratio']:.4f}"
    )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "layers":
        print("usage: spans.py layers TRACE.json", file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        print(layers_table(json.load(fh)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
