"""Timing spans recorded around calls into moss, from outside the package.

`Tracer.install` replaces each function in FUNCTIONS with a wrapper that
records one span per call: name, start, end (perf_counter_ns), the span
that was open when it started, and a work count for the functions in
COUNTS.  Module-level functions are rebound in every moss module that
imported them (``moss.serialize.build_from_canonical``,
``moss.cli.verify_orthogonal_bruteforce``, ...), because rebinding only the
defining module would miss calls made through those names.  Methods and
classmethods are replaced on their class, and a class (``gf.Field``) is
traced through its ``__init__``, so ``isinstance`` checks keep working.
Spans stay in memory until `write`; `uninstall` restores the originals.

`summarize` turns the spans of one run into per-function call counts,
busy time, self time, per-call durations and work counts.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

LAYERS = ("gf", "planes", "family", "sudoku", "serialize", "cli")

# Span names are "<layer>.<attribute path in moss.<layer>>".
FUNCTIONS = (
    "gf.GF",
    "gf.Field",
    "family.build_family",
    "family.find_alpha",
    "family.verify_family",
    "planes.is_valid_generator",
    "planes.Plane.from_generator",
    "sudoku.build_from_canonical",
    "sudoku.verify_sudoku",
    "sudoku.verify_orthogonal_bruteforce",
    "serialize.SquareDocument.from_matrix",
    "serialize.SquareDocument.to_json",
    "serialize.SquareDocument.from_json",
    "serialize.SquareDocument.to_grid",
    "cli.main",
)

# Work done by one call, from its arguments and result: (unit, function).
# Documents are ASCII JSON, so characters are bytes; from_json is a
# classmethod, so its text is args[1].
COUNTS = {
    "sudoku.build_from_canonical": ("cells", lambda args, result: result.order ** 2),
    "sudoku.verify_sudoku": ("cells", lambda args, result: args[0].order ** 2),
    "sudoku.verify_orthogonal_bruteforce": ("cells", lambda args, result: args[0].order ** 2),
    "serialize.SquareDocument.to_json": ("bytes", lambda args, result: len(result)),
    "serialize.SquareDocument.from_json": ("bytes", lambda args, result: len(args[1])),
    "family.verify_family": ("pairs", lambda args, result: result.pairs),
}


class Tracer:
    """Records spans of one run of one workload."""

    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        # Each span is [name, start_ns, end_ns, parent index or -1, count].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS[name][1] if name in COUNTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"moss.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("moss"))
        for name in FUNCTIONS:
            layer, *path = name.split(".")
            owner = importlib.import_module(f"moss.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            target = vars(owner)[attr]
            if isinstance(target, type):
                owner, attr, target = target, "__init__", vars(target)["__init__"]
            if isinstance(owner, type):
                if isinstance(target, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, target.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(name, target))
                continue
            traced = self._wrap(name, target)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is target]:
                    self._patch(module, key, traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "count": count, "workload": self.workload, "run": self.run}
            for i, (name, start, end, parent, count) in enumerate(self.spans)
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for record in self.records():
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


def read(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def summarize(records: list[dict]) -> dict[str, dict]:
    """Per-function totals over the spans of one run.

    busy_ns counts only spans with no enclosing span of the same name, so a
    function that calls itself is not counted twice; self_ns is a span's
    duration minus that of its direct children.
    """
    by_id = {r["id"]: r for r in records}
    child_ns = {r["id"]: 0 for r in records}
    for r in records:
        if r["parent"] >= 0:
            child_ns[r["parent"]] += r["end_ns"] - r["start_ns"]
    out = {name: {"calls": 0, "busy_ns": 0, "self_ns": 0, "count": 0, "durations_ns": []}
           for name in FUNCTIONS}
    for r in records:
        entry = out[r["name"]]
        duration = r["end_ns"] - r["start_ns"]
        entry["calls"] += 1
        entry["self_ns"] += duration - child_ns[r["id"]]
        entry["count"] += r["count"]
        entry["durations_ns"].append(duration)
        parent = r["parent"]
        while parent >= 0 and by_id[parent]["name"] != r["name"]:
            parent = by_id[parent]["parent"]
        if parent < 0:
            entry["busy_ns"] += duration
    return out
