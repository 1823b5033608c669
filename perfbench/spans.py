"""In-memory span tracer that wraps qspan's public functions from outside.

A function is wrapped at every module-level name that refers to it inside the
qspan package, which is where its callers look it up, so calls between
modules are seen without touching the package's source. Spans are recorded
only while an operation span opened by the benchmark is active; they carry
an operation id and the id of their parent span, and stay in memory until
the run writes them out.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, function, span name, result tag)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "emit_json", "cli.emit_json", None),
    ("verify", "certify_threshold", "verify.certify_threshold", None),
    ("verify", "scan_stats", "verify.engine", None),
    ("verify", "separation_sweep", "verify.sweep", None),
    ("verify", "subgraph_monotonicity_fuzz", "verify.fuzz", None),
    ("verify", "point_checks", "verify.point_checks", None),
    ("verify", "strictly_larger_root", "verify.strictly_larger_root", None),
    ("trees", "construct_tree", "trees.construct_tree", None),
    ("trees", "find_violation_flow", "trees.find_violation_flow", lambda r: r is None),
    ("trees", "verify_certificate", "trees.verify_certificate", None),
    ("graph_core", "parse_graph", "graph_core.parse_graph", None),
    ("graph_core", "is_connected", "graph_core.is_connected", None),
    ("graph_core", "part_preserving_isomorphic", "graph_core.part_preserving_isomorphic", bool),
    ("spectral", "spectral_radius", "spectral.spectral_radius",
     lambda r: (r.iterations, r.method)),
    ("spectral", "signless_laplacian", "spectral.signless_laplacian", None),
    ("spectral", "exact_char_poly", "spectral.exact_char_poly", None),
    ("spectral", "char_poly", "spectral.char_poly", None),
    ("extremal", "family_root", "extremal.family_root", None),
    ("extremal", "extremal_graph", "extremal.extremal_graph", None),
)

OP = "bench.op"
ID, PARENT, OP_ID, NAME, START, END, TAG = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, op_id: int) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, op_id, name,
                perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn):
        """Run fn() as the root span of one benchmark operation."""
        span = self._open(OP, op_id)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, tag):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name, self.spans[self._stack[0]][OP_ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span[TAG] = tag(result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "qspan" or key.startswith("qspan."))]
        for module_name, func, name, tag in TRACED:
            home = sys.modules.get(f"qspan.{module_name}")
            original = getattr(home, func, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, tag)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "tag"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total seconds (s) and self seconds (self_s,
    duration minus the time covered by direct children)."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span in spans:
        dur = span[END] - span[START]
        row = out[span[NAME]]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_time[span[ID]]
    return dict(out)


def under(spans: list[list], name: str, ancestor: str) -> list[list]:
    """Spans called name that have a span called ancestor above them
    (span ids are their positions in the list)."""
    found = []
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        if parent >= 0:
            found.append(span)
    return found
