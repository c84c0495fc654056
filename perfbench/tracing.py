"""Per-layer tracing of frobenius from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``LAYERS`` by wrappers that record one span per call: name, start, end and
the enclosing span.  Self time is a span's duration minus the time its child
spans cover.  A handful of counters are read at the same boundaries:

* ``expr.kernel_ops``: ``+ * /`` and ``diff`` calls with an exp-bearing operand;
* ``expr.max_print_chars``: the longest string ``Expr.print`` returned;
* ``linalg.max_minor_order``: the largest matrix ``determinant`` was given;
* ``analysis.closure_rounds``: ``SpanSolver`` builds inside ``bracket_closure``;
* ``analysis.queries_per_added``: ``SpanSolver.query`` calls inside
  ``bracket_closure`` per generator that ``bracket_closure`` added.

Nothing inside the package changes: the wrappers are set on the classes and
on every ``frobenius`` module that holds a function under its public name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, module, qualified name) of every wrapped callable
LAYERS = [
    ("expr", "frobenius.expr", "Expr.__add__"),
    ("expr", "frobenius.expr", "Expr.__mul__"),
    ("expr", "frobenius.expr", "Expr.__truediv__"),
    ("expr", "frobenius.expr", "Expr.diff"),
    ("expr", "frobenius.expr", "Expr.print"),
    ("exterior", "frobenius.exterior", "VectorField.bracket"),
    ("exterior", "frobenius.exterior", "VectorField.apply"),
    ("exterior", "frobenius.exterior", "KForm.wedge"),
    ("exterior", "frobenius.exterior", "KForm.d"),
    ("linalg", "frobenius.linalg", "SpanSolver.__init__"),
    ("linalg", "frobenius.linalg", "SpanSolver.query"),
    ("linalg", "frobenius.linalg", "echelon"),
    ("linalg", "frobenius.linalg", "rank_echelon"),
    ("linalg", "frobenius.linalg", "determinant"),
    ("linalg", "frobenius.linalg", "invert"),
    ("systems", "frobenius.systems", "td_to_pde"),
    ("systems", "frobenius.systems", "pfaff_contragredient"),
    ("dsl", "frobenius.dsl", "parse_system"),
    ("analysis", "frobenius.analysis", "analyze"),
    ("analysis", "frobenius.analysis", "frobenius_td"),
    ("analysis", "frobenius.analysis", "pde_completeness"),
    ("analysis", "frobenius.analysis", "bracket_closure"),
    ("analysis", "frobenius.analysis", "pfaff_closure_check"),
    ("analysis", "frobenius.analysis", "verify_first_integral"),
    ("analysis", "frobenius.analysis", "report_to_dict"),
    ("cli", "frobenius.cli", "main"),
]

SPAN_NAMES = [f"{layer}.{qualname}" for layer, _, qualname in LAYERS]

# counter name -> unit
COUNTERS = {
    "expr.kernel_ops": "count",
    "expr.max_print_chars": "chars",
    "linalg.max_minor_order": "rows",
    "analysis.closure_rounds": "count",
    "analysis.queries_per_added": "queries/gen",
}

_ARITHMETIC = {"expr.Expr.__add__", "expr.Expr.__mul__", "expr.Expr.__truediv__", "expr.Expr.diff"}


class Tracer:
    """Spans and counters for the wrapped calls; spans stay in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.keep_spans = True
        self.kernel_ops = 0
        self.max_print_chars = 0
        self.max_minor_order = 0
        self.closure_rounds = 0
        self.closure_queries = 0
        self.closure_added = 0
        self._stack: list[list] = []  # [span id, child seconds] of open spans
        self._next_id = 1
        self._in_closure = 0

    def install(self) -> None:
        for layer, module_name, qualname in LAYERS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{qualname}"
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("frobenius") and getattr(other, qualname, None) is original:
                    setattr(other, qualname, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        arithmetic = name in _ARITHMETIC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arithmetic and _has_kernels(args):
                tracer.kernel_ops += 1
            tracer._enter(name, args)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent, name, start, end))
                if name == "analysis.bracket_closure":
                    tracer._in_closure -= 1
            tracer._leave(name, result)
            return result

        return traced

    def _enter(self, name: str, args) -> None:
        if name == "analysis.bracket_closure":
            self._in_closure += 1
        elif self._in_closure and name == "linalg.SpanSolver.__init__":
            self.closure_rounds += 1
        elif self._in_closure and name == "linalg.SpanSolver.query":
            self.closure_queries += 1
        elif name == "linalg.determinant":
            self.max_minor_order = max(self.max_minor_order, args[0].rows)

    def _leave(self, name: str, result) -> None:
        if name == "expr.Expr.print":
            self.max_print_chars = max(self.max_print_chars, len(result))
        elif name == "analysis.bracket_closure":
            self.closure_added += len(result.added)

    def metrics(self, passes: int) -> dict[str, dict]:
        """Per-pass figures: calls and self time of each span name, counters."""
        out: dict[str, dict] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / passes, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name] / passes, "unit": "s"}
        values = {
            "expr.kernel_ops": self.kernel_ops / passes,
            "expr.max_print_chars": self.max_print_chars,
            "linalg.max_minor_order": self.max_minor_order,
            "analysis.closure_rounds": self.closure_rounds / passes,
            "analysis.queries_per_added": self.closure_queries / max(self.closure_added, 1),
        }
        for name, value in values.items():
            out[name] = {"value": value, "unit": COUNTERS[name]}
        return out


def _has_kernels(args) -> bool:
    return any(getattr(arg, "has_kernels", None) and arg.has_kernels() for arg in args[:2])
