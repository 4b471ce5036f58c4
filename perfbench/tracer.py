"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced prymcover function, in every
prymcover namespace that binds it, with a wrapper that records a span (name,
start, end, parent span, op id) or, for the two hottest methods, only a call
count.  ``uninstall`` puts every original object back.  Spans stay in memory
until the run ends; ``layer_metrics`` then derives self times (span time
minus the time its child spans cover) and counts per op.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("finitefield", "zeta", "covers", "points", "polys", "scalars", "binforms", "jsonio", "cli")

# (module, attribute path) of every traced function.  Counted ones get no
# span: they run millions of times per op.
SPANNED = (
    ("finitefield", "get_field"),
    ("finitefield", "FiniteField.__init__"),
    ("finitefield", "FiniteField.chi_table"),
    ("finitefield", "FiniteField.sqrt_table"),
    ("zeta", "count_double_cover"),
    ("zeta", "count_points"),
    ("zeta", "l_polynomial"),
    ("zeta", "prym_product_check"),
    ("zeta", "reduce_cover"),
    ("covers", "beta_tuples"),
    ("covers", "reconstruct_h_f"),
    ("points", "cr_elimination_poly"),
    ("points", "rational_roots"),
    ("points", "recover_points_detailed"),
    ("polys", "poly_disc"),
    ("polys", "resultant"),
    ("scalars", "factorize"),
    ("binforms", "integral_point_to_form"),
    ("binforms", "certify_form"),
    ("binforms", "reduction_classify"),
    ("jsonio", "dumps"),
    ("cli", "main"),
)
COUNTED = (
    ("finitefield", "FiniteField.mul"),
    ("polys", "Poly.__mul__"),
)
OP_SPAN = "bench.op"

Span = Tuple[str, float, float, int, int]

# Per-layer metrics: name -> (unit, better).
METRICS: Dict[str, Tuple[str, str]] = {
    "finitefield.fields_built": ("count/op", "lower"),
    "finitefield.build_s": ("s/op", "lower"),
    "finitefield.tables_s": ("s/op", "lower"),
    "finitefield.table_entries": ("count/op", "lower"),
    "finitefield.mul.calls": ("calls/op", "lower"),
    "zeta.count_double_cover.calls": ("calls/op", "lower"),
    "zeta.count_double_cover.self_s": ("s/op", "lower"),
    "zeta.count_points.calls": ("calls/op", "lower"),
    "zeta.count_points.self_s": ("s/op", "lower"),
    "zeta.l_polynomial.self_s": ("s/op", "lower"),
    "zeta.prym_product_check.self_s": ("s/op", "lower"),
    "zeta.reduce_cover.calls": ("calls/op", "lower"),
    "covers.beta_tuples.self_s": ("s/op", "lower"),
    "covers.reconstruct_h_f.self_s": ("s/op", "lower"),
    "points.cr_elimination_poly.calls": ("calls/op", "lower"),
    "points.cr_elimination_poly.self_s": ("s/op", "lower"),
    "points.rational_roots.calls": ("calls/op", "lower"),
    "points.rational_roots.self_s": ("s/op", "lower"),
    "points.rational_roots.degree_sum": ("degree/op", "lower"),
    "points.recover_points_detailed.self_s": ("s/op", "lower"),
    "points.useful_elimination_ratio": ("ratio", "higher"),
    "polys.Poly.mul.calls": ("calls/op", "lower"),
    "polys.poly_disc.self_s": ("s/op", "lower"),
    "polys.resultant.self_s": ("s/op", "lower"),
    "scalars.factorize.calls": ("calls/op", "lower"),
    "scalars.factorize.self_s": ("s/op", "lower"),
    "scalars.factorize.failed": ("count/op", "lower"),
    "binforms.integral_point_to_form.self_s": ("s/op", "lower"),
    "binforms.certify_form.calls": ("calls/op", "lower"),
    "binforms.certify_form.self_s": ("s/op", "lower"),
    "binforms.certify_form.accept_ratio": ("ratio", "higher"),
    "binforms.reduction_classify.self_s": ("s/op", "lower"),
    "jsonio.dumps.self_s": ("s/op", "lower"),
    "jsonio.bytes_out": ("B/op", "lower"),
    "jsonio.parse_s": ("s/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "cli.main.nonzero_exits": ("count/op", "lower"),
}
METRICS.update({"layer.%s.self_s" % m: ("s/op", "lower") for m in LAYERS})
METRICS.update(
    {
        "layer.bench.self_s": ("s/op", "lower"),
        "op.traced_s": ("s/op", "lower"),
        "trace.spans": ("count/op", "lower"),
        "trace.throughput_traced_ops_s": ("1/s", "higher"),
        "trace.throughput_untraced_ops_s": ("1/s", "higher"),
        "trace.overhead_ratio": ("ratio", "lower"),
    }
)


def _jsonio_targets(jsonio) -> List[Tuple[str, str]]:
    """Every encoder and decoder of jsonio; decoders make up parse_s."""
    return [
        ("jsonio", name)
        for name in sorted(vars(jsonio))
        if name.startswith("json_to_") or name.endswith("_to_json")
    ]


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._in_op = [False]  # calls outside an op (the output checks) are not traced
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._built_fields: set = set()
        self._tabled: set = set()
        self._last_elim: Optional[Tuple[object, object]] = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "prymcover" or name.startswith("prymcover.")
        }
        targets = [(m, p, self._span_wrapper) for m, p in SPANNED]
        targets += [(m, p, self._span_wrapper) for m, p in _jsonio_targets(modules["prymcover.jsonio"])]
        targets += [(m, p, self._count_wrapper) for m, p in COUNTED]
        for mod_name, path, make in targets:
            owner, original = _resolve(modules["prymcover." + mod_name], path)
            wrapper = make("%s.%s" % (mod_name, path), original)
            if "." in path:
                # a method: the class holds it, possibly under several names
                # (Poly.__rmul__ is Poly.__mul__)
                namespaces = [owner]
            else:
                namespaces = list(modules.values())
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved = []

    def installed(self) -> List[Tuple[object, str, object]]:
        """(namespace, attribute, original) for every replaced binding."""
        return list(self._saved)

    # -- wrappers -----------------------------------------------------

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts, in_op = self.counts, self._in_op

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if in_op[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        spans, stack, clock, in_op = self.spans, self._stack, time.perf_counter, self._in_op

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not in_op[0]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                if note is not None:
                    note(args, result, exc)

        return spanned

    def op_span(self, op: int, fn: Callable, *args):
        """Run fn(*args) as op number ``op``, under a root span."""
        self.op = op
        self._in_op[0] = True
        try:
            return self._span_wrapper(OP_SPAN, fn)(*args)
        finally:
            self._in_op[0] = False

    # -- counters taken at the span boundaries ------------------------

    def _note_finitefield_FiniteField___init__(self, args, result, exc):
        self._built_fields.add(id(args[0]))

    def _count_table(self, kind, args, result):
        """Entries of the tables of fields built while traced, once each."""
        key = (id(args[0]), kind)
        if result is not None and key[0] in self._built_fields and key not in self._tabled:
            self._tabled.add(key)
            self.counts["table_entries"] += len(result)

    def _note_finitefield_FiniteField_chi_table(self, args, result, exc):
        self._count_table("chi", args, result)

    def _note_finitefield_FiniteField_sqrt_table(self, args, result, exc):
        self._count_table("sqrt", args, result)

    def _note_points_cr_elimination_poly(self, args, result, exc):
        if result is not None:
            self._last_elim = (result, args[1].x)

    def _note_points_rational_roots(self, args, result, exc):
        degree = args[0].degree
        if degree >= 0:
            self.counts["degree_sum"] += degree
        if self._last_elim is not None and args[0] is self._last_elim[0]:
            self.counts["eliminations"] += 1
            if result is not None and any(r != self._last_elim[1] for r in result):
                self.counts["useful_eliminations"] += 1

    def _note_scalars_factorize(self, args, result, exc):
        if exc is not None:
            self.counts["factorize_failed"] += 1

    def _note_binforms_certify_form(self, args, result, exc):
        if result is not None and not isinstance(result, str):
            self.counts["certify_accepted"] += 1

    def _note_jsonio_dumps(self, args, result, exc):
        if result is not None:
            self.counts["bytes_out"] += len(result.encode("utf-8"))

    def _note_cli_main(self, args, result, exc):
        if exc is not None or result != 0:
            self.counts["nonzero_exits"] += 1

    # -- derived metrics ----------------------------------------------

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s and self_s per span name, once every span ended."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _, _), covered in zip(self.spans, inner):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return dict(out)

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Every metric of METRICS but the traced-against-untraced throughputs."""
        if ops < 1:
            raise ValueError("no traced ops")
        tot = self.span_totals()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def get(name, field):
            return tot.get(name, zero)[field] / ops

        counts = self.counts
        m = {
            "finitefield.fields_built": get("finitefield.FiniteField.__init__", "calls"),
            "finitefield.build_s": get("finitefield.FiniteField.__init__", "total_s"),
            "finitefield.tables_s": get("finitefield.FiniteField.chi_table", "total_s")
            + get("finitefield.FiniteField.sqrt_table", "total_s"),
            "finitefield.table_entries": counts["table_entries"] / ops,
            "finitefield.mul.calls": counts["finitefield.FiniteField.mul"] / ops,
            "points.rational_roots.degree_sum": counts["degree_sum"] / ops,
            "points.useful_elimination_ratio": (
                counts["useful_eliminations"] / counts["eliminations"]
                if counts["eliminations"]
                else 0.0
            ),
            "polys.Poly.mul.calls": counts["polys.Poly.__mul__"] / ops,
            "scalars.factorize.failed": counts["factorize_failed"] / ops,
            "binforms.certify_form.accept_ratio": (
                counts["certify_accepted"] / tot["binforms.certify_form"]["calls"]
                if "binforms.certify_form" in tot
                else 0.0
            ),
            "jsonio.bytes_out": counts["bytes_out"] / ops,
            "jsonio.parse_s": sum(
                row["self_s"] for name, row in tot.items() if name.startswith("jsonio.json_to_")
            )
            / ops,
            "cli.main.nonzero_exits": counts["nonzero_exits"] / ops,
        }
        for name in METRICS:
            if name in m or name.startswith(("layer.", "op.", "trace.")):
                continue
            span, field = name.rsplit(".", 1)
            m[name] = get(span, "self_s" if field == "self_s" else "calls")
        for layer in LAYERS + ("bench",):
            m["layer.%s.self_s" % layer] = (
                sum(row["self_s"] for name, row in tot.items() if name.split(".")[0] == layer)
                / ops
            )
        m["op.traced_s"] = get(OP_SPAN, "total_s")
        m["trace.spans"] = sum(row["calls"] for row in tot.values()) / ops
        return m
