"""Outside-in layer trace: spans and counters around mongesym's public calls.

The recorder replaces each traced function at every module binding through
which callers reach it (``mongesym.solver.sparse_nullspace`` as well as
``mongesym.linalg.sparse_nullspace``) and each traced ``Expr`` / ``Ansatz``
method on its class.  A span records its name, start, end, parent span and
job index; spans live in flat arrays while the traced pass runs and are
written out afterwards.  A span's self time is its duration minus the
durations of its direct child spans, so every second of a traced pass is
counted once, in the innermost traced call that was running.

A target that no longer exists is reported as missing and skipped, so the
trace keeps working across refactors of the program.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array


def _chars(rec, args, result):
    rec.add("parser.parse.chars", len(args[0]))


def _terms_out(rec, args, result):
    rec.add("expr.arith.terms_out", len(result.terms))


def _closed_pairs(rec, args, result):
    d = len(result.basis)
    rec.add("liealg.close_under_bracket.pairs", d * (d - 1) // 2)


def _nullspace_counts(rec, args, result):
    rows = args[0]
    if isinstance(rows, (list, tuple)):  # never consume a caller's iterator
        rec.add("linalg.sparse_nullspace.rows_in", sum(1 for r in rows if r))
        rec.add("linalg.sparse_nullspace.nnz_in", sum(len(r) for r in rows))
    rank, basis = result
    rec.add("linalg.sparse_nullspace.rank", rank)
    bits = max((abs(v).bit_length() for vec in basis for v in vec), default=0)
    rec.maximum("linalg.basis_max_bits", bits)


def _unknowns(rec, args, result):
    rec.add("solver.unknowns", result.size)


def _rows(rec, args, result):
    rec.add("solver.rows", result.n_rows)


ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
         "__pow__", "pow_rational")

# (module, attribute or Class.method, span name, measure)
TARGETS = (
    ("mongesym.cli", "main", "cli.main", None),
    ("mongesym.parser", "parse", "parser.parse", _chars),
    ("mongesym.catalog", "get_field", "catalog.get_field", None),
    *(("mongesym.expr", f"Expr.{m}", "expr.arith", _terms_out) for m in ARITH),
    ("mongesym.expr", "Expr.diff", "expr.diff", None),
    ("mongesym.expr", "Expr.from_raw", "expr.from_raw", None),
    ("mongesym.expr", "Expr.substitute", "expr.substitute", None),
    ("mongesym.expr", "Expr.is_zero", "expr.is_zero", None),
    ("mongesym.expr", "to_text", "expr.to_text", None),
    ("mongesym.fields", "lie_bracket", "fields.lie_bracket", None),
    ("mongesym.fields", "is_symmetry", "fields.is_symmetry", None),
    ("mongesym.fields", "frame_determinant", "fields.frame_determinant", None),
    ("mongesym.fields", "project_to_j2", "fields.project_to_j2", None),
    ("mongesym.fields", "prolong_plane_field", "fields.prolong_plane_field", None),
    ("mongesym.liealg", "close_under_bracket", "liealg.close_under_bracket", _closed_pairs),
    ("mongesym.liealg", "express_in_basis", "liealg.express_in_basis", None),
    ("mongesym.liealg", "analyze", "liealg.analyze", None),
    ("mongesym.linalg", "sparse_nullspace", "linalg.sparse_nullspace", _nullspace_counts),
    ("mongesym.linalg", "rows_to_integer", "linalg.rows_to_integer", None),
    ("mongesym.linalg", "solve_exact", "linalg.solve_exact", None),
    ("mongesym.solver", "symmetry_dimension", "solver.symmetry_dimension", None),
    ("mongesym.solver", "build_ansatz", "solver.build_ansatz", _unknowns),
    ("mongesym.solver", "determining_equations", "solver.determining_equations", _rows),
    ("mongesym.solver", "Ansatz.assemble", "solver.assemble", None),
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "parser.parse.calls": "count", "parser.parse.chars": "count",
    "parser.parse.self_s": "s",
    "catalog.get_field.calls": "count", "catalog.get_field.self_s": "s",
    "expr.arith.calls": "count", "expr.arith.terms_out": "count",
    "expr.arith.self_s": "s",
    "expr.diff.calls": "count", "expr.diff.self_s": "s",
    "expr.from_raw.calls": "count", "expr.from_raw.self_s": "s",
    "expr.substitute.calls": "count", "expr.substitute.failed": "count",
    "expr.substitute.self_s": "s",
    "expr.is_zero.calls": "count",
    "expr.to_text.calls": "count", "expr.to_text.self_s": "s",
    "fields.lie_bracket.calls": "count", "fields.lie_bracket.self_s": "s",
    "fields.project_to_j2.self_s": "s", "fields.prolong_plane_field.self_s": "s",
    "fields.is_symmetry.calls": "count", "fields.is_symmetry.self_s": "s",
    "fields.frame_determinant.calls": "count",
    "fields.frame_determinant.self_s": "s",
    "liealg.close_under_bracket.calls": "count",
    "liealg.close_under_bracket.self_s": "s",
    "liealg.express_in_basis.calls": "count",
    "liealg.express_in_basis.retried": "count",
    "liealg.express_in_basis.self_s": "s",
    "liealg.bracket_yield": "ratio",
    "liealg.analyze.self_s": "s",
    "linalg.sparse_nullspace.calls": "count",
    "linalg.sparse_nullspace.rows_in": "count",
    "linalg.sparse_nullspace.nnz_in": "count",
    "linalg.sparse_nullspace.self_s": "s",
    "linalg.rank_yield": "ratio",
    "linalg.basis_max_bits": "bits",
    "linalg.rows_to_integer.self_s": "s",
    "linalg.solve_exact.calls": "count", "linalg.solve_exact.self_s": "s",
    "solver.symmetry_dimension.self_s": "s",
    "solver.build_ansatz.self_s": "s",
    "solver.determining_equations.calls": "count",
    "solver.determining_equations.self_s": "s",
    "solver.unknowns": "count", "solver.rows": "count",
    "solver.assemble.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.missing": "count",
}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = bytearray()
        self.counters: dict = {}
        self.maxima: dict = {}
        self.missing: list = []
        self.job = -1
        self._stack: list = []
        self._patches: list = []

    # -- counters ----------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, failed = self.span_start, self.span_end, self.span_failed
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(rec.job)
            failed.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if measure is not None:
                try:
                    measure(rec, args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    rec.note_missing(f"{name} (result shape)")
            return result

        return traced

    # -- installing into the program ---------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        for modname, attr, name, measure in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                self.note_missing(f"{modname}.{attr}")
                continue
            if "." in attr:
                self._wrap_method(module, attr, name, measure)
            else:
                self._wrap_function(module, attr, name, measure)

    def _wrap_function(self, module, attr, name, measure):
        original = getattr(module, attr, None)
        if not callable(original):
            self.note_missing(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(name, original, measure)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mongesym" or modname.startswith("mongesym.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, module, attr, name, measure):
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            self.note_missing(f"{module.__name__}.{attr}")
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, measure))
        else:
            new = self.wrap(name, raw, measure)
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def _nearest_ancestor(self, sid: int, nid: int) -> int:
        p = self.span_parent[sid]
        while p >= 0 and self.span_name[p] != nid:
            p = self.span_parent[p]
        return p

    def metrics(self, overhead_ratio: float) -> dict:
        """Every metric of LAYER_METRICS; a ratio with no base reads 0."""
        calls: dict = {}
        self_s: dict = {}
        failed: dict = {}
        selfs = self.self_times()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            if self.span_failed[i]:
                failed[name] = failed.get(name, 0) + 1
        ids = self._name_ids
        bracket = ids.get("fields.lie_bracket")
        close = ids.get("liealg.close_under_bracket")
        under_close = 0
        if bracket is not None and close is not None:
            under_close = sum(1 for i, nid in enumerate(self.span_name)
                              if nid == bracket and self._nearest_ancestor(i, close) >= 0)
        retried = set()
        sub, express = ids.get("expr.substitute"), ids.get("liealg.express_in_basis")
        if sub is not None and express is not None:
            for i, nid in enumerate(self.span_name):
                if nid == sub and self.span_failed[i]:
                    owner = self._nearest_ancestor(i, express)
                    if owner >= 0:
                        retried.add(owner)
        c = self.counters
        derived = {
            "expr.substitute.failed": failed.get("expr.substitute", 0),
            "liealg.express_in_basis.retried": len(retried),
            "liealg.bracket_yield": (c.get("liealg.close_under_bracket.pairs", 0) / under_close
                                     if under_close else 0.0),
            "linalg.rank_yield": (c.get("linalg.sparse_nullspace.rank", 0)
                                  / c["linalg.sparse_nullspace.rows_in"]
                                  if c.get("linalg.sparse_nullspace.rows_in") else 0.0),
            "linalg.basis_max_bits": self.maxima.get("linalg.basis_max_bits", 0),
            "trace.overhead_ratio": overhead_ratio,
            "trace.spans": len(self.span_name),
            "trace.missing": len(self.missing),
        }
        out = {}
        for metric, unit in LAYER_METRICS.items():
            if metric in derived:
                value = derived[metric]
            elif metric.endswith(".calls"):
                value = calls.get(metric[:-len(".calls")], 0)
            elif metric.endswith(".self_s"):
                value = self_s.get(metric[:-len(".self_s")], 0.0)
            else:
                value = c.get(metric, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str, jobs, origin: float) -> None:
        """Spans as gzip'd tab-separated text, times in seconds from origin."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i, job in enumerate(jobs):
                fh.write(f"# job\t{i}\t{job.kind}\n")
            for name in self.missing:
                fh.write(f"# missing\t{name}\n")
            fh.write("span\tname\tparent\tjob\tstart_s\tend_s\tfailed\n")
            names = self.names
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{names[nid]}\t{self.span_parent[i]}\t{self.span_job[i]}\t"
                         f"{self.span_start[i] - origin:.7f}\t{self.span_end[i] - origin:.7f}\t"
                         f"{self.span_failed[i]}\n")
