"""Per-layer tracing of semiflex from outside the package.

``Tracer.install()`` wraps the public entry points of each semiflex module
(the table ``TARGETS``) at every place the name is bound, without editing
the package; ``uninstall()`` puts the originals back.  A wrapped call is
either

* recorded as a span (id, parent span, thread, name, start, end), kept in
  memory and written out by ``dump``, or
* for hot calls (``HOT``) that have a parent, only aggregated: its count and
  self time are summed per thread, and its duration is charged to the
  parent frame so the parent's self time stays exact.

A layer's self time is a call's duration minus the part of that interval
its child calls cover.  Spans that start at the root of a worker thread
(the CLI's per-weight thread pool) are adopted by the innermost main-thread
span that contains them, so the thread waiting on the pool is not charged
for the work the pool does.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import weakref
from collections import namedtuple

HOT = True
SPAN = False

Span = namedtuple("Span", "id parent via_hot thread name start end hot_child")
Span.__doc__ = """One recorded call.

``parent`` is the nearest recorded ancestor on the same thread (None at a
thread's root); ``via_hot`` is true when an aggregated call sits between
the two, whose duration already covers this span.  ``hot_child`` is the
summed duration of the aggregated calls made directly from this span.
"""


# -- self time from a span tree ----------------------------------------------------


def covered_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_children(spans, main_thread) -> dict:
    """{span id: [direct child spans]}, adopting worker-thread roots."""
    children: dict = {s.id: [] for s in spans}
    main = [s for s in spans if s.thread == main_thread]
    for s in spans:
        if s.parent is not None:
            if not s.via_hot:
                children[s.parent].append(s)
        elif s.thread != main_thread:
            hosts = [m for m in main if m.start <= s.start and s.end <= m.end]
            if hosts:
                children[max(hosts, key=lambda m: m.start).id].append(s)
    return children


def self_times(spans, main_thread) -> dict:
    """{span id: self seconds} for a list of ``Span`` records."""
    children = span_children(spans, main_thread)
    out = {}
    for s in spans:
        covered = covered_length([(c.start, c.end) for c in children[s.id]], s.start, s.end)
        out[s.id] = max(0.0, s.end - s.start - s.hot_child - covered)
    return out


def unattributed(spans, lo, hi) -> float:
    """Time in [lo, hi] that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (hi - lo) - covered_length(roots, lo, hi)


# -- hooks: counts taken where the work happens ------------------------------------
#
# A pre hook sees (tracer, args); a post hook sees (tracer, args, result).
# Both run inside the wrapped call's timed interval.


def _track_algebra(tr, args):
    tr.algebras[id(args[0])] = args[0]


def _memo_probe(tr, args):
    alg, word, order = args[0], args[1], args[2]
    memo = getattr(alg, "_memos", {}).get(("no", getattr(order, "tag", None)))
    if memo is not None and tuple(word) in memo:
        tr.count("pbw.memo_top_hits")


def _solve_cells(tr, args):
    columns, target = args[0], args[1]
    tr.count("linalg.solve_in_span.cells", len(target) * (len(columns) + 1))


def _echelon_cells(tr, args):
    tr.count("kernels.row_echelon_int.cells", len(args[0]) * args[1])


def _rank_repeat(tr, args):
    with tr.lock:
        if args[0] in tr.ranked:
            tr.count("linalg.rank.repeats")
        else:
            tr.ranked.add(args[0])


def _first_visit(tr, seen_name, args) -> bool:
    """True the first time (object, argument) is seen in this trace."""
    with tr.lock:
        seen = tr.seen.setdefault(seen_name, weakref.WeakKeyDictionary())
        done = seen.setdefault(args[0], set())
        if args[1] in done:
            return False
        done.add(args[1])
        return True


def _basis_probe(tr, args, result):
    if _first_visit(tr, "basis", args):
        tr.count("forms.basis.probes")
        if result:
            tr.count("forms.basis.nonempty")


def _matrix_built(tr, args, result):
    if _first_visit(tr, "matrix", args):
        tr.count("forms.matrix.builds")
        tr.count("forms.matrix.nnz", result.nnz)


def _count_monomials(tr, args, result):
    tr.count("forms.enumerate_forms.monomials", len(result))


# (module, qualified name, metric, HOT/SPAN, pre hook, post hook)
TARGETS = [
    ("semiflex.liealg", "GradedLieAlgebra.ensure_window", "liealg.ensure_window", HOT, _track_algebra, None),
    ("semiflex.pbw", "normal_order_word", "pbw.normal_order_word", HOT, _memo_probe, None),
    ("semiflex.pbw", "enumerate_pbw_weights", "pbw.enumerate_pbw_weights", SPAN, None, None),
    ("semiflex.modules", "WeightModule.action", "modules.action", HOT, None, None),
    ("semiflex.modules", "verma", "modules.verma", SPAN, None, None),
    ("semiflex.modules", "check_commutators", "modules.check_commutators", SPAN, None, None),
    ("semiflex.forms", "enumerate_forms", "forms.enumerate_forms", HOT, None, _count_monomials),
    ("semiflex.forms", "SemiInfComplex.basis", "forms.basis", HOT, None, _basis_probe),
    ("semiflex.forms", "SemiInfComplex.matrix", "forms.matrix", HOT, None, _matrix_built),
    ("semiflex.forms", "semiinf_cohomology", "forms.semiinf_cohomology", SPAN, None, None),
    ("semiflex.linalg", "solve_in_span", "linalg.solve_in_span", HOT, _solve_cells, None),
    ("semiflex.linalg", "SparseMatrix.rank", "linalg.rank", HOT, _rank_repeat, None),
    ("semiflex.linalg", "SparseMatrix.nullspace", "linalg.nullspace", HOT, None, None),
    ("semiflex.linalg", "SparseMatrix.pivot_columns", "linalg.pivot_columns", HOT, None, None),
    ("semiflex.linalg", "SparseMatrix.matmul", "linalg.matmul", HOT, None, None),
    ("semiflex._kernels", "row_echelon_int", "kernels.row_echelon_int", HOT, _echelon_cells, None),
    ("semiflex.induction", "wakimoto", "induction.wakimoto", SPAN, None, None),
    ("semiflex.induction", "universal_semijective", "induction.universal_semijective", SPAN, None, None),
    ("semiflex.induction", "check_universal_property", "induction.check_universal_property", SPAN, None, None),
    ("semiflex.induction", "SemiregularModel.left_matrix", "induction.left_matrix", HOT, None, None),
    ("semiflex.induction", "WakimotoSpace.left_matrix", "induction.left_matrix", HOT, None, None),
    ("semiflex.induction", "SemiregularModel.right_matrix", "induction.right_matrix", HOT, None, None),
    ("semiflex.cli", "run_job", "cli.run_job", SPAN, None, None),
    ("semiflex.output", "write_csv", "output.write_csv", SPAN, None, None),
]


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack: list = []  # frames [span id or None, hot child s, recorded child s]
        self.spans: list = []
        self.calls: dict = {}
        self.hot_self: dict = {}
        self.counts: dict = {}


class Tracer:
    """Wraps semiflex entry points and collects spans and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.main_thread = threading.get_ident()
        self.active = False
        self.lock = threading.Lock()
        self.algebras: dict = {}
        self.ranked = weakref.WeakSet()
        self.seen: dict = {}
        self.missing: list = []
        self._local = threading.local()
        self._threads: list = []
        self._ids = itertools.count(1)
        self._installed: list = []  # (owner, attribute, original)
        self._rules: list = []  # (weakref to module, original rule, counting rule)

    # -- per-thread state ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self.lock:
                self._threads.append(st)
        return st

    def count(self, name: str, n=1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    # -- wrapping ------------------------------------------------------------------

    def _wrapper(self, metric, fn, hot, pre, post):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [None if (hot and parent is not None) else next(tracer._ids), 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if pre is not None:
                    pre(tracer, args)
                result = fn(*args, **kwargs)
                if post is not None:
                    post(tracer, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.calls[metric] = st.calls.get(metric, 0) + 1
                if frame[0] is None:
                    st.hot_self[metric] = st.hot_self.get(metric, 0.0) + dur - frame[1] - frame[2]
                    parent[1] += dur
                else:
                    pid, via_hot = None, False
                    for anc in reversed(stack):
                        if anc[0] is not None:
                            pid = anc[0]
                            break
                        via_hot = True
                    st.spans.append(Span(frame[0], pid, via_hot, st.ident, metric, start, end, frame[1]))
                    if parent is not None:
                        parent[2] += dur

        return traced

    def _set(self, owner, attr, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at each binding, then start recording."""
        for modname, qualname, metric, hot, pre, post in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapped = self._wrapper(metric, original, hot, pre, post)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "semiflex" or name.startswith("semiflex.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)
        self._instrument_rules()
        self.active = True

    def _instrument_rules(self) -> None:
        """Count the action-matrix rule calls (cache misses) of every module
        constructed while tracing, with the nnz of what they build."""
        try:
            from semiflex.modules import WeightModule
        except ImportError:
            self.missing.append("semiflex.modules.WeightModule")
            return
        original_init = WeightModule.__dict__["__init__"]
        tracer = self

        @functools.wraps(original_init)
        def init(module, *args, **kwargs):
            original_init(module, *args, **kwargs)
            rule = getattr(module, "_rule", None)
            if rule is None or not tracer.active:
                return

            def counted_rule(eid, w):
                mat = rule(eid, w)
                if tracer.active:
                    tracer.count("modules.action.rule_calls")
                    tracer.count("modules.action.nnz", mat.nnz)
                return mat

            module._rule = counted_rule
            with tracer.lock:
                tracer._rules.append((weakref.ref(module), rule, counted_rule))

        self._set(WeightModule, "__init__", init)

    def uninstall(self) -> None:
        """Stop recording and restore every original binding."""
        self.active = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        for ref, rule, counted in self._rules:
            module = ref()
            if module is not None and getattr(module, "_rule", None) is counted:
                module._rule = rule
        self._rules.clear()

    # -- results -------------------------------------------------------------------

    def spans(self) -> list:
        return [s for st in self._threads for s in st.spans]

    def _merged(self, field: str) -> dict:
        out: dict = {}
        for st in self._threads:
            for k, v in getattr(st, field).items():
                out[k] = out.get(k, 0) + v
        return out

    def report(self, job_start: float, job_end: float) -> dict:
        """Per-layer metrics over everything recorded (set-up included) plus
        the job's unattributed time and its weight-cell durations."""
        spans = self.spans()
        calls = self._merged("calls")
        counts = self._merged("counts")
        selfs = self._merged("hot_self")
        span_self = self_times(spans, self.main_thread)
        for s in spans:
            selfs[s.name] = selfs.get(s.name, 0.0) + span_self[s.id]
        names = dict.fromkeys(metric for _mod, _qual, metric, *_ in TARGETS)
        metrics = {f"{m}.calls": calls.get(m, 0) for m in names}
        metrics.update({f"{m}.s": selfs.get(m, 0.0) for m in names})
        metrics["modules.action.calls"] = counts.get("modules.action.rule_calls", 0)
        metrics["modules.action.nnz"] = counts.get("modules.action.nnz", 0)
        metrics["forms.enumerate_forms.monomials"] = counts.get("forms.enumerate_forms.monomials", 0)
        metrics["forms.matrix.calls"] = counts.get("forms.matrix.builds", 0)
        metrics["forms.matrix.nnz"] = counts.get("forms.matrix.nnz", 0)
        metrics["forms.basis.nonempty_ratio"] = _ratio(counts.get("forms.basis.nonempty", 0), counts.get("forms.basis.probes", 0))
        metrics["linalg.solve_in_span.cells"] = counts.get("linalg.solve_in_span.cells", 0)
        metrics["linalg.rank.repeat_ratio"] = _ratio(counts.get("linalg.rank.repeats", 0), calls.get("linalg.rank", 0))
        metrics["kernels.row_echelon_int.cells"] = counts.get("kernels.row_echelon_int.cells", 0)
        metrics["pbw.memo_top_hit_ratio"] = _ratio(counts.get("pbw.memo_top_hits", 0), calls.get("pbw.normal_order_word", 0))
        metrics["pbw.memo_entries"] = sum(
            len(memo)
            for alg in self.algebras.values()
            for memo in getattr(alg, "_memos", {}).values()
            if isinstance(memo, dict)
        )
        metrics["liealg.basis_elements"] = sum(len(getattr(alg, "labels", ())) for alg in self.algebras.values())
        metrics["trace.unattributed_s"] = unattributed(spans, job_start, job_end)
        cells = sorted(s.end - s.start for s in spans if s.name == "forms.semiinf_cohomology")
        return {"metrics": metrics, "weight_cells": cells}

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans():
                fh.write(json.dumps(s._asdict()) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
