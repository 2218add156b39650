"""Span tracer and the wrappers that time crum's layers from outside.

`instrument(tracer)` rebinds crum's public entry points to timing wrappers
and undoes it on exit; nothing under `src/` changes.  Functions that crum
modules import by name (`from .analytic import casoratian`) are rebound in
every module that holds them, found by identity, so no call escapes the
wrapper.  Methods (the ground-state log-sum, the branched square root, jet
arithmetic, `AnalyticFn.jet`) are wrapped on their class.

Each wrapped call records a span (name, start, end, parent, request id) in
flat arrays that stay in memory until `write_spans`.  Jet operations and
`AnalyticFn.jet` are counted, not spanned, so their time is self time of the
enclosing span.  `Tracer(delays={name: seconds})` sleeps inside the named
span before the call: the slowed-layer self-test uses it.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
import weakref
from array import array
from collections import Counter

JET_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "derivative", "truncate",
               "exp", "log", "sqrt", "pow", "sincos", "sin", "cos")

# (defining module, function, span name): rebound wherever crum binds them
SPANNED_FUNCTIONS = (
    ("families", "make_family", "families.make_family"),
    ("dqm", "build_chain", "dqm.build_chain"),
    ("dqm", "relation_residual", "dqm.relation_residual"),
    ("dqm", "phi_via_casoratian", "dqm.phi_via_casoratian"),
    ("oqm", "build_chain", "oqm.build_chain"),
    ("oqm", "relation_residual", "oqm.relation_residual"),
    ("oqm", "node_count", "oqm.node_count"),
    ("analytic", "inner_product", "analytic.inner_product"),
    ("analytic", "casoratian", "analytic.casoratian"),
    ("analytic", "wronskian", "analytic.wronskian"),
    ("quadrature", "refinement_sequence", "quadrature.refinement_sequence"),
    ("structure", "shape_invariance_residual", "structure.shape_invariance_residual"),
    ("structure", "eta_relations_residual", "structure.eta_relations_residual"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, delays=None):
        self.enabled = True
        self.delays = dict(delays or {})
        self.request = 0
        self.counts = Counter()
        self.maxima = {}
        self.logsum_points = set()
        self.branches = weakref.WeakSet()
        self.released_entries = 0
        self.memo_entries = None   # set when the timed work ends
        self._names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._req = array("i")
        self._nested = array("b")   # 1 when a span of the same name is open
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._open = Counter()

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._req.append(self.request)
        self._nested.append(1 if self._open[nid] else 0)
        self._end.append(math.nan)
        self._stack.append(idx)
        self._open[nid] += 1
        self._start.append(time.perf_counter())
        delay = self.delays.get(name)
        if delay:
            time.sleep(delay)
        return idx

    def close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self._name[idx]] -= 1

    def branch_entries(self):
        """Entries in branch memos: live ones plus those of released branches."""
        return self.released_entries + sum(len(b._memo) for b in self.branches)

    def _release(self, memo):
        self.released_entries += len(memo)

    def note_max(self, key, value):
        if value is not None and (key not in self.maxima or value > self.maxima[key]):
            self.maxima[key] = value

    def span_totals(self):
        """name -> [spans, outermost inclusive seconds, self seconds]."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += dur[i]
        totals = {}
        for i in range(n):
            row = totals.setdefault(self._names[self._name[i]], [0, 0.0, 0.0])
            row[0] += 1
            if not self._nested[i]:
                row[1] += dur[i]
            row[2] += dur[i] - covered[i]
        return totals

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, request, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\n")
            for i in range(len(self._start)):
                fh.write(f"{i}\t{self._parent[i]}\t{self._req[i]}\t"
                         f"{self._names[self._name[i]]}\t{self._start[i]:.9f}\t{self._end[i]:.9f}\n")


def _crum_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "crum" or name.startswith("crum."))]


def _spanned(tracer, name, fn, before=None, after=None):
    """Wrap fn in a span; before(args) may replace the args, after(result) sees the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            args = before(args)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out)
        return out

    return wrapper


class _Patcher:
    def __init__(self):
        self.undo = []
        self.bindings = {}   # "module.function" -> names of the modules rebound

    def rebind(self, owner, attr, make_wrapper):
        """Replace owner.attr in every crum module that binds the same object."""
        orig = getattr(owner, attr)
        new = make_wrapper(orig)
        sites = []
        for mod in _crum_modules():
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, new)
                self.undo.append((mod, attr, orig))
                sites.append(mod.__name__)
        self.bindings[f"{owner.__name__}.{attr}"] = sites

    def method(self, cls, attr, make_wrapper):
        orig = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(orig))
        self.undo.append((cls, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()


class instrument:
    """Context manager: wrap crum's layers for `tracer`, restore on exit.

    `.bindings` maps each rebound function to the modules it was rebound in.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._patcher = _Patcher()
        self.bindings = self._patcher.bindings

    def __enter__(self):
        import crum.cli  # noqa: F401  (loads every crum module that binds names)
        from crum import analytic, dqm, families, jets, quadrature, verify

        tr = self.tracer
        p = self._patcher
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _crum_modules()}
        for mod_name, attr, span in SPANNED_FUNCTIONS:
            p.rebind(mods[mod_name], attr, functools.partial(_spanned, tr, span))

        p.rebind(dqm, "step_chain", lambda fn: _step_chain_wrapper(tr, fn))
        p.rebind(analytic, "lu_det", lambda fn: _spanned(
            tr, "analytic.lu_det", fn,
            after=lambda out: tr.note_max("analytic.lu_det.growth_max", float(out[1]))))
        p.rebind(quadrature, "integrate", lambda fn: _integrate_wrapper(tr, fn))
        p.rebind(verify, "grid_eigensolve", lambda fn: _spanned(
            tr, "verify.grid_eigensolve", fn,
            before=lambda args: (_count_calls(tr, "verify.grid_eigensolve.u_evals", args[0]),)
            + tuple(args[1:])))
        p.rebind(verify, "gram_matrix", lambda fn: _spanned(
            tr, "verify.gram_matrix", fn, before=lambda args: _count_entries(tr, args)))

        p.method(families._FactorLogSum, "__call__", lambda fn: _logsum_wrapper(tr, fn))
        p.method(dqm.BranchedSqrt, "__init__", lambda fn: _branch_init_wrapper(tr, fn))
        p.method(dqm.BranchedSqrt, "__call__", lambda fn: _spanned(tr, "dqm.branch", fn))
        p.method(dqm.BranchedSqrt, "_continue_to",
                 lambda fn: _count_calls(tr, "dqm.branch.miss_calls", fn))
        p.method(analytic.AnalyticFn, "jet", lambda fn: _count_calls(tr, "analytic.jet.calls", fn))
        for attr in JET_METHODS:
            p.method(jets.Jet, attr, lambda fn: _jet_op_wrapper(tr, fn))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


def _count_calls(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_entries(tracer, args):
    m = len(args[0])
    tracer.counts["verify.gram_matrix.entries"] += m * (m + 1) // 2
    return args


def _step_chain_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(level, *args, **kwargs):
        if not tracer.enabled:
            return fn(level, *args, **kwargs)
        tag = f"l{level.s + 1}"
        before = tracer.counts["families.logsum.calls"]
        idx = tracer.open(f"dqm.step_chain.{tag}")
        try:
            return fn(level, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.counts[f"dqm.step_chain.logsum_calls.{tag}"] += (
                tracer.counts["families.logsum.calls"] - before)
    return wrapper


def _integrate_wrapper(tracer, fn):
    from crum.errors import AccuracyError

    @functools.wraps(fn)
    def wrapper(integrand, spec):
        if not tracer.enabled:
            return fn(integrand, spec)
        tracer.counts["quadrature.integrate.calls"] += 1
        idx = tracer.open("quadrature.integrate")
        try:
            value, err = fn(_count_calls(tracer, "quadrature.integrate.nodes", integrand), spec)
        except AccuracyError:
            tracer.counts["quadrature.integrate.failures"] += 1
            raise
        finally:
            tracer.close(idx)
        tracer.note_max("quadrature.integrate.err_max", float(err))
        return value, err
    return wrapper


def _logsum_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, x):
        if not tracer.enabled:
            return fn(self, x)
        tracer.counts["families.logsum.calls"] += 1
        tracer.logsum_points.add(x)
        idx = tracer.open("families.logsum")
        try:
            return fn(self, x)
        finally:
            tracer.close(idx)
    return wrapper


def _branch_init_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, radicand, *args, **kwargs):
        fn(self, radicand, *args, **kwargs)
        self.radicand = _count_calls(tracer, "dqm.branch.radicand_calls", self.radicand)
        tracer.branches.add(self)
        weakref.finalize(self, tracer._release, self._memo)
    return wrapper


def _jet_op_wrapper(tracer, fn):
    from numpy import ndarray

    @functools.wraps(fn)
    def wrapper(self, *args):
        if tracer.enabled:
            counts = tracer.counts
            counts["jets.ops"] += 1
            if type(self.coeffs[0]) is ndarray:
                counts["jets.array_ops"] += 1
        return fn(self, *args)
    return wrapper
