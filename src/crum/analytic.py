"""Complex-analytic function values on a strip: star conjugation, derivative
jets, Wronskian and Casoratian determinants, inner products over a
family's domain (a, b) by `quadrature.integrate`; stacked functions, whose
values and jets lead with one row per n of a range (`AnalyticFn.rows`,
`row_range`); the identity engine both chain kinds share: an `Identity`
table per kind, read by `identity_residual` and reduced fail-closed by
`worst_residual`, the five operator identities both tables hold and
`downshift`; and the chain scaffold: `ChainLevel`, the level record
both kinds subclass, with its n-range, level-0, step and downshift guards,
`sign_changes`, the one rule by which a step refuses a seed,
`divided_difference`, the one three-term recurrence of the polynomials P_n,
`grow_chain`, up to DEPTH_CAP, and the run table of `run_cached`.

Everything here is immutable after construction and safe to evaluate
concurrently; evaluation is pure, and each thread has its own run table.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, ChainBreakError, DomainError, StripError
from .jets import Jet
from .quadrature import integrate

MAX_JET_ORDER = 24
DEPTH_CAP = 4
_CAUCHY_POINTS = 64
_CAUCHY_ROOTS = np.exp(2j * np.pi * np.arange(_CAUCHY_POINTS) / _CAUCHY_POINTS)
# points per jet of an array: a jet makes tens of temporaries per
# block, and 4,000-point blocks (64 kB each) left the process about 0.3 MB
# larger after the oracle grids, where 1,024-point blocks leave it unchanged
_ARRAY_BLOCK = 1024
# the table of the run open in this context (run_table), None outside a run
_RUN_TABLE = contextvars.ContextVar("crum_run_table", default=None)


@dataclass(frozen=True)
class AnalyticFn:
    """A complex-analytic function on |Im x| <= strip_halfwidth.

    ``fn`` evaluates the function at a point or at each point of an array;
    ``jet_fn``, when given, produces exact truncated Taylor expansions
    (built-in families wire closed-form recurrences here).  Without it,
    derivatives fall back to Cauchy-circle numerical differentiation, which
    calls ``fn`` on an array of circles, at a single point too.  A function
    given by its jet rule alone takes its values from the order-0 jets, so
    ``fn`` may then be left out.
    """

    fn: Optional[Callable[[complex | np.ndarray], complex | np.ndarray]] = None
    strip_halfwidth: float = math.inf
    label: str = ""
    jet_fn: Optional[Callable[[complex, int], Jet]] = None
    rows: int = 0     # of a stacked function, whose values and jets lead with a row axis

    def __post_init__(self):
        if self.fn is None:
            object.__setattr__(self, "fn", lambda x, rule=self.jet_fn: rule(x, 0).value)

    def __len__(self):    # rows of a stacked function, 1 for a plain one
        return self.rows or 1

    def check_strip(self, x):
        """x as complex (a complex array for an array or a list of points),
        after checking that every point lies in the strip."""
        xs = np.array(x, dtype=complex)
        outside = np.abs(xs.imag) > self.strip_halfwidth * (1 + 1e-12) + 1e-15
        # count_nonzero, not .any(): on the 0-d array of a single point,
        # ndarray.any() leaves a 52-byte block allocated per call (NumPy 2.4)
        if np.count_nonzero(outside):
            raise StripError(complex(xs.flat[np.argmax(outside)]), self.strip_halfwidth, self.label)
        return complex(x) if np.isscalar(x) else xs

    def __call__(self, x):
        """Value at x, or the array of values at an array of points (a
        stacked function's with its rows leading): order-0 jets (see `jet`)
        when the function has exact jets, otherwise fn, on blocks of the
        array.  An arithmetic failure shows as a non-finite value, which
        callers mask or reject.
        """
        x = self.check_strip(x)
        if not isinstance(x, np.ndarray):
            return self.fn(x)
        with np.errstate(all="ignore"):
            if self.jet_fn is not None:
                value = self._blocked(self.jet_fn, x, 0).value
            else:
                value = self._blocked(self.fn, x)
        return _filled(np.asarray(value, dtype=complex), x.shape)

    def jet(self, x, order):
        """Taylor jet of this function at x, coefficients c_k = f^(k)(x)/k!;
        at an array of points, a jet whose coefficients are arrays."""
        if order < 0:
            raise CapabilityError("jet order must be >= 0")
        if order > MAX_JET_ORDER:
            raise CapabilityError(f"jet order {order} beyond cap {MAX_JET_ORDER}")
        x = self.check_strip(x)
        if self.jet_fn is not None:
            return self._blocked(self.jet_fn, x, order)
        return self._cauchy_jet(np.asarray(x), order)

    def _blocked(self, fn, x, *order):
        """fn(x, *order), a jet or values; an array goes in blocks of at most
        _ARRAY_BLOCK / len(self) points, rows times points, joined again."""
        size = max(1, _ARRAY_BLOCK // len(self))
        if not isinstance(x, np.ndarray) or x.size <= size:
            return fn(x, *order)
        flat = x.ravel()
        blocks = [flat[i:i + size] for i in range(0, flat.size, size)]
        parts = [fn(b, *order) for b in blocks]
        lead = (self.rows,) if self.rows else ()

        def join(values):
            return np.concatenate([np.broadcast_to(v, lead + b.shape)
                                   for v, b in zip(values, blocks)], axis=-1).reshape(lead + x.shape)

        if not order:
            return join(parts)
        return Jet(x, [join([j.coeffs[k] for j in parts]) for k in range(order[0] + 1)])

    def _cauchy_jet(self, x, order):
        """Jet from the FFT of fn on a circle of _CAUCHY_POINTS points around
        each point of the array x (0-d for a single point), of radius 0.1 or
        less, inside the strip: one call of fn on the (..., _CAUCHY_POINTS)
        array of every point's circle, each circle with its own radius."""
        if order == 0:
            return Jet(x, [self(x)])
        h = self.strip_halfwidth
        r = np.minimum(min(0.1, h / 2.0), h - np.abs(x.imag))
        outside = r <= 0
        if np.count_nonzero(outside):
            raise StripError(complex(x.flat[np.argmax(outside)]), h, self.label)
        circles = x[..., None] + r[..., None] * _CAUCHY_ROOTS
        vals = np.broadcast_to(np.asarray(self.fn(circles), dtype=complex), circles.shape)
        coeffs = np.fft.fft(vals) / _CAUCHY_POINTS
        return Jet(x, [coeffs[..., k] / r**k for k in range(order + 1)])


@contextlib.contextmanager
def run_table():
    """A run: its own table (run_cached), closed again however the run ends."""
    token = _RUN_TABLE.set({})
    try:
        yield
    finally:
        _RUN_TABLE.reset(token)


def run_cached(compute, family, s, n, x):
    """compute(family, s, n, x), an array of values at the array x: a
    difference level s's phi_n or log V, a Casoratian or Wronskian of the
    first s level-0 eigenfunctions (with phi_n appended for n not None), or
    the generic Casoratian-Jacobi residual, which has no level.  In a run,
    computed once if x has at most _ARRAY_BLOCK points and kept read-only,
    keyed by the arguments and x's dtype, shape and bytes; outside a run,
    computed at each call."""
    table = _RUN_TABLE.get()
    if table is None or x.size > _ARRAY_BLOCK:
        return compute(family, s, n, x)
    key = (compute, family, s, n, x.dtype, x.shape, x.tobytes())
    value = table.get(key)
    if value is None:
        value = table[key] = compute(family, s, n, x)
        value.setflags(write=False)
    return value


def star_eval(f, x):
    """Value of the star-conjugate of f at x, or at each point of an array x:
    conj(f(conj x))."""
    x = f.check_strip(x)
    f.check_strip(np.conj(x))
    return np.conj(f.fn(np.conj(x)))


def rel_residual(ref, other):
    """Two-sided difference normalized by the reference value: |ref - other| / (1 + |ref|)."""
    return abs(ref - other) / (1.0 + abs(ref))


def worst_residual(residuals):
    """Largest of the residuals, 0 when there are none; each item is a
    number or an array of them.

    Fails closed: a NaN or infinite entry makes the result inf, so that
    sample can never pass a tolerance (a plain max would drop a NaN).
    """
    worst = 0.0
    for r in residuals:
        r = np.asarray(r, dtype=float).ravel()
        if not np.isfinite(r).all():
            return math.inf
        if r.size:
            worst = max(worst, float(r.max()))
    return worst


def _filled(value, shape):
    """value kept when it ends in the shape (a stacked one's rows lead), else filled out."""
    return value if value.shape[value.ndim - len(shape):] == shape else np.full(shape, value)


def row_range(n):
    """One n, or a nonempty contiguous range of them (a stacked function's rows), as a range."""
    rows = n if isinstance(n, range) else range(n, n + 1)
    if not rows or rows.step != 1:
        raise DomainError(f"expected one n or a nonempty contiguous range of n, got {n!r}")
    return rows


def per_row(values, x):
    """A number, or one per row, shaped to scale a stacked function's values at x."""
    return np.reshape(values, (-1,) + (1,) * np.ndim(x)) if np.ndim(values) else values


class Identity(NamedTuple):
    """One entry of a chain kind's identity table."""

    residuals: Callable       # (levels, sample array) -> residuals at levels[-1]
    first_level: int = 0      # 1 for a step identity, which relates a level to its parent
    sampled: bool = True      # False when checked on its own grid, not at the samples


def identity_residual(table, name, levels, samples):
    """Worst residual of identity `name` of `table` at the deepest level of
    `levels`, a chain from level 0; a non-finite sample makes it inf.

    The identity gets the samples as one complex array and yields residuals
    as numbers or arrays; arithmetic failures show as non-finite residuals.

    Fails closed: an unknown name, a level below the identity's first level
    and an identity that evaluates nothing there raise DomainError.
    """
    entry = table.get(name)
    if entry is None:
        raise DomainError(f"unknown relation kind {name!r}")
    s = len(levels) - 1
    if s < entry.first_level:
        raise DomainError(f"{name} applies from level {entry.first_level}, not at level {s}")
    xs = np.asarray(samples, dtype=complex)
    with np.errstate(all="ignore"):
        residuals = [np.ravel(r) for r in entry.residuals(levels, xs)]
    if not any(r.size for r in residuals):
        raise DomainError(f"{name} evaluated nothing at level {s}")
    return worst_residual(residuals)


def sign_changes(values):
    """Sign changes along the real parts of a 1-d array of values, or the
    list of them along each row of a 2-d one.  Exact zeros are dropped
    first, so a node that falls on a scan point still counts once."""
    signs = np.sign(np.real(values))
    if signs.ndim > 1:
        return [sign_changes(row) for row in signs]
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def divided_difference(recurrence, n, nodes):
    """Row i is P_n[e_i, ..., e_m], for the monic P_{k+1} = (y - b_k) P_k -
    c_k P_{k-1}, (b_k, c_k) = recurrence(k), and nodes e_0..e_m along the
    first axis of `nodes`.  The rows step by the product rule ((y - b) f)[e_i..e_m]
    = (e_i - b) f[e_i..e_m] + f[e_{i+1}..e_m], with no quotient, so nodes may
    coincide: at m + 1 copies of eta, row m - k is P_n^(k)(eta) / k!.  A
    range of n stacks its n along a second axis, from one recurrence pass."""
    rows = row_range(n)
    nodes = np.asarray(nodes, dtype=complex)
    prev = np.zeros(nodes.shape, dtype=complex)
    cur = np.zeros(nodes.shape, dtype=complex)
    cur[-1] = 1.0
    out = [cur]
    for k in range(rows[-1]):
        b_k, c_k = recurrence(k)
        nxt = (nodes - b_k) * cur
        if len(nodes) > 1:    # one node has no shifted row; an empty update costs ~1 us
            nxt[:-1] += cur[1:]
        nxt -= c_k * prev
        prev, cur = cur, nxt
        out.append(cur)
    return np.stack(out[rows[0]:], axis=1) if isinstance(n, range) else cur


@dataclass(frozen=True)
class ChainLevel:
    """Level s of a Crum chain over `family`: eigenfunctions phi^[s]_n for
    s <= n <= nmax, level constant E_s (the family's energy E_s) and the level
    it was stepped from.  Both chain kinds subclass it with their evaluators;
    the guards and the step are written here once."""

    family: object
    s: int
    E_s: float
    nmax: int
    parent: object = None

    @classmethod
    def level0(cls, family, nmax=None):
        """Level 0: the family itself, eigenfunctions up to nmax (default the
        family's own range)."""
        nmax = family.nmax if nmax is None else nmax
        if nmax > family.nmax:
            raise DomainError(f"n={nmax} outside tabulated range 0..{family.nmax}")
        return cls(family, 0, family.energy(0), nmax)

    def check_n(self, n):
        """Refuses an n, or a range of n, this level has no eigenfunction for."""
        ns = row_range(n)
        if ns[0] < self.s:
            raise DomainError(f"level {self.s} has phi_n only for n >= {self.s}")
        if ns[-1] > self.nmax:
            raise DomainError(f"phi_{ns[-1]} not built (nmax exceeded)")

    def interior(self):
        return self.family.interior()

    def step(self):
        """Level s+1 over this one.  Refuses when no eigenfunction is left to
        lift, and when its seed phi^[s+1]_{s+1} changes sign (`sign_changes`)
        at the SCAN_POINTS points of the interior that the kind's level class
        sets: a node there makes the deformed potential singular."""
        s_new = self.s + 1
        if self.nmax < s_new:
            raise ChainBreakError(f"no eigenfunctions left to lift to level {s_new}")
        new = type(self)(self.family, s_new, self.family.energy(s_new), self.nmax, parent=self)
        seed = new.phi(s_new)(np.linspace(*new.interior(), self.SCAN_POINTS))
        if sign_changes(seed) != 0:
            raise ChainBreakError(
                f"phi[{s_new}]_{s_new} changes sign on the physical region; the chain "
                "assumption (node-free seed) is violated")
        return new

    def downshift_gap(self, n):
        """E_n - E_{s-1}, the divisor that takes this level's phi_n back to
        the parent's (an array for a range of n); refuses level 0 and n < s."""
        if self.parent is None:
            raise DomainError("level 0 has no parent to downshift into")
        if row_range(n)[0] < self.s:
            raise DomainError(f"downshift needs n >= s = {self.s}")
        gaps = [self.family.energy(k) - self.parent.E_s for k in row_range(n)]
        return np.array(gaps) if isinstance(n, range) else gaps[0]


def grow_chain(level, step, depth):
    """Levels 0..depth: `level` followed by `depth` applications of `step`."""
    if depth > DEPTH_CAP:
        raise CapabilityError(
            f"chain depth {depth} exceeds the double-precision cap {DEPTH_CAP}; "
            "deeper chains need a wider-mantissa backend")
    levels = [level]
    for _ in range(depth):
        levels.append(step(levels[-1]))
    return levels


# ---------------------------------------------------------------------------
# the operator identities of both chain kinds
#
# Written against the contract oqm and dqm share: apply_A, apply_Adag and
# hamiltonian_apply of the chain module `chain`, looked up when called, and a
# level's phi(n), each an AnalyticFn, called on the whole sample array through
# its strip check, and the level's parent, E_s and family.energy.  Each module
# binds them and `downshift` with functools.partial.  The states they check
# are the rows of one stacked function, phi(checked_ns(level)).
# ---------------------------------------------------------------------------

def checked_ns(level):
    """Indices n of the states an identity checks at this level: the three
    highest built, max(s, nmax - 2) .. nmax."""
    return range(max(level.s, level.nmax - 2), level.nmax + 1)


def zero_mode(chain, levels, samples):
    """A^[s] annihilates the ground state of level s, taken as the parent's
    lift A^[s-1] phi^[s-1]_s (phi_0 at level 0): the level's own seed is
    built to be annihilated, so it would check A^[s] against itself."""
    level = levels[-1]
    parent = level.parent
    seed = level.phi(0) if parent is None else chain.apply_A(parent, parent.phi(level.s))
    scale = 1.0 + np.abs(seed(samples))
    yield np.abs(chain.apply_A(level, seed)(samples)) / scale


def iso_spectral(chain, levels, samples):
    """H^[s] phi^[s]_n = E_n phi^[s]_n."""
    level = levels[-1]
    ns = checked_ns(level)
    f = level.phi(ns)
    e_n = per_row([level.family.energy(n) for n in ns], samples)
    lhs = chain.hamiltonian_apply(level, f)(samples)
    f_x = f(samples)
    yield np.abs(lhs - e_n * f_x) / ((1.0 + np.abs(e_n)) * (1.0 + np.abs(f_x)))


def intertwine(chain, levels, samples):
    """A^[s-1] H^[s-1] = H^[s] A^[s-1], applied to the parent's phi_n."""
    level = levels[-1]
    parent = level.parent
    f = parent.phi(checked_ns(level))
    lhs = chain.apply_A(parent, chain.hamiltonian_apply(parent, f))(samples)
    rhs = chain.hamiltonian_apply(level, chain.apply_A(parent, f))(samples)
    yield rel_residual(lhs, rhs)


def factorization(chain, levels, samples):
    """A^[s-1] A^[s-1]dag + E_{s-1} = H^[s], applied to phi^[s]_n."""
    level = levels[-1]
    parent = level.parent
    f = level.phi(checked_ns(level))
    lhs = chain.apply_A(parent, chain.apply_Adag(parent, f))(samples) + parent.E_s * f(samples)
    yield rel_residual(lhs, chain.hamiltonian_apply(level, f)(samples))


def downshift_roundtrip(chain, levels, samples):
    """A^[s-1]dag phi^[s]_n / (E_n - E_{s-1}) gives back the parent's phi_n."""
    level = levels[-1]
    ns = checked_ns(level)
    yield rel_residual(downshift(chain, level, ns)(samples), level.parent.phi(ns)(samples))


def downshift(chain, level, n):
    """The parent's phi_n rebuilt from this level's, A^[s-1]dag phi^[s]_n /
    (E_n - E_{s-1}), with jets when the raised function has them; for a
    range of n, the stacked function of them, each row divided by its own gap."""
    gap = level.downshift_gap(n)
    raised = chain.apply_Adag(level.parent, level.phi(n))

    def jet_fn(x, order):
        return raised.jet(x, order) / per_row(gap, x)

    return AnalyticFn(lambda x: raised(x) / per_row(gap, x),
                      strip_halfwidth=raised.strip_halfwidth,
                      label=f"downshift[{level.s}->{level.s - 1}]phi{n}",
                      jet_fn=jet_fn if raised.jet_fn else None, rows=raised.rows)


def lu_det(matrix):
    """Determinant by partially pivoted LU of a complex matrix, or of each
    matrix of a stack of shape (..., n, n), each pivoted on its own.

    Returns (det, growth): det has the shape of the stack, and growth is the
    largest element growth factor max|U| / max|A| over the stack, a float.
    A matrix with a zero pivot has det 0 and the growth reached before that
    pivot.  Chains are shallow, so conditioning is tracked, not mitigated.
    """
    a = np.array(matrix, dtype=complex)
    shape, n = a.shape[:-2], a.shape[-1]
    if n == 0:
        return np.ones(shape, dtype=complex)[()], 1.0
    a = a.reshape((math.prod(shape), n, n))
    scale0 = np.abs(a).max(axis=(1, 2))
    growth = scale0.copy()
    alive = scale0 != 0.0
    det = np.ones(len(a), dtype=complex)
    for col in range(n):
        # row of each pivot as a float, so that comparing it with a row index
        # takes numpy's float kernels, which a suite already has resident;
        # the int64 ones would add about 0.13 MB of library code to the process
        # (integer pivots with gathered row swaps were 15% faster per call but
        # grew suite-aw's rss_growth_mb by 0.19 MB, 1.77 -> 1.96 MB)
        piv = np.abs(a[:, col:, col]).argmax(axis=1) + float(col)
        for row in range(col + 1, n):
            swap = piv == row
            if swap.any():
                top, low = a[:, col], a[:, row]
                a[:, col], a[:, row] = (np.where(swap[:, None], low, top),
                                        np.where(swap[:, None], top, low))
                det = np.where(swap, -det, det)
        pivot = a[:, col, col]
        alive &= pivot != 0.0
        det *= pivot
        if col + 1 < n:
            # a matrix already done divides by 1, so its arithmetic stays finite
            factors = a[:, col + 1:, col] / np.where(alive, pivot, 1.0)[:, None]
            a[:, col + 1:, col:] -= factors[:, :, None] * a[:, col:col + 1, col:]
            step = np.abs(a[:, col + 1:, col:]).max(axis=(1, 2))
            growth = np.where(alive, np.fmax(growth, step), growth)
    det = np.where(alive, det, 0j)
    ratio = np.divide(growth, scale0, out=np.ones_like(growth), where=scale0 != 0.0)
    return det.reshape(shape)[()], float(ratio.max(initial=1.0))


def wronskian(fs, x, info=False, last=None):
    """Determinant of the derivative tower (row j holds the j-th derivatives,
    from j = 0), one per point of an array x; an empty list gives 1.  Columns
    and `last` as in _det, one jet per function."""
    cols = fs + ([] if last is None else [last])
    n = sum(len(f) for f in fs) + (last is not None)
    jets = [f.jet(x, n - 1) for f in cols]
    return _det([[jet.deriv(j) for jet in jets] for j in range(n)], cols, np.shape(x), last, info)


def casoratian(fs, x, gamma, info=False, last=None):
    """Shifted-argument determinant i^{n(n-1)/2} det f_k(x + i(n+1-2j) gamma/2),
    one per point of an array x; each function is called once per row, on
    that row's shifted points, and makes its columns as in `wronskian`.

    Degenerates to 1 for an empty list and to f(x) for a single function;
    raises StripError naming the first shifted point that leaves a strip.
    """
    cols = fs + ([] if last is None else [last])
    n = sum(len(f) for f in fs) + (last is not None)
    x = np.asarray(x, dtype=complex)
    rows = [[f(x + 0.5j * (n + 1 - 2 * j) * gamma) for f in cols]
            for j in range(1, n + 1)]
    det, growth = _det(rows, cols, x.shape, last, True)
    det = det * 1j ** ((n * (n - 1) // 2) % 4)
    return (det, growth) if info else det


def _det(rows, fs, shape, last, info):
    """lu_det of the matrices whose row j holds rows[j], the values of fs at
    points of this shape: a column per function or per row of a stacked one,
    but a stacked `last` (fs[-1]) gives a matrix and determinant per row."""
    m = np.empty(shape + (0, 0), dtype=complex)
    if rows:
        m = np.moveaxis(np.stack([np.concatenate([np.broadcast_to(v, (len(f),) + shape)
                                                  for v, f in zip(row, fs)]) for row in rows]),
                        (0, 1), (-2, -1))
    if last is not None and last.rows:
        n = len(rows)
        picks = [list(range(n - 1)) + [k] for k in range(n - 1, m.shape[-1])]
        m = np.moveaxis(m[..., picks], -2, 0)
    det, growth = lu_det(m)
    return (det, growth) if info else det


def inner_product(f, g, domain):
    """Integral of conj(f(x)) g(x) over the physical domain (a, b).

    For stacked functions f and g (AnalyticFn.rows) it is the matrix of
    <f_i, g_j> over their rows, from one refinement on shared nodes; each
    function is evaluated once per node array, and only once when g is f.
    """

    def integrand(x):
        fx = np.atleast_2d(f(x))
        gx = fx if g is f else np.atleast_2d(g(x))
        return fx.conj()[:, None, :] * gx[None, :, :]

    value, _err = integrate(integrand, domain)
    return value if f.rows else value[0, 0]
