"""Complex-analytic function values on a strip: star conjugation, derivative
jets, Wronskian and Casoratian determinants, inner products, and the identity
engine both chain kinds share: an `Identity` table per kind, read by
`identity_residual` and reduced fail-closed by `worst_residual`; the five
operator identities both tables hold; and `grow_chain`, which builds a chain
of either kind up to DEPTH_CAP.

Everything here is immutable after construction and safe to evaluate
concurrently; evaluation is pure.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, DomainError, StripError
from .jets import Jet
from .quadrature import QuadratureSpec, integrate

MAX_JET_ORDER = 24
DEPTH_CAP = 4
_CAUCHY_POINTS = 64
# points per order-0 jet of an array call: a jet makes tens of temporaries per
# block, and 4,000-point blocks (64 kB each) left the process about 0.3 MB
# larger after the oracle grids, where 1,024-point blocks leave it unchanged
_ARRAY_BLOCK = 1024


@dataclass(frozen=True)
class AnalyticFn:
    """A complex-analytic function on |Im x| <= strip_halfwidth.

    ``fn`` evaluates the function; ``jet_fn``, when given, produces exact
    truncated Taylor expansions (built-in families wire closed-form
    recurrences here).  Without it, derivatives fall back to Cauchy-circle
    numerical differentiation.
    """

    fn: Callable[[complex], complex]
    strip_halfwidth: float = math.inf
    label: str = ""
    jet_fn: Optional[Callable[[complex, int], Jet]] = None

    def check_strip(self, x):
        """x as complex (a complex array for an array), after checking that
        every point lies in the strip."""
        if isinstance(x, np.ndarray):
            x = x.astype(complex)
            outside = np.abs(x.imag) > self.strip_halfwidth * (1 + 1e-12) + 1e-15
            if outside.any():
                raise StripError(x.flat[np.argmax(outside)], self.strip_halfwidth, self.label)
            return x
        x = complex(x)
        if abs(x.imag) > self.strip_halfwidth * (1 + 1e-12) + 1e-15:
            raise StripError(x, self.strip_halfwidth, self.label)
        return x

    def __call__(self, x):
        """Value at x, or the array of values at an array of points.

        An array goes through order-0 jets, one per block of _ARRAY_BLOCK
        points, when the function has exact jets; otherwise through fn point
        by point, an ArithmeticError at a point giving nan there.  Either way
        a failure shows as a non-finite value, which callers mask or reject.
        """
        x = self.check_strip(x)
        if not isinstance(x, np.ndarray):
            return self.fn(x)
        if self.jet_fn is not None:
            flat = x.ravel()
            blocks = [flat[i:i + _ARRAY_BLOCK] for i in range(0, flat.size, _ARRAY_BLOCK)]
            with np.errstate(all="ignore"):
                values = [np.broadcast_to(self.jet_fn(b, 0).value, b.shape) for b in blocks]
            return np.concatenate(values, dtype=complex).reshape(x.shape)
        return np.array([self._value_or_nan(t) for t in x.ravel().tolist()],
                        dtype=complex).reshape(x.shape)

    def _value_or_nan(self, x):
        try:
            return self.fn(x)
        except ArithmeticError:
            return math.nan

    def jet(self, x, order):
        """Taylor jet of this function at x, coefficients c_k = f^(k)(x)/k!."""
        if order < 0:
            raise CapabilityError("jet order must be >= 0")
        if order > MAX_JET_ORDER:
            raise CapabilityError(f"jet order {order} beyond cap {MAX_JET_ORDER}")
        x = self.check_strip(x)
        if self.jet_fn is not None:
            return self.jet_fn(x, order)
        return self._cauchy_jet(x, order)

    def _cauchy_jet(self, x, order):
        if order == 0:
            return Jet(x, [self(x)])
        r = 0.1
        if math.isfinite(self.strip_halfwidth):
            r = min(r, self.strip_halfwidth / 2.0, self.strip_halfwidth - abs(complex(x).imag))
        if r <= 0:
            raise StripError(x, self.strip_halfwidth, self.label)
        m = _CAUCHY_POINTS
        vals = np.asarray([self.fn(x + r * cmath.exp(2j * math.pi * k / m)) for k in range(m)])
        coeffs = np.fft.fft(vals) / m
        return Jet(x, [complex(coeffs[k]) / r**k for k in range(order + 1)])


def star_eval(f, x):
    """Value of the star-conjugate of f at x: conj(f(conj x))."""
    x = f.check_strip(x)
    f.check_strip(x.conjugate())
    return complex(f.fn(x.conjugate())).conjugate()


def rel_residual(ref, other):
    """Two-sided difference normalized by the reference value: |ref - other| / (1 + |ref|)."""
    return abs(ref - other) / (1.0 + abs(ref))


def worst_residual(residuals):
    """Largest of the per-sample residuals, 0 when there are none.

    Fails closed: a NaN or infinite sample makes the result inf, so that
    sample can never pass a tolerance (a plain max would drop a NaN).
    """
    worst = 0.0
    for r in residuals:
        if not math.isfinite(r):
            return math.inf
        if r > worst:
            worst = r
    return worst


class Identity(NamedTuple):
    """One entry of a chain kind's identity table."""

    residuals: Callable       # (levels, samples) -> residuals at levels[-1]
    first_level: int = 0      # 1 for a step identity, which relates a level to its parent
    sampled: bool = True      # False when checked on its own grid, not at the samples


def identity_residual(table, name, levels, samples):
    """Worst residual of identity `name` of `table` at the deepest level of
    `levels`, a chain from level 0; a non-finite sample makes it inf.

    Fails closed: an unknown name, a level below the identity's first level
    and an identity that evaluates nothing there raise DomainError.
    """
    entry = table.get(name)
    if entry is None:
        raise DomainError(f"unknown relation kind {name!r}")
    s = len(levels) - 1
    if s < entry.first_level:
        raise DomainError(f"{name} applies from level {entry.first_level}, not at level {s}")
    residuals = iter(entry.residuals(levels, samples))
    first = next(residuals, None)
    if first is None:
        raise DomainError(f"{name} evaluated nothing at level {s}")
    return worst_residual(itertools.chain((first,), residuals))


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
# Written against the contract oqm and dqm share: apply_A, apply_Adag,
# hamiltonian_apply and downshift of the chain module `chain`, looked up when
# called, and a level's phi(n), parent, E_s and family.energy.  Each table
# binds them to its module with functools.partial.
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
    low = chain.apply_A(level, seed)
    for x in samples:
        scale = 1.0 + abs(seed(x))
        yield abs(low(x)) / scale


def iso_spectral(chain, levels, samples):
    """H^[s] phi^[s]_n = E_n phi^[s]_n."""
    level = levels[-1]
    for n in checked_ns(level):
        f = level.phi(n)
        e_n = level.family.energy(n)
        h_f = chain.hamiltonian_apply(level, f)
        for x in samples:
            lhs = h_f(x)
            rhs = e_n * f(x)
            yield abs(lhs - rhs) / ((1.0 + abs(e_n)) * (1.0 + abs(f(x))))


def intertwine(chain, levels, samples):
    """A^[s-1] H^[s-1] = H^[s] A^[s-1], applied to the parent's phi_n."""
    level = levels[-1]
    parent = level.parent
    for n in checked_ns(level):
        f = parent.phi(n)
        lhs_fn = chain.apply_A(parent, chain.hamiltonian_apply(parent, f))
        rhs_fn = chain.hamiltonian_apply(level, chain.apply_A(parent, f))
        for x in samples:
            yield rel_residual(lhs_fn(x), rhs_fn(x))


def factorization(chain, levels, samples):
    """A^[s-1] A^[s-1]dag + E_{s-1} = H^[s], applied to phi^[s]_n."""
    level = levels[-1]
    parent = level.parent
    for n in checked_ns(level):
        f = level.phi(n)
        lifted = chain.apply_A(parent, chain.apply_Adag(parent, f))
        h_f = chain.hamiltonian_apply(level, f)
        for x in samples:
            lhs = lifted(x) + parent.E_s * f(x)
            yield rel_residual(lhs, h_f(x))


def downshift_roundtrip(chain, levels, samples):
    """A^[s-1]dag phi^[s]_n / (E_n - E_{s-1}) gives back the parent's phi_n."""
    level = levels[-1]
    for n in checked_ns(level):
        rebuilt = chain.downshift(level, n)
        target = level.parent.phi(n)
        for x in samples:
            yield rel_residual(rebuilt(x), target(x))


def lu_det(matrix):
    """Determinant by partially pivoted LU on a complex matrix.

    Returns (det, growth) where growth is the element growth factor
    max|U| / max|A|; chains are shallow so conditioning is tracked,
    not mitigated.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j, 1.0
    scale0 = np.max(np.abs(a))
    if scale0 == 0.0:
        return 0j, 1.0
    det = 1.0 + 0j
    growth = scale0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) == 0.0:
            return 0j, growth / scale0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        if col + 1 < n:
            factors = a[col + 1 :, col] / a[col, col]
            a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
            growth = max(growth, np.max(np.abs(a[col + 1 :, col:])))
    return det, growth / scale0


def wronskian(fs, x, info=False):
    """Determinant of the derivative tower (row j holds the (j-1)-th
    derivatives); an empty list gives 1."""
    n = len(fs)
    if n == 0:
        return (1.0 + 0j, 1.0) if info else 1.0 + 0j
    jets = [f.jet(x, n - 1) for f in fs]
    m = [[jets[k].deriv(j) for k in range(n)] for j in range(n)]
    det, growth = lu_det(m)
    return (det, growth) if info else det


def casoratian(fs, x, gamma, info=False):
    """Shifted-argument determinant i^{n(n-1)/2} det f_k(x + i(n+1-2j) gamma/2).

    Degenerates to 1 for an empty list and to f(x) for a single function;
    raises StripError naming the first shifted point that leaves a strip.
    """
    n = len(fs)
    if n == 0:
        return (1.0 + 0j, 1.0) if info else 1.0 + 0j
    x = complex(x)
    rows = []
    for j in range(1, n + 1):
        pt = x + 0.5j * (n + 1 - 2 * j) * gamma
        row = []
        for f in fs:
            f.check_strip(pt)
            row.append(f(pt))
        rows.append(row)
    det, growth = lu_det(rows)
    det *= 1j ** ((n * (n - 1) // 2) % 4)
    return (det, growth) if info else det


def inner_product(f, g, quad: QuadratureSpec):
    """Integral of conj(f(x)) g(x) over the physical domain.

    For lists of functions f and g it is the matrix of <f_i, g_j>, from one
    refinement on shared nodes; each function is evaluated once per node
    array, and only once when g is f.
    """
    vector = isinstance(f, list)
    fs, gs = (f, g) if vector else ([f], [g])

    def integrand(x):
        fx = np.stack([fi(x) for fi in fs])
        gx = fx if g is f else np.stack([gj(x) for gj in gs])
        return fx.conj()[:, None, :] * gx[None, :, :]

    value, _err = integrate(integrand, quad)
    return value if vector else value[0, 0]
