"""Iterated factorization chains for the difference (imaginary-shift) families.

The deformed potential of each level is assembled from three branch-anchored
square roots:

  * g_s, the square root of V^[s-1](x-ig/2) V^[s-1]*(x-ig/2), anchored
    positive on the line Im x = gamma/2 (where the radicand is |V|^2 of a
    real point) and continued vertically;
  * chi_s, the square root of the (sign-fixed) seed function phi^[s]_s,
    anchored positive on the real axis;
  * their star conjugates, defined by coefficient conjugation.

With sqrtV_s := g_s(x) chi_s(x-ig)/chi_s(x) the level-s lowering factor
annihilates the seed identically and (sqrtV_s)^2 reproduces the deformed
potential, so no per-point phase guessing is ever needed.

The chain has the contract of the differential one (`oqm`): build_chain(family,
depth, nmax) gives levels 0..depth with eigenfunctions up to nmax; apply_A,
apply_Adag, hamiltonian_apply(level, f) and downshift(level, n) return
functions; and the identities of IDENTITIES check the deepest level of a
chain through analytic.identity_residual.  Five of them (zero_mode,
iso_spectral, intertwine, factorization, downshift_roundtrip) are the shared
ones of `analytic`, bound to this module.  Every identity that checks
eigenstates checks those analytic.checked_ns names, except casoratian_jacobi,
which takes n = s+1.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .analytic import (AnalyticFn, Identity, casoratian, checked_ns, downshift_roundtrip,
                       factorization, grow_chain, identity_residual, intertwine,
                       iso_spectral, rel_residual, values_at, zero_mode)
from .errors import BranchError, ChainBreakError, DomainError, PoleError

NODE_SCAN_POINTS = 301
_BRANCH_MAX_SEGMENTS = 512
_BRANCH_PHASE_CAP = math.pi / 2


class BranchedSqrt:
    """Analytic square root of a computed function, fixed on an anchor line.

    The branch is positive where the radicand is positive on Im x =
    anchor_im and extended by stepwise continuation along the vertical
    segment to the target; a step whose phase jump cannot be brought under
    pi/2 by refinement raises BranchError.
    """

    def __init__(self, radicand, anchor_im=0.0, label=""):
        self.radicand = radicand
        self.anchor_im = float(anchor_im)
        self.label = label
        self._memo = {}

    def __call__(self, x):
        x = complex(x)
        hit = self._memo.get(x)
        if hit is not None:
            return hit
        val = self._continue_to(x)
        self._memo[x] = val
        return val

    def _continue_to(self, x):
        if abs(x.imag - self.anchor_im) < 1e-14:
            return cmath.sqrt(self.radicand(x))
        x0 = complex(x.real, self.anchor_im)
        nseg = 4
        while nseg <= _BRANCH_MAX_SEGMENTS:
            pts = [x0 + (x - x0) * k / nseg for k in range(nseg + 1)]
            vals = [self.radicand(p) for p in pts]
            if any(v == 0 for v in vals):
                raise PoleError(f"branch path of {self.label or 'sqrt'} hits a zero near {x}")
            jumps = [abs(cmath.phase(vals[k + 1] / vals[k])) for k in range(nseg)]
            if max(jumps) < _BRANCH_PHASE_CAP:
                w = cmath.sqrt(vals[0])
                for k in range(nseg):
                    w *= cmath.sqrt(vals[k + 1] / vals[k])
                return w
            nseg *= 2
        raise BranchError(
            f"square-root branch of {self.label or 'sqrt'} could not be tracked to {x}")


class DqmChainLevel:
    """Level s of the chain over `family`: eigenfunctions phi^[s]_n for
    s <= n <= nmax, level constant E_s (the family's energy E_s), the anchored
    square roots of its potential and the level it was stepped from."""

    def __init__(self, family, s, e_s, nmax, sqrt_v, sqrt_v_star, phi_fn, parent=None):
        self.family = family
        self.s = s
        self.E_s = e_s
        self.nmax = nmax
        self.gamma = family.gamma
        self.sqrt_v = sqrt_v            # callable complex -> complex
        self.sqrt_v_star = sqrt_v_star
        self._phi_fn = phi_fn           # (n, x) -> complex, memoized
        self.parent = parent

    def phi(self, n, x=None):
        if n < self.s:
            raise DomainError(f"level {self.s} has phi_n only for n >= {self.s}")
        if n > self.nmax:
            raise DomainError(f"phi_{n} not built (nmax exceeded)")
        if x is None:
            lvl = self
            return AnalyticFn(lambda xx: lvl._phi_fn(n, complex(xx)),
                              strip_halfwidth=self.family.strip_halfwidth,
                              label=f"phi[{self.s}]_{n}")
        return self._phi_fn(n, complex(x))

    def v(self, x):
        return self.sqrt_v(complex(x)) ** 2

    def v_star(self, x):
        return self.sqrt_v_star(complex(x)) ** 2

    def interior(self, fraction=0.9):
        return self.family.interior(fraction)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def apply_A(level, f):
    """Lowering factor: i (sqrtV*(x-ig/2) f(x-ig/2) - sqrtV(x+ig/2) f(x+ig/2))."""
    return _first_order(level, f, 1j, level.sqrt_v_star, level.sqrt_v, 0.5j * level.gamma)


def apply_Adag(level, f):
    """Raising factor: -i (sqrtV(x) f(x-ig/2) - sqrtV*(x) f(x+ig/2))."""
    return _first_order(level, f, -1j, level.sqrt_v, level.sqrt_v_star, 0.0)


def _first_order(level, f, factor, coef_dn, coef_up, at):
    """factor (coef_dn(x - at) f(x - ig/2) - coef_up(x + at) f(x + ig/2)): the
    lowering factor takes its coefficients at the shifted points (at = ig/2),
    the raising one at x (at = 0)."""
    half = 0.5j * level.gamma

    def out(x):
        x = complex(x)
        return factor * (coef_dn(x - at) * f(x - half) - coef_up(x + at) * f(x + half))

    return out


def hamiltonian_apply(level, f):
    """The level Hamiltonian applied to f: the difference operator plus the
    level constant.

    sqrt(V V*-shifted) coefficients are products of the level's anchored
    square roots, which keeps the factorized and expanded forms identical.
    """
    g = level.gamma

    def out(x):
        x = complex(x)
        sv, svs = level.sqrt_v(x), level.sqrt_v_star(x)
        term_down = sv * level.sqrt_v_star(x - 1j * g) * f(x - 1j * g)
        term_up = svs * level.sqrt_v(x + 1j * g) * f(x + 1j * g)
        diag = (sv ** 2 + svs ** 2) * f(x)
        return term_down + term_up - diag + level.E_s * f(x)

    return out


def energy_fit(level, n, xs):
    """Least-squares eigenvalue of phi_n from the difference equation at the points xs."""
    f = lambda x: level._phi_fn(n, x)
    h_f = hamiltonian_apply(level, f)
    num = 0j
    den = 0.0
    for x in xs:
        hval = h_f(x)
        pv = f(complex(x))
        num += hval * pv.conjugate()
        den += abs(pv) ** 2
    return float((num / den).real)


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

def level0(family, nmax=None):
    """Level 0: the family itself, eigenfunctions up to nmax (default the
    family's own range)."""
    nmax = family.nmax if nmax is None else nmax
    if nmax > family.nmax:
        raise DomainError(f"n={nmax} outside tabulated range 0..{family.nmax}")
    sqv = family.sqrt_v()
    sqv_fn = sqv.fn

    def sqv_star(x):
        return complex(sqv_fn(complex(x).conjugate())).conjugate()

    phi_n = functools.cache(lambda n: family.phi(n).fn)

    @functools.cache
    def phi_fn(n, x):
        return phi_n(n)(x)

    return DqmChainLevel(family, 0, family.energy(0), nmax, sqv_fn, sqv_star, phi_fn)


def next_potential(level):
    """Anchored square root of the next deformed potential.

    Returns (sqrt_v, sqrt_v_star); refuses when the new seed changes sign on
    the sampled physical region.
    """
    s_new = level.s + 1
    g = level.gamma
    fam = level.family
    lift = apply_A(level, lambda x: level._phi_fn(s_new, x))

    memo = {}

    def psi(x):
        x = complex(x)
        hit = memo.get(x)
        if hit is None:
            hit = lift(x)
            memo[x] = hit
        return hit

    lo, hi = fam.interior()
    xs = np.linspace(lo, hi, NODE_SCAN_POINTS)
    vals = np.asarray([psi(complex(t)).real for t in xs])
    if np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        raise ChainBreakError(
            f"phi[{s_new}]_{s_new} changes sign on the physical region; the deformed "
            "potential would develop singularities")
    sigma = 1.0 if vals[len(vals) // 2] > 0 else -1.0

    chi = BranchedSqrt(lambda x: sigma * psi(x), anchor_im=0.0, label=f"chi[{s_new}]")

    def radicand(x):
        return level.sqrt_v(x - 0.5j * g) * level.sqrt_v_star(x - 0.5j * g)

    g_anchor = BranchedSqrt(radicand, anchor_im=0.5 * g, label=f"g[{s_new}]")

    def sqrt_v(x):
        x = complex(x)
        return g_anchor(x) * chi(x - 1j * g) / chi(x)

    def sqrt_v_star(x):
        return complex(sqrt_v(complex(x).conjugate())).conjugate()

    return sqrt_v, sqrt_v_star


def step_chain(level):
    """Level s+1 over level s; refuses when no eigenfunction is left to lift
    or when its seed changes sign (see next_potential)."""
    s_new = level.s + 1
    if level.nmax < s_new:
        raise ChainBreakError(f"no eigenfunctions left to lift to level {s_new}")
    sqrt_v, sqrt_v_star = next_potential(level)

    @functools.cache
    def phi_fn(n, x):
        return apply_A(level, lambda xx: level._phi_fn(n, xx))(x)

    return DqmChainLevel(level.family, s_new, level.family.energy(s_new), level.nmax,
                         sqrt_v, sqrt_v_star, phi_fn, parent=level)


def build_chain(family, depth, nmax=None):
    return grow_chain(level0(family, nmax), step_chain, depth)


def downshift(level, n):
    """Parent eigenfunction reconstructed as Adag phi / (E_n - E_{s-1})."""
    if level.parent is None:
        raise DomainError("level 0 has no parent")
    if n < level.s:
        raise DomainError(f"downshift needs n >= s = {level.s}")
    gap = level.family.energy(n) - level.parent.E_s
    raise_fn = apply_Adag(level.parent, lambda x: level._phi_fn(n, x))

    def out(x):
        return raise_fn(x) / gap

    return out


# ---------------------------------------------------------------------------
# determinant formulas
# ---------------------------------------------------------------------------

def _sqrt_v_prefactor(levels, s, x, gamma):
    """Product of sqrt V^[l] (x + i (s-l) gamma / 2) over levels l < s, at
    each point of the array x."""
    pref = 1.0 + 0j
    for lvl in range(s):
        pref = pref * values_at(levels[lvl].sqrt_v, x + 0.5j * (s - lvl) * gamma)
    return pref


def phi_via_casoratian(levels, s, n, x):
    """Determinant route to phi^[s]_n at x or at each point of an array x:
    prefactor times a ratio of shifted determinants of level-0 eigenfunctions."""
    base = levels[0]
    fam = base.family
    g = fam.gamma
    x = np.asarray(x, dtype=complex)
    fs = [fam.phi(k) for k in range(s)]
    den = casoratian(fs, x - 0.5j * g, g)
    pole = np.abs(den) < 1e-280
    if pole.any():
        raise PoleError(f"denominator determinant vanishes at x={x.ravel()[pole.argmax()]}")
    num = casoratian(fs + [fam.phi(n)], x, g)
    return _sqrt_v_prefactor(levels, s, x, g) * num / den


def check_function(levels, s, n, x):
    """Eigenfunction normalized by the square-root prefactor (the form whose
    shifted products build the plain determinants), at each point of the
    array x."""
    phi = values_at(functools.partial(levels[s]._phi_fn, n), x)
    return phi / _sqrt_v_prefactor(levels, s, x, levels[0].gamma)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def relation_residual(kind, levels, samples):
    """Worst normalized residual of identity `kind` (a key of IDENTITIES) at
    the deepest level of `levels`, a chain from level 0, over the samples; a
    non-finite sample makes it inf (see analytic.identity_residual)."""
    return identity_residual(IDENTITIES, kind, levels, samples)


def _res_quadratic(levels, samples):
    level = levels[-1]
    par = level.parent
    g = level.gamma
    low = samples - 0.5j * g
    lhs = values_at(par.v, low) * values_at(par.v_star, low)
    rhs = values_at(level.v, samples) * values_at(level.v_star, samples - 1j * g)
    yield rel_residual(lhs, rhs)


def _res_linear(levels, samples):
    level = levels[-1]
    par = level.parent
    g = level.gamma
    gap = level.E_s - par.E_s
    lhs = values_at(par.v, samples + 0.5j * g) + values_at(par.v_star, samples - 0.5j * g)
    rhs = values_at(level.v, samples) + values_at(level.v_star, samples) - gap
    yield rel_residual(lhs, rhs)


def _res_step_determinant(levels, samples):
    """One-step 2x2 determinant route to phi^[s]_n."""
    level = levels[-1]
    par = level.parent
    g = level.gamma
    s = level.s
    up, dn = samples + 0.5j * g, samples - 0.5j * g
    seed = functools.partial(par._phi_fn, s - 1)
    seed_up, seed_dn = values_at(seed, up), values_at(seed, dn)
    sqrt_v_up = values_at(par.sqrt_v, up)
    for n in checked_ns(level):
        phi_n = functools.partial(par._phi_fn, n)
        det = seed_up * values_at(phi_n, dn) - values_at(phi_n, up) * seed_dn
        lhs = 1j * sqrt_v_up / seed_dn * det
        yield rel_residual(lhs, values_at(functools.partial(level._phi_fn, n), samples))


def _res_check_product(levels, samples):
    """Plain determinant equals the shifted product of check functions."""
    fam = levels[0].family
    g = fam.gamma
    s = len(levels) - 1
    for n in checked_ns(levels[s]):
        lhs = casoratian([fam.phi(k) for k in range(s)] + [fam.phi(n)], samples, g)
        rhs = check_function(levels, s, n, samples)
        for k in range(s):
            rhs = rhs * check_function(levels, k, k, samples + 0.5j * (k - s) * g)
        yield rel_residual(lhs, rhs)


def _res_casoratian_ratio(levels, samples):
    s = len(levels) - 1
    for n in checked_ns(levels[s]):
        lhs = phi_via_casoratian(levels, s, n, samples)
        rhs = values_at(functools.partial(levels[s]._phi_fn, n), samples)
        yield rel_residual(rhs, lhs)


def _res_casoratian_jacobi(levels, samples):
    """Two-determinant contraction identity, on the eigenfunction list of the
    deepest level and on generic analytic test functions."""
    fam = levels[0].family
    g = fam.gamma
    s = len(levels) - 1
    n = s + 1
    generic = _generic_fns()
    lists = [([fam.phi(k) for k in range(s)], fam.phi(s), fam.phi(n)),
             (generic[:-2], generic[-2], generic[-1])]
    up, dn = samples + 0.5j * g, samples - 0.5j * g
    for head, f_s, f_n in lists:
        m11, m12 = casoratian(head + [f_s], up, g), casoratian(head + [f_n], up, g)
        m21, m22 = casoratian(head + [f_s], dn, g), casoratian(head + [f_n], dn, g)
        rhs = -1j * casoratian(head, samples, g) * casoratian(head + [f_s, f_n], samples, g)
        yield rel_residual(m11 * m22 - m12 * m21, rhs)


def _generic_fns():
    mk = lambda fn, lbl: AnalyticFn(fn, label=lbl)
    return [mk(lambda x: 1.0 + 0j, "1"), mk(lambda x: x, "x"),
            mk(lambda x: x * x, "x^2"), mk(lambda x: cmath.exp(1j * x), "e^{ix}")]


def _res_realness(levels, samples):
    """phi^[s]_n star-equals itself at strip points."""
    level = levels[-1]
    for n in checked_ns(level):
        phi_n = functools.partial(level._phi_fn, n)
        direct = values_at(phi_n, samples)
        yield rel_residual(direct, values_at(phi_n, samples.conj()).conj())


# the suite checks these at every level from first_level up, in this order;
# the operator identities are analytic's, bound to this module's operators
_CHAIN = sys.modules[__name__]
IDENTITIES = {
    "zero_mode": Identity(functools.partial(zero_mode, _CHAIN)),
    "iso_spectral": Identity(functools.partial(iso_spectral, _CHAIN)),
    "realness": Identity(_res_realness),
    "quadratic": Identity(_res_quadratic, first_level=1),
    "linear": Identity(_res_linear, first_level=1),
    "intertwine": Identity(functools.partial(intertwine, _CHAIN), first_level=1),
    "factorization": Identity(functools.partial(factorization, _CHAIN), first_level=1),
    "step_determinant": Identity(_res_step_determinant, first_level=1),
    "check_product": Identity(_res_check_product, first_level=1),
    "casoratian_ratio": Identity(_res_casoratian_ratio, first_level=1),
    "casoratian_jacobi": Identity(_res_casoratian_jacobi, first_level=1),
    "downshift_roundtrip": Identity(functools.partial(downshift_roundtrip, _CHAIN),
                                    first_level=1),
}
