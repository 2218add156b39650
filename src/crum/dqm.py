"""Iterated factorization chains for the difference (imaginary-shift) families.

Every level is evaluated in closed form from level 0, by Crum's theorem in
its Casoratian form.  With eta = cos x, phi_n = phi_0 P_n(eta) (P_n monic),
g = gamma = log q and L(w) = Log(1 - e^{2iw}):

  * the potential is the telescoped eta product of the Vs_product identity,
    whose eta-difference ratios are sine ratios,

        V^[s](x) = V(x - isg/2) sin(x - i(s+1)g/2) sin(x - isg/2)
                   / (sin(x - ig/2) sin x),

    and its square root is exp(1/2 [log V(x - isg/2) - sg + L(x - i(s+1)g/2)
    + L(x - isg/2) - L(x - ig/2) - L(x)]).  L is analytic on 0 < Re w < pi,
    since e^{2iw} lies on [1, inf) only when Re w is a multiple of pi, so the
    branch is fixed by analyticity, as the ground-state log-sum's is: nothing
    is continued and no BranchError can arise;
  * the eigenfunctions are

        phi^[s]_n(x) = prod_{l<s} sqrtV^[l](x + i(s-l)g/2)
                       C[phi_0..phi_{s-1}, phi_n](x) / C[phi_0..phi_{s-1}](x - ig/2)

    with C the Casoratian (analytic.casoratian).  Row j of the numerator
    evaluates every function at x_j = x + i(s+2-2j)g/2, and the rows of the
    denominator are x_2 .. x_{s+1}.  phi_0(x_j) factors out of each row and
    what is left is a Vandermonde in eta_j = eta(x_j) times the divided
    difference P_n[eta_1, ..., eta_{s+1}], so that

        phi^[s]_n(x) = i^s prod_{l<s} sqrtV^[l](x + i(s-l)g/2) phi_0(x_1)
                       prod_{m=1}^{s} 2i sinh(mg/2) sin(x + i(s-m)g/2)
                       P_n[eta_1, ..., eta_{s+1}],

    the divided difference from analytic.divided_difference on the rows
    eta_j; at s = 0 it is phi_0 P_n(cos x), the family's phi_n.

The prefactor's log telescopes over the levels:

    sum_{l<s} log V^[l](x + i(s-l)g/2) = sum_{l<s} log V(x + i(s-2l)g/2)
        - s(s-1)g/2 + sum_{k=1}^{s-1} [L(x - ikg/2) - L(x + ikg/2)].

So a level evaluates an array of points on the lattice rows x + ikg/2,
|k| <= s, with one call per function and not one per level: the ground-state
log-sum on row s, log V on rows s, s-2, ..., 2-s, L on rows +-1 .. +-(s-1),
the Vandermonde sines on rows 0 .. s-1 and eta on rows s, s-2, ..., -s;
log V^[s] takes its four L rows in one call too.  A level keeps nothing
between calls, and takes a point or an array of points; in a suite run,
phi^[s]_n, log V^[s] and the Casoratians of level-0 eigenfunctions
(level0_casoratian) are computed once per array (analytic.run_cached).

The chain has the contract of the differential one (`oqm`): its levels are
analytic.ChainLevel records, whose guards and step both kinds share;
build_chain(family, depth, nmax) gives levels 0..depth with eigenfunctions
up to nmax, and phi(n, x) is checked against the strip; apply_A, apply_Adag
and hamiltonian_apply(level, f) return AnalyticFns on f's strip less their
largest shift (|g|/2, |g| for H), as downshift(level, n) does; and the
identities of IDENTITIES check the deepest level of a chain through
analytic.identity_residual.  Five of them (zero_mode, iso_spectral,
intertwine, factorization, downshift_roundtrip) and downshift are the shared
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

from . import analytic
from .analytic import (AnalyticFn, ChainLevel, Identity, casoratian, checked_ns,
                       divided_difference, downshift_roundtrip, factorization, grow_chain,
                       identity_residual, intertwine, iso_spectral, rel_residual, zero_mode)
from .errors import BranchError, PoleError

NODE_SCAN_POINTS = 301
_BRANCH_MAX_SEGMENTS = 512
_BRANCH_PHASE_CAP = math.pi / 2


class BranchedSqrt:
    """Analytic square root of a computed function, fixed on an anchor line.

    The branch is positive where the radicand is positive on Im x =
    anchor_im and extended by stepwise continuation along the vertical
    segment to the target; a step whose phase jump cannot be brought under
    pi/2 by refinement raises BranchError.

    The chain no longer uses it: this is the reference route of the level-on-
    level construction that the closed form replaced, which the tests rebuild
    as their oracle.
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


def _on_points(fn, x):
    """fn, written for a 1-d complex array (rows lead), at the point x or at
    each point of the array x; a single point takes the same array kernels."""
    xs = np.asarray(x, dtype=complex)
    out = fn(xs.reshape(-1))
    out = out.reshape(out.shape[:-1] + xs.shape)
    return out if out.ndim else out[()]


def _log_sin_factor(w):
    """L(w) = Log(1 - e^{2iw}): log sin w up to the linear term log(i/2) - iw."""
    return np.log(1.0 - np.exp(2j * w))


def _log_v(family, s, x):
    """log V^[s] at each point of the array x, kept in a run's table."""
    return analytic.run_cached(_log_v_values, family, s, None, x)


def _log_v_values(family, s, _n, x):
    """log V^[s] at each point of the array x (module docstring), its four
    sine factors from one call; log V has no states (_n)."""
    h = 0.5j * family.gamma
    out = family.log_v(x - s * h)
    if s:
        log_sin = _log_sin_factor(x - np.array([s + 1, s, 1, 0])[:, None] * h)
        out = out - s * family.gamma + log_sin[0] + log_sin[1] - log_sin[2] - log_sin[3]
    return out


def _phi_values(fam, s, n, x):
    """phi^[s]_n, or the rows of a range of n, at the 1-d array x (module docstring)."""
    g = fam.gamma
    rows = x + np.arange(s, -s - 1, -1)[:, None] * (0.5j * g)    # row i: x + (s-i)ig/2
    log_pref = fam.log_phi0sq(rows[0])
    vand = 1j ** s
    if s:
        log_pref = (log_pref + fam.log_v(rows[:2 * s:2]).sum(axis=0)
                    - 0.5 * s * (s - 1) * g)
        if s > 1:
            log_sin = _log_sin_factor(np.concatenate((rows[1:s], rows[s + 1:2 * s])))
            log_pref = log_pref + log_sin[s - 1:].sum(axis=0) - log_sin[:s - 1].sum(axis=0)
        vand = (vand * math.prod(2j * math.sinh(0.5 * m * g) for m in range(1, s + 1))
                * np.prod(np.sin(rows[1:s + 1]), axis=0))
    return (np.exp(0.5 * log_pref) * vand
            * divided_difference(fam._recurrence, n, np.cos(rows[::2]))[0])


class DqmChainLevel(ChainLevel):
    """Level s of the difference chain (analytic.ChainLevel).  Every
    evaluator is closed form (module docstring) and takes a point or an
    array of points."""

    SCAN_POINTS = NODE_SCAN_POINTS

    def phi(self, n, x=None):
        """phi^[s]_n as an AnalyticFn, or its value at x (a point, an array
        or a list of points), checked against the strip; for a range of n,
        the stacked function of them (AnalyticFn.rows)."""
        self.check_n(n)
        f = self.closed_form(n)
        return f if x is None else f(x)

    def closed_form(self, n):
        """phi^[s]_n, n unchecked: the prefactor and eta rows are computed once
        for all rows of a range of n.  At level 0 it is the family's phi_n."""
        return AnalyticFn(functools.partial(_on_points, functools.partial(self._phi_at, n)),
                          strip_halfwidth=self.family.strip_halfwidth,
                          label=f"phi[{self.s}]_{n}", rows=len(n) if isinstance(n, range) else 0)

    def _phi_at(self, n, x):
        return analytic.run_cached(_phi_values, self.family, self.s, n, x)

    def sqrt_v(self, x):
        return _on_points(lambda xs: np.exp(0.5 * _log_v(self.family, self.s, xs)), x)

    def sqrt_v_star(self, x):
        return np.conj(self.sqrt_v(np.conj(x)))

    def v(self, x):
        return _on_points(lambda xs: np.exp(_log_v(self.family, self.s, xs)), x)

    def v_star(self, x):
        return np.conj(self.v(np.conj(x)))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def apply_A(level, f):
    """Lowering factor: i (sqrtV*(x-ig/2) f(x-ig/2) - sqrtV(x+ig/2) f(x+ig/2))."""
    return _first_order(level, f, 1j, level.sqrt_v_star, level.sqrt_v,
                        0.5j * level.family.gamma, "A")


def apply_Adag(level, f):
    """Raising factor: -i (sqrtV(x) f(x-ig/2) - sqrtV*(x) f(x+ig/2))."""
    return _first_order(level, f, -1j, level.sqrt_v, level.sqrt_v_star, 0.0, "Adag")


def _first_order(level, f, factor, coef_dn, coef_up, at, name):
    """factor (coef_dn(x - at) f(x - ig/2) - coef_up(x + at) f(x + ig/2)): the
    lowering factor takes its coefficients at the shifted points (at = ig/2),
    the raising one at x (at = 0).  x is a point or an array of points."""
    half = 0.5j * level.family.gamma

    def out(x):
        return factor * (coef_dn(x - at) * f(x - half) - coef_up(x + at) * f(x + half))

    return _narrowed(out, f, abs(half), f"{name}[{level.s}]")


def _narrowed(out, f, shift, name):
    """out, which evaluates f up to `shift` off its argument, as an AnalyticFn
    on f's strip less that shift, with f's rows; a plain callable f counts as
    analytic everywhere, with no rows."""
    return AnalyticFn(out, strip_halfwidth=getattr(f, "strip_halfwidth", math.inf) - shift,
                      label=f"{name}({getattr(f, 'label', '')})", rows=getattr(f, "rows", 0))


def hamiltonian_apply(level, f):
    """The level Hamiltonian applied to f: the difference operator plus the
    level constant.

    sqrt(V V*-shifted) coefficients are products of the level's square
    roots, which keeps the factorized and expanded forms identical.
    """
    g = level.family.gamma

    def out(x):
        sv, svs = level.sqrt_v(x), level.sqrt_v_star(x)
        f_x = f(x)
        term_down = sv * level.sqrt_v_star(x - 1j * g) * f(x - 1j * g)
        term_up = svs * level.sqrt_v(x + 1j * g) * f(x + 1j * g)
        diag = (sv ** 2 + svs ** 2) * f_x
        return term_down + term_up - diag + level.E_s * f_x

    return _narrowed(out, f, abs(g), f"H[{level.s}]")


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

def level0(family, nmax=None):
    return DqmChainLevel.level0(family, nmax)


def step_chain(level):
    """Level s+1 over level s.  Nothing is built, since every level is closed
    form; the new seed phi^[s+1]_{s+1} is scanned at NODE_SCAN_POINTS points
    of the physical region."""
    return level.step()


def build_chain(family, depth, nmax=None):
    return grow_chain(level0(family, nmax), step_chain, depth)


# ---------------------------------------------------------------------------
# determinant formulas
# ---------------------------------------------------------------------------

def _sqrt_v_prefactor(levels, s, x, gamma):
    """Product of sqrt V^[l] (x + i (s-l) gamma / 2) over levels l < s, at
    each point of the array x."""
    pref = 1.0 + 0j
    for lvl in range(s):
        pref = pref * levels[lvl].sqrt_v(x + 0.5j * (s - lvl) * gamma)
    return pref


def level0_casoratian(fam, s, n, x):
    """C[phi_0..phi_{s-1}] of level-0 eigenfunctions (one stacked column
    function), with phi_n appended for n not None (the rows of a range of n),
    at each point of the array x; in a run, computed once per array
    (analytic.run_cached)."""
    return analytic.run_cached(_level0_casoratian, fam, s, n, x)


def _level0_casoratian(fam, s, n, x):
    fs = [fam.phi(range(s))] if s else []
    return casoratian(fs, x, fam.gamma, last=None if n is None else fam.phi(n))


def phi_via_casoratian(levels, s, n, x):
    """Determinant route to phi^[s]_n at x or at each point of an array x:
    prefactor times a ratio of shifted determinants of level-0 eigenfunctions
    (level0_casoratian); for a range of n, the rows of phi^[s]_n."""
    fam = levels[0].family
    g = fam.gamma
    x = np.asarray(x, dtype=complex)
    den = level0_casoratian(fam, s, None, x - 0.5j * g)
    pole = np.abs(den) < 1e-280
    if pole.any():
        raise PoleError(f"denominator determinant vanishes at x={x.ravel()[pole.argmax()]}")
    return _sqrt_v_prefactor(levels, s, x, g) * level0_casoratian(fam, s, n, x) / den


def check_function(levels, s, n, x):
    """Eigenfunction normalized by the square-root prefactor (the form whose
    shifted products build the plain determinants), at each point of the
    array x; the rows of them for a range of n."""
    return levels[s].phi(n, x) / _sqrt_v_prefactor(levels, s, x, levels[0].family.gamma)


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
    g = level.family.gamma
    low = samples - 0.5j * g
    lhs = par.v(low) * par.v_star(low)
    rhs = level.v(samples) * level.v_star(samples - 1j * g)
    yield rel_residual(lhs, rhs)


def _res_linear(levels, samples):
    level = levels[-1]
    par = level.parent
    g = level.family.gamma
    gap = level.E_s - par.E_s
    lhs = par.v(samples + 0.5j * g) + par.v_star(samples - 0.5j * g)
    rhs = level.v(samples) + level.v_star(samples) - gap
    yield rel_residual(lhs, rhs)


def _res_step_determinant(levels, samples):
    """One-step 2x2 determinant route to phi^[s]_n."""
    level = levels[-1]
    par = level.parent
    g = level.family.gamma
    s = level.s
    ns = checked_ns(level)
    up, dn = samples + 0.5j * g, samples - 0.5j * g
    seed_up, seed_dn = par.phi(s - 1, up), par.phi(s - 1, dn)
    det = seed_up * par.phi(ns, dn) - par.phi(ns, up) * seed_dn
    lhs = 1j * par.sqrt_v(up) / seed_dn * det
    yield rel_residual(lhs, level.phi(ns, samples))


def _res_check_product(levels, samples):
    """Plain determinant equals the shifted product of check functions."""
    fam = levels[0].family
    g = fam.gamma
    s = len(levels) - 1
    ns = checked_ns(levels[s])
    lhs = level0_casoratian(fam, s, ns, samples)    # casoratian_ratio's numerator
    rhs = check_function(levels, s, ns, samples)
    for k in range(s):
        rhs = rhs * check_function(levels, k, k, samples + 0.5j * (k - s) * g)
    yield rel_residual(lhs, rhs)


def _res_casoratian_ratio(levels, samples):
    s = len(levels) - 1
    ns = checked_ns(levels[s])
    yield rel_residual(levels[s].phi(ns, samples), phi_via_casoratian(levels, s, ns, samples))


def _res_casoratian_jacobi(levels, samples):
    """Two-determinant contraction identity

        C[f, a](x + ig/2) C[f, b](x - ig/2) - C[f, b](x + ig/2) C[f, a](x - ig/2)
            = -i C[f](x) C[f, a, b](x),

    on the level-0 eigenfunctions f = phi_0..phi_{s-1}, a = phi_s, b = phi_{s+1}
    of the deepest level s (level0_casoratian, a and b as one stacked last
    column), and on the generic functions f = 1, x, a = x^2, b = e^{ix}.  The
    generic residual has no level, so a run computes it once and every level
    yields it (analytic.run_cached)."""
    fam = levels[0].family
    g = fam.gamma
    s = len(levels) - 1
    up = level0_casoratian(fam, s, range(s, s + 2), samples + 0.5j * g)
    dn = level0_casoratian(fam, s, range(s, s + 2), samples - 0.5j * g)
    yield _contraction(up, dn, level0_casoratian(fam, s, None, samples),
                       level0_casoratian(fam, s + 2, None, samples))
    yield analytic.run_cached(_generic_jacobi, fam, None, None, samples)


def _contraction(up, dn, head, full):
    """Residual of the contraction identity from its determinants: the stacked
    pairs C[f, a], C[f, b] at x + ig/2 (up) and x - ig/2 (dn), C[f] and C[f, a, b]."""
    return rel_residual(up[0] * dn[1] - up[1] * dn[0], -1j * head * full)


# the generic functions of casoratian_jacobi: 1 and x, then x^2 and e^{ix} stacked
_GENERIC_HEAD = [AnalyticFn(lambda x: 1.0 + 0j, label="1"), AnalyticFn(lambda x: x, label="x")]
_GENERIC_PAIR = AnalyticFn(lambda x: np.stack([x * x, np.exp(1j * x)]), label="x^2, e^{ix}",
                           rows=2)


def _generic_jacobi(fam, _s, _n, x):
    """The contraction identity's residual on the generic functions at the
    array x; of the family it reads gamma only, and it has no level (_s) or
    states (_n)."""
    g = fam.gamma
    return _contraction(casoratian(_GENERIC_HEAD, x + 0.5j * g, g, last=_GENERIC_PAIR),
                        casoratian(_GENERIC_HEAD, x - 0.5j * g, g, last=_GENERIC_PAIR),
                        casoratian(_GENERIC_HEAD, x, g),
                        casoratian(_GENERIC_HEAD + [_GENERIC_PAIR], x, g))


def _res_realness(levels, samples):
    """phi^[s]_n star-equals itself at strip points."""
    ns = checked_ns(levels[-1])
    yield rel_residual(levels[-1].phi(ns, samples), levels[-1].phi(ns, samples.conj()).conj())


# the suite checks these at every level from first_level up, in this order;
# the operator identities and downshift are analytic's, bound to this
# module's operators
_CHAIN = sys.modules[__name__]
downshift = functools.partial(analytic.downshift, _CHAIN)
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
