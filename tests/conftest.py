import cmath
import math
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigvalsh_tridiagonal

from crum import AnalyticFn, make_family
from crum.analytic import (checked_ns, divided_difference, rel_residual, sign_changes, star_eval,
                           worst_residual)
from crum import dqm as dqm_mod
from crum import oqm as oqm_mod
from crum import quadrature
from crum import verify as verify_mod
from crum.errors import AccuracyError, ChainBreakError, DomainError, ParameterError, PoleError
from crum.jets import Jet
from crum.families import QPOCH_TAIL, _VLogSum
from crum.structure import SHAPE_POINTS

AW_PARAMS = {"a1": 0.3, "a2": -0.2, "a3": 0.1 + 0.2j, "a4": 0.1 - 0.2j, "q": 0.6}


def from_poly(coeffs, label="", strip_halfwidth=math.inf):
    """AnalyticFn for a polynomial given its coefficients c_0 + c_1 x + ..."""
    cs = [complex(c) for c in coeffs]

    def fn(x):
        acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def jet_fn(x, order):
        jx = Jet.variable(x, order)
        acc = Jet.const(0.0, x, order)
        for c in reversed(cs):
            acc = acc * jx + c
        return acc

    return AnalyticFn(fn, strip_halfwidth=strip_halfwidth, label=label, jet_fn=jet_fn)


def starred(f):
    """The star conjugate of f as a function on f's strip: x -> conj(f(conj x))."""
    return AnalyticFn(lambda x: star_eval(f, x), strip_halfwidth=f.strip_halfwidth)


def factor_log_sum_oracle(q, groups, x):
    """Term-by-term ground-state log-sum: the principal log of every factor
    1 - c e^{imx} q^k of each group (c, m, sign), down to |c q^k| < QPOCH_TAIL,
    at each point of the array x."""
    s = 0j
    for c, m, sign in groups:
        ck = complex(c)
        while abs(ck) >= QPOCH_TAIL:
            s += sign * np.log(1.0 - ck * np.exp(1j * m * x))
            ck *= q
    return s


def per_direction_log_sum(logsum, x):
    """A `families._FactorLogSum` at each point of the complex array x, one
    direction at a time, each direction's q-series tail by its own Horner
    pass: the array rule the one-pass tail over every direction replaced,
    kept as its oracle."""
    z = np.exp(1j * x)
    zi = 1.0 / z
    powers = {1: z, -1: zi, 2: z * z, -2: zi * zi}
    s = np.zeros(x.shape, dtype=complex)
    for m, groups, cmax, series in logsum.directions:
        u = powers[m]
        mags = np.abs(u)
        r = cmax * mags[np.isfinite(mags)].max(initial=0.0)
        while r > 0.25:
            for c, sign in groups:
                log = np.log(1.0 - c * u)
                s += log if sign > 0 else -log
            u = u * logsum.q
            r *= logsum.q
        tail = np.zeros(x.shape, dtype=complex)
        for b in series:
            tail = (tail + b) * u
        s -= tail
    return s


def point_log_sum(logsum, x):
    """A `families._FactorLogSum` at the point x in Python complex arithmetic,
    with the direct-factor count K set by x alone: the scalar rule its array
    rule `at` replaced at single points, kept as its oracle and as the fast
    per-point ground state of the level-on-level difference chain below."""
    q = logsum.q
    z = cmath.exp(1j * x)
    zi = 1.0 / z
    powers = {1: z, -1: zi, 2: z * z, -2: zi * zi}
    s = 0j
    for m, groups, cmax, series in logsum.directions:
        u = powers[m]
        r = cmax * abs(u)
        while r > 0.25:
            for c, sign in groups:
                s += sign * cmath.log(1.0 - c * u)
            u *= q
            r *= q
        tail = 0j
        for b in series:
            tail = (tail + b) * u
        s -= tail
    return s


def qpochhammer_inf(a, q):
    """(a;q)_inf as a truncated product, the ground-state log-sum's
    independent oracle; terms stop once |a q^N| < QPOCH_TAIL."""
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError(f"q-Pochhammer (a;q)_inf requires |q| < 1, got |q|={abs(q):g}")
    a = complex(a)
    result = 1.0 + 0j
    term = a
    # geometric decay: the neglected tail multiplies the result by
    # 1 + O(|a q^N|/(1-|q|)), below double precision at the stop threshold
    while abs(term) >= QPOCH_TAIL:
        result *= 1.0 - term
        term *= q
    return result


def poly_value(family, n, y):
    """A family's monic P_n(y), at a point or at each point of an array: the
    divided difference at the one node y."""
    return divided_difference(family._recurrence, n, np.asarray(y)[None])[0]


def _memoized(f, label):
    """f with its jets kept per point, each computed to order 4 or more."""
    cache = {}

    def jet_fn(x, order):
        if isinstance(x, np.ndarray):
            return f.jet_fn(x, order)
        key = complex(x)
        hit = cache.get(key)
        if hit is None or hit.order < order:
            hit = cache[key] = f.jet_fn(x, max(order, 4))
        return hit.truncate(order)

    return AnalyticFn(lambda x: jet_fn(x, 0).value, label=label, jet_fn=jet_fn)


class RecursiveLevel:
    """Level s of the operator-built chain: phi^[s]_n = A^[s-1] phi^[s-1]_n,
    W'^[s] the log-derivative of the seed phi^[s]_s and U^[s] = phi_s''/phi_s.
    This is the route the closed form of `OqmFamily` replaced, kept as its
    oracle; the nesting makes level s ask level 0 for jets of order s + 2."""

    def __init__(self, family, s, phis, w_prime):
        self.family = family
        self.s = s
        self._phis = phis
        self._w_prime = w_prime

    def phi(self, n):
        return self._phis[n]

    def w_prime(self):
        return self._w_prime

    def potential(self):
        seed = self.phi(self.s)

        def jet_fn(x, order):
            j = seed.jet(x, order + 2)
            return (j.derivative().derivative() / j.truncate(order)).truncate(order)

        return AnalyticFn(lambda x: jet_fn(x, 0).value, jet_fn=jet_fn)


def recursive_chain(family, depth, nmax):
    """Levels 0..depth of the operator-built chain, eigenfunctions up to nmax."""
    levels = [RecursiveLevel(family, 0, {n: family.phi(n) for n in range(nmax + 1)},
                             family.w_prime())]
    for s in range(1, depth + 1):
        parent = levels[-1]
        phis = {n: _memoized(oqm_mod.apply_A(parent, parent.phi(n)), f"phi[{s}]{n}")
                for n in range(s, nmax + 1)}
        seed = phis[s]

        def w_prime_jet(x, order, seed=seed):
            j = seed.jet(x, order + 1)
            return (j.derivative() / j.truncate(order)).truncate(order)

        w_prime = _memoized(AnalyticFn(None, jet_fn=w_prime_jet), f"W[{s}]'")
        levels.append(RecursiveLevel(family, s, phis, w_prime))
    return levels


def jet_ring_poly_jet(family, n, x, order, s):
    """x-jet of P_n^(s)(eta(x)) with P_n's recurrence run in the jet ring, on
    a jet in eta of order s + order: the route `OqmFamily._poly_jet` replaced
    with analytic.divided_difference, kept as its oracle.  Both step
    (eta - b_k) P_k, then the shifted term, then - c_k P_{k-1}."""
    eta = family._eta_jet(x, order)
    y = Jet.variable(eta.value, s + order)
    pm1 = Jet.const(0.0, eta.value, s + order)
    p = Jet.const(1.0, eta.value, s + order)
    for k in range(n):
        bk, ck = family._recurrence(k)
        pm1, p = p, (y - bk) * p - ck * pm1
    for _ in range(s):
        p = p.derivative()
    step = eta - eta.value
    out = Jet.const(p.coeffs[order], x, order)
    for c in reversed(p.coeffs[:order]):
        out = out * step + c
    return out


# -- the per-n evaluators --------------------------------------------------------------
# The evaluators that the stacked rows of `OqmFamily.phi` and
# `DqmChainLevel.phi` replaced, kept as their oracle: one n per call, the
# n-independent part (e^W and eta', the ground-state log-sum and the
# potential logs) recomputed for each.

def per_n_oqm_jet(family, n, s, x, order):
    """x-jet of phi^[s]_n of a differential family at x."""
    out = family._poly_jet(n, x, order, s) * family._w_log_jet(x, order).exp()
    if s:
        d_eta = family._eta_jet(x, order + 1).derivative()
        for _ in range(s):
            out = out * d_eta
    return out


def per_n_dqm_phi(level, n, x):
    """phi^[s]_n of a difference chain level at each point of the array x,
    its prefactor summed level by level: the loop the closed form's stacked
    lattice rows replaced, kept as their oracle."""
    fam, s = level.family, level.s
    xs = np.asarray(x, dtype=complex).reshape(-1)
    h = 0.5j * fam.gamma
    log_pref = fam.log_phi0sq(xs + s * h)
    for lvl in range(s):
        log_pref = log_pref + dqm_mod._log_v(fam, lvl, xs + (s - lvl) * h)
    vand = 1j ** s
    for m in range(1, s + 1):
        vand = vand * (2j * math.sinh(0.5 * m * fam.gamma)) * np.sin(xs + (s - m) * h)
    eta = np.cos(xs + np.arange(s, -s - 1, -2)[:, None] * h)
    out = np.exp(0.5 * log_pref) * vand * divided_difference(fam._recurrence, n, eta)[0]
    return out.reshape(np.shape(x))


# -- the level-on-level difference chain ------------------------------------------
# The route the closed form of `dqm.DqmChainLevel` replaced, kept as its
# oracle: level s+1 lifts level s's eigenfunctions with the lowering factor,
# and its potential's square root is g_s(x) chi_s(x-ig)/chi_s(x), where
# chi_s = sqrt(phi^[s]_s) is anchored positive on the real axis, g_s =
# sqrt(V^[s-1](x-ig/2) V^[s-1]*(x-ig/2)) positive on Im x = gamma/2, and both
# are continued vertically by `dqm.BranchedSqrt`.  Every function is scalar
# and memoized per point, level 0's ground state through `point_log_sum`; an
# array is evaluated point by point.

def _per_point(fn, x):
    """fn at the point x, or at each point of the array x."""
    if isinstance(x, np.ndarray):
        return np.array([fn(complex(t)) for t in x.ravel()], dtype=complex).reshape(x.shape)
    return fn(complex(x))


class RecursiveDqmLevel:
    """Level s of the level-on-level difference chain, with the interface of
    `dqm.DqmChainLevel` (phi, sqrt_v, sqrt_v_star, v, v_star, parent)."""

    def __init__(self, family, s, nmax, sqrt_v, phi_fn, parent=None):
        self.family = family
        self.s = s
        self.E_s = family.energy(s)
        self.nmax = nmax
        self.parent = parent
        self._sqrt_v = sqrt_v            # complex -> complex
        self._phi_fn = phi_fn            # (n, complex) -> complex, memoized

    def phi(self, n, x=None):
        assert self.s <= n <= self.nmax
        f = partial(_per_point, partial(self._phi_fn, n))
        if x is None:
            return AnalyticFn(f, strip_halfwidth=self.family.strip_halfwidth)
        return f(x)

    def sqrt_v(self, x):
        return _per_point(self._sqrt_v, x)

    def sqrt_v_star(self, x):
        return np.conj(self.sqrt_v(np.conj(x)))

    def v(self, x):
        return self.sqrt_v(x) ** 2

    def v_star(self, x):
        return self.sqrt_v_star(x) ** 2


def _memo(fn):
    cache = {}

    def out(*args):
        hit = cache.get(args)
        if hit is None:
            hit = cache[args] = fn(*args)
        return hit

    return out


def _recursive_dqm_step(level):
    s_new = level.s + 1
    g = level.family.gamma
    lift = _memo(dqm_mod.apply_A(level, lambda x: level._phi_fn(s_new, x)))
    lo, hi = level.family.interior()
    vals = np.asarray([lift(complex(t)).real for t in np.linspace(lo, hi, dqm_mod.NODE_SCAN_POINTS)])
    if sign_changes(vals):
        raise ChainBreakError(f"phi[{s_new}]_{s_new} changes sign on the physical region")
    sigma = 1.0 if vals[len(vals) // 2] > 0 else -1.0
    chi = dqm_mod.BranchedSqrt(lambda x: sigma * lift(x), anchor_im=0.0)
    g_anchor = dqm_mod.BranchedSqrt(
        lambda x: level.sqrt_v(x - 0.5j * g) * level.sqrt_v_star(x - 0.5j * g), anchor_im=0.5 * g)

    def sqrt_v(x):
        return g_anchor(x) * chi(x - 1j * g) / chi(x)

    def phi_fn(n, x):
        return dqm_mod.apply_A(level, lambda xx: level._phi_fn(n, xx))(x)

    return RecursiveDqmLevel(level.family, s_new, level.nmax, sqrt_v, _memo(phi_fn), parent=level)


def recursive_dqm_chain(family, depth, nmax):
    """Levels 0..depth of the level-on-level difference chain, eigenfunctions
    up to nmax."""
    log_phi0sq = _memo(lambda x: point_log_sum(family._logphi0sq, x))
    sqrt_v0 = lambda x: complex(np.exp(0.5 * family.log_v(x)))

    def phi0(n, x):
        return cmath.exp(0.5 * log_phi0sq(x)) * complex(poly_value(family, n, cmath.cos(x)))

    levels = [RecursiveDqmLevel(family, 0, nmax, sqrt_v0, _memo(phi0))]
    for _ in range(depth):
        levels.append(_recursive_dqm_step(levels[-1]))
    return levels


# -- the coordinate relations one point at a time ---------------------------------
# The per-point generators that structure's array relations replaced, kept as
# their oracle; each yields one residual per point of a list of samples.

def _affine_residuals(ratios, etas):
    m = np.stack([np.ones(len(etas)), np.asarray(etas)], axis=1)
    (a, b), *_ = np.linalg.lstsq(m, np.asarray(ratios), rcond=None)
    for r, e in zip(ratios, etas):
        yield rel_residual(r, a + b * e)


def _eta_affine_points(levels, samples):
    family = levels[0].family
    eta = family.eta().fn
    num, den = family.phi(1).fn, family.phi(0).fn
    yield from _affine_residuals([num(x) / den(x) for x in samples], [eta(x) for x in samples])


def _eta_level_points(levels, samples):
    family = levels[0].family
    g = family.gamma
    eta = family.eta().fn
    s = len(levels) - 1
    level = levels[s]
    ratios = [level.phi(s + 1, x) / level.phi(s, x) for x in samples]
    etas = [sum(eta(x + 0.5j * (2 * k - s) * g) for k in range(s + 1)) for x in samples]
    yield from _affine_residuals(ratios, etas)


def _vs_product_points(levels, samples):
    family = levels[0].family
    g = family.gamma
    eta = family.eta().fn
    s = len(levels) - 1
    for x in samples:
        prod = levels[0].v(x)
        for k in range(s):
            prod *= (eta(x - 1j * g) - eta(x + 1j * k * g)) / (eta(x) - eta(x + 1j * (k + 1) * g))
        yield rel_residual(levels[s].v(x + 0.5j * s * g), prod)


SCALAR_ETA_RELATIONS = {
    "eta_affine": _eta_affine_points,
    "V1_from_eta": lambda levels, samples: _vs_product_points(levels[:2], samples),
    "eta_level": _eta_level_points,
    "Vs_product": _vs_product_points,
}


def _eval_node(fn, xi):
    """Integrand value at one node; None signals arithmetic failure there."""
    try:
        v = complex(fn(float(xi)))
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        return None
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return None
    return v


def scalar_integrate(fn, domain):
    """Adaptive integral of a scalar integrand over domain (a, b), called once
    per node: the per-node route that `quadrature.integrate` replaced, kept as
    its oracle."""
    total = None
    abs_mass = 0.0
    prev = None
    err = math.inf
    unbounded = math.isinf(domain[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(quadrature.MAX_LEVEL + 1):
            x, w = quadrature.nodes_weights(domain, level)
            fx = []
            for xi in x:
                v = _eval_node(fn, xi)
                if v is None:
                    if unbounded and abs(xi) > quadrature.DECAY_RADIUS:
                        v = 0j
                    else:
                        raise AccuracyError(
                            f"integrand not finite at node x={float(xi):g}", best=total)
                fx.append(v)
            warr = np.asarray(w)
            farr = np.asarray(fx)
            contrib = np.sum(warr * farr)
            abs_contrib = float(np.sum(np.abs(warr * farr)))
            total = contrib if level == 0 else total / 2.0 + contrib
            abs_mass = abs_contrib if level == 0 else abs_mass / 2.0 + abs_contrib
            if prev is not None:
                err = abs(total - prev)
                if err <= quadrature.TOLERANCE * (1.0 + abs_mass):
                    return total, err
            prev = total
    raise AccuracyError(f"quadrature did not converge (last change {err:.3e})", best=total)


def scalar_gram(fns, domain):
    """Gram matrix entry by entry, each a scalar integral over the nodes."""
    m = len(fns)
    g = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            fi, fj = fns[i].fn, fns[j].fn
            val, _err = scalar_integrate(
                lambda x: complex(fi(complex(x))).conjugate() * fj(complex(x)), domain)
            g[i, j] = val
            g[j, i] = val.conjugate()
    return g


def fd_grid_eigensolve(u_fn, domain, n_points, k):
    """Lowest k eigenvalues of -d^2/dx^2 + U with Dirichlet walls, by
    three-point finite differences on n_points interior nodes, Richardson
    extrapolated against the doubled grid (the h^2 error term cancels): the
    route `verify.grid_eigensolve` replaced, kept as its oracle.  u_fn maps
    the array of grid points to the real values of U there."""

    def eigs(npts):
        x = np.linspace(domain[0], domain[1], npts + 2)[1:-1]
        h = x[1] - x[0]
        diag = 2.0 / h**2 + np.asarray(u_fn(x), dtype=float)
        off = -np.ones(npts - 1) / h**2
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))

    return (4.0 * eigs(2 * n_points) - eigs(n_points)) / 3.0


def banded_grid_eigensolve(u_fn, domain, k):
    """Lowest k eigenvalues of -d^2/dx^2 + U with Dirichlet walls, by the
    spectral elements of `verify.grid_eigensolve` (its nodes, layers and
    lumped mass) assembled as the lower band of the matrix and solved by
    LAPACK's banded eigensolver: the route the dense solve replaced, kept as
    its oracle.  u_fn maps an array of points to the real values of U there."""
    lo, hi = domain
    p = verify_mod._GLL_ORDER
    ref, weights, stiff = verify_mod._gll()
    edges = verify_mod._element_edges(u_fn, lo, hi)
    widths = np.diff(edges)
    n = p * widths.size + 1
    node = p * np.arange(widths.size)[:, None] + np.arange(p + 1)   # (element, local) -> global
    mass = np.bincount(node.ravel(), (0.5 * widths[:, None] * weights).ravel(), n)
    # the lower band of M^-1/2 K M^-1/2: entry (row, col) at band[row - col, col]
    lower = np.tril_indices(p + 1)
    row, col = node[:, lower[0]], node[:, lower[1]]
    entries = (2.0 / widths[:, None]) * stiff[lower] / np.sqrt(mass[row] * mass[col])
    band = np.bincount(((row - col) * n + col).ravel(), entries.ravel(), (p + 1) * n).reshape(p + 1, n)
    inner = (edges[:-1, None] + 0.5 * widths[:, None] * (ref + 1.0))[:, :-1].ravel()[1:]
    band[0, 1:-1] += np.asarray(u_fn(inner), dtype=float)
    # the ends' columns drop out; LAPACK reads no band entry past the last row
    return eig_banded(band[:, 1:-1], lower=True, eigvals_only=True, select="i",
                      select_range=(0, k - 1))


def energy_fit(family, ns, xs):
    """Least-squares eigenvalues of the family's phi_n, n in the range ns,
    from the level-0 difference equation at the points xs.  The states go
    through the Hamiltonian as one stacked function, so each shifted point
    array costs one ground-state log-sum: the phi-form fit that the
    polynomial-gauge fit (`DqmFamily.oracle_levels`) replaced, kept as its
    oracle."""
    xs = np.asarray(xs, dtype=complex)
    states = family.phi(ns).fn
    pv = states(xs)
    num = np.sum(dqm_mod.hamiltonian_apply(dqm_mod.level0(family), states)(xs) * pv.conj(), axis=1)
    return (num / np.sum(np.abs(pv) ** 2, axis=1)).real.tolist()


def scalar_lu_det(matrix):
    """Determinant and LU growth of one matrix, pivoted row by row: the
    per-matrix route the stacked `analytic.lu_det` replaced, kept as its oracle."""
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


def scalar_wronskian(fs, x):
    """Wronskian at one point through scalar jets and `scalar_lu_det`."""
    n = len(fs)
    if n == 0:
        return 1.0 + 0j
    jets = [f.jet(x, n - 1) for f in fs]
    return scalar_lu_det([[jets[k].deriv(j) for k in range(n)] for j in range(n)])[0]


def list_node_count(fn, interval, npoints=oqm_mod.NODE_GRID):
    """Sign changes of fn on the grid, counted over a Python list: the route
    the numpy count of `oqm.node_count` replaced, kept as its oracle."""
    vals = np.real(fn(np.linspace(interval[0], interval[1], npoints)))
    signs = [s for s in np.sign(vals) if s != 0]
    return sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)


# -- the sampled identities one scalar jet per point ----------------------------------
# The generators the identities of `analytic` and `oqm` replaced when they took
# the whole sample array at once, kept as their oracle: each yields one
# residual per point of a list of samples.

def _zero_mode(chain, levels, samples):
    level = levels[-1]
    parent = level.parent
    seed = level.phi(0) if parent is None else chain.apply_A(parent, parent.phi(level.s))
    low = chain.apply_A(level, seed)
    for x in samples:
        yield abs(low(x)) / (1.0 + abs(seed(x)))


def _iso_spectral(chain, levels, samples):
    level = levels[-1]
    for n in checked_ns(level):
        f = level.phi(n)
        e_n = level.family.energy(n)
        h_f = chain.hamiltonian_apply(level, f)
        for x in samples:
            yield abs(h_f(x) - e_n * f(x)) / ((1.0 + abs(e_n)) * (1.0 + abs(f(x))))


def _intertwine(chain, levels, samples):
    level = levels[-1]
    parent = level.parent
    for n in checked_ns(level):
        f = parent.phi(n)
        lhs_fn = chain.apply_A(parent, chain.hamiltonian_apply(parent, f))
        rhs_fn = chain.hamiltonian_apply(level, chain.apply_A(parent, f))
        for x in samples:
            yield rel_residual(lhs_fn(x), rhs_fn(x))


def _factorization(chain, levels, samples):
    level = levels[-1]
    parent = level.parent
    for n in checked_ns(level):
        f = level.phi(n)
        lifted = chain.apply_A(parent, chain.apply_Adag(parent, f))
        h_f = chain.hamiltonian_apply(level, f)
        for x in samples:
            yield rel_residual(lifted(x) + parent.E_s * f(x), h_f(x))


def _downshift_roundtrip(chain, levels, samples):
    level = levels[-1]
    for n in checked_ns(level):
        rebuilt = chain.downshift(level, n)
        target = level.parent.phi(n)
        for x in samples:
            yield rel_residual(rebuilt(x), target(x))


def _riccati(levels, samples):
    level = levels[-1]
    parent = level.parent
    gap = level.E_s - parent.E_s
    w_new, w_old = level.w_prime(), parent.w_prime()
    for x in samples:
        jn = w_new.jet(x, 1)
        jp = w_old.jet(x, 1)
        yield rel_residual(jn.value**2 + jn.deriv(1), jp.value**2 - jp.deriv(1) - gap)


def _jet_det(matrix, x, order):
    """Determinant over the jet ring at one point, pivoted on the value."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Jet.const(1.0, x, order)
    sign = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col].value))
        if abs(m[piv][col].value) == 0.0:
            return Jet.const(0.0, x, order)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        det = det * m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det * sign


def _potential_wronskian(levels, samples):
    base = levels[0]
    u0 = base.family.potential()
    level = levels[-1]
    s = level.s
    fs = [base.phi(k) for k in range(s)]
    u_s = level.potential()
    for x in samples:
        jets = [f.jet(x, s + 1) for f in fs]
        j = _jet_det([[_nth(jets[k], r) for k in range(s)] for r in range(s)], x, 2)
        w, w1, w2 = j.coeffs[0], j.deriv(1), j.deriv(2)
        yield rel_residual(u_s(x) + level.E_s, u0(x) - 2.0 * (w2 * w - w1 * w1) / (w * w))


def _nth(jet, j):
    """Order-2 jet of the j-th derivative of the function behind jet."""
    for _ in range(j):
        jet = jet.derivative()
    return jet.truncate(2)


def _phi_via_wronskian(levels, s, n, x):
    fs = [levels[0].phi(k) for k in range(s)]
    den = scalar_wronskian(fs, x)
    if abs(den) < 1e-280:
        raise PoleError(f"denominator Wronskian vanishes at x={x}")
    return scalar_wronskian(fs + [levels[0].phi(n)], x) / den


def _wronskian_product(levels, samples):
    base = levels[0]
    s = len(levels) - 1
    fs = [base.phi(k) for k in range(s)]
    for x in samples:
        prod = 1.0 + 0j
        for k in range(s):
            prod *= levels[k].phi(k)(x)
        yield rel_residual(scalar_wronskian(fs, x), prod)
        n = levels[s].nmax
        yield rel_residual(scalar_wronskian(fs + [base.phi(n)], x), prod * levels[s].phi(n)(x))


def _wronskian_ratio(levels, samples):
    s = len(levels) - 1
    for n in range(max(s, levels[s].nmax - 1), levels[s].nmax + 1):
        direct = levels[s].phi(n)
        for x in samples:
            yield rel_residual(_phi_via_wronskian(levels, s, n, x), direct(x))


SCALAR_OQM_IDENTITIES = {
    "zero_mode": partial(_zero_mode, oqm_mod),
    "iso_spectral": partial(_iso_spectral, oqm_mod),
    "intertwine": partial(_intertwine, oqm_mod),
    "riccati": _riccati,
    "factorization": partial(_factorization, oqm_mod),
    "potential_wronskian": _potential_wronskian,
    "wronskian_product": _wronskian_product,
    "wronskian_ratio": _wronskian_ratio,
    "downshift_roundtrip": partial(_downshift_roundtrip, oqm_mod),
}


def scalar_identity_residual(name, levels, samples):
    """Worst residual of sampled oQM identity `name` at the deepest level of
    `levels`, one scalar evaluation per sample point."""
    return worst_residual(SCALAR_OQM_IDENTITIES[name](levels, list(samples)))


def overall_slope(table):
    """Median fitted slope of the function sets a limit table flags "ok"."""
    usable = [s for lbl, s in table.slopes.items() if table.flags.get(lbl) == "ok"]
    return float(np.median(usable)) if usable else float("nan")


def worst_over_levels(chain_mod, kind, levels, samples):
    """Worst residual of identity `kind` over every level of `levels` it applies
    to: relation_residual checks only the deepest level of the chain it is given."""
    first = chain_mod.IDENTITIES[kind].first_level
    return max(chain_mod.relation_residual(kind, levels[: s + 1], samples)
               for s in range(first, len(levels)))


# -- the shape-invariance fit: the oracle of each family's declared rule --------

ShapeFit = namedtuple("ShapeFit", "converged kappa params max_residual")


def shape_fit(family, chain):
    """Fit (kappa, lambda') from the level-1 potential, then report the max
    pointwise mismatch of kappa x (potential at the fitted parameters); an
    oQM fit's params carry the fitted first gap as `shift`.  It never reads
    family.shape, so it finds the rule the chain obeys, not the declared one.

    Non-convergence is a verdict (ShapeFit.converged False), not an error.
    """
    if family.kind == "dqm":
        return _shape_fit_dqm(family, chain)
    return _shape_fit_oqm(family, chain)


def _anchor_points(family, count):
    lo, hi = family.interior(0.8)
    return np.linspace(lo, hi, count).astype(complex)


def _shape_fit_dqm(family, chain):
    # trial potentials are evaluated straight from the factor-log form so the
    # optimizer may pass through parameter sets that a family constructor
    # would (rightly) reject
    free_keys = [k for k in ("a1", "a2", "a3", "a4") if k in family.params]
    n_unknowns = 1 + 2 * len(free_keys)
    anchors = _anchor_points(family, max(2 + len(free_keys), (n_unknowns + 1) // 2 + 1))
    lo, hi = family.interior(0.9)
    line = np.linspace(lo, hi, SHAPE_POINTS // 2).astype(complex)
    xs = np.concatenate([line, line + 0.25j * abs(family.gamma)])

    def model(u, pts):
        avals = [complex(u[1 + 2 * j], u[2 + 2 * j]) for j in range(len(free_keys))]
        return u[0] * np.exp(_VLogSum(family.q, avals)(pts))

    starts = []
    for scale in (math.sqrt(family.q), family.q, 1.0):
        u = np.zeros(n_unknowns)
        u[0] = 1.0 / family.q
        for j, k in enumerate(free_keys):
            guess = complex(family.params[k]) * scale
            u[1 + 2 * j], u[2 + 2 * j] = guess.real, guess.imag
        starts.append(u)
    best = _best_fit(starts, chain[1].v, model, anchors, xs)
    if best is None:
        return ShapeFit(False, float("nan"), {}, float("inf"))
    res, u = best
    fitted = dict(family.params)
    for j, k in enumerate(free_keys):
        fitted[k] = complex(u[1 + 2 * j], u[2 + 2 * j])
    return ShapeFit(True, float(u[0]), fitted, res)


def _shape_fit_oqm(family, chain):
    """Derivative-side analog: the full level-1 potential (level constant
    included) equals U(x; p') + shift with shift = the first gap."""
    level1 = chain[1]
    u1 = level1.potential()
    free_keys = sorted(family.params)
    anchors = _anchor_points(family, 3 + len(free_keys))
    lo, hi = family.interior(0.9)
    xs = np.linspace(lo, hi, SHAPE_POINTS).astype(complex)

    def model(u, pts):
        params = {k: u[1 + j] for j, k in enumerate(free_keys)}
        try:
            fam2 = make_family(family.name, validate=False, **params)
        except ParameterError:
            return None
        return fam2.potential()(pts) + u[0]

    starts = []
    for delta in (1.0, 0.0, 2.0):
        u = np.zeros(1 + len(free_keys))
        u[0] = family.energy(1)
        for j, k in enumerate(free_keys):
            u[1 + j] = family.params[k] + delta
        starts.append(u)
    best = _best_fit(starts, lambda pts: u1(pts) + level1.E_s, model, anchors, xs)
    if best is None:
        return ShapeFit(False, float("nan"), {}, float("inf"))
    res, u = best
    fitted = {k: float(u[1 + j]) for j, k in enumerate(free_keys)}
    fitted["shift"] = float(u[0])
    return ShapeFit(True, 1.0, fitted, res)


def _best_fit(starts, target, model, anchors, xs):
    """Shape fit of model(u, points) to target(points), both arrays of
    values at an array of points: Gauss-Newton on the anchors from each
    start, then the global residual, the worst rel_residual of the fitted
    model against the target on xs.  The converged fit with the least
    global residual as (residual, u), or None when no start converges; the
    model returns None at parameters a family refuses."""
    t_anchors, t_xs = target(anchors), target(xs)
    best = None
    for u0 in starts:
        u, ok = _gauss_newton(u0, t_anchors, lambda uv: model(uv, anchors))
        if not ok:
            continue
        res = worst_residual([rel_residual(t_xs, model(u, xs))])
        if best is None or res < best[0]:
            best = (res, u)
    return best


def _gauss_newton(u0, target, model):
    u = np.array(u0, dtype=float)
    t = np.concatenate([target.real, target.imag])

    def resid(uv):
        vals = model(uv)
        if vals is None:
            return None
        return np.concatenate([vals.real, vals.imag]) - t

    r = resid(u)
    if r is None:
        return u, False
    for _ in range(40):
        jac = np.zeros((len(r), len(u)))
        for j in range(len(u)):
            h = 1e-7 * (1.0 + abs(u[j]))
            up = u.copy()
            up[j] += h
            rp = resid(up)
            if rp is None:
                return u, False
            jac[:, j] = (rp - r) / h
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return u, False
        u = u + step
        r_new = resid(u)
        if r_new is None:
            return u, False
        r = r_new
        if np.max(np.abs(step)) < 1e-13 * (1.0 + np.max(np.abs(u))):
            break
    return u, bool(np.max(np.abs(r)) < 1e-6 * (1.0 + np.max(np.abs(t))))


@pytest.fixture(scope="session")
def hermite():
    return make_family("hermite")


@pytest.fixture(scope="session")
def laguerre():
    return make_family("laguerre", g=3.0)


@pytest.fixture(scope="session")
def jacobi():
    return make_family("jacobi", g=2.0)


@pytest.fixture(scope="session")
def q_hermite():
    return make_family("q_hermite", q=0.5)


@pytest.fixture(scope="session")
def askey_wilson():
    return make_family("askey_wilson", **AW_PARAMS)


@pytest.fixture(scope="session")
def hermite_chain(hermite):
    return oqm_mod.build_chain(hermite, 3, nmax=6)


@pytest.fixture(scope="session")
def laguerre_chain(laguerre):
    return oqm_mod.build_chain(laguerre, 3, nmax=6)


@pytest.fixture(scope="session")
def jacobi_chain(jacobi):
    return oqm_mod.build_chain(jacobi, 3, nmax=6)


@pytest.fixture(scope="session")
def q_hermite_chain(q_hermite):
    return dqm_mod.build_chain(q_hermite, 2)


@pytest.fixture(scope="session")
def askey_wilson_chain(askey_wilson):
    return dqm_mod.build_chain(askey_wilson, 2)


@pytest.fixture(scope="session")
def q_hermite_recursive(q_hermite):
    return recursive_dqm_chain(q_hermite, 3, 5)


@pytest.fixture(scope="session")
def askey_wilson_recursive(askey_wilson):
    return recursive_dqm_chain(askey_wilson, 3, 5)
