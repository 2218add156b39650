"""Crum chains of the continuous (differential) families.

Level s removes the ground states phi_0..phi_{s-1}.  By Crum's theorem its
eigenfunctions are the Wronskian ratios W[phi_0..phi_{s-1}, phi_n] /
W[phi_0..phi_{s-1}]; for phi_n = phi_0 P_n(eta) with P_n monic these collapse
to phi_0 (eta')^s P_n^(s)(eta), which the family evaluates (`OqmFamily.phi`,
`w_prime` and `potential` take the level index).  The operators A^[s], A^[s]dag
and H^[s] act on any function with jets and return one (`AnalyticFn`).

Levels and operators have the contract of the difference chains (`dqm`):
levels are analytic.ChainLevel records, whose guards and step both kinds
share, and the five operator identities of IDENTITIES (zero_mode, iso_spectral,
intertwine, factorization, downshift_roundtrip) are the shared ones of
`analytic`, bound to this module as `downshift` is, and check the states
analytic.checked_ns names; the others (riccati, node_count and the Wronskian
formulas) are the differential chain's own.  In a suite run, each Wronskian of
level-0 eigenfunctions (level0_wronskian) is computed once per array.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from . import analytic
from .analytic import (AnalyticFn, ChainLevel, Identity, downshift_roundtrip, factorization,
                       grow_chain, identity_residual, intertwine, iso_spectral, rel_residual,
                       sign_changes, wronskian, zero_mode)
from .errors import PoleError
from .jets import Jet

NODE_GRID = 2001


class OqmChainLevel(ChainLevel):
    """Level s of the differential chain (analytic.ChainLevel); its
    evaluators take the level index into the family's closed forms."""

    SCAN_POINTS = NODE_GRID

    def phi(self, n):
        self.check_n(n)
        return self.family.phi(n, self.s)

    def w_prime(self):
        return self.family.w_prime(self.s)

    def potential(self):
        """Deformed potential U^[s]; the level Hamiltonian is -d^2 + U^[s] + E_s."""
        return self.family.potential(self.s)


def apply_A(level, f):
    """Lowering factor of this level applied to f: f' - W_s' f."""
    return _first_order(level, f, 1.0, "A")


def apply_Adag(level, f):
    """Raising factor of this level applied to f: -f' - W_s' f."""
    return _first_order(level, f, -1.0, "Adag")


def _first_order(level, f, sign, name):
    """sign f' - W_s' f: the lowering factor for sign 1, the raising one for -1."""
    w = level.w_prime()

    def jet_fn(x, order):
        jf = f.jet(x, order + 1)
        return sign * jf.derivative() - w.jet(x, order) * jf.truncate(order)

    return AnalyticFn(strip_halfwidth=f.strip_halfwidth, label=f"{name}[{level.s}]({f.label})",
                      jet_fn=jet_fn, rows=f.rows)


def hamiltonian_apply(level, f):
    """The level Hamiltonian applied to f: (-d^2/dx^2 + U_s + E_s) f."""
    u = level.potential()
    e_s = level.E_s

    def jet_fn(x, order):
        jf = f.jet(x, order + 2)
        return -jf.derivative().derivative() + (u.jet(x, order) + e_s) * jf.truncate(order)

    return AnalyticFn(strip_halfwidth=f.strip_halfwidth, label=f"H[{level.s}]({f.label})",
                      jet_fn=jet_fn, rows=f.rows)


def level0(family, nmax=None):
    return OqmChainLevel.level0(family, nmax)


def node_count(fn, interval):
    """Sign changes of a real function on NODE_GRID uniform points (analytic.sign_changes),
    or the list of them for each row of a stacked one, from one evaluation."""
    return sign_changes(fn(np.linspace(interval[0], interval[1], NODE_GRID)))


def step_chain(level):
    """Level s+1 over level s; refuses if its seed phi^[s+1]_{s+1} has a node."""
    return level.step()


def build_chain(family, depth, nmax=None):
    return grow_chain(level0(family, nmax), step_chain, depth)


def level0_wronskian(fam, s, n, x):
    """W[phi_0..phi_{s-1}] of level-0 eigenfunctions (one stacked column
    function), with phi_n appended for n not None (the rows of a range of n),
    at x or at each point of an array x; in a run, computed once per array
    (analytic.run_cached)."""
    return analytic.run_cached(_level0_wronskian, fam, s, n, x)


def _level0_wronskian(fam, s, n, x):
    fs = [fam.phi(range(s))] if s else []
    return wronskian(fs, x, last=None if n is None else fam.phi(n))


def phi_via_wronskian(levels, s, n, x):
    """Determinant route to phi^[s]_n at x or at each point of an array x:
    ratio of two Wronskians of level-0 eigenfunctions (level0_wronskian); for
    a range of n, the rows of phi^[s]_n."""
    levels[0].check_n(n)
    fam = levels[0].family
    den = level0_wronskian(fam, s, None, x)
    pole = np.abs(den) < 1e-280
    if pole.any():
        raise PoleError(f"denominator Wronskian vanishes at x={np.ravel(x)[pole.argmax()]}")
    return level0_wronskian(fam, s, n, x) / den


def relation_residual(kind, levels, samples):
    """Worst normalized residual of identity `kind` (a key of IDENTITIES) at
    the deepest level of `levels`, a chain from level 0, over the samples; a
    non-finite sample makes it inf (see analytic.identity_residual)."""
    return identity_residual(IDENTITIES, kind, levels, samples)


def _res_riccati(levels, samples):
    """W_s'^2 + W_s'' = W_{s-1}'^2 - W_{s-1}'' - (E_s - E_{s-1})."""
    level = levels[-1]
    parent = level.parent
    gap = level.E_s - parent.E_s
    jn = level.w_prime().jet(samples, 1)
    jp = parent.w_prime().jet(samples, 1)
    yield rel_residual(jn.value**2 + jn.deriv(1), jp.value**2 - jp.deriv(1) - gap)


def _res_potential_wronskian(levels, samples):
    """U_s + E_s = U - 2 (log Wronskian[phi_0..phi_{s-1}])''.

    The log-Wronskian form is the full partner potential; the chain stores
    the potential with the level constant E_s split off, hence the shift.
    """
    base = levels[0]
    level = levels[-1]
    s = level.s
    stacked = base.phi(range(s)).jet(samples, s + 1)
    jets = [Jet(samples, [c[k] for c in stacked.coeffs]) for k in range(s)]
    j = _jet_det([[_jet_nth(jets[k], r, 2) for k in range(s)] for r in range(s)], samples, 2)
    w, w1, w2 = j.coeffs[0], j.deriv(1), j.deriv(2)
    lhs = level.potential()(samples) + level.E_s
    rhs = base.family.potential()(samples) - 2.0 * (w2 * w - w1 * w1) / (w * w)
    yield rel_residual(lhs, rhs)


def _jet_nth(jet, j, order):
    """Jet (to given order) of the j-th derivative of the function behind jet."""
    out = jet
    for _ in range(j):
        out = out.derivative()
    return out.truncate(order)


def _jet_det(matrix, x, order):
    """Determinant over the jet ring at each point of the array x, by
    elimination pivoted per point on the value magnitude; the matrices here
    are tiny (<= 5x5).  A point with a zero pivot gets the zero jet."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Jet.const(1.0, x, order)
    dead = np.zeros(x.shape, dtype=bool)
    for col in range(n):
        mags = np.abs([np.broadcast_to(m[r][col].value, x.shape) for r in range(col, n)])
        piv = mags.argmax(axis=0) + float(col)     # a float, as in analytic.lu_det
        for r in range(col + 1, n):
            swap = piv == r
            if swap.any():
                m[col], m[r] = ([_where(swap, b, a) for a, b in zip(m[col], m[r])],
                                [_where(swap, a, b) for a, b in zip(m[col], m[r])])
                det = _where(swap, -det, det)
        dead |= mags.max(axis=0) == 0.0
        det = det * m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return _where(dead, Jet.const(0.0, x, order), det)


def _where(mask, a, b):
    """The jet equal to a where mask holds and to b elsewhere."""
    return Jet(a.anchor, [np.where(mask, ca, cb) for ca, cb in zip(a.coeffs, b.coeffs)])


def _res_wronskian_product(levels, samples):
    """Wronskian of the first s eigenfunctions equals the seed product, and
    appending phi_n appends the lifted eigenfunction."""
    s = len(levels) - 1
    n = levels[s].nmax
    fam = levels[0].family
    prod = 1.0 + 0j
    for k in range(s):
        prod = prod * levels[k].phi(k)(samples)
    # W[phi_0..phi_{s-1}] is wronskian_ratio's denominator, computed once in a run
    yield rel_residual(level0_wronskian(fam, s, None, samples), prod)
    yield rel_residual(level0_wronskian(fam, s, n, samples), prod * levels[s].phi(n)(samples))


def _res_wronskian_ratio(levels, samples):
    s = len(levels) - 1
    ns = range(max(s, levels[s].nmax - 1), levels[s].nmax + 1)
    yield rel_residual(phi_via_wronskian(levels, s, ns, samples),
                       levels[s].phi(ns)(samples))


def _res_node_count(levels, samples):
    """Sign changes of phi^[s]_n on the interior grid against n - s, from
    one evaluation of the stacked phi^[s]_s..phi^[s]_{s+3}."""
    level = levels[-1]
    counts = node_count(level.phi(range(level.s, min(level.s + 4, level.nmax + 1))),
                        level.interior())
    yield [abs(c - k) for k, c in enumerate(counts)]


# the suite checks these at every level from first_level up, in this order;
# the operator identities and downshift are analytic's, bound to this
# module's operators
_CHAIN = sys.modules[__name__]
downshift = partial(analytic.downshift, _CHAIN)
IDENTITIES = {
    "zero_mode": Identity(partial(zero_mode, _CHAIN)),
    "iso_spectral": Identity(partial(iso_spectral, _CHAIN)),
    "node_count": Identity(_res_node_count, sampled=False),
    "intertwine": Identity(partial(intertwine, _CHAIN), first_level=1),
    "riccati": Identity(_res_riccati, first_level=1),
    "factorization": Identity(partial(factorization, _CHAIN), first_level=1),
    "potential_wronskian": Identity(_res_potential_wronskian, first_level=1),
    "wronskian_product": Identity(_res_wronskian_product, first_level=1),
    "wronskian_ratio": Identity(_res_wronskian_ratio, first_level=1),
    "downshift_roundtrip": Identity(partial(downshift_roundtrip, _CHAIN), first_level=1),
}
