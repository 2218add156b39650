"""Iterated factorization chains for the continuous (differential) families.

Level 0 wraps a solvable family.  Each step removes the current ground state:
the new eigenfunctions are A applied to the old ones, the new pre-potential
derivative is the log-derivative of the new seed function, and the new
potential follows from the factorization.  The seed is never materialized as
a logarithm; operators use phi'/phi directly, which is smooth wherever the
seed is node-free.
"""

from __future__ import annotations

import numpy as np

from .analytic import AnalyticFn, Identity, identity_residual, rel_residual, wronskian
from .errors import ChainBreakError, DomainError, PoleError
from .jets import Jet

NODE_GRID = 2001


class OqmChainLevel:
    """One rung of the chain: operators and eigenfunctions for index s."""

    def __init__(self, family, s, e_s, phi_map, w_prime, parent=None):
        self.family = family
        self.s = s
        self.E_s = e_s
        self._phi = phi_map          # n -> AnalyticFn (jets available)
        self.w_prime = w_prime       # AnalyticFn with jets
        self.parent = parent
        self._u = None

    def phi(self, n):
        if n < self.s:
            raise DomainError(f"level {self.s} provides phi_n only for n >= {self.s}")
        if n not in self._phi:
            raise DomainError(f"phi_{n} not built (nmax exceeded)")
        return self._phi[n]

    def potential(self):
        """Deformed potential, in the log-free form phi_s''/phi_s."""
        if self._u is not None:
            return self._u
        if self.s == 0:
            self._u = self.family.potential()
            return self._u
        seed = self.phi(self.s)

        def jet_fn(x, order):
            j = seed.jet(x, order + 2)
            return (j.derivative().derivative() / j.truncate(order)).truncate(order)

        self._u = AnalyticFn(lambda x: jet_fn(x, 0).value,
                             label=f"U[{self.s}]", is_real=True, jet_fn=jet_fn)
        return self._u

    def interior(self, fraction=0.9):
        return self.family.interior(fraction)


def _memoized_jet(jet_fn):
    cache = {}

    def wrapped(x, order):
        if isinstance(x, np.ndarray):
            return jet_fn(x, order)
        key = complex(x)
        hit = cache.get(key)
        if hit is None or hit.order < order:
            hit = jet_fn(x, max(order, 4))
            cache[key] = hit
        return hit.truncate(order)

    return wrapped


def apply_A(level, f):
    """Lowering factor of this level applied to f: f' - W_s' f."""
    w = level.w_prime

    def jet_fn(x, order):
        jf = f.jet(x, order + 1)
        jw = w.jet(x, order)
        return jf.derivative() - jw * jf.truncate(order)

    jet_fn = _memoized_jet(jet_fn)
    return AnalyticFn(lambda x: jet_fn(x, 0).value,
                      strip_halfwidth=f.strip_halfwidth,
                      label=f"A[{level.s}]({f.label})", is_real=f.is_real and w.is_real,
                      jet_fn=jet_fn)


def apply_Adag(level, f):
    """Raising factor of this level applied to f: -f' - W_s' f."""
    w = level.w_prime

    def jet_fn(x, order):
        jf = f.jet(x, order + 1)
        jw = w.jet(x, order)
        return -jf.derivative() - jw * jf.truncate(order)

    jet_fn = _memoized_jet(jet_fn)
    return AnalyticFn(lambda x: jet_fn(x, 0).value,
                      strip_halfwidth=f.strip_halfwidth,
                      label=f"Adag[{level.s}]({f.label})", is_real=f.is_real and w.is_real,
                      jet_fn=jet_fn)


def hamiltonian_apply(level, f, x):
    """(-d^2/dx^2 + U_s + E_s) f at x."""
    jf = f.jet(x, 2)
    u = level.potential()(x)
    return -jf.deriv(2) + (u + level.E_s) * jf.value


def level0(family, nmax=8):
    phi_map = {n: family.phi(n) for n in range(nmax + 1)}
    return OqmChainLevel(family, 0, family.energy(0), phi_map, family.w_prime())


def node_count(fn, interval, npoints=NODE_GRID):
    """Sign changes of a real function on a uniform grid.

    Grid points landing exactly on a zero are dropped before counting, so a
    node sitting on a sample still counts once.
    """
    xs = np.linspace(interval[0], interval[1], npoints)
    vals = np.real(fn.jet(xs, 0).value) if fn.jet_fn else np.real([fn(complex(x)) for x in xs])
    signs = [s for s in np.sign(vals) if s != 0]
    return sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)


def step_chain(level):
    """Build level s+1 from level s; refuses if the new seed has a node."""
    s_new = level.s + 1
    ns = sorted(n for n in level._phi if n >= s_new)
    if not ns:
        raise ChainBreakError(f"no eigenfunctions left to lift to level {s_new}")
    phi_map = {n: apply_A(level, level.phi(n)) for n in ns}
    seed = phi_map[s_new]
    lo, hi = level.interior()
    if node_count(seed, (lo, hi)) != 0:
        raise ChainBreakError(
            f"phi[{s_new}]_{s_new} changes sign inside the domain; "
            "the chain assumption (node-free seed) is violated")

    def w_prime_jet(x, order):
        j = seed.jet(x, order + 1)
        return (j.derivative() / j.truncate(order)).truncate(order)

    w_prime_jet = _memoized_jet(w_prime_jet)
    w_prime = AnalyticFn(lambda x: w_prime_jet(x, 0).value,
                         label=f"W[{s_new}]'", is_real=True, jet_fn=w_prime_jet)
    return OqmChainLevel(level.family, s_new, level.family.energy(s_new),
                         phi_map, w_prime, parent=level)


DEPTH_CAP = 4


def build_chain(family, depth, nmax=8):
    if depth > DEPTH_CAP:
        from .errors import CapabilityError
        raise CapabilityError(
            f"chain depth {depth} exceeds the double-precision cap {DEPTH_CAP}; "
            "deeper chains need a wider-mantissa backend")
    levels = [level0(family, nmax=nmax)]
    for _ in range(depth):
        levels.append(step_chain(levels[-1]))
    return levels


def downshift(level, n):
    """Reconstruct the parent's phi_n from this level's: Adag/(E_n - E_{s-1})."""
    if level.parent is None:
        raise DomainError("level 0 has no parent to downshift into")
    if n < level.s:
        raise DomainError(f"downshift needs n >= s = {level.s}")
    gap = level.family.energy(n) - level.parent.E_s
    g = apply_Adag(level.parent, level.phi(n))

    def jet_fn(x, order):
        return g.jet(x, order) / gap

    return AnalyticFn(lambda x: jet_fn(x, 0).value,
                      label=f"downshift[{level.s}->{level.s-1}]phi{n}",
                      is_real=True, jet_fn=jet_fn)


def phi_via_wronskian(levels, s, n, x):
    """Determinant route to phi^[s]_n: ratio of two Wronskians of level-0
    eigenfunctions."""
    base = levels[0]
    fs = [base.phi(k) for k in range(s)]
    den = wronskian(fs, x)
    if abs(den) < 1e-280:
        raise PoleError(f"denominator Wronskian vanishes at x={x}")
    num = wronskian(fs + [base.phi(n)], x)
    return num / den


def _hamiltonian_fn(level):
    u = level.potential()
    e_s = level.E_s

    def act(f):
        def jet_fn(x, order):
            jf = f.jet(x, order + 2)
            ju = u.jet(x, order)
            return (-jf.derivative().derivative() + (ju + e_s) * jf.truncate(order)).truncate(order)

        return AnalyticFn(lambda x: jet_fn(x, 0).value, label=f"H[{level.s}]({f.label})",
                          is_real=True, jet_fn=jet_fn)

    return act


def relation_residual(kind, levels, samples):
    """Worst normalized residual of identity `kind` (a key of IDENTITIES) at
    the deepest level of `levels`, a chain from level 0, over the samples; a
    non-finite sample makes it inf (see analytic.identity_residual)."""
    return identity_residual(IDENTITIES, kind, levels, samples)


def _ns(level):
    """Indices n of the eigenfunctions built at this level, ascending."""
    return sorted(n for n in level._phi if n >= level.s)


def _res_intertwine(levels, samples):
    """A^[s-1] H^[s-1] = H^[s] A^[s-1] applied to the two highest
    eigenfunctions built at level s-1."""
    level = levels[-1]
    parent = level.parent
    h_lo = _hamiltonian_fn(parent)
    h_hi = _hamiltonian_fn(level)
    for n in _ns(parent)[-2:]:
        f = parent.phi(n)
        lhs_fn = apply_A(parent, h_lo(f))
        rhs_fn = h_hi(apply_A(parent, f))
        for x in samples:
            yield rel_residual(lhs_fn(x), rhs_fn(x))


def _res_riccati(levels, samples):
    """W_s'^2 + W_s'' = W_{s-1}'^2 - W_{s-1}'' - (E_s - E_{s-1})."""
    level = levels[-1]
    parent = level.parent
    gap = level.E_s - parent.E_s
    for x in samples:
        jn = level.w_prime.jet(x, 1)
        jp = parent.w_prime.jet(x, 1)
        lhs = jn.value**2 + jn.deriv(1)
        rhs = jp.value**2 - jp.deriv(1) - gap
        yield rel_residual(lhs, rhs)


def _res_factorization(levels, samples):
    """A^[s-1] A^[s-1]dag + E_{s-1} agrees with -d2 + U_s + E_s on tests."""
    level = levels[-1]
    parent = level.parent
    for n in _ns(level)[-2:]:
        f = level.phi(n)
        down = apply_Adag(parent, f)
        lifted = apply_A(parent, down)
        for x in samples:
            lhs = lifted(x) + parent.E_s * f(x)
            rhs = hamiltonian_apply(level, f, x)
            yield rel_residual(lhs, rhs)


def _res_potential_wronskian(levels, samples):
    """U_s + E_s = U - 2 (log Wronskian[phi_0..phi_{s-1}])''.

    The log-Wronskian form is the full partner potential; the chain stores
    the potential with the level constant E_s split off, hence the shift.
    """
    base = levels[0]
    u0 = base.family.potential()
    level = levels[-1]
    s = level.s
    fs = [base.phi(k) for k in range(s)]
    u_s = level.potential()

    def wr_jet(x, order):
        jets = [f.jet(x, s - 1 + order) for f in fs]
        m = [[_jet_nth(jets[k], j, order) for k in range(s)] for j in range(s)]
        return _jet_det(m, x, order)

    for x in samples:
        j = wr_jet(x, 2)
        w, w1, w2 = j.coeffs[0], j.deriv(1), j.deriv(2)
        lhs = u_s(x) + level.E_s
        rhs = u0(x) - 2.0 * (w2 * w - w1 * w1) / (w * w)
        yield rel_residual(lhs, rhs)


def _jet_nth(jet, j, order):
    """Jet (to given order) of the j-th derivative of the function behind jet."""
    out = jet
    for _ in range(j):
        out = out.derivative()
    return out.truncate(order)


def _jet_det(matrix, x, order):
    """Determinant over the jet ring via fraction-free-ish elimination with
    value-magnitude pivoting; matrices here are tiny (<= 5x5)."""
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


def _res_wronskian_product(levels, samples):
    """Wronskian of the first s eigenfunctions equals the seed product, and
    appending phi_n appends the lifted eigenfunction."""
    base = levels[0]
    s = len(levels) - 1
    fs = [base.phi(k) for k in range(s)]
    for x in samples:
        w = wronskian(fs, x)
        prod = 1.0 + 0j
        for k in range(s):
            prod *= levels[k].phi(k)(x)
        yield rel_residual(w, prod)
        for n in _ns(levels[s])[-1:]:
            wn = wronskian(fs + [base.phi(n)], x)
            yield rel_residual(wn, prod * levels[s].phi(n)(x))


def _res_wronskian_ratio(levels, samples):
    s = len(levels) - 1
    for n in _ns(levels[s])[-2:]:
        direct = levels[s].phi(n)
        for x in samples:
            yield rel_residual(phi_via_wronskian(levels, s, n, x), direct(x))


def _res_downshift(levels, samples):
    level = levels[-1]
    for n in _ns(level)[-2:]:
        rebuilt = downshift(level, n)
        target = level.parent.phi(n)
        for x in samples:
            yield rel_residual(rebuilt(x), target(x))


def _res_zero_mode(levels, samples):
    level = levels[-1]
    seed = level.phi(level.s)
    low = apply_A(level, seed)
    for x in samples:
        scale = 1.0 + abs(seed(x))
        yield abs(low(x)) / scale


def _res_iso_spectral(levels, samples):
    level = levels[-1]
    for n in _ns(level)[-3:]:
        f = level.phi(n)
        e_n = level.family.energy(n)
        for x in samples:
            lhs = hamiltonian_apply(level, f, x)
            rhs = e_n * f(x)
            yield abs(lhs - rhs) / ((1.0 + abs(e_n)) * (1.0 + abs(f(x))))


def _res_realness(levels, samples):
    """phi^[s]_n star-equals itself, off the real axis at Im x = 0.15."""
    level = levels[-1]
    for n in _ns(level)[:3]:
        f = level.phi(n)
        for x in samples:
            x = complex(x.real, 0.15)
            yield rel_residual(f(x), complex(f(x.conjugate())).conjugate())


def _res_node_count(levels, samples):
    """Sign changes of phi^[s]_n on the interior grid against n - s."""
    level = levels[-1]
    for n in _ns(level)[:4]:
        yield abs(node_count(level.phi(n), level.interior()) - (n - level.s))


# the suite checks these at every level from first_level up, in this order
IDENTITIES = {
    "zero_mode": Identity(_res_zero_mode),
    "iso_spectral": Identity(_res_iso_spectral),
    "realness": Identity(_res_realness),
    "node_count": Identity(_res_node_count, sampled=False),
    "intertwine": Identity(_res_intertwine, first_level=1),
    "riccati": Identity(_res_riccati, first_level=1),
    "factorization": Identity(_res_factorization, first_level=1),
    "potential_wronskian": Identity(_res_potential_wronskian, first_level=1),
    "wronskian_product": Identity(_res_wronskian_product, first_level=1),
    "wronskian_ratio": Identity(_res_wronskian_ratio, first_level=1),
    "downshift_roundtrip": Identity(_res_downshift, first_level=1),
}
