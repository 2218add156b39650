"""Catalog of exactly solvable models.

Every family is a `Family`, which holds the record both kinds share (name,
params, label, domain, nmax, shape-invariance data) and writes their shared
rules once: the n-range refusal of phi, the energy guard, the squared norms
h_n (by quadrature over the domain), the interior and the descriptor.  A
subclass gives the closed form of phi, the recurrence of the polynomial part,
the energy rule, eta and its own validation.

Continuous families (hermite, laguerre, jacobi) are defined by a pre-potential
W alone: the ground state is e^W, the factor A = d/dx - W' and the potential
are built from W', which is taken as the derivative of W's jet, and the
excited states are e^W times classical orthogonal polynomials.
Difference families (q_hermite, askey_wilson) carry an analytic potential
function V on the interval (0, pi) whose ground state is a balanced product
of q-shifted factorials (one q-series, on arrays); excited states are the
ground state times a monic polynomial in cos x generated by a three-term
recurrence, which both kinds run through analytic.divided_difference.

Every family validates itself at construction time (`validate`): a
continuous family checks that e^W is positive and its closed-form energies
against the grid eigensolve of U; a q-family checks that its ground state is a
zero mode of the lowering factor and its energies against a least-squares fit
to the difference equation in the polynomial gauge, on the real axis.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import partial

import numpy as np

from .analytic import (_ARRAY_BLOCK, AnalyticFn, divided_difference, inner_product, row_range,
                       run_jet)
from .errors import DomainError, ParameterError
from .jets import Jet
from . import dqm as dqm_mod

DEFAULT_NMAX = 32
_VALIDATE_POINTS = 20
_ZERO_MODE_TOL = 1e-10
_BOX_STEPS = 48        # candidate right edges 1.25^k of the oracle box, up to ~3.6e4
# results a dQM family keeps of its ground-state array log-sum, each of at
# most _ARRAY_BLOCK points: the checks evaluate phi_0 over and over on the
# same few shifted sample rows (an Askey-Wilson depth-2 suite asks 521 times
# for 55 distinct arrays)
_LOGSUM_MEMO_ENTRIES = 16


class ShapeData:
    """Shape-invariance bookkeeping: parameter map, scale, first gap rule."""

    def __init__(self, si, kappa, e1):
        self.si = si          # params dict -> params dict
        self.kappa = kappa    # positive scale constant
        self.e1 = e1          # params dict -> first energy gap


class Family:
    """The record and the rules that every solvable family shares.

    A subclass provides `_phi(n, ...)` (phi_n, or the stacked function of a
    range of n, which `phi` returns past its n-range refusal), `_recurrence(k)`
    (the (b_k, c_k) of the monic three-term recurrence of the polynomial part
    P_n), the energy rule `_energy(n, params)`, `eta()`, `_check_ground_state()`
    and its level-0 oracle `_level0_spectrum()`; `kind` names its chain module.
    """

    gamma = None                  # the imaginary shift of a difference family
    strip_halfwidth = math.inf    # half-height of the strip of analyticity

    def __init__(self, name, params, domain, shape, label_params):
        self.name = name
        self.params = dict(params)
        self.domain = domain
        self.shape = shape
        self.nmax = DEFAULT_NMAX
        self.label = f"{name}({label_params})" if label_params else name
        self._h0 = None
        self._oracle_levels = None
        self._shifted = None

    def phi(self, n, *level):
        """phi_n, or the stacked function of a range of n, for n in 0..nmax."""
        ns = row_range(n)
        if ns[0] < 0 or ns[-1] > self.nmax:
            raise DomainError(f"n={n} outside tabulated range 0..{self.nmax}")
        return self._phi(n, *level)

    def energy(self, n):
        if n < 0:
            raise DomainError("energy level must be >= 0")
        return float(self._energy(n, self.params))

    def hnorm(self, n):
        """Squared norm h_n of phi_n = phi_0 P_n: h_0 by quadrature (computed
        once per family, phi_0 evaluated once per node array), times c_1 ...
        c_n of the monic recurrence of P_n, since h_n = c_n h_{n-1} for monic
        orthogonal polynomials."""
        if self._h0 is None:
            phi0 = self.phi(0)
            self._h0 = float(inner_product(phi0, phi0, self.domain).real)
        h = self._h0
        for k in range(1, n + 1):
            h *= self._recurrence(k)[1]
        return h

    def oracle_levels(self):
        """The lowest energies by the kind's level-0 oracle, computed once per
        family: validation and the suite's oracle block read the same ones."""
        if self._oracle_levels is None:
            self._oracle_levels = tuple(float(e) for e in self._level0_spectrum())
        return self._oracle_levels

    def validate(self):
        """The kind's ground-state check, then the energies against `oracle_levels`."""
        self._check_ground_state()
        for n, level in enumerate(self.oracle_levels()):
            e = self.energy(n)
            if abs(level - e) > self._ORACLE_TOL * (1 + abs(e)):
                raise ParameterError(f"{self.label}: closed-form energy E_{n}={e:.8f} disagrees "
                                     f"with {self._ORACLE_NAME} {level:.8f}")

    def shifted(self):
        """The family at the shape-invariance parameters si(lambda), built once
        and not validated (the shape rule and the virtual state check it)."""
        if self._shifted is None:
            self._shifted = make_family(self.name, validate=False, **self.shape.si(self.params))
        return self._shifted

    def interior(self, fraction=0.9):
        """The middle `fraction` of the domain, clipped to [-8, 8]."""
        a, b = self.domain
        a = max(a, -8.0)
        b = min(b, 8.0)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid - fraction * half, mid + fraction * half

    def descriptor(self):
        return {"name": self.name, "params": _plain_params(self.params),
                "gamma": self.gamma, "domain": list(self.domain), "nmax": self.nmax}


# --------------------------------------------------------------------------
# continuous families
# --------------------------------------------------------------------------

class OqmFamily(Family):
    """Solvable Schrodinger family on an interval, factorized through W."""

    kind = "oqm"
    _ORACLE_TOL, _ORACLE_NAME = 1e-3, "grid oracle"

    def __init__(self, name, params, domain, w_log_jet, energy_rule,
                 poly_recurrence, eta_jet, shape, label_params):
        super().__init__(name, params, domain, shape, label_params)
        # (x, order) -> x-jet of W (ground state e^W) and of eta: the raw
        # rules, and the ones every evaluator reads, once per run and array
        self._w_log_rule, self._eta_rule = w_log_jet, eta_jet
        self._w_log_jet = partial(run_jet, w_log_jet)
        self._eta_jet = partial(run_jet, eta_jet)
        self._energy = energy_rule    # (n, params) -> E_n
        self._recurrence = poly_recurrence  # n -> (b_n, c_n) for monic P in eta

    # -- core evaluators -----------------------------------------------
    # Level s of the Crum chain is evaluated in closed form.  With
    # phi_n = phi_0 P_n(eta) and P_n monic, Crum's Wronskian ratio collapses to
    # phi^[s]_n = phi_0 (eta')^s P_n^(s)(eta), so W'^[s] = W' + s eta''/eta'
    # and U^[s] = W'^[s]^2 + W'^[s]'; s = 0 is the family itself.
    def w_prime(self, s=0):
        """Pre-potential derivative W'^[s] of chain level s."""
        return AnalyticFn(label=f"{self.label}.W[{s}]'",
                          jet_fn=lambda x, order: self._w_prime_s_jet(s, x, order))

    def potential(self, s=0):
        """Potential U^[s] of chain level s, with the level constant E_s split off."""
        def jet_fn(x, order):
            wp = self._w_prime_s_jet(s, x, order + 1)
            return (wp * wp).truncate(order) + wp.derivative()

        return AnalyticFn(label=f"{self.label}.U[{s}]", jet_fn=jet_fn)

    def _phi(self, n, s=0):
        """Eigenfunction phi^[s]_n of chain level s, with exact jets; phi_n =
        phi_0 P_n(eta) at s = 0.  A range of n gives the stacked function of
        them, with e^W, eta' and one recurrence pass shared by all rows."""
        def jet_fn(x, order):
            out = self._poly_jet(n, x, order, s) * self._w_log_jet(x, order).exp()
            if s:
                d_eta = self._eta_jet(x, order + 1).derivative()
                for _ in range(s):
                    out = out * d_eta
            return out

        return AnalyticFn(label=f"{self.label}.phi[{s}]{n}", jet_fn=jet_fn,
                          rows=len(n) if isinstance(n, range) else 0)

    def _w_prime_s_jet(self, s, x, order):
        """x-jet of W'^[s] = W' + s eta''/eta', with W' the derivative of W."""
        wp = self._w_log_jet(x, order + 1).derivative()
        if s:
            d_eta = self._eta_jet(x, order + 2).derivative()
            wp = wp + s * (d_eta.derivative() / d_eta)
        return wp

    def _poly_jet(self, n, x, order, s):
        """x-jet of P_n^(s)(eta(x)), the s-th eta-derivative of monic P_n.

        The eta-jet of P_n of order s + order is the divided difference at
        s + order + 1 copies of eta (analytic.divided_difference); it is
        differentiated s times and composed with the x-jet of eta by Horner's
        rule, so no x-jet is ever of order above `order`.  For a range of n
        every coefficient leads with one row per n.
        """
        eta = self._eta_jet(x, order)
        nodes = np.broadcast_to(eta.value, (s + order + 1,) + np.shape(eta.value))
        p = Jet(eta.value, list(divided_difference(self._recurrence, n, nodes)[::-1]))
        for _ in range(s):
            p = p.derivative()
        step = eta - eta.value
        out = Jet.const(p.coeffs[order], x, order)
        for c in reversed(p.coeffs[:order]):
            out = out * step + c
        return out

    def eta(self):
        return AnalyticFn(label=f"{self.label}.eta", jet_fn=self._eta_jet)

    def _level0_spectrum(self):
        """The three lowest eigenvalues of U by `verify.grid_eigensolve` on the oracle box."""
        from .verify import grid_eigensolve  # deferred: verify imports families

        u = self.potential()
        return grid_eigensolve(lambda x: u(x).real, _oracle_box(self), 3)

    def _check_ground_state(self):
        """The ground state e^W is positive at sample points of the interior."""
        xs = np.linspace(*self.interior(), _VALIDATE_POINTS).astype(complex)
        bad = ~(self.phi(0)(xs).real > 0)
        if bad.any():
            raise ParameterError(f"{self.label}: ground state not positive at "
                                 f"x={xs[bad.argmax()].real:g}")


def _hermite_family():
    def w_log_jet(x, order):
        jx = Jet.variable(x, order)
        return -0.5 * jx * jx

    def eta_jet(x, order):
        return Jet.variable(x, order)

    def recurrence(k):
        return 0.0, 0.5 * k

    shape = ShapeData(si=lambda p: dict(p), kappa=1.0, e1=lambda p: 2.0)
    return OqmFamily("hermite", {}, (-math.inf, math.inf), w_log_jet,
                     lambda n, p: 2.0 * n, recurrence, eta_jet, shape, "")


def _laguerre_family(g):
    if not g > 1:
        raise ParameterError(f"laguerre requires g > 1, got g = {g} (violates g > 1)")
    alpha = g - 0.5

    def w_log_jet(x, order):
        jx = Jet.variable(x, order)
        return -0.5 * jx * jx + g * jx.log()

    def eta_jet(x, order):
        jx = Jet.variable(x, order)
        return jx * jx

    def recurrence(k):
        return 2.0 * k + alpha + 1.0, k * (k + alpha)

    shape = ShapeData(si=lambda p: {"g": p["g"] + 1.0}, kappa=1.0, e1=lambda p: 4.0)
    return OqmFamily("laguerre", {"g": float(g)}, (0.0, math.inf), w_log_jet,
                     lambda n, p: 4.0 * n, recurrence, eta_jet, shape, f"g={g}")


def _jacobi_family(g):
    if not g > 1:
        raise ParameterError(f"jacobi requires g > 1, got g = {g} (violates g > 1)")

    def w_log_jet(x, order):
        return g * Jet.variable(x, order).sin().log()

    def eta_jet(x, order):
        return Jet.variable(x, order).cos()

    def recurrence(k):
        # monic ultraspherical with weight sin^{2g}
        if k == 0:
            return 0.0, 0.0
        return 0.0, 0.25 * k * (k + 2.0 * g - 1.0) / ((k + g) * (k + g - 1.0))

    shape = ShapeData(si=lambda p: {"g": p["g"] + 1.0}, kappa=1.0,
                      e1=lambda p: 1.0 + 2.0 * p["g"])
    return OqmFamily("jacobi", {"g": float(g)}, (0.0, math.pi), w_log_jet,
                     lambda n, p: n * (n + 2.0 * g), recurrence, eta_jet, shape, f"g={g}")


# --------------------------------------------------------------------------
# difference families (pure imaginary shifts)
# --------------------------------------------------------------------------

def _conjugation_closed(avals):
    pool = list(avals)
    for a in avals:
        target = complex(a).conjugate()
        hit = None
        for k, b in enumerate(pool):
            if abs(b - target) <= 1e-12 * (1.0 + abs(target)):
                hit = k
                break
        if hit is None:
            return False
        pool.pop(hit)
    return True


# a q-series stops once its terms fall below this: the neglected tail then
# changes a log-sum by less than double precision resolves
QPOCH_TAIL = 1e-17


class _FactorLogSum:
    """Sum of principal logs of q-Pochhammer factors log(1 - c e^{i m x} q^k).

    Each factor group is (coefficient c, integer direction m in {-2,-1,1,2},
    sign +1 numerator / -1 denominator) and stands for the whole product
    (c e^{imx}; q)_inf.  The groups of one direction m are summed together:
    with u = e^{imx} q^K, where K is the first k at which max |c| |e^{imx}| q^k
    is at most 1/4, the factors k < K are direct principal logs and the rest
    of every group is one q-series,

        sum_g sign_g sum_{k>=K} Log(1 - c_g u q^(k-K))
            = -sum_{j>=1} u^j sum_g sign_g c_g^j / (j (1 - q^j)),

    summed up to the length J at which 4^-J / (J (1 - q)) drops below
    QPOCH_TAIL.  The series keeps the principal branch: for |w| < 1 the
    Taylor series -sum w^j / j is the principal Log(1 - w), and summing it
    over k and g only reorders an absolutely convergent series.  With all
    evaluation points kept inside the open vertical strip 0 < Re x < pi and
    away from the factor zeros the per-factor principal branch is
    single-valued, so exp(half the sum) is the analytic square root that is
    positive on the real segment.

    The directions are evaluated together: u is one (directions x points)
    array, the direct logs of every direction are one log call, and the
    tails of every direction are one Horner pass over u, in place, so a call
    costs 2 J + O(1) numpy calls whatever the number of directions.
    """

    def __init__(self, q, terms):
        self.q = float(q)
        by_direction = {}
        for c, m, sign in terms:
            if c != 0:
                by_direction.setdefault(m, []).append((complex(c), sign))
        n = 1
        while 0.25**n / (n * (1.0 - self.q)) >= QPOCH_TAIL:
            n += 1
        # (m, groups, largest |c|, series coefficients highest power first)
        self.directions = []
        for m, groups in by_direction.items():
            series = [sum(sign * c**j for c, sign in groups) / (j * (1.0 - self.q**j))
                      for j in range(n, 0, -1)]
            self.directions.append((m, groups, max(abs(c) for c, _ in groups), series))
        self._im = np.array([1j * m for m, *_ in self.directions])
        # J x directions x 1, highest power first
        self._horner = np.array([series for *_, series in self.directions]).T[:, :, None]

    def __call__(self, x):
        """The sum at the point x: `at` on a one-point array."""
        return complex(self.at(np.array([complex(x)]))[0])

    def at(self, x):
        """The sum at each point of the complex array x, with one
        direct-factor count K per direction for the whole array (the largest
        any point needs; the extra direct logs of the other points are the
        same principal logs the series would sum).  A non-finite point gives
        a non-finite value and does not set K."""
        xs = x.reshape(-1)
        u = np.exp(np.multiply.outer(self._im, xs))
        mags = np.abs(u)
        rmax = np.where(np.isfinite(mags), mags, 0.0).max(axis=1, initial=0.0).tolist()
        # direction and coefficient c q^k of each direct factor, numerators in
        # the first list and denominators in the second
        rows, coefs, qk = ([], []), ([], []), []
        for d, (_, groups, cmax, _) in enumerate(self.directions):
            r, k = cmax * rmax[d], 0
            while r > 0.25:
                for c, sign in groups:
                    rows[sign < 0].append(d)
                    coefs[sign < 0].append(c * self.q**k)
                r *= self.q
                k += 1
            qk.append(self.q**k)
        s = 0.0
        if rows[0] or rows[1]:
            logs = np.log(1.0 - np.array(coefs[0] + coefs[1])[:, None] * u[rows[0] + rows[1]])
            # numerators less denominators: a sign times log(0) would have a
            # NaN imaginary part
            s = logs[:len(rows[0])].sum(axis=0) - logs[len(rows[0]):].sum(axis=0)
        u *= np.array(qk)[:, None]
        tail = np.zeros_like(u)
        for b in self._horner:
            tail += b
            tail *= u
        return (s - tail.sum(axis=0)).reshape(x.shape)


class DqmFamily(Family):
    """Solvable difference-Schrodinger family on (0, pi) with shift i*gamma."""

    kind = "dqm"
    _ORACLE_TOL, _ORACLE_NAME = 1e-8, "difference-equation fit"

    def __init__(self, name, params, q, avals, label_params):
        self.q = float(q)
        shape = ShapeData(si=lambda p, s=math.sqrt(self.q): _shift_avals(p, s), kappa=1.0 / self.q,
                          e1=lambda p: (1.0 / self.q - 1.0) * (1.0 - _prod_avals(p).real))
        super().__init__(name, params, (0.0, math.pi), shape, label_params)
        self.gamma = math.log(self.q)
        self.avals = [complex(a) for a in avals]
        # analyticity over the open strip 0 < Re x < pi: factors of real
        # parameters vanish only on the boundary lines Re x in {0, pi}, so
        # only parameters with a genuine phase bound the strip height
        nonreal = [abs(a) for a in self.avals if abs(a) > 0 and abs(a.imag) > 1e-14]
        self.strip_halfwidth = min((-math.log(r) for r in nonreal), default=math.inf)

        # log V: V is the product of (1 - a_j e^{ix}) over ((1-e^{2ix})(1-q e^{2ix}))
        self.log_v = _VLogSum(self.q, self.avals)
        # ground state: balanced q-factorial product, as half-log sum
        gterms = [(1.0, 2, +1), (1.0, -2, +1)]
        gterms += [(a, 1, -1) for a in self.avals if a != 0]
        gterms += [(a, -1, -1) for a in self.avals if a != 0]
        self._logphi0sq = _FactorLogSum(self.q, gterms)
        self._logphi0sq_memo = OrderedDict()

        self._b4 = complex(np.prod(self.avals)) if self.avals else 0j
        self._bc = _aw_monic_coefficients(self.avals, self.q, self.nmax)

    # -- potential side ---------------------------------------------------
    def log_phi0sq(self, x):
        """log phi_0^2 at each point of the complex array x (dqm._on_points
        sends a single point as a one-point array): the ground-state log-sum's
        array rule, one direct-factor count per array.  The last
        _LOGSUM_MEMO_ENTRIES results of at most _ARRAY_BLOCK points are kept,
        keyed by the array's dtype, shape and exact bytes, and returned
        read-only: a hit is the very array the rule gave."""
        if x.size > _ARRAY_BLOCK:
            return self._logphi0sq.at(x)
        memo = self._logphi0sq_memo
        key = (x.dtype, x.shape, x.tobytes())
        value = memo.get(key)
        if value is None:
            value = self._logphi0sq.at(x)
            value.setflags(write=False)
            memo[key] = value
            if len(memo) > _LOGSUM_MEMO_ENTRIES:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return value

    # -- wavefunction side --------------------------------------------------
    def _recurrence(self, k):
        """(b_k, c_k) of the monic recurrence P_{k+1} = (y - b_k) P_k - c_k P_{k-1}."""
        return self._bc[0][k], self._bc[1][k]

    def _phi(self, n):
        """phi_n = phi_0 P_n(cos x), or the stacked function of a range of n:
        the closed form of the difference chain's level 0."""
        return dqm_mod.level0(self).closed_form(n)

    def eta(self):
        return AnalyticFn(np.cos, label="cos",
                          jet_fn=lambda x, order: Jet.variable(x, order).cos())

    def _energy(self, n, params):
        """E_n = (q^-n - 1)(1 - a1 a2 a3 a4 q^(n-1)), real for a conjugation-closed set."""
        return ((self.q ** (-n) - 1.0) * (1.0 - self._b4 * self.q ** (n - 1))).real

    def virtual_prefactor(self):
        return AnalyticFn(np.sin, label="sin",
                          jet_fn=lambda x, order: Jet.variable(x, order).sin())

    def _level0_spectrum(self):
        """E_0..E_4, each P_n's least-squares eigenvalue of phi_0^-1 H phi_0 at 10
        real points: V(x) (P_n(x - ig) - P_n(x)) + V*(x) (P_n(x + ig) - P_n(x)) =
        E_n P_n(x), P_n taken at cos of its argument and V*(x) = conj V(x).  No
        ground state, so no square root and no strip."""
        xs = np.linspace(0.15 * math.pi, 0.85 * math.pi, 10)
        v = np.exp(self.log_v(xs))
        shifts = np.array([0.0, -1.0, 1.0])[:, None] * (1j * self.gamma)
        p = divided_difference(self._recurrence, range(5), np.cos(xs + shifts)[None])[0]
        lhs = v * (p[:, 1] - p[:, 0]) + v.conj() * (p[:, 2] - p[:, 0])
        return (np.sum(lhs * p[:, 0].conj(), axis=1) / np.sum(np.abs(p[:, 0]) ** 2, axis=1)).real

    def _check_ground_state(self):
        """The ground state is a zero mode of the lowering factor,
        sqrtV*(x - ig/2) phi_0(x - ig/2) = sqrtV(x + ig/2) phi_0(x + ig/2), at
        sample points of the interior."""
        xs = np.linspace(0.08 * math.pi, 0.92 * math.pi, _VALIDATE_POINTS).astype(complex)
        level = dqm_mod.level0(self)
        phi0 = self.phi(0).fn
        dn, up = xs - 0.5j * self.gamma, xs + 0.5j * self.gamma
        lhs = level.sqrt_v_star(dn) * phi0(dn)
        rhs = level.sqrt_v(up) * phi0(up)
        bad = ~(np.abs(lhs - rhs) <= _ZERO_MODE_TOL * (1.0 + np.abs(rhs)))
        if bad.any():
            raise ParameterError(f"{self.label}: ground-state zero mode fails at "
                                 f"x={xs[bad.argmax()].real:g}")


class _VLogSum:
    """Principal-log representation of the difference potential, at a point
    or at each point of an array."""

    def __init__(self, q, avals):
        self.q = float(q)
        self.avals = [complex(a) for a in avals]

    def __call__(self, x):
        z = np.exp(1j * x)
        s = 0j
        for a in self.avals:
            if a != 0:
                s = s + np.log(1.0 - a * z)
        return s - (np.log(1.0 - z * z) + np.log(1.0 - self.q * z * z))


def _shift_avals(params, factor):
    out = dict(params)
    for key in ("a1", "a2", "a3", "a4"):
        if key in out:
            out[key] = complex(out[key]) * factor
    return out


def _prod_avals(params):
    prod = 1.0 + 0j
    for key in ("a1", "a2", "a3", "a4"):
        prod *= complex(params.get(key, 0.0))
    return prod


def _aw_monic_coefficients(avals, q, nmax):
    """Monic three-term recurrence for the polynomial part in cos x.

    Evaluated through one reference parameter; the result is a symmetric
    function of the four parameters, so any nonzero reference gives the same
    (real) coefficients.  All parameters zero degenerates to b_n = 0,
    c_n = (1-q^n)/4.
    """
    if all(abs(a) == 0 for a in avals):
        return [0.0] * (nmax + 1), [0.0] + [(1.0 - q**n) / 4.0 for n in range(1, nmax + 1)]
    idx = max(range(len(avals)), key=lambda j: abs(avals[j]))
    a = avals[idx]
    b, c, d = [avals[j] for j in range(len(avals)) if j != idx]
    s4 = a * b * c * d

    def big_a(n):
        if n == 0:
            return (1 - a * b) * (1 - a * c) * (1 - a * d) / (a * (1 - s4))
        return ((1 - a * b * q**n) * (1 - a * c * q**n) * (1 - a * d * q**n)
                * (1 - s4 * q ** (n - 1))
                / (a * (1 - s4 * q ** (2 * n - 1)) * (1 - s4 * q ** (2 * n))))

    def big_c(n):
        return (a * (1 - q**n) * (1 - b * c * q ** (n - 1)) * (1 - b * d * q ** (n - 1))
                * (1 - c * d * q ** (n - 1))
                / ((1 - s4 * q ** (2 * n - 2)) * (1 - s4 * q ** (2 * n - 1))))

    bs, cs = [], [0.0]
    for n in range(nmax + 1):
        bn = 0.5 * (a + 1.0 / a - big_a(n) - big_c(n))
        if abs(bn.imag) > 1e-10 * (1.0 + abs(bn)):
            raise ParameterError(f"recurrence coefficient b_{n} not real: {bn}")
        bs.append(bn.real)
        if n >= 1:
            cn = 0.25 * big_a(n - 1) * big_c(n)
            if abs(cn.imag) > 1e-10 * (1.0 + abs(cn)):
                raise ParameterError(f"recurrence coefficient c_{n} not real: {cn}")
            cs.append(cn.real)
    return bs, cs


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def make_family(name, validate=True, **params):
    """Build a named family after checking its parameter constraints.

    Raises ParameterError quoting the violated inequality; runs the family's
    self-consistency suite unless validate=False: ground-state positivity
    (continuous families, whose W' is derived from W) or the ground-state
    zero mode (q-families), then the energy oracle.
    """
    if name == "hermite":
        fam = _hermite_family()
    elif name == "laguerre":
        fam = _laguerre_family(float(params.get("g", 0.0)))
    elif name == "jacobi":
        fam = _jacobi_family(float(params.get("g", 0.0)))
    elif name in ("q_hermite", "askey_wilson"):
        q = float(params.get("q", 0.0))
        if not 0.0 < q < 1.0:
            raise ParameterError(f"{name} requires 0 < q < 1, got q = {q}")
        if name == "q_hermite":
            avals = [0.0, 0.0, 0.0, 0.0]
            fam = DqmFamily(name, {"q": q}, q, avals, f"q={q}")
        else:
            avals = [complex(params.get(k, 0.0)) for k in ("a1", "a2", "a3", "a4")]
            for k, a in zip(("a1", "a2", "a3", "a4"), avals):
                if not abs(a) < 1.0:
                    raise ParameterError(f"askey_wilson requires |{k}| < 1, got |{k}| = {abs(a):g}")
            if not _conjugation_closed(avals):
                raise ParameterError(
                    "askey_wilson requires the parameter set to be closed under "
                    "complex conjugation ({a*} = {a} as a set)")
            p = {"q": q, "a1": avals[0], "a2": avals[1], "a3": avals[2], "a4": avals[3]}
            fam = DqmFamily(name, p, q, avals,
                            "a=" + ",".join(f"{a:g}" for a in avals) + f",q={q}")
    else:
        raise ParameterError(f"unknown family {name!r}; see catalog()")
    if validate:
        fam.validate()
    return fam


def catalog():
    """Names and constraints of the built-in families."""
    return {
        "hermite": "no parameters; full line",
        "laguerre": "g > 1; half line (0, inf)",
        "jacobi": "g > 1; interval (0, pi)",
        "q_hermite": "0 < q < 1; interval (0, pi); shift gamma = log q",
        "askey_wilson": "|a_j| < 1, {a*}={a} as a set, 0 < q < 1; interval (0, pi)",
    }


def virtual_state(fam):
    """The zero mode removed from the spectrum: annihilated by the raising
    factor, excluded from the Hilbert space.

    Continuous families: e^{-W}.  Difference families: the prefactor
    (sin x here) over the ground state at shifted parameters, however small;
    a zero of it is a pole, which the suite's virtual block fails.
    """
    if fam.kind == "oqm":
        return AnalyticFn(label=f"{fam.label}.virtual",
                          jet_fn=lambda x, order: (-fam._w_log_jet(x, order)).exp())
    shifted = fam.shifted()
    phi0s = shifted.phi(0)
    pref = fam.virtual_prefactor()
    return AnalyticFn(lambda x: pref.fn(x) / phi0s.fn(x),
                      strip_halfwidth=min(fam.strip_halfwidth, shifted.strip_halfwidth),
                      label=f"{fam.label}.virtual")


def _plain_params(params):
    out = {}
    for k, v in params.items():
        v = complex(v)
        out[k] = v.real if v.imag == 0 else [v.real, v.imag]
    return out


def _oracle_box(fam):
    """The grid oracle's interval: 1e-9 inside each finite end of the domain
    (a wall); toward an infinite end, out to the first hi = 1.25^k past the
    well of U, where U is at least 40 (1 + E_4) and does not fall from hi to
    the next hi."""
    a, b = fam.domain
    if not math.isinf(b):
        return (a + 1e-9, b - 1e-9)
    his = np.cumprod(np.r_[1.0, np.full(_BOX_STEPS - 1, 1.25)])
    u = fam.potential()(his.astype(complex)).real
    past = (u >= 40 * (1 + fam.energy(4))) & (np.diff(u, append=np.inf) >= 0)
    hi = float(his[past.argmax()])
    return (-hi, hi) if math.isinf(a) else (a + 1e-9, hi)
