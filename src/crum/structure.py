"""Structural relations on top of the chains: shape invariance, the
sinusoidal-coordinate identities, and the two limits (shift to zero inside
determinants; continuum limit of the difference operators).

Shape invariance is checked against each family's declared rule
(`family.shape`): the level-1 potential must equal kappa times the potential
at the shifted parameters si(lambda), plus the first gap e1(lambda) on the
derivative side.  Nothing is fitted, so a wrong declared rule fails.

The eta relations fit one line, phi_1/phi_0 = a + b eta, by least squares in
closed form: b = sum conj(deta) dr / sum |deta|^2 over the deviations from
the means, a = mean r - b mean eta.  With no spread in eta (one sample, or
all equal) b is 0 and the line runs through the mean, an exact fit where the
data allow one, as the minimum-norm least-squares answer is.  A non-finite
value makes the fit non-finite, so the residual fails closed.  No LAPACK
routine runs, so none is paged into the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .analytic import (AnalyticFn, Identity, casoratian, identity_residual, rel_residual,
                       worst_residual, wronskian)
from .errors import DomainError, ParameterError
from . import dqm as dqm_mod

SHAPE_POINTS = 30               # points of the shape-invariance residual
GAMMAS = (1e-1, 1e-2, 1e-3)     # the default shifts of the gamma_to_0 scan


@dataclass
class ShapeCheck:
    converged: bool       # the family accepted the declared shifted parameters
    kappa: float
    params: dict          # si(lambda); an oQM family adds shift = e1(lambda)
    max_residual: float


@dataclass(frozen=True)
class LimitScaling:
    """Large-parameter rescaling of a difference family toward a derivative one.

    The potential at scale c is V(x; c) = 1 + i w1(x)/c, a family of shift
    1/c; w1 is the first-order coefficient function.  The derivative of the
    limiting pre-potential is minus the star-real part of w1.  w1 takes an
    array of points and returns the array of its values.
    """

    c_values: tuple = (10.0, 100.0, 1000.0)
    w1: object = lambda x: x + 0.3j * x * x    # callable, array of x -> array of complex

    def potential(self, c):
        w1 = self.w1

        def v(x):
            return 1.0 + 1j * w1(x) / c

        return v

    def w_prime(self, x):
        """W'(x) = -(w1(x) + w1*(x)) / 2 at each point of an array x."""
        return -0.5 * (self.w1(x) + np.conj(self.w1(np.conj(x))))


@dataclass
class LimitRow:
    mode: str
    label: str
    parameter: float
    max_error: float


@dataclass
class LimitTable:
    mode: str
    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shape invariance
# ---------------------------------------------------------------------------

def shape_invariance_residual(family, chain):
    """Worst mismatch of the family's declared shape-invariance rule
    (family.shape: si, kappa, e1) on the level-1 potential of `chain`.

    dQM: V^[1](x) against kappa V(x; si(lambda)), on SHAPE_POINTS // 2 points
    of interior(0.9) and the same points raised by 0.25 i |gamma|.  oQM:
    U^[1](x) + E_1 against kappa U(x; si(lambda)) + e1(lambda), on
    SHAPE_POINTS points of interior(0.9).  `converged` says the family
    constructor accepted si(lambda); a refusal (ParameterError) is a failed
    verdict (converged False, max_residual inf), not an error.
    """
    shape = family.shape
    params = shape.si(family.params)
    try:
        shifted = family.shifted()
    except ParameterError:
        return ShapeCheck(False, shape.kappa, params, math.inf)
    level1 = chain[1]
    lo, hi = family.interior(0.9)
    if family.kind == "dqm":
        line = np.linspace(lo, hi, SHAPE_POINTS // 2).astype(complex)
        xs = np.concatenate([line, line + 0.25j * abs(family.gamma)])
        got, want = level1.v(xs), shape.kappa * np.exp(shifted.log_v(xs))
    else:
        params = {**params, "shift": shape.e1(family.params)}
        xs = np.linspace(lo, hi, SHAPE_POINTS).astype(complex)
        got = level1.potential()(xs) + level1.E_s
        want = shape.kappa * shifted.potential()(xs) + params["shift"]
    return ShapeCheck(True, shape.kappa, params, worst_residual([rel_residual(got, want)]))


def si_spectrum(family, n):
    """Energy by summing scaled first gaps along the parameter orbit."""
    if n < 0:
        raise DomainError("level must be >= 0")
    shape = family.shape
    params = dict(family.params)
    total = 0.0
    kpow = 1.0
    for _ in range(n):
        total += kpow * shape.e1(params)
        params = shape.si(params)
        kpow *= shape.kappa
    return total


# ---------------------------------------------------------------------------
# sinusoidal-coordinate relations
# ---------------------------------------------------------------------------

def eta_relations_residual(kind, family, chain, samples):
    """Worst residual of coordinate identity `kind` (a key of
    ETA_RELATIONS[family.kind]) at the deepest level of `chain`, a chain of
    `family` from level 0; a non-finite sample makes it inf."""
    return identity_residual(ETA_RELATIONS[family.kind], kind, chain, samples)


def _affine_fit(xs, ys):
    """(a, b) of the least-squares line ys ~ a + b xs, in closed form."""
    dx, dy = xs - xs.mean(), ys - ys.mean()
    spread = (dx.real**2 + dx.imag**2).sum()
    b = (dx.conj() * dy).sum() / spread if spread else 0.0
    return ys.mean() - b * xs.mean(), b


def _res_eta_affine(levels, samples):
    """Ratio of the first two eigenfunctions of the family is affine in eta."""
    family = levels[0].family
    ratios = family.phi(1)(samples) / family.phi(0)(samples)
    etas = family.eta()(samples)
    a, b = _affine_fit(etas, ratios)
    yield rel_residual(ratios, a + b * etas)


def _res_eta_level(levels, samples):
    """Ratio of the first two eigenfunctions of the deepest level s is affine
    in the symmetrized eta sum."""
    family = levels[0].family
    g = family.gamma
    eta = family.eta()
    s = len(levels) - 1
    level = levels[s]
    ratios = level.phi(s + 1, samples) / level.phi(s, samples)
    etas = sum(eta(samples + 0.5j * (2 * k - s) * g) for k in range(s + 1))
    a, b = _affine_fit(etas, ratios)
    yield rel_residual(ratios, a + b * etas)


def _res_vs_product(levels, samples):
    """Potential of the deepest level s from the base one through a
    telescoping eta product."""
    family = levels[0].family
    g = family.gamma
    eta = family.eta()
    s = len(levels) - 1
    lhs = levels[s].v(samples + 0.5j * s * g)
    prod = levels[0].v(samples)
    eta_x, eta_dn = eta(samples), eta(samples - 1j * g)
    for k in range(s):
        num = eta_dn - eta(samples + 1j * k * g)
        den = eta_x - eta(samples + 1j * (k + 1) * g)
        prod = prod * (num / den)
    yield rel_residual(lhs, prod)


# the coordinate identities of each chain kind, in report order; V1_from_eta
# is Vs_product at level 1
ETA_RELATIONS = {
    "oqm": {"eta_affine": Identity(_res_eta_affine)},
    "dqm": {
        "eta_affine": Identity(_res_eta_affine),
        "V1_from_eta": Identity(lambda levels, samples: _res_vs_product(levels[:2], samples),
                                first_level=1),
        "eta_level": Identity(_res_eta_level, first_level=1),
        "Vs_product": Identity(_res_vs_product, first_level=1),
    },
}


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def limit_check(mode, config=None, function_sets=None, gammas=GAMMAS):
    """Convergence scan for one of the two limits.

    gamma_to_0: scaled shifted determinants against derivative determinants
    on fixed entire functions at x = 0.55.  c_to_inf: scaled difference-operator actions
    against derivative-operator actions on Gaussian test functions (config is
    a LimitScaling).  Rows carry (parameter, max_error); each labelled series
    gets a fitted log-log slope and a flag ('ok', 'exact', 'inconclusive').
    Scanned values outside the domain raise ParameterError (_scan_values).
    """
    if mode == "gamma_to_0":
        return _limit_gamma(function_sets, _scan_values("gamma", gammas))
    if mode == "c_to_inf":
        config = LimitScaling() if config is None else config
        _scan_values("c", config.c_values)
        return _limit_c(config)
    raise DomainError(f"unknown limit mode {mode!r}")


def _scan_values(name, values):
    """The values of a limit scan: two or more distinct ones (a slope needs
    two, and a repeat would count twice in the fit), each finite and > 0."""
    values = tuple(values)
    in_domain = all(math.isfinite(v) and v > 0 for v in values)
    if len(set(values)) < max(2, len(values)) or not in_domain:
        raise ParameterError(f"a limit scan takes two or more distinct {name} values, each "
                             f"finite and > 0, got {', '.join(map(str, values)) or 'none'}")
    return values


def _std_fn(name):
    from .jets import Jet

    table = {
        "1": lambda x, o: Jet.const(1.0, x, o),
        "x": lambda x, o: Jet.variable(x, o),
        "x^2": lambda x, o: (lambda j: j * j)(Jet.variable(x, o)),
        "gauss": lambda x, o: (lambda j: (-0.5 * j * j).exp())(Jet.variable(x, o)),
        "x*gauss": lambda x, o: (lambda j: j * (-0.5 * j * j).exp())(Jet.variable(x, o)),
    }
    return AnalyticFn(label=name, jet_fn=table[name])


def _limit_gamma(function_sets, gammas):
    if function_sets is None:
        function_sets = [["x", "gauss"], ["1", "x", "gauss"], ["1", "x"],
                         ["1", "x", "x^2", "gauss"]]
    table = LimitTable(mode="gamma_to_0")
    for names in function_sets:
        fs = [_std_fn(nm) for nm in names]
        n = len(fs)
        target = wronskian(fs, 0.55 + 0j)
        errs = [abs(casoratian(fs, 0.55 + 0j, gam) * gam ** (-n * (n - 1) // 2) - target)
                for gam in gammas]
        _append_series(table, gammas, {"{" + ",".join(names) + "}": errs}, scale=abs(target))
    return table


def _limit_c(config):
    """The c_to_inf scan on an array of 10 points of [-1.2, 1.2]: per test
    function one jet, and per c one evaluation of A and one of H.  W'' comes
    from the Cauchy jet of W' (config.w_prime)."""
    table = LimitTable(mode="c_to_inf")
    xs = np.linspace(-1.2, 1.2, 10).astype(complex)
    w = AnalyticFn(config.w_prime).jet(xs, 1)
    wp, wpp = w.value, w.deriv(1)
    levels = [_limit_level(config.potential(c), 1.0 / c) for c in config.c_values]
    for label in ("gauss", "x*gauss"):
        f = _std_fn(label)
        jet = f.jet(xs, 2)
        lim_a = jet.deriv(1) - wp * jet.value
        lim_h = -jet.deriv(2) + (wp ** 2 + wpp) * jet.value
        errs_a, errs_h = [], []
        for c, level in zip(config.c_values, levels):
            low = c * dqm_mod.apply_A(level, f)(xs)
            h_f = c**2 * dqm_mod.hamiltonian_apply(level, f)(xs)
            errs_a.append(worst_residual([np.abs(low - lim_a)]))
            errs_h.append(worst_residual([np.abs(h_f - lim_h)]))
        _append_series(table, config.c_values, {f"A:{label}": errs_a, f"H:{label}": errs_h})
    return table


def _limit_level(v, gamma):
    """Stand-in for a chain level with potential v: level 0 of a family of
    shift gamma, level constant 0 and the principal square root of v, so the
    chain operators apply."""

    def sqrt_v(x):
        return np.sqrt(v(x))

    def sqrt_v_star(x):
        return np.conj(sqrt_v(np.conj(x)))

    return SimpleNamespace(family=SimpleNamespace(gamma=gamma), s=0, E_s=0.0, sqrt_v=sqrt_v,
                           sqrt_v_star=sqrt_v_star)


def _append_series(table, params, series, scale=1.0):
    """Appends labelled series of errors over the scanned values params:
    their rows, by value in the order given and the series in order at each
    value, then each series' fitted slope and flag (_fit_slope)."""
    for i, p in enumerate(params):
        table.rows += [LimitRow(table.mode, label, float(p), float(errs[i]))
                       for label, errs in series.items()]
    for label, errs in series.items():
        table.slopes[label], table.flags[label] = _fit_slope(table.mode, params, errs, scale)


def _fit_slope(mode, params, errs, scale=1.0):
    """Decay exponent of the errors toward the limit of `mode` (gamma -> 0,
    c -> infinity), a log-log fit, with sanity flags: 'exact' when errors sit
    at roundoff, 'inconclusive' when they do not decrease monotonically as
    the values approach the limit, whatever order the values come in."""
    errs = [float(e) for e in errs]
    if not all(math.isfinite(e) for e in errs):
        return float("nan"), "inconclusive"
    if max(errs) <= 1e-13 * (1.0 + scale):
        return 0.0, "exact"
    if any(e == 0.0 for e in errs):
        return 0.0, "exact"
    toward_zero = mode == "gamma_to_0"
    ordered = [e for _, e in sorted(zip(params, errs), reverse=toward_zero)]
    decreasing = all(ordered[i + 1] < ordered[i] for i in range(len(ordered) - 1))
    slope = float(np.polyfit(np.log10(params), np.log10(errs), 1)[0])
    return (slope if toward_zero else -slope), ("ok" if decreasing else "inconclusive")


def emit_csv_rows(table):
    """Rows for the CSV contract: mode, label, parameter, max_error, fitted_slope."""
    out = []
    for row in table.rows:
        out.append({
            "mode": row.mode,
            "label": row.label,
            "parameter": row.parameter,
            "max_error": row.max_error,
            "fitted_slope": table.slopes.get(row.label, float("nan")),
            "flag": table.flags.get(row.label, ""),
        })
    return out
