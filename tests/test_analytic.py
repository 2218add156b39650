import cmath
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import AW_PARAMS, from_poly, scalar_lu_det, scalar_wronskian, starred
from crum import dqm, make_family, oqm
from crum.analytic import (_ARRAY_BLOCK, AnalyticFn, casoratian, divided_difference,
                           inner_product, lu_det, star_eval, worst_residual, wronskian)
from crum.errors import (AccuracyError, CapabilityError, ChainBreakError, DomainError,
                         StripError)
from crum.jets import Jet
from crum.verify import DEFAULT_TOLERANCES, sample_points

GAUSS = AnalyticFn(lambda x: cmath.exp(-0.5 * x * x), label="gauss",
                   jet_fn=lambda x, o: (lambda j: (-0.5 * j * j).exp())(Jet.variable(x, o)))
XGAUSS = AnalyticFn(lambda x: x * cmath.exp(-0.5 * x * x), label="x*gauss",
                    jet_fn=lambda x, o: (lambda j: j * (-0.5 * j * j).exp())(Jet.variable(x, o)))


# -- star conjugation ---------------------------------------------------------

def test_star_eval_conjugates_coefficients():
    f = from_poly([1j, 0.0, 1.0])     # x^2 + i
    assert star_eval(f, 1.0) == 1.0 - 1j


def test_star_eval_real_coefficients_identity():
    f = from_poly([2.0, -1.0, 3.0])
    for x in (0.2, -1.4, 2.5):
        assert star_eval(f, x) == f(x)


def test_star_eval_exponential():
    f = AnalyticFn(lambda x: cmath.exp(1j * x), label="e^{ix}")
    v = star_eval(f, 1j)
    assert abs(v - math.e) < 1e-14


def test_double_star_is_identity():
    f = from_poly([0.3 + 0.1j, -1.0, 2.0 - 0.5j])
    for x in (0.5 + 0.2j, -1.0 - 0.7j):
        assert abs(star_eval(starred(f), x) - f(x)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=5),
       st.floats(-2, 2), st.floats(-0.5, 0.5))
def test_double_star_property(coeffs, re, im):
    f = from_poly(coeffs)
    x = complex(re, im)
    assert abs(star_eval(starred(f), x) - f(x)) <= 1e-12 * (1 + abs(f(x)))


def test_star_eval_outside_strip_raises():
    f = AnalyticFn(lambda x: x, strip_halfwidth=0.5, label="ident")
    with pytest.raises(StripError):
        star_eval(f, 1j)


def test_array_call_outside_strip_raises():
    f = AnalyticFn(lambda x: x, strip_halfwidth=0.5, label="ident")
    with pytest.raises(StripError):
        f(np.array([0.1, 2j, 0.3]))


# -- jets ---------------------------------------------------------------------

def test_eval_jet_polynomial():
    f = from_poly([0.0, 0.0, 1.0])
    j = f.jet(1.0, 2)
    assert [complex(c) for c in j.coeffs] == [1.0, 2.0, 1.0]


def test_eval_jet_gauss_at_zero():
    j = GAUSS.jet(0.0, 2)
    assert abs(j.coeffs[0] - 1.0) < 1e-15
    assert abs(j.coeffs[1]) < 1e-15
    assert abs(j.coeffs[2] + 0.5) < 1e-15


def test_eval_jet_matches_finite_differences(hermite):
    f = hermite.phi(2)
    x, h = 0.3, 1e-5
    j = f.jet(x, 3)
    fd1 = (f(x + h) - f(x - h)) / (2 * h)
    fd2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    assert abs(j.deriv(1) - fd1) < 1e-6
    assert abs(j.deriv(2) - fd2) < 1e-5


def test_cauchy_fallback_jet_accuracy():
    # the circle radius is capped at 0.1, so roundoff amplification 1/r^k
    # limits the fallback near order 8; low orders are essentially exact
    f = AnalyticFn(lambda x: np.exp(-0.5 * x * x))  # no jet_fn attached
    j = f.jet(0.4, 8)
    exact = GAUSS.jet(0.4, 8)
    for k in range(9):
        tol = 1e-9 if k <= 4 else 1e-4
        assert abs(j.coeffs[k] - exact.coeffs[k]) <= tol * (1 + abs(exact.coeffs[k]))


def test_cauchy_fallback_jet_at_a_point_is_the_one_point_array_jet():
    # a point goes through the array rule as a 0-d array: one call of fn on
    # its circle, and the same bits as the jet of the one-point array
    shapes = []

    def fn(x):
        shapes.append(np.shape(x))
        return np.exp(-0.5 * x * x)

    f = AnalyticFn(fn)
    jet = f.jet(0.4 - 0.1j, 5)
    assert shapes == [(64,)]
    ref = f.jet(np.array([0.4 - 0.1j]), 5)
    assert all(c == r[0] for c, r in zip(jet.coeffs, ref.coeffs))


def test_cauchy_fallback_jet_on_an_array_matches_per_point_jets():
    # without jet_fn, an array of points is one call of fn on every point's
    # circle; each radius is capped by the strip at its own point (0.05 at
    # Im x = 0.45 below), as a single-point jet caps it
    fns = [AnalyticFn(np.exp), AnalyticFn(np.sin, strip_halfwidth=0.5)]
    xs = np.array([[0.3, -1.2 + 0.1j], [2.0 - 0.35j, 0.7 + 0.45j]])
    for f in fns:
        jet = f.jet(xs, 5)
        for idx in np.ndindex(xs.shape):
            ref = f.jet(complex(xs[idx]), 5)
            for k in range(6):
                assert abs(jet.coeffs[k][idx] - ref.coeffs[k]) <= 1e-12 * (1 + abs(ref.coeffs[k]))
    # the public Wronskian of such functions on an array: W[exp, sin] = e^x (cos x - sin x)
    w = wronskian(fns, xs)
    assert np.abs(w - np.exp(xs) * (np.cos(xs) - np.sin(xs))).max() <= 1e-12


def test_jet_order_cap():
    with pytest.raises(CapabilityError):
        GAUSS.jet(0.0, 100)
    with pytest.raises(CapabilityError, match=">= 0"):
        GAUSS.jet(0.0, -1)


def test_cauchy_fallback_jet_refuses_a_point_on_the_strip_edge():
    # on |Im x| = strip_halfwidth no circle fits inside the strip: the point
    # passes the strip check, but its circle radius is 0
    f = AnalyticFn(np.exp, strip_halfwidth=0.5, label="exp")
    with pytest.raises(StripError) as point:
        f.jet(0.3 + 0.5j, 2)
    assert point.value.point == 0.3 + 0.5j
    with pytest.raises(StripError) as array:
        f.jet(np.array([0.1, 0.2 - 0.1j, 0.7 - 0.5j]), 2)
    assert array.value.point == 0.7 - 0.5j


# -- the divided-difference recurrence ----------------------------------------

# monic recurrences k -> (b_k, c_k): one with complex coefficients, and two families'
DD_RECURRENCES = {
    "complex": lambda k: (0.3 - 0.2j * k, 0.5 + 0.25j * k),
    "laguerre": make_family("laguerre", validate=False, g=3.0)._recurrence,
    "askey_wilson": make_family("askey_wilson", validate=False, **AW_PARAMS)._recurrence,
}


def _monic_coefficients(recurrence, n):
    """numpy coefficients (highest power first) of the monic P_n."""
    prev, cur = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
    for k in range(n):
        b, c = recurrence(k)
        prev, cur = cur, np.polysub(np.polymul([1.0, -b], cur), c * prev)
    return cur


@pytest.mark.parametrize("name", sorted(DD_RECURRENCES))
def test_divided_difference_matches_the_quotient_table(name):
    # distinct nodes: row i is P_n[e_i..e_m] of the quotient table
    # f[e_i..e_j] = (f[e_{i+1}..e_j] - f[e_i..e_{j-1}]) / (e_j - e_i)
    rec = DD_RECURRENCES[name]
    nodes = np.array([[0.9, -0.4 + 0.2j], [0.1 - 0.3j, 0.7], [-0.6, 0.2 + 0.5j],
                      [0.5 + 0.4j, -0.8 - 0.1j]])
    m = len(nodes) - 1
    for n in range(7):
        poly = _monic_coefficients(rec, n)
        table = [np.polyval(poly, e) for e in nodes]      # table[i] = f[e_i..e_{i+j}]
        rows = {m: table[m]}
        for j in range(1, m + 1):
            table = [(table[i + 1] - table[i]) / (nodes[i + j] - nodes[i])
                     for i in range(m + 1 - j)]
            rows[m - j] = table[m - j]
        got = divided_difference(rec, n, nodes)
        assert got.shape == nodes.shape
        for i, ref in rows.items():
            assert np.abs(got[i] - ref).max() <= 1e-12 * (1 + np.abs(ref).max()), (n, i)
        if n < m:
            assert np.all(got[0] == 0)       # an order-m difference of degree n < m


@pytest.mark.parametrize("name", sorted(DD_RECURRENCES))
def test_divided_difference_at_coincident_nodes_is_the_taylor_jet(name):
    # m + 1 copies of eta: row m - k is P_n^(k)(eta) / k!
    rec = DD_RECURRENCES[name]
    eta = np.array([0.35 - 0.1j, -0.8, 1.4 + 0.6j])
    m = 5
    for n in range(8):
        poly = _monic_coefficients(rec, n)
        got = divided_difference(rec, n, np.broadcast_to(eta, (m + 1, eta.size)))
        for k in range(m + 1):
            ref = np.polyval(np.polyder(poly, k), eta) / math.factorial(k) if k <= n else 0 * eta
            assert np.abs(got[m - k] - ref).max() <= 1e-12 * (1 + np.abs(ref).max()), (n, k)
    # one node is the value, at a point as at an array
    assert divided_difference(rec, 3, [0.2 + 0.1j])[0] \
        == pytest.approx(np.polyval(_monic_coefficients(rec, 3), 0.2 + 0.1j), rel=1e-14)


# -- determinants -------------------------------------------------------------

def test_wronskian_empty_is_one():
    assert wronskian([], 0.3) == 1.0


def test_wronskian_one_x():
    fs = [from_poly([1.0]), from_poly([0.0, 1.0])]
    for x in (0.0, 1.7, -2.3):
        assert abs(wronskian(fs, x) - 1.0) < 1e-14


def test_wronskian_gauss_pair():
    # 2x2 by hand: f1 f2' - f2 f1' at 0 = 1
    assert abs(wronskian([GAUSS, XGAUSS], 0.0) - 1.0) < 1e-14


def test_wronskian_multilinear():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = complex(rng.normal(), rng.normal())
        x = complex(rng.uniform(-1, 1))
        scaled = AnalyticFn(lambda t, c=c: c * XGAUSS.fn(t),
                            jet_fn=lambda t, o, c=c: XGAUSS.jet(t, o) * c)
        assert abs(wronskian([GAUSS, scaled], x) - c * wronskian([GAUSS, XGAUSS], x)) < 1e-12


def test_casoratian_empty_is_one():
    assert casoratian([], 0.1, 0.5) == 1.0


def test_casoratian_one_x_is_gamma():
    fs = [from_poly([1.0]), from_poly([0.0, 1.0])]
    val = casoratian(fs, 0.4, 0.3)
    assert abs(val - 0.3) < 1e-15


def test_casoratian_antisymmetry():
    rng = np.random.default_rng(3)
    f1, f2 = GAUSS, XGAUSS
    for _ in range(5):
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        a = casoratian([f1, f2], x, 0.37)
        b = casoratian([f2, f1], x, 0.37)
        assert abs(a + b) < 1e-13 * (1 + abs(a))


def test_casoratian_multilinear():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = complex(rng.normal(), rng.normal())
        x = complex(rng.uniform(-1, 1))
        scaled = AnalyticFn(lambda t, c=c: c * XGAUSS.fn(t))
        lhs = casoratian([GAUSS, scaled], x, 0.21)
        rhs = c * casoratian([GAUSS, XGAUSS], x, 0.21)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_casoratian_strip_violation_names_point():
    f = AnalyticFn(lambda x: x, strip_halfwidth=0.1, label="narrow")
    with pytest.raises(StripError) as err:
        casoratian([f, f], 0.0, 1.0)
    assert "0.5" in str(err.value)  # offending shifted point at Im = +-0.5


def test_casoratian_limit_to_wronskian():
    # scaled shifted determinant approaches the derivative determinant;
    # the error is bounded by the first power of the shift on this grid
    fs = [GAUSS, XGAUSS]
    target = wronskian(fs, 0.3)
    errs = []
    for gam in (1e-1, 1e-2, 1e-3):
        scaled = casoratian(fs, 0.3, gam) / gam
        errs.append(abs(scaled - target))
    assert errs[0] < 0.1 * abs(target)
    assert errs[2] < errs[1] < errs[0]
    for gam, err in zip((1e-1, 1e-2, 1e-3), errs):
        assert err <= 1.0 * gam  # O(gamma) bound (the measured decay is quadratic)


def test_lu_det_growth():
    det, growth = lu_det([[1.0, 2.0], [3.0, 4.0]])
    assert abs(det + 2.0) < 1e-14
    assert growth >= 0.5


def test_stacked_lu_det_matches_the_per_matrix_one():
    mats = np.array([
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],      # row swaps
        [[1, 1, 1], [-1, -1, 1], [1, 1, -1]],    # growth 2, then a zero pivot
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],       # zero matrix
        [[1, 0, 1], [-1, 1, 1], [-1, -1, 1]],    # growth 4, the largest of the stack
        [[2j, 1, 0], [1, 1j, 3], [0, 1, 1]],
        [[1e-300, 1, 2], [1, 3, 1], [2, 1, 1]],
    ], dtype=complex)
    dets, growth = lu_det(mats.reshape(2, 3, 3, 3))
    assert dets.shape == (2, 3)
    singles = [scalar_lu_det(m) for m in mats]
    assert list(dets.ravel()) == [d for d, _ in singles]
    assert growth == max(g for _, g in singles) == 4.0
    assert dets.ravel()[1] == 0 and singles[1][1] == 2.0
    for m, (d, g) in zip(mats, singles):
        assert lu_det(m) == (d, g)


def test_determinants_of_an_array_are_one_per_point():
    xs = np.array([-1.5, 0.0, 0.4 + 0.2j, 2.0])
    fs = [GAUSS, XGAUSS, from_poly([1.0, 0.0, 1.0])]
    dets, growth = wronskian(fs, xs, info=True)
    assert dets.shape == xs.shape
    for x, d in zip(xs, dets):
        assert abs(d - scalar_wronskian(fs, complex(x))) <= 1e-15 * (1 + abs(d))
    assert growth == max(wronskian(fs, complex(x), info=True)[1] for x in xs)
    assert np.all(wronskian([], xs) == 1.0)
    gam = 0.3
    dets = casoratian(fs, xs, gam)
    assert dets.shape == xs.shape
    for x, d in zip(xs, dets):
        rows = [[f.fn(x + 0.5j * (4 - 2 * j) * gam) for f in fs] for j in range(1, 4)]
        ref = -1j * scalar_lu_det(rows)[0]
        assert abs(d - ref) <= 1e-15 * (1 + abs(ref))


def test_jet_of_a_long_array_goes_in_blocks():
    xs = np.linspace(-3.0, 3.0, 2500) + 0.1j
    calls = []
    f = AnalyticFn(GAUSS.fn, jet_fn=lambda x, o: calls.append(x.size) or GAUSS.jet_fn(x, o))
    jet = f.jet(xs, 2)
    assert calls == [1024, 1024, 452]
    for i in range(0, xs.size, 97):
        ref = GAUSS.jet(complex(xs[i]), 2)
        for k in range(3):
            assert abs(jet.coeffs[k][i] - ref.coeffs[k]) <= 1e-15
    assert np.array_equal(f(xs), jet.value)


def test_a_jet_rule_alone_gives_the_order0_jets_as_values(hermite):
    # the family's potential and stacked phi are given by their jet rules alone
    xs = np.linspace(-3.0, 3.0, 2 * _ARRAY_BLOCK + 5) + 0.1j
    for f in (AnalyticFn(jet_fn=GAUSS.jet_fn), hermite.potential(1), hermite.phi(range(1, 4))):
        for x in (0.3 - 0.2j, -1.7 + 0j):
            assert np.array_equal(f(x), f.jet_fn(x, 0).value)
        assert np.array_equal(f(xs), f.jet(xs, 0).coeffs[0])


def test_worst_residual_fails_closed():
    assert worst_residual([]) == 0.0
    assert worst_residual(iter([1e-12, 3e-12, 2e-12])) == 3e-12
    for bad in (math.nan, math.inf, -math.inf):
        assert worst_residual([1e-12, bad, 2e-12]) == math.inf
        assert worst_residual([np.array([1e-12, 2e-12]), np.array([bad, 0.0])]) == math.inf
    assert worst_residual([np.array([1e-12, 4e-12]), np.array([]), 3e-12]) == 4e-12


# -- inner products -----------------------------------------------------------

FULL = (-math.inf, math.inf)


def test_inner_product_gaussian():
    val = inner_product(GAUSS, GAUSS, FULL)
    assert abs(val - math.sqrt(math.pi)) < 1e-11


def test_inner_product_odd_integrand():
    val = inner_product(GAUSS, XGAUSS, FULL)
    assert abs(val) < 1e-12


def test_inner_product_conjugate_symmetry():
    f = AnalyticFn(lambda x: (1 + 0.5j) * np.exp(-0.5 * x * x))
    g = AnalyticFn(lambda x: (x + 1j) * np.exp(-0.5 * x * x))
    a = inner_product(f, g, FULL)
    b = inner_product(g, f, FULL)
    assert abs(a - b.conjugate()) < 1e-12


def test_inner_product_aw_all_zero_parameters_orthogonality():
    from crum import make_family
    fam = make_family("askey_wilson", a1=0, a2=0, a3=0, a4=0, q=0.5)
    assert abs(inner_product(fam.phi(0), fam.phi(1), fam.domain)) < 1e-10
    # an independent route: phi_m phi_n is even and 2 pi-periodic in x, so
    # the midpoint rule on (0, pi) converges spectrally
    x = (np.arange(100) + 0.5) * math.pi / 100
    for m, n in ((0, 1), (1, 1), (0, 0)):
        val = inner_product(fam.phi(m), fam.phi(n), fam.domain)
        mid = np.sum(np.conj(fam.phi(m)(x)) * fam.phi(n)(x)) * math.pi / 100
        assert abs(val - mid) < 1e-10 * (1 + abs(mid))


def test_inner_product_divergent_raises_accuracy():
    blow = AnalyticFn(lambda x: np.exp(0.5 * x * x))
    with pytest.raises(AccuracyError):
        inner_product(blow, blow, FULL)


def test_array_call_outside_strip_raises_with_jets():
    f = from_poly([0.0, 1.0], strip_halfwidth=0.5)
    with pytest.raises(StripError):
        f(np.array([0.1, 0.2 + 0.6j]))


def test_array_call_shows_arithmetic_failures_as_non_finite():
    # one call of fn on the whole array: a failed point is non-finite, the
    # others keep their values
    f = AnalyticFn(lambda x: 1.0 / x.real)
    vals = f(np.array([2.0, 0.0, -4.0]))
    assert vals.dtype == complex
    assert vals[0] == 0.5 and vals[2] == -0.25
    assert not np.isfinite(vals[1])
    g = AnalyticFn(lambda x: np.log(x.real) + 0j)
    assert np.isnan(g(np.array([1.0, -1.0]))[1])


def _stacked(fns):
    """The stacked function (AnalyticFn.rows) whose rows are the functions fns."""
    return AnalyticFn(lambda x: np.stack([f(x) for f in fns]), rows=len(fns))


def test_inner_product_of_stacked_functions_is_the_matrix():
    fs = [GAUSS, XGAUSS]
    gs = [XGAUSS, AnalyticFn(lambda x: (x + 1j) * np.exp(-0.5 * x * x))]
    m = inner_product(_stacked(fs), _stacked(gs), FULL)
    assert m.shape == (2, 2)
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            assert abs(m[i, j] - inner_product(f, g, FULL)) < 1e-13


# -- the operator identities both chain kinds share ---------------------------------

OPERATOR_IDENTITIES = ("iso_spectral", "intertwine", "factorization", "downshift_roundtrip")
CHAIN_KINDS = [pytest.param(oqm, "hermite", {}, id="oqm"),
               pytest.param(dqm, "q_hermite", {"q": 0.5}, id="dqm")]


def _chain_and_points(chain, name, params, nmax):
    fam = make_family(name, **params)
    return chain.build_chain(fam, 2, nmax=nmax), sample_points(fam, 3, 7)


def _with(level, **changes):
    """A copy of a chain level with some attributes replaced (levels are frozen)."""
    out = copy.copy(level)
    for key, value in changes.items():
        object.__setattr__(out, key, value)
    return out


@pytest.mark.parametrize("chain,name,params", CHAIN_KINDS)
@pytest.mark.parametrize("nmax", [3, 5])
def test_operator_identities_check_the_three_highest_states(monkeypatch, chain, name, params,
                                                            nmax):
    levels, pts = _chain_and_points(chain, name, params, nmax)
    level_cls = type(levels[0])
    real_phi = level_cls.phi
    requested = []

    def phi(self, n, *args):
        requested.append(n)
        return real_phi(self, n, *args)

    monkeypatch.setattr(level_cls, "phi", phi)
    for s in (1, 2):
        for kind in OPERATOR_IDENTITIES:
            requested.clear()
            chain.relation_residual(kind, levels[: s + 1], pts)
            # the states as the rows of stacked functions, never one by one
            assert set(requested) == {range(max(s, nmax - 2), nmax + 1)}, (kind, s)


@pytest.mark.parametrize("chain,name,params", CHAIN_KINDS)
def test_operator_identities_catch_a_wrong_level_constant(chain, name, params):
    levels, pts = _chain_and_points(chain, name, params, 3)
    base, level = levels[:2]
    tol = DEFAULT_TOLERANCES
    for kind in OPERATOR_IDENTITIES:
        assert chain.relation_residual(kind, [base, level], pts) <= tol[kind], kind
    wrong = [base, _with(level, E_s=level.E_s + 1e-6)]
    for kind in ("iso_spectral", "intertwine", "factorization"):
        assert chain.relation_residual(kind, wrong, pts) > tol[kind], kind
    wrong_parent = _with(base, E_s=base.E_s + 1e-6)
    wrong = [wrong_parent, _with(level, parent=wrong_parent)]
    assert chain.relation_residual("downshift_roundtrip", wrong, pts) > tol["downshift_roundtrip"]


# -- the chain scaffold both kinds share ----------------------------------------------

@pytest.mark.parametrize("chain,name,params", CHAIN_KINDS)
def test_chain_guards_refuse_alike_on_both_kinds(chain, name, params):
    fam = make_family(name, **params)
    with pytest.raises(DomainError, match="outside tabulated range"):
        chain.level0(fam, nmax=fam.nmax + 1)
    levels = chain.build_chain(fam, 1, nmax=2)
    with pytest.raises(DomainError, match="has phi_n only for n >= 1"):
        levels[1].phi(0)
    with pytest.raises(DomainError, match="nmax"):
        levels[1].phi(3)
    with pytest.raises(ChainBreakError, match="no eigenfunctions left to lift to level 3"):
        chain.step_chain(chain.step_chain(levels[1]))
    with pytest.raises(DomainError, match="level 0 has no parent"):
        chain.downshift(levels[0], 0)
    with pytest.raises(DomainError, match="downshift needs n >= s = 1"):
        chain.downshift(levels[1], 0)


@pytest.mark.parametrize("chain,name,params", CHAIN_KINDS)
@pytest.mark.parametrize("crosses", [True, False], ids=["crossing", "touching"])
def test_step_drops_exact_zeros_of_the_seed_on_its_scan_grid(monkeypatch, chain, name, params,
                                                             crosses):
    # a seed whose zero falls exactly on the middle scan point: through it
    # the sign changes (refused, as any node is), or it only touches 0 (kept)
    fam = make_family(name, **params)
    level = chain.level0(fam)
    npoints = type(level).SCAN_POINTS
    mid = np.linspace(*level.interior(), npoints)[npoints // 2]
    seed = AnalyticFn((lambda x: x - mid) if crosses else (lambda x: np.abs(x - mid)))
    monkeypatch.setattr(type(level), "phi", lambda self, n, *x: seed.fn(*x) if x else seed)
    if crosses:
        with pytest.raises(ChainBreakError, match="changes sign"):
            chain.step_chain(level)
    else:
        assert chain.step_chain(level).s == 1
