import math

import numpy as np
import pytest

from crum import make_family, structure, verify
from crum.analytic import worst_residual
from crum.errors import ParameterError
from crum.families import ShapeData, _shift_avals
from crum.structure import LimitScaling

from conftest import AW_PARAMS, SCALAR_ETA_RELATIONS, overall_slope, shape_fit


def _pts(fam, count=20):
    lo, hi = fam.interior()
    return [complex(t) for t in np.linspace(lo, hi, count)]


# -- shape invariance -----------------------------------------------------------

def test_hermite_shape_fit(hermite, hermite_chain):
    fit = structure.shape_invariance_residual(hermite, hermite_chain)
    assert fit.converged
    assert fit.kappa == 1.0
    assert fit.params == {"shift": 2.0}
    assert fit.max_residual <= 1e-8


def test_q_hermite_shape_fit(q_hermite, q_hermite_chain):
    fit = structure.shape_invariance_residual(q_hermite, q_hermite_chain)
    assert fit.converged
    assert fit.kappa == 2.0
    assert fit.max_residual <= 1e-8


def test_aw_shape_fit(askey_wilson, askey_wilson_chain):
    fit = structure.shape_invariance_residual(askey_wilson, askey_wilson_chain)
    assert fit.converged
    assert fit.kappa == 1.0 / 0.6
    assert fit.max_residual <= 1e-7
    root_q = math.sqrt(0.6)
    for key in ("a1", "a2", "a3", "a4"):
        assert fit.params[key] == complex(askey_wilson.params[key]) * root_q


@pytest.mark.parametrize("name", ["hermite", "laguerre", "jacobi", "q_hermite", "askey_wilson"])
def test_shape_fit_oracle_recovers_the_declared_rule(name, request):
    # the Gauss-Newton fit never reads family.shape: it finds the rule the
    # level-1 potential obeys, which must be the declared one
    family = request.getfixturevalue(name)
    fit = shape_fit(family, request.getfixturevalue(f"{name}_chain"))
    assert fit.converged and fit.max_residual <= 1e-7
    shape = family.shape
    declared = shape.si(family.params)
    if family.kind == "oqm":
        declared["shift"] = shape.e1(family.params)
    assert abs(fit.kappa - shape.kappa) <= 1e-7
    assert fit.params.keys() == declared.keys()
    for key, value in declared.items():
        assert abs(complex(fit.params[key]) - complex(value)) <= 1e-7, key


# one wrong declared rule per family: (family, params, the ShapeData field, its
# wrong value given the family's true shape)
WRONG_RULES = {
    "hermite-e1": ("hermite", {}, "e1", lambda shape: lambda p: 3.0),
    "laguerre-si": ("laguerre", {"g": 3.0}, "si", lambda shape: lambda p: {"g": p["g"] + 2.0}),
    "jacobi-si": ("jacobi", {"g": 2.0}, "si", lambda shape: lambda p: {"g": p["g"] + 2.0}),
    "q_hermite-kappa": ("q_hermite", {"q": 0.5}, "kappa", lambda shape: shape.kappa ** 2),
    "askey_wilson-si": ("askey_wilson", AW_PARAMS, "si",
                        lambda shape: lambda p: _shift_avals(p, p["q"])),
}


@pytest.mark.parametrize("case", sorted(WRONG_RULES))
def test_a_wrong_declared_rule_fails_the_shape_block(monkeypatch, case):
    name, params, key, wrong = WRONG_RULES[case]

    def with_wrong_rule(family_name, **kwargs):
        family = make_family(family_name, **kwargs)
        family.shape = ShapeData(**{**vars(family.shape), key: wrong(family.shape)})
        return family

    monkeypatch.setattr(verify, "make_family", with_wrong_rule)
    rep = verify.run_suite(verify.RunConfig(family=name, params=params, depth=1, nmax=3,
                                            samples=4, seed=7))
    block = rep.shape_invariance
    assert block["converged"] is True
    assert block["max_residual"] > block["tol"]
    assert block["pass"] is False
    assert rep.status == "fail"


def test_a_refused_declared_rule_fails_the_suite(monkeypatch, hermite_chain):
    # the family refuses the declared shifted parameters: a failed verdict;
    # any other error from the constructor is a defect and propagates.  The
    # families are fresh, since a family keeps the shifted family it built
    from crum import families

    def refuse(*args, **kwargs):
        raise ParameterError("injected")

    monkeypatch.setattr(families, "make_family", refuse)
    check = structure.shape_invariance_residual(make_family("hermite"), hermite_chain)
    assert not check.converged
    assert check.max_residual == math.inf
    rep = verify.run_suite(verify.RunConfig(family="hermite", depth=1, nmax=3, samples=4,
                                            seed=7))
    assert rep.shape_invariance["pass"] is False
    assert rep.status == "fail"

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(families, "make_family", broken)
    with pytest.raises(TypeError, match="injected"):
        structure.shape_invariance_residual(make_family("hermite"), hermite_chain)


def test_operator_level_shape_invariance(q_hermite, q_hermite_chain):
    # apply both sides of the factor-reordering identity to test functions
    from crum import dqm
    fam2 = make_family("q_hermite", q=0.5)       # same parameters (self-similar map)
    kappa = 1.0 / q_hermite.q
    e1 = q_hermite.energy(1)
    lvl = dqm.level0(q_hermite)
    lvl2 = dqm.level0(fam2)
    tests = [q_hermite.phi(n).fn for n in (1, 2, 3)]
    # scaled sub-level operator: kappa Adag(l') A(l') needs the shifted-V factors,
    # which for this family coincide with the base ones up to the kappa scale
    for f in tests:
        lhs = dqm.apply_A(lvl, dqm.apply_Adag(lvl, f))
        rhs_inner = dqm.apply_Adag(lvl2, dqm.apply_A(lvl2, lambda x: f(x)))
        for x in _pts(q_hermite, 10):
            left = lhs(x)
            right = kappa * rhs_inner(x) + e1 * f(x)
            assert abs(left - right) <= 1e-8 * (1 + abs(left))


# -- spectrum from the orbit ------------------------------------------------------------

def test_si_spectrum_zero_level(q_hermite):
    assert structure.si_spectrum(q_hermite, 0) == 0.0


def test_si_spectrum_q_hermite_example(q_hermite):
    assert structure.si_spectrum(q_hermite, 2) == pytest.approx(3.0, abs=1e-12)


def test_si_spectrum_hermite(hermite):
    for n in range(9):
        assert structure.si_spectrum(hermite, n) == pytest.approx(2.0 * n, abs=1e-12)


@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_si_spectrum_matches_family(name, request):
    fam = request.getfixturevalue(name)
    for n in range(9):
        closed = fam.energy(n)
        assert abs(structure.si_spectrum(fam, n) - closed) <= 1e-10 * (1 + abs(closed))


# -- sinusoidal-coordinate relations ---------------------------------------------------

@pytest.mark.parametrize("name", ["q_hermite", "askey_wilson"])
def test_eta_affine(name, request):
    fam = request.getfixturevalue(name)
    chain = request.getfixturevalue(name + "_chain")
    assert structure.eta_relations_residual("eta_affine", fam, chain, _pts(fam)) <= 1e-10


def test_v1_from_eta_q_hermite(q_hermite, q_hermite_chain):
    res = structure.eta_relations_residual("V1_from_eta", q_hermite, q_hermite_chain,
                                           _pts(q_hermite, 20))
    assert res <= 1e-9


@pytest.mark.parametrize("name,tol", [("q_hermite", 1e-8), ("askey_wilson", 1e-7)])
def test_eta_level_affine(name, tol, request):
    fam = request.getfixturevalue(name)
    chain = request.getfixturevalue(name + "_chain")
    # the relation checks the deepest level of the chain it is given
    for s in range(1, len(chain)):
        assert structure.eta_relations_residual("eta_level", fam, chain[: s + 1],
                                                _pts(fam, 12)) <= tol


@pytest.mark.parametrize("name,tol", [("q_hermite", 1e-8), ("askey_wilson", 1e-7)])
def test_vs_product(name, tol, request):
    fam = request.getfixturevalue(name)
    chain = request.getfixturevalue(name + "_chain")
    # the relation checks the deepest level of the chain it is given
    for s in range(1, len(chain)):
        assert structure.eta_relations_residual("Vs_product", fam, chain[: s + 1],
                                                _pts(fam, 12)) <= tol


@pytest.mark.parametrize("name", ["hermite", "laguerre", "q_hermite", "askey_wilson"])
def test_eta_relations_on_arrays_match_the_point_rule(name, request):
    fam = request.getfixturevalue(name)
    chain = request.getfixturevalue(name + "_chain")
    pts = verify.sample_points(fam, 20, 7)
    for kind, entry in structure.ETA_RELATIONS[fam.kind].items():
        for s in range(entry.first_level, 3):
            array = structure.eta_relations_residual(kind, fam, chain[: s + 1], pts)
            scalar = worst_residual(SCALAR_ETA_RELATIONS[kind](chain[: s + 1], pts))
            assert abs(array - scalar) <= 1e-12, (kind, s, array, scalar)


def test_eta_undeclared_capability():
    from crum.errors import DomainError
    with pytest.raises(DomainError):
        structure.eta_relations_residual("V1_from_eta", object.__new__(_FakeOqm), [], [])


class _FakeOqm:
    kind = "oqm"


# -- limits ------------------------------------------------------------------------------

def test_gamma_scan_measures_quadratic_decay():
    # the scaled shifted determinant is an even function of the shift, so
    # the true convergence order is two; polynomial-only sets are exact
    table = structure.limit_check("gamma_to_0")
    assert table.flags["{1,x}"] == "exact"
    for label in ("{x,gauss}", "{1,x,gauss}"):
        assert table.flags[label] == "ok"
        assert abs(table.slopes[label] - 2.0) < 0.3
    assert abs(overall_slope(table) - 2.0) < 0.3


def test_gamma_scan_errors_bounded_first_order():
    # O(gamma) bound from the module contract (decay is in fact quadratic)
    table = structure.limit_check("gamma_to_0", function_sets=[["x", "gauss"]])
    for row in table.rows:
        assert row.max_error <= 1.0 * row.parameter


def test_c_scan_first_order_with_complex_coefficient():
    table = structure.limit_check("c_to_inf")
    for label, slope in table.slopes.items():
        assert table.flags[label] == "ok"
        assert abs(slope - 1.0) <= 0.25
    assert abs(overall_slope(table) - 1.0) <= 0.25


def test_c_scan_star_real_coefficient_cancels_first_order():
    # with w1 star-real the 1/c correction cancels identically and the
    # measured decay is second order (the scan reports it faithfully)
    config = LimitScaling(w1=lambda x: x)
    table = structure.limit_check("c_to_inf", config)
    slopes = [table.slopes[k] for k in table.slopes if table.flags[k] == "ok"]
    assert slopes and all(abs(s - 2.0) < 0.4 for s in slopes)


def _assert_scan_fails_closed(table):
    assert table.rows and all(row.max_error == math.inf for row in table.rows)
    assert not {"exact", "ok"} & set(table.flags.values())


def test_c_scan_nan_everywhere_fails_closed():
    nan = float("nan")
    _assert_scan_fails_closed(structure.limit_check("c_to_inf",
                                                    LimitScaling(w1=lambda x: complex(nan, 0))))


def test_c_scan_nan_at_some_samples_fails_closed():
    # NaN only where |Re x| >= 1: some of the scan's points on [-1.2, 1.2]
    def w1(x):
        return np.where(np.abs(x.real) >= 1, complex(math.nan, 0), x + 0.3j * x * x)

    # the same NaN points as the per-point rule it stands for
    xs = np.linspace(-1.2, 1.2, 10).astype(complex)
    per_point = [math.nan if abs(x.real) >= 1 else 0.0 for x in xs.tolist()]
    assert np.array_equal(np.isnan(w1(xs)), np.isnan(per_point))
    assert 0 < np.isnan(per_point).sum() < len(xs)
    _assert_scan_fails_closed(structure.limit_check("c_to_inf", LimitScaling(w1=w1)))


def test_c_scan_calls_w1_on_arrays_only():
    # per c and test function one A and one H evaluation on the scan's
    # point array, and W'' from one Cauchy jet: no call per point
    shapes = []

    def w1(x):
        shapes.append(np.shape(x))
        return x + 0.3j * x * x

    table = structure.limit_check("c_to_inf", LimitScaling(w1=w1))
    assert set(table.flags.values()) == {"ok"}
    assert 0 < len(shapes) <= 40
    assert all(len(shape) >= 1 and math.prod(shape) >= 10 for shape in shapes)


@pytest.mark.parametrize("mode,values", [("c_to_inf", (1000.0, 10.0, 100.0)),
                                         ("c_to_inf", (1000.0, 100.0, 10.0)),
                                         ("gamma_to_0", (0.001, 0.1, 0.01)),
                                         ("gamma_to_0", (0.001, 0.01, 0.1))])
def test_limit_scan_slope_and_flag_do_not_depend_on_the_order_of_the_values(mode, values):
    # the exponent's sign and the monotonicity come from the limit's
    # direction (gamma -> 0, c -> infinity), not from the first two values;
    # the rows keep the order given
    def scan(vals):
        if mode == "c_to_inf":
            return structure.limit_check(mode, LimitScaling(c_values=vals))
        return structure.limit_check(mode, gammas=vals)

    table, ref = scan(values), scan(tuple(sorted(values)))
    assert table.flags == ref.flags and "ok" in table.flags.values()
    assert "inconclusive" not in table.flags.values()
    for label, slope in ref.slopes.items():
        assert slope > 0.5 or ref.flags[label] == "exact"
        assert table.slopes[label] == pytest.approx(slope, rel=1e-12)
    assert [row.parameter for row in table.rows if row.label == table.rows[0].label] == \
        list(values)


@pytest.mark.parametrize("values", [(), (0.1,), (0.0, 0.1), (-0.1, 0.01),
                                    (math.nan, 0.1), (0.1, math.inf), (0.1, 0.1),
                                    (0.1, 0.1, 0.01)])
def test_limit_scan_refuses_values_outside_the_domain(values):
    with pytest.raises(ParameterError):
        structure.limit_check("gamma_to_0", gammas=values)
    with pytest.raises(ParameterError):
        structure.limit_check("c_to_inf", LimitScaling(w1=lambda x: x, c_values=values))


def test_limit_scaling_expansion_invariant():
    # V(x; c) = 1 + i w1(x)/c with no remainder, and minus the star-real
    # part of w1 is W' (real on the real axis)
    config = LimitScaling()
    xs = np.linspace(-1.2, 1.2, 7) + 0.05j
    w1 = xs + 0.3j * xs * xs
    for c in config.c_values:
        assert np.allclose(config.potential(c)(xs), 1.0 + 1j * w1 / c, rtol=1e-15, atol=0.0)
    real_axis = np.linspace(-1.2, 1.2, 7).astype(complex)
    assert np.allclose(config.w_prime(real_axis), -real_axis.real, rtol=0.0, atol=1e-15)


def test_csv_rows_schema():
    table = structure.limit_check("gamma_to_0", function_sets=[["x", "gauss"]])
    rows = structure.emit_csv_rows(table)
    assert {"mode", "label", "parameter", "max_error", "fitted_slope", "flag"} <= set(rows[0])
    assert all(r["mode"] == "gamma_to_0" for r in rows)
