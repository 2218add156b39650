"""Fail-closed checks of crum outputs.

A suite report's `status` and `pass` fields are not trusted: every verdict is
recomputed from the stored residual against the tolerance in this file (or
the report's own, if tighter).  A missing or non-finite residual, a skip, or
a `"skipped: ..."` string is a failure.  Each function returns
(attempted, failures), where failures is a list of short messages.
"""

from __future__ import annotations

import math

# the suite's default tolerances (crum.verify.DEFAULT_TOLERANCES at the
# commit that defined this benchmark); a report may be tighter, never looser
TOLERANCES = {
    "zero_mode": 1e-9, "iso_spectral": 1e-8, "realness": 1e-9, "intertwine": 1e-9,
    "riccati": 1e-9, "factorization": 1e-9, "potential_wronskian": 1e-7,
    "wronskian_product": 1e-8, "wronskian_ratio": 1e-8, "downshift_roundtrip": 1e-8,
    "node_count": 0.0, "quadratic": 1e-9, "linear": 1e-8, "step_determinant": 1e-9,
    "check_product": 1e-7, "casoratian_ratio": 1e-7, "casoratian_jacobi": 1e-8,
    "gram": 1e-7, "oracle_spectrum": 1e-5, "virtual_zero_mode": 1e-8,
}
SHAPE_TOL = 1e-7
SHAPE_SPECTRUM_TOL = 1e-10
ETA_TOL = 1e-7
VS_PRODUCT_TOL = 1e-7


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, where, value, tol, report_tol=None):
        """One verdict: value must be a finite number no larger than tol."""
        self.attempted += 1
        if isinstance(report_tol, (int, float)) and math.isfinite(report_tol):
            tol = min(tol, report_tol)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.failures.append(f"{where}: no residual ({value!r})")
        elif not math.isfinite(value):
            self.failures.append(f"{where}: non-finite residual {value}")
        elif not value <= tol:
            self.failures.append(f"{where}: residual {value:.3e} > tol {tol:.3e}")

    def require(self, where, ok):
        self.attempted += 1
        if ok is not True:
            self.failures.append(f"{where}: {ok!r}")


def _skips(node, path, out):
    if isinstance(node, dict):
        for key, val in node.items():
            if key == "skipped":
                out.append(f"{path}: skipped ({val})")
            else:
                _skips(val, f"{path}.{key}", out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _skips(val, f"{path}[{i}]", out)
    elif isinstance(node, str) and node.startswith("skipped"):
        out.append(f"{path}: {node}")


def check_report(report):
    """Recompute every verdict of a `crum-report/1` dict."""
    t = _Tally()
    skips = []
    _skips(report, "report", skips)
    t.attempted += 1
    if skips:
        t.failures.append("; ".join(skips))

    t.require("status", report.get("status") == "pass")
    for block in report.get("levels", []):
        s = block.get("s")
        for kind, entry in block.get("identities", {}).items():
            t.check(f"level{s}.{kind}", entry.get("residual"), TOLERANCES[kind],
                    entry.get("tol"))
        gram = block.get("gram", {})
        if "ns" in gram:
            t.check(f"level{s}.gram.offdiag", gram.get("max_offdiag_rel"),
                    TOLERANCES["gram"], gram.get("tol"))
            t.check(f"level{s}.gram.diag", gram.get("max_diag_rel_err"),
                    TOLERANCES["gram"], gram.get("tol"))
            diag = gram.get("diag") or [math.inf]
            t.check(f"level{s}.gram.hermiticity", gram.get("hermiticity_defect"),
                    1e-12 * (1.0 + max(abs(d) for d in diag)))

    oracle = report.get("oracle", {})
    for name, row in oracle.items():
        if name == "levels":
            for n, sub in row.items():
                t.check(f"oracle.n{n}", sub.get("rel_err"), TOLERANCES["oracle_spectrum"])
        else:
            t.check(f"oracle.{name}", row.get("max_rel_err"), TOLERANCES["oracle_spectrum"],
                    row.get("tol"))
            t.require(f"oracle.{name}.parent_ground_absent", row.get("parent_ground_absent"))

    shape = report.get("shape_invariance", {})
    t.require("shape.converged", shape.get("converged"))
    t.check("shape.residual", shape.get("max_residual"), SHAPE_TOL, shape.get("tol"))
    for n, err in shape.get("spectrum_rel_err", {}).items():
        t.check(f"shape.spectrum{n}", err, SHAPE_SPECTRUM_TOL)

    eta = report.get("eta_relations", {})
    for kind, val in eta.items():
        if kind not in ("tol", "pass"):
            t.check(f"eta.{kind}", val, ETA_TOL, eta.get("tol"))

    virt = report.get("virtual_state", {})
    t.check("virtual.annihilation", virt.get("annihilation_residual"),
            TOLERANCES["virtual_zero_mode"], virt.get("tol"))
    t.check("lu_growth", report.get("lu_growth"), math.inf)
    return t.attempted, t.failures


def relative_error(a, b):
    """|a - b| / (1 + |b|), the suite's normalisation; inf unless both finite."""
    a, b = complex(a), complex(b)
    if not (math.isfinite(abs(a)) and math.isfinite(abs(b))):
        return math.inf
    return abs(a - b) / (1.0 + abs(b))


def vs_product(levels, s, x):
    """V^[s](x) from the base potential through the telescoped eta product
    (the closed form structure's `Vs_product` identity checks)."""
    fam = levels[0].family
    g = fam.gamma
    eta = fam.eta().fn
    y = complex(x) - 0.5j * s * g
    prod = levels[0].v(y)
    for k in range(s):
        prod *= (eta(y - 1j * g) - eta(y + 1j * k * g)) / (eta(y) - eta(y + 1j * (k + 1) * g))
    return prod
