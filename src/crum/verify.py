"""Independent oracles and the orchestration of all residual suites.

The suite builds a chain for one family, evaluates every applicable identity
per level at seeded low-discrepancy sample points, runs the spectral oracles,
and assembles a total report: every identity appears with a residual and a
verdict, or with an explicit skip reason.  Identical seeds give bit-identical
reports (wall time aside).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .analytic import casoratian, inner_product, run_table, worst_residual, wronskian
from .errors import AccuracyError, CrumError, ParameterError, StripError
from .families import _oracle_box, _plain_params, make_family, virtual_state
from .quadrature import refinement_sequence
from . import dqm as dqm_mod
from . import oqm as oqm_mod
from . import structure as structure_mod

GOLDEN = 0.6180339887498949
_MASK64 = (1 << 64) - 1

# the spectral-element grid oracle (`grid_eigensolve`)
_GLL_ORDER = 16       # polynomial order of each element, and bandwidth of the matrix
_ELEMENTS = 10        # equal elements across the oracle box
_LAYER_RATIO = 0.15   # width ratio of successive geometric layers toward a wall
_MAX_LAYERS = 4
_WALL_U = 1e4         # an end where U exceeds this is a wall; no layer goes where it would

DEFAULT_TOLERANCES = {
    "zero_mode": 1e-9,
    "iso_spectral": 1e-8,
    "realness": 1e-9,
    "intertwine": 1e-9,
    "riccati": 1e-9,
    "factorization": 1e-9,
    "potential_wronskian": 1e-7,
    "wronskian_product": 1e-8,
    "wronskian_ratio": 1e-8,
    "downshift_roundtrip": 1e-8,
    "node_count": 0.0,
    "quadratic": 1e-9,
    "linear": 1e-8,
    "step_determinant": 1e-9,
    "check_product": 1e-7,
    "casoratian_ratio": 1e-7,
    "casoratian_jacobi": 1e-8,
    "gram": 1e-7,
    "oracle_spectrum": 1e-5,
    "virtual_zero_mode": 1e-8,
}

# tolerance of the declared shape-invariance rule's residual on the level-1 potential
_SHAPE_TOL = 1e-7


@dataclass
class RunConfig:
    """Everything a suite run depends on; JSON round-trips losslessly.

    Complex parameters are stored as [re, im], as in the report.
    """

    family: str = "hermite"
    params: dict = field(default_factory=dict)
    depth: int = 2
    nmax: int = 5
    samples: int = 20
    tolerances: dict = field(default_factory=dict)
    seed: int = 2021

    def __post_init__(self):
        for name, low in (("depth", 1), ("nmax", 0), ("samples", 1), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ParameterError(f"{name} must be >= {low}, got {value}")
        if self.depth > self.nmax:
            raise ParameterError(f"depth must be <= nmax (level s has phi_n for n >= s), "
                                 f"got depth {self.depth} and nmax {self.nmax}")
        for name, kind in (("params", numbers.Number), ("tolerances", numbers.Real)):
            table = getattr(self, name)
            if not isinstance(table, dict):
                raise ParameterError(f"{name} must be an object, got {table!r}")
            for key, value in table.items():
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ParameterError(f"{name}[{key!r}] must be a number, got {value!r}")

    def tolerance(self, name):
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def to_json(self):
        data = asdict(self)
        data["params"] = _plain_params(self.params)
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_dict(data):
        """Config from decoded JSON: a stored config or a whole report.  Keys
        that are not config fields, such as report fields or keys written by
        older versions, are ignored."""
        known = {f.name for f in fields(RunConfig)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if isinstance(kwargs.get("params"), dict):
            kwargs["params"] = {k: _complex_pair(k, v) if isinstance(v, list) else v
                                for k, v in kwargs["params"].items()}
        return RunConfig(**kwargs)


def _complex_pair(name, pair):
    """A complex parameter stored as [re, im]."""
    if len(pair) != 2 or not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                                 for t in pair):
        raise ParameterError(f"params[{name!r}] must be a number or [re, im], got {pair!r}")
    return complex(*pair)


@dataclass
class VerificationReport:
    schema: str
    family: str
    params: dict
    gamma: object
    depth: int
    seed: int
    levels: list
    oracle: dict
    shape_invariance: dict
    eta_relations: dict
    virtual_state: dict
    status: str
    lu_growth: float
    wall_time_s: float

    def to_dict(self):
        return asdict(self)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @property
    def passed(self):
        return self.status == "pass"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def grid_eigensolve(u_fn, domain, k):
    """Lowest k eigenvalues of -d^2/dx^2 + U with Dirichlet walls at the ends
    of domain, by spectral elements.

    Gauss-Lobatto-Legendre (GLL) elements of order _GLL_ORDER with the lumped
    (diagonal) GLL mass make the operator a symmetric matrix of at most 287
    rows, whose lowest k eigenvalues come from one dense LAPACK solve.
    _ELEMENTS equal elements span the domain (`_element_edges` adds geometric
    layers toward a singular wall).  u_fn maps an array of points to the real
    values of U there.  It is called twice: at the ends and the candidate
    layers, then at the interior nodes (at most 287 points); a non-finite value
    at a node raises AccuracyError.
    """
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"empty oracle box ({lo:g}, {hi:g})")
    p = _GLL_ORDER
    ref, weights, stiff = _gll()
    edges = _element_edges(u_fn, lo, hi)
    widths = np.diff(edges)
    n = p * widths.size + 1
    node = p * np.arange(widths.size)[:, None] + np.arange(p + 1)   # (element, local) -> global
    mass = np.bincount(node.ravel(), (0.5 * widths[:, None] * weights).ravel(), n)
    # M^-1/2 K M^-1/2, summed over every element's full (p+1)^2 block
    row, col = node[:, :, None], node[:, None, :]
    entries = (2.0 / widths[:, None, None]) * stiff / np.sqrt(mass[row] * mass[col])
    matrix = np.bincount((row * n + col).ravel(), entries.ravel(), n * n).reshape(n, n)
    # the nodes less the two ends, where the Dirichlet walls hold psi at 0
    inner = (edges[:-1, None] + 0.5 * widths[:, None] * (ref + 1.0))[:, :-1].ravel()[1:]
    u = np.asarray(u_fn(inner), dtype=float)
    bad = ~np.isfinite(u)
    if bad.any():
        raise AccuracyError(f"potential not finite at grid point x={inner[np.argmax(bad)]:g}")
    matrix = matrix[1:-1, 1:-1]
    matrix[np.diag_indices(n - 2)] += u
    return np.linalg.eigvalsh(matrix)[:k]


def _element_edges(u_fn, lo, hi):
    """_ELEMENTS equal elements on (lo, hi), with the element at a wall split
    into geometric layers.

    An end where U exceeds _WALL_U is a wall: there U ~ g(g-1)/x^2 and the
    eigenfunctions ~ x^g are not smooth, which layers of width ratio
    _LAYER_RATIO resolve.  Layers are added, up to _MAX_LAYERS, only while U at
    the new layer stays below _WALL_U, which bounds U on the nodes and with it
    the rounding of the eigensolve.  An end where U is moderate (a box cut off
    an infinite domain) gets no layers.
    """
    edges = np.linspace(lo, hi, _ELEMENTS + 1)
    offsets = (edges[1] - lo) * _LAYER_RATIO ** np.arange(_MAX_LAYERS + 1)
    offsets[0] = 0.0
    probes = np.r_[lo + offsets, hi - offsets]
    u = np.asarray(u_fn(probes), dtype=float).reshape(2, -1)
    for side, (end, sign) in enumerate(((lo, 1.0), (hi, -1.0))):
        if not u[side, 0] <= _WALL_U:
            layers = int(np.cumprod(u[side, 1:] <= _WALL_U).sum())
            edges = np.r_[edges, end + sign * offsets[1:layers + 1]]
    return np.sort(edges)


@functools.cache
def _gll():
    """Nodes, weights and stiffness matrix of the GLL element of order
    p = _GLL_ORDER on [-1, 1], read-only.  The inner nodes are the zeros of
    P_p', the eigenvalues of the Jacobi(1, 1) matrix (Golub-Welsch); the
    stiffness D^T W D is exact, since GLL quadrature is exact to degree 2p - 1."""
    p = _GLL_ORDER
    m = np.arange(1, p - 1)
    off = np.sqrt(m * (m + 2) / ((2 * m + 1) * (2 * m + 3)))
    inner = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    x = np.r_[-1.0, inner, 1.0]
    prev, leg = np.ones_like(x), x
    for m in range(1, p):
        prev, leg = leg, ((2 * m + 1) * x * leg - m * prev) / (m + 1)
    weights = 2.0 / (p * (p + 1) * leg**2)
    d = leg[:, None] / leg / (x[:, None] - x + np.eye(p + 1))
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[p, p] = -p * (p + 1) / 4.0, p * (p + 1) / 4.0
    tables = (x, weights, d.T @ (weights[:, None] * d))
    for t in tables:
        t.setflags(write=False)
    return tables


def gram_matrix(fns, domain):
    """Hermitian matrix of the pairwise inner products of the rows of a
    stacked function (AnalyticFn.rows), from one refinement on shared nodes:
    the stack is evaluated once per quadrature level."""
    return inner_product(fns, fns, domain)


def norm_divergence_flag(fn, domain):
    """Refine the squared-norm integral over domain (a, b) to level 6; report
    whether it settles or grows."""

    def integrand(x):
        v = fn(x)
        return (v.conj() * v).real

    values, diverging = refinement_sequence(integrand, domain, 6)
    finite = [v for v in values if math.isfinite(abs(v))]
    return {
        "estimates": [float(abs(v)) for v in values[-3:]],
        "diverging": bool(diverging),
        "final": float(abs(finite[-1])) if finite else float("inf"),
    }


def sample_points(family, count, seed, lines=(0.0,)):
    """Low-discrepancy (golden-rotation) points on the central 90% of the
    domain, replicated on the requested horizontal lines."""
    lo, hi = family.interior(0.9)
    offset = _seed_offset(seed)
    base = [(lo + ((offset + GOLDEN * k) % 1.0) * (hi - lo)) for k in range(count)]
    pts = []
    for im in lines:
        pts.extend(complex(t, im) for t in base)
    return pts


def _seed_offset(seed):
    """Offset in [0, 1) of the golden rotation: the seed through the splitmix64
    finalizer (a bijection of 64-bit integers), so that distinct seeds, nearby
    ones included, get unrelated offsets."""
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) / 2.0**53


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ChainKind:
    """What the suite driver needs to know about one kind of chain.

    Chain functions and tables are reached through `chain` (a module) when
    called, never stored, so a rebinding of a module attribute reaches them.
    """

    chain: object               # the chain module: oqm or dqm
    point_sets: Callable        # (family, config) -> sample sets to try in order; the last is the real axis
    growth_det: Callable        # (family, s) -> x -> (determinant, LU growth)
    oracle: Callable            # (family, levels, config) -> (block, ok)
    eta_tol: float              # tolerance of the coordinate relations


@run_table()    # each run its own table of chain values and level-0 determinants
def run_suite(config: RunConfig):
    t0 = time.perf_counter()
    family = make_family(config.family, **config.params)
    if config.nmax > family.nmax:
        raise ParameterError(f"nmax must be <= {family.nmax} for {family.name}, "
                             f"got {config.nmax}")
    kind = _KINDS[family.kind]
    levels = kind.chain.build_chain(family, config.depth, nmax=config.nmax)
    point_sets = kind.point_sets(family, config)
    axis = point_sets[-1]
    verdicts = []
    level_blocks = []

    for s, level in enumerate(levels):
        identities = {name: _identity(kind, name, levels[: s + 1], entry.sampled,
                                      point_sets, config)
                      for name, entry in kind.chain.IDENTITIES.items() if s >= entry.first_level}
        gram = _gram_block(family, levels, s, config)
        verdicts += [entry["pass"] for entry in identities.values()]
        verdicts.append(gram.get("pass"))
        level_blocks.append({"s": s, "E_s": float(level.E_s),
                             "identities": identities, "gram": gram})

    oracle, oracle_ok = kind.oracle(family, levels, config)
    shape = _shape_block(family, levels)
    eta_rel, eta_verdict = _eta_block(family, levels, axis, kind)
    virt = _virtual_block(family, levels, config, axis, kind.chain)
    verdicts += [oracle_ok, shape["pass"], eta_verdict, virt["pass"]]
    growth = _growth_scan(kind.growth_det(family, config.depth), axis)

    desc = family.descriptor()
    return VerificationReport(
        schema="crum-report/1", family=family.name, params=desc["params"],
        gamma=desc["gamma"], depth=config.depth, seed=config.seed, levels=level_blocks,
        oracle=oracle, shape_invariance=shape, eta_relations=eta_rel, virtual_state=virt,
        status=_status(verdicts), lu_growth=float(growth),
        wall_time_s=time.perf_counter() - t0)


def _status(verdicts):
    """fail if any check failed; incomplete if checks were skipped but none
    failed; pass only when every check ran and passed."""
    if any(v is not None and not v for v in verdicts):
        return "fail"
    return "incomplete" if any(v is None for v in verdicts) else "pass"


def _identity(kind, name, chain, sampled, point_sets, config):
    """The entry of the deepest level of `chain`, from the first sample set
    whose shifted points stay inside the strip; a chain error is a skip."""
    for pts in point_sets:
        try:
            res = kind.chain.relation_residual(name, chain, pts)
        except StripError:
            continue
        except CrumError as exc:
            return _skip(f"{type(exc).__name__}: {exc}")
        return _entry(res, config.tolerance(name), len(pts) if sampled else 1)
    return _skip("no strip-feasible sample points at this depth")


def _entry(residual, tol, samples):
    return {"residual": float(residual), "tol": float(tol), "pass": bool(residual <= tol),
            "samples": int(samples)}


def _skip(reason):
    return {"residual": None, "tol": None, "pass": None, "skipped": reason}


def _growth_scan(det, pts):
    """Largest LU element-growth factor of the deepest determinant over the
    first five sample points, from one stacked determinant; inf when it is
    not finite.  The points share Im x = 0, so their shifts leave the strip
    for all of them or for none; then there is no growth to report, and 1."""
    try:
        growth = det(np.asarray(pts[:5], dtype=complex))[1]
    except StripError:
        return 1.0
    return max(1.0, worst_residual([growth]))


def _axis_points(family, config):
    return [sample_points(family, config.samples, config.seed)]


def _strip_points(family, config):
    """Points on five lines across the strip, then the real axis as the
    fallback for identities whose shifted points leave the strip."""
    g = family.gamma
    lines = (0.0, 0.5 * g, -0.5 * g, g, -g)
    return [sample_points(family, max(4, config.samples // len(lines)), config.seed, lines),
            sample_points(family, config.samples, config.seed)]


def _gram_block(family, levels, s, config):
    ns = range(s, min(config.nmax, s + 3) + 1)
    if len(ns) < 2:
        return {"skipped": "fewer than two levels in range"}
    try:
        g = gram_matrix(levels[s].phi(ns), family.domain)
    except AccuracyError as exc:
        return {"skipped": f"quadrature: {exc}"}
    herm_defect = float(np.max(np.abs(g - g.conj().T)))
    # the norms scale along the chain by the product of (E_n - E_k), k < s
    expected = np.asarray([family.hnorm(n) * math.prod(family.energy(n) - family.energy(k)
                                                       for k in range(s)) for n in ns])
    diag = np.real(np.diag(g))
    off = g - np.diag(np.diag(g))
    scale = np.sqrt(np.outer(np.abs(diag), np.abs(diag)))
    off_rel = float(np.max(np.abs(off) / (1e-300 + scale)))
    diag_rel = float(np.max(np.abs(diag - expected) / np.abs(expected)))
    tol = config.tolerance("gram")
    ok = off_rel <= tol and diag_rel <= tol and herm_defect <= 1e-12 * (1 + float(np.max(np.abs(g))))
    return {
        "ns": list(ns),
        "diag": [float(d) for d in diag],
        "expected_diag": [float(e) for e in expected],
        "max_offdiag_rel": off_rel,
        "max_diag_rel_err": diag_rel,
        "hermiticity_defect": herm_defect,
        "tol": tol,
        "pass": bool(ok),
    }


def _oracle_oqm(family, levels, config):
    block = {}
    ok = True
    tol = config.tolerance("oracle_spectrum")
    u = levels[1].potential()
    grids = (family.oracle_levels(), grid_eigensolve(lambda t: u(t).real, _oracle_box(family), 3))
    for s, grid in enumerate(grids):
        shifted = [float(e + levels[s].E_s) for e in grid]
        expected = [family.energy(n) for n in range(s, s + 3)]
        errs = [abs(a - b) / (1.0 + abs(b)) for a, b in zip(shifted, expected)]
        this_ok = max(errs) <= tol
        parent_ground_absent = True
        if s == 1:
            parent_ground_absent = abs(shifted[0] - family.energy(0)) > 0.5 * abs(
                family.energy(1) - family.energy(0))
        block[f"level{s}"] = {
            "grid_spectrum": shifted, "closed_form": expected,
            "max_rel_err": float(max(errs)), "tol": tol,
            "parent_ground_absent": bool(parent_ground_absent),
            "pass": bool(this_ok and parent_ground_absent),
        }
        ok &= this_ok and parent_ground_absent
    return block, ok


def _oracle_dqm(family, levels, config):
    """The family's level-0 difference-equation fit (`oracle_levels`), n <= min(nmax, 4)."""
    block = {"levels": {}}
    ok = True
    for n, e_fit in enumerate(family.oracle_levels()[:config.nmax + 1]):
        e_closed = family.energy(n)
        err = abs(e_fit - e_closed) / (1.0 + abs(e_closed))
        this_ok = err <= config.tolerance("oracle_spectrum")
        block["levels"][str(n)] = {"fit": e_fit, "closed_form": e_closed,
                                   "rel_err": float(err), "pass": bool(this_ok)}
        ok &= this_ok
    return block, ok


def _shape_block(family, levels):
    """The declared shape-invariance rule on the level-1 potential
    (structure.shape_invariance_residual) and the spectrum summed along its
    parameter orbit (structure.si_spectrum) against the closed form."""
    check = structure_mod.shape_invariance_residual(family, levels)
    block = {
        "converged": check.converged,
        "kappa": check.kappa,
        "shifted_params": _plain_params(check.params),
        "max_residual": check.max_residual if math.isfinite(check.max_residual) else None,
        "tol": _SHAPE_TOL,
    }
    spec_ok = True
    rows = {}
    for n in range(0, 9):
        closed = family.energy(n)
        summed = structure_mod.si_spectrum(family, n)
        err = abs(summed - closed) / (1.0 + abs(closed))
        rows[str(n)] = float(err)
        spec_ok &= err <= 1e-10
    block["spectrum_rel_err"] = rows
    block["spectrum_pass"] = bool(spec_ok)
    block["pass"] = bool(check.converged and check.max_residual <= _SHAPE_TOL and spec_ok)
    return block


def _eta_block(family, levels, pts, kind):
    """The coordinate relations; returns the block and its verdict (None when
    a relation was skipped and none failed).  A chain error is a skip."""
    block = {}
    ok = True
    skipped = False
    for name in structure_mod.ETA_RELATIONS[family.kind]:
        try:
            res = structure_mod.eta_relations_residual(name, family, levels, pts)
        except CrumError as exc:
            block[name] = f"skipped: {type(exc).__name__}: {exc}"
            skipped = True
            continue
        block[name] = float(res)
        ok &= res <= kind.eta_tol
    block["tol"] = kind.eta_tol
    block["pass"] = bool(ok)
    return block, (None if skipped and ok else bool(ok))


def _virtual_block(family, levels, config, pts, chain):
    """The excluded zero mode: annihilated by the raising factor, flagged out
    of the Hilbert space by the norm-refinement scan."""
    phi_prime = virtual_state(family)
    up = chain.apply_Adag(levels[0], phi_prime)
    xs = np.asarray(pts, dtype=complex)
    phi_x = phi_prime(xs)
    # a pole of the virtual state at a sample scales its residual there to 0, so it fails here
    res = worst_residual([np.abs(up(xs)) / (1.0 + np.abs(phi_x)),
                          np.where(np.isfinite(phi_x), 0.0, np.inf)])
    flag = norm_divergence_flag(phi_prime, family.domain)
    tol = config.tolerance("virtual_zero_mode")
    ok = res <= tol
    return {
        "annihilation_residual": float(res),
        "tol": tol,
        "norm_refinement": flag,
        "norm_divergence_flag": bool(flag["diverging"]),
        "pass": bool(ok),
    }


_KINDS = {
    "oqm": _ChainKind(
        chain=oqm_mod,
        point_sets=_axis_points,
        growth_det=lambda family, s: lambda x: wronskian([family.phi(range(s))], x, info=True),
        oracle=_oracle_oqm,
        eta_tol=1e-8,
    ),
    "dqm": _ChainKind(
        chain=dqm_mod,
        point_sets=_strip_points,
        growth_det=lambda family, s: lambda x: casoratian([family.phi(range(s + 1))], x,
                                                          family.gamma, info=True),
        oracle=_oracle_dqm,
        eta_tol=1e-7,
    ),
}
