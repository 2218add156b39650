"""Double-exponential (tanh-sinh) quadrature.

Three variants of the double-exponential substitution cover the three
physical domains (finite interval, half line, full line); the adaptive
driver halves the trapezoid step until two consecutive levels agree to the
requested tolerance.  The same level sequence doubles as a divergence
detector for non-normalizable functions.

Integrands are array functions: each refinement level calls the integrand
once, on the array of that level's new nodes, and it returns its values
there with the node axis last, so one refinement can integrate a whole stack
of integrands (a Gram matrix, say) on shared nodes.  A failure at a node
shows as a non-finite value, never as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Domain plus accuracy contract for an integral.

    kind: 'interval' (uses a, b), 'half_line' (0, inf) or 'full_line'.
    points: base number of nodes per level.
    decay_radius: for infinite domains, |x| beyond which an arithmetic
    failure of the integrand is read as underflow of a decaying tail (the
    node contributes zero) rather than as an error.
    """

    kind: str = "full_line"
    a: float = 0.0
    b: float = 0.0
    points: int = 40
    tolerance: float = 1e-11
    max_level: int = 9
    endpoint_margin: float = 1e-6
    decay_radius: float = 25.0

    def nodes_weights(self, level):
        if self.kind == "interval":
            return _de_interval(self.a, self.b, self.points, level, self.endpoint_margin)
        if self.kind == "half_line":
            return _de_half_line(self.points, level)
        if self.kind == "full_line":
            return _de_full_line(self.points, level)
        raise DomainError(f"unknown quadrature domain kind {self.kind!r}")


def _t_grid(base_points, level, t_max):
    # level 0: base grid; level L: same span, step / 2^L, reusing odd offsets
    h = 2.0 * t_max / base_points
    step = h / 2**level
    if level == 0:
        return np.arange(-base_points // 2, base_points // 2 + 1) * h, h
    # only the new midpoints of the previous level
    prev = 2.0 * t_max / (base_points * 2 ** (level - 1))
    t = np.arange(-t_max + step, t_max, prev)
    return t, step


def _de_interval(a, b, base_points, level, margin):
    t, h = _t_grid(base_points, level, t_max=3.8)
    u = np.tanh(_HALF_PI * np.sinh(t))
    w = _HALF_PI * np.cosh(t) / np.cosh(_HALF_PI * np.sinh(t)) ** 2
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * u
    # keep an epsilon away from singular endpoints
    keep = (x > a + margin * half) & (x < b - margin * half)
    return x[keep], (half * h) * w[keep]


def _de_half_line(base_points, level):
    t, h = _t_grid(base_points, level, t_max=3.6)
    x = np.exp(_HALF_PI * np.sinh(t))
    w = _HALF_PI * np.cosh(t) * x
    keep = np.isfinite(x) & (x > 0)
    return x[keep], h * w[keep]


def _de_full_line(base_points, level):
    t, h = _t_grid(base_points, level, t_max=3.2)
    x = np.sinh(_HALF_PI * np.sinh(t))
    w = _HALF_PI * np.cosh(t) * np.cosh(_HALF_PI * np.sinh(t))
    return x, h * w


def _level_sums(fn, spec, level):
    """Nodes of one refinement level, the integrand at all of them (one call),
    the weighted sums over the node axis and the mask of non-finite values.

    fn takes the node array and returns values of shape (..., nodes); the
    non-finite values are zeroed in the sums and flagged in the mask.
    """
    x, w = spec.nodes_weights(level)
    fx = np.asarray(fn(x), dtype=complex)
    bad = ~np.isfinite(fx)
    wf = w * np.where(bad, 0j, fx)
    return x, np.sum(wf, axis=-1), np.sum(np.abs(wf), axis=-1), bad


def refinement_sequence(fn, spec, levels=None):
    """Cumulative integral estimates per refinement level.

    Returns (values, diverging): the list of successive estimates and a flag
    set when the sequence grows without settling or the integrand blows up,
    which is how non-square-integrable functions announce themselves.
    """
    levels = spec.max_level if levels is None else levels
    total = None
    values = []
    diverging = False
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(levels + 1):
            _x, contrib, _abs, bad = _level_sums(fn, spec, level)
            diverging |= bool(bad.any())
            # trapezoid halving: new total = old/2 + (new step) * sum(new points)
            total = contrib if level == 0 else total / 2.0 + contrib
            values.append(total)
    # growth detection on magnitudes
    mags = [float(np.max(np.abs(v))) for v in values]
    grow = sum(1 for i in range(1, len(mags)) if mags[i] > 1.6 * mags[i - 1] + 1e-12)
    if grow >= 2 or (mags and not math.isfinite(mags[-1])):
        diverging = True
    return values, diverging


def integrate(fn, spec):
    """Adaptive integral of fn over spec's domain.

    fn is called once per refinement level on the whole node array and
    returns values of shape (..., nodes); the integral has that leading shape
    and has converged when every entry changed by at most
    tolerance * (1 + integral of |f|) from the previous level.  A non-finite
    value beyond decay_radius on an infinite domain is read as underflow of a
    decaying tail and counts as zero; anywhere else it raises AccuracyError
    naming the node.

    Returns (value, error_estimate), the estimate being the largest change
    of an entry.  Raises AccuracyError (carrying the best estimate) when
    consecutive refinements refuse to settle.
    """
    total = None
    abs_mass = 0.0   # integral of |f|; sets the resolvable scale for cancelling integrands
    prev = None
    err = math.inf
    unbounded = spec.kind in ("half_line", "full_line")
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(spec.max_level + 1):
            x, contrib, abs_contrib, bad = _level_sums(fn, spec, level)
            failed = bad.reshape(-1, x.size).any(axis=0)
            if unbounded:
                failed &= np.abs(x) <= spec.decay_radius
            if failed.any():
                node = float(x[np.argmax(failed)])
                raise AccuracyError(f"integrand not finite at node x={node:g}", best=total)
            total = contrib if level == 0 else total / 2.0 + contrib
            abs_mass = abs_contrib if level == 0 else abs_mass / 2.0 + abs_contrib
            if prev is not None:
                change = np.abs(total - prev)
                err = float(np.max(change))
                if np.all(change <= spec.tolerance * (1.0 + abs_mass)):
                    return total, err
            prev = total
    raise AccuracyError(
        f"quadrature did not converge (last change {err:.3e})", best=total
    )
