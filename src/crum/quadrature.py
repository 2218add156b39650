"""Double-exponential (tanh-sinh) quadrature over a family's domain (a, b).

The domain's infinite ends choose the double-exponential substitution: the
full line (-inf, inf), the half line (0, inf) or a finite interval a < b;
any other domain raises DomainError.  The trapezoid step is halved level by
level (`_levels`, the one refinement loop): `integrate` stops when two
consecutive levels agree to TOLERANCE, and `refinement_sequence` keeps every
level's estimate, which doubles as a divergence detector for
non-normalizable functions.

Integrands are array functions: each refinement level calls the integrand
once, on the array of that level's new nodes, and it returns its values
there with the node axis last, so one refinement can integrate a whole stack
of integrands (a Gram matrix, say) on shared nodes.  A failure at a node
shows as a non-finite value, never as an exception.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError

_HALF_PI = math.pi / 2.0
TOLERANCE = 1e-12         # relative change between levels at which integrate stops
BASE_POINTS = 40          # nodes of level 0
MAX_LEVEL = 9             # the last level integrate refines to
ENDPOINT_MARGIN = 1e-6    # share of a finite interval's half-width kept clear of each end
# |x| beyond which a non-finite integrand value on an infinite domain is read
# as underflow of a decaying tail (the node contributes zero), not as an error
DECAY_RADIUS = 25.0


def _t_grid(level, t_max):
    # level 0: base grid; level L: same span, step / 2^L, reusing odd offsets
    h = 2.0 * t_max / BASE_POINTS
    step = h / 2**level
    if level == 0:
        return np.arange(-BASE_POINTS // 2, BASE_POINTS // 2 + 1) * h, h
    # only the new midpoints of the previous level
    prev = 2.0 * t_max / (BASE_POINTS * 2 ** (level - 1))
    t = np.arange(-t_max + step, t_max, prev)
    return t, step


def nodes_weights(domain, level):
    """The new nodes of one refinement level over domain (a, b) and their
    weights, by the map the domain's infinite ends choose."""
    a, b = domain
    if a == -math.inf and b == math.inf:    # x = sinh(pi/2 sinh t)
        t, h = _t_grid(level, t_max=3.2)
        s = _HALF_PI * np.sinh(t)
        return np.sinh(s), h * (_HALF_PI * np.cosh(t) * np.cosh(s))
    if a == 0.0 and b == math.inf:          # x = exp(pi/2 sinh t)
        t, h = _t_grid(level, t_max=3.6)
        x = np.exp(_HALF_PI * np.sinh(t))
        keep = np.isfinite(x) & (x > 0)
        return x[keep], h * (_HALF_PI * np.cosh(t) * x)[keep]
    if math.isfinite(a) and math.isfinite(b) and a < b:    # x = mid + half tanh(pi/2 sinh t)
        t, h = _t_grid(level, t_max=3.8)
        s = _HALF_PI * np.sinh(t)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * np.tanh(s)
        # keep an epsilon away from singular endpoints
        keep = (x > a + ENDPOINT_MARGIN * half) & (x < b - ENDPOINT_MARGIN * half)
        return x[keep], (half * h) * (_HALF_PI * np.cosh(t) / np.cosh(s) ** 2)[keep]
    raise DomainError(f"no quadrature over ({a:g}, {b:g}): the domain must be the full "
                      "line, the half line (0, inf) or a finite interval a < b")


def _levels(fn, domain, levels):
    """Levels 0..levels of the trapezoid halving: per level its new nodes,
    the integral estimate, the estimate of the integral of |f| and the mask
    of the non-finite values among fn's values there (one call of fn on the
    new nodes, values of shape (..., nodes)); a non-finite value counts as
    zero in both estimates."""
    total = abs_total = None
    for level in range(levels + 1):
        x, w = nodes_weights(domain, level)
        fx = np.asarray(fn(x), dtype=complex)
        bad = ~np.isfinite(fx)
        wf = w * np.where(bad, 0j, fx)
        contrib, abs_contrib = np.sum(wf, axis=-1), np.sum(np.abs(wf), axis=-1)
        # trapezoid halving: new total = old/2 + (new step) * sum(new points)
        total = contrib if level == 0 else total / 2.0 + contrib
        abs_total = abs_contrib if level == 0 else abs_total / 2.0 + abs_contrib
        yield x, total, abs_total, bad


def refinement_sequence(fn, domain, levels):
    """Cumulative integral estimates of refinement levels 0..levels.

    Returns (values, diverging): the list of successive estimates and a flag
    set when the sequence grows without settling or the integrand blows up,
    which is how non-square-integrable functions announce themselves.
    """
    values = []
    diverging = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _x, total, _abs_total, bad in _levels(fn, domain, levels):
            diverging |= bool(bad.any())
            values.append(total)
    # growth detection on magnitudes
    mags = [float(np.max(np.abs(v))) for v in values]
    grow = sum(1 for i in range(1, len(mags)) if mags[i] > 1.6 * mags[i - 1] + 1e-12)
    if grow >= 2 or (mags and not math.isfinite(mags[-1])):
        diverging = True
    return values, diverging


def integrate(fn, domain):
    """Adaptive integral of fn over domain (a, b), up to level MAX_LEVEL.

    fn is called once per refinement level on the whole node array and
    returns values of shape (..., nodes); the integral has that leading shape
    and has converged when every entry changed by at most
    TOLERANCE * (1 + integral of |f|) from the previous level.  A non-finite
    value beyond DECAY_RADIUS on an infinite domain is read as underflow of a
    decaying tail and counts as zero; anywhere else it raises AccuracyError
    naming the node.

    Returns (value, error_estimate), the estimate being the largest change
    of an entry.  Raises AccuracyError (carrying the best estimate) when
    consecutive refinements refuse to settle.
    """
    prev = None
    err = math.inf
    unbounded = math.isinf(domain[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for x, total, abs_mass, bad in _levels(fn, domain, MAX_LEVEL):
            failed = bad.reshape(-1, x.size).any(axis=0)
            if unbounded:
                failed &= np.abs(x) <= DECAY_RADIUS
            if failed.any():
                node = float(x[np.argmax(failed)])
                raise AccuracyError(f"integrand not finite at node x={node:g}", best=prev)
            if prev is not None:
                change = np.abs(total - prev)
                err = float(np.max(change))
                if np.all(change <= TOLERANCE * (1.0 + abs_mass)):
                    return total, err
            prev = total
    raise AccuracyError(f"quadrature did not converge (last change {err:.3e})", best=prev)
