"""Special functions: the infinite q-Pochhammer symbol.

`QPOCH_TAIL` is the truncation threshold shared with the families'
ground-state log-sums, where it sets the length of the q-series that sums
each product's tail; `qpochhammer_inf` is their independent oracle.
"""

from __future__ import annotations

from .errors import DomainError

QPOCH_TAIL = 1e-17


def qpochhammer_inf(a, q):
    """(a;q)_inf as a truncated product; terms stop once |a q^N| < 1e-17."""
    q = complex(q)
    if abs(q) >= 1:
        raise DomainError(f"q-Pochhammer (a;q)_inf requires |q| < 1, got |q|={abs(q):g}")
    a = complex(a)
    result = 1.0 + 0j
    term = a
    # geometric decay: the neglected tail multiplies the result by
    # 1 + O(|a q^N|/(1-|q|)), below double precision at the stop threshold
    while abs(term) >= QPOCH_TAIL:
        result *= 1.0 - term
        term *= q
    return result
