"""Truncated Taylor ("jet") arithmetic on complex scalars or numpy arrays.

A jet stores the coefficients c_0..c_K of f around an anchor point, with
c_k = f^(k)(anchor)/k!.  All binary operations truncate at the smaller
order.  Coefficients may be scalars or same-shaped numpy arrays, which
makes grid-batched evaluation (node scans etc.) cheap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, PoleError


class Jet:
    __slots__ = ("anchor", "coeffs")

    def __init__(self, anchor, coeffs):
        self.anchor = anchor
        self.coeffs = list(coeffs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def variable(x, order):
        """Jet of the identity map at x, its value complex even at a real x,
        so that the elementary functions take their complex branch there."""
        zero = _zero_like(x)
        c = [zero] * (order + 1)
        c[0] = x * (1.0 + 0j)
        if order >= 1:
            c[1] = zero + 1.0
        return Jet(x, c)

    @staticmethod
    def const(value, x, order):
        zero = _zero_like(x)
        return Jet(x, [value + zero] + [zero] * order)

    # -- basic queries -------------------------------------------------
    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def deriv(self, k):
        """k-th derivative value f^(k)(anchor)."""
        if k > self.order:
            raise CapabilityError(f"jet of order {self.order} has no deriv {k}")
        return self.coeffs[k] * float(math.factorial(k))

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self.anchor, self.coeffs[: order + 1])

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return Jet(self.anchor, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return Jet(self.anchor, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.anchor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(n + 1):
                s = a[0] * b[k]
                for j in range(1, k + 1):
                    s = s + a[j] * b[k - j]
                out.append(s)
            return Jet(self.anchor, out)
        return Jet(self.anchor, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            out = [a[0] / b[0]]
            for k in range(1, n + 1):
                s = a[k]
                for j in range(k):
                    s = s - out[j] * b[k - j]
                out.append(s / b[0])
            return Jet(self.anchor, out)
        return Jet(self.anchor, [c / other for c in self.coeffs])

    def __rtruediv__(self, other):
        return Jet.const(other, self.anchor, self.order) / self

    # -- calculus --------------------------------------------------------
    def derivative(self):
        """Jet of f', one order lower."""
        if self.order == 0:
            raise CapabilityError("cannot differentiate an order-0 jet")
        return Jet(self.anchor, [(k + 1) * self.coeffs[k + 1] for k in range(self.order)])

    # -- elementary functions ---------------------------------------------
    def exp(self):
        u = self.coeffs
        out = [np.exp(u[0])]
        for k in range(1, self.order + 1):
            s = 0.0
            for j in range(1, k + 1):
                s = s + j * u[j] * out[k - j]
            out.append(s / k)
        return Jet(self.anchor, out)

    def log(self):
        u = self.coeffs
        if not isinstance(u[0], np.ndarray) and u[0] == 0:    # an array gets -inf there
            raise PoleError(f"log of a function that vanishes at x={self.anchor}")
        out = [np.log(u[0])]
        for k in range(1, self.order + 1):
            s = k * u[k]
            for j in range(1, k):
                s = s - j * out[j] * u[k - j]
            out.append(s / (k * u[0]))
        return Jet(self.anchor, out)

    def sqrt(self):
        u = self.coeffs
        out = [np.sqrt(u[0])]
        for k in range(1, self.order + 1):
            s = u[k]
            for j in range(1, k):
                s = s - out[j] * out[k - j]
            out.append(s / (2 * out[0]))
        return Jet(self.anchor, out)

    def pow(self, alpha):
        """Principal u^alpha for real alpha via exp(alpha*log u)."""
        return (self.log() * alpha).exp()

    def sincos(self):
        u = self.coeffs
        s = [np.sin(u[0])]
        c = [np.cos(u[0])]
        for k in range(1, self.order + 1):
            as_ = 0.0
            ac = 0.0
            for j in range(1, k + 1):
                as_ = as_ + j * u[j] * c[k - j]
                ac = ac + j * u[j] * s[k - j]
            s.append(as_ / k)
            c.append(-ac / k)
        return Jet(self.anchor, s), Jet(self.anchor, c)

    def sin(self):
        return self.sincos()[0]

    def cos(self):
        return self.sincos()[1]

    def __repr__(self):
        return f"Jet(anchor={self.anchor!r}, coeffs={self.coeffs!r})"


def _zero_like(x):
    """A read-only complex zero shaped like a point or an array, which a jet's
    structurally zero coefficients share: no jet operation writes into one."""
    if isinstance(x, np.ndarray):
        zero = np.zeros_like(x, dtype=complex)
        zero.setflags(write=False)
        return zero
    return 0j

