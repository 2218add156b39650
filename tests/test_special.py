import pytest

from crum.errors import DomainError
from conftest import qpochhammer_inf


def brute_qpoch_inf(a, q, nterms=4000):
    out = 1.0 + 0j
    for k in range(nterms):
        out *= 1 - a * q**k
    return out


def test_qpoch_zero_argument():
    assert qpochhammer_inf(0.0, 0.7) == 1.0


def test_qpoch_half_half():
    # independent oracle: direct product to machine-precision tail
    expected = brute_qpoch_inf(0.5, 0.5)
    got = qpochhammer_inf(0.5, 0.5)
    assert abs(got - expected) < 1e-14
    assert abs(got - 0.2887880951) < 1e-9


def test_qpoch_complex_argument():
    a, q = 0.3 + 0.4j, 0.6
    assert abs(qpochhammer_inf(a, q) - brute_qpoch_inf(a, q)) < 1e-13


def test_qpoch_requires_q_inside_disk():
    with pytest.raises(DomainError):
        qpochhammer_inf(0.5, 1.0)

