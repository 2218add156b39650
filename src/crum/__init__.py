"""Numerical construction and verification of iterated-factorization
(Darboux/Crum) chains for solvable quantum systems, in both the differential
and the imaginary-shift difference setting."""

from .analytic import AnalyticFn, casoratian, inner_product, star_eval, wronskian
from .families import catalog, make_family, virtual_state
from .verify import RunConfig, VerificationReport, run_suite

__all__ = [
    "AnalyticFn", "casoratian", "inner_product", "star_eval", "wronskian",
    "catalog", "make_family", "virtual_state",
    "RunConfig", "VerificationReport", "run_suite",
]

__version__ = "1.0.0"
