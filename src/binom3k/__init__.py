"""Certified numeric verification of closed forms for the series
sum_{k>=1} z^k w(k) / (k^a C(3k,k)) with unit, Fibonacci and Lucas
weights w."""

from .closed_forms import (A_rhs, B_rhs, C_rhs, FAMILIES, TheoremParams,
                           XYPair, batir_rhs, phi, theorem_lhs_spec,
                           theorem_rhs, trig_rhs)
from .errors import (Binom3kError, DomainError, InvalidParams,
                     MaxTermsExceeded, NotGeometric, SingularInput,
                     Unsupported)
from .precision import PrecisionContext, make_context
from .registry import (IdentityRecord, builtin_catalog, get_record,
                       instantiate, load_catalog, save_catalog,
                       scan_perfect_square)
from .sequences import (FIBONACCI_PARAMS, LUCAS_PARAMS, HoradamParams, fib,
                        horadam, lucas)
from .series import (ConvergenceClass, SeriesSpec, SumResult, UNIT_WEIGHT,
                     Weight, classify, sum_boundary_detailed, sum_to_digits)
from .verifier import (VerificationReport, differential_check, sweep, verify,
                       verify_all)

__version__ = "0.1.0"

__all__ = [
    "A_rhs", "B_rhs", "C_rhs", "FAMILIES", "TheoremParams", "XYPair",
    "batir_rhs", "phi", "theorem_lhs_spec", "theorem_rhs", "trig_rhs",
    "Binom3kError", "DomainError", "InvalidParams", "MaxTermsExceeded",
    "NotGeometric", "SingularInput", "Unsupported",
    "PrecisionContext", "make_context",
    "IdentityRecord", "builtin_catalog", "get_record", "instantiate",
    "load_catalog", "save_catalog", "scan_perfect_square",
    "FIBONACCI_PARAMS", "LUCAS_PARAMS", "HoradamParams", "fib", "horadam",
    "lucas",
    "ConvergenceClass", "SeriesSpec", "SumResult", "UNIT_WEIGHT", "Weight",
    "classify", "sum_boundary_detailed", "sum_to_digits",
    "VerificationReport", "differential_check", "sweep", "verify",
    "verify_all",
    "__version__",
]
