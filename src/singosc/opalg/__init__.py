"""Exact symbolic engine: operators, phase-space functions, and identity checks."""

from ..relations import MUTABLE_CONSTANTS, QuadraticConstants
from .classical import PhaseFn, classical_limit, poisson_bracket
from .diffop import DiffOp, DimensionMismatchError, combine, commutator
from .generators import Generators, angular_momentum, build_classical, build_quantum
from .poly import BlockLayout, BlockPoly
from ..report import CheckResult, VerificationReport
from .scalars import ExponentOverflowError, ParamScalar
from .verify import verify_q3, verify_qp3

__all__ = [
    "BlockLayout", "BlockPoly", "CheckResult", "DiffOp",
    "DimensionMismatchError", "ExponentOverflowError", "Generators", "MUTABLE_CONSTANTS",
    "ParamScalar", "PhaseFn", "QuadraticConstants", "VerificationReport",
    "angular_momentum", "build_classical", "build_quantum", "classical_limit",
    "combine", "commutator", "poisson_bracket", "verify_q3", "verify_qp3",
]
