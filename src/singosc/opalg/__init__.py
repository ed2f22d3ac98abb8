"""Exact symbolic engine: operators, phase-space functions, and identity checks."""

from .classical import PhaseFn, poisson_bracket
from .diffop import DiffOp, DimensionMismatchError, combine, commutator
from .generators import (ClassicalGenerators, QuantumGenerators, angular_momentum,
                         build_classical, build_quantum, classical_angular_momentum)
from .poly import BlockLayout, BlockPoly, ExponentOverflowError
from .report import CheckResult, VerificationReport
from .scalars import ParamScalar
from .verify import (MUTABLE_CONSTANTS, QuadraticConstants, verify_q3, verify_qp3)

__all__ = [
    "BlockLayout", "BlockPoly", "CheckResult", "ClassicalGenerators", "DiffOp",
    "DimensionMismatchError", "ExponentOverflowError", "MUTABLE_CONSTANTS",
    "ParamScalar", "PhaseFn", "QuadraticConstants", "QuantumGenerators", "VerificationReport",
    "angular_momentum", "build_classical", "build_quantum",
    "classical_angular_momentum", "combine", "commutator",
    "poisson_bracket", "verify_q3", "verify_qp3",
]
