"""Weil descent, last fall degrees and linearized systems over small fields."""

from .errors import (CampaignExhausted, CoordinateNotInField, DegreeExceedsBound,
                     DegreeTooHigh, DivisionByZero, EnumerationBudgetExceeded, LastfallError,
                     MalformedInput, NonPrimeCharacteristic, NotABasis, NotADivisor,
                     NotReducible, OracleInconsistent, ReducibleModulus, RingMismatch,
                     StepBudgetExceeded, UnassignedVariable, UnsupportedField)
from .gf import FieldSpec, make_field
from .poly import NEG_INF, MultiPoly, PolySystem, Ring
from .falldeg import (DegreeSpan, FallProfile, GroebnerOracle, PointsOracle, groebner_toy,
                      ideal_truncation_dim, last_fall_degree, span_closure)
from .descent import (DescentContext, build_F1, build_Fprime, build_Fprime1,
                      make_descent_context, solution_transport, weil_descend)
from .linsys import (InvariantSubspace, LinearizedPoly, SolutionBasis,
                     brute_force_solve, build_Qbar, enumerate_solutions,
                     frobenius_step, full_space, reducibility_check,
                     solve_structured, subfield_space, subspace_equal,
                     subspace_from_fW, symbolic_gcd, symbolic_rdivmod)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
