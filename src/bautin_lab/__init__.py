"""Exact Lyapunov constants and center certificates for planar polynomial
vector fields with a linear center at the origin.

The package has no third-party dependency: float mode stores its values as
dyadic Fractions and prints them itself (``scalars``).  The eight-cycle
cubic family (``cubic_family``) is float only: its names load with that
module on first access (PEP 562), so importing the package and running
exact code do not load it.
"""

from .engine import (
    LyapunovSeries,
    accumulate_rhs,
    compute_series,
    compute_series_unknown,
    dense_rotational_solve,
    extend_series,
    rotational_solve,
    tiebreak_slot,
)
from .errors import FieldParseError, SolverInternalError, StageDomainError, UsageError
from .fields import (
    VectorField,
    coerce_field,
    parse_vector_field,
    random_divergence_free_field,
    random_field,
    random_homogeneous_field,
    random_reversible_field,
    rotational_family_field,
    serialize_vector_field,
)
from .hpoly import HomogPoly, circle_power
from .scalars import (
    RATIONAL,
    BigRealDomain,
    LinearForm,
    RationalDomain,
    parse_rational,
)
from .structure import (
    CenterCertificate,
    GapProfile,
    GapReport,
    PMatrix,
    build_p_matrix,
    center_check,
    center_number_bound,
    det_exact,
    gap_profile,
    verify_gaps,
)

#: Names served from ``cubic_family`` by ``__getattr__``.
_CUBIC_FAMILY = frozenset({
    "CubicFamilyParams",
    "Q_COEFFS",
    "family_vector_field",
    "find_sigma_roots",
    "reproduce_example",
    "substitution_chain",
})

__version__ = "0.1.0"

__all__ = [
    "BigRealDomain",
    "CenterCertificate",
    "CubicFamilyParams",
    "FieldParseError",
    "GapProfile",
    "GapReport",
    "HomogPoly",
    "LinearForm",
    "LyapunovSeries",
    "PMatrix",
    "Q_COEFFS",
    "RATIONAL",
    "RationalDomain",
    "SolverInternalError",
    "StageDomainError",
    "UsageError",
    "VectorField",
    "accumulate_rhs",
    "build_p_matrix",
    "center_check",
    "center_number_bound",
    "circle_power",
    "coerce_field",
    "compute_series",
    "compute_series_unknown",
    "dense_rotational_solve",
    "extend_series",
    "det_exact",
    "family_vector_field",
    "find_sigma_roots",
    "gap_profile",
    "parse_rational",
    "parse_vector_field",
    "random_divergence_free_field",
    "random_field",
    "random_homogeneous_field",
    "random_reversible_field",
    "reproduce_example",
    "rotational_family_field",
    "rotational_solve",
    "serialize_vector_field",
    "substitution_chain",
    "tiebreak_slot",
    "verify_gaps",
]


def __getattr__(name: str):
    if name in _CUBIC_FAMILY:
        from . import cubic_family

        return getattr(cubic_family, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _CUBIC_FAMILY)
