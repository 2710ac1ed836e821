"""Coefficient domains: exact rationals and extended-precision reals.

Every higher layer of the package is generic over a small "scalar" protocol:
values combine with ``+ - * /`` and with plain ints, and ``x == 0`` is a
meaningful zero test.  Two carriers satisfy it:

  * ``fractions.Fraction``     -- exact rational mode (the default),
  * ``mpmath.mpf``             -- extended-precision real mode.

The engine's per-degree loop bypasses that protocol: it stores each V_k as
integer numerators over one denominator (each mpf is read as the dyadic
rational man * 2^exp it stores), and sums source terms and solves on plain
ints in both modes; float mode rounds each solved V_k coefficient and
Lyapunov constant once (see ``engine.rotational_solve``).

``LinearForm`` is not a carrier but a read-only record of an affine
expression  c0 + sum_i c_i * u_i  in registered unknowns, with c0 and the c_i
in one carrier.  The engine never computes with forms: Lyapunov constants are
exactly affine in the replaced block coefficients, so it fills the record in
from one plain run per coefficient (see ``engine.compute_series_unknown``).

A ``Domain`` object packages the carrier choice, the conversion of ints /
Fractions / text into it, and (for the floating carrier) the working precision
and the magnitude below which a value is treated as zero by the analysis
layers.  Domain values are immutable and freely shareable between threads; the
extended-precision domain installs its precision via a context manager around
each top-level computation, so concurrent computations at different precisions
must run in separate processes (mpmath's precision is process-global).
"""

from __future__ import annotations

import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

import mpmath as mp

from .errors import UsageError

#: Unknowns are labelled by the (x-exponent, y-exponent) slot they stand for.
UnknownId = tuple[int, int]

Scalar = Union[int, Fraction, mp.mpf]


_DIGITS = r"\d+(?:_\d+)*"
#: The text ``fractions.Fraction`` accepts: ``p/q``, or an integer or decimal
#: with an optional exponent, signed.
_RATIONAL = re.compile(
    rf"[-+]?(?:{_DIGITS}/{_DIGITS}"
    rf"|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?)"
)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text into an exact Fraction.

    Decimals are scaled by the exact power of ten ("0.25" -> 1/4); binary
    floating point is never involved.  The digits are read through
    ``Decimal``, which has no limit on their number (``int(text)`` stops at
    4300 by default) and changes no global state.
    """
    if _RATIONAL.fullmatch(text.strip()) is None:
        raise UsageError(f"not a rational number: {text!r}")
    num, _, den = text.strip().partition("/")
    if not den:
        return Fraction(Decimal(num))
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    except ZeroDivisionError as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def exact_str(x: Fraction | int) -> str:
    """``str(x)`` for an exact value, without the interpreter's limit on
    int-to-decimal conversion (4300 digits by default): ``Decimal(n)`` is
    built exactly and prints without that limit, and changes no global
    state."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def over_lcm(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Exact values as integer numerators over their least common
    denominator (no gcd per value)."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


@dataclass(frozen=True, eq=False)
class LinearForm:
    """Affine expression ``const + sum coeffs[u] * u`` over formal unknowns.

    The constant and the coefficients live in a concrete carrier (Fraction or
    mpf).  Zero coefficients are pruned on construction, so the exact zero
    test is just "constant is zero and no coefficients survive".  A form
    compares equal to a plain scalar when it carries no unknowns and its
    constant equals that scalar.
    """

    const: Scalar = 0
    coeffs: Mapping[UnknownId, Scalar] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        pruned = {uid: c for uid, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", MappingProxyType(pruned))

    def is_zero(self) -> bool:
        return self.const == 0 and not self.coeffs

    def carries_unknowns(self) -> bool:
        return bool(self.coeffs)

    def evaluate(self, assignment: Mapping[UnknownId, Scalar]) -> Scalar:
        """Substitute concrete values for every unknown this form mentions."""
        total = self.const
        for uid, c in self.coeffs.items():
            total = total + c * assignment[uid]
        return total

    def coefficient(self, uid: UnknownId) -> Scalar:
        return self.coeffs.get(uid, 0)

    def __eq__(self, other):
        if isinstance(other, LinearForm):
            return self.const == other.const and self.coeffs == other.coeffs
        return not self.coeffs and self.const == other


@dataclass(frozen=True)
class RationalDomain:
    """Exact rational coefficients (fractions.Fraction)."""

    exact = True

    def coerce(self, x) -> Scalar:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return parse_rational(x)
        raise UsageError(f"cannot coerce {type(x).__name__} into rational domain")

    def context(self):
        return nullcontext()

    def is_negligible(self, x) -> bool:
        return x == 0

    def to_str(self, x) -> str:
        return exact_str(x)

    def widened(self) -> "RationalDomain":
        """Exact values need no more precision: the domain itself."""
        return self


@dataclass(frozen=True)
class BigRealDomain:
    """Extended-precision real coefficients at a fixed decimal precision.

    ``dps`` is the number of decimal digits carried per operation (>= 30).
    Analysis layers treat magnitudes below 10**(20 - dps) as zero (no exact
    zero test exists in floating mode); the 20-digit headroom absorbs the
    error-amplification of quantities derived from dps-digit data, e.g. a
    root-resolution residual passing through steep polynomial stages.
    """

    dps: int = 60
    exact = False

    def __post_init__(self):
        if self.dps < 30:
            raise UsageError("extended-precision domain needs at least 30 digits")

    def coerce(self, x) -> Scalar:
        """Convert into an mpf at this precision, rounding the exact value
        once: text is read exactly (``parse_rational``, so any number of
        digits) and a Fraction is divided correctly rounded.  Non-finite
        values and zero denominators raise UsageError, as they do in exact
        mode."""
        if isinstance(x, str):
            x = parse_rational(x)
        with mp.workdps(self.dps):
            if isinstance(x, Fraction):
                return mp.fdiv(x.numerator, x.denominator)
            value = mp.mpf(x)
            if not mp.isfinite(value):
                raise UsageError(f"not a finite number: {x!r}")
            return value

    @contextmanager
    def context(self) -> Iterator[None]:
        with mp.workdps(self.dps):
            yield

    @property
    def zero_threshold(self) -> mp.mpf:
        with mp.workdps(self.dps):
            return mp.mpf(10) ** (20 - self.dps)

    def is_negligible(self, x) -> bool:
        return abs(x) < self.zero_threshold

    def to_str(self, x) -> str:
        with mp.workdps(self.dps):
            return mp.nstr(mp.mpf(x), self.dps)

    def widened(self) -> "BigRealDomain":
        """The same domain at twice the working precision."""
        return BigRealDomain(dps=self.dps * 2)


Domain = Union[RationalDomain, BigRealDomain]

RATIONAL = RationalDomain()


def scalar_is_zero(x, domain: Domain) -> bool:
    """Zero test appropriate to the domain: exact for rationals, thresholded
    for extended-precision reals."""
    return domain.is_negligible(x)


def scalar_to_str(x, domain: Domain) -> str:
    """Lossless text for a scalar: 'p/q' in rational mode, a full-precision
    decimal in floating mode."""
    if isinstance(x, int):
        return exact_str(x)
    return domain.to_str(x)
