"""Coefficient domains: exact rationals and extended-precision reals.

Every higher layer of the package is generic over a small "scalar" protocol:
values combine with ``+ - * /`` and with plain ints, and ``x == 0`` is a
meaningful zero test.  Two carriers satisfy it:

  * ``fractions.Fraction``     -- exact rational mode (the default),
  * ``mpmath.mpf``             -- extended-precision real mode.

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

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Union

import mpmath as mp

from .errors import UsageError

#: Unknowns are labelled by the (x-exponent, y-exponent) slot they stand for.
UnknownId = tuple[int, int]

Scalar = Union[int, Fraction, mp.mpf]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text into an exact Fraction.

    Decimals are scaled by the exact power of ten ("0.25" -> 1/4); binary
    floating point is never involved.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


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

    @classmethod
    def unknown(cls, uid: UnknownId, one: Scalar = 1) -> "LinearForm":
        return cls(0, {uid: one})

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

    name: str = "rational"
    exact: bool = True

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
        return str(x)


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
    name: str = "bigreal"
    exact: bool = False

    def __post_init__(self):
        if self.dps < 30:
            raise UsageError("extended-precision domain needs at least 30 digits")

    def coerce(self, x) -> Scalar:
        """Convert into an mpf at this precision; non-finite values and zero
        denominators raise UsageError, as they do in exact mode."""
        with mp.workdps(self.dps):
            try:
                if isinstance(x, Fraction):
                    value = mp.mpf(x.numerator) / x.denominator
                elif isinstance(x, str) and "/" in x:
                    num, _, den = x.partition("/")
                    value = mp.mpf(num.strip()) / mp.mpf(den.strip())
                else:
                    value = mp.mpf(x.strip() if isinstance(x, str) else x)
            except ZeroDivisionError as exc:
                raise UsageError(f"zero denominator in {x!r}") from exc
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

    def widened(self, factor: int = 2) -> "BigRealDomain":
        return BigRealDomain(dps=self.dps * factor)


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
        return str(x)
    return domain.to_str(x)
