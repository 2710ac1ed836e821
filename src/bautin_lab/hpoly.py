"""Dense homogeneous bivariate polynomials.

A polynomial of degree k is a coefficient vector of length k+1: entry a holds
the coefficient of x^(k-a) * y^a, so the vector reads in descending x-power
order.  Zero coefficients are stored explicitly; degrees stay small (122 for
L_60, the deepest target workload) and the rotational operator x*d/dy - y*d/dx
only couples neighbouring entries, so a dense layout is both simpler and
faster than a sparse one.

Every polynomial holds its coefficients as integer numerators over one
positive denominator, ``nums[a] / den``, and the engine computes on those ints
alone.  ``HomogPoly(degree, coeffs)`` takes ints and Fractions (a residue is
an int; anything else is refused) and reads them once with
``scalars.read_ints``, keeping the given objects as ``coeffs``.
``HomogPoly.from_ints(degree, nums, den)`` is the engine's form: every V_k of
a series and every source term R_k is built so, and coefficient a is then
``Fraction(nums[a], den)`` in every domain (a float block's dyadic value, an
integral Fraction for a residue), built on the first read of ``coeffs`` and
kept, so reading them again returns the same objects.

The operations are the ones the field generators and ``coerce_field`` use:
products, which skip zero coefficients of either carrier, negation, partial
derivatives and coefficient maps.  The engine's per-degree loop uses neither
products nor derivatives: it builds each source term in one fused pass over
integer numerators (see ``engine.accumulate_rhs``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import comb

from .errors import UsageError
from .scalars import Scalar, exact_str, read_ints


class HomogPoly:
    """Homogeneous polynomial of fixed degree in x and y."""

    def __init__(self, degree: int, coeffs: Sequence[Scalar]):
        coeffs = tuple(coeffs)
        bad = next((c for c in coeffs if not isinstance(c, (int, Fraction))), None)
        if bad is not None:
            raise UsageError(f"a polynomial coefficient must be an int or a Fraction, not {bad!r}")
        self._store(degree, *read_ints(coeffs))
        self.coeffs = coeffs

    @classmethod
    def from_ints(cls, degree: int, nums: Sequence[int], den: int) -> "HomogPoly":
        """Coefficient a is ``Fraction(nums[a], den)``: integer numerators over
        one positive denominator, the Fractions built on first read."""
        p = cls.__new__(cls)
        p._store(degree, nums, den)
        return p

    def _store(self, degree: int, nums: Sequence[int], den: int) -> None:
        if degree < 0:
            raise UsageError("degree must be >= 0")
        self.degree, self.nums, self.den = degree, tuple(nums), den
        if len(self.nums) != degree + 1 or den <= 0:
            raise UsageError(f"a degree-{degree} polynomial takes {degree + 1} coefficients over"
                             f" a positive denominator, not {len(self.nums)} over {den}")

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @classmethod
    def zero(cls, degree: int) -> "HomogPoly":
        return cls(degree, (0,) * (degree + 1))

    @classmethod
    def monomial(cls, i: int, j: int, coeff: Scalar = 1) -> "HomogPoly":
        """coeff * x^i * y^j."""
        if i < 0 or j < 0:
            raise UsageError("monomial exponents must be >= 0")
        coeffs = [0] * (i + j + 1)
        coeffs[j] = coeff
        return cls(i + j, coeffs)

    def coeff(self, i: int, j: int) -> Scalar:
        """Coefficient of x^i y^j (must satisfy i + j = degree)."""
        if i + j != self.degree or j < 0 or i < 0:
            raise UsageError(f"x^{i} y^{j} is not a degree-{self.degree} monomial")
        return self.coeffs[j]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def map_coeffs(self, fn: Callable[[Scalar], Scalar]) -> "HomogPoly":
        return HomogPoly(self.degree, [fn(c) for c in self.coeffs])

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.degree, [-c for c in self.coeffs])

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        """Homogeneous product of degree deg(a) + deg(b)."""
        if not isinstance(other, HomogPoly):
            return NotImplemented
        out: list[Scalar] = [0] * (self.degree + other.degree + 1)
        right = [(b, cb) for b, cb in enumerate(other.coeffs) if cb != 0]
        for a, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for b, cb in right:
                out[a + b] = out[a + b] + ca * cb
        return HomogPoly(self.degree + other.degree, out)

    # -- calculus ----------------------------------------------------------

    def dx(self) -> "HomogPoly":
        """Partial derivative in x; degree 0 maps to the degree-0 zero."""
        k = self.degree
        if k == 0:
            return HomogPoly.zero(0)
        return HomogPoly(k - 1, [(k - a) * self.coeffs[a] for a in range(k)])

    def dy(self) -> "HomogPoly":
        """Partial derivative in y; degree 0 maps to the degree-0 zero."""
        k = self.degree
        if k == 0:
            return HomogPoly.zero(0)
        return HomogPoly(k - 1, [(a + 1) * self.coeffs[a + 1] for a in range(k)])

    def terms(self) -> Iterable[tuple[int, int, Scalar]]:
        """Nonzero (x-exponent, y-exponent, coefficient) triples."""
        for a, c in enumerate(self.coeffs):
            if c != 0:
                yield (self.degree - a, a, c)

    def __str__(self) -> str:
        return terms_str((i, j, exact_str(c)) for i, j, c in self.terms())


def terms_str(terms: Iterable[tuple[int, int, str]]) -> str:
    """(x-exponent, y-exponent, coefficient text) triples as one sum."""
    parts = []
    for i, j, text in terms:
        mono = "*".join(filter(None, [f"x^{i}" if i else "", f"y^{j}" if j else ""])) or "1"
        parts.append(f"({text})*{mono}")
    return " + ".join(parts) if parts else "0"


def circle_power(p: int) -> HomogPoly:
    """Expansion of (x^2 + y^2)^p: degree 2p with binomial coefficients on the
    even y-exponents."""
    if p < 1:
        raise UsageError("circle_power needs p >= 1")
    coeffs: list[Scalar] = [0] * (2 * p + 1)
    for m in range(p + 1):
        coeffs[2 * m] = comb(p, m)
    return HomogPoly(2 * p, coeffs)
