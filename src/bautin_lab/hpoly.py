"""Dense homogeneous bivariate polynomials.

A polynomial of degree k is a coefficient vector of length k+1: entry a holds
the coefficient of x^(k-a) * y^a, so the vector reads in descending x-power
order.  Zero coefficients are stored explicitly; degrees stay small (<= ~60 in
the target workloads) and the rotational operator x*d/dy - y*d/dx only couples
neighbouring entries, so a dense layout is both simpler and faster than a
sparse one.

Coefficients may be any scalar the package knows (Fraction, mpf, or plain
int for structural zeros); operations never assume a particular carrier.
Products skip zero coefficients of either carrier.  The engine's per-degree
loop does not use them: it forms its source terms on integer numerators (see
``engine.accumulate_rhs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import UsageError
from .scalars import Scalar


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial of fixed degree in x and y."""

    degree: int
    coeffs: tuple

    def __init__(self, degree: int, coeffs: Sequence[Scalar]):
        if degree < 0:
            raise UsageError("degree must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise UsageError(
                f"degree-{degree} polynomial needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

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
        return all(c == 0 for c in self.coeffs)

    def map_coeffs(self, fn: Callable[[Scalar], Scalar]) -> "HomogPoly":
        return HomogPoly(self.degree, [fn(c) for c in self.coeffs])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if other.degree != self.degree:
            raise UsageError(f"cannot add degree {self.degree} and degree {other.degree}")
        return HomogPoly(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if other.degree != self.degree:
            raise UsageError(f"cannot subtract degree {other.degree} from degree {self.degree}")
        return HomogPoly(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

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

    def scale(self, s: Scalar) -> "HomogPoly":
        return HomogPoly(self.degree, [c * s for c in self.coeffs])

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
        parts = []
        for i, j, c in self.terms():
            mono = "*".join(filter(None, [f"x^{i}" if i else "", f"y^{j}" if j else ""])) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"


def rot_apply(p: HomogPoly) -> HomogPoly:
    """Apply the rotational operator x*d/dy - y*d/dx.

    On monomials:  x^i y^j  ->  j x^(i+1) y^(j-1) - i x^(i-1) y^(j+1),
    so entry b of the output couples entries b-1 and b+1 of the input.  The
    kernel on even degree 2p is spanned by (x^2 + y^2)^p.
    """
    k = p.degree
    c = p.coeffs
    out: list[Scalar] = [0] * (k + 1)
    for b in range(k + 1):
        acc: Scalar = 0
        if b + 1 <= k:
            acc = acc + (b + 1) * c[b + 1]
        if b - 1 >= 0:
            acc = acc - (k - b + 1) * c[b - 1]
        out[b] = acc
    return HomogPoly(k, out)


def circle_power(p: int) -> HomogPoly:
    """Expansion of (x^2 + y^2)^p: degree 2p with binomial coefficients on the
    even y-exponents."""
    if p < 1:
        raise UsageError("circle_power needs p >= 1")
    coeffs: list[Scalar] = [0] * (2 * p + 1)
    for m in range(p + 1):
        coeffs[2 * m] = comb(p, m)
    return HomogPoly(2 * p, coeffs)
