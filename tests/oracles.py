"""Checks and helpers the tests share, independent of the package's code paths.

``rot_apply`` implements the rotational operator x*d/dy - y*d/dx from its
monomial rule, not from the parity chains of ``engine.rotational_solve``;
``residual`` uses it to check that a series solves every degree's equation.
``divergence_is_zero`` and ``is_reversible`` check the structure the center
generators build in.  ``det_cofactor`` is the determinant by cofactor
expansion on Fractions, the oracle of the fraction-free elimination.  Sums are taken over the coefficient tuples: the
package's polynomials have no addition.  ``gcd_reduced`` is the one-gcd
reduction that ``RationalDomain.store_ints`` is checked against, and
``mp_round`` (mpmath's correctly rounded division) the rounding of
``BigRealDomain``.  ``pinned_run`` is the forward loop with chosen blocks
pinned, the oracle of the certificate series' linear parts and offsets.
``reflected_field`` and ``dilated_field`` apply the reflection with time
reversal and the scaling of the coordinates, whose exact action on every
Lyapunov constant and certificate entry the symmetry tests check.
"""

from fractions import Fraction
from math import gcd

import mpmath

from bautin_lab.engine import LyapunovSeries, accumulate_rhs, rotational_solve
from bautin_lab.fields import VectorField
from bautin_lab.hpoly import HomogPoly, circle_power


def poly_sum(*polys: HomogPoly) -> HomogPoly:
    """Coefficient-wise sum of polynomials of one degree."""
    coeffs = zip(*(p.coeffs for p in polys), strict=True)
    return HomogPoly(polys[0].degree, [sum(cs) for cs in coeffs])


def gcd_reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den (den > 0) in lowest terms: every value divided by the gcd of
    all of them."""
    g = gcd(*nums, den)
    return [x // g for x in nums], den // g


def det_cofactor(m) -> Fraction:
    """The determinant by cofactor expansion along the first row, on
    Fractions (1 for the 0 x 0 matrix)."""
    if not m:
        return Fraction(1)
    total = Fraction(0)
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        total += (-1) ** c * Fraction(m[0][c]) * det_cofactor(minor)
    return total


def rot_apply(p: HomogPoly) -> HomogPoly:
    """Apply the rotational operator x*d/dy - y*d/dx.

    On monomials:  x^i y^j  ->  j x^(i+1) y^(j-1) - i x^(i-1) y^(j+1),
    so entry b of the output couples entries b-1 and b+1 of the input.  The
    kernel on even degree 2p is spanned by (x^2 + y^2)^p.
    """
    k = p.degree
    c = p.coeffs
    out = [0] * (k + 1)
    for b in range(k + 1):
        acc = 0
        if b + 1 <= k:
            acc = acc + (b + 1) * c[b + 1]
        if b - 1 >= 0:
            acc = acc - (k - b + 1) * c[b - 1]
        out[b] = acc
    return HomogPoly(k, out)


def residual(series: LyapunovSeries, k: int) -> HomogPoly:
    """rot(V_k) + R_k - [k even] L * (x^2+y^2)^(k/2) of an exact series:
    identically zero for every degree of a plain series (``compute_series``)."""
    terms = [rot_apply(series.V[k]), accumulate_rhs(series, k)]
    L = series.L.get(k // 2 - 1) if k % 2 == 0 else None
    if L is not None:
        terms.append(circle_power(k // 2).map_coeffs(lambda b: -L * b))
    return poly_sum(*terms)


def pinned_run(vf: VectorField, J: int, pins, v2=None) -> LyapunovSeries:
    """The per-degree loop up to L_J from V_2 = ``v2`` (by default
    (x^2+y^2)/2), with V_k replaced by ``pins[k]`` at each degree k in
    ``pins``; a constant solved at a pinned degree keeps its value from the
    full source term, which never involves that block."""
    if v2 is None:
        half = vf.domain.coerce(Fraction(1, 2))
        v2 = HomogPoly(2, [half, 0, half])
    series = LyapunovSeries(vf, V={2: v2})
    for k in range(3, 2 * J + 3):
        V, L = rotational_solve(k, accumulate_rhs(series, k), vf.domain)
        series.V[k] = pins.get(k, V)
        if L is not None:
            series.L[k // 2 - 1] = L
    return series


def divergence_is_zero(vf: VectorField) -> bool:
    """Exact coefficient-wise test of dF/dx + dG/dy == 0."""
    levels = range(2, vf.degree + 1)
    return all(poly_sum(vf.f_part(k).dx(), vf.g_part(k).dy()).is_zero() for k in levels)


def is_reversible(vf: VectorField) -> bool:
    """F even and G odd under x -> -x, coefficient-wise."""
    levels = range(2, vf.degree + 1)
    return all(i % 2 == 0 for k in levels for i, _, _ in vf.f_part(k).terms()) and all(
        i % 2 == 1 for k in levels for i, _, _ in vf.g_part(k).terms()
    )


def scaled_field(vf: VectorField, s) -> VectorField:
    """Every coefficient of every part multiplied by s."""
    def scale(parts):
        return {k: p.map_coeffs(lambda c: c * s) for k, p in parts.items()}

    return VectorField(vf.degree, scale(vf.F), scale(vf.G), vf.domain)


def reflected_field(vf: VectorField) -> VectorField:
    """The field under (x, y, t) -> (x, -y, -t): F'(x, y) = -F(x, -y) and
    G'(x, y) = G(x, -y), read off slot a (the y-exponent) coefficient-wise."""
    def flip(parts, sign):
        return {
            k: HomogPoly(k, [sign * (-1) ** a * c for a, c in enumerate(p.coeffs)])
            for k, p in parts.items()
        }

    return VectorField(vf.degree, flip(vf.F, -1), flip(vf.G, 1), vf.domain)


def dilated_field(vf: VectorField, mu) -> VectorField:
    """The field in the coordinates (x, y) = mu (X, Y): F_d and G_d times
    mu^(d-1)."""
    def dilate(parts):
        return {k: HomogPoly(k, [mu ** (k - 1) * c for c in p.coeffs]) for k, p in parts.items()}

    return VectorField(vf.degree, dilate(vf.F), dilate(vf.G), vf.domain)


def apply_p(P, values) -> list:
    """P @ values, without the offsets (the P v + offsets = L oracle)."""
    return [sum(e * v for e, v in zip(row, values)) for row in P.entries]


def stored_field(vf: VectorField) -> VectorField:
    """The exact field of the values a float field stores: the same dyadic
    Fractions, in the exact domain."""
    return VectorField(vf.degree, vf.F, vf.G)


def mp_round(x, dps: int) -> Fraction:
    """The rational x rounded to nearest at ``dps`` digits by mpmath's own
    division, read back as the dyadic Fraction the mpf stores (its
    ``man_exp``, which carries no sign): the float mode's rounding oracle."""
    x = Fraction(x)
    value = mpmath.fdiv(x.numerator, x.denominator, dps=dps)
    man, exp = value.man_exp
    return (-1 if value < 0 else 1) * Fraction(int(man)) * Fraction(2) ** exp


def dyadic(x: Fraction) -> tuple[int, int]:
    """(m, e) with x = m * 2^e and m odd ((0, 0) for zero): the mantissa and
    exponent a binary float with the value x stores."""
    if not x:
        return 0, 0
    assert x.denominator & (x.denominator - 1) == 0, "not a dyadic rational"
    m, e = x.numerator, 1 - x.denominator.bit_length()
    t = (m & -m).bit_length() - 1
    return m >> t, e + t
