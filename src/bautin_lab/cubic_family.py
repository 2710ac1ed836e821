"""A cubic family with eight small-amplitude limit cycles.

The family

    dx/dt = -y + a1 x^2 - 2 b1 x y + (a3 - a1) y^2 - a5 x^2 y - a7 y^3
    dy/dt =  x + b1 x^2 + 2 a1 x y - b1 y^2 - b4 x^3 - b5 x^2 y - (b6 - a5) x y^2

admits a parameter resolution that makes the first seven Lyapunov constants
vanish while the eighth stays nonzero.  The stages, in order:

    a3 = b5 = 0                          kills L_1, L_2
    a7 = -b4                             kills L_3
    a1 = sqrt((b8-a8)/2), b1 = sqrt((b8+a8)/2), a5 = a7 - a9 + b6/2
        followed by a8 = (13 a9 b6 + 60 b4 b6) / (20 (a9 + 4 b4))     kills L_4
    b8 = rational function of (a9, b4)                                kills L_5
    b6^2 = rational function of (a9, b4)                              kills L_6
    a9 = sigma b4 with sigma a root of the integer polynomial Q       kills L_7

Q has four real roots but only two leave b6^2 positive; those two admissible
roots sit in known rational brackets, and each is correctly rounded to the
requested precision by exact bisection of its bracket, once per precision.
a1 and b1 take the positive square root.

The stages run on exact Fractions of the stored sigma, the given b4 and the
square roots b6, a1, b1 correctly rounded by ``BigRealDomain.sqrt``: every
stage refusal is an exact decision, and the resolved parameters are the
exact stage values.  Every field coefficient, printed parameter and scaled
report value is its exact value in them rounded once.

Both b6 branches give valid family members with the same seven vanishing
constants; the default branch is the one whose L_8 is negative for b4 < 0
(the opposite branch flips the signs of L_8 and of the odd-degree
certificate-matrix columns), and the other remains selectable so both can
be recorded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .engine import compute_series
from .errors import SolverInternalError, StageDomainError, UsageError
from .fields import VectorField
from .hpoly import HomogPoly
from .scalars import RATIONAL, BigRealDomain, Scalar, exact_str
from .structure import build_p_matrix

#: Coefficients of Q(sigma), constant term first, leading coefficient last.
Q_COEFFS: tuple[int, ...] = (
    210691031040000000,
    389728972800000000,
    308644781875200000,
    136983308014080000,
    37257726560256000,
    6325502424166400,
    642634655826240,
    33468743564464,
    447644512436,
    -5941780227,
    1324524586,
)

# Transcription anchors: a mistyped table would break every root bracket.
assert Q_COEFFS[0] == 210691031040000000
assert Q_COEFFS[10] == 1324524586

#: Rational brackets known to isolate the two admissible roots of Q.
SIGMA1_BRACKET = (Fraction(-17166571, 2500000), Fraction(-1716657, 250000))
SIGMA2_BRACKET = (Fraction(-11335691, 5000000), Fraction(-11335689, 5000000))

#: Branch of b6 whose L_8 comes out negative for b4 < 0.
DEFAULT_B6_SIGN = -1

#: Column order used for the published form of the 8x8 certificate matrix.
REPORT_COLUMN_ORDER: tuple[tuple[int, int], ...] = (
    (0, 3), (0, 4), (1, 2), (1, 3), (2, 1), (3, 0), (3, 1), (4, 0),
)


#: The parameters of a family member, in report order.
_PARAM_NAMES = ("a1", "b1", "a3", "a5", "a7", "a8", "a9", "b4", "b5", "b6", "b8")


class CubicFamilyParams:
    """One member of the family: each parameter of ``_PARAM_NAMES`` by
    keyword (0 if not given), and the root sigma it was resolved at (None if
    not given)."""

    def __init__(self, *, sigma: Scalar | None = None, **params: Scalar):
        if not params.keys() <= set(_PARAM_NAMES):
            raise TypeError(f"unknown parameters {sorted(params.keys() - set(_PARAM_NAMES))}")
        for name in _PARAM_NAMES:
            setattr(self, name, params.get(name, 0))
        self.sigma = sigma

    def as_dict(self) -> dict[str, Scalar]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}


def count_real_roots() -> int:
    """Number of distinct real roots of Q, by exact Sturm-chain sign counting
    between -B and B, with B = 1 + max|c_i| / |c_10| the Cauchy bound on the
    roots."""
    bound = 1 + Fraction(max(map(abs, Q_COEFFS[:-1])), abs(Q_COEFFS[-1]))
    return count_sign_changes_between(-bound, bound)


def _sturm_chain(poly: list[Fraction]) -> list[list[Fraction]]:
    def derivative(p: list[Fraction]) -> list[Fraction]:
        return [i * c for i, c in enumerate(p)][1:]

    def poly_mod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
        num = num[:]
        while len(num) >= len(den) and any(c != 0 for c in num):
            if num[-1] == 0:
                num.pop()
                continue
            factor = num[-1] / den[-1]
            shift = len(num) - len(den)
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return num

    chain = [poly, derivative(poly)]
    while chain[-1]:
        rem = poly_mod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_sign_changes_between(a: Fraction, b: Fraction) -> int:
    """Distinct real roots of Q in (a, b], by the same Sturm chain."""
    chain = _sturm_chain([Fraction(c) for c in Q_COEFFS])

    def changes(x: Fraction) -> int:
        signs = []
        for p in chain:
            val = sum(c * x**i for i, c in enumerate(p))
            signs.append(0 if val == 0 else (1 if val > 0 else -1))
        return _sign_changes(signs)

    return changes(a) - changes(b)


def b6_squared_value(a9: Scalar, b4: Scalar) -> Scalar:
    """The squared-b6 stage as a rational function of (a9, b4)."""
    num = 25 * (
        77851 * a9**6
        + 2086817 * a9**5 * b4
        + 24208900 * a9**4 * b4**2
        + 155084544 * a9**3 * b4**3
        + 568011840 * a9**2 * b4**4
        + 1104076800 * a9 * b4**5
        + 870912000 * b4**6
    )
    den = 36 * (
        596 * a9**4
        + 16780 * a9**3 * b4
        + 173525 * a9**2 * b4**2
        + 777000 * a9 * b4**3
        + 1260000 * b4**4
    )
    if den == 0:
        raise StageDomainError("b6_squared", "denominator vanished")
    return num / den


def _q_sign(p: int, d: int) -> int:
    """Sign of Q(p/d) for d > 0, from the integer Q(p/d) d^10 by Horner."""
    acc, dk = 0, 1
    for c in reversed(Q_COEFFS):
        acc = acc * p + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _round_root(bracket: tuple[Fraction, Fraction], domain: BigRealDomain) -> Scalar:
    """The root of Q inside an exact sign-change bracket, correctly rounded
    by ``domain.ratio``.

    The bracket is halved on integer numerators over one denominator until
    both ends round to the same value; rounding is monotone, so that value
    is the rounded root.  Q is irreducible over the rationals, so the root
    is never a rounding boundary and the loop ends."""
    lo, hi = bracket
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    sa, sb = _q_sign(a, d), _q_sign(b, d)
    if sa == 0 or sb == 0 or sa == sb:
        raise SolverInternalError(
            "no sign change in the root bracket; coefficient table is corrupt"
        )
    while domain.ratio(a, d) != domain.ratio(b, d):
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        if _q_sign(m, d) == sa:
            a = m
        else:
            b = m
    return domain.ratio(a, d)


@cache
def find_sigma_roots(precision: int = 60) -> tuple[Scalar, Scalar]:
    """The two admissible roots of Q, each correctly rounded to the requested
    decimal precision (at least 30 digits); computed once per precision."""
    domain = BigRealDomain(dps=precision)
    return _round_root(SIGMA1_BRACKET, domain), _round_root(SIGMA2_BRACKET, domain)


def substitution_chain(
    b4: Scalar, sigma: Scalar, precision: int = 60, b6_sign: int = DEFAULT_B6_SIGN
) -> CubicFamilyParams:
    """Resolve the full parameter set from (b4, sigma), exact rationals (an
    int, Fraction or ``p/q`` text).

    Each stage is computed exactly, and each returned parameter is its exact
    stage value: b6, a1 and b1 are square roots rounded once, and sigma and
    b4 are returned as given.
    Raises StageDomainError naming the stage whose denominator vanishes or
    whose radicand goes negative.  ``b6_sign`` selects the square-root branch
    for b6 (``DEFAULT_B6_SIGN`` = -1 by default; both branches are legitimate
    family members).
    """
    if b6_sign not in (1, -1):
        raise UsageError("b6_sign must be +1 or -1")
    domain = BigRealDomain(dps=precision)
    b4, sigma = RATIONAL.coerce(b4), RATIONAL.coerce(sigma)
    if not b4 < 0:
        raise StageDomainError("b4", "b4 must be negative")
    a9 = sigma * b4

    b6_sq = b6_squared_value(a9, b4)
    if b6_sq < 0:
        raise StageDomainError("b6_squared", f"negative radicand {domain.to_str(b6_sq)}")
    b6 = b6_sign * domain.sqrt(b6_sq)

    a8_den = 20 * (a9 + 4 * b4)
    if a8_den == 0:
        raise StageDomainError("a8", "denominator vanished")
    a8 = (13 * a9 * b6 + 60 * b4 * b6) / a8_den

    b8_den = 48 * (2 * a9**2 + 23 * a9 * b4 + 60 * b4**2)
    if b8_den == 0:
        raise StageDomainError("b8", "denominator vanished")
    b8 = (-601 * a9**3 - 7240 * a9**2 * b4 - 30480 * a9 * b4**2 - 43200 * b4**3) / b8_den

    ra = (b8 - a8) / 2
    if ra < 0:
        raise StageDomainError("a1", f"negative radicand {domain.to_str(ra)}")
    rb = (b8 + a8) / 2
    if rb < 0:
        raise StageDomainError("b1", f"negative radicand {domain.to_str(rb)}")

    a7 = -b4
    return CubicFamilyParams(
        a1=domain.sqrt(ra), b1=domain.sqrt(rb), a5=a7 - a9 + b6 / 2, a7=a7, a8=a8, a9=a9,
        b4=b4, b6=b6, b8=b8, sigma=sigma,
    )


def family_vector_field(params: CubicFamilyParams, precision: int = 60) -> VectorField:
    """The degree-3 field for one parameter set: each coefficient is its
    formula in the parameters' exact values, rounded once.

    Only the sign condition on b4 is enforced here (b4 <= 0); the stage
    consistency relations are checked by the resolution pipeline, so partially
    substituted family members remain constructible.
    """
    a1, b1, a3, a5, a7, b4, b5, b6 = (
        RATIONAL.coerce(getattr(params, name))
        for name in ("a1", "b1", "a3", "a5", "a7", "b4", "b5", "b6")
    )
    if b4 > 0:
        raise UsageError("b4 must be <= 0 in this family")
    domain = BigRealDomain(dps=precision)
    c = domain.coerce
    F2 = HomogPoly(2, [c(a1), c(-2 * b1), c(a3 - a1)])
    G2 = HomogPoly(2, [c(b1), c(2 * a1), c(-b1)])
    F3 = HomogPoly(3, [c(0), c(-a5), c(0), c(-a7)])
    G3 = HomogPoly(3, [c(-b4), c(-b5), c(-(b6 - a5)), c(0)])
    return VectorField(3, {2: F2, 3: F3}, {2: G2, 3: G3}, domain)


def reproduce_example(
    root: int = 1, b4: int | str | Fraction = Fraction(-1), precision: int = 60
) -> dict:
    """Full quantitative reproduction for one admissible root.

    ``b4`` is a negative rational: an int, ``p/q`` text or a Fraction.
    Resolves the parameters on the ``DEFAULT_B6_SIGN`` branch, computes
    L_1..L_8, builds the 8x8 certificate matrix in the published column
    order, and reports the b4-scaled values L_8 / b4^8 and det(P) / b4^30.
    The two scaling exponents are verified by recomputing at b4 / 2 and
    comparing ratios (exact in the stored L_8 and det P) rather than
    assumed.  Each P entry is rounded once before the determinant, so
    only about ``precision - 15`` of the digits of det P and det P / b4^30
    are determined (45.6 of 60, measured).
    """
    if root not in (1, 2):
        raise UsageError("root must be 1 or 2")
    b4 = RATIONAL.coerce(b4)

    sigma = find_sigma_roots(precision)[root - 1]
    second_b4 = b4 / 2
    params, series, P, det = _resolved_run(sigma, b4, precision)
    _, other_series, _, other_det = _resolved_run(sigma, second_b4, precision)
    L8, other_L8 = series.L[8], other_series.L[8]
    # second_b4 / b4 = 1/2
    l8_dev = abs(other_L8 / L8 * 2**8 - 1)
    det_dev = abs(other_det / det * 2**30 - 1)

    domain = BigRealDomain(dps=precision)
    report = {
        "schema": "bautin-lab/1",
        "root_index": root,
        "precision": precision,
        "b6_sign": DEFAULT_B6_SIGN,
        "sigma": domain.to_str(sigma),
        "b4": exact_str(b4),
        "params": {k: domain.to_str(v) for k, v in params.as_dict().items()},
        "L": {str(j): domain.to_str(v) for j, v in series.l_values()},
        "L8_over_b4_8": domain.to_str(L8 / b4**8),
        "detP": domain.to_str(det),
        "detP_over_b4_30": domain.to_str(det / b4**30),
        "P": {
            "rows": [f"L{j}" for j in P.row_labels],
            "columns": [f"v{i}{j}" for i, j in P.col_labels],
            "entries": [[domain.to_str(e) for e in row] for row in P.entries],
            "row_offsets": [domain.to_str(o) for o in P.row_offsets],
        },
        "scaling_check": {
            "second_b4": exact_str(second_b4),
            "l8_exponent": 8,
            "l8_relative_deviation": domain.to_str(l8_dev),
            "det_exponent": 30,
            "det_relative_deviation": domain.to_str(det_dev),
        },
    }
    return report


def _resolved_run(sigma: Scalar, b4: Fraction, precision: int):
    """The parameters, series to L_8, certificate matrix and its det P at
    (sigma, b4)."""
    params = substitution_chain(b4, sigma, precision)
    vf = family_vector_field(params, precision)
    series = compute_series(vf, 8)
    P = build_p_matrix(vf, column_order=REPORT_COLUMN_ORDER)
    return params, series, P, P.determinant()
