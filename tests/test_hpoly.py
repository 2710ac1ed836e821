from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bautin_lab.errors import UsageError
from bautin_lab.hpoly import HomogPoly, circle_power, rot_apply

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=12
)


def hpoly_of_degree(k):
    return st.lists(rationals, min_size=k + 1, max_size=k + 1).map(
        lambda cs: HomogPoly(k, cs)
    )


def test_add_examples():
    x2 = HomogPoly.monomial(2, 0, Fraction(1))
    y2 = HomogPoly.monomial(0, 2, Fraction(1))
    assert (x2 + y2).coeffs == (Fraction(1), 0, Fraction(1))
    p = HomogPoly(3, [Fraction(1, 2), 0, 0, 0])
    assert (p + HomogPoly.zero(3)).coeffs == p.coeffs
    q = HomogPoly(3, [Fraction(1, 3), 0, 0, 0])
    assert (p + q).coeff(3, 0) == Fraction(5, 6)


def test_add_degree_mismatch():
    with pytest.raises(UsageError):
        HomogPoly.zero(2) + HomogPoly.zero(3)


def test_mul_examples():
    x = HomogPoly.monomial(1, 0, Fraction(1))
    y = HomogPoly.monomial(0, 1, Fraction(1))
    assert (x * y).coeffs == (0, Fraction(1), 0)
    assert ((x + y) * (x - y)).coeffs == (Fraction(1), Fraction(0), Fraction(-1))
    circle = circle_power(1)
    assert (circle * circle).coeffs == circle_power(2).coeffs


def test_derivative_examples():
    p = HomogPoly.monomial(3, 1, Fraction(1))  # x^3 y
    assert p.dx().coeffs == (0, Fraction(3), 0, 0)  # 3 x^2 y
    assert p.dy().coeffs == (Fraction(1), 0, 0, 0)  # x^3
    y4 = HomogPoly.monomial(0, 4, Fraction(1))
    assert y4.dx().is_zero() and y4.dx().degree == 3
    assert HomogPoly.monomial(0, 0, Fraction(5)).dx().degree == 0


def test_rot_examples():
    assert rot_apply(circle_power(1)).is_zero()
    # by the monomial rule x^i y^j -> j x^(i+1) y^(j-1) - i x^(i-1) y^(j+1):
    # x^3 y -> x^4 - 3 x^2 y^2
    out = rot_apply(HomogPoly.monomial(3, 1, Fraction(1)))
    assert out.coeffs == (Fraction(1), 0, Fraction(-3), 0, 0)


def test_rot_kernel_circle_powers():
    for p in range(1, 21):
        assert rot_apply(circle_power(p)).is_zero()


def test_circle_power_examples():
    assert circle_power(1).coeffs == (1, 0, 1)
    assert circle_power(2).coeffs == (1, 0, 2, 0, 1)
    assert circle_power(3).coeffs == (1, 0, 3, 0, 3, 0, 1)
    with pytest.raises(UsageError):
        circle_power(0)


@given(a=rationals, b=rationals, p=hpoly_of_degree(5), q=hpoly_of_degree(5))
@settings(max_examples=60)
def test_rot_is_linear(a, b, p, q):
    left = rot_apply(p.scale(a) + q.scale(b))
    right = rot_apply(p).scale(a) + rot_apply(q).scale(b)
    assert left.coeffs == right.coeffs


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_rot_parity_decoupling(i, j):
    # every output monomial has x-exponent of parity opposite to the input's
    out = rot_apply(HomogPoly.monomial(i, j, Fraction(1)))
    for xi, yj, c in out.terms():
        assert (xi - i) % 2 == 1


@given(p=hpoly_of_degree(3), q=hpoly_of_degree(3), r=hpoly_of_degree(2))
@settings(max_examples=60)
def test_mul_commutative_associative(p, q, r):
    assert (p * q).coeffs == (q * p).coeffs
    assert ((p * q) * r).coeffs == (p * (q * r)).coeffs


def test_coeff_accessor_bounds():
    p = HomogPoly.monomial(2, 1, Fraction(7))
    assert p.coeff(2, 1) == 7
    with pytest.raises(UsageError):
        p.coeff(3, 1)
