from fractions import Fraction

import mpmath as mp
import pytest

from bautin_lab.errors import UsageError
from bautin_lab.scalars import (
    RATIONAL,
    BigRealDomain,
    LinearForm,
    parse_rational,
    scalar_to_str,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -0.125 ") == Fraction(-1, 8)
    with pytest.raises(UsageError):
        parse_rational("abc")
    with pytest.raises(UsageError):
        parse_rational("1/0")


def test_rational_domain_coerce():
    assert RATIONAL.coerce(3) == Fraction(3)
    assert RATIONAL.coerce("2/5") == Fraction(2, 5)
    assert RATIONAL.is_negligible(Fraction(0))
    assert not RATIONAL.is_negligible(Fraction(1, 10**50))


def test_bigreal_domain():
    dom = BigRealDomain(dps=40)
    x = dom.coerce("1/3")
    with dom.context():
        assert abs(x * 3 - 1) < mp.mpf(10) ** -38
    assert dom.is_negligible(dom.coerce("1e-25"))
    assert not dom.is_negligible(dom.coerce("1e-15"))
    assert dom.widened().dps == 80
    with pytest.raises(UsageError):
        BigRealDomain(dps=10)


def test_linear_form_zero_pruning():
    f = LinearForm(Fraction(0), {(1, 1): Fraction(0), (2, 0): Fraction(1)})
    assert (1, 1) not in f.coeffs
    assert not f.is_zero()
    assert f == LinearForm(0, {(2, 0): Fraction(1)})
    zero = LinearForm(Fraction(0), {(2, 0): Fraction(0)})
    assert zero.is_zero() and not zero.carries_unknowns()
    assert zero == 0 and f != 0


def test_scalar_to_str_lossless():
    assert scalar_to_str(Fraction(3, 8), RATIONAL) == "3/8"
    dom = BigRealDomain(dps=40)
    s = scalar_to_str(dom.coerce("0.1"), dom)
    with dom.context():
        assert abs(mp.mpf(s) - dom.coerce("0.1")) < mp.mpf(10) ** -38
