from fractions import Fraction

import mpmath as mp
import pytest

from bautin_lab.errors import FieldParseError, UsageError
from bautin_lab.fields import (
    VectorField,
    parse_vector_field,
    random_divergence_free_field,
    random_field,
    random_homogeneous_field,
    random_reversible_field,
    rotational_family_field,
    serialize_vector_field,
)
from bautin_lab.hpoly import HomogPoly
from bautin_lab.scalars import RATIONAL, BigRealDomain


def test_parse_simple_cubic():
    vf = parse_vector_field("n 3\nF 3 0 1\n")
    assert vf.degree == 3
    assert vf.f_part(3).coeff(3, 0) == 1
    assert vf.f_part(2).is_zero()
    assert vf.g_part(3).is_zero()
    assert vf.is_homogeneous()


def test_parse_rational_and_comments():
    text = "# quadratic\nn 2\nG 1 1 -2/3  # inline comment\n\n"
    vf = parse_vector_field(text)
    assert vf.g_part(2).coeff(1, 1) == Fraction(-2, 3)


def test_parse_decimal_is_exact():
    vf = parse_vector_field("n 2\nF 2 0 0.25\n")
    assert vf.f_part(2).coeff(2, 0) == Fraction(1, 4)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FieldParseError) as err:
        parse_vector_field("n 2\nF 5 0 1\n")
    assert err.value.line_no == 2 and "outside" in str(err.value)

    with pytest.raises(FieldParseError) as err:
        parse_vector_field("n 3\nF 2 0 1\nF 2 0 2\n")
    assert err.value.line_no == 3 and "duplicate" in str(err.value)

    with pytest.raises(FieldParseError) as err:
        parse_vector_field("n 2\nF 1 0 1\n")  # degree 1 < 2
    assert err.value.line_no == 2

    with pytest.raises(FieldParseError):
        parse_vector_field("F 2 0 1\n")  # missing header

    with pytest.raises(FieldParseError) as err:
        parse_vector_field("n 2\nF 2 0 nope\n")
    assert err.value.line_no == 2


def test_float_mode_parsing():
    dom = BigRealDomain(dps=40)
    vf = parse_vector_field("n 2\nF 2 0 0.5\nG 1 1 -1/4\n", dom)
    with dom.context():
        assert vf.f_part(2).coeff(2, 0) == 0.5
        assert abs(vf.g_part(2).coeff(1, 1) + 0.25) == 0


def test_non_finite_and_zero_denominator_coefficients_are_rejected():
    # both modes refuse them at parse time, with the offending line
    for text in ("nan", "inf", "-inf", "1/0", "0/0", "2/0.0"):
        for dom in (RATIONAL, BigRealDomain(dps=40)):
            with pytest.raises(FieldParseError) as err:
                parse_vector_field(f"n 3\nF 2 0 1\nF 3 0 {text}\n", dom)
            assert err.value.line_no == 3, (text, dom)
    dom = BigRealDomain(dps=40)
    for value in (mp.mpf("nan"), mp.mpf("inf"), float("-inf")):
        with pytest.raises(UsageError):
            dom.coerce(value)


def test_serialize_round_trip_random_fields():
    for seed in range(25):
        n = 2 + seed % 5
        vf = random_field(n, seed)
        back = parse_vector_field(serialize_vector_field(vf))
        assert back.degree == vf.degree
        for k in range(2, n + 1):
            assert back.f_part(k).coeffs == vf.f_part(k).coeffs
            assert back.g_part(k).coeffs == vf.g_part(k).coeffs


def test_vector_field_validation():
    with pytest.raises(UsageError):
        VectorField(1, {}, {})
    with pytest.raises(UsageError):
        VectorField(3, {4: HomogPoly.zero(4)}, {})
    with pytest.raises(UsageError):
        VectorField(3, {2: HomogPoly.zero(3)}, {})


def test_homogeneity_and_scaling():
    vf = random_homogeneous_field(4, seed=0)
    assert vf.is_homogeneous()
    full = random_field(4, seed=0)
    assert not full.is_homogeneous()
    scaled = full.scale_params(Fraction(-2))
    for k in range(2, 5):
        assert scaled.f_part(k).coeffs == full.f_part(k).scale(Fraction(-2)).coeffs


def test_oracle_family_structure():
    for seed in range(5):
        div = random_divergence_free_field(4, seed)
        assert div.divergence_is_zero()
        rev = random_reversible_field(4, seed)
        assert rev.is_reversible()
        rot = rotational_family_field(4, seed)
        # x*F_n + y*G_n cancels identically
        x = HomogPoly.monomial(1, 0, Fraction(1))
        y = HomogPoly.monomial(0, 1, Fraction(1))
        assert (x * rot.f_part(4) + y * rot.g_part(4)).is_zero()
