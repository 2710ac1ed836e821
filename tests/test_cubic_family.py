from fractions import Fraction

import mpmath as mp
import pytest

from bautin_lab.cubic_family import (
    DEFAULT_B6_SIGN,
    Q_COEFFS,
    SIGMA1_BRACKET,
    SIGMA2_BRACKET,
    CubicFamilyParams,
    _round_root,
    b6_squared_value,
    count_real_roots,
    count_sign_changes_between,
    family_vector_field,
    find_sigma_roots,
    reproduce_example,
    substitution_chain,
)
from bautin_lab.engine import compute_series
from bautin_lab.errors import SolverInternalError, StageDomainError, UsageError
from bautin_lab.fields import VectorField
from bautin_lab.hpoly import HomogPoly
from bautin_lab.scalars import BigRealDomain, dps_to_prec, parse_rational
from oracles import dyadic, stored_field

SIGMA1_PRINTED = "-6.866628200554238820434952526434021955"
SIGMA2_PRINTED = "-2.267138125538741369528826715285454145"


# -- the polynomial Q ---------------------------------------------------------


def test_q_coefficient_anchors():
    assert Q_COEFFS[0] == 210691031040000000
    assert Q_COEFFS[10] == 1324524586
    assert Q_COEFFS[9] == -5941780227
    assert len(Q_COEFFS) == 11
    assert _q(Fraction(0)) == 210691031040000000


def test_q_has_exactly_four_real_roots():
    assert count_real_roots() == 4


def test_brackets_isolate_one_root_each():
    assert count_sign_changes_between(*SIGMA1_BRACKET) == 1
    assert count_sign_changes_between(*SIGMA2_BRACKET) == 1


def test_only_two_roots_are_admissible():
    # all four real roots, found independently of the bracket refinement
    with mp.workdps(80):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(Q_COEFFS)], maxsteps=200, extraprec=200)
        real = sorted(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** -40)
        assert len(real) == 4
        flags = [b6_squared_value(r, 1) >= 0 for r in real]
        # the outermost and innermost real roots admit a real b6; the middle
        # two would need b6^2 < 0
        assert flags == [True, False, False, True]


# -- root refinement ----------------------------------------------------------


def test_sigma_roots_match_published_digits():
    s1, s2 = find_sigma_roots(60)
    assert abs(s1 - parse_rational(SIGMA1_PRINTED)) < Fraction(1, 10**30)
    assert abs(s2 - parse_rational(SIGMA2_PRINTED)) < Fraction(1, 10**30)
    for s, (lo, hi) in ((s1, SIGMA1_BRACKET), (s2, SIGMA2_BRACKET)):
        assert lo < s < hi


def test_sigma_roots_residual_criterion():
    for precision in (40, 60, 100):
        s1, s2 = find_sigma_roots(precision)
        for s in (s1, s2):
            bound = Fraction(10) ** (20 - precision) * abs(s) * abs(_q_prime(s))
            assert abs(_q(s)) < bound
    with pytest.raises(UsageError):
        find_sigma_roots(29)


def _q(x):
    acc = 0
    for c in reversed(Q_COEFFS):
        acc = acc * x + c
    return acc


def _q_prime(x):
    acc = 0
    for power in range(10, 0, -1):
        acc = acc * x + power * Q_COEFFS[power]
    return acc


def test_sigma_roots_are_correctly_rounded():
    # the Sturm oracle finds exactly one root of Q within half an ulp of
    # each returned value, the dyadic rational it stores
    for precision in (40, 60, 120):
        for x in find_sigma_roots(precision):
            man, exp = dyadic(x)
            half_ulp = Fraction(2) ** (exp + abs(man).bit_length() - dps_to_prec(precision)) / 2
            assert count_sign_changes_between(x - half_ulp, x + half_ulp) == 1, (precision, x)


def test_bracket_without_sign_change_is_refused():
    with pytest.raises(SolverInternalError):
        _round_root((Fraction(1), Fraction(2)), BigRealDomain(dps=60))


# -- the substitution stages --------------------------------------------------


def _rational_field(**params) -> VectorField:
    """Family member with exact rational parameters (for identity checks)."""
    p = {k: Fraction(v) for k, v in params.items()}
    get = lambda k: p.get(k, Fraction(0))
    F2 = HomogPoly(2, [get("a1"), -2 * get("b1"), get("a3") - get("a1")])
    G2 = HomogPoly(2, [get("b1"), 2 * get("a1"), -get("b1")])
    F3 = HomogPoly(3, [Fraction(0), -get("a5"), Fraction(0), -get("a7")])
    G3 = HomogPoly(3, [-get("b4"), -get("b5"), -(get("b6") - get("a5")), Fraction(0)])
    return VectorField(3, {2: F2, 3: F3}, {2: G2, 3: G3})


def test_stage_one_kills_l1_l2_exactly():
    # a3 = b5 = 0 forces the first two constants to vanish identically
    vf = _rational_field(a1=2, b1=Fraction(-3, 2), a5=1, a7=Fraction(5, 3), b4=-2, b6=4)
    series = compute_series(vf, 3)
    assert series.L[1] == 0 and series.L[2] == 0
    assert series.L[3] != 0  # the a7 = -b4 relation does not hold here


def test_stage_two_kills_l3_exactly():
    vf = _rational_field(a1=2, b1=Fraction(-3, 2), a5=1, a7=2, b4=-2, b6=4)
    series = compute_series(vf, 4)
    assert series.L[1] == 0 and series.L[2] == 0 and series.L[3] == 0
    assert series.L[4] != 0


def _b8_stage(a9: Fraction, b4: Fraction) -> Fraction:
    """The b8 that kills L_5, in exact arithmetic."""
    return (-601 * a9**3 - 7240 * a9**2 * b4 - 30480 * a9 * b4**2 - 43200 * b4**3) / (
        48 * (2 * a9**2 + 23 * a9 * b4 + 60 * b4**2)
    )


def _bigreal_member(b8, a9, b4, b6, dps=60):
    """Resolve a1, b1, a5, a7, a8 from the change of variables, leaving
    (b8, a9, b4, b6) free, exactly but for the square roots a1 and b1;
    returns None when a radicand goes negative."""
    dom = BigRealDomain(dps=dps)
    b8, a9, b4, b6 = (Fraction(v) for v in (b8, a9, b4, b6))
    a8 = (13 * a9 * b6 + 60 * b4 * b6) / (20 * (a9 + 4 * b4))
    if b8 - a8 < 0 or b8 + a8 < 0:
        return None
    params = CubicFamilyParams(
        a1=dom.sqrt((b8 - a8) / 2),
        b1=dom.sqrt((b8 + a8) / 2),
        a5=-b4 - a9 + b6 / 2,
        a7=-b4,
        a8=a8,
        a9=a9,
        b4=b4,
        b6=b6,
        b8=b8,
    )
    return family_vector_field(params, dps)


def test_stage_a8_kills_l4():
    tol = Fraction(1, 10**45)
    cases = [("40", "3", "-1", "-9"), ("55", "2", "-2", "7"), ("30", "1", "-1", "5")]
    for b8, a9, b4, b6 in cases:
        vf = _bigreal_member(b8, a9, b4, b6)
        assert vf is not None, (b8, a9, b4, b6)
        series = compute_series(vf, 5)
        assert all(abs(series.L[j]) < tol for j in (1, 2, 3, 4))
        assert abs(series.L[5]) > tol  # b8 is unconstrained here


def test_stage_b8_kills_l5():
    for a9, b4, b6 in ((3, -1, 1), (2, -2, 11)):
        vf = _bigreal_member(_b8_stage(Fraction(a9), Fraction(b4)), a9, b4, b6)
        assert vf is not None
        series = compute_series(vf, 6)
        tol = Fraction(1, 10**45)
        assert all(abs(series.L[j]) < tol for j in range(1, 6))
        assert abs(series.L[6]) > tol


def test_stage_b6_kills_l6():
    dom = BigRealDomain(dps=60)
    for a9, b4 in (("2.1", "-1"), ("13.8", "-2")):
        a9, b4 = Fraction(a9), Fraction(b4)
        b6 = -dom.sqrt(b6_squared_value(a9, b4))
        vf = _bigreal_member(_b8_stage(a9, b4), a9, b4, b6)
        assert vf is not None
        series = compute_series(vf, 7)
        tol = Fraction(1, 10**40)
        assert all(abs(series.L[j]) < tol for j in range(1, 7))
        assert abs(series.L[7]) > tol


def test_full_chain_kills_l7_at_both_roots():
    s1, s2 = find_sigma_roots(60)
    tol = Fraction(1, 10**40)
    for sigma in (s1, s2):
        params = substitution_chain(Fraction(-1), sigma, 60)
        vf = family_vector_field(params, 60)
        series = compute_series(vf, 8)
        assert all(abs(series.L[j]) < tol for j in range(1, 8))
        assert abs(series.L[8]) > 1


def test_non_root_sigma_leaves_l7_alive():
    # Q(sigma) != 0 while the chain stays in its real domain
    _, s2 = find_sigma_roots(60)
    sigma = s2 + Fraction(1, 1000)
    assert abs(_q(sigma)) > 1
    params = substitution_chain(Fraction(-1), sigma, 60)
    vf = family_vector_field(params, 60)
    series = compute_series(vf, 7)
    assert all(abs(series.L[j]) < Fraction(1, 10**45) for j in range(1, 7))
    assert abs(series.L[7]) > Fraction(1, 10**6)


def test_chain_domain_errors_name_their_stage():
    # sigma = 0 leaves a negative radicand in the change of variables,
    # so it cannot serve as a non-root probe of the chain
    with pytest.raises(StageDomainError) as err:
        substitution_chain(Fraction(-1), Fraction(0), 60)
    assert err.value.stage in ("a1", "b1")
    with pytest.raises(StageDomainError) as err:
        substitution_chain(Fraction(1), Fraction(-1), 60)
    assert err.value.stage == "b4"
    with pytest.raises(UsageError):
        substitution_chain(Fraction(-1), Fraction(-1), 60, b6_sign=2)


def test_chain_output_satisfies_parameter_relations():
    s1, _ = find_sigma_roots(60)
    p = substitution_chain(Fraction(-1), s1, 60)
    tol = Fraction(1, 10**50)
    assert p.a3 == 0 and p.b5 == 0
    assert abs(p.a7 + p.b4) < tol
    assert abs(p.a1**2 - (p.b8 - p.a8) / 2) < tol
    assert abs(p.b1**2 - (p.b8 + p.a8) / 2) < tol
    assert abs(p.b6**2 - b6_squared_value(p.a9, p.b4)) < Fraction(1, 10**45)
    assert abs(p.a5 - (p.a7 - p.a9 + p.b6 / 2)) < tol
    assert abs(p.a9 - p.sigma * p.b4) < tol
    assert p.b4 < 0


def test_both_b6_branches_kill_the_chain_and_flip_l8():
    s1, _ = find_sigma_roots(60)
    results = {}
    for sign in (1, -1):
        params = substitution_chain(Fraction(-1), s1, 60, b6_sign=sign)
        series = compute_series(family_vector_field(params, 60), 8)
        assert all(abs(series.L[j]) < Fraction(1, 10**40) for j in range(1, 8))
        results[sign] = series.L[8]
    assert results[DEFAULT_B6_SIGN] < 0  # published sign convention
    assert abs(results[1] + results[-1]) < Fraction(1, 10**25)  # equal magnitude


# -- field construction -------------------------------------------------------


def test_family_field_zero_parameters_is_pure_rotation():
    vf = family_vector_field(CubicFamilyParams(), 60)
    assert all(vf.f_part(k).is_zero() and vf.g_part(k).is_zero() for k in (2, 3))


def test_family_field_quadratic_reading():
    vf = family_vector_field(CubicFamilyParams(a1=1), 60)
    assert [float(c) for c in vf.f_part(2).coeffs] == [1.0, 0.0, -1.0]  # x^2 - y^2
    assert [float(c) for c in vf.g_part(2).coeffs] == [0.0, 2.0, 0.0]  # 2 x y


def test_family_field_cubic_reading():
    # with a7 = -b4 = 1 the first component's cubic part is b4*y^3 = -y^3
    vf = family_vector_field(CubicFamilyParams(b4=-1, a7=1), 60)
    assert [float(c) for c in vf.f_part(3).coeffs] == [0.0, 0.0, 0.0, -1.0]
    assert [float(c) for c in vf.g_part(3).coeffs] == [1.0, 0.0, 0.0, 0.0]  # x^3


def test_resolved_field_rounds_the_xy2_coefficient_once():
    # the x y^2 coefficient of G_3 is -(b6 - a5) = -(b6/2 + b4 + sigma b4)
    # for the exact stage value a5: that value rounded once, not b6 minus
    # an a5 rounded before
    dom = BigRealDomain(dps=60)
    for sigma in find_sigma_roots(60):
        for b4 in (Fraction(-1), Fraction(-3, 7), Fraction(-7, 4), Fraction(-5, 9)):
            params = substitution_chain(b4, sigma, 60)
            want = dom.coerce(-(params.b6 / 2 + b4 + sigma * b4))
            assert family_vector_field(params, 60).g_part(3).coeff(1, 2) == want, (sigma, b4)


def test_family_field_rejects_positive_b4():
    with pytest.raises(UsageError):
        family_vector_field(CubicFamilyParams(b4=1), 60)


# -- the full report ----------------------------------------------------------


def test_report_scaling_exponents_verified():
    rep = reproduce_example(root=1, precision=60)
    with mp.workdps(60):
        assert mp.mpf(rep["scaling_check"]["l8_relative_deviation"]) < mp.mpf(10) ** -20
        assert mp.mpf(rep["scaling_check"]["det_relative_deviation"]) < mp.mpf(10) ** -20
    assert rep["schema"] == "bautin-lab/1"
    assert rep["scaling_check"]["l8_exponent"] == 8
    assert rep["scaling_check"]["det_exponent"] == 30


def test_report_precision_stability():
    rep60 = reproduce_example(root=2, precision=60)
    rep120 = reproduce_example(root=2, precision=120)
    with mp.workdps(130):
        for key in ("sigma", "L8_over_b4_8", "detP_over_b4_30"):
            a, b = mp.mpf(rep60[key]), mp.mpf(rep120[key])
            assert abs(a - b) < abs(b) * mp.mpf(10) ** -30, key


def test_report_validates_input():
    with pytest.raises(UsageError):
        reproduce_example(root=3)
    # b4 must be rational; a float carrier is refused, not truncated
    for b4 in (mp.mpf(-1), -1.0, "-1/0"):
        with pytest.raises(UsageError):
            reproduce_example(root=1, b4=b4)


def test_center_check_of_the_resolved_field_finds_the_exact_order():
    # the paper's field is a weak focus of order 8; the field resolved at 60
    # digits stores dyadic values on which L_1..L_3 vanish exactly and L_4
    # does not.  Float mode reads that order off the residues of the stored
    # values, as exact mode does on them, and prints the exact L_j of the
    # stored values rounded once
    from bautin_lab.structure import center_check

    s1, _ = find_sigma_roots(60)
    params = substitution_chain(Fraction(-1), s1, 60)
    vf = family_vector_field(params, 60)
    cert, exact = center_check(vf), center_check(stored_field(vf))
    assert cert.verdict == exact.verdict == "weak-focus"
    assert cert.weak_focus_order == exact.weak_focus_order == 4
    (j, got), (_, want) = cert.first_nonzero, exact.first_nonzero
    assert got == vf.domain.ratio(want.numerator, want.denominator)
    assert cert.center_bound == 8
    assert cert.exit_code == 5
