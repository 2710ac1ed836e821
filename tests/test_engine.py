import random
from fractions import Fraction

import pytest

from bautin_lab.engine import (
    accumulate_rhs,
    compute_series,
    compute_series_unknown,
    dense_rotational_solve,
    residual,
    rotational_solve,
    tiebreak_slot,
)
from bautin_lab.errors import UsageError
from bautin_lab.fields import (
    coerce_field,
    parse_vector_field,
    random_divergence_free_field,
    random_field,
    random_homogeneous_field,
    random_reversible_field,
    rotational_family_field,
)
from bautin_lab.hpoly import HomogPoly
from bautin_lab.scalars import BigRealDomain, LinearForm
from bautin_lab.structure import gap_profile


def F(*args):
    return Fraction(*args)


def test_tiebreak_slots():
    # half-degree even -> the (h, h) slot; odd -> (h-1, h+1)
    assert tiebreak_slot(4) == (2, 2)
    assert tiebreak_slot(6) == (2, 4)
    assert tiebreak_slot(8) == (4, 4)
    assert tiebreak_slot(10) == (4, 6)
    with pytest.raises(UsageError):
        tiebreak_slot(5)


def test_solve_zero_rhs_odd_degree():
    V, L, tb = rotational_solve(3, HomogPoly.zero(3))
    assert V.is_zero() and L is None and tb is None


def test_solve_degree4_x_drive():
    # R = x * F_3 with F_3 = x^3
    V, L, tb = rotational_solve(4, HomogPoly.monomial(4, 0, F(1)))
    assert L == F(3, 8)
    assert V.coeff(3, 1) == F(-5, 8)
    assert V.coeff(1, 3) == F(-3, 8)
    assert V.coeff(4, 0) == 0 and V.coeff(2, 2) == 0 and V.coeff(0, 4) == 0
    assert tb.slot == (2, 2) and tb.value == 0


def test_solve_degree4_y3_drive():
    # R = x * F_3 with F_3 = y^3
    V, L, _ = rotational_solve(4, HomogPoly.monomial(1, 3, F(1)))
    assert L == 0
    assert V.coeffs == (0, F(0), F(0), F(0), F(-1, 4))


def _reference_rhs(series, k, include_direct=True):
    """R_k as a plain sum of HomogPoly products, in the loop order the
    shared-denominator kernel has to reproduce."""
    vf = series.field
    total = HomogPoly.zero(k)
    top = min(vf.degree, k - 1 if include_direct else k - 2)
    for d in range(2, top + 1):
        Vm = series.V.get(k + 1 - d)
        if Vm is None or Vm.is_zero():
            continue
        Fd, Gd = vf.f_part(d), vf.g_part(d)
        if not Fd.is_zero():
            total = total + Vm.dx() * Fd
        if not Gd.is_zero():
            total = total + Vm.dy() * Gd
    return total


def test_accumulate_homogeneous_cubic():
    vf = parse_vector_field("n 3\nF 3 0 1\nF 0 3 -2\nG 2 1 5\n")
    series = compute_series(vf, 3)
    x = HomogPoly.monomial(1, 0, F(1))
    y = HomogPoly.monomial(0, 1, F(1))
    expected4 = x * vf.f_part(3) + y * vf.g_part(3)
    num, den = accumulate_rhs(series, 4)
    assert [F(c, den) for c in num.coeffs] == list(expected4.coeffs)
    # V_3 = 0, so the degree-5 source is empty
    assert accumulate_rhs(series, 5)[0].is_zero()
    expected6 = series.V[4].dx() * vf.f_part(3) + series.V[4].dy() * vf.g_part(3)
    num, den = accumulate_rhs(series, 6)
    assert [F(c, den) for c in num.coeffs] == list(expected6.coeffs)

    # the shared-denominator kernel against the HomogPoly-product formula
    fields = [random_field(n, seed=40 + n) for n in (2, 3, 4, 5)]
    fields += [
        make(n, seed=n)
        for n in (2, 3, 4, 5)
        for make in (
            random_homogeneous_field,
            random_divergence_free_field,
            random_reversible_field,
            rotational_family_field,
        )
    ]
    float_domain = BigRealDomain(dps=60)
    for vf in fields:
        J = vf.degree + 3
        exact = compute_series(vf, J)
        inexact = compute_series(coerce_field(vf, float_domain), J)
        for k in range(3, 2 * J + 4):
            for direct in (True, False):
                num, den = accumulate_rhs(exact, k, direct)
                assert isinstance(den, int) and den > 0
                assert all(isinstance(c, int) for c in num.coeffs)
                ref = _reference_rhs(exact, k, direct)
                assert [F(c, den) for c in num.coeffs] == list(ref.coeffs), (vf, k, direct)
                with float_domain.context():  # repr round-trips at this precision
                    num, den = accumulate_rhs(inexact, k, direct)
                    got = list(map(repr, num.coeffs))
                    want = list(map(repr, _reference_rhs(inexact, k, direct).coeffs))
                # den == 1 and the same summation order, so the same bits
                assert den == 1 and got == want, (vf, k, direct)


def test_series_divergence_free_quadratic():
    vf = parse_vector_field("n 2\nF 2 0 1\nG 1 1 -2\n")
    series = compute_series(vf, 6)
    assert all(L == 0 for _, L in series.l_values())


def test_series_cubic_f30():
    vf = parse_vector_field("n 3\nF 3 0 1\n")
    assert compute_series(vf, 1).L[1] == F(3, 8)


def test_series_quartic_first_constant_at_three():
    vf = random_homogeneous_field(4, seed=9)
    series = compute_series(vf, 3)
    assert series.L[1] == 0 and series.L[2] == 0
    assert series.L[3] != 0


def test_residuals_vanish_everywhere():
    for seed in range(6):
        n = 2 + seed % 5
        vf = random_field(n, seed)
        J = n + 3
        series = compute_series(vf, J)
        for k in range(3, 2 * J + 3):
            assert residual(series, k).is_zero(), (n, seed, k)


def test_gap_law_and_scaling():
    for n in (2, 3, 4):
        vf = random_homogeneous_field(n, seed=n)
        J = 2 * (n + 2)
        base = compute_series(vf, J)
        profile = gap_profile(n)
        for j, L in base.l_values():
            if not profile.l_index_expected_nonzero(j):
                assert L == 0
        for s in (F(2), F(-3), F(1, 5)):
            scaled = compute_series(vf.scale_params(s), J)
            for m in range(1, 7):
                k = 2 + m * (n - 1)
                if k % 2 == 0 and k <= 2 * J + 2:
                    j = k // 2 - 1
                    assert scaled.L[j] == s**m * base.L[j], (n, s, m)


def test_reversible_and_divergence_free_oracles():
    for seed in range(3):
        for n in (2, 3, 4):
            for vf in (
                random_divergence_free_field(n, seed),
                random_reversible_field(n, seed),
            ):
                series = compute_series(vf, 8)
                assert all(L == 0 for _, L in series.l_values()), (n, seed)


def test_dense_oracle_agreement():
    for seed in range(8):
        n = 2 + seed % 4
        vf = random_field(n, seed + 100)
        series = compute_series(vf, n + 2)
        for k in range(3, 2 * (n + 2) + 3):
            num, _ = accumulate_rhs(series, k)
            fast = rotational_solve(k, num)
            dense = dense_rotational_solve(k, num)
            assert fast[0].coeffs == dense[0].coeffs
            assert fast[1] == dense[1]


def test_unknown_mode_quadratic_forms():
    vf = random_homogeneous_field(2, seed=5)
    series = compute_series_unknown(vf, [2], J=4)
    assert [u.slot for u in series.unknowns] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    for j in (1, 2, 3, 4):
        form = series.L[j]
        assert isinstance(form, LinearForm)
        assert form.const == 0
        assert len(form.coeffs) == 4


def test_unknown_mode_cubic_leading_constant_decoupled():
    # at odd top degree the first constant never involves the block unknowns
    vf = random_homogeneous_field(3, seed=6)
    series = compute_series_unknown(vf, [3], J=5)
    lead = series.L[1]
    assert isinstance(lead, LinearForm) and not lead.carries_unknowns()
    assert lead.const == compute_series(vf, 1).L[1]
    # later constants do involve them
    assert series.L[2].carries_unknowns()


def test_unknown_mode_matches_plain_on_substitution():
    for seed in range(4):
        n = 2 + seed % 3
        vf = random_field(n, seed + 7)
        J = n + 3
        unknown = compute_series_unknown(vf, range(2, n + 1), J)
        plain = compute_series(vf, J)
        evaluated = unknown.evaluate_at(unknown.plain_assignment())
        for j, L in plain.l_values():
            assert evaluated.L[j] == L, (n, seed, j)
        for k in plain.V:
            assert evaluated.V[k].coeffs == plain.V[k].coeffs, (n, seed, k)


def test_unknown_mode_residuals_identically_zero_off_levels():
    # the series is affine in the unknowns, so any assignment of them gives a
    # plain series that solves every degree above the replaced levels
    vf = random_field(3, seed=8)
    series = compute_series_unknown(vf, [2, 3], J=5)
    rng = random.Random(8)
    assignment = {
        u.slot: F(rng.randint(-9, 9), rng.randint(1, 9)) for u in series.unknowns
    }
    evaluated = series.evaluate_at(assignment)
    for k in range(5, 13):  # degrees above every replaced level
        assert residual(evaluated, k).is_zero(), k


def test_budget_and_validation():
    vf = random_homogeneous_field(2, seed=1)
    with pytest.raises(UsageError):
        compute_series(vf, 0)
    with pytest.raises(UsageError):
        compute_series_unknown(vf, [], 3)
    with pytest.raises(UsageError):
        compute_series_unknown(vf, [5], 3)
    series = compute_series(vf, 4)
    assert series.max_index == 4
    assert series.max_degree == 10
    assert series.V[2].coeffs == (F(1, 2), 0, F(1, 2))
