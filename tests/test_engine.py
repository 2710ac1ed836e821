import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest

from bautin_lab import engine
from bautin_lab.engine import (
    LyapunovSeries,
    accumulate_rhs,
    compute_series,
    compute_series_unknown,
    dense_rotational_solve,
    extend_series,
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
from bautin_lab.hpoly import HomogPoly, circle_power
from bautin_lab.scalars import RATIONAL, BigRealDomain, LinearForm, ResidueDomain, exact_str
from bautin_lab.structure import build_p_matrix, gap_profile
from oracles import (
    circle_mean,
    dilated_field,
    mp_round,
    order_two_weak_focus,
    pinned_run,
    poly_sum,
    reflected_field,
    residual,
    rotated_field,
    scaled_field,
    stored_field,
)


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
    V, L = rotational_solve(3, HomogPoly.zero(3))
    assert V.is_zero() and L is None


def test_solve_degree4_x_drive():
    # R = x * F_3 with F_3 = x^3
    V, L = rotational_solve(4, HomogPoly.monomial(4, 0, F(1)))
    assert L == F(3, 8)
    assert V.coeff(3, 1) == F(-5, 8)
    assert V.coeff(1, 3) == F(-3, 8)
    assert V.coeff(4, 0) == 0 and V.coeff(2, 2) == 0 and V.coeff(0, 4) == 0


def test_solve_degree4_y3_drive():
    # R = x * F_3 with F_3 = y^3
    V, L = rotational_solve(4, HomogPoly.monomial(1, 3, F(1)))
    assert L == 0
    assert V.coeffs == (0, F(0), F(0), F(0), F(-1, 4))


def _reference_rhs(series, k):
    """R_k as a plain sum of HomogPoly products, the formula the
    shared-denominator kernel has to reproduce."""
    vf = series.field
    total = HomogPoly.zero(k)
    for d in range(2, min(vf.degree, k - 1) + 1):
        Vm = series.V.get(k + 1 - d)
        if Vm is None or Vm.is_zero():
            continue
        Fd, Gd = vf.f_part(d), vf.g_part(d)
        if not Fd.is_zero():
            total = poly_sum(total, Vm.dx() * Fd)
        if not Gd.is_zero():
            total = poly_sum(total, Vm.dy() * Gd)
    return total


def _assert_rhs(series, k, R):
    """``R`` is R_k of ``series`` as ``accumulate_rhs`` promises: integer
    numerators over a positive int (a power of two in float mode), equal to
    the HomogPoly-product formula on the exact values the series stores."""
    assert isinstance(R.den, int) and R.den > 0
    assert all(isinstance(c, int) for c in R.nums)
    if not series.domain.exact:
        assert R.den & (R.den - 1) == 0
    want = _reference_rhs(series, k).coeffs
    assert [F(c, R.den) for c in R.nums] == list(want), (series.field, k)


def _checked_rhs(monkeypatch):
    """Check every ``accumulate_rhs`` call of the per-degree loop with
    ``_assert_rhs``; returns the list of checked degrees."""
    checked = []
    accumulate = engine.accumulate_rhs

    def check(series, k):
        R = accumulate(series, k)
        _assert_rhs(series, k, R)
        checked.append(k)
        return R

    monkeypatch.setattr(engine, "accumulate_rhs", check)
    return checked


def test_accumulate_homogeneous_cubic():
    vf = parse_vector_field("n 3\nF 3 0 1\nF 0 3 -2\nG 2 1 5\n")
    series = compute_series(vf, 3)
    x = HomogPoly.monomial(1, 0, F(1))
    y = HomogPoly.monomial(0, 1, F(1))
    expected4 = poly_sum(x * vf.f_part(3), y * vf.g_part(3))
    assert accumulate_rhs(series, 4).coeffs == expected4.coeffs
    # V_3 = 0, so the degree-5 source is empty
    assert accumulate_rhs(series, 5).is_zero()
    expected6 = poly_sum(series.V[4].dx() * vf.f_part(3), series.V[4].dy() * vf.g_part(3))
    assert accumulate_rhs(series, 6).coeffs == expected6.coeffs

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
            _assert_rhs(exact, k, accumulate_rhs(exact, k))
            # float R_k: the exact source term of the stored values, over a
            # power of two
            _assert_rhs(inexact, k, accumulate_rhs(inexact, k))


#: Fields with one part of a degree zero: F_2 = 0 != G_2 with G_3 = 0 != F_3,
#: then G_2 = 0 != F_2, and a quartic with F_3 = G_3 = 0 between nonzero
#: degree-2 and degree-4 parts.  G's x^d and F's y^d terms fill the stencil's
#: edge slots j = -1 and j = d; F and G have different denominators.
EDGE_FIELDS = (
    "n 3\nG 2 0 1/3\nG 1 1 -2/5\nG 0 2 7\nF 3 0 1/7\nF 0 3 -3/2\nF 1 2 2\n",
    "n 3\nF 2 0 -1/6\nF 0 2 5/4\nG 3 0 2/9\nG 0 3 1\nF 0 3 -1/5\nG 1 2 3\n",
    "n 4\nF 2 0 1\nF 1 1 -1/2\nG 2 0 -1\nG 0 2 3/4\n"
    "F 4 0 -1/3\nF 0 4 2\nG 4 0 1/5\nG 3 1 1\nG 0 4 -7/11\n",
)


def test_accumulate_edge_stencils(monkeypatch):
    checked = _checked_rhs(monkeypatch)
    domain = BigRealDomain(dps=60)
    for text in EDGE_FIELDS:
        vf = parse_vector_field(text)
        terms = LyapunovSeries(vf)._field_terms
        slots = [(d, j) for d, (stencil, _) in terms.items() for j, _, _ in stencil]
        assert any(j == -1 for d, j in slots) and any(j == d for d, j in slots), text
        for field in (vf, coerce_field(vf, domain)):
            before = len(checked)
            compute_series(field, vf.degree + 4)
            assert len(checked) - before == 2 * vf.degree + 8
    # the quartic's empty middle degree has no stencil
    assert sorted(LyapunovSeries(parse_vector_field(EDGE_FIELDS[2]))._field_terms) == [2, 4]


def test_stencil_transpose_against_accumulate():
    # the gather of the reverse sweep is the transpose of the stencils: for a
    # series holding only V_m, whose R_k (k = m+d-1) is the one term of
    # degree d, sum over d of s_d <r_d, R_k> / e_d = <w, V_m> for covectors
    # r_d on the numerators of R_k, gathered with scales s_d one tap at a
    # time and all together
    rng = random.Random(11)
    fields = [parse_vector_field(text) for text in EDGE_FIELDS]
    fields += [random_field(n, seed=50 + n) for n in (2, 3, 4, 5)]
    fields += [random_homogeneous_field(n, seed=50 + n) for n in (2, 3, 4)]
    fields += [coerce_field(vf, BigRealDomain(dps=60)) for vf in fields[:4]]
    for vf in fields:
        for m in (2, 3, 6, 9):
            V = HomogPoly.from_ints(m, [rng.randint(-99, 99) for _ in range(m + 1)], rng.randint(1, 99))
            series = LyapunovSeries(vf, V={m: V})
            taps, want = [], 0
            for d, (stencil, e) in series._field_terms.items():
                k = m + d - 1
                R = accumulate_rhs(series, k)
                r, s = [rng.randint(-99, 99) for _ in range(k + 1)], rng.randint(1, 9)
                taps.append((stencil, [0, *r, 0], s))
                lhs = F(s * sum(map(operator.mul, r, R.nums)), R.den)
                w = engine._gather(m, taps[-1:])
                assert lhs == F(sum(map(operator.mul, w, V.nums)), V.den * e), (vf, m, d)
                want += lhs * e
            w = engine._gather(m, taps)
            assert want == F(sum(map(operator.mul, w, V.nums)), V.den), (vf, m)


def test_float_series_wide_exponent_range():
    # coefficients 600 decades apart: the integer kernel carries the full
    # spread and the float constants stay as accurate as the inputs
    text = "n 3\nF 2 0 1e-300\nF 0 2 3\nF 3 0 1e300\nG 1 1 -2\nG 0 3 1e-300\n"
    domain = BigRealDomain(dps=60)
    exact = compute_series(parse_vector_field(text), 20)
    inexact = compute_series(parse_vector_field(text, domain), 20)
    for j in range(1, 21):
        want = mp_round(exact.L[j], domain.dps)
        assert want != 0 and abs(inexact.L[j] - want) <= Fraction(1, 10**50) * abs(want), j


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
            scaled = compute_series(scaled_field(vf, s), J)
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
            R = accumulate_rhs(series, k)
            fast = rotational_solve(k, R)
            dense = dense_rotational_solve(k, R)
            assert fast[0].coeffs == dense[0].coeffs
            assert fast[1] == dense[1]


def test_unknown_mode_quadratic_forms():
    vf = random_homogeneous_field(2, seed=5)
    series = compute_series_unknown(vf, [2], J=4)
    assert series.unknowns == [(3, 0), (2, 1), (1, 2), (0, 3)]
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
    assert isinstance(lead, LinearForm) and not any(lead.coeffs.values())
    assert lead.const == compute_series(vf, 1).L[1]
    # later constants do involve them
    assert any(series.L[2].coeffs.values())


def _evaluate(form, values):
    return form.const + sum(c * values[s] for s, c in form.coeffs.items())


def test_unknown_mode_forms_list_every_unknown_in_order():
    # zero coefficients are kept, so every column of P is a plain lookup
    cases = [(random_field(n, seed=n), range(2, n + 1)) for n in (2, 3, 4)]
    cases += [(random_homogeneous_field(n, seed=n), [n]) for n in (2, 3, 4)]
    for vf, levels in cases:
        for field in (vf, coerce_field(vf, BigRealDomain(dps=60))):
            series = compute_series_unknown(field, levels, vf.degree + 3)
            assert series.V == {} and len(series.L) == vf.degree + 3
            for form in series.L.values():
                assert list(form.coeffs) == series.unknowns, (vf, levels)


def test_unknown_mode_matches_plain_on_substitution():
    for seed in range(4):
        n = 2 + seed % 3
        vf = random_field(n, seed + 7)
        J = n + 3
        unknown = compute_series_unknown(vf, range(2, n + 1), J)
        plain = compute_series(vf, J)
        # each unknown stands for the full V_k coefficient of the plain series
        values = {uid: plain.V[sum(uid)].coeff(*uid) for uid in unknown.unknowns}
        assert sorted(unknown.L) == list(range(1, J + 1))
        for j, L in plain.l_values():
            assert _evaluate(unknown.L[j], values) == L, (n, seed, j)


def test_unknown_mode_matches_pinned_runs_at_any_assignment():
    # the constants are affine in the unknowns: any assignment of them gives
    # the constants of a plain run with the replaced blocks pinned there
    rng = random.Random(8)
    for vf, levels in (
        (random_field(3, seed=8), [2, 3]),
        (random_field(4, seed=8), [2, 3, 4]),
        (random_homogeneous_field(3, seed=8), [3]),
    ):
        J = vf.degree + 3
        series = compute_series_unknown(vf, levels, J)
        values = {uid: F(rng.randint(-9, 9), rng.randint(1, 9)) for uid in series.unknowns}
        pins = {k + 1: HomogPoly.zero(k + 1) for k in levels}
        for (i, a), c in values.items():
            pins[i + a] = poly_sum(pins[i + a], HomogPoly.monomial(i, a, c))
        pinned = pinned_run(vf, J, pins)
        assert {j: _evaluate(form, values) for j, form in series.L.items()} == pinned.L, vf


def test_budget_and_validation():
    vf = random_homogeneous_field(2, seed=1)
    with pytest.raises(UsageError):
        compute_series(vf, 0)
    with pytest.raises(UsageError):
        compute_series_unknown(vf, [], 3)
    with pytest.raises(UsageError):
        compute_series_unknown(vf, [5], 3)
    series = compute_series(vf, 4)
    assert max(series.L) == 4
    assert series.max_degree == 10
    assert series.V[2].coeffs == (F(1, 2), 0, F(1, 2))
    # the certificate series holds no V_2 to continue from
    with pytest.raises(UsageError):
        extend_series(compute_series_unknown(vf, [2], 3), 4)
    # a level whose block lies above the budget leaves no unknowns, and L_1
    # keeps its plain value
    general = random_field(4, seed=1)
    lone = compute_series_unknown(general, [4], 1)
    assert lone.unknowns == [] and lone.L[1].const == compute_series(general, 1).L[1]


FAMILIES = (
    random_homogeneous_field,
    random_divergence_free_field,
    random_reversible_field,
    rotational_family_field,
)


def _fraction_chains(k, c, seen=None):
    """The parity chains of rotational_solve run value by value on
    Fractions: the reference for the integer solve.  A list ``seen`` gets
    the odd-slot values of the first pass (at even k, those for L = 0)."""
    c = [F(x) for x in c]  # an int source slot would make 0 / int a float
    v = [F(0)] * (k + 1)
    for b in range(0, k, 2):
        v[b + 1] = -c[0] if b == 0 else ((k - b + 1) * v[b - 1] - c[b]) / (b + 1)
    if seen is not None:
        seen.extend(v)
    if k % 2 == 1:
        for b in range(k, 0, -2):
            v[b - 1] = c[k] if b == k else ((b + 1) * v[b + 1] + c[b]) / (k - b + 1)
        return v, None
    cp = circle_power(k // 2).coeffs
    unit = [F(0)] * (k + 1)
    for b in range(0, k, 2):
        unit[b + 1] = ((k - b + 1) * (unit[b - 1] if b else 0) + cp[b]) / F(b + 1)
    L = (c[k] - v[k - 1]) / (1 + unit[k - 1])
    for a in range(1, k, 2):
        v[a] += L * unit[a]
    a_t = tiebreak_slot(k)[1]
    for b in range(a_t + 1, k, 2):
        v[b + 1] = ((k - b + 1) * v[b - 1] - c[b]) / (b + 1)
    for b in range(a_t - 1, 0, -2):
        v[b - 1] = ((b + 1) * v[b + 1] + c[b]) / (k - b + 1)
    return v, L


def _fraction_chain_series(vf, J):
    """V_3..V_(2J+2) and L_1..L_J from HomogPoly products and Fraction chains."""
    series = LyapunovSeries(vf, V={2: HomogPoly(2, [F(1, 2), 0, F(1, 2)])})
    for k in range(3, 2 * J + 3):
        v, L = _fraction_chains(k, _reference_rhs(series, k).coeffs)
        series.V[k] = HomogPoly(k, v)
        if L is not None:
            series.L[k // 2 - 1] = L
    return series


def _dense_checked(monkeypatch, domain=RATIONAL):
    """Check every solve of the per-degree loop against the dense oracle on
    the same exact source term, its solution rounded once by ``mp_round``
    in float mode; returns the list of solved degrees."""
    solves = []
    solve = engine.rotational_solve

    def checked(k, R, d=RATIONAL):
        assert d == domain
        V, L = solve(k, R, d)
        dense_V, dense_L = dense_rotational_solve(k, R)
        if not domain.exact:
            dense_V = dense_V.map_coeffs(lambda c: mp_round(c, domain.dps))
            if dense_L is not None:
                dense_L = mp_round(dense_L, domain.dps)
        assert V.coeffs == dense_V.coeffs and L == dense_L, k
        solves.append(k)
        return V, L

    monkeypatch.setattr(engine, "rotational_solve", checked)
    return solves


def test_integer_solve_on_every_degree_of_plain_runs(monkeypatch):
    solves = _dense_checked(monkeypatch)
    fields = [random_field(n, seed=60 + n) for n in (2, 3, 4, 5)]
    fields += [make(n, seed=n + 1) for n in (2, 3, 4, 5) for make in FAMILIES]
    for vf in fields:
        J = vf.degree + 3
        series = compute_series(vf, J)
        ref = _fraction_chain_series(vf, J)
        assert all(type(x) is Fraction for x in ref.L.values()), vf
        assert all(type(x) is Fraction for k, V in ref.V.items() if k > 2 for x in V.coeffs), vf
        assert series.L == ref.L and all(type(L) is Fraction for L in series.L.values())
        for k, want in ref.V.items():
            got = series.V[k]
            # stored as numerators over one denominator, reduced together
            assert got.den > 0
            assert math.gcd(*got.nums, got.den) == 1
            assert [F(n, got.den) for n in got.nums] == list(want.coeffs), (vf, k)
            assert got.coeffs == want.coeffs, (vf, k)
    assert len(solves) > 100


def test_solve_transpose_against_dense_solve():
    # <g, R> = sweep * (<w, V> + t L) for the dense solution V, L of R; the
    # even degrees pin slots (h, h) and (h-1, h+1) alternately
    rng = random.Random(12)
    for k in range(3, 42):
        R = HomogPoly(k, [rng.randint(-99, 99) for _ in range(k + 1)])
        V, L = dense_rotational_solve(k, R)
        sweep = engine._chain_constants(k)[1]
        draws = [([rng.randint(-99, 99) for _ in range(k + 1)], 0)]
        if k % 2 == 0:
            draws += [([0] * (k + 1), 1), ([rng.randint(-99, 99) for _ in range(k + 1)], -7)]
        for w, t in draws:
            g = engine._solve_transpose(k, [sweep * x for x in w], t)
            assert all(type(x) is int for x in g)
            want = sum(map(operator.mul, w, V.coeffs)) + (t * L if t else 0)
            assert sum(map(operator.mul, g, R.coeffs)) == sweep * want, (k, t)


def test_chain_solve_is_exact_at_every_degree_to_202():
    # the scaled chains on ~100-bit sources, to past the benchmark's top
    # degree 122: d is the scale, every slice equation holds on the ints,
    # the pinned slot is zero, and the transpose on w scaled by the sweep
    # scale gives scale * <g, R> = sweep * (<w, v> + t l)
    rng = random.Random(18)

    def draw(n):
        return [rng.getrandbits(100) - (1 << 99) for _ in range(n)]

    for k in range(3, 203):
        scale, sweep, _ = engine._chain_constants(k)
        R = draw(k + 1)
        v, l, d = engine._solve_ints(k, R, 1)
        assert d == scale and all(type(x) is int for x in v), k
        cp = circle_power(k // 2).coeffs if k % 2 == 0 else (0,) * (k + 1)
        if k % 2 == 0:
            assert v[tiebreak_slot(k)[1]] == 0 and type(l) is int, k
        else:
            assert l is None, k
        l = l or 0
        padded = [0, *v, 0]  # v[b] at padded[b + 1]
        for b in range(k + 1):
            lhs = (b + 1) * padded[b + 2] - (k - b + 1) * padded[b] + scale * R[b]
            assert lhs == l * cp[b], (k, b)
        w, t = draw(k + 1), (draw(1)[0] if k % 2 == 0 else 0)
        g = engine._solve_transpose(k, [sweep * x for x in w], t)
        assert all(type(x) is int for x in g), k
        lhs = scale * sum(map(operator.mul, g, R))
        assert lhs == sweep * (sum(map(operator.mul, w, v)) + t * l), k


def test_chain_scale_clears_every_intermediate():
    # brute force on Fractions, source by source.  Every forward step yields
    # a coefficient of V or L, so the forward scale must be a multiple of
    # each of their denominators, and it may exceed the least such multiple
    # only by a power of two (an odd factor is pure overshoot).  The sweep
    # scale must also clear the L = 0 pass of the odd-slot chain, whose
    # values the transposed steps meet, and the power of two under the
    # circle weights
    for k in range(3, 61):
        scale, sweep, circle = engine._chain_constants(k)
        needed, first = 1, 1
        for b in range(k + 1):
            seen = []
            v, L = _fraction_chains(k, [F(int(a == b)) for a in range(k + 1)], seen)
            needed = math.lcm(needed, *(x.denominator for x in v), F(L or 0).denominator)
            first = math.lcm(first, *(x.denominator for x in seen))
        least = math.lcm(needed, first, circle[0] if circle else 1)
        for got, want in ((scale, needed), (sweep, least)):
            over = got // want
            assert got % want == 0 and over & (over - 1) == 0, (k, got, want)


def test_residue_prime_divides_no_chain_constant():
    # the residue solve divides by each degree's scale once and the sweep by
    # its own; the prime of ResidueDomain divides neither scale nor the power
    # of two under the circle weights up to degree 220 (L_109), so no run
    # that short is refused for it
    p = ResidueDomain().p
    for k in range(3, 221):
        scale, sweep, circle = engine._chain_constants(k)
        assert scale % p != 0 and sweep % p != 0, k
        assert circle is None or circle[0] % p != 0, k


def test_residue_series_reduces_the_exact_constants():
    # the unchanged loop on residues gives each exact L_j modulo p, on general
    # and homogeneous fields (gap degrees included), and from a float field
    # the residues of the dyadic values it stores
    dom = ResidueDomain()
    fields = [
        make(n, seed)
        for make in (random_field, random_homogeneous_field, random_divergence_free_field)
        for n in range(2, 7)
        for seed in (0, 1)
    ]
    inexact = coerce_field(random_field(3, 2), BigRealDomain(dps=60))
    fields.append(stored_field(inexact))
    for vf in fields:
        exact = compute_series(vf, 6).L
        residues = compute_series(coerce_field(vf, dom), 6).L
        for j in range(1, 7):
            want = exact[j].numerator * pow(exact[j].denominator, -1, dom.p) % dom.p
            assert residues[j] == want, (vf, j)
    stored = compute_series(coerce_field(stored_field(inexact), dom), 6).L
    assert compute_series(coerce_field(inexact, dom), 6).L == stored


def test_constants_are_circle_means_of_the_source():
    # on the unit circle rot is d/dt, so L_j is the mean of R_(2j+2) there
    # (oracles.circle_mean, from Euler's formula); on residue fields L_j is
    # that mean of the residue source, reduced mod p
    dom = ResidueDomain()
    for make in (random_field, random_homogeneous_field):
        for n in range(2, 7):
            J = 30 if n < 5 else 20
            vf = make(n, 3)
            for f in (vf, coerce_field(vf, dom)):
                series = compute_series(f, J)
                assert any(series.L.values()), (make, n)
                for j in range(1, J + 1):
                    m = circle_mean(accumulate_rhs(series, 2 * j + 2))
                    if f is not vf:
                        m = m.numerator * pow(m.denominator, -1, dom.p) % dom.p
                    assert series.L[j] == m, (make, n, j)


@pytest.mark.parametrize("dom", [RATIONAL, ResidueDomain(), BigRealDomain(60)])
def test_constants_under_reflection_and_scaling(dom):
    # (x, y, t) -> (x, -y, -t) sends every L_j to -L_j, and x = mu X sends
    # it to mu^(2j) L_j; both maps act on the exact field, then its values
    # are read in the domain.  In float mode mu = 2 is exact in binary, so
    # both maps commute with every rounding and the identities hold bit for bit
    mu, J = (F(2) if isinstance(dom, BigRealDomain) else F(3, 2)), 20

    def constants(vf):
        L = compute_series(coerce_field(vf, dom), J).L
        return [L[j] for j in range(1, J + 1)]

    def times(c, x):  # c * x in the domain
        y = dom.ratio(c.numerator, c.denominator) * x
        return y % dom.p if isinstance(dom, ResidueDomain) else y

    for make in (random_field, random_homogeneous_field):
        for n in range(2, 6):
            vf = make(n, 5)
            L = constants(vf)
            assert any(L), (make, n)
            flip, dil = constants(reflected_field(vf)), constants(dilated_field(vf, mu))
            for j, (x, x_f, x_d) in enumerate(zip(L, flip, dil), start=1):
                assert x_f == times(F(-1), x), (make, n, j)
                assert x_d == times(mu ** (2 * j), x), (make, n, j)


@pytest.mark.parametrize("c, s", [(F(3, 5), F(4, 5)), (F(5, 13), F(12, 13))])
def test_rotations_keep_l1_and_the_first_nonzero_constant(c, s):
    # a rotation of the coordinates keeps L_1, and the first nonzero
    # constant of a weak focus; the later constants change, because the
    # tie-break slots are not rotation-invariant, so nothing is said of them
    for n in range(2, 6):
        for seed in (1, 2, 3):
            vf = random_field(n, seed)
            assert compute_series(rotated_field(vf, c, s), 1).L[1] == compute_series(vf, 1).L[1]
    for seed in (1, 2, 3):
        vf = order_two_weak_focus(seed)
        L, L_rot = compute_series(vf, 2).L, compute_series(rotated_field(vf, c, s), 2).L
        assert L[1] == L_rot[1] == 0 and L[2] != 0, seed
        assert L_rot[2] == L[2], seed


def _digest(values):
    return hashlib.sha256("\n".join(map(exact_str, values)).encode()).hexdigest()


def test_exact_outputs_match_recorded_digests():
    # sha256 of the exact text of L_1..L_60 of a random cubic, and of the
    # entries and det of a random quintic's certificate matrix, as recorded:
    # a change to any stored exact value changes them
    series = compute_series(random_field(3, seed=1), 60)
    assert _digest(series.L[j] for j in range(1, 61)) == (
        "1f2235a9da82c446ba010160bb63d31e51664636ba2bf5717ba4835fbd942a0b"
    )
    P = build_p_matrix(random_field(5, seed=1))
    assert _digest([x for row in P.entries for x in row] + [P.determinant()]) == (
        "90ff19f0e31c9a0e99374de260033db6e0d3423b19763fa6668955752bf63523"
    )


def test_exact_blocks_are_stored_in_lowest_terms():
    # the digests above pin the L values; this pins the stored form of every
    # V_k: numerators over a positive denominator sharing no factor with all
    # of them (a zero block is stored over 1), the homogeneous quartic's
    # zero blocks included
    fields = [random_field(3, seed) for seed in range(4)]
    fields += [random_field(5, seed=1), random_homogeneous_field(4, seed=1)]
    for vf in fields:
        for k, V in compute_series(vf, 40).V.items():
            assert V.den > 0 and math.gcd(*V.nums, V.den) == 1, (vf, k)


def _pinned_columns(vf, levels, J):
    """The coefficients of L_1..L_J in the unknowns of
    ``compute_series_unknown(vf, levels, J)`` by the forward loop: one run
    per unknown from V_2 = 0, with that coefficient at one and every other
    replaced coefficient at zero."""
    degrees = [k + 1 for k in levels if k + 1 <= 2 * J + 2]
    zero_blocks = {k: HomogPoly.zero(k) for k in degrees}
    columns = {}
    for k in degrees:
        for a in range(k + 1):
            if k % 2 == 0 and (k - a, a) == tiebreak_slot(k):
                continue
            pins = {**zero_blocks, k: HomogPoly.monomial(k - a, a, vf.domain.coerce(1))}
            columns[k - a, a] = pinned_run(vf, J, pins, v2=HomogPoly.zero(2)).L
    return columns


def test_p_matrix_equals_pinned_forward_runs():
    fields = [make(n, seed) for n in range(2, 7) for seed in range(3)
              for make in (random_field, random_homogeneous_field)]
    fields += [parse_vector_field("n 3\n"), parse_vector_field("n 3\nF 2 0 1\n")]
    # the benchmark's centers: general divergence-free and reversible fields
    fields += [make(n, seed=n) for n in (4, 5)
               for make in (random_divergence_free_field, random_reversible_field)]
    for vf in fields:
        P = build_p_matrix(vf)
        levels = [vf.degree] if vf.is_homogeneous() else range(2, vf.degree + 1)
        columns = _pinned_columns(vf, levels, max(P.row_labels))
        assert list(columns) == P.col_labels
        for i, j in enumerate(P.row_labels):
            assert P.entries[i] == [columns[s][j] for s in P.col_labels], (vf, j)
            assert all(type(x) is Fraction for x in P.entries[i])


def test_series_values_are_built_once_on_read():
    vf = random_field(3, seed=12)
    series = compute_series(vf, 6)
    # every block is nonzero here, and nothing has read a coefficient yet
    assert not any(series.V[k].is_zero() for k in range(3, 15))
    assert not any("coeffs" in vars(series.V[k]) for k in range(3, 15))
    first = {k: p.coeffs for k, p in series.V.items()}
    assert all(series.V[k].coeffs is first[k] for k in series.V)


def test_float_blocks_read_back_bit_for_bit(monkeypatch):
    # a float V_k is stored as dyadic numerators; read back, it gives the
    # very values the 60-digit solve rounded to, with no second rounding
    solved = {}
    solve = engine.rotational_solve

    def capture(k, R, domain=RATIONAL):
        V, L = solve(k, R, domain)
        # read a copy, so the stored block is left unread
        solved[k] = HomogPoly.from_ints(k, V.nums, V.den).coeffs
        return V, L

    monkeypatch.setattr(engine, "rotational_solve", capture)
    series = compute_series(coerce_field(random_field(4, seed=3), BigRealDomain(dps=60)), 6)
    assert len(solved) == 12 and not any("coeffs" in vars(series.V[k]) for k in solved)
    for k, want in solved.items():
        V = series.V[k]
        fresh = HomogPoly.from_ints(k, V.nums, V.den)
        assert fresh.coeffs == want == tuple(F(n, V.den) for n in V.nums), k
        # each value is on the 60-digit grid: rounding it again changes nothing
        assert want == tuple(BigRealDomain(dps=60).ratio(n, V.den) for n in V.nums), k
        assert V.coeffs == want, k  # the stored block itself, first read here


def test_float_solve_is_the_exact_solve_rounded_once(monkeypatch):
    domain = BigRealDomain(dps=60)
    solves = _dense_checked(monkeypatch, domain)
    fields = [random_field(n, seed=80 + n) for n in (2, 3, 4, 5)]
    fields += [make(n, seed=n + 2) for n in (2, 3, 4, 5) for make in FAMILIES]
    for vf in fields:
        compute_series(coerce_field(vf, domain), vf.degree + 3)
    assert len(solves) > 100


def test_float_unknown_coefficients_are_rounded_once():
    # each coefficient and each constant is the exact value for the stored
    # field (the pinned forward runs on exact rationals) rounded once at 60
    # digits, at each field's own level set and at partial ones; at its own
    # set every field has a nonzero coefficient, so no check passes vacuously
    domain = BigRealDomain(dps=60)
    constants = []
    for n in (2, 3, 4):
        partial = {(k,) for k in (2, 3, n) if k <= n}
        for vf, own in (
            (random_field(n, seed=90 + n), tuple(range(2, n + 1))),
            (random_homogeneous_field(n, seed=90 + n), (n,)),
        ):
            inexact = coerce_field(vf, domain)
            exact = stored_field(inexact)
            for levels in sorted(partial | {own}):
                series = compute_series_unknown(inexact, levels, n + 3)
                columns = _pinned_columns(exact, levels, n + 3)
                zero_blocks = {k + 1: HomogPoly.zero(k + 1) for k in levels}
                offsets = pinned_run(exact, n + 3, zero_blocks).L
                for j, form in series.L.items():
                    want = [mp_round(columns[s][j], domain.dps) for s in series.unknowns]
                    assert list(form.coeffs.values()) == want, (n, levels, j)
                    assert form.const == mp_round(offsets[j], domain.dps), (n, levels, j)
                if levels == own:
                    coeffs = [c for form in series.L.values() for c in form.coeffs.values()]
                    assert any(c != 0 for c in coeffs), (n, levels)
                constants += [form.const for form in series.L.values()]
    assert any(c != 0 for c in constants)


def test_p_matrix_runs_no_forward_series(monkeypatch):
    # P's entries and offsets are read off reverse sweeps alone: no degree
    # is solved forward, for a general and for a homogeneous field
    def refuse(*args):
        raise AssertionError("rotational_solve called")

    monkeypatch.setattr(engine, "rotational_solve", refuse)
    P = build_p_matrix(random_field(4, seed=3))
    assert any(P.row_offsets) and P.determinant() != 0
    P = build_p_matrix(random_homogeneous_field(5, seed=3))
    assert P.size == 6 and P.determinant() != 0


def test_homogeneous_sweeps_visit_only_the_pattern_degrees(monkeypatch):
    # a homogeneous R_k enters only V_(k+1-n), so a row's sweep gathers only
    # at the degrees 2 + m(n-1) that lead to V_(n+1) or V_2, with or
    # without V_2 replaced (P itself is checked against pinned forward runs
    # in test_p_matrix_equals_pinned_forward_runs)
    gathered = []
    gather = engine._gather
    monkeypatch.setattr(engine, "_gather", lambda m, taps: gathered.append(m) or gather(m, taps))
    for n in (3, 4, 6):
        vf = random_homogeneous_field(n, seed=5)
        gathered.clear()
        P = build_p_matrix(vf)
        assert gathered and {(m - 2) % (n - 1) for m in gathered} == {0}, n
        assert P.determinant() != 0
        gathered.clear()
        rows = list(engine.covector_rows(LyapunovSeries(vf), [n + 1], range(1, 3 * n)))
        assert gathered and {(m - 2) % (n - 1) for m in gathered} == {0}, n
        assert any(any(row) for row, _ in rows)


def test_float_solve_of_a_float_homog_poly():
    # the public call with rounded coefficients reads them as the dyadic
    # rationals they are and rounds at the domain's precision
    domain = BigRealDomain(dps=40)
    R = HomogPoly(6, [domain.coerce(c) for c in (F(1, 3), 0, -2, F(5, 7), 0, 1, F(1, 2**90))])
    V, L = rotational_solve(6, R, domain)
    exact_V, exact_L = dense_rotational_solve(6, R)
    assert V.coeffs == tuple(mp_round(c, domain.dps) for c in exact_V.coeffs)
    assert L == mp_round(exact_L, domain.dps)
