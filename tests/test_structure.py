import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bautin_lab import engine
from bautin_lab.engine import compute_series, compute_series_unknown
from bautin_lab.errors import NoResidueError, UsageError
from bautin_lab.fields import (
    VectorField,
    coerce_field,
    parse_vector_field,
    random_divergence_free_field,
    random_field,
    random_homogeneous_field,
    random_reversible_field,
    rotational_family_field,
)
from bautin_lab.hpoly import HomogPoly
from bautin_lab.scalars import RATIONAL, BigRealDomain, ResidueDomain
from bautin_lab.structure import (
    _certificate_det,
    _det_rows,
    GapViolation,
    build_p_matrix,
    center_check,
    center_number_bound,
    det_exact,
    gap_profile,
    verify_gaps,
)
from oracles import (
    apply_p,
    det_cofactor,
    dilated_field,
    mp_round,
    poly_sum,
    reflected_field,
    stored_field,
)


def F(*args):
    return Fraction(*args)


# -- gap profiles ------------------------------------------------------------


def test_gap_profile_examples():
    p4 = gap_profile(4)
    assert p4.l_indices_upto(10) == [3, 6, 9]
    assert p4.first_nonzero_index == 3
    p5 = gap_profile(5)
    assert p5.l_indices_upto(7) == [2, 4, 6]
    assert p5.first_nonzero_index == 2
    p3 = gap_profile(3)
    assert p3.l_indices_upto(5) == [1, 2, 3, 4, 5]
    assert p3.first_nonzero_index == 1
    assert p4.v_degrees_upto(12) == [5, 8, 11]
    with pytest.raises(UsageError):
        gap_profile(1)


def test_verify_gaps_accepts_homogeneous():
    for n in (2, 5):
        vf = random_homogeneous_field(n, seed=21)
        report = verify_gaps(compute_series(vf, 8))
        assert report.passed
        assert report.note is None


def test_verify_gaps_divergence_free_note():
    vf = random_divergence_free_field(3, seed=2, homogeneous=True)
    report = verify_gaps(compute_series(vf, 8))
    assert report.passed and report.all_constants_zero
    assert "partial center condition" in report.note


def test_verify_gaps_reports_a_long_off_pattern_constant():
    # a 5000-digit L_1 where the quartic pattern has none: the violation
    # carries every digit, past the interpreter's 4300-digit limit on
    # int-to-text conversion
    series = compute_series(random_homogeneous_field(4, seed=3), 4)
    assert gap_profile(4).l_indices_upto(4) == [3] and series.L[1] == 0
    series.L[1] = Fraction(10**4999 + 1, 3)
    [violation] = verify_gaps(series).violations
    assert violation == GapViolation("L", 1, "1" + "0" * 4998 + "1/3")


def test_verify_gaps_rejects_bad_input():
    full = random_field(3, seed=1)
    with pytest.raises(UsageError):
        verify_gaps(compute_series(full, 4))
    vf = random_homogeneous_field(2, seed=1)
    with pytest.raises(UsageError):
        verify_gaps(compute_series_unknown(vf, [2], 4))


# -- center-number bounds ----------------------------------------------------


def test_center_number_bounds():
    assert [center_number_bound(n, True) for n in (2, 3, 4, 5)] == [4, 5, 6, 7]
    assert center_number_bound(3, False) == 8
    assert center_number_bound(4, False) == 14
    assert center_number_bound(5, False) == 20
    assert center_number_bound(6, False) == 28


# -- the certificate matrix --------------------------------------------------


def test_p_matrix_homogeneous_quadratic():
    vf = random_homogeneous_field(2, seed=31)
    P = build_p_matrix(vf)
    assert P.size == 4
    assert P.row_labels == [1, 2, 3, 4]
    assert P.col_labels == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert all(o == 0 for o in P.row_offsets)
    assert P.determinant() != 0


def test_p_matrix_homogeneous_cubic_standalone():
    vf = random_homogeneous_field(3, seed=32)
    P = build_p_matrix(vf)
    assert P.size == 4
    assert P.row_labels == [2, 3, 4, 5]
    assert (2, 2) not in P.col_labels  # the pinned slot carries no unknown


def test_p_matrix_identity_on_plain_values():
    # homogeneous: exact identity with zero offsets
    for n in (2, 3, 4, 5):
        vf = random_homogeneous_field(n, seed=40 + n)
        P = build_p_matrix(vf)
        plain = compute_series(vf, max(P.row_labels))
        values = [plain.V[sum(uid)].coeff(*uid) for uid in P.col_labels]
        product = apply_p(P, values)
        for i, j in enumerate(P.row_labels):
            assert product[i] == plain.L[j], (n, j)
        assert all(o == 0 for o in P.row_offsets)


def test_p_matrix_identity_general_fields_with_offsets():
    # general fields: a column stands for one full V_k coefficient, and the
    # rows solved at a replaced even degree keep the value they take with
    # every replaced block at zero as an affine offset; P v + c = L
    fields = [random_field(n, seed=50 + n) for n in (3, 4)] + [
        make(n, seed=78 + n)
        for n in (4, 5)
        for make in (random_divergence_free_field, random_reversible_field)
    ]
    for vf in fields:
        n = vf.degree
        P = build_p_matrix(vf)
        assert P.size == center_number_bound(n, False)
        plain = compute_series(vf, max(P.row_labels))
        values = [plain.V[sum(uid)].coeff(*uid) for uid in P.col_labels]
        product = apply_p(P, values)
        for i, j in enumerate(P.row_labels):
            assert product[i] + P.row_offsets[i] == plain.L[j], (n, j)
        # offsets only at rows whose degree 2j+2 is a replaced even degree
        replaced = {k + 1 for k in range(2, n + 1) if (k + 1) % 2 == 0}
        for i, j in enumerate(P.row_labels):
            if 2 * j + 2 not in replaced:
                assert P.row_offsets[i] == 0


def test_p_matrix_float_agrees_with_exact():
    dom = BigRealDomain(dps=60)
    for vf in (random_field(3, seed=91), random_homogeneous_field(4, seed=92)):
        exact = build_p_matrix(vf)
        approx = build_p_matrix(coerce_field(vf, dom))
        assert approx.col_labels == exact.col_labels
        for row_f, row_q in zip(approx.entries, exact.entries):
            scale = max(abs(x) for x in row_q)
            for x, q in zip(row_f, row_q):
                assert abs(x - dom.coerce(q)) <= scale * F(1, 10**50)
        det_q = exact.determinant()
        assert abs(approx.determinant() - dom.coerce(det_q)) <= abs(det_q) * F(1, 10**45)


def test_p_matrix_residues_reduce_the_exact_matrix(monkeypatch):
    # the reverse sweeps and Bareiss run unchanged on residues: every entry,
    # every row offset and det P is the exact value reduced modulo p.
    # ResidueDomain.reduce_row hands each swept covector on as residues over
    # 1, so no tap the sweep gathers from holds a grown exact int
    dom = ResidueDomain()
    p = dom.p
    taps = []

    def gather(m, tap_list):
        taps.extend(r for _, r, _ in tap_list)
        return real_gather(m, tap_list)

    real_gather = engine._gather
    monkeypatch.setattr(engine, "_gather", gather)

    def mod_p(x):
        return x.numerator * pow(x.denominator, -1, p) % p

    for make in (random_field, random_homogeneous_field):
        for n in range(2, 7):
            for seed in (0, 1):
                exact = build_p_matrix(make(n, seed))
                taps.clear()
                residues = build_p_matrix(coerce_field(make(n, seed), dom))
                assert taps and all(0 <= x < p for r in taps for x in r), (make, n, seed)
                assert residues.row_labels == exact.row_labels, (make, n, seed)
                assert residues.col_labels == exact.col_labels, (make, n, seed)
                assert residues.entries == [[mod_p(x) for x in row] for row in exact.entries]
                assert residues.row_offsets == [mod_p(x) for x in exact.row_offsets]
                assert residues.determinant() == mod_p(exact.determinant()), (make, n, seed)


def test_domains_reduce_a_swept_row():
    nums, den = [6, -9, 0, 15], 12
    for dom in (RATIONAL, BigRealDomain(60)):  # exact in both: the gcd divided out
        assert dom.reduce_row(nums, den) == ([2, -3, 0, 5], 4)
        assert dom.reduce_row([1, 2], 3) == ([1, 2], 3)
    p = ResidueDomain.p
    assert ResidueDomain().reduce_row(nums, den) == ([x * pow(12, -1, p) % p for x in nums], 1)


@pytest.mark.parametrize("dom, mu", [(RATIONAL, F(3, 2)), (BigRealDomain(60), F(2))])
def test_p_matrix_under_reflection_and_scaling(dom, mu):
    # (x, y, t) -> (x, -y, -t) sends L_j to -L_j and the unknown of slot
    # (i, a) to (-1)^a times itself; x = mu X sends L_j to mu^(2j) L_j and
    # an unknown of V_k to mu^(k-2) times itself.  Float entries are the
    # exact ones rounded once, and a sign or a power of two commutes with
    # the rounding, so both identities hold exactly in both modes
    for make in (random_field, random_homogeneous_field):
        for n in range(2, 7):
            vf = coerce_field(make(n, 4), dom)
            P = build_p_matrix(vf)
            assert any(map(any, P.entries)), (make, n)
            if make is random_field and n > 2:  # general fields have nonzero offsets
                assert any(P.row_offsets), n
            flip, dil = build_p_matrix(reflected_field(vf)), build_p_matrix(dilated_field(vf, mu))
            for Q in (flip, dil):
                assert (Q.row_labels, Q.col_labels) == (P.row_labels, P.col_labels)
            for j, row, row_f, row_d in zip(P.row_labels, P.entries, flip.entries, dil.entries):
                cols = P.col_labels
                assert row_f == [-(-1) ** a * x for (_, a), x in zip(cols, row)], (make, n, j)
                want = [mu ** (2 * j - (i + a - 2)) * x for (i, a), x in zip(cols, row)]
                assert row_d == want, (make, n, j)
            assert flip.row_offsets == [-c for c in P.row_offsets]
            assert dil.row_offsets == [mu ** (2 * j) * c for j, c in zip(P.row_labels, P.row_offsets)]


def test_p_matrix_column_order_override():
    vf = random_homogeneous_field(2, seed=1)
    order = [(0, 3), (1, 2), (2, 1), (3, 0)]
    P = build_p_matrix(vf, column_order=order)
    assert P.col_labels == order
    with pytest.raises(UsageError):
        build_p_matrix(vf, column_order=[(0, 3), (1, 2), (2, 1), (9, 9)])


def test_rotational_family_kills_all_constants():
    for n in (2, 3, 4, 5):
        vf = rotational_family_field(n, seed=n)
        series = compute_series(vf, 8)
        assert all(L == 0 for _, L in series.l_values()), n


def _rank(rows):
    # Gaussian elimination on exact Fractions
    rows = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            ratio = rows[r][col] / rows[rank][col]
            rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_p_matrix_rank_at_centers():
    # det P = 0 at every center tried so far; record how far P falls short
    # of full rank on the seed-1 divergence-free and reversible centers
    for n, size, div_rank, rev_rank in ((2, 4, 3, 2), (3, 8, 7, 4), (4, 14, 13, 7)):
        P = build_p_matrix(random_divergence_free_field(n, 1))
        assert P.size == size and _rank(P.entries) == div_rank, n
        P = build_p_matrix(random_reversible_field(n, 1))
        assert P.size == size and _rank(P.entries) == rev_rank, n


# -- exact determinants ------------------------------------------------------


def test_det_identity_and_singular():
    eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert det_exact(eye, RATIONAL) == 1
    repeated = [[F(1), F(2)], [F(1), F(2)]]
    assert det_exact(repeated, RATIONAL) == 0


@st.composite
def _dependent_matrices(draw):
    """(m, k): an integer matrix whose row k is a combination of the rows
    above it (the zero row at k = 0), the other rows drawn freely."""
    size = draw(st.integers(1, 6))
    k = draw(st.integers(0, size - 1))
    entry = st.integers(-(2**40), 2**40)
    m = [draw(st.lists(entry, min_size=size, max_size=size)) for _ in range(size)]
    weights = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    m[k] = [sum(w * row[c] for w, row in zip(weights, m)) for c in range(size)]
    return m, k


@given(_dependent_matrices())
@example(([[0, 0], [1, 2]], 0))
@example(([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2))
def test_elimination_stops_at_a_planted_dependency(case):
    # the row-by-row elimination answers 0 at the dependent row k at the
    # latest (earlier if the rows above are already dependent) and draws no
    # row after it; det_exact agrees with the cofactor oracle
    m, k = case
    drawn = []

    def rows():
        for i, row in enumerate(m):
            drawn.append(i)
            yield row, 1

    assert _det_rows(rows()) == (0, 1)
    assert drawn[-1] <= k
    assert det_exact([[F(x) for x in row] for row in m], RATIONAL) == det_cofactor(m) == 0


@given(st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))))
def test_elimination_sign_on_permutation_matrices(perm):
    m = [[int(c == p) for c in range(len(perm))] for p in perm]
    assert det_exact(m, RATIONAL) == det_cofactor(m) in (1, -1)


def _seeded_matrix(size, seed):
    rng = random.Random(seed)
    return [[F(rng.randint(-9, 9)) / rng.randint(1, 9) for _ in range(size)] for _ in range(size)]


@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=50), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@example([])
@example([[F(-7, 3)]])
@example([[F(0)]])
@example(_seeded_matrix(6, 3))
def test_det_against_cofactor_oracle(m):
    assert det_exact(m, RATIONAL) == det_cofactor(m)


def test_streamed_det_equals_the_built_matrix_det():
    # rows swept as the elimination draws them give det P of the built
    # matrix: nonzero on random fields, zero at the constructed centers
    for n in range(2, 6):
        for make in (random_field, random_homogeneous_field):
            vf = make(n, 1)
            det = build_p_matrix(vf).determinant()
            assert det != 0 and _certificate_det(vf) == det, (make, n)
        centers = [random_divergence_free_field(n, 1), random_reversible_field(n, 1)]
        centers.append(rotational_family_field(n, n))
        for vf in centers:
            cert = center_check(vf)
            assert cert.det_p == build_p_matrix(vf).determinant() == 0, (vf, n)


def test_center_check_sweeps_p_up_to_the_first_dependent_row(monkeypatch):
    # one reverse sweep per row drawn: the reversible centers stop at their
    # first dependent row (rank P is 7 of 14 at n = 4), the divergence-free
    # quartic (rank 13 of 14) sweeps all C = 14 rows
    sweeps = []
    covectors = engine._covectors

    def counted(*args):
        sweeps.append(args)
        return covectors(*args)

    monkeypatch.setattr(engine, "_covectors", counted)
    for vf, C, swept in (
        (random_reversible_field(4, 1), 14, 8),
        (random_reversible_field(5, 1), 20, 11),
        (random_divergence_free_field(4, 1), 14, 14),
    ):
        sweeps.clear()
        cert = center_check(vf)
        assert (cert.verdict, cert.det_p, cert.center_bound) == ("inconclusive", 0, C)
        assert len(sweeps) == swept, (vf, len(sweeps))


def test_det_bigreal_mode():
    dom = BigRealDomain(dps=40)
    m = [[dom.coerce(1), dom.coerce(2)], [dom.coerce(3), dom.coerce(4)]]
    assert abs(det_exact(m, dom) + 2) < F(1, 10**35)


def test_float_det_is_the_exact_det_of_the_stored_entries_rounded_once():
    rng = random.Random(5)
    for dps in (30, 60, 120):
        dom = BigRealDomain(dps=dps)
        matrices = [build_p_matrix(coerce_field(random_field(3, seed=dps), dom)).entries]
        for size in (1, 2, 5, 8):
            matrices.append([
                [dom.coerce(F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
                            * F(2) ** rng.randint(-90, 90)) for _ in range(size)]
                for _ in range(size)
            ])
        for m in matrices:
            want = mp_round(det_exact(m, RATIONAL), dps)
            assert want != 0 and det_exact(m, dom) == want, (dps, len(m))


def test_float_det_of_exactly_dependent_rows_is_zero():
    # row 3 = 3 * row 1 - 5 * row 2 holds exactly on the stored values, but
    # the entries are not small integers, so rounded elimination leaves noise
    rng = random.Random(6)
    dom = BigRealDomain(dps=60)
    rows = [
        [dom.coerce(F(rng.getrandbits(150), 2 ** rng.randint(0, 10))) for _ in range(4)]
        for _ in range(3)
    ]
    rows.insert(2, [dom.coerce(3 * a - 5 * b) for a, b in zip(rows[0], rows[1])])
    assert rows[2] == [3 * a - 5 * b for a, b in zip(rows[0], rows[1])]
    det = det_exact(rows, dom)
    assert det == 0 and type(det) is Fraction


# -- certificates ------------------------------------------------------------


def test_center_check_weak_focus_cubic():
    cert = center_check(parse_vector_field("n 3\nF 3 0 1\n"))
    assert cert.verdict == "weak-focus"
    assert cert.weak_focus_order == 1
    assert cert.first_nonzero == (1, F(3, 8))
    assert cert.exit_code == 5


def test_center_check_divergence_free_never_weak_focus():
    for seed in range(4):
        cert = center_check(random_divergence_free_field(3, seed))
        assert cert.verdict in ("center-generic", "inconclusive")


def test_center_check_generic_quadratic_weak_focus_order():
    # a generic quadratic has its first constant already nonzero
    cert = center_check(random_homogeneous_field(2, seed=12))
    assert cert.verdict == "weak-focus" and cert.weak_focus_order == 1


def test_center_check_reports_bound_and_order_consistently():
    cert = center_check(random_field(3, seed=5))
    assert cert.center_bound == 8
    if cert.weak_focus_order is not None:
        assert cert.weak_focus_order <= cert.center_bound


def test_center_check_float_is_inconclusive_at_a_degenerate_quartic_center():
    # a general divergence-free quartic whose exact det P is 0: a 60-digit
    # zero threshold once let L_12 through as a false weak focus.  The
    # residue pass sees every constant vanish, exactly or at 60 digits, and
    # reports inconclusive at the full bound, naming the prime
    p = str(ResidueDomain().p)
    vf = random_divergence_free_field(4, 1)
    exact = center_check(vf)
    assert exact.verdict == "inconclusive" and exact.det_p == 0
    cert = center_check(coerce_field(vf, BigRealDomain(dps=60)))
    assert cert.verdict == "inconclusive"
    assert cert.center_bound == 14
    assert p in cert.reason
    # given exactly, the field is reduced mod p without rounding
    cert = center_check(vf, BigRealDomain(dps=60))
    assert cert.verdict == "inconclusive" and p in cert.reason


def test_center_check_float_decides_on_the_digits_given():
    # general divergence-free quartics are centers with det P = 0.  Float
    # mode decides on the values it is given: exactly, the residues of every
    # constant vanish (inconclusive); stored at 60 or 120 digits, the field
    # of seed 1 is still a center, while seeds 6 and 10 are weak foci.  The
    # float verdict is the exact one on those same stored values, or
    # inconclusive, at the exact order
    p = str(ResidueDomain().p)
    d60, d120 = BigRealDomain(dps=60), BigRealDomain(dps=120)
    orders = {1: None, 6: 1, 10: 2}
    for seed, order in orders.items():
        vf = random_divergence_free_field(4, seed)
        cert = center_check(vf, d60)
        assert cert.verdict == "inconclusive" and p in cert.reason, seed
        assert cert.center_bound == 14
        for given in (coerce_field(vf, d60), coerce_field(vf, d120)):
            exact, cert = center_check(stored_field(given)), center_check(given, d60)
            assert cert.verdict in (exact.verdict, "inconclusive"), seed
            assert cert.weak_focus_order == exact.weak_focus_order, seed
        assert center_check(coerce_field(vf, d60)).weak_focus_order == order, seed


def _near_centers():
    """Divergence-free fields, n = 3 and 4, moved off the center by 1e-45 in
    the x^2 coefficient of F_2: weak foci of order 1, L_1 about -1.7e-45."""
    out = []
    for n in (3, 4):
        vf = random_divergence_free_field(n, 1)
        bump = HomogPoly.monomial(2, 0, F(1, 10**45))
        out.append(VectorField(n, {**vf.F, 2: poly_sum(vf.f_part(2), bump)}, vf.G))
    return out


def test_float_center_check_is_exact_or_inconclusive():
    # the 47 fields of the measurement (divergence-free, reversible, random
    # and random homogeneous, n = 2..6, seeds 0 and 1; rotational n = 2..6
    # at seed 1; the two near-centers), 20 more centers, and a cubic whose
    # L_1 = p/8 has a zero residue.  Float mode never certifies a center and
    # takes no det P; it answers the exact verdict or inconclusive, and a
    # weak focus at the exact order
    dom = BigRealDomain(dps=60)
    makers = (
        random_divergence_free_field,
        random_reversible_field,
        random_field,
        random_homogeneous_field,
    )
    fields = [make(n, seed) for make in makers for n in range(2, 7) for seed in (0, 1)]
    fields += [rotational_family_field(n, 1) for n in range(2, 7)] + _near_centers()
    fields.append(parse_vector_field(f"n 3\nF 3 0 1\nF 1 2 {ResidueDomain.p - 3}\n"))
    # homogeneous centers, where every constant off the gap-law pattern is
    # zero and every residue must vanish up to the center bound
    for n in range(2, 6):
        for seed in (0, 1):
            fields.append(random_divergence_free_field(n, seed, homogeneous=True))
            fields.append(random_reversible_field(n, seed, homogeneous=True))
        fields.append(rotational_family_field(n, 0))
    for vf in fields:
        exact, cert = center_check(vf), center_check(vf, dom)
        assert cert.verdict in (exact.verdict, "inconclusive")
        assert cert.verdict != "center-generic" and cert.det_p is None
        assert cert.weak_focus_order == exact.weak_focus_order
        if cert.first_nonzero:
            assert cert.first_nonzero[0] == exact.first_nonzero[0]


def test_float_weak_focus_order_equals_the_exact_order():
    # L_1 of the near-centers is about -1.7e-45, far below the working
    # precision's reach on coefficients of size 1, but its residue is
    # nonzero: float mode reports order 1, as exact mode does, and prints
    # the exact L_1 rounded once to 60 digits
    dom = BigRealDomain(dps=60)
    for vf in _near_centers():
        exact, cert = center_check(vf), center_check(vf, dom)
        assert exact.verdict == cert.verdict == "weak-focus"
        assert exact.weak_focus_order == cert.weak_focus_order == 1
        (j, got), (_, want) = cert.first_nonzero, exact.first_nonzero
        assert j == 1 and got == dom.ratio(want.numerator, want.denominator)
        assert got < -F(1, 10**46)


def test_float_center_check_raises_on_a_non_finite_coefficient():
    # only a denominator divisible by p makes the residue pass inconclusive;
    # a library float field holding nan is an error, not a verdict (the
    # polynomial refuses the nan when it is built)
    dom = BigRealDomain(dps=60)
    vf = coerce_field(random_field(2, 0), dom)
    with pytest.raises(UsageError, match="nan") as info:
        bad = VectorField(2, {**vf.F, 2: HomogPoly.monomial(2, 0, float("nan"))}, vf.G, dom)
        center_check(bad, dom)
    assert not isinstance(info.value, NoResidueError)
