from fractions import Fraction

import mpmath as mp
import pytest

from bautin_lab.engine import compute_series, compute_series_unknown
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
from bautin_lab.scalars import RATIONAL, BigRealDomain
from bautin_lab.structure import (
    build_p_matrix,
    center_check,
    center_number_bound,
    det_exact,
    gap_profile,
    verify_gaps,
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
    assert P.standalone_leading is None
    assert P.determinant() != 0


def test_p_matrix_homogeneous_cubic_standalone():
    vf = random_homogeneous_field(3, seed=32)
    P = build_p_matrix(vf)
    assert P.size == 4
    assert P.row_labels == [2, 3, 4, 5]
    assert (2, 2) not in P.col_labels  # the pinned slot carries no unknown
    plain = compute_series(vf, 5)
    assert P.standalone_leading == plain.L[1]


def test_p_matrix_identity_on_plain_values():
    # homogeneous: exact identity with zero offsets
    for n in (2, 3, 4, 5):
        vf = random_homogeneous_field(n, seed=40 + n)
        P = build_p_matrix(vf)
        series = compute_series_unknown(vf, [n], J=max(P.row_labels))
        values = [series.plain_assignment()[uid] for uid in P.col_labels]
        plain = compute_series(vf, max(P.row_labels))
        product = P.apply_to(values)
        for i, j in enumerate(P.row_labels):
            assert product[i] == plain.L[j], (n, j)
        assert all(o == 0 for o in P.row_offsets)


def test_p_matrix_identity_general_fields_with_offsets():
    # general fields: rows solved at a directly-driven even degree keep the
    # concrete drive part as an affine offset; the identity is P v + c = L
    for n in (3, 4):
        vf = random_field(n, seed=50 + n)
        P = build_p_matrix(vf)
        assert P.size == center_number_bound(n, False)
        series = compute_series_unknown(vf, range(2, n + 1), J=max(P.row_labels))
        values = [series.plain_assignment()[uid] for uid in P.col_labels]
        plain = compute_series(vf, max(P.row_labels))
        product = P.apply_to(values)
        for i, j in enumerate(P.row_labels):
            assert product[i] + P.row_offsets[i] == plain.L[j], (n, j)
        # offsets only at rows whose degree 2j+2 is a replaced even degree
        driven = {k + 1 for k in range(2, n + 1) if (k + 1) % 2 == 0}
        for i, j in enumerate(P.row_labels):
            if 2 * j + 2 not in driven:
                assert P.row_offsets[i] == 0


def test_p_matrix_full_block_columns_keep_determinant():
    fields = [random_field(3, seed=77)] + [
        make(n, seed=78 + n)
        for n in (4, 5)
        for make in (random_divergence_free_field, random_reversible_field)
    ]
    for vf in fields:
        P = build_p_matrix(vf)
        Q = build_p_matrix(vf, full_block_columns=True)
        assert Q.col_labels == P.col_labels
        assert P.determinant() == Q.determinant()
        # identity still holds against the full V-term coefficients
        plain = compute_series(vf, max(P.row_labels))
        full_values = [plain.V[sum(uid)].coeff(*uid) for uid in Q.col_labels]
        product = Q.apply_to(full_values)
        for i, j in enumerate(Q.row_labels):
            assert product[i] + Q.row_offsets[i] == plain.L[j], (vf.degree, j)


def test_p_matrix_float_agrees_with_exact():
    dom = BigRealDomain(dps=60)
    for vf in (random_field(3, seed=91), random_homogeneous_field(4, seed=92)):
        exact = build_p_matrix(vf)
        approx = build_p_matrix(coerce_field(vf, dom))
        assert approx.col_labels == exact.col_labels
        with dom.context():
            for row_f, row_q in zip(approx.entries, exact.entries):
                scale = max(abs(x) for x in row_q)
                for x, q in zip(row_f, row_q):
                    assert abs(x - dom.coerce(q)) <= scale * mp.mpf(10) ** -50
            det_q = exact.determinant()
            assert abs(approx.determinant() - dom.coerce(det_q)) <= abs(det_q) * mp.mpf(10) ** -45


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


# -- exact determinants ------------------------------------------------------


def test_det_identity_and_singular():
    eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert det_exact(eye, RATIONAL) == 1
    repeated = [[F(1), F(2)], [F(1), F(2)]]
    assert det_exact(repeated, RATIONAL) == 0


def _det_cofactor(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        total += (-1) ** c * m[0][c] * _det_cofactor(minor)
    return total


def test_det_against_cofactor_oracle():
    import random

    rng = random.Random(3)
    for _ in range(6):
        m = [
            [F(rng.randint(-9, 9)) / rng.randint(1, 9) for _ in range(6)]
            for _ in range(6)
        ]
        assert det_exact(m, RATIONAL) == _det_cofactor(m)


def test_det_bigreal_mode():
    import mpmath as mp

    dom = BigRealDomain(dps=40)
    with dom.context():
        m = [[mp.mpf(1), mp.mpf(2)], [mp.mpf(3), mp.mpf(4)]]
        assert abs(det_exact(m, dom) + 2) < mp.mpf(10) ** -35


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
