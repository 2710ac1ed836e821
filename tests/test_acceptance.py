"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines alongside pytest's own verdicts.
"""

from fractions import Fraction

from bautin_lab.cubic_family import (
    REPORT_COLUMN_ORDER,
    family_vector_field,
    find_sigma_roots,
    substitution_chain,
)
from bautin_lab.engine import (
    accumulate_rhs,
    compute_series,
    dense_rotational_solve,
    rotational_solve,
)
from bautin_lab.fields import (
    random_divergence_free_field,
    random_field,
    random_homogeneous_field,
    random_reversible_field,
    rotational_family_field,
)
from bautin_lab.structure import (
    build_p_matrix,
    center_number_bound,
    gap_profile,
    verify_gaps,
)
from bautin_lab.scalars import BigRealDomain, parse_rational
from oracles import apply_p, scaled_field

SIGMA1_PRINTED = "-6.866628200554238820434952526434021955"
SIGMA2_PRINTED = "-2.267138125538741369528826715285454145"
L8_SIGMA1_PRINTED = "-4.79335120006176746491530450475227537e8"
L8_SIGMA2_PRINTED = "-2.159716809518452772195"
DETP_SIGMA1_PUBLISHED = 3.32885e54  # |det P| / b4^30, published normalization
DETP_SIGMA2_PUBLISHED = 6.02577e13

# Published 8x8 matrix entries at sigma_1, columns (v03, v04, v12, v13, v21,
# v30, v31, v40); row m scales the four odd-block columns by b2^(2m-1) and the
# four even-block columns by b4^(m-1), with b2 = sqrt(-b4).
P_SIGMA1_PUBLISHED = [
    [-4.310859, 0, 2.204177, 0, -1.436953, 6.612532, 0, 0],
    [167.7537, 101.3536, 269.9586, -32.43539, 201.4740, 321.6830, -34.15205, -101.3536],
    [-55784.81, 65197.82, -128089.1, -17266.08, -94338.11, -159726.1, -19662.06, -68525.83],
    [6.147285e7, 7.782509e7, 1.478070e8, -2.023430e7, 1.077236e8, 1.830875e8, -2.311967e7, -8.222680e7],
    [-1.143548e11, 1.466079e11, -2.769849e11, -3.801029e10, -2.015025e11, -3.426372e11, -4.344935e10, -1.550235e11],
    [3.106255e14, 3.991225e14, 7.533627e14, -1.034271e14, 5.478822e14, 9.316997e14, -1.182359e14, -4.220920e14],
    [-1.152827e18, 1.481873e18, -2.796631e18, -3.839719e17, -2.033725e18, -3.458496e18, -4.389555e17, -1.567195e18],
    [5.597859e21, 7.196179e21, 1.358040e22, -1.864589e21, 9.875626e21, 1.679426e22, -2.131598e21, -7.610550e21],
]
P_SIGMA2_PUBLISHED = [
    [-0.595214, 0, 0.519501, 0, -0.198405, 1.5585, 0, 0],
    [1.08715, 3.29828, 1.04614, -2.08415, 2.09277, 3.67925, -2.65093, -3.29828],
    [-17.884, 99.8889, -30.2756, -60.1275, -53.3965, -96.4509, -75.4609, -105.068],
    [873.05, 5392.61, 1617.23, -3228.79, 2809.87, 5094.07, -4045.39, -5728.09],
    [-72311.4, 454844.0, -136135.0, -272103.0, -235908.0, -427961.0, -340814.0, -484081.0],
    [8.74824e6, 5.52186e7, 1.65206e7, -3.30285e7, 2.8614e7, 5.19154e7, -4.13663e7, -5.87909e7],
    [-1.44493e9, 9.12647e9, -2.7303e9, -5.45876e9, -4.72848e9, -8.57926e9, -6.83669e9, -9.71765e9],
    [3.12082e11, 1.97144e12, 5.89773e11, -1.17916e12, 1.02138e12, 1.85318e12, -1.4768e12, -2.09917e12],
]
ODD_BLOCK_COLUMNS = (0, 2, 4, 5)  # v03, v12, v21, v30


def test_criterion_1_gap_law():
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for seed in range(20):
            vf = random_homogeneous_field(n, seed=1000 * n + seed)
            series = compute_series(vf, 2 * (n + 2))
            report = verify_gaps(series)
            assert report.passed, (n, seed, report.violations)
            checked += 1
    print(f"\nACCEPTANCE 1 PASS: gap law exact on {checked} homogeneous fields, n=2..6")


def test_criterion_2_first_nonzero_table():
    expected = {2: 1, 3: 1, 4: 3, 5: 2, 6: 5}
    for n, first in expected.items():
        accepted = 0
        seed = 0
        while accepted < 10:
            seed += 1
            vf = random_homogeneous_field(n, seed=7000 * n + seed)
            series = compute_series(vf, first)
            if series.L[first] == 0:
                continue  # partial center condition: redraw
            for j in range(1, first):
                assert series.L[j] == 0, (n, seed, j)
            accepted += 1
    print("ACCEPTANCE 2 PASS: first nonzero constant at L_1/L_1/L_3/L_2/L_5 for n=2..6, 10 draws each")


def test_criterion_3_cubic_l1_closed_form():
    # Derivation (Cramer's rule, done by hand before the engine was built).
    # At degree 4 the matching equation  rot(V_4) + x F_3 + y G_3 = L_1 (x^2+y^2)^2
    # restricted to the even-y-exponent slots couples (v31, v13, L1):
    #
    #   slot y^0:   v31 + f30             = L1        ->  -v31        + L1 = f30
    #   slot y^2:   3 v13 - 3 v31 + f12 + g21 = 2 L1  ->  3 v31 - 3 v13 + 2 L1 = f12 + g21
    #   slot y^4:  -v13 + g03             = L1        ->         v13 + L1 = g03
    #
    #       [ -1   0   1 ] [v31]   [ f30       ]
    #       [  3  -3   2 ] [v13] = [ f12 + g21 ]
    #       [  0   1   1 ] [L1 ]   [ g03       ]
    #
    # det = -1 * ((-3)(1) - (2)(1)) + 1 * ((3)(1) - (-3)(0)) = 5 + 3 = 8
    # det_L1 (right-hand side in the L1 column)
    #     = -1 * ((-3) g03 - (f12 + g21)) + f30 * (3 - 0)
    #     = 3 f30 + f12 + g21 + 3 g03
    # hence  L1 = (3 f30 + f12 + g21 + 3 g03) / 8.
    for seed in range(100):
        vf = random_homogeneous_field(3, seed=2000 + seed)
        f3, g3 = vf.f_part(3), vf.g_part(3)
        expected = (
            3 * f3.coeff(3, 0) + f3.coeff(1, 2) + g3.coeff(2, 1) + 3 * g3.coeff(0, 3)
        ) / 8
        assert compute_series(vf, 1).L[1] == expected, seed
    print("ACCEPTANCE 3 PASS: cubic L_1 closed form exact on 100 random fields")


def test_criterion_4_p_matrix_consistency():
    nonsingular = 0
    total = 0
    for n in (2, 3, 4, 5):
        for seed in range(20):
            vf = random_homogeneous_field(n, seed=3000 * n + seed)
            P = build_p_matrix(vf)
            plain = compute_series(vf, max(P.row_labels))
            values = [plain.V[sum(uid)].coeff(*uid) for uid in P.col_labels]
            product = apply_p(P, values)
            for i, j in enumerate(P.row_labels):
                assert product[i] == plain.L[j], (n, seed, j)
            total += 1
            if P.determinant() != 0:
                nonsingular += 1
            else:
                print(f"  criterion 4: non-generic draw at n={n} seed={seed} (det P = 0)")
    assert nonsingular >= total - 2, (nonsingular, total)
    print(
        f"ACCEPTANCE 4 PASS: P @ V-block = L exact on {total} fields; "
        f"det P nonzero on {nonsingular}/{total}"
    )


def test_criterion_5_center_oracles():
    for n in (2, 3, 4, 5):
        for seed in range(10):
            for vf in (
                random_divergence_free_field(n, seed=4000 * n + seed),
                random_reversible_field(n, seed=4500 * n + seed),
                rotational_family_field(n, seed=4800 * n + seed),
            ):
                series = compute_series(vf, 12)
                assert all(L == 0 for _, L in series.l_values()), (n, seed)
    print("ACCEPTANCE 5 PASS: divergence-free, reversible, and rotational families all-zero, J=12")


def test_criterion_6_center_number_bounds():
    assert [center_number_bound(n, True) for n in (2, 3, 4, 5)] == [4, 5, 6, 7]
    assert [center_number_bound(n, False) for n in (3, 4, 5, 6)] == [8, 14, 20, 28]
    print("ACCEPTANCE 6 PASS: center-number bounds 4,5,6,7 (homogeneous) and 8,14,20,28 (general)")


def test_criterion_7_cubic_example_quantitative():
    precision = 60
    sigma1, sigma2 = find_sigma_roots(precision)
    assert abs(sigma1 - parse_rational(SIGMA1_PRINTED)) < Fraction(1, 10**30)
    assert abs(sigma2 - parse_rational(SIGMA2_PRINTED)) < Fraction(1, 10**30)

    stretch_notes = []
    for root, sigma, l8_ref, det_ref, p_ref in (
        (1, sigma1, L8_SIGMA1_PRINTED, DETP_SIGMA1_PUBLISHED, P_SIGMA1_PUBLISHED),
        (2, sigma2, L8_SIGMA2_PRINTED, DETP_SIGMA2_PUBLISHED, P_SIGMA2_PUBLISHED),
    ):
        params = substitution_chain(Fraction(-1), sigma, precision)
        vf = family_vector_field(params, precision)
        series = compute_series(vf, 8)
        for j in range(1, 8):
            assert abs(series.L[j]) < Fraction(1, 10**40), (root, j)
        b4 = Fraction(-1)
        l8_scaled = series.L[8] / b4**8
        ref = parse_rational(l8_ref)
        assert abs((l8_scaled - ref) / ref) < Fraction(1, 10**6), root

        P = build_p_matrix(vf, column_order=REPORT_COLUMN_ORDER)
        det = P.determinant()
        assert abs(det) > 0, root  # hard target: nonsingular

        # Stretch: entrywise agreement with the published table, which
        # attributes each column to the full V-term coefficients.
        b2 = BigRealDomain(dps=precision).sqrt(-b4)
        worst = Fraction(0)
        for m in range(8):
            for c in range(8):
                scale = b2 ** (2 * m + 1) if c in ODD_BLOCK_COLUMNS else b4**m
                ref_entry = Fraction(p_ref[m][c]) * scale
                ours = P.entries[m][c]
                if ref_entry == 0:
                    assert abs(ours) < Fraction(1, 10**30), (root, m, c)
                else:
                    worst = max(worst, abs((ours - ref_entry) / ref_entry))
        assert worst < Fraction(1, 1000), (root, worst)  # 3 significant figures

        det_scaled = abs(det / b4**30)
        ratio = det_scaled / Fraction(det_ref)
        stretch_notes.append(
            f"root {root}: entrywise worst rel dev {float(worst):.3g}; "
            f"|det P|/b4^30 = {float(det_scaled):.9g} vs published "
            f"{det_ref:.5e} (ratio {float(ratio):.3g}, det normalization "
            f"not reproducible from the published table itself)"
        )

    print("ACCEPTANCE 7 PASS: sigma to 1e-30, L_1..L_7 < 1e-40, L_8 to 1e-6, det P != 0;")
    print("  stretch: entrywise P matches the published tables to 3 significant figures")
    for note in stretch_notes:
        print("  " + note)


def test_criterion_8_parameter_scaling():
    for n in (2, 3, 4):
        vf = random_homogeneous_field(n, seed=6000 + n)
        J = 2 * (n + 2)
        base = compute_series(vf, J)
        for s in (Fraction(2), Fraction(-3), Fraction(1, 5)):
            scaled = compute_series(scaled_field(vf, s), J)
            for m in range(1, 7):
                degree = 2 + m * (n - 1)
                if degree % 2 == 0 and degree <= 2 * J + 2:
                    j = degree // 2 - 1
                    assert scaled.L[j] == s**m * base.L[j], (n, s, m)
            profile = gap_profile(n)
            for j, L in scaled.l_values():
                if not profile.l_index_expected_nonzero(j):
                    assert L == 0
    print("ACCEPTANCE 8 PASS: level-m constants scale exactly by s^m for s in {2, -3, 1/5}")


def test_criterion_9_solver_oracle_equivalence():
    run = 0
    for seed in range(50):
        n = 2 + seed % 4
        vf = random_field(n, seed=8000 + seed) if seed % 2 else random_homogeneous_field(n, seed=8000 + seed)
        J = n + 2
        series = compute_series(vf, J)
        for k in range(3, 2 * J + 3):
            R = accumulate_rhs(series, k)
            V_fast, L_fast = rotational_solve(k, R)
            V_dense, L_dense = dense_rotational_solve(k, R)
            assert V_fast.coeffs == V_dense.coeffs, (seed, k)
            assert L_fast == L_dense, (seed, k)
        run += 1
    print(f"ACCEPTANCE 9 PASS: structured and dense solvers identical on every degree of {run} runs")
