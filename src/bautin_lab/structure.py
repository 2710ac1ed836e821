"""Sparsity prediction, the center-certificate matrix, and verdicts.

For a homogeneous field of degree n the only possibly-nonzero Lyapunov-series
entries follow an arithmetic pattern: V_k at k = 2 + m(n-1), and L_j at
j = m(n-1) for even n, j = m(n-1)/2 for odd n.  ``gap_profile`` predicts the
pattern and ``verify_gaps`` confirms a computed series obeys it exactly.

The certificate machinery links the leading nontrivial constants to the
independent coefficients of the directly-driven homogeneous blocks.  The
constants are exactly affine in those coefficients, so one plain engine run
per coefficient, plus one offset run with every coefficient at zero, gives
the linear part: a square matrix P with one row per leading constant and one
column per coefficient, and the offsets the rows keep at zero block values
(see ``engine.compute_series_unknown``).  A nonzero determinant means
the leading constants pin those coefficients one-to-one, which certifies that
a field whose leading constants all vanish is a center (the generic case) and
bounds the number of small-amplitude limit cycles by the row count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd
from typing import Sequence

import mpmath as mp

from .engine import (
    LyapunovSeries,
    _affine_series,
    compute_series,
    compute_series_unknown,
    extend_series,
)
from .errors import SolverInternalError, UsageError
from .fields import VectorField
from .scalars import (
    BigRealDomain,
    Domain,
    RationalDomain,
    Scalar,
    UnknownId,
    scalar_is_zero,
)


@dataclass(frozen=True)
class GapProfile:
    """Predicted sparsity pattern for a homogeneous field of a given degree."""

    degree: int

    @property
    def step(self) -> int:
        return self.degree - 1

    def v_degree_expected_nonzero(self, k: int) -> bool:
        """True when V_k may be nonzero: k = 2 + m(n-1), m >= 1 (V_2 aside)."""
        return k > 2 and (k - 2) % self.step == 0

    def l_index_expected_nonzero(self, j: int) -> bool:
        if self.degree % 2 == 0:
            return j >= 1 and j % self.step == 0
        return j >= 1 and j % (self.step // 2) == 0

    def l_indices_upto(self, jmax: int) -> list[int]:
        return [j for j in range(1, jmax + 1) if self.l_index_expected_nonzero(j)]

    def v_degrees_upto(self, kmax: int) -> list[int]:
        return [k for k in range(3, kmax + 1) if self.v_degree_expected_nonzero(k)]

    @property
    def first_nonzero_index(self) -> int:
        """Index of the generically-first nonzero constant: n-1 for even n,
        (n-1)/2 for odd n."""
        return self.step if self.degree % 2 == 0 else self.step // 2


def gap_profile(n: int) -> GapProfile:
    if n < 2:
        raise UsageError("gap profiles exist for degree >= 2")
    return GapProfile(n)


@dataclass(frozen=True)
class GapViolation:
    kind: str  # "V" | "L"
    key: int   # degree for V, index for L
    value: str


@dataclass
class GapReport:
    profile: GapProfile
    max_degree: int
    max_index: int
    violations: list[GapViolation]
    all_constants_zero: bool

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def note(self) -> str | None:
        if self.all_constants_zero:
            return "all Lyapunov constants zero up to budget (partial center condition met)"
        return None


def verify_gaps(series: LyapunovSeries) -> GapReport:
    """Check that every off-pattern V_k and L_j of a homogeneous plain-mode
    rational series is exactly zero.  A violation signals an engine bug."""
    if series.mode != "plain":
        raise UsageError("gap verification runs on plain-mode series")
    if not isinstance(series.domain, RationalDomain):
        raise UsageError("gap verification requires exact rational arithmetic")
    if not series.field.is_homogeneous():
        raise UsageError(
            "gap analysis requires a homogeneous field; lower-degree "
            "nonlinearities fill in all degrees"
        )
    profile = gap_profile(series.field.degree)
    violations: list[GapViolation] = []
    for k in sorted(series.V):
        if k > 2 and not profile.v_degree_expected_nonzero(k) and not series.V[k].is_zero():
            violations.append(GapViolation("V", k, str(series.V[k])))
    for j, L in series.l_values():
        if not profile.l_index_expected_nonzero(j) and L != 0:
            violations.append(GapViolation("L", j, str(L)))
    all_zero = all(L == 0 for _, L in series.l_values())
    return GapReport(profile, series.max_degree, series.max_index, violations, all_zero)


def center_number_bound(n: int, homogeneous: bool) -> int:
    """Number of leading nontrivial constants whose vanishing forces a center
    (generic case): n+2 for homogeneous fields, else (n^2+4n-4)/2 for even n
    and (n^2+4n-5)/2 for odd n."""
    if n < 2:
        raise UsageError("degree must be >= 2")
    if homogeneous:
        return n + 2
    if n % 2 == 0:
        return (n * n + 4 * n - 4) // 2
    return (n * n + 4 * n - 5) // 2


@dataclass
class PMatrix:
    """Square matrix sending the directly-driven block coefficients to the
    leading nontrivial Lyapunov constants.

    Row i holds the linear-form coefficients of constant L_(row_labels[i])
    over the unknowns in column order; ``row_offsets`` carries each form's
    constant part (zero for every homogeneous-mode row; in general mode the
    rows solved at a directly-driven even degree keep the concrete drive
    contribution there, so the exact identity is P * V^h + offsets = L).
    """

    entries: list[list[Scalar]]
    row_labels: list[int]
    col_labels: list[UnknownId]
    row_offsets: list[Scalar]
    degree: int
    homogeneous: bool
    domain: Domain
    standalone_leading: Scalar | None = None
    _det: Scalar | None = dataclass_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> Scalar:
        if self._det is None:
            self._det = det_exact(self.entries, self.domain)
        return self._det

    def apply_to(self, values: Sequence[Scalar]) -> list[Scalar]:
        """Matrix-vector product P @ values (no offsets)."""
        if len(values) != self.size:
            raise UsageError("vector length does not match matrix size")
        with self.domain.context():
            return [
                sum((e * v for e, v in zip(row, values)), start=0)
                for row in self.entries
            ]


def p_matrix_row_indices(n: int, homogeneous: bool) -> tuple[list[int], int | None]:
    """The constant indices forming the matrix rows, plus the index reported
    standalone (homogeneous odd degree only, where the very first nontrivial
    constant does not involve the block coefficients)."""
    if homogeneous:
        if n % 2 == 0:
            return [m * (n - 1) for m in range(1, n + 3)], None
        rows = [m * (n - 1) // 2 for m in range(2, n + 3)]
        return rows, (n - 1) // 2
    return list(range(1, center_number_bound(n, False) + 1)), None


def build_p_matrix(
    vf: VectorField,
    column_order: Sequence[UnknownId] | None = None,
    full_block_columns: bool = False,
) -> PMatrix:
    """Build the unknown-carrying series and read off the certificate matrix.

    Homogeneous fields replace only the top-level block; general fields
    replace every level 2..n.  Columns follow unknown registration order
    (ascending level, then descending x-power) unless ``column_order`` gives
    an explicit slot permutation.

    By default a column stands for one coefficient of a directly-driven block
    (the drive response alone).  With ``full_block_columns`` the columns are
    re-expressed against the full V-term coefficients at each replaced degree
    (direct part plus the response to lower levels), the attribution used by
    published tables of this matrix.  The two conventions differ by a
    unimodular mixing, so the determinant is unchanged.
    """
    n = vf.degree
    homogeneous = vf.is_homogeneous()
    rows, standalone_idx = p_matrix_row_indices(n, homogeneous)
    levels = [n] if homogeneous else list(range(2, n + 1))
    with vf.domain.context():
        if full_block_columns:
            series = _affine_series(vf, levels, max(rows), full_blocks=True)
        else:
            series = compute_series_unknown(vf, levels, J=max(rows))

        slots = [u.slot for u in series.unknowns]
        if column_order is not None:
            missing = set(column_order) ^ set(slots)
            if len(column_order) != len(slots) or missing:
                raise UsageError(f"column order must permute {slots}")
            slots = list(column_order)
        if len(slots) != len(rows):
            raise SolverInternalError(
                f"certificate matrix is {len(rows)}x{len(slots)}, expected square"
            )

        zero = vf.domain.coerce(0)
        entries = [[series.L[j].coeffs.get(uid, zero) for uid in slots] for j in rows]
        offsets = [series.L[j].const for j in rows]
        standalone = series.L[standalone_idx].const if standalone_idx is not None else None

        return PMatrix(entries, rows, slots, offsets, n, homogeneous, vf.domain, standalone)


def det_exact(matrix: Sequence[Sequence[Scalar]], domain: Domain) -> Scalar:
    """Exact determinant in rational mode (fraction-free on an integer
    scaling of the rows); pivoted elimination in extended-precision mode."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise UsageError("determinant needs a square matrix")
    if size == 0:
        return domain.coerce(1)
    if isinstance(domain, RationalDomain):
        return _det_bareiss(matrix)
    return _det_pivoted(matrix, domain)


def _det_bareiss(matrix: Sequence[Sequence[Scalar]]) -> Fraction:
    """Clear each row to integers, then run Bareiss fraction-free elimination
    so every intermediate entry is an exact minor (controls coefficient
    blow-up compared to plain fraction elimination)."""
    size = len(matrix)
    rows: list[list[int]] = []
    scale = Fraction(1)
    for row in matrix:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        scale /= den
        rows.append([int(x * den) for x in fr])

    sign = 1
    prev = 1
    for col in range(size - 1):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                rows[r][c] = (rows[r][c] * rows[col][col] - rows[r][col] * rows[col][c]) // prev
            rows[r][col] = 0
        prev = rows[col][col]
    return sign * rows[size - 1][size - 1] * scale


def _det_pivoted(matrix: Sequence[Sequence[Scalar]], domain: BigRealDomain) -> Scalar:
    """Partial-pivoted elimination; returns 0 on an exactly-zero pivot."""
    with domain.context():
        A = [[mp.mpf(x) for x in row] for row in matrix]
        size = len(A)
        det = mp.mpf(1)
        for col in range(size):
            piv = max(range(col, size), key=lambda r: abs(A[r][col]))
            if A[piv][col] == 0:
                return mp.mpf(0)
            if piv != col:
                A[col], A[piv] = A[piv], A[col]
                det = -det
            det *= A[col][col]
            for r in range(col + 1, size):
                f = A[r][col] / A[col][col]
                if f == 0:
                    continue
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
        return det


@dataclass
class CenterCertificate:
    """Outcome of the center test.

    verdict is one of "center-generic", "weak-focus", "inconclusive".  The
    chain  cyclicity <= weak-focus order <= center bound  holds whenever both
    sides are reported; equality of all three is attainable but not asserted
    in general.
    """

    verdict: str
    center_bound: int
    weak_focus_order: int | None = None
    first_nonzero: tuple[int, Scalar] | None = None
    det_p: Scalar | None = None
    generic: bool | None = None
    budget_indices: list[int] = dataclass_field(default_factory=list)
    reason: str | None = None

    @property
    def exit_code(self) -> int:
        return {"center-generic": 0, "weak-focus": 5, "inconclusive": 6}[self.verdict]


def center_check(vf: VectorField) -> CenterCertificate:
    """Compute the leading nontrivial constants in pattern order up to the
    center bound; the first nonzero one gives a weak focus of that order.  If
    all vanish, a nonzero certificate-matrix determinant certifies a center;
    a (numerically) zero one refuses to certify.

    In extended-precision mode the verdict is recomputed at doubled working
    precision (the zero threshold stays anchored to the field's declared
    precision, which is all the data carries); any disagreement yields
    "inconclusive".
    """
    domain = vf.domain
    if isinstance(domain, BigRealDomain):
        first = _center_check_once(vf, domain, domain)
        second = _center_check_once(vf, domain.widened(), domain)
        if first.verdict != second.verdict or first.weak_focus_order != second.weak_focus_order:
            return CenterCertificate(
                "inconclusive",
                first.center_bound,
                det_p=first.det_p,
                budget_indices=first.budget_indices,
                reason=(
                    f"verdict unstable under precision doubling "
                    f"({first.verdict} at {domain.dps} digits, {second.verdict} at "
                    f"{domain.dps * 2})"
                ),
            )
        return first
    return _center_check_once(vf, domain, domain)


def _center_check_once(
    vf: VectorField, work_domain: Domain, data_domain: Domain
) -> CenterCertificate:
    work_field = vf if work_domain is vf.domain else dataclasses.replace(vf, domain=work_domain)
    n = vf.degree
    homogeneous = vf.is_homogeneous()
    C = center_number_bound(n, homogeneous)
    if homogeneous:
        pattern = []
        j = 0
        profile = gap_profile(n)
        while len(pattern) < C:
            j += 1
            if profile.l_index_expected_nonzero(j):
                pattern.append(j)
    else:
        pattern = list(range(1, C + 1))

    # grow the series one pattern index at a time: the common outcome is an
    # early nonzero constant, long before the full center-bound budget
    series = compute_series(work_field, pattern[0])
    for position, j in enumerate(pattern, start=1):
        extend_series(series, j)
        L = series.L[j]
        if not scalar_is_zero(L, data_domain):
            return CenterCertificate(
                "weak-focus",
                C,
                weak_focus_order=position,
                first_nonzero=(j, L),
                budget_indices=pattern,
            )

    P = build_p_matrix(work_field)
    det = P.determinant()
    if scalar_is_zero(det, data_domain):
        return CenterCertificate(
            "inconclusive",
            C,
            det_p=det,
            generic=False,
            budget_indices=pattern,
            reason="degenerate: det P = 0, the generic certificate does not apply",
        )
    return CenterCertificate(
        "center-generic", C, det_p=det, generic=True, budget_indices=pattern
    )
