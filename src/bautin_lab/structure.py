"""Sparsity prediction, the center-certificate matrix, and verdicts.

For a homogeneous field of degree n the only possibly-nonzero Lyapunov-series
entries follow an arithmetic pattern: V_k at k = 2 + m(n-1), and L_j at
j = m(n-1) for even n, j = m(n-1)/2 for odd n.  ``gap_profile`` predicts the
pattern and ``verify_gaps`` confirms a computed series obeys it exactly.

The certificate machinery links the leading nontrivial constants to the
independent coefficients of the replaced homogeneous blocks V_k.  The
constants are exactly affine in those coefficients, so
``engine.compute_series_unknown`` gives the linear part: a square matrix P
with one row per leading constant and one column per full V_k coefficient,
and the offsets the rows keep with every replaced block at zero.  Row j is
one reverse sweep over the degrees up to 2j+2, so the rows of the low
constants are cheap.  A nonzero determinant means the leading constants pin
those coefficients one-to-one, which certifies that a field whose leading
constants all vanish is a center (the generic case) and bounds the number of
small-amplitude limit cycles by the row count.  That is an exact statement:
the float ``center_check`` never builds P and never certifies a center.

Determinants are taken by fraction-free elimination one row at a time
(``_det_rows``), which answers 0 as soon as a row reduces to zero.
``center_check`` draws P's rows into it one reverse sweep at a time, so at
a center whose P is singular (rank 7 of 14 at the seed-1 reversible
quartic) the costliest rows, those of the highest constants, are never swept.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .engine import (
    LyapunovSeries,
    compute_series,
    compute_series_unknown,
    covector_rows,
    extend_series,
)
from .errors import NoResidueError, SolverInternalError, UsageError
from .fields import VectorField, coerce_field
from .scalars import (
    RATIONAL, Domain, ResidueDomain, Scalar, UnknownId, exact_str, read_ints, scalar_is_zero,
)


class GapProfile:
    """Predicted sparsity pattern for a homogeneous field of a given degree."""

    def __init__(self, degree: int):
        self.degree = degree

    @property
    def step(self) -> int:
        return self.degree - 1

    def v_degree_expected_nonzero(self, k: int) -> bool:
        """True when V_k may be nonzero: k = 2 + m(n-1), m >= 1 (V_2 aside)."""
        return k > 2 and (k - 2) % self.step == 0

    def l_index_expected_nonzero(self, j: int) -> bool:
        """True when L_j may be nonzero: it is solved at degree 2j+2, with V's law."""
        return self.v_degree_expected_nonzero(2 * j + 2)

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


class GapViolation:
    """An off-pattern term: kind "V" with its degree or "L" with its index,
    and its value as text.  Violations compare equal field by field."""

    def __init__(self, kind: str, key: int, value: str):
        self.kind, self.key, self.value = kind, key, value

    def __eq__(self, other):
        return isinstance(other, GapViolation) and vars(self) == vars(other)


class GapReport:
    def __init__(self, violations: list[GapViolation], all_constants_zero: bool):
        self.violations, self.all_constants_zero = violations, all_constants_zero

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def note(self) -> str | None:
        if self.all_constants_zero:
            return "all Lyapunov constants zero up to budget (partial center condition met)"
        return None


def verify_gaps(series: LyapunovSeries) -> GapReport:
    """Check that every off-pattern V_k and L_j of a homogeneous plain
    rational series is exactly zero.  A violation signals an engine bug.
    The certificate series holds no V_2 and is refused."""
    if 2 not in series.V:
        raise UsageError("gap verification runs on plain-mode series")
    if not series.domain.exact:
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
            violations.append(GapViolation("L", j, exact_str(L)))
    all_zero = all(L == 0 for _, L in series.l_values())
    return GapReport(violations, all_zero)


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


def _leading_indices(n: int, homogeneous: bool) -> list[int]:
    """Indices of the leading nontrivial constants, center_number_bound of
    them: every index for general fields, the multiples of the gap law's
    first nonzero index for homogeneous ones."""
    step = gap_profile(n).first_nonzero_index if homogeneous else 1
    return [m * step for m in range(1, center_number_bound(n, homogeneous) + 1)]


class PMatrix:
    """Square matrix sending the replaced V_k coefficients to the leading
    nontrivial Lyapunov constants.

    Row i holds the linear-form coefficients of constant L_(row_labels[i])
    over the unknowns in column order; ``row_offsets`` carries each form's
    constant part, its value with every replaced block at zero (zero for
    every homogeneous-mode row), so the exact identity is
    P * v + offsets = L with v the V_k coefficients of the plain series.
    """

    def __init__(
        self,
        entries: list[list[Scalar]],
        row_labels: list[int],
        col_labels: list[UnknownId],
        row_offsets: list[Scalar],
        domain: Domain,
    ):
        self.entries, self.row_labels, self.col_labels = entries, row_labels, col_labels
        self.row_offsets, self.domain = row_offsets, domain

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> Scalar:
        """det P, computed afresh on each call."""
        return det_exact(self.entries, self.domain)


def _certificate_shape(vf: VectorField) -> tuple[list[int], list[int]]:
    """The row labels of the certificate matrix and the degrees of the
    blocks it replaces.  Homogeneous fields replace only the top-level block
    V_(n+1); general fields replace V_3..V_(n+1).  For homogeneous odd degree
    the first leading constant does not involve the block coefficients and
    is not a row."""
    n = vf.degree
    homogeneous = vf.is_homogeneous()
    rows = _leading_indices(n, homogeneous)
    if homogeneous and n % 2 == 1:
        rows.pop(0)
    degrees = [n + 1] if homogeneous else list(range(3, n + 2))
    return rows, degrees


def build_p_matrix(
    vf: VectorField, column_order: Sequence[UnknownId] | None = None
) -> PMatrix:
    """Build the unknown-carrying series and read off the certificate matrix.

    Columns follow unknown registration order (ascending degree, then
    descending x-power) unless ``column_order`` gives an explicit slot
    permutation.  The rows and the replaced blocks are those of
    ``_certificate_shape``.
    """
    rows, degrees = _certificate_shape(vf)
    series = compute_series_unknown(vf, [k - 1 for k in degrees], J=max(rows))
    slots = list(series.unknowns)
    if column_order is not None:
        missing = set(column_order) ^ set(slots)
        if len(column_order) != len(slots) or missing:
            raise UsageError(f"column order must permute {slots}")
        slots = list(column_order)
    if len(slots) != len(rows):
        raise SolverInternalError(
            f"certificate matrix is {len(rows)}x{len(slots)}, expected square"
        )

    entries = [[series.L[j].coeffs[uid] for uid in slots] for j in rows]
    offsets = [series.L[j].const for j in rows]
    return PMatrix(entries, rows, slots, offsets, vf.domain)


def det_exact(matrix: Sequence[Sequence[Scalar]], domain: Domain) -> Scalar:
    """The exact determinant of the values the entries store, built once by
    ``domain.ratio``: a Fraction in rational mode, rounded once in
    extended-precision mode (exactly zero when the stored rows are exactly
    dependent).

    Each row is cleared to integers (``read_ints``) when the
    row-by-row fraction-free elimination (``_det_rows``) reaches it; every
    intermediate entry is an exact minor, and no row after the first one
    that reduces to zero is read."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise UsageError("determinant needs a square matrix")
    return domain.ratio(*_det_rows(map(read_ints, matrix)))


def _det_rows(rows: Iterable[tuple[list[int], int]]) -> tuple[int, int]:
    """The determinant of a square matrix given row by row, each row as
    integer numerators over one positive denominator, as (num, den); (0, 1)
    as soon as a row reduces to zero, without drawing the rows after it.

    Fraction-free elimination, one row at a time (Bareiss, with column
    pivots).  A new row is reduced by each earlier pivot row s in turn,

        row <- (pivot_s * row - row[c_s] * pivot row_s) / pivot_(s-1),

    with c_s the pivot column of row s and pivot_(-1) = 1, and column c_s,
    now zero, is dropped.  By Sylvester's identity every entry is then a
    minor of the integer matrix, so each division is exact and the entries
    grow no faster than the minors.  The new row's pivot is its first
    nonzero entry; moving its column to the front of the columns left is a
    permutation of sign (-1)^(its position), and the last pivot, so signed,
    is the determinant of the integer rows."""
    pivots: list[tuple[int, int, list[int]]] = []  # (position, pivot, rest of the row)
    sign, det, scale = 1, 1, 1
    for row, den in rows:
        scale *= den
        row, prev = list(row), 1
        for p, piv, rest in pivots:
            f = row.pop(p)
            row = [(piv * a - f * b) // prev for a, b in zip(row, rest)]
            prev = piv
        p = next((i for i, a in enumerate(row) if a), None)
        if p is None:
            return 0, 1
        if p % 2:
            sign = -sign
        det = row.pop(p)
        pivots.append((p, det, row))
    return sign * det, scale


class CenterCertificate:
    """Outcome of the center test.

    verdict is one of "center-generic", "weak-focus", "inconclusive"; only
    exact mode answers "center-generic" or sets ``det_p``.  The chain
    cyclicity <= weak-focus order <= center bound  holds whenever both sides
    are reported; equality of all three is attainable but not asserted in
    general.  The weak-focus order is the exact one in both modes.
    """

    def __init__(
        self,
        verdict: str,
        center_bound: int,
        weak_focus_order: int | None = None,
        first_nonzero: tuple[int, Scalar] | None = None,
        det_p: Scalar | None = None,
        reason: str | None = None,
    ):
        self.verdict, self.center_bound = verdict, center_bound
        self.weak_focus_order, self.first_nonzero = weak_focus_order, first_nonzero
        self.det_p, self.reason = det_p, reason

    @property
    def exit_code(self) -> int:
        return {"center-generic": 0, "weak-focus": 5, "inconclusive": 6}[self.verdict]


def check_declared_degree(vf: VectorField) -> None:
    """Refuse a field whose header degree n lies above its highest nonzero
    part, or that has no nonzero part, with UsageError naming both degrees.
    ``center_check`` (the center bound) and the ``gaps`` audit (J = 2(n + 2))
    size their work by n, so such a header would spend it on zero parts."""
    top = max((k for part in (vf.F, vf.G) for k, p in part.items() if not p.is_zero()), default=0)
    if top != vf.degree:
        held = f"highest nonzero part has degree {top}" if top else "field has no nonzero part"
        raise UsageError(f"the header declares degree {vf.degree} but the {held}")


def center_check(vf: VectorField, domain: Domain | None = None) -> CenterCertificate:
    """Compute the exact leading nontrivial constants in pattern order up to
    the center bound; the first nonzero one gives a weak focus of that order,
    its value built once by ``domain`` (by default the field's own).  In exact
    mode, if all vanish, a nonzero certificate-matrix determinant certifies a
    center and a zero one refuses to certify.  det P is taken with P's rows
    swept and eliminated one at a time (``_certificate_det``): the matrix is
    never assembled, and a zero det stops at the first dependent row.

    Float mode first reduces the values ``vf`` holds modulo the prime p of
    ``ResidueDomain``.  No nonzero residue, or a denominator divisible by p,
    gives "inconclusive"; a nonzero residue proves that constant nonzero, so
    the exact search stops at it at the latest and never reaches P.  The
    work follows the declared n (``check_declared_degree``).
    """
    check_declared_degree(vf)
    if domain is None:
        domain = vf.domain
    pattern = _leading_indices(vf.degree, vf.is_homogeneous())
    C = len(pattern)
    if not domain.exact:
        try:
            i, _ = _first_nonzero(coerce_field(vf, ResidueDomain()), pattern)
            reason = f"every leading constant is zero modulo the prime {ResidueDomain.p}"
        except NoResidueError as exc:
            i, reason = None, str(exc)
        if i is None:
            reason += "; float mode leaves the verdict to --mode exact"
            return CenterCertificate("inconclusive", C, reason=reason)
        pattern = pattern[: i + 1]
    exact = coerce_field(vf, RATIONAL)
    i, series = _first_nonzero(exact, pattern)
    if i is not None:
        L = series.L[pattern[i]]
        first = (pattern[i], domain.ratio(L.numerator, L.denominator))
        return CenterCertificate("weak-focus", C, weak_focus_order=i + 1, first_nonzero=first)
    det = _certificate_det(exact)
    if det != 0:
        return CenterCertificate("center-generic", C, det_p=det)
    reason = "degenerate: det P = 0, the generic certificate does not apply"
    return CenterCertificate("inconclusive", C, det_p=det, reason=reason)


def _certificate_det(vf: VectorField) -> Fraction:
    """det P of an exact field, equal to ``build_p_matrix(vf).determinant()``.
    The rows are swept (``covector_rows``) as the elimination draws them, so
    a zero det stops at the first dependent row, and the sweeps stop at the
    lowest replaced block: only the linear parts enter det P, no offset."""
    rows, degrees = _certificate_shape(vf)
    return RATIONAL.ratio(*_det_rows(covector_rows(LyapunovSeries(vf), degrees, rows)))


def _first_nonzero(vf: VectorField, pattern: list[int]) -> tuple[int | None, LyapunovSeries]:
    """The position in ``pattern`` of the first constant that is nonzero in
    ``vf``'s domain (None if all vanish), and the series grown up to it."""
    # grow the series one pattern index at a time: the common outcome is an
    # early nonzero constant, long before the full center-bound budget
    series = compute_series(vf, pattern[0])
    for i, j in enumerate(pattern):
        extend_series(series, j)
        if not scalar_is_zero(series.L[j]):
            return i, series
    return None, series
