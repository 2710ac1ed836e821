"""Degree-by-degree construction of Lyapunov functions and constants.

For a field (F, G) the formal derivative of V = V_2 + V_3 + ... with
V_2 = (x^2 + y^2)/2 along the flow is matched, degree by degree, against
L_1 (x^2+y^2)^2 + L_2 (x^2+y^2)^3 + ....  Writing rot for the operator
x*d/dy - y*d/dx, the degree-K slice reads

    rot(V_K) + R_K  =  [K even] * L_(K/2-1) * (x^2+y^2)^(K/2),

where R_K collects the already-known lower terms

    R_K = sum over d = 2..n of  (V_(K+1-d))'_x F_d + (V_(K+1-d))'_y G_d,

terms with K+1-d < 2 omitted (V_2 contributes x F_(K-1) + y G_(K-1)).

In exact mode R_K is built as integer numerators over one shared
denominator, R_K = num/den: each V_m and each field part is put over the lcm
of its coefficient denominators, the products run on plain ints, and the
running sum is rescaled only when its denominator grows, so no per-coefficient
gcd is taken while accumulating.  The solve below is linear in R_K, so it runs
on num and V_K and L are divided by den once per degree.  Float mode runs the
same code with den = 1, in the same order of operations as a plain
polynomial sum of products.

Because rot maps the monomial slot a (the y-exponent) only to slots a-1 and
a+1, the K+1 equations decouple by slot parity into two chains:

  * odd K: both chains are square bidiagonal systems with unit-free integer
    coefficients, solved by forward/backward substitution -- unique V_K, no L;
  * even K: the even-slot equations couple the odd-slot coefficients together
    with L (square, nonsingular: solved by carrying the solution as an affine
    function of L and closing with the last equation); the odd-slot equations
    leave the even-slot coefficients with a one-dimensional kernel spanned by
    (x^2+y^2)^(K/2), resolved by pinning one designated slot to zero.

The pinned slot at even K with half-degree h = K/2 is (h, h) for even h and
(h-1, h+1) for odd h; the fixed value is always zero.

The center-certificate matrix needs the constants as functions of the
independent coefficients of selected directly-driven blocks V_(k+1).  Each
degree's solve is linear in R_K, and R_K is linear in the lower V terms, so
every later V and L is exactly affine in those coefficients (the linear parts
of the Lyapunov constants).  ``compute_series_unknown`` therefore reads the
affine forms off plain runs of the one per-degree loop: an offset run with
every block coefficient at zero, and one run per coefficient that starts from
V_2 = 0 with that coefficient set to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .errors import SolverInternalError, UsageError
from .fields import VectorField
from .hpoly import HomogPoly, circle_power, rot_apply
from .scalars import RATIONAL, Domain, LinearForm, Scalar, UnknownId


def tiebreak_slot(degree: int) -> tuple[int, int]:
    """The even-degree coefficient slot pinned to zero: (h, h) when the
    half-degree h is even, else (h-1, h+1)."""
    if degree % 2 != 0:
        raise UsageError("tie-break slots exist only at even degrees")
    h = degree // 2
    return (h, h) if h % 2 == 0 else (h - 1, h + 1)


@dataclass(frozen=True)
class TieBreakRecord:
    """One pinned slot: at even degree k the coefficient of x^slot[0] y^slot[1]
    in V_k was fixed to 0 to select a unique solution."""

    degree: int
    slot: tuple[int, int]
    value: int = 0


@dataclass(frozen=True)
class Unknown:
    """A formal unknown standing for one independent coefficient of a
    directly-driven homogeneous block V^h (slot = (x-exp, y-exp)), together
    with the concrete value that block takes in plain mode."""

    slot: UnknownId
    level: int
    plain_value: Scalar


@dataclass
class LyapunovSeries:
    """Computed Lyapunov-function terms V_k and constants L_j.

    ``V`` maps degree k -> HomogPoly (V_2 included), ``L`` maps index j -> the
    constant solved at degree 2j+2.  In unknown-carrying mode the V and L
    entries hold linear forms over the registered unknowns and ``unknowns``
    lists them in registration order (ascending level, then descending
    x-power)."""

    field: VectorField
    mode: str  # "plain" | "unknown"
    domain: Domain
    V: dict[int, HomogPoly] = dataclass_field(default_factory=dict)
    L: dict[int, Scalar] = dataclass_field(default_factory=dict)
    unknowns: list[Unknown] = dataclass_field(default_factory=list)

    @property
    def max_index(self) -> int:
        return max(self.L, default=0)

    @property
    def max_degree(self) -> int:
        return max(self.V, default=2)

    @cached_property
    def _field_terms(self) -> dict[int, tuple[list, int, list, int]]:
        """Per field degree d: the nonzero (slot, numerator) pairs of F_d and
        G_d, each part over its own denominator, as (f, f_den, g, g_den).
        Converted once per series; empty lists stand for zero parts."""
        exact = self.domain.exact
        out = {}
        for d in range(2, self.field.degree + 1):
            f, f_den = _over_lcm(self.field.f_part(d).coeffs, exact)
            g, g_den = _over_lcm(self.field.g_part(d).coeffs, exact)
            out[d] = (_nonzero(f), f_den, _nonzero(g), g_den)
        return out

    def l_values(self) -> list[tuple[int, Scalar]]:
        return sorted(self.L.items())

    def plain_assignment(self) -> dict[UnknownId, Scalar]:
        """Map each unknown to the concrete value its slot takes in plain mode."""
        return {u.slot: u.plain_value for u in self.unknowns}

    def evaluate_at(self, assignment: Mapping[UnknownId, Scalar]) -> "LyapunovSeries":
        """Substitute concrete values for the unknowns in every V and L."""
        out = LyapunovSeries(self.field, "plain", self.domain)
        out.V = {k: p.map_coeffs(lambda x: x.evaluate(assignment)) for k, p in self.V.items()}
        out.L = {j: form.evaluate(assignment) for j, form in self.L.items()}
        return out


def accumulate_rhs(
    series: LyapunovSeries, k: int, include_direct: bool = True
) -> tuple[HomogPoly, int]:
    """The degree-k source term R_k built from already-solved V terms, as
    ``(num, den)`` with R_k = num/den.

    In exact mode ``num`` has integer coefficients and ``den`` is a positive
    int (not necessarily the least one); in float mode ``num`` holds the
    carrier's values and ``den`` is 1.  ``include_direct=False`` drops the
    d = k-1 contribution x*F_(k-1) + y*G_(k-1) (the one coming from V_2),
    leaving the response of a directly-driven block to the lower degrees.
    """
    exact = series.domain.exact
    terms = series._field_terms
    total: list = [0] * (k + 1)
    den = 1
    top = min(series.field.degree, k - 1 if include_direct else k - 2)
    for d in range(2, top + 1):
        Vm = series.V.get(k + 1 - d)
        if Vm is None or Vm.is_zero():
            continue
        f, f_den, g, g_den = terms[d]
        v, v_den = _over_lcm(Vm.coeffs, exact)
        m = Vm.degree
        if f:
            dx = [(m - a) * v[a] for a in range(m)]
            total, den = _add_scaled(total, den, _product(dx, f, k), v_den * f_den)
        if g:
            dy = [(a + 1) * v[a + 1] for a in range(m)]
            total, den = _add_scaled(total, den, _product(dy, g, k), v_den * g_den)
    return HomogPoly(k, total), den


def _over_lcm(coeffs, exact: bool) -> tuple[list, int]:
    """Exact coefficients as integer numerators over their lcm denominator
    (no gcd per coefficient); inexact ones unchanged over 1."""
    if not exact:
        return list(coeffs), 1
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _nonzero(coeffs: list) -> list[tuple[int, Scalar]]:
    return [(b, c) for b, c in enumerate(coeffs) if c != 0]


def _product(left: list, right: list[tuple[int, Scalar]], degree: int) -> list:
    """Coefficients of the degree-``degree`` product of a dense coefficient
    list and the nonzero (slot, value) pairs of the other factor, summed in
    the order HomogPoly.__mul__ uses."""
    out: list = [0] * (degree + 1)
    for a, ca in enumerate(left):
        if ca == 0:
            continue
        for b, cb in right:
            out[a + b] = out[a + b] + ca * cb
    return out


def _add_scaled(total: list, den: int, part: list, part_den: int) -> tuple[list, int]:
    """total/den + part/part_den over the lcm of the two denominators; a
    side is rescaled only when its denominator is smaller than the lcm."""
    new = lcm(den, part_den)
    if new != den:
        total = [t * (new // den) for t in total]
    if new != part_den:
        part = [p * (new // part_den) for p in part]
    return [t + p for t, p in zip(total, part)], new


def rotational_solve(
    k: int, R: HomogPoly, domain: Domain = RATIONAL
) -> tuple[HomogPoly, Scalar | None, TieBreakRecord | None]:
    """Solve rot(V) + R = [k even] * L * (x^2+y^2)^(k/2) for V (and L).

    Returns (V, L, tiebreak); L and the tie-break record are None at odd
    degrees.  The two parity chains are always solvable in exact arithmetic;
    a vanishing closing denominator would mean a solver bug, not bad input.
    """
    if k < 3:
        raise UsageError("rotational solve needs degree >= 3")
    if R.degree != k:
        raise UsageError(f"source term has degree {R.degree}, expected {k}")
    c = [domain.coerce(x) if isinstance(x, int) else x for x in R.coeffs]
    v: list[Scalar | None] = [None] * (k + 1)

    if k % 2 == 1:
        # Equation at slot b: (b+1) v[b+1] - (k-b+1) v[b-1] + c[b] = 0.
        for b in range(0, k, 2):  # determines odd slots, left to right
            v[b + 1] = -c[0] if b == 0 else ((k - b + 1) * v[b - 1] - c[b]) / (b + 1)
        for b in range(k, 0, -2):  # determines even slots, right to left
            v[b - 1] = c[k] if b == k else ((b + 1) * v[b + 1] + c[b]) / (k - b + 1)
        return HomogPoly(k, v), None, None

    cp = circle_power(k // 2).coeffs
    # Odd slots plus L: carry v[odd] = base + L * unit, with `unit` concrete,
    # then close with the slot-k equation  -v[k-1] + c[k] = L.
    base: dict[int, Scalar] = {}
    unit: dict[int, Scalar] = {}
    for b in range(0, k, 2):
        if b == 0:
            base[1] = -c[0]
            unit[1] = domain.coerce(cp[0])
        else:
            base[b + 1] = ((k - b + 1) * base[b - 1] - c[b]) / (b + 1)
            unit[b + 1] = ((k - b + 1) * unit[b - 1] + cp[b]) / (b + 1)
    den = 1 + unit[k - 1]
    if den == 0:
        raise SolverInternalError(f"closing denominator vanished at degree {k}")
    L = (c[k] - base[k - 1]) / den
    for a in range(1, k, 2):
        v[a] = base[a] + L * unit[a]

    # Even slots: bidiagonal chain with nullity one, pinned at the designated slot.
    slot = tiebreak_slot(k)
    a_t = slot[1]
    v[a_t] = domain.coerce(0)
    for b in range(a_t + 1, k, 2):
        v[b + 1] = ((k - b + 1) * v[b - 1] - c[b]) / (b + 1)
    for b in range(a_t - 1, 0, -2):
        v[b - 1] = ((b + 1) * v[b + 1] + c[b]) / (k - b + 1)
    return HomogPoly(k, v), L, TieBreakRecord(k, slot)


def dense_rotational_solve(
    k: int, R: HomogPoly
) -> tuple[HomogPoly, Scalar | None, TieBreakRecord | None]:
    """Oracle for rotational_solve: assemble the full linear system over exact
    rationals (tie-break row included) and run dense Gaussian elimination.

    Kept deliberately independent of the structured parity-chain solver so the
    two can be compared on every degree of a run.
    """
    if k < 3:
        raise UsageError("rotational solve needs degree >= 3")
    if R.degree != k:
        raise UsageError(f"source term has degree {R.degree}, expected {k}")
    even = k % 2 == 0
    ncols = k + 2 if even else k + 1  # v_0..v_k (+ L)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    cp = circle_power(k // 2).coeffs if even else None
    for b in range(k + 1):
        row = [Fraction(0)] * ncols
        if b + 1 <= k:
            row[b + 1] = Fraction(b + 1)
        if b - 1 >= 0:
            row[b - 1] = Fraction(-(k - b + 1))
        if even:
            row[k + 1] = Fraction(-cp[b])
        rows.append(row)
        rhs.append(Fraction(-R.coeffs[b]))
    tb = None
    if even:
        tb = TieBreakRecord(k, tiebreak_slot(k))
        row = [Fraction(0)] * ncols
        row[tb.slot[1]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(0))

    sol = _gauss_solve(rows, rhs)
    V = HomogPoly(k, sol[: k + 1])
    return (V, sol[k + 1], tb) if even else (V, None, None)


def _gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination for a consistent square-rank system."""
    m, n = len(rows), len(rows[0])
    A = [row[:] + [b] for row, b in zip(rows, rhs)]
    piv_rows: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(m):
            if i != r and A[i][col] != 0:
                f = A[i][col] / A[r][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        piv_rows.append((r, col))
        r += 1
    for i in range(r, m):
        if A[i][n] != 0:
            raise SolverInternalError("dense oracle hit an inconsistent system")
    if len(piv_rows) != n:
        raise SolverInternalError("dense oracle hit a rank-deficient system")
    sol = [Fraction(0)] * n
    for i, col in piv_rows:
        sol[col] = A[i][n] / A[i][col]
    return sol


def compute_series(vf: VectorField, J: int) -> LyapunovSeries:
    """Plain-mode series: V_3..V_(2J+2) and L_1..L_J in the field's domain."""
    if J < 1:
        raise UsageError("need at least one Lyapunov constant (J >= 1)")
    return extend_series(_start(vf), J)


def extend_series(series: LyapunovSeries, J: int) -> LyapunovSeries:
    """Continue a plain-mode series in place until L_J is solved.

    Lets callers that only need the first nonzero constant grow the budget
    one pattern index at a time instead of paying for the full run up front.
    """
    if series.mode != "plain":
        raise UsageError("only plain-mode series can be extended")
    return _extend(series, J, {}, respond=False)


def _extend(
    series: LyapunovSeries, J: int, pins: Mapping[int, HomogPoly], respond: bool
) -> LyapunovSeries:
    """The per-degree loop behind every series.  At a degree k in ``pins``
    the solved V_k is replaced by the pinned block ``pins[k]``, plus (with
    ``respond``) its response to the lower degrees; the constant keeps the
    value solved from the full source term, which never involves V_k."""
    domain = series.domain
    with domain.context():
        zero = domain.coerce(0)
        for k in range(series.max_degree + 1, 2 * J + 3):
            num, den = accumulate_rhs(series, k)
            if num.is_zero():
                # the unique solution is zero: gap degrees of homogeneous
                # fields, and the degrees below an unknown's own in its run
                Vk, L = HomogPoly.zero(k), (zero if k % 2 == 0 else None)
            else:
                # the solve is linear in R_k = num/den
                Vk, L, _ = rotational_solve(k, num, domain)
                if den != 1:
                    Vk = Vk.map_coeffs(lambda c: c / den)
                    L = None if L is None else L / den
            if k in pins:
                Vk = pins[k] + _response(series, k) if respond else pins[k]
            series.V[k] = Vk
            if L is not None:
                series.L[k // 2 - 1] = L
        return series


def _start(vf: VectorField) -> LyapunovSeries:
    """A plain series holding only V_2 = (x^2+y^2)/2."""
    half = vf.domain.coerce(Fraction(1, 2))
    return LyapunovSeries(vf, "plain", vf.domain, V={2: HomogPoly(2, [half, 0, half])})


def _response(series: LyapunovSeries, k: int) -> HomogPoly:
    """The part of V_k solved from the lower degrees alone, without the
    direct drive from V_2."""
    num, den = accumulate_rhs(series, k, include_direct=False)
    V = rotational_solve(k, num, series.domain)[0]
    return V if den == 1 else V.map_coeffs(lambda c: c / den)


def compute_series_unknown(
    vf: VectorField, levels: Iterable[int], J: int
) -> LyapunovSeries:
    """Unknown-carrying series: like compute_series, but at each degree k+1
    with k in ``levels`` the independent coefficients of the directly-driven
    block stand for formal unknowns, with the response to the accumulated
    lower contributions added on top.  Every later V and L is then a linear
    form in the registered unknowns.

    At an even driven degree the constant solved there keeps the concrete
    directly-driven part as the form's constant term; with no lower levels
    selected (the homogeneous case) that constant carries no unknowns at all.
    """
    return _affine_series(vf, levels, J, full_blocks=False)


def _affine_series(
    vf: VectorField, levels: Iterable[int], J: int, full_blocks: bool
) -> LyapunovSeries:
    """compute_series_unknown, optionally with each unknown standing for the
    full V-term coefficient at its degree (direct part plus the response to
    lower levels) instead of the directly-driven part alone.

    In the default convention each pinned block keeps its response to lower
    degrees, and the run for one unknown solves later replaced degrees like
    ordinary ones.  With full blocks the pinned values are exact, and the run
    for one unknown pins every other replaced block at zero.
    """
    levels = sorted(set(levels))
    if not levels:
        raise UsageError("need at least one level to replace by unknowns")
    if any(k < 2 or k > vf.degree for k in levels):
        raise UsageError(f"levels must lie in 2..{vf.degree}")
    if J < 1:
        raise UsageError("need at least one Lyapunov constant (J >= 1)")
    domain = vf.domain
    degrees = [k + 1 for k in levels if k + 1 <= 2 * J + 2]
    series = LyapunovSeries(vf, "unknown", domain)
    with domain.context():
        # each unknown's plain-mode value: the full V_k coefficient, or its
        # directly-driven part (V_k minus the response)
        plain = _extend(_start(vf), (max(degrees, default=3) - 1) // 2, {}, False)
        for k in degrees:
            block = plain.V[k] if full_blocks else plain.V[k] - _response(plain, k)
            pinned = tiebreak_slot(k) if k % 2 == 0 else None
            series.unknowns += [
                Unknown((k - a, a), k - 1, c)
                for a, c in enumerate(block.coeffs)
                if (k - a, a) != pinned
            ]

        zero_blocks = {k: HomogPoly.zero(k) for k in degrees}
        offset = _extend(_start(vf), J, zero_blocks, not full_blocks)
        runs: dict[UnknownId, LyapunovSeries] = {}
        for u in series.unknowns:
            pins = dict(zero_blocks) if full_blocks else {}
            pins[u.level + 1] = HomogPoly.monomial(*u.slot, domain.coerce(1))
            run = LyapunovSeries(vf, "plain", domain, V={2: HomogPoly.zero(2)})
            runs[u.slot] = _extend(run, J, pins, not full_blocks)

        series.V = {
            k: HomogPoly(k, [
                LinearForm(c, {s: run.V[k].coeffs[a] for s, run in runs.items()})
                for a, c in enumerate(Vk.coeffs)
            ])
            for k, Vk in offset.V.items()
        }
        series.L = {
            j: LinearForm(c, {s: run.L[j] for s, run in runs.items()})
            for j, c in offset.L.items()
        }
        return series


def residual(series: LyapunovSeries, k: int) -> HomogPoly:
    """rot(V_k) + R_k - [k even] L * (x^2+y^2)^(k/2); identically zero for
    every plain-mode degree, and for every degree above the replaced levels
    of an unknown-carrying series once its unknowns are given values
    (``evaluate_at``)."""
    num, den = accumulate_rhs(series, k)
    R = num if den == 1 else num.map_coeffs(lambda c: Fraction(c, den))
    out = rot_apply(series.V[k]) + R
    if k % 2 == 0:
        L = series.L.get(k // 2 - 1)
        if L is not None:
            out = out - circle_power(k // 2).scale(L)
    return out
