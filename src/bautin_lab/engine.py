"""Degree-by-degree construction of Lyapunov functions and constants.

For a field (F, G) the formal derivative of V = V_2 + V_3 + ... with
V_2 = (x^2 + y^2)/2 along the flow is matched, degree by degree, against
L_1 (x^2+y^2)^2 + L_2 (x^2+y^2)^3 + ....  Writing rot for the operator
x*d/dy - y*d/dx, the degree-K slice reads

    rot(V_K) + R_K  =  [K even] * L_(K/2-1) * (x^2+y^2)^(K/2),

where R_K collects the already-known lower terms

    R_K = sum over d = 2..n of  (V_(K+1-d))'_x F_d + (V_(K+1-d))'_y G_d,

terms with K+1-d < 2 omitted (V_2 contributes x F_(K-1) + y G_(K-1)).

Every polynomial is integer numerators over one positive denominator
(``HomogPoly.nums``/``den``); each V_m of a series and each R_K are built
in that form, R_K in one pass per field degree d.  With m = K+1-d, the two
products of degree d are one stencil over the slots of V_m whose weights are
affine in the slot (``accumulate_rhs``); F_d and G_d are read over one
common denominator e_d once per series.  den is the lcm of V_m.den * e_d
over the terms present, each V_m's numerators are scaled to it once, and the
sums run on plain ints, so no per-coefficient gcd is taken.  In exact mode the
denominators are those of the stored blocks and lcms of the field's.
In float mode every stored value is a dyadic Fraction, so the denominators
are powers of two and R_K is the exact source term of the stored values; it
is not rounded.  The engine reads only those ints (a field's values are
read once, when its polynomials are built), and the domain keeps only its
rounding rule (``store_ints``, ``ratio``), so nothing here branches on the
mode.

Because rot maps the monomial slot a (the y-exponent) only to slots a-1 and
a+1, the K+1 equations decouple by slot parity into two chains, solved in
one order at every K (``_chain_slots``):

  * even K only: on the unit circle rot is d/dt, whose image has mean zero,
    so L = L_(K/2-1) is the circle mean of R_K, computed first and then a
    known source;
  * the even-slot equations give the odd-slot coefficients left to right;
  * the odd-slot equations give the even-slot coefficients outward from one
    pinned slot held at zero: at even K the tie-break slot, which resolves
    the one-dimensional kernel spanned by (x^2+y^2)^(K/2); at odd K the
    slot K+1 past the end, so that chain runs right to left and V_K is
    unique.

Both modes run both chains on ints.  The source numerators are first
multiplied by a per-degree scale -- lcm(1, 3, ..., K) at odd K, and at even
K the lcm of 2 * lcm(1, 2, ..., K/2) and the power of two D under the circle
weights -- so every step is an exact floor division, and the exact V_K and L
are those numerators over the scale times den.  Each step yields a
coefficient of the exact solution, and the scale is the least that clears
them all (``_chain_constants`` has the proof): the smaller the scale, the
less the reduction below has to divide back out.
Exact mode stores V_K so, in lowest terms by one division pass; L is the
Fraction of its numerator over the same denominator.  Float mode rounds
each V_K coefficient and L once, to nearest at the working precision, and
stores the rounded V_K as dyadic ints over one power of two.  The
per-coefficient Fractions of V_K are built only when something reads
``series.V[K].coeffs``.

The pinned slot at even K with half-degree h = K/2 is (h, h) for even h and
(h-1, h+1) for odd h; the fixed value is always zero.

``dense_rotational_solve``, dense elimination independent of the chains, is
the solver's oracle; the tests check each slice's residual with their own rot.

The center-certificate matrix needs the constants as functions of the
independent coefficients of the V_(k+1) blocks at selected levels k.  Each
degree's solve is linear in R_K, and R_K is linear in the lower V terms, so
once those blocks are pinned every later L is exactly affine in their
coefficients (the linear parts of the Lyapunov constants).
``compute_series_unknown`` reads both parts of each L_j off one reverse
sweep: the covector that reads L_j off R_(2j+2) is carried down through the
transposes of the solve and of the stencils, one gather pass per degree,
and at each pinned block it is that block's coefficients.  L_j is linear in
V_2 and the pinned blocks together, so the sweep goes on to V_2 as one more
pinned input, and its covector there gives the constant part, exact: no
forward series is run.  A column stands for one full V_k coefficient, the
attribution of the published tables.  The sweep for L_j visits only the
degrees up to 2j+2 whose R_k leads to a pinned block (for a homogeneous
field of degree n, the degrees 2 + m(n-1)), on ints: each gather aligns its
taps to one denominator, the sweep scale multiplies the gathered covector
once before the transposed solve, and the domain reduces the result once per
degree (``reduce_row``: a gcd, or residues over 1).
``covector_rows`` yields the linear parts one row at a time, so a caller
that needs only det P sweeps no row it does not draw.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, cached_property
from itertools import count
from math import comb, lcm
from operator import add, mul

from .errors import SolverInternalError, UsageError
from .fields import VectorField
from .hpoly import HomogPoly, circle_power
from .scalars import RATIONAL, Domain, LinearForm, Scalar, UnknownId, read_ints

V2_NUMS, V2_DEN = (1, 0, 1), 2  # V_2 = (x^2+y^2)/2 in integer form


def tiebreak_slot(degree: int) -> tuple[int, int]:
    """The even-degree coefficient slot pinned to zero: (h, h) when the
    half-degree h is even, else (h-1, h+1)."""
    if degree % 2 != 0:
        raise UsageError("tie-break slots exist only at even degrees")
    h = degree // 2
    return (h, h) if h % 2 == 0 else (h - 1, h + 1)


class LyapunovSeries:
    """Computed Lyapunov-function terms V_k and constants L_j.

    ``V`` maps degree k -> HomogPoly (V_2 included), ``L`` maps index j -> the
    constant solved at degree 2j+2.  A series built by this module stores
    each V_k by ``HomogPoly.from_ints``, its coefficients built as Fractions
    on first read.  The certificate series of ``compute_series_unknown`` holds no V terms; its
    L entries are linear forms over the registered unknowns, and
    ``unknowns`` lists their slots (x-exp, y-exp) in registration order
    (ascending degree, then descending x-power)."""

    def __init__(
        self,
        field: VectorField,
        V: dict[int, HomogPoly] | None = None,
        L: dict[int, Scalar] | None = None,
        unknowns: list[UnknownId] | None = None,
    ):
        self.field = field
        self.V = {} if V is None else V
        self.L = {} if L is None else L
        self.unknowns = [] if unknowns is None else unknowns

    @property
    def domain(self) -> Domain:
        return self.field.domain

    @property
    def max_degree(self) -> int:
        return max(self.V, default=2)

    @cached_property
    def _field_terms(self) -> dict[int, tuple[list[tuple[int, int, int]], int]]:
        """Per field degree d with F_d or G_d nonzero: the stencil of the
        source term over one denominator e_d, as (stencil, e_d).  With
        f[j], g[j] the numerators of F_d and G_d over their common
        denominator e_d, the lcm of theirs (zero outside 0..d), each nonzero
        weight of ``accumulate_rhs`` is a triple (j, f[j], g[j+1] - f[j])
        for j = -1..d.  Converted once per series, reading only the degrees
        stored in F or G, so the cost does not grow with the field's degree."""
        vf, out = self.field, {}
        for d in sorted(vf.F.keys() | vf.G.keys()):
            Fd, Gd = vf.f_part(d), vf.g_part(d)
            e = lcm(Fd.den, Gd.den)
            f = [0, *(x * (e // Fd.den) for x in Fd.nums)]  # f[j] at index j + 1
            g = [*(x * (e // Gd.den) for x in Gd.nums), 0]  # g[j + 1] at index j + 1
            stencil = [(j, fj, gj - fj) for j, fj, gj in zip(range(-1, d + 1), f, g) if fj or gj]
            if stencil:
                out[d] = (stencil, e)
        return out

    def l_values(self) -> list[tuple[int, Scalar]]:
        return sorted(self.L.items())


def accumulate_rhs(series: LyapunovSeries, k: int) -> HomogPoly:
    """The degree-k source term R_k built from already-solved V terms, exactly,
    as ``nums``/``den`` with ``den`` the lcm of V_m.den * e_d over the terms
    present (not necessarily the least denominator).  In float mode it is the
    exact source term of the stored values, and ``den`` is a power of two.

    With m = k+1-d and v the numerators of V_m, the two products of field
    degree d, (V_m)'_x F_d + (V_m)'_y G_d, are one stencil over slots:

        R[a+j] += v[a] * ((m-a) f[j] + a g[j+1])
                = v[a] * (m f[j] + a (g[j+1] - f[j])),   j = -1..d,

    so each term costs one pass over v, scaled to ``den`` once.
    """
    live = []
    for d, (stencil, e) in series._field_terms.items():
        Vm = series.V.get(k + 1 - d)
        if Vm is not None and not Vm.is_zero():
            live.append((stencil, Vm.nums, Vm.den * e))
    den = lcm(*(t[2] for t in live))
    out = [0] * (k + 3)  # slots -1..k+1; the two ends only ever get zeros
    for stencil, v, term_den in live:
        if term_den != den:
            scale = den // term_den
            v = [scale * c for c in v]
        m = len(v) - 1
        for j, fj, step in stencil:
            lo, hi = j + 1, j + m + 2
            out[lo:hi] = map(add, out[lo:hi], map(mul, v, count(m * fj, step)))
    return HomogPoly.from_ints(k, out[1:-1], den)


def rotational_solve(
    k: int, R: HomogPoly, domain: Domain = RATIONAL
) -> tuple[HomogPoly, Scalar | None]:
    """Solve rot(V) + R = [k even] * L * (x^2+y^2)^(k/2) for V (and L).

    Returns (V, L); L is None at odd degrees.  Both modes solve the parity
    chains on ints (``_solve_ints``) on R's ``nums``/``den``.  The domain
    turns the exact solution into stored form (``store_ints``, then
    ``HomogPoly.from_ints``) and builds L (``ratio``): in exact mode V is
    reduced in one division pass and L is a Fraction; in float mode each V
    coefficient and L is the exact solution rounded once, to nearest at the
    working precision of ``domain``.
    """
    if k < 3:
        raise UsageError("rotational solve needs degree >= 3")
    if R.degree != k:
        raise UsageError(f"source term has degree {R.degree}, expected {k}")
    v, L, den = _solve_ints(k, R.nums, R.den)
    V = HomogPoly.from_ints(k, *domain.store_ints(v, den))
    return V, (None if L is None else domain.ratio(L, den))


def _solve_ints(k: int, nums: Sequence[int], den: int) -> tuple[list[int], int | None, int]:
    """The parity chains of ``rotational_solve`` for R = nums/den on ints:
    (v, l, d) with V's coefficients v[a]/d and L = l/d (l None at odd k).

    The numerators are scaled by the ``scale`` of ``_chain_constants(k)``,
    the least multiplier that makes every step an exact floor division
    (proved there), so d = den * scale.  The steps run in the order of
    ``_chain_slots(k)``."""
    scale, _, circle = _chain_constants(k)
    c = [scale * x for x in nums]
    l = None
    if circle:  # L first, as the circle mean of R, then a known source
        D, weights, cp = circle
        l = sum(map(mul, weights, nums)) * (scale // D)
        for b in range(0, k, 2):
            c[b] -= l * cp[b]
    ups, downs = _chain_slots(k)
    v = [0] * (k + 2)  # v[k+1], also read as v[-1] by the first up, stays 0
    for b in ups:
        v[b + 1] = ((k - b + 1) * v[b - 1] - c[b]) // (b + 1)
    for b in downs:
        v[b - 1] = ((b + 1) * v[b + 1] + c[b]) // (k - b + 1)
    return v[:-1], l, den * scale


def _chain_slots(k: int) -> tuple[list[int], list[int]]:
    """The order of the chain steps at degree k, as the slots b of the
    equations (b+1) v[b+1] - (k-b+1) v[b-1] + c[b] = 0 they solve: ``ups``
    give v[b+1] (the odd slots left to right, then the even slots right of
    the pinned one), ``downs`` give v[b-1] (the even slots left of the pinned
    one, right to left).  The pinned slot, which stays zero, is the
    tie-break slot at even k and the slot k+1, past the end, at odd k."""
    pin = tiebreak_slot(k)[1] if k % 2 == 0 else k + 1
    return [*range(0, k, 2), *range(pin + 1, k, 2)], [*range(pin - 1, 0, -2)]


@cache
def _chain_constants(k: int) -> tuple[int, int, tuple | None]:
    """Per-degree constants of ``_solve_ints`` and ``_solve_transpose``,
    computed on first use: (scale, sweep, circle).  At odd k both scales are
    lcm(1, 3, ..., k) and circle is None.  At even k = 2h, circle is
    (D, weights, cp): cp holds the coefficients of (x^2+y^2)^h, weights[a] =
    D * W_a for W_a = (a-1)!! (k-a-1)!! / k!! at even a (0 at odd a), and
    D = 2^(k-s) for s the number of ones in h's binary digits; scale =
    D * lcm(1, 3, ..., h) and sweep = D * lcm(1, 3, ..., k-1).

    Chains.  Along a chain, the coefficient of a source in the value solved
    m steps after the step that reads it is, up to sign, m multipliers over
    m + 1 divisors (the first step divides by 1 when it copies a source),
    each a run of consecutive terms of step 2: odd divisors up to k in the
    odd-slot chains and in the even-slot chain at odd k, even ones in the
    even-slot chain at even k.  For an odd prime p, every p^e consecutive
    terms hold one multiple of p^e, so the multipliers hold at least
    floor(m / p^e) and the divisors at most floor(m / p^e) + 1, none once
    p^e > k: the divisors exceed the multipliers at p by at most
    floor(log_p k), and odd divisors hold no 2.  So lcm(1, 3, ..., k) clears
    both chains at odd k, and lcm(1, 3, ..., k-1) the odd-slot chain at even
    k on integer sources.  Halved, the even terms of the even-slot chain at
    even k are consecutive integers up to h, with one 2 left over, so the
    same count gives 2 * lcm(1, ..., h), which divides scale: its power of
    two, 2^floor(log2 k), divides D, as s <= floor(log2 k) <= k/2.

    Circle.  At x = cos t, y = sin t, x^(k-a) y^a is (e^(it) + e^(-it))^(k-a)
    (e^(it) - e^(-it))^a / (2^k i^a), so every Fourier mode of R_k is an
    integer combination of the nums over 2^(k-1) * den, and the mean W_a
    is an integer over 2^k.  W_a has an odd numerator and k!! = 2^h h!
    holds 2^(k-s) (Legendre), so W_a is odd over D.  rot is d/dt there, so
    L is the mean of R_k: scale * den * L = sum(weights * nums) * scale / D.

    Forward steps.  Each yields a coefficient of V or L times scale * den,
    so it is exact where that is an integer.  At even k the even slots come
    from the pinned chain; the odd slots, which the kernel does not touch,
    are integers at 2 because the odd-slot chain divides by odd numbers only
    and its sources c[b] - l * cp[b] are integers, and at an odd prime
    because on the circle d/dt V = L - R divides the mode-m part of R by m,
    even and at most k, while cos(mt), sin(mt) are the circle values of the
    integer polynomials Re, Im (x + iy)^m (x^2+y^2)^(h-m/2).  No smaller
    scale is exact: L needs D at a = 0, and an odd prime power p^e <= h is
    needed by the source Re (x + iy)^m (x^2+y^2)^(h-p^e), m = 2p^e, whose V
    is -Im (x + iy)^m (x^2+y^2)^(h-p^e) / m up to the kernel, while
    Im (x + iy)^m = +-2 x^(p^e) y^(p^e) mod p (Frobenius).  At odd k the
    source Re (x + iy)^m (x^2+y^2)^((k-m)/2), m = p^e <= k, does the same
    for lcm(1, 3, ..., k), as Im (x + iy)^m = +-y^m mod p.

    ``_solve_transpose`` replays the steps of ``_chain_slots`` backwards, on
    w scaled by sweep.
    Each even-slot quotient is one entry of the covector g on the source,
    and each odd-slot one an entry of the covector on the odd-slot chain's
    sources c[b] - l * cp[b]: by the chain bounds, sweep makes both integers
    and the odd-slot ones multiples of D.  So the covector on l, sweep * t
    minus their sum weighted by cp, is a multiple of D.  No step is left to
    a run-time check."""
    if k % 2 == 1:
        scale = lcm(*range(1, k + 1, 2))
        return scale, scale, None
    h = k // 2
    D = 1 << (k - h.bit_count())
    weights = [0] * (k + 1)
    weights[0] = comb(k, h) >> h.bit_count()  # D * (k-1)!! / k!!
    for a in range(0, k, 2):
        weights[a + 2] = weights[a] * (a + 1) // (k - a - 1)
    circle = (D, tuple(weights), circle_power(h).nums)
    return D * lcm(*range(1, h + 1, 2)), D * lcm(*range(1, k, 2)), circle


def dense_rotational_solve(k: int, R: HomogPoly) -> tuple[HomogPoly, Scalar | None]:
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
    if even:
        row = [Fraction(0)] * ncols
        row[tiebreak_slot(k)[1]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(0))

    sol = _gauss_solve(rows, rhs)
    V = HomogPoly(k, sol[: k + 1])
    return V, (sol[k + 1] if even else None)


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
    """Plain series: V_3..V_(2J+2) and L_1..L_J in the field's domain."""
    if J < 1:
        raise UsageError("need at least one Lyapunov constant (J >= 1)")
    v2 = read_ints([vf.domain.ratio(x, V2_DEN) for x in V2_NUMS])  # as the domain stores it
    return extend_series(LyapunovSeries(vf, V={2: HomogPoly.from_ints(2, *v2)}), J)


def extend_series(series: LyapunovSeries, J: int) -> LyapunovSeries:
    """Continue a plain series in place until L_J is solved, one degree at a
    time; every V_k is stored by ``HomogPoly.from_ints``.  Lets callers
    that only need the first nonzero constant grow the budget one pattern
    index at a time instead of paying for the full run up front.  The
    certificate series holds no V_2 and is refused."""
    if 2 not in series.V:
        raise UsageError("only plain-mode series can be extended")
    domain = series.domain
    zero = domain.coerce(0)
    for k in range(series.max_degree + 1, 2 * J + 3):
        R = accumulate_rhs(series, k)
        if R.is_zero():
            # the unique solution is zero: gap degrees of homogeneous fields
            series.V[k], L = HomogPoly.from_ints(k, R.nums, 1), (zero if k % 2 == 0 else None)
        else:
            series.V[k], L = rotational_solve(k, R, domain)
        if L is not None:
            series.L[k // 2 - 1] = L
    return series


def compute_series_unknown(vf: VectorField, levels: Iterable[int], J: int) -> LyapunovSeries:
    """The certificate series: at each degree k+1 with k in ``levels`` every
    independent coefficient of the full block V_(k+1) stands for a formal
    unknown (the tie-break slot carries none), and each L_j of the result is
    the affine form ``LinearForm(c, {slot: a})`` in them, one coefficient
    per unknown in registration order, zeros included; ``V`` is empty.
    Both parts of L_j come from one reverse sweep (``_covectors``) with V_2
    as one more replaced block, and no forward series is run: the
    coefficients are the row of ``covector_rows`` and c = <w_2, V_2> / den_2
    (every replaced block at zero), each built once by ``domain.ratio``.  A
    constant solved at a replaced even degree never involves that block, so
    with no lower levels selected (the homogeneous case) its coefficients
    are all zero."""
    levels = sorted(set(levels))
    if not levels:
        raise UsageError("need at least one level to replace by unknowns")
    if any(k < 2 or k > vf.degree for k in levels):
        raise UsageError(f"levels must lie in 2..{vf.degree}")
    if J < 1:
        raise UsageError("need at least one Lyapunov constant (J >= 1)")
    domain = vf.domain
    degrees = [k + 1 for k in levels if k + 1 <= 2 * J + 2]
    series = LyapunovSeries(vf, unknowns=_unknown_slots(degrees))
    for j in range(1, J + 1):
        blocks = _covectors(series, 2 * j + 2, [2, *degrees])
        w2, den2 = blocks.pop(2)
        nums, den = _stacked(blocks, series.unknowns)
        coeffs = {uid: domain.ratio(x, den) for uid, x in zip(series.unknowns, nums)}
        series.L[j] = LinearForm(domain.ratio(sum(map(mul, w2, V2_NUMS)), V2_DEN * den2), coeffs)
    return series


def _unknown_slots(degrees: Iterable[int]) -> list[UnknownId]:
    """The unknowns of the replaced blocks V_k, k in ``degrees`` (ascending),
    in registration order: ascending degree, then descending x-power, the
    tie-break slot of an even degree left out."""
    return [
        (k - a, a)
        for k in degrees
        for a in range(k + 1)
        if k % 2 == 1 or (k - a, a) != tiebreak_slot(k)
    ]


def covector_rows(
    series: LyapunovSeries, degrees: list[int], rows: Iterable[int]
) -> Iterator[tuple[list[int], int]]:
    """For each index j of ``rows`` in turn, swept only when drawn: the
    linear part of L_j in the replaced blocks V_k, k in ``degrees``
    (ascending), as one row of integer numerators over a positive
    denominator, one column per unknown of ``_unknown_slots(degrees)``
    (``_covectors``, then ``_stacked``).  Only ``series._field_terms`` is
    read, so ``LyapunovSeries(vf)`` serves."""
    slots = _unknown_slots(degrees)
    for j in rows:
        yield _stacked(_covectors(series, 2 * j + 2, degrees), slots)


def _stacked(blocks: dict, slots: list[UnknownId]) -> tuple[list[int], int]:
    """The covectors (w, den) of the replaced blocks V_k, put over their lcm
    and read as one row: the entry of slot (i, a) is w[a] of V_(i+a)."""
    den = lcm(*(d for _, d in blocks.values()))
    scaled = {k: [x * (den // d) for x in w] for k, (w, d) in blocks.items()}
    return [scaled[i + a][a] for i, a in slots], den


def _covectors(
    series: LyapunovSeries, K: int, replaced: list[int]
) -> dict[int, tuple[list[int], int]]:
    """The linear part of the constant solved at degree K in the replaced
    blocks: per degree k in ``replaced``, the covector (w, den) with
    L = <w, V_k> / den + (terms in the other blocks), V_2 among them unless
    2 is replaced; with 2 replaced L is the sum of these terms alone.
    One reverse sweep from the covector that reads L off R_K.  The covector
    r on the numerators of each R_k, reduced once by the domain's
    ``reduce_row`` and padded with a zero at each end, is kept until the
    last degree that reads it, k + 1 - (top field degree).  The covector on
    each lower V_m is gathered in one list from the taps of every kept
    R_(m+d-1) (``_gather``), each scaled to the lcm of their denominators;
    at a solved degree it is then multiplied once by the sweep scale that
    ``_solve_transpose`` expects.  A replaced block is pinned, so
    its covector is read off and not handed further down; the sweep stops
    at the lowest replaced degree, and skips a solved degree whose R_k
    enters no degree of ``reach``.  Degree 2 is read off like any other
    replaced one (it has no solve); a covector no tap reaches stays zero."""
    low = min(replaced)
    terms, reduce_row = series._field_terms, series.domain.reduce_row
    top = max(terms, default=0)  # a field with no nonlinear part reads nothing
    reach = set(replaced)  # and each solved degree whose R_k enters one in it
    for k in range(low + 1, K):  # a quadratic part (d = 2) reaches every k
        if 2 in terms or any(k + 1 - d in reach for d in terms):
            reach.add(k)
    out = {k: ([0] * (k + 1), 1) for k in replaced}
    kept: dict[int, tuple[list[int], int]] = {}  # k -> ([0, *r, 0], den) on R_k
    for k in range(K, low - 1, -1):
        kept.pop(k + top, None)  # read last at degree k + 1
        if k == K:
            r, den = _solve_transpose(k, [0] * (k + 1), 1), _chain_constants(k)[1]
        elif k not in reach:
            continue
        else:
            taps = [(st, *kept[k + d - 1], e) for d, (st, e) in terms.items() if k + d - 1 in kept]
            if not taps:
                continue
            den = lcm(*(dr * e for _, _, dr, e in taps))
            w = _gather(k, [(st, r, den // (dr * e)) for st, r, dr, e in taps])
            if k in replaced:
                out[k] = (w, den)
                continue
            s = _chain_constants(k)[1]
            r, den = _solve_transpose(k, [s * x for x in w]), den * s
        r, den = reduce_row(r, den)
        kept[k] = ([0, *r, 0], den)
    return out


def _gather(m: int, taps: list[tuple[list[tuple[int, int, int]], list[int], int]]) -> list[int]:
    """The covector w on V_m that ``accumulate_rhs``'s stencils hand back
    from the covectors r (padded with a zero at each end) on the R_k it
    enters, one tap (stencil of field degree d = k + 1 - m, r, scale s) each:
    w[a] = sum over taps of s * sum over j of r[a+j] (m f[j] + a (g[j+1] - f[j])),
    so <w, v> = sum over taps of s * <r, stencil(v)> exactly."""
    # a list, not a generator, unpacked into zip: the generator left the
    # peak RSS of repeated center checks about 2 MB higher (measured)
    products = [map(mul, r[j + 1 : j + m + 2], count(s * m * fj, s * step))
                for stencil, r, s in taps for j, fj, step in stencil]
    return list(map(sum, zip(*products)))


def _solve_transpose(k: int, w: list[int], t: int = 0) -> list[int]:
    """The transpose of ``_solve_ints``: for V, L the rotational solve of R,
    the covector g on R with <g, R> = <w, V> + sweep * t * L, where sweep
    is that of ``_chain_constants(k)``; w comes multiplied by sweep and is
    not changed.  The steps of ``_chain_slots(k)`` are undone backwards, the
    downs and then the ups, on a copy of w padded as v is, each an exact
    floor division (proved there).  The quotients of the odd-slot
    chain are the covector on its sources c[b] - l * cp[b], so l gets minus
    their sum weighted by cp, and hands it to R through the circle weights."""
    sweep, circle = _chain_constants(k)[1:]
    ups, downs = _chain_slots(k)
    w, g = [*w, 0], [0] * (k + 1)  # no step reads w[k+1] or the pinned slot
    for b in reversed(downs):  # undo v[b-1] = ((b+1) v[b+1] + c[b]) / (k-b+1)
        q = w[b - 1] // (k - b + 1)
        g[b] += q
        w[b + 1] += (b + 1) * q
    for b in reversed(ups):  # undo v[b+1] = ((k-b+1) v[b-1] - c[b]) / (b+1)
        q = w[b + 1] // (b + 1)
        g[b] -= q
        w[b - 1] += (k - b + 1) * q
    if circle:
        D, weights, cp = circle
        q = (sweep * t - sum(map(mul, g, cp))) // D  # the covector on l, over D
        g = [x + q * n for x, n in zip(g, weights)]
    return g
