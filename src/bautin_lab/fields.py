"""Planar polynomial vector fields with a linear center at the origin.

The systems under study are

    dx/dt = -y + F_2(x,y) + ... + F_n(x,y)
    dy/dt =  x + G_2(x,y) + ... + G_n(x,y)

with homogeneous parts F_k, G_k of degree k and zero linear trace.  A field
stores only its nonzero parts; missing parts are zero polynomials.

Text format (UTF-8, line oriented): the first non-comment line is
``n <degree>``; every following line is ``F <i> <j> <coeff>`` or
``G <i> <j> <coeff>`` giving the coefficient of x^i y^j, with the coefficient
written as an integer, a decimal (exponent at most ``MAX_DECIMAL_EXPONENT`` in
magnitude), or ``p/q``.  ``#`` starts a comment and unlisted terms are zero.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import FieldParseError, UsageError
from .hpoly import HomogPoly
from .scalars import RATIONAL, Domain, Scalar, exact_str


class VectorField:
    """The nonlinear parts of a planar system with a linear center."""

    def __init__(
        self,
        degree: int,
        F: Mapping[int, HomogPoly],
        G: Mapping[int, HomogPoly],
        domain: Domain = RATIONAL,
    ):
        if degree < 2:
            raise UsageError("vector field degree must be >= 2")
        for name, parts in (("F", F), ("G", G)):
            for k, p in parts.items():
                if not 2 <= k <= degree:
                    raise UsageError(f"{name}_{k} outside the degree range 2..{degree}")
                if p.degree != k:
                    raise UsageError(f"{name}_{k} has polynomial degree {p.degree}")
        self.degree, self.F, self.G, self.domain = degree, F, G, domain

    def f_part(self, k: int) -> HomogPoly:
        return self.F.get(k, HomogPoly.zero(k))

    def g_part(self, k: int) -> HomogPoly:
        return self.G.get(k, HomogPoly.zero(k))

    def is_homogeneous(self) -> bool:
        """True when only the top-degree nonlinearity is present.  Reads only
        the parts stored, so the cost does not grow with the degree."""
        return all(
            p.is_zero() for parts in (self.F, self.G) for k, p in parts.items() if k < self.degree
        )


def parse_vector_field(text: str, domain: Domain = RATIONAL) -> VectorField:
    """Parse the line-oriented text format; raises FieldParseError with the
    offending line number.  One leading byte-order mark (U+FEFF) is dropped."""
    text = text.removeprefix("\ufeff")
    degree: int | None = None
    F: dict[int, list[Scalar]] = {}
    G: dict[int, list[Scalar]] = {}
    seen: set[tuple[str, int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if degree is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise FieldParseError(line_no, "expected header 'n <degree>'")
            try:
                degree = int(tokens[1])
            except ValueError:
                raise FieldParseError(line_no, f"bad degree {tokens[1]!r}") from None
            if degree < 2:
                raise FieldParseError(line_no, "degree must be >= 2")
            continue
        if tokens[0] not in ("F", "G") or len(tokens) != 4:
            raise FieldParseError(line_no, "expected 'F <i> <j> <coeff>' or 'G <i> <j> <coeff>'")
        side = tokens[0]
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise FieldParseError(line_no, "exponents must be integers") from None
        if i < 0 or j < 0 or not 2 <= i + j <= degree:
            raise FieldParseError(
                line_no, f"term degree {i + j} outside the range 2..{degree}"
            )
        if (side, i, j) in seen:
            raise FieldParseError(line_no, f"duplicate term {side} {i} {j}")
        seen.add((side, i, j))
        try:
            coeff = domain.coerce(tokens[3])
        except (UsageError, ValueError) as exc:
            raise FieldParseError(line_no, f"bad coefficient {tokens[3]!r}: {exc}") from None
        bucket = F if side == "F" else G
        vec = bucket.setdefault(i + j, [0] * (i + j + 1))
        vec[j] = coeff

    if degree is None:
        raise FieldParseError(1, "missing header 'n <degree>'")
    return VectorField(
        degree,
        {k: HomogPoly(k, v) for k, v in F.items()},
        {k: HomogPoly(k, v) for k, v in G.items()},
        domain,
    )


def serialize_vector_field(vf: VectorField) -> str:
    """Inverse of parse_vector_field on the nonzero terms: each coefficient
    is written as the exact value it stores (a float-mode value as its
    dyadic rational), so parsing the text in the field's domain gives the
    field back."""
    lines = [f"n {vf.degree}"]
    for side, parts in (("F", vf.F), ("G", vf.G)):
        for k in sorted(parts):
            for i, j, c in parts[k].terms():
                lines.append(f"{side} {i} {j} {exact_str(c)}")
    return "\n".join(lines) + "\n"


# -- random families for tests and the CLI's seeded inputs ------------------


def _rng(seed: int) -> random.Random:
    import random  # loaded by the seeded generators only
    return random.Random(seed)


def _random_fraction(rng: random.Random) -> Fraction:
    """p/q with |p| <= 9 and 1 <= q <= 9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_part(k: int, rng: random.Random) -> HomogPoly:
    return HomogPoly(k, [_random_fraction(rng) for _ in range(k + 1)])


def random_homogeneous_field(n: int, seed: int) -> VectorField:
    """Degree-n field with only the top-degree parts populated, small random
    rational coefficients."""
    rng = _rng(seed)
    return VectorField(n, {n: _random_part(n, rng)}, {n: _random_part(n, rng)})


def random_field(n: int, seed: int) -> VectorField:
    """Degree-n field with every level 2..n populated."""
    rng = _rng(seed)
    F = {k: _random_part(k, rng) for k in range(2, n + 1)}
    G = {k: _random_part(k, rng) for k in range(2, n + 1)}
    return VectorField(n, F, G)


def random_divergence_free_field(n: int, seed: int, homogeneous: bool = False) -> VectorField:
    """Hamiltonian construction: F_k = dH/dy, G_k = -dH/dx for random
    homogeneous H of each degree k+1, which forces dF/dx + dG/dy == 0."""
    rng = _rng(seed)
    levels = [n] if homogeneous else range(2, n + 1)
    F: dict[int, HomogPoly] = {}
    G: dict[int, HomogPoly] = {}
    for k in levels:
        H = _random_part(k + 1, rng)
        F[k] = H.dy()
        G[k] = -H.dx()
    return VectorField(n, F, G)


def random_reversible_field(n: int, seed: int, homogeneous: bool = False) -> VectorField:
    """Field symmetric under (x, t) -> (-x, -t): F keeps only even x-exponents
    and G only odd ones."""
    rng = _rng(seed)
    levels = [n] if homogeneous else range(2, n + 1)
    F: dict[int, HomogPoly] = {}
    G: dict[int, HomogPoly] = {}
    for k in levels:
        fc = [_random_fraction(rng) if (k - j) % 2 == 0 else 0 for j in range(k + 1)]
        gc = [_random_fraction(rng) if (k - j) % 2 == 1 else 0 for j in range(k + 1)]
        F[k] = HomogPoly(k, fc)
        G[k] = HomogPoly(k, gc)
    return VectorField(n, F, G)


def rotational_family_field(n: int, seed: int) -> VectorField:
    """F_n = y*Phi, G_n = -x*Phi for random homogeneous Phi of degree n-1,
    so the direct drive x*F_n + y*G_n cancels identically."""
    rng = _rng(seed)
    phi = _random_part(n - 1, rng)
    y = HomogPoly.monomial(0, 1)
    x = HomogPoly.monomial(1, 0)
    return VectorField(n, {n: y * phi}, {n: -(x * phi)})


def coerce_field(vf: VectorField, domain: Domain) -> VectorField:
    """Re-express a field's coefficients in another domain (e.g. rational ->
    extended precision)."""
    def conv(p: HomogPoly) -> HomogPoly:
        return p.map_coeffs(domain.coerce)

    return VectorField(
        vf.degree,
        {k: conv(p) for k, p in vf.F.items()},
        {k: conv(p) for k, p in vf.G.items()},
        domain,
    )
