"""Coefficient domains: exact rationals, extended-precision reals, residues.

Every higher layer of the package is generic over a small "scalar" protocol:
values combine with ``+ - * /`` and with plain ints, and ``x == 0`` is a
meaningful zero test.  Two carriers satisfy it:

  * ``fractions.Fraction``     -- exact rational mode (the default) and
                                  extended-precision real mode alike,
  * ``int`` in 0..p-1          -- residues modulo a prime (the float center check).

A real-mode value is the dyadic rational m * 2^e with at most ``prec`` bits
in m that rounding left, stored as an exact Fraction (in lowest terms, its
denominator a power of two); it prints with ``dps`` significant digits only
through ``scalar_to_str`` or the domain's ``to_str``.  Every value of
every domain is read as integer numerators over one denominator by the one
module function ``read_ints`` (the lcm of the denominators: a power of two
in real mode, 1 for residues), which is exact.  A domain keeps only its
rounding rule: it turns an exactly solved num/den into stored form
(``store_ints``: one division pass in exact mode, each coefficient rounded
once in real mode, den inverted once mod p) and builds one value from
num/den (``ratio``: the Fraction, the correctly rounded dyadic one, or the
residue).  The engine's per-degree loop and the certificate determinant
compute on those ints in every mode, so real mode rounds each solved
coefficient, each Lyapunov constant and det P once.  The certificate sweep
reduces each covector it carries by ``reduce_row``: the exact and real
domains divide out one gcd, so the real-mode certificate stays exact, and
residues invert den once, as ``store_ints`` does.

``LinearForm`` is not a carrier but a record of an affine expression
c0 + sum_i c_i * u_i  in registered unknowns, with c0 and the c_i in one
carrier.  Nothing computes with forms: Lyapunov constants are exactly affine
in the replaced block coefficients, so the engine fills the record in from
one reverse sweep per constant (c0 and the c_i; see
``engine.compute_series_unknown``), and the certificate matrix reads its
entries off it.

A ``Domain`` object packages the carrier choice, its rounding rule above, and
(for the real carrier) the working precision.  Domain values are immutable
and freely shareable between threads.  ``BigRealDomain`` rounds only exact
values and rounds each once: a num/den (``ratio``, which ``coerce`` reads
every input into) or the square root of a Fraction (``sqrt``); its
``to_str`` writes the decimal digits mpmath's ``to_str`` writes for the
same binary value.

Values enter the package one way: every domain has the same ``coerce``,
which reads an int, a ``Fraction`` or text (``parse_rational``) exactly and
refuses anything else, binary floats included, with UsageError.  The exact
domain keeps that Fraction; the others build it once with ``ratio``.  A
real-mode value is already its dyadic Fraction, so it is read back as that
Fraction.  The package imports no third-party module.
"""

from __future__ import annotations

import numbers
import re
from collections.abc import Sequence
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm, log10

from .errors import NoResidueError, UsageError

#: Unknowns are labelled by the (x-exponent, y-exponent) slot they stand for.
UnknownId = tuple[int, int]

Scalar = int | Fraction


_DIGITS = r"\d+(?:_\d+)*"
#: The text ``fractions.Fraction`` accepts: ``p/q``, or an integer or decimal
#: with an optional exponent, signed.
_RATIONAL = re.compile(
    rf"[-+]?(?:{_DIGITS}/{_DIGITS}"
    rf"|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE](?P<exp>[-+]?{_DIGITS}))?)"
)

#: Largest magnitude of a written decimal exponent: ``1eE`` is read as the
#: exact 10^E, and exact mode then computes on numbers of that size.
MAX_DECIMAL_EXPONENT = 10**5


#: Longest digit string one ``int`` call converts: below the interpreter's
#: default limit of 4300 digits on text-to-int conversion.
_INT_CHUNK = 4000


class _Lowest:
    """A numerator and a positive denominator known to be coprime.
    ``Fraction`` takes any ``numbers.Rational``'s numerator and denominator
    as they are (the ABC asks for lowest terms), so ``Fraction(_Lowest(n,
    d))`` skips the gcd that ``Fraction(n, d)`` takes, which is quadratic in
    their length."""

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_Lowest)


def _digits_to_int(digits: str) -> int:
    """The int a string of decimal digits writes, at any length and without
    changing the interpreter's limit on text-to-int conversion: a string
    longer than ``_INT_CHUNK`` digits is split as hi * 10^len(lo) + lo with
    len(lo) = _INT_CHUNK * 2^i, so the cost is that of the multiplications
    (Karatsuba), not quadratic in the length."""
    if len(digits) <= _INT_CHUNK:
        return int(digits)
    powers = [10**_INT_CHUNK]  # powers[i] = 10^(_INT_CHUNK * 2^i)
    while _INT_CHUNK << len(powers) < len(digits):
        powers.append(powers[-1] ** 2)

    def convert(s: str, i: int) -> int:  # len(s) <= _INT_CHUNK * 2^(i+1)
        if i < 0:
            return int(s)
        lo = _INT_CHUNK << i
        if len(s) <= lo:
            return convert(s, i - 1)
        return convert(s[:-lo], i - 1) * powers[i] + convert(s[-lo:], i - 1)

    return convert(digits, len(powers) - 1)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal text into an exact Fraction.

    Decimals are scaled by the exact power of ten ("0.25" -> 1/4); binary
    floating point is never involved.  The digits are read by
    ``_digits_to_int``, at any length and in subquadratic time, and no
    global state changes.  A decimal is n * 10^s for the int n of its
    digits; at s < 0 only the factors 2 or 5 of n can cancel, and they are
    divided out directly (one pass over n per factor 5), so no gcd is taken
    on a long denominator.  ``p/q`` is reduced by one gcd.  A decimal
    exponent above ``MAX_DECIMAL_EXPONENT`` in magnitude raises UsageError.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise UsageError(f"not a rational number: {text!r}")
    if match["exp"] and abs(Decimal(match["exp"])) > MAX_DECIMAL_EXPONENT:
        raise UsageError(f"decimal exponent of magnitude above {MAX_DECIMAL_EXPONENT}")
    body = match[0].replace("_", "")
    sign = -1 if body[0] == "-" else 1
    num, slash, den = body.lstrip("+-").partition("/")
    if slash:
        if not den.strip("0"):
            raise UsageError(f"not a rational number: {text!r}")
        return Fraction(sign * _digits_to_int(num), _digits_to_int(den))
    mantissa, _, exp = num.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).rstrip("0")
    if not digits:
        return Fraction(0)
    n = sign * _digits_to_int(digits)
    shift = int(exp or 0) + len(whole) - len(digits)  # value = n * 10^shift
    if shift >= 0:
        return Fraction(n * 10**shift)
    twos = fives = -shift  # n / (2^twos 5^fives); 10 does not divide n
    if n % 2 == 0:
        cut = min((n & -n).bit_length() - 1, twos)
        n, twos = n >> cut, twos - cut
    else:
        while fives and n % 5 == 0:
            n, fives = n // 5, fives - 1
    return Fraction(_Lowest(n, 5**fives << twos))


#: Longest int, in bits, that ``exact_str`` converts in one ``Decimal`` call
#: (about 9900 digits; L_60 of a random cubic has about 1700).
_STR_CHUNK_BITS = 1 << 15


def _int_to_decimal(n: int) -> Decimal:
    """n as an exact Decimal.  ``Decimal(n)`` is quadratic in the length, so
    a longer n is split as hi * 2^h + lo with h = _STR_CHUNK_BITS * 2^i and
    recombined in decimal arithmetic, whose multiplication is subquadratic;
    the context carries every digit, and Inexact is trapped."""
    if n.bit_length() <= _STR_CHUNK_BITS:
        return Decimal(n)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.traps[Inexact] = MAX_PREC, MAX_EMAX, True
        powers = [Decimal(2) ** _STR_CHUNK_BITS]  # powers[i] = 2^(_STR_CHUNK_BITS * 2^i)
        while _STR_CHUNK_BITS << len(powers) < n.bit_length():
            powers.append(powers[-1] * powers[-1])

        def convert(m: int, i: int) -> Decimal:  # 0 <= m < 2^(_STR_CHUNK_BITS * 2^(i+1))
            if i < 0:
                return Decimal(m)
            h = _STR_CHUNK_BITS << i
            if m.bit_length() <= h:
                return convert(m, i - 1)
            return convert(m >> h, i - 1) * powers[i] + convert(m & ((1 << h) - 1), i - 1)

        value = convert(abs(n), len(powers) - 1)
        return value if n > 0 else -value


def exact_str(x: Fraction | int) -> str:
    """``str(x)`` for an exact value, in subquadratic time and without the
    interpreter's limit on int-to-decimal conversion (4300 digits by
    default): each int is built exactly as a ``Decimal`` (``_int_to_decimal``),
    which prints without that limit, and no global state changes."""
    num = str(_int_to_decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{_int_to_decimal(x.denominator)}"


def _aligned(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Dyadic values m * 2^e as integer numerators over the largest 2^-e
    among them (at least 1), which loses nothing."""
    low = min([0] + [e for m, e in pairs if m])
    return [m << (e - low) for m, e in pairs], 1 << -low


def _dyadic_fraction(m: int, e: int) -> Fraction:
    """m * 2^e as a Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _round_ratio(n: int, d: int, prec: int) -> tuple[int, int]:
    """(m, e) with m * 2^e the prec-bit binary float nearest to n/d (d > 0),
    ties to even; (0, 0) for n = 0.  The quotient is taken with one or two
    bits to spare, and the remainder breaks the ties."""
    if n == 0:
        return 0, 0
    a = abs(n)
    shift = prec + 1 - a.bit_length() + d.bit_length()
    q, r = divmod(a << shift, d) if shift >= 0 else divmod(a, d << -shift)
    extra = q.bit_length() - prec
    low, half = q & ((1 << extra) - 1), 1 << (extra - 1)
    q >>= extra
    if low > half or (low == half and (r or q & 1)):
        q += 1
    return (-q if n < 0 else q), extra - shift


def dps_to_prec(dps: int) -> int:
    """Bits that carry ``dps`` decimal digits: mpmath's ``dps_to_prec``."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _digits_exp(a: int, k: int, n: int) -> tuple[str, int]:
    """The first n decimal digits of a / 2^k > 0, truncated, and the decimal
    exponent E of the first one: floor(a / 2^k * 10^(n-1-E)), every digit
    exact."""

    def scaled(s: int) -> int:  # floor(a / 2^k * 10^s)
        return a * 10**s >> k if s >= 0 else a // (10**-s << k)

    exp = int((a.bit_length() - k - 1) * log10(2))
    while True:
        q = scaled(n - 1 - exp)
        if q >= 10**n:
            exp += 1
        elif q < 10 ** (n - 1):
            exp -= 1
        else:
            return str(_int_to_decimal(q)), exp


def _decimal_str(x: Fraction, dps: int) -> str:
    """A dyadic Fraction with ``dps`` significant digits, as mpmath's
    ``libmp.to_str(s, dps)`` writes the binary value s: the first dps + 1
    digits, truncated, rounded half up to dps, fixed-point layout for a
    leading decimal exponent strictly between min(-(dps // 3), -5) and dps,
    scientific otherwise, trailing zeros stripped."""
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    digits, exp = _digits_exp(abs(x.numerator), x.denominator.bit_length() - 1, dps + 1)
    if digits[dps] >= "5":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits, exp = "1" + "0" * (dps - 1), exp + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exp < dps:
        if exp < 0:
            digits = "0" * -exp + digits
        else:
            split = exp + 1
        exp = 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exp == 0:
        return sign + text
    return f"{sign}{text}e{'+' if exp > 0 else ''}{exp}"


class LinearForm:
    """Affine expression ``const + sum coeffs[u] * u`` over formal unknowns,
    with the constant and the coefficients in one carrier (exact or
    rounded Fractions).  ``coeffs`` holds every unknown of its series,
    zeros included."""

    def __init__(self, const: Scalar, coeffs: dict[UnknownId, Scalar]):
        self.const, self.coeffs = const, coeffs


def read_ints(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Values of any domain as integer numerators over their least common
    denominator, exactly and with no gcd per value: a power of two for
    float values, 1 for residues (ints, read back unchanged)."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


class _Reader:
    """The one ``coerce`` of every domain, and the certificate sweep's
    reduction that the exact and real domains share."""

    def reduce_row(self, nums: list[int], den: int) -> tuple[list[int], int]:
        """nums/den with the gcd of den and every numerator divided out: the
        same exact covector, so a real-mode certificate stays exact."""
        g = gcd(*nums, den)
        return (nums, den) if g == 1 else ([x // g for x in nums], den // g)

    def coerce(self, x) -> Scalar:
        """The exact value of an int, a Fraction or text (``parse_rational``),
        kept as it is by the exact domain and built once by ``ratio`` in the
        others; anything else raises UsageError."""
        if isinstance(x, int):
            x = Fraction(x)
        elif isinstance(x, str):
            x = parse_rational(x)
        elif not isinstance(x, Fraction):
            raise UsageError(f"cannot coerce {x!r} into a coefficient domain")
        return x if self.exact else self.ratio(x.numerator, x.denominator)


class RationalDomain(_Reader):
    """Exact rational coefficients (fractions.Fraction)."""

    exact = True

    def store_ints(self, nums: Sequence[int], den: int) -> tuple[list[int], int]:
        """nums[i]/den (den > 0) in lowest terms, in one division pass:
        g = gcd(den, numerators so far) divides the next numerator; a
        remainder r shrinks g to gcd(g, r) and rescales earlier quotients."""
        g, out = den, []
        for x in nums:
            q, r = divmod(x, g)
            if r:
                h = gcd(g, r)
                f, g, q = g // h, h, x // h
                out = [y * f for y in out]
            out.append(q)
        return out, den // g

    def ratio(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def to_str(self, x) -> str:
        return exact_str(x)


class BigRealDomain(_Reader):
    """Extended-precision reals carrying ``dps`` (>= 30) decimal digits: each
    value is a Fraction m * 2^e with m of at most ``dps_to_prec(dps)`` bits."""

    exact = False

    def __init__(self, dps: int = 60):
        if dps < 30:
            raise UsageError("extended-precision domain needs at least 30 digits")
        self.dps = dps

    def store_ints(self, nums: Sequence[int], den: int) -> tuple[list[int], int]:
        """Each exact value nums[i]/den rounded once, as ``ratio`` rounds it,
        and stored as dyadic numerators over one power of two."""
        prec = dps_to_prec(self.dps)
        return _aligned([_round_ratio(n, den, prec) for n in nums])

    def ratio(self, num: int, den: int) -> Fraction:
        """The value nearest to num/den (den > 0) at this precision, ties to
        even: the exact value rounded once."""
        return _dyadic_fraction(*_round_ratio(num, den, dps_to_prec(self.dps)))

    def sqrt(self, x: Fraction) -> Fraction:
        """The value nearest to the square root of x >= 0, ties to even.
        With q = floor(x 4^k) and s = isqrt(q) of at least prec + 2 bits,
        sqrt(x) 2^k is s or lies strictly between s and s + 1, where no
        rounding boundary of the grid falls (they are integers at that
        size); so it rounds as s, or as s + 1/2."""
        n, d = x.numerator, x.denominator
        if n < 0:
            raise UsageError(f"square root of a negative number: {x}")
        prec = dps_to_prec(self.dps)
        k = (2 * prec + 6 - n.bit_length() + d.bit_length()) // 2
        q, r = divmod(n << 2 * k, d) if k >= 0 else divmod(n, d << -2 * k)
        s = isqrt(q)
        m, e = _round_ratio(2 * s + (r != 0 or s * s != q), 2, prec)
        return _dyadic_fraction(m, e - k)

    def to_str(self, x) -> str:
        """x rounded once (``coerce``), written with ``dps`` significant digits."""
        return _decimal_str(self.coerce(x), self.dps)


class ResidueDomain(_Reader):
    """Residues modulo the prime p (a/b is a * b^-1 mod p).  A nonzero residue
    proves a rational nonzero, a zero one proves nothing: ``exact`` is False.
    The engine's chain steps divide exactly for any integer source, so its
    loop and the certificate sweep run on residues unchanged, and
    ``store_ints`` reduces each result."""

    p = 2**61 - 1
    exact = False

    def store_ints(self, nums: Sequence[int], den: int) -> tuple[list[int], int]:
        """Each nums[i]/den as ``ratio`` builds it, with den inverted once."""
        if not nums:
            return [], 1
        inv = self.ratio(1, den)
        return [x * inv % self.p for x in nums], 1

    reduce_row = store_ints  # the sweep reduces each covector to residues over 1

    def ratio(self, num: int, den: int) -> int:
        if den % self.p == 0:
            raise NoResidueError(f"a denominator is divisible by the prime {self.p}")
        return num * pow(den, -1, self.p) % self.p


Domain = RationalDomain | BigRealDomain | ResidueDomain

RATIONAL = RationalDomain()


def scalar_is_zero(x) -> bool:
    """The exact zero test of every domain (a residue is zero when p divides it)."""
    return x == 0


def scalar_to_str(x, domain: Domain) -> str:
    """Text for a scalar: exact 'p/q' in rational mode, the value rounded to
    the working precision in floating mode."""
    return domain.to_str(x)
