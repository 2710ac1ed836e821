import random
import time
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import libmp

from bautin_lab.errors import NoResidueError, UsageError
from bautin_lab.scalars import (
    MAX_DECIMAL_EXPONENT,
    RATIONAL,
    BigRealDomain,
    _STR_CHUNK_BITS,
    ResidueDomain,
    _round_ratio,
    dps_to_prec,
    exact_str,
    parse_rational,
    read_ints,
    scalar_to_str,
)
from oracles import dyadic, gcd_reduced, mp_round


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -0.125 ") == Fraction(-1, 8)
    with pytest.raises(UsageError):
        parse_rational("abc")
    with pytest.raises(UsageError):
        parse_rational("1/0")
    # 1eE is read as the exact 10^E, so the exponent is bounded
    assert parse_rational("1e-100000") == Fraction(1, 10**100000)
    assert parse_rational("-2.5E+100_000") == -25 * 10**99999
    for text in ("1e100001", "1e-100001", "3.0e999999999"):
        with pytest.raises(UsageError, match="100000"):
            parse_rational(text)


def test_rational_domain_coerce():
    assert RATIONAL.coerce(3) == Fraction(3)
    assert RATIONAL.coerce("2/5") == Fraction(2, 5)
    # a float value is the dyadic rational it stores
    third = BigRealDomain(dps=40).coerce("1/3")
    assert RATIONAL.coerce(third) is third != Fraction(1, 3)


@pytest.mark.parametrize(
    "dom", [RATIONAL, BigRealDomain(dps=40), ResidueDomain()], ids=["rational", "real", "residue"]
)
def test_coerce_reads_int_fraction_and_text_only(dom):
    # one reading rule in every domain: the exact value of an int, a
    # Fraction or text, built by ``ratio``; a binary float of any kind is
    # refused, not read as the dyadic rational it stores
    for x in (-12, Fraction(-12), "-12", "-24/2", "-1.2e1"):
        assert dom.coerce(x) == dom.ratio(-12, 1)
    for x in (Fraction(2, 5), "2/5", "0.4"):
        assert dom.coerce(x) == dom.ratio(2, 5)
    for value in (mp.mpf(1), 2.5, mp.mpf(0), 0.0, mp.inf, mp.nan, float("inf"), float("nan")):
        with pytest.raises(UsageError):
            dom.coerce(value)


def test_read_ints_reads_every_domain_exactly():
    # one reader for every domain: exact values over the lcm of their
    # denominators, float values over the largest of their powers of two,
    # residues unchanged over 1, and nothing over 1
    assert read_ints([Fraction(1, 6), Fraction(-3, 4), 0, Fraction(5)]) == ([2, -9, 0, 60], 12)
    dom = BigRealDomain(dps=40)
    values = [dom.coerce(x) for x in ("1/3", "-2.5e-7", 0, "12")]
    nums, den = read_ints(values)
    assert den == max(x.denominator for x in values) and den & (den - 1) == 0
    assert [Fraction(n, den) for n in nums] == values
    p = ResidueDomain.p
    nums, den = read_ints([5, 0, p - 1])
    assert (nums, den) == ([5, 0, p - 1], 1) and all(type(n) is int for n in nums)
    assert read_ints([]) == ([], 1)


def _mpf(x: Fraction):
    """The mpf that stores the dyadic rational x exactly."""
    return mp.make_mpf(libmp.from_man_exp(*dyadic(x)))


#: A prime above 2^61 (the Mersenne prime 2^89 - 1).
_BIG_PRIME = 2**89 - 1


@st.composite
def _ratios(draw):
    """nums/den with a common factor planted in both and _BIG_PRIME in some
    of them, so the reduction has something to remove and g shrinks at
    uneven places."""
    common = draw(st.integers(1, 2**70)) * draw(st.sampled_from([1, 2**64, _BIG_PRIME]))
    entry = st.one_of(st.just(0), st.integers(-(2**200), 2**200))
    nums = draw(st.lists(st.tuples(entry, st.booleans()), min_size=1, max_size=12))
    den = draw(st.integers(1, 2**100)) * draw(st.sampled_from([1, _BIG_PRIME]))
    return [x * common * (_BIG_PRIME if big else 1) for x, big in nums], den * common


@given(_ratios())
@example(([0, 0, 0], 7 * _BIG_PRIME))  # all zero: zeros over 1
@example(([-6], 4))  # a single entry
@example(([-4, 0, 6, 9], 1))
@example(([3 * _BIG_PRIME, 0, -5 * _BIG_PRIME], 7 * _BIG_PRIME))
@example(([12, -18, 8], 2**61 * 6))
def test_rational_store_ints_is_the_gcd_reduction(ratio):
    nums, den = ratio
    stored = RATIONAL.store_ints(nums, den)
    assert stored == gcd_reduced(nums, den)
    assert all(type(x) is int for x in stored[0]) and stored[1] > 0


def test_rational_store_ints_when_every_entry_shrinks_the_gcd():
    # every entry of [2^100, 2^99, ..., 1] * q over 2^100 * q halves the
    # running gcd, so each one rescales the quotients taken before it
    q = 3**4000
    nums, den = [q << i for i in range(100, -1, -1)], q << 100
    start = time.process_time()
    stored = RATIONAL.store_ints(nums, den)
    assert time.process_time() - start < 0.5
    assert stored == ([1 << i for i in range(100, -1, -1)], 1 << 100) == gcd_reduced(nums, den)


def test_bigreal_domain():
    dom = BigRealDomain(dps=40)
    x = dom.coerce("1/3")
    assert abs(x * 3 - 1) < Fraction(1, 10**38)
    with pytest.raises(UsageError):
        BigRealDomain(dps=10)


@given(st.fractions(min_value=0), st.sampled_from([30, 60, 120]))
@example(Fraction(0), 60)
@example(Fraction(4, 9), 60)
@example(Fraction(((1 << 203) + 1) ** 2), 60)  # the root is a tie of the 203-bit grid
@example(Fraction(1, 10**300), 30)
@example(Fraction(10**300 + 1), 120)
def test_bigreal_sqrt_is_correctly_rounded(x, dps):
    # with ulp the grid spacing at y = sqrt(x) rounded, read exactly:
    # (y - ulp/2)^2 <= x <= (y + ulp/2)^2
    y = BigRealDomain(dps=dps).sqrt(x)
    if x == 0:
        assert y == 0
        return
    man, exp = dyadic(y)
    half_ulp = Fraction(2) ** (exp + man.bit_length() - dps_to_prec(dps)) / 2
    assert man > 0
    assert (y - half_ulp) ** 2 <= x <= (y + half_ulp) ** 2
    with pytest.raises(UsageError):
        BigRealDomain(dps=dps).sqrt(-x)


def test_residue_domain():
    dom = ResidueDomain()
    p = dom.p
    assert p == 2**61 - 1 and not dom.exact
    assert dom.coerce(-1) == p - 1
    assert dom.coerce(Fraction(2, 3)) * 3 % p == 2
    assert dom.coerce("-0.125") * 8 % p == p - 1
    # a float value is read as the dyadic rational it stores, not rounded
    # again
    third = BigRealDomain(dps=40).coerce("1/3")
    assert dom.coerce(third) == dom.ratio(third.numerator, third.denominator)
    assert dom.coerce(third) != dom.coerce(Fraction(1, 3))
    assert read_ints([5, 0, p - 1]) == ([5, 0, p - 1], 1)
    assert dom.store_ints([3, 6 * p + 9], 3) == ([1, 3], 1)
    assert dom.ratio(-1, 2) == (p - 1) // 2
    # a denominator divisible by p has no residue: refused, naming p
    for bad in (lambda: dom.coerce(Fraction(1, p)), lambda: dom.ratio(1, 2 * p)):
        with pytest.raises(NoResidueError, match=str(p)):
            bad()


@given(
    st.lists(st.integers(-(2**130), 2**130), max_size=8),
    st.integers(1, 2**70),
    st.sampled_from([1, ResidueDomain.p, ResidueDomain.p**2]),
)
@example([5, -7], 3, ResidueDomain.p)
@example([], 1, ResidueDomain.p)
def test_residue_store_ints_inverts_den_once(nums, den, factor):
    # one inverse per call gives the residues of ratio, entry by entry; a
    # denominator divisible by p still has no residue
    dom = ResidueDomain()
    den *= factor
    try:
        want = [dom.ratio(x, den) for x in nums], 1
    except NoResidueError:
        with pytest.raises(NoResidueError, match=str(dom.p)):
            dom.store_ints(nums, den)
    else:
        assert dom.store_ints(nums, den) == want


def test_scalar_to_str_lossless():
    assert scalar_to_str(Fraction(3, 8), RATIONAL) == "3/8"
    dom = BigRealDomain(dps=40)
    s = scalar_to_str(dom.coerce("0.1"), dom)
    assert abs(parse_rational(s) - dom.coerce("0.1")) < Fraction(1, 10**38)


def test_dps_to_prec_is_mpmaths():
    assert all(dps_to_prec(dps) == libmp.dps_to_prec(dps) for dps in range(30, 2001))


def test_to_str_writes_mpmaths_digits():
    # the decimal text of a dyadic value is mpmath's to_str of the same
    # binary value: random mantissas of up to prec bits, runs of nines and
    # exact decimal ties, with the leading bit's exponent up to 3400 either
    # way, on both sides of the 3500 where mpmath switches to a rounded power
    # of ten (here an exact one), and near decimal exponents of +-10^5
    rng = random.Random(25)
    for dps in (30, 60, 120):
        dom, prec = BigRealDomain(dps=dps), dps_to_prec(dps)
        tops = [rng.randint(-3400, 3400) for _ in range(2000)]
        tops += [rng.choice((-1, 1)) * rng.randint(3490, 3510) for _ in range(400)]
        tops += [rng.choice((-1, 1)) * 332193 + rng.randint(-20, 20) for _ in range(40)]
        for top in tops:
            bits = rng.choice((prec, rng.randint(1, prec)))
            man = rng.choice((rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 5**bits))
            man >>= max(0, man.bit_length() - prec)
            m, e = rng.choice((1, -1)) * man, top - man.bit_length()
            x = Fraction(m) * Fraction(2) ** e
            assert dom.to_str(x) == libmp.to_str(libmp.from_man_exp(m, e), dps), (dps, m, e)
        assert dom.to_str(0) == libmp.to_str(libmp.fzero, dps) == "0.0"
    # more digits than one int-to-text conversion takes (4300)
    dom = BigRealDomain(dps=5000)
    x = dom.coerce(Fraction(-1, 3))
    assert dom.to_str(x) == libmp.to_str(_mpf(x)._mpf_, 5000) == "-0." + "3" * 5000


def test_round_ratio_matches_mpf_division():
    from mpmath.libmp import from_int, from_man_exp, mpf_div

    rng = random.Random(7)
    cases = []
    for prec in (1, 2, 10, 53, 199, 203, 402):
        for _ in range(400):
            n = rng.getrandbits(rng.randint(1, 900)) * rng.choice((1, -1))
            d = rng.getrandbits(rng.randint(1, 900)) or 1
            cases.append((n, d, prec))
            cases.append((n, 1 << rng.randint(0, 700), prec))  # power-of-two den
        for _ in range(100):  # exact ties: an odd (prec+1)-bit value over 2^s
            m = (rng.getrandbits(prec) | (1 << prec)) | 1
            cases.append((m * rng.choice((1, -1)), 1 << rng.randint(0, 90), prec))
            cases.append(((1 << prec) - 1, 1, prec))  # exactly representable
            cases.append(((1 << (prec + 1)) - 1, 1, prec))  # rounds up to 2^(prec+1)
    cases.append((0, 5, 53))
    dps_of_prec = {199: 59, 203: 60, 402: 120}  # prec = dps_to_prec(dps)
    for n, d, prec in cases:
        m, e = _round_ratio(n, d, prec)
        assert type(m) is int and type(e) is int
        assert from_man_exp(m, e) == mpf_div(from_int(n), from_int(d), prec, "n"), (n, d, prec)
        if prec in dps_of_prec:
            # coerce(Fraction) rounds through the same routine: the value
            # mp.fdiv rounds to at the working precision
            dps = dps_of_prec[prec]
            assert BigRealDomain(dps=dps).coerce(Fraction(n, d)) == mp_round(Fraction(n, d), dps)


def test_huge_decimal_exponents_parse_fast_and_round_once():
    # the largest power of ten the exponent bound accepts (as text) and a
    # million-digit one (as a Fraction) are read exactly and rounded once,
    # without an mpf division on the big int (about 18 s at a million digits)
    dom = BigRealDomain(dps=60)
    prec = dps_to_prec(dom.dps)
    N, ten_m = MAX_DECIMAL_EXPONENT, 10 ** 10**6
    for ten_n, pair in ((10**N, (f"1e{N}", f"1e-{N}")), (ten_m, (Fraction(ten_m), Fraction(1, ten_m)))):
        start = time.process_time()
        big, small = map(dom.coerce, pair)
        assert time.process_time() - start < 5
        # x = man * 2^exp within half an ulp 2^(exp + bc - prec - 1), in ints
        man, exp = dyadic(big)
        bc = man.bit_length()
        assert man > 0 and bc <= prec and exp > 0
        assert 2 * abs((man << exp) - ten_n) <= 1 << (exp + bc - prec)
        # the same inequality for 10^-N, multiplied by 10^N * 2^-exp
        man, exp = dyadic(small)
        bc = man.bit_length()
        assert man > 0 and bc <= prec and exp < 0
        assert abs(man * ten_n - (1 << -exp)) << (prec - bc + 1) <= ten_n


def test_parse_rational_matches_the_decimal_reading():
    # the direct reading against Fraction(Decimal(text)) on strings around
    # the conversion chunk, with trailing zeros and factors 2 and 5 to cancel
    rng = random.Random(18)
    for _ in range(600):
        digits = "".join(rng.choices("0123456789", k=rng.choice((1, 3, 40, 4001, 12000))))
        digits += rng.choice(("", "0" * rng.randint(1, 5), "5" * rng.randint(1, 3), "2"))
        point = rng.randint(0, len(digits))
        text = rng.choice(("", "-", "+")) + digits[:point] + "." + digits[point:]
        if rng.random() < 0.3:
            text += f"e{rng.randint(-40, 40)}"
        x = parse_rational(text)
        want = Fraction(Decimal(text))
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator), text[:40]
    assert parse_rational("1_000.000_5") == Fraction(2000001, 2000)
    assert parse_rational("-12.50") == Fraction(-25, 2)
    assert parse_rational("0.000e7") == 0
    assert parse_rational("-0/7") == 0
    with pytest.raises(UsageError):
        parse_rational("3/000")


def _residue(digits, p):
    """The int written by a digit string, mod p, from 4000-digit pieces."""
    r = 0
    for i in range(0, len(digits), 4000):
        piece = digits[i : i + 4000]
        r = (r * pow(10, len(piece), p) + int(piece)) % p
    return r


def test_exact_str_prints_long_values_exactly_in_subquadratic_time():
    # str(Decimal(n)) is quadratic in the length (about 20 s at 10^6
    # digits); exact_str splits a long int in binary and recombines the
    # parts in decimal arithmetic.  A 10^6-digit int prints its own digits
    # in under 5 s of CPU time
    rng = random.Random(23)
    digits = "9" + "".join(str(rng.randrange(10**4000)).zfill(4000) for _ in range(250))[1:]
    n = parse_rational(digits).numerator
    start = time.process_time()
    text = exact_str(-n)
    assert time.process_time() - start < 5
    assert text == "-" + digits
    # a Fraction whose two parts are above the interpreter's 4300-digit limit
    # on int-to-text conversion, on either side of the split length
    for length in (5000, 12000):
        x = Fraction(rng.randrange(10**length), rng.randrange(10**length) | 1)
        assert min(len(exact_str(x.numerator)), len(exact_str(x.denominator))) > 4300
        assert parse_rational(exact_str(x)) == x
    # at the split length and one bit on either side: the text of the one
    # Decimal conversion, and it reads back
    for bits in (_STR_CHUNK_BITS - 1, _STR_CHUNK_BITS, _STR_CHUNK_BITS + 1):
        for m in (2**bits - 1, 2 ** (bits - 1), rng.getrandbits(bits - 1) | 2 ** (bits - 1)):
            assert m.bit_length() == bits
            for x in (m, -m, Fraction(1, m), Fraction(-m, 3)):
                text = exact_str(x)
                assert parse_rational(text) == x, bits
            assert exact_str(m) == str(Decimal(m)), bits


def test_million_digit_numbers_parse_in_subquadratic_time():
    # a 10^6-digit integer and a 10^6-digit decimal with half its digits
    # after the point (a quadratic reading takes over 30 s, a gcd on the
    # denominator about 10 s), both modes under 5 s of CPU time each, exact:
    # the value is checked mod four Mersenne primes, in lowest terms
    rng = random.Random(19)
    digits = "".join(str(rng.randrange(10**4000)).zfill(4000) for _ in range(250))
    digits = "7" + digits[1:-1] + "5"  # a factor 5 to cancel in the decimal
    float_domain = BigRealDomain(dps=60)
    for text, point in ((digits, 0), ("-" + digits[:500000] + "." + digits[500000:], 500000)):
        values = []
        for domain in (RATIONAL, float_domain):
            start = time.process_time()
            values.append(domain.coerce(text))
            assert time.process_time() - start < 5, (domain, point)
        num, den = values[0].numerator, values[0].denominator
        assert num.bit_length() > 3 * 10**6 and (10**point) % den == 0
        assert not (num % 2 == 0 == den % 2 or num % 5 == 0 == den % 5)
        sign = -1 if text[0] == "-" else 1
        for p in ((1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1):
            assert num * pow(10, point, p) % p == sign * _residue(digits, p) * den % p
        assert values[1] == float_domain.ratio(num, den)
