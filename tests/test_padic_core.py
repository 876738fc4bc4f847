"""Core p-adic arithmetic: valuations, norms, digit expansions, Gauss norms.

Frozen values come from two independent sources: by-hand factorizations
(trial division) and an extended-Euclid oracle for modular inverses, both
recomputed inline here rather than trusted from the library under test.
"""

from __future__ import annotations

import io
import math
import operator
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclab import (
    ARCHIMEDEAN,
    INFINITY,
    AxiomResult,
    DomainError,
    ExpansionFormatError,
    ExpansionParseError,
    MixedPrimesError,
    FqPolynomial,
    NotPrimeError,
    PadicNumber,
    Place,
    RationalPolynomial,
    ResourceLimitError,
    Valuation,
    ZeroInversionError,
    check_seminorm_axioms,
    gauss_norm,
    hensel_lift,
    is_prime,
    norm,
    nu,
    parse_expansion_string,
    sqrt_padic,
    to_expansion_string,
)
from padiclab.cli import _check_printable, main
from padiclab.errors import quoted
from padiclab.padic_core import (
    _MR_BASES,
    _MR_TIERS,
    PROVEN_PRIME_BOUND,
    _digits,
    _poly_eval,
    require_prime,
)

PRIMES = [2, 3, 5, 7, 11]
# with the largest prime below 2**32
WIDE_PRIMES = PRIMES + [4294967291]

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
prime_st = st.sampled_from(PRIMES)


def brute_valuation(q: Fraction, p: int) -> int:
    """ν_p by repeated division — the slow, obviously-correct route."""
    assert q != 0
    n = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        n += 1
    while den % p == 0:
        den //= p
        n -= 1
    return n


# ---------------------------------------------------------------------------
# Valuation type
# ---------------------------------------------------------------------------


def test_valuation_ordering_and_addition():
    assert Valuation.finite(2) < INFINITY
    assert INFINITY + Valuation.finite(-5) == INFINITY
    assert Valuation.finite(1) + Valuation.finite(2) == Valuation.finite(3)
    assert -Valuation.finite(4) == Valuation.finite(-4)
    assert max(Valuation.finite(3), INFINITY).is_infinite
    assert str(INFINITY) == "infinity"
    assert int(Valuation.finite(-2)) == -2


def test_valuation_infinity_has_no_int():
    with pytest.raises(DomainError):
        int(INFINITY)


def test_nu_frozen_values():
    assert nu(0, 5) == INFINITY
    assert nu(216, 2) == Valuation.finite(3)  # 216 = 2^3 * 27
    assert nu(Fraction(1, 49), 7) == Valuation.finite(-2)
    assert nu(Fraction(63, 550), 5) == Valuation.finite(-2)


def test_nu_rejects_non_prime():
    with pytest.raises(NotPrimeError):
        nu(10, 4)
    with pytest.raises(NotPrimeError):
        nu(10, 1)


def test_norm_frozen_values():
    assert norm(2, 2) == Fraction(1, 2)
    assert norm(Fraction(63, 550), 5) == 25
    assert norm(Fraction(-3, 4), ARCHIMEDEAN) == Fraction(3, 4)
    assert norm(0, 3) == 0
    assert norm(0, ARCHIMEDEAN) == 0


def old_route_norm(q, p) -> Fraction:
    """``(1/p) ** v_p(q)`` as a Fraction power, 0 for zero."""
    q = Fraction(q)
    return Fraction(0) if q == 0 else Fraction(1, p) ** brute_valuation(q, p)


def seeded_rationals(seed: int, count: int) -> list[Fraction]:
    """Zero, signed integers and signed fractions with prime powers on both sides."""
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    for _ in range(count):
        p = rng.choice(WIDE_PRIMES)
        num = rng.randint(1, 10**9) * p ** rng.randint(0, 6) * rng.choice((1, -1))
        den = rng.randint(1, 10**6) * p ** rng.randint(0, 6)
        out.append(Fraction(num, den))
    return out


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_norm_agrees_with_the_fraction_power_route(p):
    for q in seeded_rationals(20261019 + p, 300):
        got = norm(q, p)
        assert got == old_route_norm(q, p) and type(got) is Fraction


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_gauss_norm_agrees_with_the_fraction_power_route(p):
    rng = random.Random(p)
    coeffs = seeded_rationals(p, 400)
    for _ in range(100):
        f = RationalPolynomial.of(*rng.sample(coeffs, rng.randint(0, 6)))
        want = max((old_route_norm(c, p) for c in f.coefficients), default=Fraction(0))
        assert gauss_norm(f, p) == want


@given(q=rationals, p=prime_st, r=st.integers(1, 12))
def test_norm_of_a_padic_number_is_read_off_its_valuation(q, p, r):
    x = PadicNumber.from_rational(q, p, r)
    assert norm(x, p) == norm(q, p)
    assert norm(x, p) == (0 if x.is_zero else Fraction(1, p) ** int(x.v))


def test_norm_of_a_padic_number_at_another_place():
    x = PadicNumber.from_rational(Fraction(50, 3), 5, 4)
    assert norm(x, 5) == Fraction(1, 25) and norm(x.inv(), 5) == 25
    assert norm(PadicNumber.zero(5, 3), 5) == 0
    with pytest.raises(MixedPrimesError):
        norm(x, 7)
    with pytest.raises(MixedPrimesError):
        norm(PadicNumber.zero(5, 3), 3)
    with pytest.raises(DomainError):
        norm(x, ARCHIMEDEAN)


@given(q=nonzero_rationals, p=prime_st)
def test_nu_matches_brute_force(q, p):
    assert int(nu(q, p)) == brute_valuation(q, p)


@given(a=nonzero_rationals, b=nonzero_rationals, p=prime_st)
def test_valuation_additivity(a, b, p):
    assert nu(a * b, p) == nu(a, p) + nu(b, p)


@given(a=rationals, b=rationals, p=prime_st)
def test_valuation_of_sum_bounded_below(a, b, p):
    assert nu(a + b, p) >= min(nu(a, p), nu(b, p))


@given(a=rationals, b=rationals, p=prime_st)
def test_norm_multiplicative_exactly(a, b, p):
    assert norm(a * b, p) == norm(a, p) * norm(b, p)


@given(a=rationals, b=rationals, p=prime_st)
def test_ultrametric_inequality(a, b, p):
    na, nb = norm(a, p), norm(b, p)
    ns = norm(a + b, p)
    assert ns <= max(na, nb)
    if na != nb:
        # isosceles sharpening: strict inequality of sides forces equality
        assert ns == max(na, nb)


# ---------------------------------------------------------------------------
# PadicNumber construction
# ---------------------------------------------------------------------------


def test_from_integer_216():
    x = PadicNumber.from_integer(216, 2, 8)
    assert int(x.v) == 3
    assert x.unit == (1, 1, 0, 1, 1, 0, 0, 0)

    y = PadicNumber.from_integer(216, 5, 4)
    assert int(y.v) == 0
    assert y.unit == (1, 3, 3, 1)


def test_from_integer_zero():
    z = PadicNumber.from_integer(0, 5, 4)
    assert z.v == INFINITY
    assert z.unit == (0, 0, 0, 0)
    assert z.is_zero


def test_from_rational_one_third():
    x = PadicNumber.from_rational(Fraction(1, 3), 5, 4)
    assert int(x.v) == 0
    # extended-Euclid oracle: 3·417 = 1251 = 2·625 + 1
    assert x.unit_value == 417
    assert x.unit == (2, 3, 1, 3)


def test_from_rational_pure_prime():
    x = PadicNumber.from_rational(Fraction(7), 7, 3)
    assert int(x.v) == 1
    assert x.unit == (1, 0, 0)


def test_from_rational_nine_fourteenths():
    x = PadicNumber.from_rational(Fraction(9, 14), 3, 2)
    assert int(x.v) == 2
    inv14 = pow(14, -1, 9)
    assert x.unit_value == inv14 % 9


@given(k=st.integers(-10**9, 10**9), p=prime_st, r=st.integers(1, 10))
def test_from_rational_agrees_with_from_integer(k, p, r):
    assert PadicNumber.from_rational(Fraction(k), p, r) == PadicNumber.from_integer(
        k, p, r
    )


def test_unit_leading_digit_nonzero():
    for n in range(1, 200):
        x = PadicNumber.from_integer(n, 3, 6)
        assert x.unit[0] != 0


def test_constructor_rejects_bad_unit():
    with pytest.raises(DomainError):
        PadicNumber(5, Valuation.finite(0), 5, 2)  # unit divisible by p, nonzero number
    with pytest.raises(DomainError):
        PadicNumber(5, Valuation.finite(0), 25, 2)  # unit out of range
    with pytest.raises(DomainError):
        PadicNumber(5, Valuation.finite(0), 26, 2)  # out of range, not divisible by p
    with pytest.raises(NotPrimeError):
        PadicNumber(6, Valuation.finite(0), 1, 1)


@pytest.mark.parametrize("unit", [2.0, Fraction(2), "2"])
def test_constructor_rejects_a_unit_that_is_not_an_int(unit):
    with pytest.raises(DomainError, match="unit must be an int"):
        PadicNumber(3, Valuation.finite(1), unit, 2)


@pytest.mark.parametrize("n", [6.0, 0.0, Fraction(6)])
def test_from_integer_rejects_a_non_int(n):
    with pytest.raises(DomainError, match="integer is expected"):
        PadicNumber.from_integer(n, 3, 2)


def test_nu_takes_a_fraction_as_it_is(monkeypatch):
    q = Fraction(63, 550)

    def no_copy(*args, **kwargs):
        raise AssertionError("nu copied a Fraction argument")

    monkeypatch.setattr(Fraction, "__new__", no_copy)
    assert nu(q, 5) == Valuation.finite(-2)
    assert nu(q, 7) == Valuation.finite(1)


# ---------------------------------------------------------------------------
# Arithmetic — brute-force residue oracle
# ---------------------------------------------------------------------------


def assert_digit_view(z):
    # the digit tuple is a view of the stored unit: r digits that decode back to it
    assert _poly_eval(z.unit, z.p) == z.unit_value
    assert len(z.unit) == z.r


def test_add_integers_sanity():
    # 3 + 4 = 7 gains a factor of 7; one tracked digit is spent on the carry
    three = PadicNumber.from_integer(3, 7, 4)
    four = PadicNumber.from_integer(4, 7, 4)
    s = three + four
    assert int(s.v) == 1
    assert s.agrees_with(PadicNumber.from_integer(7, 7, 4))
    assert PadicNumber.from_integer(7, 7, 4).truncate(s.r) == s


def test_mul_inverse_pair():
    x = PadicNumber.from_rational(Fraction(1, 3), 5, 4)
    three = PadicNumber.from_integer(3, 5, 4)
    one = PadicNumber.from_integer(1, 5, 4)
    assert x * three == one


@given(
    m=st.integers(-10**6, 10**6),
    n=st.integers(-10**6, 10**6),
    p=prime_st,
    r=st.integers(1, 8),
)
def test_add_mod_consistency(m, n, p, r):
    x = PadicNumber.from_integer(m, p, r)
    y = PadicNumber.from_integer(n, p, r)
    s = x + y
    # every digit the result claims must match (m+n) mod p^tracked
    assert s.agrees_with(PadicNumber.from_integer(m + n, p, r))
    assert_digit_view(s)


@given(
    m=st.integers(-10**6, 10**6),
    n=st.integers(-10**6, 10**6),
    p=prime_st,
    r=st.integers(1, 8),
)
def test_mul_mod_consistency(m, n, p, r):
    x = PadicNumber.from_integer(m, p, r)
    y = PadicNumber.from_integer(n, p, r)
    prod = x * y
    assert prod.agrees_with(PadicNumber.from_integer(m * n, p, r))
    assert_digit_view(prod)


@given(m=st.integers(-10**6, 10**6), p=prime_st, r=st.integers(1, 8))
def test_additive_inverse(m, p, r):
    x = PadicNumber.from_integer(m, p, r)
    assert (x + (-x)).is_zero
    assert_digit_view(-x)
    assert_digit_view(x + (-x))


@given(q=nonzero_rationals, p=prime_st, r=st.integers(1, 8))
def test_mul_by_inverse_gives_one(q, p, r):
    x = PadicNumber.from_rational(q, p, r)
    prod = x * x.inv()
    assert prod.agrees_with(PadicNumber.from_integer(1, p, prod.r))
    assert_digit_view(x.inv())
    assert_digit_view(prod)


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroInversionError):
        PadicNumber.zero(5, 4).inv()


def test_mixed_primes_rejected():
    x = PadicNumber.from_integer(1, 3, 4)
    y = PadicNumber.from_integer(1, 5, 4)
    with pytest.raises(MixedPrimesError):
        x + y
    with pytest.raises(MixedPrimesError):
        x * y


@given(q=nonzero_rationals, p=prime_st, r=st.integers(1, 8))
def test_valuation_read_off_padic(q, p, r):
    x = PadicNumber.from_rational(q, p, r)
    assert x.v == nu(q, p)


# ---------------------------------------------------------------------------
# Canonical construction: every result is what the public constructor accepts
# ---------------------------------------------------------------------------

def assert_canonical(x):
    # PadicNumber(...) validates the invariant that the results skip checking
    assert x == PadicNumber(x.p, x.v, x.unit_value, x.r)
    assert x.is_zero == x.v.is_infinite


@st.composite
def padic_operands(draw):
    """Two p-adic numbers, the second often cancelling leading digits of the first."""
    p = draw(st.sampled_from(WIDE_PRIMES))
    r1, r2 = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    a = draw(rationals)
    if draw(st.booleans()):
        # b = -a + p**k * c agrees with -a in about k digits
        k = draw(st.integers(0, 70))
        b = -a + p**k * draw(rationals)
    else:
        b = draw(rationals)
    x = PadicNumber.from_rational(a, p, r1)
    y = PadicNumber.from_rational(b, p, r2) if draw(st.booleans()) else (
        PadicNumber.from_integer(b.numerator, p, r2)
    )
    return x, y


# zeros below one digit, built by cancellation: O(5**-2) and O(5**0)
_BELOW_ONE_DIGIT = [
    PadicNumber.from_rational(Fraction(1, 125), 5, 1),
    PadicNumber.from_rational(Fraction(1, 25), 5, 2),
]


@settings(deadline=None)
@given(xy=padic_operands(), cut=st.integers(1, 60))
@example(xy=(_BELOW_ONE_DIGIT[0], _BELOW_ONE_DIGIT[0].neg()), cut=1)
@example(xy=(_BELOW_ONE_DIGIT[1], _BELOW_ONE_DIGIT[1].neg()), cut=1)
def test_every_result_is_canonical(xy, cut):
    x, y = xy
    results = [x, y, x.add(y), x.sub(y), y.sub(x), x.mul(y), x.neg(), x.add(x.neg())]
    results += [z.inv() for z in (x, y, x.add(y)) if not z.is_zero]
    results += [z.truncate(min(cut, z.r)) for z in (x, x.add(y))]
    results += [z.truncate(z.r - cut) for z in (x.add(y), x.add(x.neg())) if z.is_zero]
    results += [PadicNumber.zero(x.p, cut)]
    for z in results:
        assert_canonical(z)
    assert x.add(x.neg()).is_zero


@settings(deadline=None)
@given(
    n=st.integers(-(10**30), 10**30),
    p=st.sampled_from(WIDE_PRIMES),
    k=st.integers(0, 59),
    r=st.integers(1, 60),
)
def test_lifted_roots_are_canonical(n, p, k, r):
    # x - n has the simple root n mod p; its lift is n mod p**(k+1), often divisible by p
    r = min(r, k + 1)
    z = hensel_lift((-n, 1), n % p, p, k).as_padic(r)
    assert_canonical(z)
    assert z.agrees_with(PadicNumber.from_integer(n, p, r))


def test_cancelling_sum_strips_the_factors_of_p():
    # 1/3 - (1/3 - 5**3) = 125: three digits cancel, so three are lost
    a = Fraction(1, 3)
    x, y = PadicNumber.from_rational(a, 5, 10), PadicNumber.from_rational(a - 125, 5, 10)
    s = x.sub(y)
    assert_canonical(s)
    assert (int(s.v), s.unit_value, s.r) == (3, 1, 7)


# ---------------------------------------------------------------------------
# Perturbation oracle: every value a claim admits meets the result's claim
# ---------------------------------------------------------------------------
#
# A result z claims "the value is c mod p**N": c = p**v * unit and N = v + r,
# or c = 0 and N = r for a zero.  Replacing each operand by another value its
# claim admits, c + p**N * t with t p-integral, must give an exact result that
# meets z's claim, checked by brute valuations and by ``agrees_with``.


def claim(z):
    """(c, N): z claims the value is c mod p**N."""
    if z.is_zero:
        return Fraction(0), z.r
    return z.unit_value * Fraction(z.p) ** int(z.v), int(z.v) + z.r


def admitted(z, t):
    """Another value z's claim admits, for a p-integral rational t."""
    c, n = claim(z)
    return c + Fraction(z.p) ** n * t


def meets(q, z):
    """Whether the exact rational q meets z's claim: q == c mod p**N."""
    c, n = claim(z)
    by_valuation = q == c or brute_valuation(q - c, z.p) >= n
    # q to an absolute precision past N, so agrees_with decides mod p**N
    exact = PadicNumber.from_rational(q, z.p, max(1, n + 1 - (brute_valuation(q, z.p) if q else 0)))
    assert z.agrees_with(exact) == by_valuation
    return by_valuation


def is_tight(z, results):
    """Whether two of the exact results, all meeting z's claim, differ at digit N."""
    _, n = claim(z)
    return min(brute_valuation(q - results[0], z.p) for q in results[1:] if q != results[0]) == n


ORACLE_PRIMES = [2, 3, 5]


@st.composite
def p_integral(draw, p):
    num, den = draw(st.integers(-10**4, 10**4)), draw(st.integers(1, 10**4))
    return Fraction(num, den if den % p else den + 1)


@st.composite
def claimed_operands(draw, p):
    """A rational to 1-8 digits, its valuation down to about -10, or a zero or
    near-zero left by cancelling leading digits."""
    q = draw(rationals) * Fraction(p) ** draw(st.integers(-4, 4))
    x = PadicNumber.from_rational(q, p, draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["value", "cancelled", "near"]))
    if kind == "cancelled":
        return x.sub(x)  # O(p**N), N = v + r, which can be below one digit
    if kind == "near":
        near = q + Fraction(p) ** draw(st.integers(-4, 12)) * draw(p_integral(p))
        return x.sub(PadicNumber.from_rational(near, p, draw(st.integers(1, 8))))
    return x


BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@settings(deadline=None, max_examples=300)
@given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES), op=st.sampled_from(sorted(BINARY)))
def test_sums_and_products_hold_for_every_admitted_operand(data, p, op):
    x, y = data.draw(claimed_operands(p)), data.draw(claimed_operands(p))
    z = getattr(x, op)(y)
    exact = BINARY[op]
    s, t = data.draw(p_integral(p)), data.draw(p_integral(p))
    assert meets(exact(admitted(x, s), admitted(y, t)), z)
    # tight: moving an operand to its first unclaimed digit moves the result to z's
    results = [exact(admitted(x, i), admitted(y, j)) for i in (0, 1) for j in (0, 1)]
    assert all(meets(q, z) for q in results)
    assert is_tight(z, results)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES))
def test_negation_inversion_and_truncation_hold_for_every_admitted_operand(data, p):
    x, t = data.draw(claimed_operands(p)), data.draw(p_integral(p))
    q = admitted(x, t)
    assert meets(-q, x.neg())
    assert is_tight(x.neg(), [-admitted(x, 0), -admitted(x, 1)])
    cut = data.draw(st.integers(x.r - 6 if x.is_zero else 1, x.r))
    assert meets(q, x.truncate(cut))
    if not x.is_zero:  # c + p**N * t is never 0 when v(c) < N
        assert meets(1 / q, x.inv())
        assert is_tight(x.inv(), [1 / admitted(x, 0), 1 / admitted(x, 1)])


@settings(deadline=None)
@given(q=rationals, p=st.sampled_from(ORACLE_PRIMES), r=st.integers(1, 12))
def test_from_rational_and_parsing_meet_their_exact_input(q, p, r):
    assert meets(q, PadicNumber.from_rational(q, p, r))
    n = abs(q.numerator)
    text = to_expansion_string(PadicNumber.from_integer(n, p, r + 12))
    assert meets(Fraction(n), parse_expansion_string(text, p, r))


@settings(deadline=None)
@given(
    n=st.integers(-(10**12), 10**12),
    c=st.integers(1, 50),
    p=st.sampled_from([3, 7, 11]),
    k=st.integers(0, 10),
    data=st.data(),
)
def test_lifted_and_square_roots_meet_their_claims(n, c, p, k, data):
    # (x - n)(x**2 + p*c*x + 1) has the simple root n, as -1 is no square mod p = 3 mod 4;
    # every value the lifted claim admits is a root of f to that claim's precision
    f = (-n, 1 - p * c * n, p * c - n, 1)
    r = data.draw(st.integers(1, k + 1))
    z = hensel_lift(f, n % p, p, k).as_padic(r)
    assert meets(Fraction(n), z)
    w = admitted(z, data.draw(p_integral(p)))
    fw = sum(a * w**i for i, a in enumerate(f))
    assert fw == 0 or brute_valuation(fw, p) >= r
    # a square unit: each root to k + 1 digits meets the root 5 digits deeper
    a = n * n + p * c if n % p else 1 + p * c
    for z, deep in zip(sqrt_padic(a, p, k + 1), sqrt_padic(a, p, k + 6)):
        assert meets(Fraction(deep.unit_value), z)
        w = admitted(z, data.draw(p_integral(p)))
        assert w * w == a or brute_valuation(w * w - a, p) >= k + 1


def test_a_sum_builds_no_power_of_p_past_its_precision():
    # a term whose valuation lies past the sum's precision is 0 mod p**(N - e):
    # 5**(10**12) would not fit in memory
    far, one = PadicNumber(5, Valuation.finite(10**12), 1, 1), PadicNumber.from_integer(1, 5, 3)
    assert far + one == one == one - far
    assert (far - far) + one == one


def test_a_zero_plus_a_value_keeps_only_what_the_zero_knows():
    # (1 - 1) + 5**5 * 7 at three digits: only "0 mod 5**3" is known, as
    # 1 + 5**3 is also 1 to three digits and (1 + 5**3) - 1 + 5**5 * 7 has valuation 3
    one = PadicNumber.from_integer(1, 5, 3)
    z = (one - one) + PadicNumber.from_integer(5**5 * 7, 5, 3)
    assert meets(Fraction(1 + 5**3 - 1 + 5**5 * 7), z)
    assert z == PadicNumber.zero(5, 3)


def test_a_zero_times_a_negative_valuation_keeps_only_what_is_known():
    # (1 - 1) * (1/25): 5**3 * (1/25) = 5, so only "0 mod 5" is known
    one = PadicNumber.from_integer(1, 5, 3)
    z = (one - one) * PadicNumber.from_rational(Fraction(1, 25), 5, 3)
    assert meets(Fraction(5**3, 25), z)
    assert z == PadicNumber.zero(5, 1)


@pytest.mark.parametrize(
    "x, n",
    [
        # (1/5 + 25) - 1/5 = 25: only "0 mod 5**2" is known
        (PadicNumber.from_rational(Fraction(1, 5), 5, 3), 2),
        # 5 is known mod 5**4, and so is 5 - 5
        (PadicNumber.from_integer(5, 5, 3), 4),
    ],
    ids=["one fifth", "five"],
)
def test_a_cancelled_zero_keeps_the_absolute_precision(x, n):
    z = x - x
    assert meets(Fraction(5) ** n, z) and not meets(Fraction(5) ** n, PadicNumber.zero(5, n + 1))
    assert z == PadicNumber.zero(5, n)


# ---------------------------------------------------------------------------
# Expansion strings
# ---------------------------------------------------------------------------


def test_expansion_216_all_three_primes():
    assert to_expansion_string(PadicNumber.from_integer(216, 2, 8)) == "0,0011011"
    assert to_expansion_string(PadicNumber.from_integer(216, 3, 8)) == "0,0022"
    assert to_expansion_string(PadicNumber.from_integer(216, 5, 8)) == "1,331"


def test_expansion_zero():
    assert to_expansion_string(PadicNumber.zero(7, 4)) == "0,"


def test_expansion_negative_valuation_unprintable():
    x = PadicNumber.from_rational(Fraction(1, 5), 5, 4)
    with pytest.raises(ExpansionFormatError):
        to_expansion_string(x)


def test_expansion_large_prime_uses_separators():
    x = PadicNumber.from_integer(24, 13, 3)
    s = to_expansion_string(x)
    assert "'" in s or s.split(",")[0] == "11"


def test_parse_rejects_digit_overflow():
    with pytest.raises(ExpansionParseError):
        parse_expansion_string("0,05", 5, 4)


def test_parse_rejects_garbage():
    with pytest.raises(ExpansionParseError):
        parse_expansion_string("no commas here", 5, 4)


@given(n=st.integers(0, 10**9), p=prime_st, r=st.integers(1, 12))
def test_expansion_roundtrip(n, p, r):
    x = PadicNumber.from_integer(n, p, r)
    s = to_expansion_string(x)
    back = parse_expansion_string(s, p, r)
    assert back.agrees_with(x)


@given(n=st.integers(0, 10**6), p=st.sampled_from([13, 17, 101]), r=st.integers(1, 8))
def test_expansion_roundtrip_large_primes(n, p, r):
    x = PadicNumber.from_integer(n, p, r)
    assert parse_expansion_string(to_expansion_string(x), p, r).agrees_with(x)


# ---------------------------------------------------------------------------
# Gauss norms and the seminorm axiom report
# ---------------------------------------------------------------------------

poly_st = st.builds(
    lambda cs: RationalPolynomial.of(*cs),
    st.lists(
        st.fractions(
            min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
        ),
        min_size=0,
        max_size=5,
    ),
)


def test_gauss_norm_frozen_values():
    assert gauss_norm(RationalPolynomial.of(1), 3) == 1
    assert gauss_norm(RationalPolynomial.of(3, 0, 5), 5) == 1  # max(1/5·? ...) — 5x²+3
    assert gauss_norm(RationalPolynomial.of(), 7) == 0
    assert gauss_norm(RationalPolynomial.of(Fraction(1, 9), 3), 3) == 9


@given(f=poly_st, g=poly_st, p=prime_st)
def test_gauss_norm_multiplicative(f, g, p):
    assert gauss_norm(f * g, p) == gauss_norm(f, p) * gauss_norm(g, p)


@given(f=poly_st, g=poly_st, p=prime_st)
def test_gauss_norm_ultrametric(f, g, p):
    assert gauss_norm(f + g, p) <= max(gauss_norm(f, p), gauss_norm(g, p))


@settings(deadline=None)
@given(seed=st.integers(0, 2**16))
def test_seminorm_report_passes_for_gauss_norm(seed):
    import random

    rng = random.Random(seed)
    samples = [
        RationalPolynomial.of(
            *[
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 5))
            ]
        )
        for _ in range(8)
    ]
    report = check_seminorm_axioms(
        lambda f: gauss_norm(f, 3),
        samples,
        zero=RationalPolynomial.of(),
        one=RationalPolynomial.of(1),
    )
    assert report.all_passed, str(report)


def test_seminorm_report_catches_constant_one():
    # |0| = 1 breaks the zero axiom; witness must name the zero element
    report = check_seminorm_axioms(
        lambda f: Fraction(1),
        [RationalPolynomial.of(1, 1)],
        zero=RationalPolynomial.of(),
        one=RationalPolynomial.of(1),
    )
    assert not report.all_passed
    failed = {a.axiom for a in report.results if not a.passed}
    assert "zero_norm" in failed


def test_seminorm_report_catches_non_multiplicative():
    # degree+1 as a "norm": (deg f)(deg g) ≠ deg fg as sizes
    def fake(f):
        return Fraction(f.degree + 2) if f.degree >= 0 else Fraction(0)

    samples = [RationalPolynomial.of(0, 1), RationalPolynomial.of(1, 1)]
    report = check_seminorm_axioms(
        fake, samples, zero=RationalPolynomial.of(), one=RationalPolynomial.of(1)
    )
    failed = {a.axiom for a in report.results if not a.passed}
    assert "multiplicative" in failed or "unit_norm" in failed


def test_seminorm_report_on_plain_rationals():
    samples = [Fraction(3, 4), Fraction(-2), Fraction(8), Fraction(1, 6), Fraction(0)]
    report = check_seminorm_axioms(
        lambda q: norm(q, 2), samples, zero=Fraction(0), one=Fraction(1)
    )
    assert report.all_passed


def test_seminorm_check_takes_one_norm_per_sample():
    # |0|, |1|, each |f| once, then |fg| and |f + g| for every ordered pair
    samples = [RationalPolynomial.of(i, Fraction(1, i + 1), 3 * i) for i in range(6)]
    calls = []

    def counted(f):
        calls.append(f)
        return gauss_norm(f, 3)

    report = check_seminorm_axioms(
        counted, samples, zero=RationalPolynomial.of(), one=RationalPolynomial.of(1)
    )
    assert report.all_passed
    n = len(samples)
    assert len(calls) == 2 * n * n + n + 2


def reference_seminorm_results(norm_fn, samples, zero, one):
    """The axiom check as plain double loops over ordered pairs, every norm recomputed."""

    def first_failure(fails):
        for f in samples:
            for g in samples:
                if fails(f, g):
                    return (f, g)
        return None

    mult = first_failure(lambda f, g: norm_fn(f * g) != norm_fn(f) * norm_fn(g))
    tri = first_failure(lambda f, g: norm_fn(f + g) > norm_fn(f) + norm_fn(g))
    return [
        ("zero_norm", norm_fn(zero) == 0, None if norm_fn(zero) == 0 else (zero,)),
        ("unit_norm", norm_fn(one) == 1, None if norm_fn(one) == 1 else (one,)),
        ("multiplicative", mult is None, mult),
        ("triangle", tri is None, tri),
    ]


@pytest.mark.parametrize(
    "norm_fn",
    [
        lambda q: min(abs(q), 3),  # not multiplicative: |2 * 2| = 3
        lambda q: q * q,  # no triangle bound: |1 + 1| = 4
        lambda q: abs(q) + 1,  # breaks |0| = 0, |1| = 1 and both pair axioms
        lambda q: norm(q, 2),
    ],
)
def test_seminorm_witnesses_match_the_double_loop(norm_fn):
    samples = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), Fraction(2),
               Fraction(-5)]
    report = check_seminorm_axioms(norm_fn, samples, zero=Fraction(0), one=Fraction(1))
    got = [(r.axiom, r.passed, r.witness) for r in report.results]
    assert got == reference_seminorm_results(norm_fn, samples, Fraction(0), Fraction(1))


def test_axiom_result_is_plain_record():
    r = AxiomResult(axiom="triangle", passed=True, witness=None)
    assert r.passed and r.witness is None


# -- the shared primality test -----------------------------------------------


def test_is_prime_agrees_with_sieve_below_1e5():
    limit = 10**5
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if flags[n]
    ]


# the least strong pseudoprimes to the first 1, 2, ..., 9 prime bases (one
# number for 7 and 8; the last also fools 2..31): each tier bound among them
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def twelve_base_is_prime(n: int) -> bool:
    """The ungraded test: trial division, then every base 2..37."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    return all(strong_probable_prime(n, a) for a in _MR_BASES)


def test_each_tier_bound_passes_the_bases_used_below_it():
    # so a tier that also served n == bound would accept a composite
    for bound, k in _MR_TIERS:
        assert bound in STRONG_PSEUDOPRIMES
        assert all(strong_probable_prime(bound, a) for a in _MR_BASES[:k])
        assert not is_prime(bound)


def test_graded_bases_agree_with_the_twelve_base_loop():
    rng = random.Random(20261019)
    sample = [rng.randrange(2, 10 ** rng.randint(3, 24)) | 1 for _ in range(3000)]
    sample += [b + d for b, _ in _MR_TIERS for d in range(-40, 41)]
    sample += [4294967291, 2**61 - 1, 2**89 - 1, 999_999_937]
    assert [is_prime(n) for n in sample] == [twelve_base_is_prime(n) for n in sample]
    assert sum(map(is_prime, sample)) > 100


@pytest.mark.parametrize("n", [4294967291, 2**61 - 1, 999_999_937])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


# the smallest prime above 2**32 passes the gate
def test_require_prime_admits_the_least_prime_past_2_32():
    assert require_prime(4294967311) == 4294967311


# the composite Fermat number F5 fails the primality test, not the gate
def test_require_prime_refuses_f5_as_composite():
    with pytest.raises(NotPrimeError):
        require_prime(2**32 + 1)


HUGE = 10**5000  # past CPython's 4300-digit limit on str(int)


# the largest prime below the gate passes; the gate is the least strong
# pseudoprime to all twelve bases, which is_prime itself accepts
def test_require_prime_gate_refuses_at_the_proof_bound():
    assert PROVEN_PRIME_BOUND == 318665857834031151167461 == 399165290221 * 798330580441
    assert require_prime(318665857834031151167441) == 318665857834031151167441
    assert is_prime(PROVEN_PRIME_BOUND)
    for n in (PROVEN_PRIME_BOUND, PROVEN_PRIME_BOUND + 2, 2**127 - 1, HUGE):
        with pytest.raises(ResourceLimitError, match="primality proof bound"):
            require_prime(n)


def test_cli_primality_gate_exits_3():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["valuation", "3", "--p", str(PROVEN_PRIME_BOUND)])
    assert code == 3
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: require_prime(-HUGE), NotPrimeError),
        (lambda: _check_printable(HUGE, 2), ResourceLimitError),
        (lambda: require_prime([2]), NotPrimeError),
        (lambda: nu(3, [2]), NotPrimeError),
        (lambda: Place.finite([2]), NotPrimeError),
    ],
    ids=["huge negative", "huge printed", "list", "nu of a list", "place of a list"],
)
def test_a_prime_argument_is_refused_cleanly(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 200


@pytest.mark.parametrize(
    "call, kind",
    [(lambda: require_prime([HUGE]), "list"), (lambda: is_prime((HUGE,)), "tuple")],
    ids=["require_prime", "is_prime"],
)
def test_a_non_int_prime_is_named_by_its_type_not_its_repr(call, kind):
    # the repr of a container holding an int past 4300 digits would raise ValueError
    with pytest.raises(NotPrimeError, match=f"^prime expected, got {kind}$"):
        call()


@given(n=st.integers(-(10**60), 10**60) | st.sampled_from([10**4300 - 1, -(10**4300 - 1)]))
def test_quoting_a_printable_int_quotes_its_decimal_string(n):
    assert quoted(n) == quoted(str(n))


def test_quoting_an_unprintable_int_gives_its_bit_length():
    assert quoted(HUGE) == "'<int of 16610 bits>'" and quoted(-HUGE) == "'-<int of 16610 bits>'"
    assert quoted(10**4300) == f"'<int of {(10**4300).bit_length()} bits>'"


# -- the shared digit codec and polynomial kernels -----------------------------


@given(
    n=st.integers(-(10**30), 10**30),
    p=st.sampled_from([2, 3, 5, 7, 101]),
    r=st.integers(1, 40),
)
def test_digit_codec_roundtrip(n, p, r):
    digits = _digits(n, p, r)
    assert len(digits) == r and all(0 <= d < p for d in digits)
    assert _poly_eval(digits, p) == n % p**r


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((1, -1), "-x + 1"),
        ((Fraction(-1, 2), 0, -1, 3), "3x^3 - x^2 - 1/2"),
        ((0, 1, Fraction(2, 3), -1), "-x^3 + 2/3x^2 + x"),
        ((-1, 0, -1), "-x^2 - 1"),
        ((), "0"),
    ],
)
def test_rational_polynomial_str(coeffs, text):
    assert str(RationalPolynomial.of(*coeffs)) == text


def test_fq_polynomial_str():
    assert str(FqPolynomial.of(5, 1, 2, 0, 3)) == "3x^3+2x+1"


# -- RationalPolynomial: integers over one denominator -------------------------
#
# The reference is the plain representation: a tuple of Fractions, index i the
# coefficient of x**i, trailing zeros trimmed.


def ref_trim(cs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    a, b = a + (Fraction(0),) * (n - len(a)), b + (Fraction(0),) * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_mul(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, x) -> Fraction:
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


wide_coeff_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6)),
)
wide_coeffs_st = st.lists(wide_coeff_st, max_size=6).map(tuple)


@settings(deadline=None)
@given(a=wide_coeffs_st, b=wide_coeffs_st, x=wide_coeff_st)
def test_rational_polynomial_matches_a_fraction_reference(a, b, x):
    f, g = RationalPolynomial.of(*a), RationalPolynomial.of(*b)
    ra, rb = ref_trim(a), ref_trim(b)
    assert f.coefficients == ra and g.coefficients == rb
    assert all(type(c) is Fraction for c in f.coefficients)
    assert f.degree == len(ra) - 1 and f.is_zero == (not ra)
    assert (f + g).coefficients == ref_add(ra, rb)
    assert (f - g).coefficients == ref_add(ra, tuple(-c for c in rb))
    assert (-f).coefficients == tuple(-c for c in ra)
    assert (f * g).coefficients == ref_mul(ra, rb)
    assert f.derivative().coefficients == ref_trim(i * c for i, c in enumerate(ra))[1:]
    assert f(x) == ref_eval(ra, x) and type(f(x)) is Fraction
    assert f(3) == ref_eval(ra, 3)
    assert str(f) == str(RationalPolynomial.of(*ra))
    # canonical form: positive denominator sharing no factor with every numerator
    for h in (f, g, f + g, f - g, f * g, f.derivative()):
        assert h.den >= 1 and math.gcd(h.den, *h.nums) == 1
        assert not h.nums or h.nums[-1] != 0
        assert RationalPolynomial.of(*h.coefficients) == h


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((Fraction(1, 10**6), -1, Fraction(-7, 3)), "-7/3x^2 - x + 1/1000000"),
        ((0, Fraction(-5, 5)), "-x"),
        ((Fraction(4, 2), 0, 0), "2"),
    ],
)
def test_rational_polynomial_str_over_one_denominator(coeffs, text):
    assert str(RationalPolynomial.of(*coeffs)) == text


def gauss_norm_by_coefficients(f: RationalPolynomial, p: int) -> Fraction:
    """The Gauss norm as the maximum of the coefficients' norms."""
    return max((norm(c, p) for c in f.coefficients), default=Fraction(0))


@given(coeffs=wide_coeffs_st, p=st.sampled_from([2, 3, 5, 7, 101, 4294967291]))
def test_gauss_norm_matches_the_coefficient_route(coeffs, p):
    f = RationalPolynomial.of(*coeffs)
    got = gauss_norm(f, p)
    assert got == gauss_norm_by_coefficients(f, p) and type(got) is Fraction


def test_gauss_norm_reads_both_sides_of_the_denominator():
    # 5x/9 + 3/4 over 36: v_3(36) = 2, v_3 of the numerators (27, 20) is 0
    assert gauss_norm(RationalPolynomial.of(Fraction(3, 4), Fraction(5, 9)), 3) == 9
    # 18x + 12 over 1: v_2 = min(2, 1) = 1
    assert gauss_norm(RationalPolynomial.of(12, 18), 2) == Fraction(1, 2)
    # 25/3 x^2 over 3: v_5 = 2 in the numerator
    assert gauss_norm(RationalPolynomial.of(0, 0, Fraction(25, 3)), 5) == Fraction(1, 25)


def test_gauss_norm_checks_the_prime_once(monkeypatch):
    import padiclab.padic_core as core

    calls = []
    monkeypatch.setattr(core, "require_prime", lambda p: calls.append(p) or p)
    f = RationalPolynomial.of(3, Fraction(1, 2), 0, Fraction(-7, 9), 5)
    assert gauss_norm(f, 3) == 9
    assert calls == [3]
    monkeypatch.undo()
    for g in (f, RationalPolynomial.of()):
        with pytest.raises(NotPrimeError):
            gauss_norm(g, 4)


def test_the_public_constructor_checks_the_prime_once(monkeypatch):
    import padiclab.padic_core as core

    calls = []
    monkeypatch.setattr(core, "require_prime", lambda p: calls.append(p) or p)
    PadicNumber(5, Valuation(2), 7, 3)
    PadicNumber(5, INFINITY, 0, -4)
    assert calls == [5, 5]


def test_one_polynomial_over_two_denominators_is_equal_and_hashes_alike():
    # x/2 + 1/3 reached over 6 directly, and over 36 before the reduction
    f = RationalPolynomial.of(Fraction(1, 3), Fraction(1, 2))
    g = RationalPolynomial.of(Fraction(1, 6)) * RationalPolynomial.of(2, 3)
    h = RationalPolynomial.of(Fraction(5, 12), Fraction(1, 4)) + RationalPolynomial.of(
        Fraction(-1, 12), Fraction(1, 4)
    )
    assert (f.den, f.nums) == (6, (2, 3))
    assert f == g == h and hash(f) == hash(g) == hash(h)
    assert len({f, g, h}) == 1
    assert RationalPolynomial.of(Fraction(1, 2)) - RationalPolynomial.of(
        Fraction(1, 2)
    ) == RationalPolynomial.of()


@pytest.mark.parametrize(
    "den, nums",
    [
        (2, (2, 4)),  # common factor 2
        (0, (1,)),  # no denominator
        (-1, (1,)),  # negative denominator
        (1, (1, 0)),  # trailing zero
        (3, ()),  # zero over a denominator other than 1
    ],
)
def test_non_canonical_polynomial_is_rejected(den, nums):
    with pytest.raises(DomainError):
        RationalPolynomial(den, nums)


def test_star_import_exports_the_public_names_and_no_submodule():
    import padiclab

    namespace: dict = {}
    exec("from padiclab import *", namespace)
    exported = {name for name in namespace if name != "__builtins__"}
    assert exported == set(padiclab.__all__)
    assert {"PadicNumber", "encode", "DomainError", "ARCHIMEDEAN"} <= exported
    assert not {"errors", "hensel", "padic_core", "valuations_product"} & exported
    assert not [name for name in exported if type(namespace[name]) is type(padiclab)]
