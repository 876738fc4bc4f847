"""Places of Q and F_p(x), local norms, and the exact product formula.

The local-norm route here goes through integer/polynomial factorization; the
core module computes the same norms straight from valuations.  Keeping both
and comparing them place-by-place is deliberate.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    ARCHIMEDEAN,
    DomainError,
    FqPolynomial,
    Place,
    RationalFunction,
    PrimeFactorization,
    ResourceLimitError,
    enumerate_irreducibles,
    factor,
    factor_poly,
    local_norms,
    local_norms_ff,
    norm,
    poly_valuation,
    product_formula_check,
    product_formula_check_ff,
)
from padiclab import valuations_product
from padiclab.valuations_product import _IRREDUCIBLE_ENUM_LIMIT, _sieve_work


# ---------------------------------------------------------------------------
# Integer factorization
# ---------------------------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Independent Miller–Rabin for validating factor output."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_factor_frozen_values():
    assert factor(216).as_dict() == {2: 3, 3: 3}
    assert factor(216).sign == 1
    f = factor(-1)
    assert f.sign == -1 and f.as_dict() == {}
    assert factor(550).as_dict() == {2: 1, 5: 2, 11: 1}


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor(0)


def test_factor_limit_enforced():
    with pytest.raises(ResourceLimitError):
        factor(10**18 + 9)


def test_factor_large_semiprime():
    # both factors beyond any small-prime table
    p, q = 1_000_003, 999_999_937
    f = factor(p * q)
    assert f.as_dict() == {p: 1, q: 1}


def test_factor_matches_sympy_factorint():
    # trial division stops at 37, so primes in (37, 10**4) reach Brent's rho
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260)
    sample = [9973**2, 10007 * 9973, 41 * 43, 41**3 * 43**2 * 2**5, 37**2 * 41, 1681, 1]
    sample += [rng.randrange(1, 10**18) for _ in range(150)]
    sample += [rng.choice([-1, 1]) * rng.randrange(1, 10**6) for _ in range(150)]
    sample += [
        rng.randrange(38, 10**4) * rng.randrange(38, 10**4) * rng.randrange(1, 10**4)
        for _ in range(150)
    ]
    for n in sample:
        f = factor(n)
        assert f.as_dict() == sympy.factorint(abs(n)), n
        assert f.sign == (1 if n > 0 else -1)


@given(n=st.integers(-10**12, 10**12).filter(lambda n: n != 0))
def test_factor_reconstructs_and_is_prime(n):
    f = factor(n)
    value = f.sign
    for p, e in f.as_dict().items():
        assert is_probable_prime(p)
        assert e >= 1
        value *= p**e
    assert value == n
    assert f.value == n


def test_prime_factorization_validates():
    with pytest.raises(DomainError):
        PrimeFactorization(sign=1, factors=((4, 1),))
    with pytest.raises(DomainError):
        PrimeFactorization(sign=2, factors=())


# the least strong pseudoprime to the twelve Miller-Rabin bases, 399165290221 *
# 798330580441: is_prime accepts it, so both validate through require_prime's gate
PSEUDOPRIME_12 = 318665857834031151167461


def test_places_and_factorizations_refuse_the_twelve_base_pseudoprime():
    with pytest.raises(ResourceLimitError):
        Place.finite(PSEUDOPRIME_12)
    with pytest.raises(ResourceLimitError):
        PrimeFactorization(sign=1, factors=((PSEUDOPRIME_12, 1),))
    below = 318665857834031151167441  # the largest prime below it
    assert Place.finite(below).prime == below
    assert PrimeFactorization(1, ((below, 1),)).value == below


# ---------------------------------------------------------------------------
# Places of Q and the product formula
# ---------------------------------------------------------------------------


def test_local_norms_frozen_tables():
    table = local_norms(Fraction(2))
    assert [(str(pl), n) for pl, n in table] == [
        ("2", Fraction(1, 2)),
        ("infinity", Fraction(2)),
    ]

    table = local_norms(Fraction(63, 550))
    assert [(str(pl), n) for pl, n in table] == [
        ("2", Fraction(2)),
        ("3", Fraction(1, 9)),
        ("5", Fraction(25)),
        ("7", Fraction(1, 7)),
        ("11", Fraction(11)),
        ("infinity", Fraction(63, 550)),
    ]

    assert [(str(pl), n) for pl, n in local_norms(Fraction(1))] == [
        ("infinity", Fraction(1))
    ]


def test_local_norms_zero_rejected():
    with pytest.raises(DomainError):
        local_norms(Fraction(0))
    with pytest.raises(DomainError):
        product_formula_check(Fraction(0))


def test_product_formula_examples():
    assert product_formula_check(Fraction(2)) == 1
    assert product_formula_check(Fraction(63, 550)) == 1
    assert product_formula_check(Fraction(-216, 5)) == 1


@given(
    num=st.integers(-(10**12), 10**12).filter(lambda n: n != 0),
    den=st.integers(1, 10**12),
)
def test_product_formula_random(num, den):
    assert product_formula_check(Fraction(num, den)) == 1


@given(
    num=st.integers(-(10**9), 10**9).filter(lambda n: n != 0),
    den=st.integers(1, 10**9),
)
def test_local_norms_agree_with_core_norm(num, den):
    # dual route: factorization-derived norms vs direct valuation norms
    a = Fraction(num, den)
    for place, value in local_norms(a):
        if place.kind == "archimedean":
            assert value == norm(a, ARCHIMEDEAN)
        else:
            assert value == norm(a, place.prime)
            assert value != 1  # only non-trivial places are listed


def valuation_by_division(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_local_norms_agree_with_the_fraction_power_route():
    # (1/p) ** v_p(a) as a Fraction power, signed rationals, with norms above and below 1
    # (the factoring limit 10**18 caps the power of the largest prime at 1)
    rng = random.Random(20261019)
    for _ in range(500):
        (p, i), (q, j) = rng.sample([(2, 5), (3, 5), (5, 5), (7, 5), (101, 5), (4294967291, 1)], 2)
        num = rng.randint(1, 10**6) * p ** rng.randint(0, i) * rng.choice((1, -1))
        a = Fraction(num, rng.randint(1, 10**6) * q ** rng.randint(0, j))
        for place, value in local_norms(a):
            if place.kind == "finite":
                p = place.prime
                v = valuation_by_division(a.numerator, p) - valuation_by_division(a.denominator, p)
                assert value == Fraction(1, p) ** v and type(value) is Fraction


@given(
    num=st.integers(-(10**9), 10**9).filter(lambda n: n != 0),
    den=st.integers(1, 10**9),
)
def test_local_norms_cover_exactly_the_support(num, den):
    a = Fraction(num, den)
    finite = {pl.prime for pl, _ in local_norms(a) if pl.kind == "finite"}
    support = set(factor(a.numerator).as_dict()) | set(factor(a.denominator).as_dict())
    assert finite == support


# ---------------------------------------------------------------------------
# F_p[x] arithmetic
# ---------------------------------------------------------------------------


def fq_poly(p: int, max_deg: int = 6):
    return st.builds(
        lambda cs: FqPolynomial.of(p, *cs),
        st.lists(st.integers(0, p - 1), min_size=0, max_size=max_deg + 1),
    )


def test_fq_basic_arithmetic():
    x = FqPolynomial.x(2)
    one = FqPolynomial.one(2)
    assert str(x * x + x) == "x^2+x"
    assert (x + x).degree == -1  # char 2
    assert (x * x + one)(1) == 0  # x^2+1 has the root 1 over F_2


def test_fq_divmod_property():
    f = FqPolynomial.of(5, 1, 2, 0, 3)
    g = FqPolynomial.of(5, 2, 1)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(f=fq_poly(3), g=fq_poly(3).filter(lambda g: g.degree >= 0))
def test_fq_divmod_random(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(f=fq_poly(2), g=fq_poly(2))
def test_fq_gcd_divides_both(f, g):
    if f.degree < 0 and g.degree < 0:
        return
    d = f.gcd(g)
    assert (f % d).degree < 0
    assert (g % d).degree < 0


def test_coprime_rational_function_divides_on_coefficients_only(monkeypatch):
    # Euclid's remainders come from _poly_divmod; no quotient polynomial is built
    calls = []
    divmod_ = FqPolynomial.__divmod__
    monkeypatch.setattr(FqPolynomial, "__divmod__", lambda a, b: calls.append(1) or divmod_(a, b))
    num, den = FqPolynomial.of(3, 1, 0, 2, 1), FqPolynomial.of(3, 2, 1, 1)
    assert num.gcd(den) == FqPolynomial.one(3)
    h = RationalFunction.of(num, den)
    assert (h.num, h.den) == (num, den)
    assert calls == []


def test_rational_function_of_runs_euclid_once(monkeypatch):
    # of() reduces the pair itself; only a direct RationalFunction(num, den) re-checks it
    calls = []
    gcd = FqPolynomial.gcd
    monkeypatch.setattr(FqPolynomial, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    num, den = FqPolynomial.of(3, 1, 0, 2, 1), FqPolynomial.of(3, 2, 1, 1)
    h = RationalFunction.of(num, den)
    assert (h.num, h.den) == (num, den)
    assert calls == [1]
    x = FqPolynomial.of(3, 0, 1)
    with pytest.raises(DomainError, match="coprime"):
        RationalFunction(x, x)
    assert RationalFunction.of(x, x) == RationalFunction(FqPolynomial.one(3), FqPolynomial.one(3))


# ---------------------------------------------------------------------------
# Irreducible enumeration — necklace-count oracle
# ---------------------------------------------------------------------------


def mobius(n: int) -> int:
    if n == 1:
        return 1
    m, count = n, 0
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
    if m > 1:
        count += 1
    return (-1) ** count


def necklace_count(p: int, d: int) -> int:
    """(1/d) sum over e|d of mu(e) p^(d/e) — monic irreducibles of degree d."""
    total = sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def test_enumerate_irreducibles_frozen():
    polys = enumerate_irreducibles(2, 2)
    assert [str(f) for f in polys] == ["x", "x+1", "x^2+x+1"]
    assert [str(f) for f in enumerate_irreducibles(2, 1)] == ["x", "x+1"]
    assert [str(f) for f in enumerate_irreducibles(3, 1)] == ["x", "x+1", "x+2"]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_irreducible_counts_match_necklace_formula(p, d):
    if p**d > 10**6:
        pytest.skip("sieve guard")
    polys = enumerate_irreducibles(p, d)
    by_degree: dict[int, int] = {}
    for f in polys:
        by_degree[f.degree] = by_degree.get(f.degree, 0) + 1
    for deg in range(1, d + 1):
        assert by_degree.get(deg, 0) == necklace_count(p, deg)


def test_enumerate_irreducibles_guards():
    with pytest.raises(ResourceLimitError):
        enumerate_irreducibles(2, 17)
    with pytest.raises(ResourceLimitError):
        enumerate_irreducibles(101, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 41])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sieve_work_counts_candidates_and_trial_divisions(p, d):
    # each degree-k candidate meets the irreducibles of degree <= k // 2, and
    # factoring and the place check try each result at most once more apiece
    irreducibles = [necklace_count(p, k) for k in range(1, d + 1)]
    want = sum(p**k * (1 + sum(irreducibles[: k // 2])) for k in range(1, d + 1))
    want += 2 * sum(irreducibles)
    if want <= _IRREDUCIBLE_ENUM_LIMIT:
        assert _sieve_work(p, d) == want
    else:
        assert _sieve_work(p, d) > _IRREDUCIBLE_ENUM_LIMIT


@pytest.mark.parametrize(
    "p, d",
    # the test-04 and library distributions (p <= 5, degree <= 8) and the
    # heaviest admitted sieves
    [(2, 4), (3, 4), (5, 4), (2, 8), (2, 11), (3, 7), (5, 5), (7, 4), (41, 2), (26647, 1)],
)
def test_sieve_work_admits(p, d):
    assert _sieve_work(p, d) <= _IRREDUCIBLE_ENUM_LIMIT


@pytest.mark.parametrize(
    "p, d",
    # each of the first five took 4.8-30 s in process; 997 would take hours
    [(2, 14), (2, 16), (5, 6), (11, 4), (31, 3), (2, 12), (43, 2), (53, 2), (101, 2),
     (997, 2), (26669, 1), (4294967291, 1), (2, 10**6)],
)
def test_sieve_work_refuses_before_sieving(p, d):
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="trial divisions"):
        enumerate_irreducibles(p, d)
    assert time.perf_counter() - t0 < 0.1


def test_slowest_admitted_sieves_stay_desk_scale():
    for p, d in ((41, 2), (7, 4)):
        enumerate_irreducibles.cache_clear()
        t0 = time.perf_counter()
        polys = enumerate_irreducibles.__wrapped__(p, d)  # bypass the cache
        assert time.perf_counter() - t0 < 3.0
        assert len(polys) == sum(necklace_count(p, k) for k in range(1, d + 1))


def count_calls(monkeypatch, owner, name):
    """A list that grows by one item per call of owner.name, recording its arguments."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def fq_built(calls) -> int:
    """How many of the recorded ``_trusted`` calls built an FqPolynomial."""
    return sum(args[0] is FqPolynomial for args in calls)


def test_sieve_builds_polynomials_only_for_its_results(monkeypatch):
    enumerate_irreducibles.cache_clear()
    built = count_calls(monkeypatch, valuations_product, "_trusted")
    polys = enumerate_irreducibles(41, 2)
    assert len(polys) == 41 + necklace_count(41, 2)
    assert fq_built(built) == len(polys)  # the candidates and the divisions stay tuples


def test_sieve_extends_the_cached_lower_degrees(monkeypatch):
    enumerate_irreducibles.cache_clear()
    lower = enumerate_irreducibles(2, 10)
    built = count_calls(monkeypatch, valuations_product, "_trusted")
    candidates = count_calls(monkeypatch, valuations_product, "_digits")
    polys = enumerate_irreducibles(2, 11)
    assert polys[: len(lower)] == lower
    assert [args[2] for args in candidates] == [11] * 2**11
    assert fq_built(built) == necklace_count(2, 11) == len(polys) - len(lower)


@given(f=fq_poly(3, 5).filter(lambda f: f.degree >= 1))
def test_factor_poly_reconstructs(f):
    unit, counts = factor_poly(f)
    prod = FqPolynomial.of(3, unit)
    for g, e in counts.items():
        assert g.monic() == g  # factors are monic
        for _ in range(e):
            prod = prod * g
    assert prod == f


@settings(max_examples=30, deadline=None)
@given(cs=st.lists(st.integers(0, 1), min_size=17, max_size=23))
def test_factor_poly_reconstructs_past_degree_16_over_f2(cs):
    # the sieve's work count is the one bound: F_2 admits degree 23, and 24 exits 3
    f = FqPolynomial.of(2, *cs, 1)
    unit, counts = factor_poly(f)
    prod = FqPolynomial.of(2, unit)
    for g, e in counts.items():
        assert g.degree >= 1 and g.monic() == g
        for _ in range(e):
            prod = prod * g
    assert prod == f


# ---------------------------------------------------------------------------
# Function-field places and product formula
# ---------------------------------------------------------------------------


def test_poly_valuation_examples():
    x = FqPolynomial.x(2)
    one = FqPolynomial.one(2)
    f = x * x + x  # x(x+1)
    p_x = Place.finite_poly(x)
    assert int(poly_valuation(RationalFunction.of(f), p_x)) == 1
    assert int(poly_valuation(RationalFunction.of(f), Place.degree_infinity())) == -2
    assert int(poly_valuation(RationalFunction.of(one, x + one), Place.finite_poly(x + one))) == -1


def test_poly_valuation_zero_rejected():
    z = FqPolynomial.of(2)
    with pytest.raises(DomainError):
        poly_valuation(RationalFunction.of(z), Place.degree_infinity())


def test_ff_product_formula_examples():
    x = FqPolynomial.x(2)
    one = FqPolynomial.one(2)
    assert product_formula_check_ff(RationalFunction.of(x)) == 1

    # x^2+1 is irreducible over F_3 (no roots: 0->1, 1->2, 2->2)
    f3 = FqPolynomial.of(3, 1, 0, 1)
    assert product_formula_check_ff(RationalFunction.of(f3)) == 1

    assert product_formula_check_ff(RationalFunction.of(x * x + x, x + one)) == 1


def test_ff_local_norms_table():
    x = FqPolynomial.x(2)
    one = FqPolynomial.one(2)
    table = local_norms_ff(RationalFunction.of(x))
    assert [(str(pl), n) for pl, n in table] == [
        ("x", Fraction(1, 2)),
        ("infinity", Fraction(2)),
    ]


def test_ff_norm_at_degree_place():
    # |f|_inf = p^(deg num - deg den)
    x = FqPolynomial.x(3)
    num = x * x * x + FqPolynomial.one(3)
    table = dict((str(pl), n) for pl, n in local_norms_ff(RationalFunction.of(num, x)))
    assert table["infinity"] == Fraction(9)  # 3^(3-1)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ff_product_formula_random(p, data):
    num = data.draw(fq_poly(p, 8).filter(lambda f: f.degree >= 0))
    den = data.draw(fq_poly(p, 8).filter(lambda f: f.degree >= 0))
    assert product_formula_check_ff(RationalFunction.of(num, den)) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ff_local_norms_agree_with_the_fraction_power_route(p):
    # p ** (-deg * v) and p ** (-v) at the degree place, from poly_valuation
    rng = random.Random(p)

    def draw():
        deg = rng.randint(0, 8)
        return FqPolynomial.of(p, *[rng.randrange(p) for _ in range(deg)], rng.randint(1, p - 1))

    for _ in range(60):
        f = RationalFunction.of(draw(), draw())
        for place, value in local_norms_ff(f):
            e = int(poly_valuation(f, place))
            degree = 1 if place.kind == "degree_infinity" else place.poly.degree
            assert value == Fraction(p) ** (-degree * e) and type(value) is Fraction


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_norms_ff_factors_each_polynomial_once(monkeypatch, p):
    # its places come from that factoring: none is trial-divided again to check it
    rng = random.Random(p)

    def draw():
        deg = rng.randint(0, 8)
        return FqPolynomial.of(p, *[rng.randrange(p) for _ in range(deg)], rng.randint(1, p - 1))

    x = FqPolynomial.x(2)
    demo = RationalFunction.of(x * x * x + x, x + FqPolynomial.one(2))  # (x^2+x)/1
    cases = [RationalFunction.of(draw(), draw()) for _ in range(60)]
    calls = count_calls(monkeypatch, valuations_product, "_trial_divide")
    for f in ([demo] if p == 2 else []) + cases:
        calls.clear()
        local_norms_ff(f)
        assert len(calls) == (f.num.degree > 0) + (f.den.degree > 0)


def test_place_rejects_constant_reducible_and_non_monic_polynomials():
    x = FqPolynomial.x(2)
    with pytest.raises(DomainError, match="not monic irreducible"):
        Place.finite_poly(FqPolynomial.one(2))  # monic, degree 0
    with pytest.raises(DomainError, match="not monic irreducible"):
        Place.finite_poly(x * x + x)  # x(x+1)
    with pytest.raises(DomainError, match="not monic irreducible"):
        Place.finite_poly(x * x)  # one factor, twice
    with pytest.raises(DomainError, match="not monic irreducible"):
        Place.finite_poly(FqPolynomial.of(3, 1, 2))  # 2x+1 is irreducible, not monic


def test_place_admits_irreducibles_past_the_factoring_degree_limit():
    # x^17+x^3+1 is irreducible over F_2; the check enumerates to degree 8 only
    g = FqPolynomial.of(2, 1, 0, 0, 1, *([0] * 13), 1)
    assert g.degree == 17
    assert str(Place.finite_poly(g)) == "x^17+x^3+1"
    assert factor_poly(g) == (1, {g: 1})


def test_factor_poly_guards():
    with pytest.raises(DomainError):
        factor_poly(FqPolynomial.of(3))
    with pytest.raises(ResourceLimitError, match="trial divisions"):
        factor_poly(FqPolynomial.of(3, *([1] * 18)))


def test_factor_poly_frozen_factors():
    # 2 x (x+1)^2 (x^2+1) over F_3: factors in enumeration order, unit apart
    x = FqPolynomial.x(3)
    one = FqPolynomial.one(3)
    f = FqPolynomial.of(3, 2) * x * (x + one) * (x + one) * (x * x + one)
    unit, counts = factor_poly(f)
    assert unit == 2
    assert [(str(g), e) for g, e in counts.items()] == [("x", 1), ("x+1", 2), ("x^2+1", 1)]


def test_fq_subtraction_and_negation():
    f = FqPolynomial.of(5, 1, 2, 3)
    g = FqPolynomial.of(5, 4, 2, 1)
    assert -f == FqPolynomial.of(5, 4, 3, 2)
    assert f - g == FqPolynomial.of(5, 2, 0, 2)
    assert (f - f).is_zero
    assert -FqPolynomial.of(5) == FqPolynomial.of(5)


def test_rational_function_constructor_errors():
    x = FqPolynomial.x(3)
    one = FqPolynomial.one(3)
    with pytest.raises(DomainError, match="denominator must be nonzero"):
        RationalFunction(one, FqPolynomial.of(3))
    with pytest.raises(DomainError, match="denominator must be monic"):
        RationalFunction(one, FqPolynomial.of(3, 1, 2))
    with pytest.raises(DomainError, match="coprime"):
        RationalFunction(x * x, x)
    with pytest.raises(DomainError, match="denominator must be nonzero"):
        RationalFunction.of(one, FqPolynomial.of(3))


def test_poly_valuation_rejects_places_of_q():
    f = RationalFunction.of(FqPolynomial.x(3))
    for place in (Place.finite(3), Place.archimedean()):
        with pytest.raises(DomainError, match="is not a place of F_p"):
            poly_valuation(f, place)


def test_place_str_and_kind():
    assert str(Place.finite(7)) == "7"
    assert str(Place.archimedean()) == "infinity"
    assert Place.finite(7).kind == "finite"
    assert Place.archimedean().kind == "archimedean"
