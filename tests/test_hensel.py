"""Digit-by-digit root lifting modulo prime powers.

The linear (one digit per step) scheme is the reference algorithm; the
Newton precision-doubling path must reproduce its trace exactly, and small
cases are cross-checked against brute-force root enumeration mod p^k.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclab import (
    DomainError,
    LiftTrace,
    NotARootError,
    PadicNumber,
    RationalPolynomial,
    ResourceLimitError,
    SingularRootError,
    hensel_lift,
    roots_mod_p,
    sqrt_padic,
    to_expansion_string,
)
from padiclab.hensel import ROOT_SCAN_LIMIT, _taylor_coeffs

X2_MINUS_2 = (-2, 0, 1)  # coefficients ascending: f(x) = x^2 - 2


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# roots_mod_p
# ---------------------------------------------------------------------------


def test_roots_mod_p_examples():
    assert roots_mod_p(X2_MINUS_2, 7) == [3, 4]
    assert roots_mod_p(X2_MINUS_2, 5) == []
    assert roots_mod_p((0, 1), 3) == [0]


def test_roots_mod_p_rejects_zero_polynomial():
    with pytest.raises(DomainError):
        roots_mod_p((7, 7), 7)  # f == 0 mod 7: every residue is a root


def test_rational_polynomial_with_integer_coefficients_is_accepted():
    f = RationalPolynomial.of(-2, 0, 1)
    assert roots_mod_p(f, 7) == roots_mod_p(X2_MINUS_2, 7) == [3, 4]
    for method in ("digit", "newton"):
        assert hensel_lift(f, 3, 7, 5, method) == hensel_lift(X2_MINUS_2, 3, 7, 5, method)


def test_rational_polynomial_with_a_fraction_is_rejected():
    f = RationalPolynomial.of(Fraction(-1, 2), 0, 1)
    with pytest.raises(DomainError, match="integer coefficients"):
        roots_mod_p(f, 7)
    with pytest.raises(DomainError, match="integer coefficients"):
        hensel_lift(f, 3, 7, 2)


@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    p=st.sampled_from([2, 3, 5, 7, 11]),
)
def test_roots_mod_p_matches_direct_scan(coeffs, p):
    if all(c % p == 0 for c in coeffs):
        return
    expected = [x for x in range(p) if poly_eval(coeffs, x) % p == 0]
    assert roots_mod_p(tuple(coeffs), p) == expected


# ---------------------------------------------------------------------------
# hensel_lift — frozen traces
# ---------------------------------------------------------------------------


def test_lift_sqrt2_from_3():
    trace = hensel_lift(X2_MINUS_2, 3, 7, 2)
    assert trace.digits == (3, 1, 2)
    assert trace.residues == (3, 10, 108)
    assert trace.render_sum() == "3 + 7·1 + 7²·2"
    assert 108**2 % 7**3 == 2


def test_lift_sqrt2_from_4():
    trace = hensel_lift(X2_MINUS_2, 4, 7, 1)
    assert trace.residues == (4, 39)
    assert 39**2 % 49 == 2


def test_lift_exact_root_is_stationary():
    trace = hensel_lift((-5, 1), 5, 7, 3)
    assert trace.residues == (5, 5, 5, 5)
    assert trace.digits == (5, 0, 0, 0)


def test_lift_rejects_non_root():
    with pytest.raises(NotARootError):
        hensel_lift(X2_MINUS_2, 1, 7, 2)


def test_lift_rejects_singular_root():
    # f = x^2: root 0 mod 3 has f'(0) = 0
    with pytest.raises(SingularRootError) as exc:
        hensel_lift((0, 0, 1), 0, 3, 2)
    assert "simple" in str(exc.value).lower()


# ---------------------------------------------------------------------------
# Trace invariants
# ---------------------------------------------------------------------------

lift_cases = st.tuples(
    st.lists(st.integers(-30, 30), min_size=2, max_size=5),
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(1, 6),
)


@given(case=lift_cases)
def test_trace_invariants(case):
    coeffs, p, k = case
    if all(c % p == 0 for c in coeffs):
        return
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for x0 in roots_mod_p(tuple(coeffs), p):
        if poly_eval(deriv, x0) % p == 0:
            continue  # singular; rejected by design
        trace = hensel_lift(tuple(coeffs), x0, p, k)
        assert len(trace.residues) == k + 1
        for i, xi in enumerate(trace.residues):
            assert poly_eval(coeffs, xi) % p ** (i + 1) == 0
            if i > 0:
                # coherence: consecutive residues agree mod p^i
                assert (xi - trace.residues[i - 1]) % p**i == 0
        assert trace.residues[-1] == sum(
            b * p**i for i, b in enumerate(trace.digits)
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lifted_residues_are_unique_small_cases(p):
    # brute force every residue mod p^3 and compare with the traced lifts
    coeffs = X2_MINUS_2
    deriv = (0, 2)
    for x0 in roots_mod_p(coeffs, p):
        if poly_eval(deriv, x0) % p == 0:
            continue
        trace = hensel_lift(coeffs, x0, p, 2)
        for i in (1, 2):
            m = p ** (i + 1)
            roots = [
                x
                for x in range(m)
                if poly_eval(coeffs, x) % m == 0 and x % p == x0
            ]
            assert roots == [trace.residues[i]]


@given(case=lift_cases)
def test_newton_path_agrees_with_linear(case):
    coeffs, p, k = case
    if all(c % p == 0 for c in coeffs):
        return
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for x0 in roots_mod_p(tuple(coeffs), p):
        if poly_eval(deriv, x0) % p == 0:
            continue
        linear = hensel_lift(tuple(coeffs), x0, p, k, method="digit")
        newton = hensel_lift(tuple(coeffs), x0, p, k, method="newton")
        assert linear.digits == newton.digits
        assert linear.residues == newton.residues


deep_lift_cases = st.tuples(
    st.lists(st.integers(-30, 30), min_size=2, max_size=5),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(0, 300),
)


@settings(max_examples=60, deadline=None)
@given(case=deep_lift_cases)
def test_newton_root_equals_digit_root_up_to_k300(case):
    coeffs, p, k = case
    if all(c % p == 0 for c in coeffs):
        return
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for x0 in roots_mod_p(tuple(coeffs), p):
        if poly_eval(deriv, x0) % p == 0:
            continue
        linear = hensel_lift(tuple(coeffs), x0, p, k, method="digit")
        newton = hensel_lift(tuple(coeffs), x0, p, k, method="newton")
        assert linear == newton
        assert 0 <= linear.root < p ** (k + 1)
        assert poly_eval(coeffs, linear.root) % p ** (k + 1) == 0
        assert linear.root % p == x0


def test_trace_keeps_only_the_root():
    assert [f.name for f in dataclasses.fields(LiftTrace)] == ["p", "f", "k", "root"]
    trace = LiftTrace(7, X2_MINUS_2, 2, 108)
    assert trace == hensel_lift(X2_MINUS_2, 3, 7, 2)
    assert trace.digits == (3, 1, 2)
    assert trace.residues == (3, 10, 108)
    assert trace.render_sum() == "3 + 7·1 + 7²·2"
    assert trace.as_padic(2).unit == (3, 1)


@pytest.mark.parametrize(
    "k, root",
    [(2, 7**3), (2, 7**3 + 108), (2, -1), (-1, 0), (-1, 3), (0, 7)],
)
def test_trace_rejects_root_outside_the_modulus_and_negative_k(k, root):
    with pytest.raises(DomainError):
        LiftTrace(7, X2_MINUS_2, k, root)


def test_lift_rejects_negative_k():
    for method in ("digit", "newton"):
        with pytest.raises(DomainError):
            hensel_lift(X2_MINUS_2, 3, 7, -1, method=method)


def test_as_padic_matches_digits():
    trace = hensel_lift(X2_MINUS_2, 3, 7, 2)
    x = trace.as_padic(3)
    assert x.unit == (3, 1, 2)
    with pytest.raises(DomainError):
        trace.as_padic(9)


def test_as_padic_moves_factors_of_p_into_the_valuation():
    # x - 21 has root 21 = 7 * 3; x - 343 has root 0 mod 7**3
    assert hensel_lift((-21, 1), 0, 7, 2).as_padic(3) == PadicNumber.from_integer(21, 7, 2)
    assert hensel_lift((-343, 1), 0, 7, 2).as_padic(3) == PadicNumber.zero(7, 3)


# ---------------------------------------------------------------------------
# sqrt_padic
# ---------------------------------------------------------------------------


def test_sqrt_2_in_q7():
    roots = sqrt_padic(2, 7, 3)
    assert [to_expansion_string(x) for x in roots] == ["3,12", "4,54"]
    assert roots[0] == -roots[1]


def test_sqrt_perfect_square():
    roots = sqrt_padic(4, 7, 3)
    values = sorted(x.unit_value for x in roots)
    assert values == [2, (-2) % 7**3]


def test_sqrt_non_residue_gives_empty():
    assert sqrt_padic(2, 5, 4) == []


def test_sqrt_guards():
    with pytest.raises(DomainError):
        sqrt_padic(2, 2, 3)  # p = 2 not supported
    with pytest.raises(DomainError):
        sqrt_padic(14, 7, 3)  # gcd(a, p) != 1


@given(
    a=st.integers(1, 500),
    p=st.sampled_from([3, 5, 7, 11, 13]),
    r=st.integers(1, 8),
)
def test_sqrt_squares_back(a, p, r):
    if a % p == 0:
        return
    roots = sqrt_padic(a, p, r)
    assert len(roots) in (0, 2)
    for x in roots:
        assert x.unit_value**2 % p**r == a % p**r
    if len(roots) == 2:
        assert roots[0] == -roots[1]


@given(
    a=st.integers(1, 10**6),
    p=st.sampled_from([3, 5, 7, 11, 13, 101]),
    r=st.integers(1, 60),
)
def test_sqrt_equals_the_digit_lift_roots(a, p, r):
    if a % p == 0:
        return
    f = (-a, 0, 1)
    expected = [
        hensel_lift(f, x0, p, r - 1, method="digit").as_padic(r) for x0 in roots_mod_p(f, p)
    ]
    assert sqrt_padic(a, p, r) == expected


def test_sqrt_lifts_by_newton(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sqrt_padic needs only the root: the Newton route")

    monkeypatch.setattr("padiclab.hensel._lift_linear", unreachable)
    assert [to_expansion_string(x) for x in sqrt_padic(2, 7, 3)] == ["3,12", "4,54"]


def test_root_scan_is_bounded():
    # p * terms Horner steps: a quadratic keeps sqrt's boundary at p <= 2**20
    assert ROOT_SCAN_LIMIT == 3 * 2**20
    # 1048583 is the least prime above 2**20, and 1048573 the largest below it
    with pytest.raises(ResourceLimitError, match="root scan"):
        roots_mod_p(X2_MINUS_2, 1048583)
    with pytest.raises(ResourceLimitError, match="root scan"):
        roots_mod_p((-2, 0, 0, 0, 1), 1048573)
    with pytest.raises(ResourceLimitError, match="root scan"):
        sqrt_padic(2, 4294967291, 2)


# ---------------------------------------------------------------------------
# The digit lift's Taylor-shift kernel against a Horner oracle
# ---------------------------------------------------------------------------


def poly_eval_mod(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def horner_digit_lift(coeffs, x0, p, k):
    """The digit lift evaluated by Horner at each x_{i-1}: digit i solves f(x_{i-1} + p**i*b) == 0 mod p**(i+1)."""
    inv_d0 = pow(poly_eval([i * c for i, c in enumerate(coeffs)][1:], x0), -1, p)
    x, power = x0 % p, p
    for _ in range(k):
        fx = poly_eval_mod(coeffs, x, power * p)
        x += (-(fx // power) * inv_d0) % p * power
        power *= p
    return x


def poly_times_linear(h, r):
    # (x - r) * h(x), ascending coefficients
    return tuple(a - r * b for a, b in zip((0, *h), (*h, 0)))


@st.composite
def lifts_with_an_integer_root(draw):
    """(f, r, p, k): f = (x - r) * h of degree 1..12 with h(r) != 0 mod p, so r is a simple root."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 4294967291]))
    k = draw(st.integers(0, 12) | st.integers(0, 300))
    digits = draw(st.lists(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1), min_size=1, max_size=12))
    r = draw(st.sampled_from([1, -1])) * poly_eval(digits, p)
    h = draw(st.lists(st.integers(-30, 30), max_size=11))
    h.append(draw(st.integers(1, 9)))
    if poly_eval(h, r) % p == 0:
        h[0] += 1
    return poly_times_linear(h, r), r, p, k


@settings(max_examples=150, deadline=None)
@given(case=lifts_with_an_integer_root())
@example(case=(poly_times_linear((2,) + (1,) * 11, 3 + 5 * 7**3), 3 + 5 * 7**3, 7, 4))  # digits 3, 0, 0, 5; k < degree
@example(case=(poly_times_linear((1,) + (0,) * 10 + (1,), 6), 6, 2, 30))  # lifts ~sqrt(k) digits first
@example(case=(poly_times_linear((-7, 1, 1, 1), 4294967290), 4294967290, 4294967291, 300))
def test_digit_lift_equals_the_horner_oracle_and_newton(case):
    f, r, p, k = case
    digit = hensel_lift(f, r, p, k, method="digit")
    newton = hensel_lift(f, r, p, k, method="newton")
    assert digit == newton
    assert digit.root == horner_digit_lift(f, r, p, k) == r % p ** (k + 1)


@pytest.mark.parametrize(
    "degree, k",
    [(2000, 10), (2000, 200), (10000, 20)],
)
@pytest.mark.parametrize("x0", [0, 1])
def test_high_degree_digit_lift_equals_the_horner_oracle(degree, k, x0):
    f = (2, 1) + (0,) * (degree - 2) + (1,)  # x**degree + x + 2: f(0), f(1) even, f' odd there
    trace = hensel_lift(f, x0, 2, k, method="digit")
    assert trace.root == horner_digit_lift(f, x0, 2, k)


def test_deep_digit_lift_equals_newton():
    f = (3, 3, 0, -5, 1)
    trace = hensel_lift(f, 3, 7, 3000, method="digit")
    assert trace == hensel_lift(f, 3, 7, 3000, method="newton")
    assert poly_eval(f, trace.root) % 7**3001 == 0


@pytest.mark.parametrize("x", [0, 1, 5, 2**40 + 3])
def test_taylor_coefficients_are_the_binomial_sums(x):
    f = (7, -3, 0, 11, 2, -1, 4)
    m = 3**20
    expected = [
        sum(comb(n, j) * c * x ** (n - j) for n, c in enumerate(f) if n >= j) % m
        for j in range(len(f))
    ]
    assert _taylor_coeffs(f, x, len(f), m) == expected
    assert _taylor_coeffs(f, x, 3, m) == expected[:3]


@pytest.mark.parametrize(
    "f",
    [
        [Fraction(-3, 2), 0, 1],  # int() would cut it to x**2 - 1, root 1
        [-2.5, 0, 1],  # int() would cut it to x**2 - 2
        [-2.0, 0, 1],
        ["-2", 0, 1],
    ],
)
def test_non_integral_coefficients_are_refused(f):
    for method in ("digit", "newton"):
        with pytest.raises(DomainError, match="lifting needs integer coefficients"):
            hensel_lift(f, 1, 7, 3, method)
    with pytest.raises(DomainError, match="lifting needs integer coefficients"):
        roots_mod_p(f, 7)


def test_integral_fractions_are_integer_coefficients():
    f = [Fraction(-4, 2), Fraction(0), True]
    assert roots_mod_p(f, 7) == [3, 4]
    assert hensel_lift(f, 3, 7, 5, "digit") == hensel_lift(X2_MINUS_2, 3, 7, 5, "digit")


def test_negative_k_is_refused_before_lifting(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a lift with k < 0 must not start")

    monkeypatch.setattr("padiclab.hensel._lift_linear", unreachable)
    monkeypatch.setattr("padiclab.hensel._lift_newton", unreachable)
    for method in ("digit", "newton"):
        with pytest.raises(DomainError, match="k >= 0"):
            hensel_lift(X2_MINUS_2, 3, 7, -1, method=method)
