"""Borel summation of t^2 y' = t - y and the divergent series around it.

Correctness rests on three independent gauges, none of which may be merged:
the ODE residual, the continued-fraction exponential-integral oracle, and
the exact symbolic defect of truncated partial sums.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from padiclab import (
    AccuracyError,
    DomainError,
    EulerSeries,
    RangeError,
    RationalPolynomial,
    ResourceLimitError,
    borel_sum,
    borel_with_residual,
    euler_series_partial,
    exp_e1_oracle,
    general_solution,
    ode_residual,
    optimal_truncation_index,
    truncated_series_defect,
)
from padiclab import cli, resurgence
from padiclab.errors import PadiclabError
from padiclab.resurgence import MAX_SERIES_ORDER, SummationResult, euler_partial_sums

small_t = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(3), max_denominator=100)


# ---------------------------------------------------------------------------
# The series itself
# ---------------------------------------------------------------------------


def test_series_coefficients_alternate_factorials():
    s = EulerSeries.up_to(8)
    for m, c in enumerate(s.coefficients):
        assert c == (-1) ** m * factorial(m)


def test_partial_sum_frozen_values():
    with mp.workdps(30):
        r1 = euler_series_partial(Fraction(1, 10), 1)
        assert mp.almosteq(r1.value, mp.mpf("0.09"), abs_eps=mp.mpf("1e-25"))
        r3 = euler_series_partial(Fraction(1, 10), 3)
        assert mp.almosteq(r3.value, mp.mpf("0.0914"), abs_eps=mp.mpf("1e-25"))
        assert r3.method == "partial_sum(N=3)"
        # error estimate = first omitted term: 4! * t^5
        assert mp.almosteq(r3.error_estimate, mp.mpf("24e-5"), rel_eps=mp.mpf("1e-20"))


@given(t=small_t, n=st.integers(0, 12))
def test_partial_sum_matches_direct_evaluation(t, n):
    with mp.workdps(40):
        expected = sum(
            mp.mpf((-1) ** m * factorial(m)) * mp.mpf(t.numerator) ** (m + 1)
            / mp.mpf(t.denominator) ** (m + 1)
            for m in range(n + 1)
        )
        got = euler_series_partial(t, n).value
        assert mp.almosteq(got, expected, rel_eps=mp.mpf("1e-30"))


@pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(1, 2), Fraction(2, 7), 1, "0.05"])
def test_running_partial_sums_match_each_partial_sum(t):
    sums = euler_partial_sums(t, 200)
    assert len(sums) == 201
    with mp.workdps(40):
        for n, s in enumerate(sums):
            expected = euler_series_partial(t, n).value
            assert mp.almosteq(s, expected, rel_eps=mp.mpf("1e-35")), n


def test_running_partial_sums_guards():
    assert len(euler_partial_sums(Fraction(1, 2), MAX_SERIES_ORDER)) == 501
    with pytest.raises(ResourceLimitError, match="series order 501 exceeds the limit 500"):
        euler_partial_sums(Fraction(1, 2), 501)
    with pytest.raises(DomainError):
        euler_partial_sums(Fraction(1, 2), -1)
    with pytest.raises(DomainError):
        euler_partial_sums(0, 3)


def test_series_order_is_bounded():
    assert EulerSeries.up_to(MAX_SERIES_ORDER).order == 500
    with pytest.raises(ResourceLimitError, match="series order 501 exceeds the limit 500"):
        euler_series_partial(Fraction(1, 2), 501)
    with pytest.raises(ResourceLimitError):
        truncated_series_defect(10**5)


def test_divergence_term_scan():
    # at t = 0.1 the term magnitudes m! t^{m+1} shrink until m ~ 1/t, then blow up
    t = Fraction(1, 10)
    mags = [factorial(m) * t ** (m + 1) for m in range(40)]
    turning = min(range(40), key=lambda m: mags[m])
    assert 9 <= turning <= 10
    assert mags[-1] > mags[turning] * 10**6


# ---------------------------------------------------------------------------
# Optimal truncation
# ---------------------------------------------------------------------------


def test_optimal_truncation_frozen():
    assert optimal_truncation_index(Fraction(1, 10)) in (9, 10, 11)
    assert optimal_truncation_index(0.1) == optimal_truncation_index(Fraction(1, 10))
    assert optimal_truncation_index(Fraction(1, 2)) in (1, 2, 3)
    assert optimal_truncation_index(2) in (0, 1)


def test_optimal_truncation_limit_refuses_far_past_it():
    assert optimal_truncation_index("1/600", limit=500) == 599  # decided exactly
    assert optimal_truncation_index("1/1001", limit=500) == 1000
    with pytest.raises(ResourceLimitError, match="series order above the limit 500"):
        optimal_truncation_index("1/1003", limit=500)
    with pytest.raises(ResourceLimitError, match="series order above the limit 500"):
        optimal_truncation_index("1e-9999999", limit=500)
    with pytest.raises(DomainError):
        optimal_truncation_index("0", limit=500)


def test_unprintable_series_order_keeps_a_short_message():
    with pytest.raises(ResourceLimitError, match="series order of 16610 bits exceeds the limit"):
        EulerSeries.up_to(10**5000)


def test_optimal_truncation_ties_take_smaller_index():
    # t = 1/k gives equal consecutive terms; rule: smaller index wins
    assert optimal_truncation_index(Fraction(1, 10)) == 9
    assert optimal_truncation_index(Fraction(1, 2)) == 1


@given(t=small_t)
def test_optimal_truncation_is_argmin(t):
    m_star = optimal_truncation_index(t)
    mag = lambda m: factorial(m) * t ** (m + 1)
    best = mag(m_star)
    assert all(best <= mag(m) for m in range(0, m_star + 25))


def test_optimal_truncation_pinned_answers():
    assert optimal_truncation_index(0.1) == 9
    assert optimal_truncation_index(Fraction(1, 10)) == 9
    # t = 10**-6 exactly: terms 999999 and 1000000 tie, the smaller wins
    assert optimal_truncation_index("1e-6") == 999999


TRUNCATION_GRID = sorted(
    {Fraction(1, k) for k in range(1, 200)}
    | {Fraction(2, k + 1) for k in range(1, 200)}
    | {Fraction(k, 7) for k in range(1, 200)}
)


def test_optimal_truncation_is_first_exact_minimizer():
    # brute force over exact terms, well past the turning point near 1/t
    for t in TRUNCATION_GRID:
        first = min(range(int(2 / t) + 3), key=lambda m: factorial(m) * t ** (m + 1))
        assert optimal_truncation_index(t) == first, t


def test_optimal_truncation_rejects_unparsable():
    with pytest.raises(DomainError, match="cannot parse real 'abc'"):
        optimal_truncation_index("abc")


def test_optimal_truncation_rejects_nonpositive():
    with pytest.raises(DomainError):
        optimal_truncation_index(0)
    with pytest.raises(DomainError):
        optimal_truncation_index(Fraction(-1, 2))


# ---------------------------------------------------------------------------
# Borel summation vs the continued-fraction oracle
# ---------------------------------------------------------------------------

ORACLE_GRID = [Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(1)]


def test_borel_frozen_digits():
    with mp.workdps(30):
        y = borel_sum(Fraction(1, 10)).value
        assert mp.nstr(y, 8) == "0.091563334"
        y5 = borel_sum(Fraction(1, 2)).value
        assert str(mp.nstr(y5, 7)).startswith("0.361328")


@pytest.mark.parametrize("t", ORACLE_GRID)
def test_borel_matches_e1_oracle(t):
    with mp.workdps(30):
        got = borel_sum(t).value
        want = exp_e1_oracle(t)
        assert abs(got - want) / abs(want) < mp.mpf("1e-10")


@pytest.mark.parametrize("t", ["1.0001", "2", "10", "300", "1e4", "1e12", "1e60"])
def test_e1_oracle_series_branch_matches_mpmath(t):
    # x = 1/t < 1 once took a power series of its own; a continued fraction
    # needed over 100000 terms from about t = 300 and raised AccuracyError
    t0 = time.perf_counter()
    got = exp_e1_oracle(t)
    assert time.perf_counter() - t0 < 0.5
    with mp.workdps(60):
        x = 1 / mp.mpf(t)
        want = mp.exp(x) * mp.e1(x)
        assert abs(got - want) < mp.mpf("1e-38") * want


def _exp_e1_reference(t) -> mp.mpf:
    """exp(x) E1(x) at x = 1/t to 80 digits: mpmath's E1, past x = 2**200 four asymptotic terms."""
    with mp.workdps(80):
        x = 1 / (mp.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else mp.mpf(t))
        if x > mp.mpf(2) ** 200:
            return (1 - (1 - (2 - 6 / x) / x) / x) / x
        return mp.exp(x) * mp.e1(x)


@pytest.mark.parametrize(
    "t", [Fraction(k, 20) for k in range(1, 41)]
    # x = 1e19 < 2**64 < 1e20, either side of the switch to the asymptotic
    + ["1e-6", "1e-19", "1e-20", "1e12", "1e60", "1e-9999999"],
)
def test_e1_oracle_keeps_working_precision_and_is_fast(t):
    # the continued fraction this oracle once used was off by 1.0e-37 at t = 1
    t0 = time.perf_counter()
    got = exp_e1_oracle(t)
    assert time.perf_counter() - t0 < 0.05
    want = _exp_e1_reference(t)
    with mp.workdps(80):
        assert abs(got - want) <= mp.mpf("1e-39") * want


@pytest.mark.parametrize("t", ORACLE_GRID)
def test_borel_satisfies_ode(t):
    res = ode_residual(lambda u: borel_sum(u).value, t, Fraction(1, 10**4))
    assert res < mp.mpf("1e-6")


@pytest.mark.parametrize("t", ORACLE_GRID)
@pytest.mark.parametrize("tol", ["1e-10", "1e-16"])
def test_borel_evaluates_each_node_once(monkeypatch, t, tol):
    # the integrand takes three exponentials per node; borel_sum takes no others
    monkeypatch.setattr(resurgence, "_NODE_TABLE", {})  # a cold node table
    calls = []
    exp = mp.exp
    monkeypatch.setattr(mp, "exp", lambda x: calls.append(x) or exp(x))
    result = borel_sum(t, tol)
    nodes = int(result.method.removeprefix("borel(nodes=").removesuffix(")"))
    assert len(calls) == 3 * (nodes + 1)
    # a warm table serves a repeat call without any exponential
    assert borel_sum(t, tol) == result
    assert len(calls) == 3 * (nodes + 1)
    monkeypatch.undo()
    # and the running sum is the plain trapezoid rule on those N + 1 nodes
    with mp.workdps(40):
        tv, h = mp.mpf(t.numerator) / t.denominator, mp.mpf(10) / nodes

        def g(w):
            u = mp.exp(w - mp.exp(-w))
            return mp.exp(-u) * tv / (1 + tv * u) * u * (1 + mp.exp(-w))

        ends = (g(mp.mpf(-5)) + g(mp.mpf(5))) / 2
        plain = h * (ends + mp.fsum(g(-5 + i * h) for i in range(1, nodes)))
        assert abs(result.value - plain) <= mp.mpf("1e-36") * plain


def plain_borel_sum(t, tol):
    """borel_sum recomputed node by node: every level's fixed-point sum from w itself.

    Each node adds floor(P * 2**140 / (S + U)), P = exp(-u) u (1 + exp(-w))
    at 400 fractional bits, and S = 1/t, U = u at 400 - k of them, k >= 0 the
    bits of 1/t above 1; each level's estimate is h * (ends/2 + interior) / 2**E,
    E = 140 + k.
    """
    with mp.workdps(resurgence.WORKING_DPS):
        tv, tolv, width = resurgence._to_mp(t), resurgence._to_mp(tol), mp.mpf(5)
        k = max(0, mp.frexp(1 / tv)[1])
        S, E = int(mp.ldexp(1 / tv, 400 - k)), 140 + k

        def g(w):
            ew = mp.exp(-w)
            u = mp.exp(w - ew)
            P, U = int(mp.ldexp(mp.exp(-u) * u * (1 + ew), 400)), int(mp.ldexp(u, 400))
            return (P << 140) // (S + (U >> k))

        n, h, stride = 16, 2 * width / 16, 1
        ends, interior, prev = g(-width) + g(width), 0, None
        while True:
            interior += sum(g(-width + i * h) for i in range(1, n, stride))
            est = h * mp.ldexp(ends + 2 * interior, -E - 1)
            if prev is not None and max(abs(est - prev), mp.eps * abs(est)) <= tolv * abs(est):
                return est, n
            prev, n, h, stride = est, 2 * n, h / 2, 2


def levelwise_borel_sum(t, tol):
    """borel_sum as one level loop that builds each level's estimate and runs its test in mpf.

    The node sums are the same exact ints; the one difference from a loop that
    reads abs(est - prev) after prev has become est is the failure's
    ``achieved``, here the last two levels' difference.
    """
    with mp.workdps(resurgence.WORKING_DPS):
        tv = resurgence._require_positive(t)
        if tv > resurgence.MAX_QUADRATURE_T:
            raise ResourceLimitError(f"t = {resurgence.quoted(t)} exceeds the quadrature limit 1e60")
        tolv = resurgence._to_mp(tol)
        x = 1 / tv
        k = max(0, mp.frexp(x)[1])
        s, shift = int(mp.ldexp(x, 400 - k)), 140 + k

        def node_sum(parts):
            return sum([(p << 140) // (s + (u >> k)) for p, u in parts])

        ends = node_sum(resurgence._node_parts(0))
        n, h = 16, 2 * mp.mpf(5) / 16
        total, prev, last = 0, None, None
        for key in range(1, 15):
            total += node_sum(resurgence._node_parts(key))
            est = h * mp.ldexp(ends + 2 * total, -shift - 1)
            if prev is not None:
                certifiable = max(abs(est - prev), mp.eps * abs(est))
                if certifiable <= tolv * abs(est):
                    return SummationResult(est, f"borel(nodes={n})", certifiable)
                if abs(est - prev) <= 4 * mp.eps * abs(est):
                    raise AccuracyError(
                        f"tol={tol} is below the working precision at dps=40", achieved=certifiable)
            last, prev, n, h = prev, est, 2 * n, h / 2
        raise AccuracyError(f"quadrature did not reach tol={tol} within {n // 2} nodes",
                            achieved=abs(est - last))


def outcome(f, *args):
    """What a call returns, or the type, message and ``achieved`` of what it raises."""
    try:
        return f(*args)
    except PadiclabError as exc:
        return type(exc), str(exc), getattr(exc, "achieved", None)


def sampled_borel_requests(count, seed):
    rng = random.Random(seed)
    return [(f"{10 ** rng.uniform(-6, 60):.6e}", f"{10 ** rng.uniform(-18, -6):.3e}")
            for _ in range(count)]


#: tol below the working precision, or of no use: a parse error, none, negative, nan, inf
EDGE_TOLS = ["1e-38", "1e-41", "2.29588740394978028900143854926219858949e-41", "1e-50",
             "xyz", "0", "-1", "nan", "10", "inf", Fraction(1, 10**60)]
DEMO_T = ["1/10", "1/2", "1"]


def test_borel_sum_is_the_levelwise_loop_bit_for_bit(monkeypatch):
    # a node table as deep as the last level: every level's nodes are computed once
    monkeypatch.setattr(resurgence, "TABLE_NODES", 16 << 13)
    monkeypatch.setattr(resurgence, "_NODE_TABLE", {})
    cases = sampled_borel_requests(40, seed=2005)
    cases += [(t, tol) for t in DEMO_T for tol in ("1e-6", "1e-10", "1e-16", "1e-18")]
    cases += [(t, tol) for t in ("1/2", "3", "1e-6") for tol in EDGE_TOLS]
    cases += [("1e61", "1e-10"), ("0", "1e-10"), ("abc", "1e-10"), ("1e-5", "1e-30")]
    for t, tol in cases:
        assert outcome(borel_sum, t, tol) == outcome(levelwise_borel_sum, t, tol), (t, tol)


@pytest.mark.parametrize("t, tol", [("1e52", "1e-10"), ("3e54", "1e-16")])
def test_borel_sum_is_the_levelwise_loop_past_the_node_table(t, tol):
    # a deep level is computed node by node and streamed past each point
    want = levelwise_borel_sum(t, tol)
    assert int(want.method.removeprefix("borel(nodes=").removesuffix(")")) > resurgence.TABLE_NODES
    assert borel_sum(t, tol) == want


def test_a_level_pass_that_never_converges_reports_its_last_difference(monkeypatch):
    # stand-in node parts whose estimates swing by a quarter at every level
    def parts(key):
        one = 1 << 400
        return ((one, one),) * (2 if key == 0 else 7 * key % 5 + 1)

    monkeypatch.setattr(resurgence, "_node_parts", parts)
    got = outcome(borel_sum, "1/2", "1e-10")
    assert got == outcome(levelwise_borel_sum, "1/2", "1e-10")
    assert got[:2] == (AccuracyError, "quadrature did not reach tol=1e-10 within 131072 nodes")
    assert got[2] > 0


def cli_composition(t, tol, a):
    """The value and residual as the CLI composes them from the public functions."""
    y = borel_sum if a is None else (lambda s, tol: general_solution(s, a, tol))
    result = y(t, tol)
    return result, ode_residual(lambda s: y(s, "1e-16").value, t)


@pytest.mark.parametrize("a", [None, "0", "1", "-5/2"])
def test_one_pass_gives_the_composed_value_and_residual(a):
    cases = [(t, tol) for t in DEMO_T + ["3", "1e-3", "2e-4", "1e3", "1e12", "1e40"]
             for tol in ("1e-10", "1e-16")]
    cases += [(t, "1e-10") for t, _ in sampled_borel_requests(6, seed=7) if float(t) < 1e50]
    # errors before, inside and after the first quadrature, in the composed order
    cases += [("1/2", tol) for tol in ("1e-50", "xyz", "-1")]
    cases += [("5e-5", "1e-10"), ("5e-5", "1e-50"), ("1.000005e-4", "1e-10"), ("1e-7", "1e-10"),
              ("0", "1e-10"), ("1e61", "1e-10"), ("abc", "1e-10")]
    for t, tol in cases:
        assert outcome(borel_with_residual, t, tol, a) == outcome(cli_composition, t, tol, a), (
            t, tol)


def run_cli(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@pytest.mark.parametrize("argv", [("borel", "--t", "1/2"), ("borel", "--t", "1/2", "--a", "1")])
def test_a_plain_or_general_borel_request_runs_one_pass(monkeypatch, argv):
    passes = []
    one_pass = resurgence._borel_pass
    monkeypatch.setattr(resurgence, "_borel_pass", lambda reqs: passes.append(len(reqs))
                        or one_pass(reqs))
    assert run_cli(*argv) == 0
    assert passes == [4]


def test_a_deep_level_node_is_computed_once_per_request(monkeypatch):
    run_cli("borel", "--t", "1e52", "--tol", "1e-10")  # levels up to TABLE_NODES are kept
    with mp.workdps(40):
        t, h = mp.mpf("1e52"), mp.mpf("1e-4")
        points = [("1e52", "1e-10"), (t - h, "1e-16"), (t, "1e-16"), (t + h, "1e-16")]
    nodes = [int(borel_sum(s, tol).method.removeprefix("borel(nodes=").removesuffix(")"))
             for s, tol in points]
    deep = max(nodes) - resurgence.TABLE_NODES  # the new nodes of the levels past the table
    assert deep > 0
    calls = []
    node_part = resurgence._node_part
    monkeypatch.setattr(resurgence, "_node_part", lambda w: calls.append(w) or node_part(w))
    assert run_cli("borel", "--t", "1e52", "--tol", "1e-10") == 0
    assert len(calls) == len(set(calls)) == deep
    # where one pass per point computed them for each: sum(n - TABLE_NODES) nodes
    assert sum(n - resurgence.TABLE_NODES for n in nodes) == 4 * deep


@pytest.mark.parametrize("table_nodes", [resurgence.TABLE_NODES, 32])
def test_borel_node_table_is_bit_identical_and_bounded(monkeypatch, table_nodes):
    # a table that keeps fewer levels computes the deeper ones on each call
    monkeypatch.setattr(resurgence, "TABLE_NODES", table_nodes)
    monkeypatch.setattr(resurgence, "_NODE_TABLE", {})
    most = 0
    for t in ORACLE_GRID:
        for tol in ("1e-10", "1e-16"):
            value, nodes = plain_borel_sum(t, tol)
            for _ in range(2):  # cold, then warm
                result = borel_sum(t, tol)
                assert result.value == value
                assert result.method == f"borel(nodes={nodes})"
            most = max(most, nodes)
    # keys 0 (the ends) and 1, 2, ... (levels of 16, 32, ... nodes), none past the bound
    kept = sorted(resurgence._NODE_TABLE)
    assert kept == list(range(len(kept)))
    assert 16 << (len(kept) - 2) == min(most, table_nodes)


@pytest.mark.parametrize("t", ORACLE_GRID + [Fraction(3), Fraction(10**3), Fraction(10**12)])
def test_borel_fixed_point_sum_keeps_working_precision(t):
    # the integer node sum keeps the 40-digit working precision
    with mp.workdps(40):
        got = borel_sum(t, "1e-30").value
        want = exp_e1_oracle(t)
        assert abs(got - want) <= mp.mpf("1e-36") * want


def mpf_trapezoid(t, nodes):
    """The plain trapezoid rule of borel_sum's integrand on nodes + 1 points, all in mpf."""
    with mp.workdps(40):
        tv, h = mp.mpf(t), mp.mpf(10) / nodes

        def g(w):
            u = mp.exp(w - mp.exp(-w))
            return mp.exp(-u) * tv / (1 + tv * u) * u * (1 + mp.exp(-w))

        ends = (g(mp.mpf(-5)) + g(mp.mpf(5))) / 2
        return h * (ends + mp.fsum(g(-5 + i * h) for i in range(1, nodes)))


@pytest.mark.parametrize(
    "t, tol, nodes",
    [("1e-9999999", "1e-10", 64), ("1e-300", "1e-10", 64), ("1e-300", "1e-16", 128),
     ("1e-40", "1e-10", 64),
     ("1e-40", "1e-16", 128), ("1e60", "1e-10", 2048)],
)
def test_borel_fixed_point_sum_at_extreme_t(t, tol, nodes):
    # s = 1/t from 1e9999999 down to 1e-60: the quotients keep their bits at both ends
    result = borel_sum(t, tol)
    assert result.method == f"borel(nodes={nodes})"
    plain = mpf_trapezoid(t, nodes)
    assert abs(result.value - plain) <= mp.mpf("1e-36") * plain


def test_borel_rejects_nonpositive_t():
    with pytest.raises(DomainError):
        borel_sum(0)
    with pytest.raises(DomainError):
        borel_sum(Fraction(-1, 2))


def test_unparsable_reals_are_domain_errors():
    with pytest.raises(DomainError, match="cannot parse real"):
        borel_sum("abc")
    with pytest.raises(DomainError, match="cannot parse real"):
        borel_sum(Fraction(1, 2), tol="xyz")
    with pytest.raises(DomainError, match="cannot parse real"):
        general_solution(Fraction(1, 2), "q")


def test_borel_unreachable_tolerance_raises_with_achieved():
    with pytest.raises(AccuracyError) as exc:
        borel_sum(Fraction(1, 2), tol=Fraction(1, 10**60))
    assert exc.value.achieved is not None
    assert exc.value.achieved > 0


def test_superasymptotic_agreement():
    # |S_{m*} - y_B| is exponentially small in 1/t
    for t in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)):
        with mp.workdps(40):
            m_star = optimal_truncation_index(t)
            s = euler_series_partial(t, m_star).value
            y = borel_sum(t).value
            gap = abs(s - y)
            bound = 10 * mp.e ** (-mp.mpf(t.denominator) / mp.mpf(t.numerator))
            assert gap <= bound


# ---------------------------------------------------------------------------
# General solution and the exponential sector
# ---------------------------------------------------------------------------


def test_general_solution_reduces_to_borel_at_a0():
    with mp.workdps(30):
        assert general_solution(Fraction(1, 2), 0).value == borel_sum(Fraction(1, 2)).value


def test_general_solution_frozen_value():
    with mp.workdps(30):
        got = general_solution(Fraction(1, 2), 1).value
        want = borel_sum(Fraction(1, 2)).value + mp.e**2
        assert mp.almosteq(got, want, rel_eps=mp.mpf("1e-20"))
        assert mp.nstr(got, 6) == "7.75038"


def test_general_solution_growth_guard():
    with pytest.raises(RangeError):
        general_solution(Fraction(1, 10**7), 1)


def test_homogeneous_term_residual():
    # a*e^(1/t) solves t^2 y' = -y exactly; so in t^2 y' = t - y the full
    # general solution keeps the same residual scale as the Borel sum
    for t in (Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(2)):
        res = ode_residual(lambda u: general_solution(u, 1).value, t, Fraction(1, 10**4))
        # central-difference truncation error grows with e^(1/t); stay modest
        assert res < mp.mpf("1e-3")


# ---------------------------------------------------------------------------
# ODE residual gauge
# ---------------------------------------------------------------------------


def test_residual_of_zero_function():
    res = ode_residual(lambda u: mp.mpf(0), 1, Fraction(1, 10**4))
    assert mp.almosteq(res, mp.mpf(1), rel_eps=mp.mpf("1e-6"))


def test_residual_of_partial_sum_is_omitted_term_scale():
    t = Fraction(1, 2)
    res = ode_residual(lambda u: euler_series_partial(u, 2).value, t, Fraction(1, 10**4))
    with mp.workdps(30):
        omitted = 6 * mp.mpf(0.5) ** 4
        assert res < 2 * omitted


def test_residual_requires_valid_step():
    with pytest.raises(DomainError):
        ode_residual(lambda u: mp.mpf(0), Fraction(1, 10), Fraction(1, 5))


# ---------------------------------------------------------------------------
# Exact symbolic defect of S_N
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(13))
def test_truncated_series_defect_closed_form(n):
    defect = truncated_series_defect(n)
    expected = RationalPolynomial.of(
        *([0] * (n + 2) + [(-1) ** (n + 1) * factorial(n + 1)])
    )
    assert defect == expected


def test_defect_matches_numeric_residual():
    # the symbolic defect evaluated at t must equal t - S - t^2 S' numerically
    n, t = 4, Fraction(1, 3)
    s = EulerSeries.up_to(n).as_polynomial()
    lhs = (Fraction(1, 3)) - s(t) - t**2 * s.derivative()(t)
    assert lhs == truncated_series_defect(n)(t)


@pytest.mark.parametrize("t", ["1e61", 10**60 + 10**30, Fraction(10**70, 3), "inf"])
def test_quadrature_refuses_t_above_its_limit(t):
    with pytest.raises(ResourceLimitError, match="quadrature limit"):
        borel_sum(t)
    with pytest.raises(ResourceLimitError, match="quadrature limit"):
        general_solution(t, 1)


@pytest.mark.parametrize("t", ["1e60", 10**60])
def test_quadrature_admits_t_at_its_limit(t):
    result = borel_sum(t)
    assert result.method == "borel(nodes=2048)"
    # y_B(t) = exp(x) E1(x) at x = 1/t, here mpmath's E1 read directly.  The window
    # w >= -5 starts at u = exp(-5 - e**5) ~ 2.5e-67 and drops about t times
    # that, 2.5e-7 here: an open accuracy item, so only 1e-8 is asserted.
    with mp.workdps(40):
        x = 1 / mp.mpf(t)
        want = mp.exp(x) * mp.e1(x)
    assert abs(result.value - want) < 1e-8 * want


@pytest.mark.parametrize("t", ["3", "1e30", "1e9999999", Fraction(5, 2)])
def test_large_t_truncates_at_order_0(t):
    assert optimal_truncation_index(t, limit=MAX_SERIES_ORDER) == 0
