"""The Euler flow equation t**2 y' = t - y and its divergent series solution.

The formal solution y = sum of (-1)**m m! t**(m+1) diverges for every
nonzero t.  Three evaluation routes are provided and cross-checked:

* exact-coefficient partial sums, with the first omitted term as the error
  estimate and optimal (smallest-term) truncation;
* Borel-Laplace summation, y_B(t) = integral over s >= 0 of
  exp(-s/t)/(1+s): after s = t*u the weight is exactly exp(-u), and a
  double-exponential substitution u = exp(w - exp(-w)) turns the Laplace
  integral into a trapezoid sum whose node count doubles until two
  successive estimates agree;
* an independent oracle for the same value via y_B(t) = exp(x) E1(x) at
  x = 1/t: the power series of E1 for x < 1, and for x >= 1 the modified
  Lentz scheme on the classical fraction 1/(x+1- 1/(x+3- 4/(x+5- ...))) in
  which the exponentials cancel, so nothing overflows.

The quadrature and the oracle are deliberately separate code paths; the
test suite requires them to agree.  The defect of a truncated series in the
equation, (t - y) - t**2 y', collapses symbolically to the single monomial
(-1)**(N+1) (N+1)! t**(N+2) — the omitted-term tail — and that cancellation
is recomputed here with exact polynomial arithmetic rather than assumed.

Floating work happens in mpmath at one precision, 40 digits, except the
quadrature's node sum, which runs in exact integers: each node's integrand is
P/(s + u) with s = 1/t, each node adds one floor division, and the sum becomes
an ``mpf`` once per level.  The t-free ints P and u of every node (three
exponentials, kept at 400 fractional bits) are computed once per process and
kept in a table bounded to levels of at most ``TABLE_NODES`` nodes, as in
Bailey, Jeyabalan & Li (2005); deeper levels are recomputed.  Each halving of
the trapezoid step reuses the old nodes, and the truncation index is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil

from mpmath import mp, mpf

from .errors import (AccuracyError, DomainError, RangeError, ResourceLimitError,
                     max_str_digits, quoted)
from .padic_core import RationalPolynomial, _poly_eval, _trusted

#: Working precision of every mpmath evaluation (significant decimal digits).
WORKING_DPS = 40
DEFAULT_TOL = "1e-10"
#: Highest series order; each partial sum of order N costs O(N**2) digit work.
MAX_SERIES_ORDER = 500
#: e**(1/t) is refused as a summand below this t.
GROWTH_GUARD_T = Fraction(1, 10**6)
#: The quadrature is refused above this t: at the default tol t = 1e60 converges
#: with 2048 nodes, 1e62 needs 32768, and from 1e64 up no level reaches it.
MAX_QUADRATURE_T = 10**60


def _unparsable(t, exc: Exception) -> DomainError | ResourceLimitError:
    """The error for a real ``t`` that failed to parse with ``exc``."""
    if "integer string conversion" in str(exc):  # CPython's int-from-str digit limit
        limit = max_str_digits()
        return ResourceLimitError(f"real literal {quoted(t)} exceeds {limit} decimal digits")
    return DomainError(f"cannot parse real {quoted(t)}")


def _to_mp(t):
    if isinstance(t, Fraction):
        return mpf(t.numerator) / t.denominator
    try:
        return mpf(t)
    except ValueError as exc:
        raise _unparsable(t, exc) from None


def _require_positive(t) -> mpf:
    t = _to_mp(t)
    if not t > 0:
        raise DomainError("t must be positive")
    return t


@dataclass(frozen=True)
class EulerSeries:
    """Coefficients c_m = (-1)**m * m! of t**(m+1), materialized exactly."""

    order: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self != EulerSeries.up_to(self.order):
            raise DomainError("the coefficients must be (-1)**m * m! for m = 0, ..., order")

    @classmethod
    def up_to(cls, order: int) -> "EulerSeries":
        if type(order) is not int:
            raise DomainError(f"the series order must be an int, got {type(order).__name__}")
        if order < 0:
            raise DomainError("order must be >= 0")
        if order > MAX_SERIES_ORDER:
            # CPython won't print an int of over 4300 digits; 10**30 keeps the message short
            shown = order if order < 10**30 else f"of {order.bit_length()} bits"
            raise ResourceLimitError(f"series order {shown} exceeds the limit {MAX_SERIES_ORDER}")
        cs = [1]
        for m in range(1, order + 1):
            cs.append(-cs[-1] * m)
        return _trusted(cls, order=order, coefficients=tuple(cs))

    def as_polynomial(self) -> RationalPolynomial:
        """The partial sum S_N(t) as an exact polynomial in t."""
        return RationalPolynomial.of(0, *self.coefficients)


@dataclass(frozen=True)
class SummationResult:
    """A value for y(t) together with how it was produced."""

    value: mpf
    method: str
    error_estimate: mpf


def euler_series_partial(t, order: int) -> SummationResult:
    """S_N(t) with exact coefficients; error estimate = first omitted term."""
    series = EulerSeries.up_to(order)
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        value = _poly_eval(series.coefficients, tv) * tv
        omitted = mp.factorial(order + 1) * tv ** (order + 2)
        return SummationResult(value, f"partial_sum(N={order})", omitted)


def euler_partial_sums(t, order: int) -> list[mpf]:
    """S_0(t), ..., S_N(t) with exact coefficients, as one running sum."""
    coefficients = EulerSeries.up_to(order).coefficients
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        return list(accumulate(c * tv ** (m + 1) for m, c in enumerate(coefficients)))


def optimal_truncation_index(t, limit: int | None = None) -> int:
    """The first index minimizing the term magnitude m! * t**(m+1).

    Term m+1 is (m+1)*t times term m, so the first minimizer is ceil(1/t) - 1
    on the exact rational ``t`` (as ``Fraction`` reads it); on the ties
    t = 1/k that is the smaller index.  Given ``limit``, a t below
    1/(2*limit + 2), whose index is far above it, is refused from its 40-digit
    value before the exact rational (10**9999999 for 1e-9999999) is built,
    and a t above 2, whose index is 0, is answered from that value alike.
    """
    if limit is not None:
        with mp.workdps(WORKING_DPS):
            tv = _require_positive(t)
            if tv * (2 * limit + 2) < 1:
                raise ResourceLimitError(
                    f"t = {quoted(t)} needs a series order above the limit {limit}"
                )
            if tv > 2:
                return 0
    try:
        tq = Fraction(t)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _unparsable(t, exc) from None
    if not tq > 0:
        raise DomainError("t must be positive")
    return ceil(1 / tq) - 1


#: Half-width of the trapezoid interval in w, and the node count of its first level.
_WIDTH, _FIRST_NODES = 5, 16
#: Fractional bits of the fixed-point node ints.  s = 1/t reaches down to
#: 1/MAX_QUADRATURE_T = 1e-60 (2**-199) and the w = -5 node has u = 2.5e-67
#: (2**-222); at 400 bits each keeps over 140 of its own, past the 136-bit
#: mantissa of a 40-digit value, so the table's ints hold those values exactly.
_FRAC_BITS = 400
#: Each node's quotient P/(s + u) is summed at 2**-E, E = this + k, k the number of
#: bits of s above 1; s and u are cut to 400 - k fractional bits, so the divisor
#: keeps about 400 bits and no int grows with the exponent of t.
_QUOTIENT_BITS = 140
#: Node parts of trapezoid levels up to this many nodes are kept (~0.4 MB).
TABLE_NODES = 2048
#: key -> node parts: 0 the two ends, j >= 1 the new nodes of the level with
#: 8 * 2**j nodes (all 15 interior ones at j = 1, then the odd ones).
_NODE_TABLE: dict[int, tuple[tuple[int, int], ...]] = {}


def _fixed(x) -> int:
    """x as an int at _FRAC_BITS fractional bits, truncated."""
    return int(mp.ldexp(x, _FRAC_BITS))


def _node_part(w):
    """(P, u) in fixed point at u = exp(w - exp(-w)), P = exp(-u) * u * (1 + exp(-w)).

    With s = 1/t the integrand is P/(s + u), so this is its whole t-free part.
    """
    ew = mp.exp(-w)
    u = mp.exp(w - ew)
    return _fixed(mp.exp(-u) * u * (1 + ew)), _fixed(u)


def _node_parts(key):
    """The node parts of one table key, from the table while it keeps them.

    Call it under ``mp.workdps(WORKING_DPS)``: the table holds values at that precision.
    """
    if key in _NODE_TABLE:
        return _NODE_TABLE[key]
    width, n = mpf(_WIDTH), _FIRST_NODES << max(key - 1, 0)
    if key == 0:
        nodes = (-width, width)
    else:
        h = 2 * width / n
        nodes = (-width + i * h for i in range(1, n, 1 if key == 1 else 2))
    parts = map(_node_part, nodes)
    if n > TABLE_NODES:
        return parts  # a deep level is computed on each call, not stored
    return _NODE_TABLE.setdefault(key, tuple(parts))


def borel_sum(t, tol=DEFAULT_TOL) -> SummationResult:
    """Borel-Laplace value of the series by double-exponential quadrature.

    Integrates exp(-u) * t/(1 + t*u) over u >= 0 with the substitution
    u = exp(w - exp(-w)), trapezoid on w in [-5, 5], doubling the node
    count until two successive estimates agree to ``tol`` (relative).
    Each node's integrand is P/(s + u) with s = 1/t, summed in integers of
    about 400 bits whatever t is, by one floor division per node; the sum
    becomes an ``mpf`` once per level.
    The t-free ints P and u are computed once per process for levels up to
    ``TABLE_NODES`` nodes and recomputed beyond them.  A t above
    ``MAX_QUADRATURE_T`` is refused before any node.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        if tv > MAX_QUADRATURE_T:
            raise ResourceLimitError(f"t = {quoted(t)} exceeds the quadrature limit 1e60")
        tolv = _to_mp(tol)
        x = 1 / tv
        k = max(0, mp.frexp(x)[1])  # the bits of s = 1/t above 1
        s = int(mp.ldexp(x, _FRAC_BITS - k))
        shift = _QUOTIENT_BITS + k

        def node_sum(parts):  # the sum of P/(s + u) over the parts, at 2**-shift
            return sum([(p << _QUOTIENT_BITS) // (s + (u >> k)) for p, u in parts])

        ends = node_sum(_node_parts(0))
        n, h = _FIRST_NODES, 2 * mpf(_WIDTH) / _FIRST_NODES
        total, prev = 0, None  # the interior nodes' sum
        for key in range(1, 15):  # 16, 32, ..., 16 * 2**13 nodes
            # every interior node first; after each halving only the odd ones
            total += node_sum(_node_parts(key))
            est = h * mp.ldexp(ends + 2 * total, -shift - 1)
            if prev is not None:
                # never certify below what the working precision resolves
                certifiable = max(abs(est - prev), mp.eps * abs(est))
                if certifiable <= tolv * abs(est):
                    return SummationResult(est, f"borel(nodes={n})", certifiable)
                if abs(est - prev) <= 4 * mp.eps * abs(est):
                    # estimates already agree to working precision; more
                    # nodes cannot close the remaining gap to tol
                    raise AccuracyError(
                        f"tol={tol} is below the working precision at dps={WORKING_DPS}",
                        achieved=certifiable,
                    )
            prev, n, h = est, 2 * n, h / 2
        raise AccuracyError(
            f"quadrature did not reach tol={tol} within {n // 2} nodes",
            achieved=abs(est - prev),
        )


def exp_e1_oracle(t) -> mpf:
    """exp(x)*E1(x) at x = 1/t by a power series for x < 1, else a continued fraction.

    For x < 1, E1(x) = -gamma - ln x - sum over k >= 1 of (-x)**k / (k k!)
    (Abramowitz & Stegun 5.1.11); for x >= 1, modified Lentz evaluation of
    x+1 - 1/(x+3 - 4/(x+5 - 9/(...))) (5.1.22), whose reciprocal is exp(x)E1(x).
    This shares no code with the quadrature and serves as its independent oracle.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        x = 1 / tv
        if x < 1:
            total, term, k = mpf(0), mpf(1), 0
            while abs(term) >= mp.eps:
                k += 1
                term *= -x / k  # (-x)**k / k!
                total += term / k
            return mp.exp(x) * (-mp.euler - mp.log(x) - total)
        tiny = mpf(10) ** (-2 * mp.dps)
        eps = mpf(10) ** (-mp.dps + 2)
        f = c = x + 1
        d = mpf(0)
        for k in range(1, 100000):
            a = mpf(-(k * k))
            b = x + 2 * k + 1
            d = b + a * d
            if d == 0:
                d = tiny
            c = b + a / c
            if c == 0:
                c = tiny
            d = 1 / d
            delta = c * d
            f *= delta
            if abs(delta - 1) < eps:
                return 1 / f
        raise AccuracyError("continued fraction did not converge")


def general_solution(t, a, tol=DEFAULT_TOL) -> SummationResult:
    """borel_sum(t) + a * exp(1/t): the two-parameter family of solutions.

    The homogeneous term satisfies t**2 y' = -y identically.  For very
    small t with a != 0 the exponential dwarfs every other scale, so the
    evaluation is refused rather than returned as noise; at a = 0 the
    exponential, slow to evaluate at t = 1e-99999, is not computed.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        av = _to_mp(a)
        if av != 0 and tv < _to_mp(GROWTH_GUARD_T):
            raise RangeError(
                f"exp(1/t) at t={t} exceeds any usable scale; "
                "pass a=0 or t >= 1e-6"
            )
        base = borel_sum(t, tol=tol)
        value = base.value + av * mp.exp(1 / tv) if av != 0 else base.value
        return SummationResult(value, f"general(a={av})", base.error_estimate)


def ode_residual(y, t, h="1e-4") -> mpf:
    """|t**2 * (central difference of y) - (t - y(t))| at step h, y a callable."""
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        hv = _to_mp(h)
        if not 0 < hv < tv:
            raise DomainError("need 0 < h < t")
        lo, mid, hi = y(tv - hv), y(tv), y(tv + hv)
        slope = (hi - lo) / (2 * hv)
        return abs(tv**2 * slope - (tv - mid))


def truncated_series_defect(order: int) -> RationalPolynomial:
    """(t - S_N) - t**2 S_N' computed with exact polynomial arithmetic.

    Everything telescopes away except the omitted-term monomial
    (-1)**(N+1) (N+1)! t**(N+2).
    """
    s = EulerSeries.up_to(order).as_polynomial()
    t = RationalPolynomial.of(0, 1)
    t_squared = RationalPolynomial.of(0, 0, 1)
    return (t - s) - t_squared * s.derivative()
