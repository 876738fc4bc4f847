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
  x = 1/t: mpmath's exponential integral E1, and past x = 2**64 the first
  three terms of its asymptotic series.

The quadrature and the oracle are deliberately separate code paths; the
test suite requires them to agree.  The defect of a truncated series in the
equation, (t - y) - t**2 y', collapses symbolically to the single monomial
(-1)**(N+1) (N+1)! t**(N+2) — the omitted-term tail — and that cancellation
is recomputed here with exact polynomial arithmetic rather than assumed.

Floating work happens in mpmath at one precision, 40 digits, except the
quadrature's node sums, which run in exact integers: each node's integrand is
P/(s + u) with s = 1/t, and each node adds one floor division.  One pass
serves several (t, tol) requests, as the value and the residual of one CLI
request: requests at one t share its sums, and each level's nodes are read
once for all of them.  The levels before a request's last are passed on the
ints, where the difference of two estimates is exact; an ``mpf`` estimate is
built only where the stopping rule might end, so the values are those of a
loop that built one at every level.  The t-free ints P and u of every node
(three exponentials, kept at 400 fractional bits) are computed once per
process and kept in a table bounded to levels of at most ``TABLE_NODES``
nodes, as in Bailey, Jeyabalan & Li (2005); deeper levels are recomputed,
once per pass.  Each halving of the trapezoid step reuses the old nodes, and
the truncation index is exact.
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
#: Step and tolerance of the residual that ``borel_with_residual`` reports.
_RESIDUAL_STEP, _RESIDUAL_TOL = "1e-4", "1e-16"


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


def _point_at(t, tv) -> tuple[int, int]:
    """(s, k) at t: s = 1/t at 400 - k fractional bits, k >= 0 the bits of 1/t above 1.

    ``tv`` is t read at the working precision.  A t above ``MAX_QUADRATURE_T``
    is refused here, before any node.
    """
    if tv > MAX_QUADRATURE_T:
        raise ResourceLimitError(f"t = {quoted(t)} exceeds the quadrature limit 1e60")
    x = 1 / tv
    k = max(0, mp.frexp(x)[1])
    return int(mp.ldexp(x, _FRAC_BITS - k)), k


def _node_sums(parts, points):
    """The sum of P/(s + u) over the node parts at each point (s, k), at 2**-(140 + k)."""
    if isinstance(parts, tuple):
        return [sum([(p << _QUOTIENT_BITS) // (s + (u >> k)) for p, u in parts])
                for s, k in points]
    sums = [0] * len(points)  # a deep level: each node is computed once, for every point
    for p, u in parts:
        p <<= _QUOTIENT_BITS
        sums = [acc + p // (s + (u >> k)) for acc, (s, k) in zip(sums, points)]
    return sums


#: The rounding of the mpf estimates, their difference and its bounds stays far
#: inside 2**-_BAND_BITS of the estimates: a node-sum comparison decides only
#: outside that band.
_BAND_BITS = 120


def _surely_above(d, sums, prev, ratio) -> bool:
    """Whether |est_n - est_{n/2}| exceeds ratio * est_n beyond any rounding.

    ratio = man * 2**exp; d = S_n - 2 S_{n/2}, sums = S_n and prev = S_{n/2}
    are the exact node sums, and est_n = (10/n) 2**-(shift+1) S_n, so the
    common factor drops out.
    """
    man, exp = ratio
    lhs, rhs, err = abs(d), man * sums, sums + 2 * prev
    if exp < 0:
        lhs, err = lhs << -exp, err << -exp
    else:
        rhs <<= exp
    return lhs > rhs + ((err + rhs) >> _BAND_BITS)


def _estimates(n, k, sums, prev):
    """The mpf estimates at n and n/2 nodes, from their node sums at 2**-(140 + k)."""
    h, shift = mpf(2 * _WIDTH) / n, _QUOTIENT_BITS + k
    return h * mp.ldexp(sums, -shift - 1), 2 * h * mp.ldexp(prev, -shift - 1)


def _stopping_rule(n, est, last, tol, tolv):
    """borel_sum's rule at n nodes, in mpf: a result, an error, or None for more nodes."""
    gap, size = abs(est - last), abs(est)
    # never certify below what the working precision resolves
    certifiable = max(gap, mp.eps * size)
    if certifiable <= tolv * size:
        return SummationResult(est, f"borel(nodes={n})", certifiable)
    if gap <= 4 * mp.eps * size:
        # estimates already agree to working precision; more
        # nodes cannot close the remaining gap to tol
        return AccuracyError(
            f"tol={tol} is below the working precision at dps={WORKING_DPS}",
            achieved=certifiable,
        )
    return None


#: tol up to this is compared on the ints; a larger one only in mpf.
_INT_TOL_CAP = mpf(2**64)


def _borel_pass(requests) -> list:
    """One trapezoid pass for (point, tol, tolv) requests: a result or an AccuracyError each.

    Requests at one point share its exact node sums, and each level's node
    parts are read, or past ``TABLE_NODES`` computed, once for all points.
    Each request stops at its own first level that ``_stopping_rule`` accepts
    or refuses.  With S_n = ends + 2 * interior, est_n - est_{n/2} is
    (10/n) 2**-(shift+1) (S_n - 2 S_{n/2}), so a level at which that rule
    surely asks for more nodes (the difference exceeds both tol, or tol is
    below eps, and 4 eps) is passed on the ints; only the others build mpf.
    Call it under ``mp.workdps(WORKING_DPS)``.
    """
    points = list(dict.fromkeys(point for point, _, _ in requests))
    at = [points.index(point) for point, _, _ in requests]
    eps_man, eps_exp = mp.eps.man_exp
    floor = (4 * eps_man, eps_exp)
    below_eps = mp.eps - mp.ldexp(mp.eps, -_BAND_BITS)
    rules = []  # per request: tol surely below eps, and tol as man * 2**exp or None
    for _, _, tolv in requests:
        below = tolv < below_eps
        rules.append((below, tolv.man_exp if not below and tolv < _INT_TOL_CAP else None))
    ends = _node_sums(_node_parts(0), points)
    interior = [0] * len(points)
    out: list = [None] * len(requests)
    sums = None
    for key in range(1, 15):  # 16, 32, ..., 16 * 2**13 nodes
        live = sorted({at[i] for i, o in enumerate(out) if o is None})
        if not live:
            return out
        # every interior node first; after each halving only the odd ones
        for j, total in zip(live, _node_sums(_node_parts(key), [points[j] for j in live])):
            interior[j] += total
        sums, prev = [e + 2 * i for e, i in zip(ends, interior)], sums
        if prev is None:
            continue
        n, built = _FIRST_NODES << (key - 1), {}  # point -> its estimates at this level
        for i, j in enumerate(at):
            if out[i] is not None:
                continue
            d = sums[j] - 2 * prev[j]
            below, ratio = rules[i]
            if ((below or ratio is not None and _surely_above(d, sums[j], prev[j], ratio))
                    and _surely_above(d, sums[j], prev[j], floor)):
                continue
            if j not in built:
                built[j] = _estimates(n, points[j][1], sums[j], prev[j])
            out[i] = _stopping_rule(n, *built[j], *requests[i][1:])
    for i, j in enumerate(at):
        if out[i] is None:
            est, last = _estimates(n, points[j][1], sums[j], prev[j])
            out[i] = AccuracyError(
                f"quadrature did not reach tol={requests[i][1]} within {n} nodes",
                achieved=abs(est - last),
            )
    return out


def _settled(outcomes) -> list[SummationResult]:
    """The results, or the first request's error, raised."""
    for outcome in outcomes:
        if isinstance(outcome, AccuracyError):
            raise outcome
    return outcomes


def borel_sum(t, tol=DEFAULT_TOL) -> SummationResult:
    """Borel-Laplace value of the series by double-exponential quadrature.

    Integrates exp(-u) * t/(1 + t*u) over u >= 0 with the substitution
    u = exp(w - exp(-w)), trapezoid on w in [-5, 5], doubling the node
    count until two successive estimates agree to ``tol`` (relative).
    Each node's integrand is P/(s + u) with s = 1/t, summed in integers of
    about 400 bits whatever t is, by one floor division per node.  The
    levels that surely do not meet the stopping rule are passed on those
    ints; the value and its ``error_estimate`` are built in mpf at the level
    that does.  The t-free ints P and u are computed once per process for
    levels up to ``TABLE_NODES`` nodes and recomputed beyond them.  A t above
    ``MAX_QUADRATURE_T`` is refused before any node.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        point = _point_at(t, tv)
        (result,) = _settled(_borel_pass([(point, tol, _to_mp(tol))]))
        return result


def exp_e1_oracle(t) -> mpf:
    """exp(x)*E1(x) at x = 1/t (= U(1, 1, x), DLMF 6.11.2), from mpmath's E1.

    Past x = 2**64, where mpmath's E1 needs ln 2 to millions of bits, it is the
    asymptotic (1 - 1/x + 2/x**2)/x, whose first omitted term 6/x**4 is below
    1e-57 of the value.  This shares no code with the quadrature and serves as
    its independent oracle.
    """
    with mp.workdps(WORKING_DPS):
        x = 1 / _require_positive(t)
        return mp.exp(x) * mp.e1(x) if x <= 2**64 else (1 - (1 - 2 / x) / x) / x


def _homogeneous_term(t, tv, av):
    """a * exp(1/t), None at a = 0 (or no a); refused below ``GROWTH_GUARD_T``.

    For very small t with a != 0 the exponential dwarfs every other scale, so
    the evaluation is refused rather than returned as noise; at a = 0 the
    exponential, slow to evaluate at t = 1e-99999, is not computed.
    """
    if av is None or av == 0:
        return None
    if tv < _to_mp(GROWTH_GUARD_T):
        raise RangeError(f"exp(1/t) at t={t} exceeds any usable scale; pass a=0 or t >= 1e-6")
    return av * mp.exp(1 / tv)


def _plus(result: SummationResult, term) -> mpf:
    return result.value if term is None else result.value + term


def general_solution(t, a, tol=DEFAULT_TOL) -> SummationResult:
    """borel_sum(t) + a * exp(1/t): the two-parameter family of solutions.

    The homogeneous term satisfies t**2 y' = -y identically.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        av = _to_mp(a)
        term = _homogeneous_term(t, tv, av)
        base = borel_sum(t, tol=tol)
        return SummationResult(_plus(base, term), f"general(a={av})", base.error_estimate)


def _central_residual(tv, hv, lo, mid, hi) -> mpf:
    """|t**2 * (hi - lo)/(2h) - (t - mid)|, the residual at t of values at t - h, t, t + h."""
    slope = (hi - lo) / (2 * hv)
    return abs(tv**2 * slope - (tv - mid))


def ode_residual(y, t, h=_RESIDUAL_STEP) -> mpf:
    """|t**2 * (central difference of y) - (t - y(t))| at step h, y a callable."""
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        hv = _to_mp(h)
        if not 0 < hv < tv:
            raise DomainError("need 0 < h < t")
        return _central_residual(tv, hv, y(tv - hv), y(tv), y(tv + hv))


def borel_with_residual(t, tol=DEFAULT_TOL, a=None) -> tuple[SummationResult, mpf]:
    """y(t) at ``tol`` and its residual in the equation, from one quadrature pass.

    y is ``borel_sum``, or ``general_solution`` at ``a`` when one is given.
    The pass serves (t, tol) and the residual's (t - h, 1e-16), (t, 1e-16) and
    (t + h, 1e-16), h = 1e-4, and the result equals ``y(t, tol)`` followed by
    ``ode_residual(lambda s: y(s, 1e-16).value, t)``: the same values, the
    same residual, and the same error where either would raise one first.
    """
    with mp.workdps(WORKING_DPS):
        tv = _require_positive(t)
        av = None if a is None else _to_mp(a)
        terms = [_homogeneous_term(t, tv, av)]
        requests = [(_point_at(t, tv), tol, _to_mp(tol))]
        late = None  # an error that the composed calls meet after the quadratures before it
        try:
            hv = _to_mp(_RESIDUAL_STEP)
            if not 0 < hv < tv:
                raise DomainError("need 0 < h < t")
            rtol = _to_mp(_RESIDUAL_TOL)
            for s in (tv - hv, tv, tv + hv):
                terms.append(_homogeneous_term(s, s, av))
                requests.append((_point_at(s, s), _RESIDUAL_TOL, rtol))
        except (DomainError, ResourceLimitError) as exc:
            late = exc
        results = _settled(_borel_pass(requests))
        if late is not None:
            raise late
        first = results[0]
        if av is not None:
            first = SummationResult(_plus(first, terms[0]), f"general(a={av})",
                                    first.error_estimate)
        ys = [_plus(r, term) for r, term in zip(results[1:], terms[1:])]
        return first, _central_residual(tv, hv, *ys)


def truncated_series_defect(order: int) -> RationalPolynomial:
    """(t - S_N) - t**2 S_N' computed with exact polynomial arithmetic.

    Everything telescopes away except the omitted-term monomial
    (-1)**(N+1) (N+1)! t**(N+2).
    """
    s = EulerSeries.up_to(order).as_polynomial()
    t = RationalPolynomial.of(0, 1)
    t_squared = RationalPolynomial.of(0, 0, 1)
    return (t - s) - t_squared * s.derivative()
