"""Hensel lifting of simple polynomial roots mod p**k.

A root x0 of f mod p with f'(x0) != 0 mod p lifts uniquely to roots x_i of f
mod p**(i+1) with the coherence condition ``x_i == x_{i-1} mod p**i``.  Newton
iteration doubles the precision, ``x <- x - f(x)/f'(x) mod p**(2e)``; it is the
route ``hensel_lift``, the CLI and ``sqrt_padic`` take.  The linear digit scheme
(``method="digit"``) is the reference the tests compare it with.  It carries
the Taylor coefficients of ``g_i(y) = f(x_{i-1} + p**i*y) / p**i`` mod
p**(k+1-i): step i reads the digit ``b_i = -g_i(0) * f'(x0)**-1 mod p``, the
inverse computed once, as g_i'(0) = f'(x_{i-1}) stays congruent to f'(x0) for
a simple root; then ``g_{i+1}(y) = g_i(b_i + p*y) / p``, a Taylor shift by
the digit.  Coefficient j of g_i carries a factor p**(i*(j-1)), so it is
dropped once that factor reaches p**(k+1-i); past step k/2 only g(0) and
g'(0) remain.  A lift of high degree against k first lifts about sqrt(k)
digits the same way, then expands f at that root, where fewer coefficients
can reach a digit.

A lift returns only the root mod p**(k+1); ``LiftTrace`` reads the digits b_i
and the residues x_i = root mod p**(i+1) off it.  Work is bounded before it
starts: a lift of either method by ``_check_lift_work``, a root scan by p * terms.

Polynomials are given as integer coefficient sequences, index i = the
coefficient of x**i (a ``RationalPolynomial`` with integer entries, and a
``Fraction`` equal to an integer, are also accepted).  Evaluation mod p**k,
the derivative and the base-p digits of a residue come from the shared
helpers in ``padic_core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import index

from .errors import DomainError, NotARootError, ResourceLimitError, SingularRootError, quoted
from .padic_core import (
    PadicNumber,
    RationalPolynomial,
    _digits,
    _poly_derivative,
    _poly_eval,
    _require_precision,
    _trim,
    _trusted,
    require_prime,
)

#: roots_mod_p runs Horner on every residue mod p: it refuses p * terms steps past this.
ROOT_SCAN_LIMIT = 3 * 2**20
#: Work units a Newton lift may take (``_check_lift_work``), ~8 ps each on a 2-vCPU host.
_LIFT_WORK = 10**11
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_LIFT_RANGE = "a lift needs int coefficients, an int k >= 0 and an int root in [0, p**(k+1))"


def _integer(c, what: str = "integer coefficients") -> int:
    try:
        return index(c)  # an int, never a float or a fraction cut to one
    except TypeError:
        if isinstance(c, Fraction) and c.denominator == 1:
            return c.numerator
        raise DomainError(f"lifting needs {what}") from None


def _int_coeffs(f) -> tuple[int, ...]:
    if isinstance(f, RationalPolynomial):
        if f.den != 1:
            raise DomainError("lifting needs integer coefficients")
        return f.nums  # canonical: no trailing zero
    return _trim(map(_integer, f))


@dataclass(frozen=True)
class LiftTrace:
    """A lift of a simple root: ``root`` is the root mod p**(k+1)."""

    p: int
    f: tuple[int, ...]
    k: int
    root: int

    def __post_init__(self):
        require_prime(self.p)
        p, k, root, f = self.p, self.k, self.root, self.f
        if not (isinstance(f, tuple) and all(isinstance(x, int) for x in (k, root, *f))
                and 0 <= k and 0 <= root < p ** (k + 1)):
            raise DomainError(_LIFT_RANGE)
        if _poly_eval(f, root, p ** (k + 1)) or not _poly_eval(_poly_derivative(f), root, p):
            raise DomainError(f"root must be a simple root of f mod {p}**{k + 1}")

    @property
    def digits(self) -> tuple[int, ...]:
        """The digits b_0, ..., b_k: the base-p digits of the root."""
        return _digits(self.root, self.p, self.k + 1)

    @property
    def residues(self) -> tuple[int, ...]:
        """The residues x_i = sum_{j<=i} b_j p**j = root mod p**(i+1)."""
        return tuple(accumulate(b * self.p**i for i, b in enumerate(self.digits)))

    def as_padic(self, r: int) -> PadicNumber:
        """The lifted root as a p-adic number to r digits."""
        if not 1 <= r <= self.k + 1:
            raise DomainError(f"trace guarantees only {self.k + 1} digits")
        return PadicNumber._from_residue(self.p, self.root, r)

    def render_sum(self) -> str:
        """Textbook-style sum of digit terms, e.g. ``3 + 7·1 + 7²·2``."""
        first, *rest = self.digits
        parts = [str(first)]
        for i, b in enumerate(rest, start=1):
            if b == 0:
                continue
            power = str(self.p) if i == 1 else f"{self.p}{str(i).translate(_SUPERSCRIPTS)}"
            parts.append(f"{power}·{b}")
        return " + ".join(parts)


def roots_mod_p(f, p: int) -> list[int]:
    """All residues x in [0, p) with f(x) == 0 mod p, by exhaustion."""
    require_prime(p)
    coeffs = _int_coeffs(f)
    if p * len(coeffs) > ROOT_SCAN_LIMIT:
        raise ResourceLimitError(f"root scan: p * terms > {ROOT_SCAN_LIMIT}, p = {quoted(p)}")
    if all(c % p == 0 for c in coeffs):
        raise DomainError(f"f vanishes identically mod {p}; every residue is a root")
    return [x for x in range(p) if _poly_eval(coeffs, x, p) == 0]


def hensel_lift(f, x0: int, p: int, k: int, method: str = "newton") -> LiftTrace:
    """Lift the simple root x0 of f mod p to a root mod p**(k+1).

    ``method`` selects quadratic Newton iteration (default) or the linear
    ``"digit"`` reference scheme; both return the same root.
    """
    require_prime(p)
    k, x0 = _integer(k, "an integer k"), _integer(x0, "an integer x0")
    if k < 0:
        raise DomainError(_LIFT_RANGE)
    coeffs = _int_coeffs(f)
    _check_lift_work(p, k, len(coeffs))
    x0 %= p
    if _poly_eval(coeffs, x0, p) != 0:
        raise NotARootError(f"{x0} is not a root of f mod {p}")
    deriv = _poly_derivative(coeffs)
    d0 = _poly_eval(deriv, x0, p)
    if d0 == 0:
        raise SingularRootError(
            f"f'({x0}) == 0 mod {p}: the simple-root scheme does not apply"
        )
    if method == "digit":
        root = _lift_linear(coeffs, x0, p, k, pow(d0, -1, p))
    elif method == "newton":
        root = _lift_newton(coeffs, deriv, x0, p, k)
    else:
        raise DomainError(f"unknown lifting method {method!r}")
    return _trusted(LiftTrace, p=p, f=coeffs, k=k, root=root)


def _check_lift_work(p: int, k: int, terms: int) -> None:
    """Refuse, before any lift, a Newton lift of over _LIFT_WORK units.

    A doubling step to p**e runs Horner on f and f' (``terms`` products of
    L = bitlen(p**e) bits, quadratic in L) and inverts f'; it costs about a
    quarter of the next, so all cost under twice the last one, at e = k + 1.
    """
    bits = (k + 1) * (p.bit_length() - 1) + 1  # <= L: a huge k is refused before p**(k+1)
    if (terms + 16) * (bits + 256) ** 2 <= _LIFT_WORK:
        bits = (p ** (k + 1)).bit_length()
    if (terms + 16) * (bits + 256) ** 2 > _LIFT_WORK:
        raise ResourceLimitError(
            f"a Newton lift of {terms} terms to p**{k + 1} exceeds {_LIFT_WORK:.0e} work units"
        )


def _lift_linear(coeffs, x0: int, p: int, k: int, inv_d0: int) -> int:
    # shifting g by a digit b < p costs int * small-int steps, not Horner's k-digit products
    if k == 0:
        return x0
    s = isqrt(k)
    if s > 1 and min(len(coeffs) - 1, k) > k // s + s:
        # high degree: f expanded at x_{s-1} needs only k//s + 1 coefficients,
        # and the lift to x_{s-1} costs about s more passes at low precision
        x = _lift_linear(coeffs, x0, p, s - 1, inv_d0)
    else:
        x, s = x0, 1
    m, ps = p ** (k + 1 - s), p**s
    t = _taylor_coeffs(coeffs, x, min(len(coeffs) - 1, k // s) + 1, p ** (k + 1))
    g = [t[0] // ps % m] + [c * ps ** (j - 1) % m for j, c in enumerate(t[1:], 1)]
    pp = [p**j for j in range(len(g))]
    neg_inv, power, i = -inv_d0 % p, ps, s  # g = g_i mod m = p**(k+1-i), power = p**i
    while len(g) > 2:
        b = g[0] % p * neg_inv % p
        x += b * power
        power *= p
        i += 1
        if b:
            for j in _shift_order(len(g) - 1):
                g[j] += b * g[j + 1]
        m //= p
        del g[k // i + 1:]  # i*(j-1) >= k+1-i: coefficient j is 0 mod m
        g[0] = g[0] // p % m
        for j in range(1, len(g)):
            g[j] = g[j] * pp[j - 1] % m
    # g_i(y) = g0 + g1*y from here, and g_{i+1}(0) = (g0 + b_i*g1) / p
    g0, g1 = g
    for _ in range(i, k + 1):
        b = g0 % p * neg_inv % p
        x += b * power
        power *= p
        g0 = (g0 + b * g1) // p
    return x


def _taylor_coeffs(coeffs, x: int, n: int, m: int) -> list[int]:
    """The first n Taylor coefficients of f at x, f(x + y) = sum t_j y**j, mod m.

    Pass j of the synthetic division by y - x leaves t_j as its remainder;
    an accumulator is reduced only once it outgrows m by 64 bits.
    """
    lim = m << 64
    q = [c % m for c in reversed(coeffs)]
    out = []
    for _ in range(n):
        acc = 0
        q = [acc := (acc if acc < lim else acc % m) * x + c for c in q]
        out.append(q.pop() % m)
    return out


@lru_cache(maxsize=64)
def _shift_order(d: int) -> tuple[int, ...]:
    # g(y) -> g(y + b) in place for degree d: g[j] += b * g[j + 1] in this order
    return tuple(j for r in range(d) for j in range(d - 1, r - 1, -1))


def _lift_newton(coeffs, deriv, x0: int, p: int, k: int) -> int:
    # precision doubling: x <- x - f(x)/f'(x) mod p**(2e)
    x, e = x0, 1
    while e < k + 1:
        e = min(2 * e, k + 1)
        m = p**e
        fx = _poly_eval(coeffs, x, m)
        dx = _poly_eval(deriv, x, m)
        x = (x - fx * pow(dx, -1, m)) % m
    return x


def sqrt_padic(a: int, p: int, r: int) -> list[PadicNumber]:
    """The square roots of a in Z_p to r digits (empty for non-residues).

    Requires odd p and gcd(a, p) = 1; the two roots, when they exist, are
    negatives of each other.
    """
    require_prime(p)
    if p == 2:
        raise DomainError("square-root lifting needs an odd prime")
    a, r = _integer(a, "an integer a"), _integer(r, "an integer r")
    _require_precision(p, r)
    if a % p == 0:
        raise DomainError(f"gcd(a, {p}) must be 1")
    f = (-a, 0, 1)  # x**2 - a
    _check_lift_work(p, r - 1, len(f))
    return [hensel_lift(f, x, p, r - 1).as_padic(r) for x in roots_mod_p(f, p)]
