"""Digit-by-digit Hensel lifting of simple polynomial roots mod p**k.

A root x0 of f mod p with f'(x0) != 0 mod p lifts uniquely: at step i the
next digit is ``b_i = -(f(x_{i-1}) / p**i) * f'(x0)**-1 mod p``, giving
residues with ``f(x_i) == 0 mod p**(i+1)`` and the coherence condition
``x_i == x_{i-1} mod p**i``.  The inverse of f'(x0) mod p is computed once;
for a simple root f'(x_i) stays congruent to it.

The linear one-digit-at-a-time scheme is the primary algorithm; a quadratic
Newton iteration (precision doubling) is provided as a fast path and must
reproduce the same digits — the test suite compares the two.

Polynomials are given as integer coefficient sequences, index i = the
coefficient of x**i (a ``RationalPolynomial`` with integer entries is also
accepted).  Evaluation mod p**k, the derivative and the base-p digits of a
residue come from the shared helpers in ``padic_core``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotARootError, SingularRootError
from .padic_core import (
    PadicNumber,
    RationalPolynomial,
    Valuation,
    _digits,
    _int_valuation,
    _poly_derivative,
    _poly_eval,
    require_prime,
)

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _int_coeffs(f) -> tuple[int, ...]:
    if isinstance(f, RationalPolynomial):
        if any(c.denominator != 1 for c in f.coefficients):
            raise DomainError("lifting needs integer coefficients")
        coeffs = tuple(int(c) for c in f.coefficients)
    else:
        coeffs = tuple(int(c) for c in f)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@dataclass(frozen=True)
class LiftTrace:
    """Digits b_i and residues x_i = sum_{j<=i} b_j p**j of a lift."""

    p: int
    f: tuple[int, ...]
    digits: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.p)
        if len(self.digits) != len(self.residues):
            raise DomainError("digit and residue vectors must have equal length")

    @property
    def k(self) -> int:
        """Final exponent: the last residue is a root mod p**(k+1)."""
        return len(self.residues) - 1

    @property
    def root(self) -> int:
        return self.residues[-1]

    def as_padic(self, r: int | None = None) -> PadicNumber:
        """The lifted root as a p-adic number to r digits (default: all)."""
        r = len(self.digits) if r is None else r
        if not 1 <= r <= len(self.digits):
            raise DomainError(f"trace guarantees only {len(self.digits)} digits")
        x = self.residues[-1] % self.p**r
        if x == 0:
            return PadicNumber.zero(self.p, r)
        v = _int_valuation(x, self.p)
        return PadicNumber(self.p, Valuation(v), _digits(x // self.p**v, self.p, r - v))

    def render_sum(self) -> str:
        """Textbook-style sum of digit terms, e.g. ``3 + 7·1 + 7²·2``."""
        parts = [str(self.digits[0])]
        for i, b in enumerate(self.digits[1:], start=1):
            if b == 0:
                continue
            power = str(self.p) if i == 1 else f"{self.p}{str(i).translate(_SUPERSCRIPTS)}"
            parts.append(f"{power}·{b}")
        return " + ".join(parts)


def roots_mod_p(f, p: int) -> list[int]:
    """All residues x in [0, p) with f(x) == 0 mod p, by exhaustion."""
    require_prime(p)
    coeffs = _int_coeffs(f)
    if all(c % p == 0 for c in coeffs):
        raise DomainError(f"f vanishes identically mod {p}; every residue is a root")
    return [x for x in range(p) if _poly_eval(coeffs, x, p) == 0]


def hensel_lift(f, x0: int, p: int, k: int, method: str = "digit") -> LiftTrace:
    """Lift the simple root x0 of f mod p to a root mod p**(k+1).

    ``method`` selects the linear digit-by-digit scheme (default) or the
    quadratic ``"newton"`` fast path; both yield identical traces.
    """
    require_prime(p)
    if k < 0:
        raise DomainError("target exponent must be >= 0")
    coeffs = _int_coeffs(f)
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
        residues = _lift_linear(coeffs, x0, p, k, pow(d0, -1, p))
    elif method == "newton":
        residues = _lift_newton(coeffs, x0, p, k)
    else:
        raise DomainError(f"unknown lifting method {method!r}")
    # residues[i] is residues[-1] mod p**(i+1), so the digits are its base-p digits
    return LiftTrace(p, coeffs, _digits(residues[-1], p, k + 1), tuple(residues))


def _lift_linear(coeffs, x0: int, p: int, k: int, inv_d0: int) -> list[int]:
    residues = [x0]
    x = x0
    for i in range(1, k + 1):
        m = p ** (i + 1)
        fx = _poly_eval(coeffs, x, m)
        b = (-(fx // p**i) * inv_d0) % p
        x = x + b * p**i
        residues.append(x)
    return residues


def _lift_newton(coeffs, x0: int, p: int, k: int) -> list[int]:
    # precision doubling: x <- x - f(x)/f'(x) mod p**(2e), then read the
    # intermediate residues back off the final one
    deriv = _poly_derivative(coeffs)
    x, e = x0, 1
    while e < k + 1:
        e = min(2 * e, k + 1)
        m = p**e
        fx = _poly_eval(coeffs, x, m)
        dx = _poly_eval(deriv, x, m)
        x = (x - fx * pow(dx, -1, m)) % m
    return [x % p ** (i + 1) for i in range(k + 1)]


def sqrt_padic(a: int, p: int, r: int) -> list[PadicNumber]:
    """The square roots of a in Z_p to r digits (empty for non-residues).

    Requires odd p and gcd(a, p) = 1; the two roots, when they exist, are
    negatives of each other.
    """
    require_prime(p)
    if p == 2:
        raise DomainError("square-root lifting needs an odd prime")
    if r < 1:
        raise DomainError("precision must be at least one digit")
    if a % p == 0:
        raise DomainError(f"gcd(a, {p}) must be 1")
    f = (-a, 0, 1)  # x**2 - a
    return [hensel_lift(f, x0, p, r - 1).as_padic(r) for x0 in roots_mod_p(f, p)]
