"""Hensel lifting of simple polynomial roots mod p**k.

A root x0 of f mod p with f'(x0) != 0 mod p lifts uniquely to roots x_i of f
mod p**(i+1) with the coherence condition ``x_i == x_{i-1} mod p**i``.  Newton
iteration doubles the precision, ``x <- x - f(x)/f'(x) mod p**(2e)``; it is the
route ``hensel_lift``, the CLI and ``sqrt_padic`` take.  The linear digit scheme
(``method="digit"``) is the reference the tests compare it with: step i adds the
digit ``b_i = -(f(x_{i-1}) / p**i) * f'(x0)**-1 mod p``, the inverse computed
once, as f'(x_i) stays congruent to f'(x0) for a simple root.

A lift returns only the root mod p**(k+1); ``LiftTrace`` reads the digits
b_i and the residues x_i = root mod p**(i+1) off it.

Polynomials are given as integer coefficient sequences, index i = the
coefficient of x**i (a ``RationalPolynomial`` with integer entries is also
accepted).  Evaluation mod p**k, the derivative and the base-p digits of a
residue come from the shared helpers in ``padic_core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import DomainError, NotARootError, ResourceLimitError, SingularRootError
from .padic_core import (
    PadicNumber,
    RationalPolynomial,
    _digits,
    _poly_derivative,
    _poly_eval,
    require_prime,
)

#: roots_mod_p tries every residue mod p, so it refuses a larger p.
ROOT_SCAN_LIMIT = 2**20
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _int_coeffs(f) -> tuple[int, ...]:
    if isinstance(f, RationalPolynomial):
        if f.den != 1:
            raise DomainError("lifting needs integer coefficients")
        return f.nums  # canonical: no trailing zero
    coeffs = tuple(int(c) for c in f)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@dataclass(frozen=True)
class LiftTrace:
    """A lift of a simple root: ``root`` is the root mod p**(k+1)."""

    p: int
    f: tuple[int, ...]
    k: int
    root: int

    def __post_init__(self):
        require_prime(self.p)
        if not (self.k >= 0 and 0 <= self.root < self.p ** (self.k + 1)):
            raise DomainError("a lift needs k >= 0 and a root in [0, p**(k+1))")

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
    if p > ROOT_SCAN_LIMIT:
        raise ResourceLimitError(f"the root scan is limited to p <= {ROOT_SCAN_LIMIT}, got {p}")
    coeffs = _int_coeffs(f)
    if all(c % p == 0 for c in coeffs):
        raise DomainError(f"f vanishes identically mod {p}; every residue is a root")
    return [x for x in range(p) if _poly_eval(coeffs, x, p) == 0]


def hensel_lift(f, x0: int, p: int, k: int, method: str = "newton") -> LiftTrace:
    """Lift the simple root x0 of f mod p to a root mod p**(k+1).

    ``method`` selects quadratic Newton iteration (default) or the linear
    ``"digit"`` reference scheme; both return the same root.
    """
    require_prime(p)
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
        root = _lift_linear(coeffs, x0, p, k, pow(d0, -1, p))
    elif method == "newton":
        root = _lift_newton(coeffs, deriv, x0, p, k)
    else:
        raise DomainError(f"unknown lifting method {method!r}")
    return LiftTrace(p, coeffs, k, root)


def _lift_linear(coeffs, x0: int, p: int, k: int, inv_d0: int) -> int:
    x, power = x0, p  # power = p**i at step i
    for _ in range(k):
        fx = _poly_eval(coeffs, x, power * p)
        x += (-(fx // power) * inv_d0) % p * power
        power *= p
    return x


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
    if r < 1:
        raise DomainError("precision must be at least one digit")
    if a % p == 0:
        raise DomainError(f"gcd(a, {p}) must be 1")
    f = (-a, 0, 1)  # x**2 - a
    return [hensel_lift(f, x, p, r - 1).as_padic(r) for x in roots_mod_p(f, p)]
