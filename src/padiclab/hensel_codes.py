"""r-digit p-adic codes: residue arithmetic mod p**r with rational decode.

A rational b/c with p-coprime denominator encodes as the residue
``b * c**-1 mod p**r``; the four arithmetic operations on codes are plain
residue arithmetic and commute with encoding.  Decoding inverts the map on
the Farey box |b| <= N, 0 < c <= N with ``N = floor(sqrt((p**r - 1)/2))``:
that bound makes the representative unique, and the extended Euclidean
algorithm on (p**r, value), stopped at the first remainder <= N, finds it.
A residue with no in-box representative raises a decode failure rather than
returning a nearby wrong rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DecodeFailureError, DomainError, NonEncodableError, ZeroInversionError
from .padic_core import _digits, _fraction, _require_precision, _trusted


@dataclass(frozen=True)
class HenselCode:
    """A residue in [0, p**r) viewed as r base-p digits."""

    p: int
    r: int
    value: int

    def __post_init__(self):
        _require_precision(self.p, self.r)
        if not (isinstance(self.value, int) and 0 <= self.value < self.p**self.r):
            raise DomainError(f"value must be an int in [0, {self.p}**{self.r})")

    @property
    def digits(self) -> tuple[int, ...]:
        """Exactly r base-p digits, least significant first, zeros kept."""
        return _digits(self.value, self.p, self.r)

    def _check_compatible(self, other: "HenselCode") -> None:
        if (self.p, self.r) != (other.p, other.r):
            raise DomainError(
                f"mismatched codes: (p={self.p}, r={self.r}) vs (p={other.p}, r={other.r})"
            )


def farey_bound(p: int, r: int) -> int:
    """N = floor(sqrt((p**r - 1)/2)); the box |b|, c <= N decodes uniquely."""
    return math.isqrt((p**r - 1) // 2)


def encode(a, p: int, r: int) -> HenselCode:
    """Encode a rational with p-coprime denominator as a mod-p**r residue."""
    _require_precision(p, r)
    a = _fraction(a)
    if a.denominator % p == 0:
        raise NonEncodableError(
            f"{a} has no {p}-adic integer code: {p} divides the denominator"
        )
    m = p**r
    return _trusted(HenselCode, p=p, r=r, value=a.numerator * pow(a.denominator, -1, m) % m)


def code_add(x: HenselCode, y: HenselCode) -> HenselCode:
    x._check_compatible(y)
    return _trusted(HenselCode, p=x.p, r=x.r, value=(x.value + y.value) % x.p**x.r)


def code_sub(x: HenselCode, y: HenselCode) -> HenselCode:
    x._check_compatible(y)
    return _trusted(HenselCode, p=x.p, r=x.r, value=(x.value - y.value) % x.p**x.r)


def code_mul(x: HenselCode, y: HenselCode) -> HenselCode:
    x._check_compatible(y)
    return _trusted(HenselCode, p=x.p, r=x.r, value=x.value * y.value % x.p**x.r)


def code_div(x: HenselCode, y: HenselCode) -> HenselCode:
    x._check_compatible(y)
    if y.value % y.p == 0:
        raise ZeroInversionError(f"divisor {y.value} is divisible by {y.p}")
    m = x.p**x.r
    return _trusted(HenselCode, p=x.p, r=x.r, value=x.value * pow(y.value, -1, m) % m)


def decode(x: HenselCode) -> Fraction:
    """The unique Farey-box rational with this code.

    Runs the extended Euclidean algorithm on (p**r, value); the first
    remainder <= N together with its cofactor is the candidate b/c, which
    must satisfy |b| <= N, 0 < c <= N, gcd(b, c) = 1 and gcd(c, p) = 1.
    """
    m = x.p**x.r
    bound = farey_bound(x.p, x.r)
    r0, r1 = m, x.value
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    b, c = r1, t1
    if c < 0:
        b, c = -b, -c
    if c == 0 or c > bound or math.gcd(b, c) != 1 or c % x.p == 0:
        raise DecodeFailureError(
            f"residue {x.value} has no representative in the Farey box (N={bound})"
        )
    return Fraction(b, c)
