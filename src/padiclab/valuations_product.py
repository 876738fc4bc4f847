"""Product formula over the places of Q and of F_p(x), verified exactly.

For a nonzero rational the local norms at the finitely many primes dividing
numerator or denominator, together with the usual absolute value, multiply
to exactly 1.  The function-field analogue replaces primes by monic
irreducible polynomials over F_p plus the degree place, with
``|f|_P = p**(-deg(P) * v_P(f))`` and ``|f|_inf = p**(deg num - deg den)``
— the unique normalization (base p = residue-field size) that makes the
product telescope to 1.

Everything is computed as exact ``Fraction`` values in a single pass; no
logarithms.  Integer factorization trial-divides by the Miller-Rabin bases
(the primes up to 37), splits the rest by Brent's rho, and is self-verifying:
each factor passes ``padic_core.is_prime`` and the product reconstructs the
input.  Over F_p one routine trial-divides by the monic irreducibles of a
sieve that extends its cached lower degrees; ``factor_poly`` and the place
check go through it, and one loop divides out a factor.  That loop, the sieve
and ``FqPolynomial`` all divide with ``padic_core._poly_divmod`` on coefficient
tuples, and ``FqPolynomial`` uses the other shared helpers there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError
from .padic_core import (
    _MR_BASES,
    Valuation,
    _digits,
    _fraction,
    _p_power,
    _poly_add,
    _poly_divmod,
    _poly_eval,
    _poly_mul,
    _poly_str,
    _trim,
    _trusted,
    is_prime,
    require_prime,
)

#: Integers beyond this are rejected rather than silently taking minutes.
FACTOR_LIMIT = 10**18
#: Steps of about 2 us admitted for the sieve, the one bound on F_p[x] factoring (``_sieve_work``).
_IRREDUCIBLE_ENUM_LIMIT = 80_000


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle method)."""
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            # batched gcd overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise ResourceLimitError(f"factorization of {n} did not terminate")


@dataclass(frozen=True)
class PrimeFactorization:
    """sign * product of prime powers; factors sorted by prime."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (isinstance(self.sign, int) and self.sign in (-1, 1)):
            raise DomainError("sign must be +1 or -1")
        for p, e in self.factors:
            if not (isinstance(e, int) and e > 0):
                raise DomainError(f"exponent of {p} must be a positive int")
            require_prime(p)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    @property
    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def factor(n: int) -> PrimeFactorization:
    """Exact factorization of a nonzero integer with |n| <= 10**18.

    The Miller-Rabin bases (the primes up to 37) come off by trial
    division; any remaining cofactor is split recursively by Brent's rho
    method with deterministic Miller-Rabin certifying the leaves.
    """
    if n == 0:
        raise DomainError("zero has no prime factorization")
    if abs(n) > FACTOR_LIMIT:
        raise ResourceLimitError(f"|n| exceeds the factoring limit {FACTOR_LIMIT}")
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _MR_BASES:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return _trusted(PrimeFactorization, sign=sign, factors=tuple(sorted(counts.items())))


# -- places of Q -------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q or of F_p(x).

    ``kind`` is one of ``finite`` (a prime), ``archimedean``,
    ``finite_poly`` (a monic irreducible over F_p), ``degree_infinity``.
    """

    kind: str
    prime: int | None = None
    poly: "FqPolynomial | None" = None

    def __post_init__(self):
        if self.kind not in ("finite", "archimedean", "finite_poly", "degree_infinity"):
            raise DomainError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite":
            require_prime(self.prime)
        if self.kind == "finite_poly":
            # a monic constant factors as {}, a reducible g as anything but {g: 1}
            if not (self.poly.is_monic and _trial_divide(self.poly) == {self.poly: 1}):
                raise DomainError(f"{self.poly} is not monic irreducible")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls("finite", prime=p)

    @classmethod
    def archimedean(cls) -> "Place":
        return cls("archimedean")

    @classmethod
    def finite_poly(cls, g: "FqPolynomial") -> "Place":
        return cls("finite_poly", poly=g)

    @classmethod
    def degree_infinity(cls) -> "Place":
        return cls("degree_infinity")

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.prime)
        if self.kind == "finite_poly":
            return str(self.poly)
        return "infinity"


def local_norms(a) -> list[tuple[Place, Fraction]]:
    """Every place of Q where |a| differs from 1, plus the archimedean one.

    Norms are read off the factorizations of numerator and denominator, a
    path independent of ``padic_core.norm`` (the two are cross-checked in
    the tests).
    """
    a = _fraction(a)
    if a == 0:
        raise DomainError("zero is outside the product formula")
    # numerator and denominator are coprime: no prime appears in both
    signed = list(factor(a.numerator).factors)
    signed += [(p, -e) for p, e in factor(a.denominator).factors]
    out = [(_trusted(Place, kind="finite", prime=p), _p_power(p, -e)) for p, e in sorted(signed)]
    out.append((Place.archimedean(), abs(a)))
    return out


def product_formula_check(a) -> Fraction:
    """The exact product of |a| over all places; equals 1 for nonzero a."""
    return math.prod(v for _, v in local_norms(a))


# -- polynomials over F_p and places of F_p(x) -------------------------------


@dataclass(frozen=True)
class FqPolynomial:
    """Polynomial over F_p; coefficients[i] is the coefficient of x**i."""

    p: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.p)
        if any(not (isinstance(c, int) and 0 <= c < self.p) for c in self.coefficients):
            raise DomainError(f"coefficients must be int residues in [0, {self.p})")
        if self.coefficients and self.coefficients[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    @classmethod
    def of(cls, p: int, *coeffs: int) -> "FqPolynomial":
        return cls(require_prime(p), _trim([c % p for c in coeffs]))

    @classmethod
    def x(cls, p: int) -> "FqPolynomial":
        return cls(p, (0, 1))

    @classmethod
    def one(cls, p: int) -> "FqPolynomial":
        return cls(p, (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def _same_field(self, other: "FqPolynomial") -> None:
        if self.p != other.p:
            raise DomainError(f"mixed fields F_{self.p} and F_{other.p}")

    def __add__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._same_field(other)
        return _fq(self.p, _poly_add(self.coefficients, other.coefficients))

    def __neg__(self) -> "FqPolynomial":
        return _fq(self.p, [-c for c in self.coefficients])

    def __sub__(self, other: "FqPolynomial") -> "FqPolynomial":
        return self + (-other)

    def __mul__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._same_field(other)
        return _fq(self.p, _poly_mul(self.coefficients, other.coefficients))

    def __divmod__(self, other: "FqPolynomial") -> tuple["FqPolynomial", "FqPolynomial"]:
        self._same_field(other)
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        q, r = _poly_divmod(self.coefficients, other.coefficients, self.p)
        return _fq(self.p, q), _fq(self.p, r)

    def __mod__(self, other: "FqPolynomial") -> "FqPolynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "FqPolynomial") -> "FqPolynomial":
        return divmod(self, other)[0]

    def monic(self) -> "FqPolynomial":
        if self.is_zero or self.is_monic:
            return self
        inv = pow(self.leading, -1, self.p)
        return _fq(self.p, [c * inv for c in self.coefficients])

    def gcd(self, other: "FqPolynomial") -> "FqPolynomial":
        self._same_field(other)
        a, b = self.coefficients, other.coefficients
        while b:
            a, b = b, _poly_divmod(a, b, self.p)[1]
        return _fq(self.p, a).monic()

    def __call__(self, x: int) -> int:
        return _poly_eval(self.coefficients, x, self.p)

    def __str__(self) -> str:
        return _poly_str(self.coefficients, "+")


def _fq(p: int, coeffs) -> FqPolynomial:
    """The FqPolynomial over a checked prime p: int coefficients reduced mod p and trimmed."""
    return _trusted(FqPolynomial, p=p, coefficients=_trim([c % p for c in coeffs]))


def _sieve_work(p: int, max_degree: int) -> int:
    """Steps to sieve to max_degree and use the result, counted until past the limit.

    Each degree-d candidate is built and tried against the irreducibles of
    degree <= d // 2; factoring and the place check try each result once more.
    """
    counts: list[int] = []  # counts[k - 1]: of degree k (Gauss: p**d = sum_{k | d} k counts[k - 1])
    work = 0
    for d in range(1, max_degree + 1):
        counts.append((p**d - sum(k * counts[k - 1] for k in range(1, d) if d % k == 0)) // d)
        work += p**d * (1 + sum(counts[: d // 2]))
        if work > _IRREDUCIBLE_ENUM_LIMIT:
            return work
    return work + 2 * sum(counts)


@lru_cache(maxsize=64)
def enumerate_irreducibles(p: int, max_degree: int) -> tuple[FqPolynomial, ...]:
    """All monic irreducibles over F_p of degree <= max_degree.

    Sieve: a monic polynomial of degree d is irreducible iff no irreducible
    of degree <= d//2 divides it; each degree extends the cached lower ones.
    Output is ordered by degree, then by the base-p integer of the coefficients.
    """
    require_prime(p)
    if max_degree < 1:
        raise DomainError("max_degree must be at least 1")
    if _sieve_work(p, max_degree) > _IRREDUCIBLE_ENUM_LIMIT:
        raise ResourceLimitError(f"enumerating irreducibles over F_{p} to degree {max_degree} "
                                 f"needs more than {_IRREDUCIBLE_ENUM_LIMIT} trial divisions")
    lower = enumerate_irreducibles(p, max_degree - 1) if max_degree > 1 else ()
    small = [g.coefficients for g in lower if 2 * g.degree <= max_degree]
    candidates = ((*_digits(n, p, max_degree), 1) for n in range(p**max_degree))
    return lower + tuple(_trusted(FqPolynomial, p=p, coefficients=f) for f in candidates
                         if all(_poly_divmod(f, g, p)[1] for g in small))


def _multiplicity(g: tuple, pi: tuple, p: int) -> tuple[int, tuple]:
    """(e, g / pi**e) over F_p on coefficient tuples, pi**e the highest power of pi dividing g."""
    e = 0
    q, r = _poly_divmod(g, pi, p)
    while not r:
        g, e = q, e + 1
        q, r = _poly_divmod(g, pi, p)
    return e, g


def _trial_divide(m: FqPolynomial) -> dict[FqPolynomial, int]:
    """{monic irreducible: multiplicity} of a monic m, by trial division in enumeration order."""
    counts: dict[FqPolynomial, int] = {}
    p, cs = m.p, m.coefficients
    if m.degree >= 2:
        for cand in enumerate_irreducibles(p, m.degree // 2):
            if 2 * cand.degree > len(cs) - 1:
                break
            e, cs = _multiplicity(cs, cand.coefficients, p)
            if e:
                counts[cand] = e
    if len(cs) >= 2:
        counts[_trusted(FqPolynomial, p=p, coefficients=cs)] = 1
    return counts


def factor_poly(g: FqPolynomial) -> tuple[int, dict[FqPolynomial, int]]:
    """(unit, {monic irreducible: multiplicity}) with unit in F_p^*."""
    if g.is_zero:
        raise DomainError("zero polynomial has no factorization")
    return g.leading, _trial_divide(g.monic()) if g.degree else {}


@dataclass(frozen=True)
class RationalFunction:
    """Element of F_p(x) in lowest terms with monic denominator."""

    num: FqPolynomial
    den: FqPolynomial

    def __post_init__(self):
        self.num._same_field(self.den)
        if self.den.is_zero:
            raise DomainError("denominator must be nonzero")
        if not self.den.is_monic:
            raise DomainError("denominator must be monic (use RationalFunction.of)")
        if not self.num.is_zero and self.num.gcd(self.den).degree > 0:
            raise DomainError("numerator and denominator must be coprime")

    @classmethod
    def of(cls, num: FqPolynomial, den: FqPolynomial | None = None) -> "RationalFunction":
        if den is None:
            den = FqPolynomial.one(num.p)
        if den.is_zero:
            raise DomainError("denominator must be nonzero")
        if num.is_zero:
            return cls(num, FqPolynomial.one(num.p))
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        scale = _fq(den.p, (pow(den.leading, -1, den.p),))
        return _trusted(cls, num=num * scale, den=den * scale)  # coprime, den monic

    @property
    def p(self) -> int:
        return self.num.p

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _as_function(f) -> RationalFunction:
    if isinstance(f, RationalFunction):
        return f
    if isinstance(f, FqPolynomial):
        return RationalFunction.of(f)
    raise DomainError(f"expected a polynomial or rational function, got {f!r}")


def poly_valuation(f, place: Place) -> Valuation:
    """Order of vanishing of f in F_p(x) at a finite-poly or degree place."""
    f = _as_function(f)
    if f.is_zero:
        raise DomainError("the zero function is outside the place calculus")
    if place.kind == "finite_poly":
        place.poly._same_field(f.num)
        e = [_multiplicity(h.coefficients, place.poly.coefficients, f.p)[0] for h in (f.num, f.den)]
        return _trusted(Valuation, value=e[0] - e[1])
    if place.kind == "degree_infinity":
        return _trusted(Valuation, value=f.den.degree - f.num.degree)
    raise DomainError(f"{place} is not a place of F_p(x)")


def local_norms_ff(f) -> list[tuple[Place, Fraction]]:
    """Places of F_p(x) where |f| differs from 1, plus the degree place."""
    f = _as_function(f)
    if f.is_zero:
        raise DomainError("zero is outside the product formula")
    p = f.p
    # RationalFunction keeps num and den coprime: no place divides both; factoring certifies each
    signed = list(factor_poly(f.num)[1].items())
    signed += [(pi, -e) for pi, e in factor_poly(f.den)[1].items()]
    signed.sort(key=lambda kv: (kv[0].degree, kv[0].coefficients[::-1]))
    out = [(_trusted(Place, kind="finite_poly", poly=pi), _p_power(p, -pi.degree * e))
           for pi, e in signed]
    out.append((Place.degree_infinity(), _p_power(p, f.num.degree - f.den.degree)))
    return out


def product_formula_check_ff(f) -> Fraction:
    """The exact product of |f| over all places of F_p(x); equals 1."""
    return math.prod(v for _, v in local_norms_ff(f))
