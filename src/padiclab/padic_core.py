"""Exact p-adic numbers at fixed precision.

One precision rule: every value is known modulo p**N.  A nonzero value is
``p**v * unit_value``, ``unit_value`` in ``[0, p**r)`` prime to p and
N = v + r, so the valuation and the norm are O(1) reads; the base-p digits
``unit`` are a view computed on demand.  A zero is O(p**N): infinite v,
``unit_value == 0`` and r = N, any integer.  With e = v, or N for a zero, a
sum or difference runs from min(e1, e2) to min(N1, N2), a product from
e1 + e2 to min(N1 + e2, N2 + e1), and an inverse from -v to r - v (zealous
arithmetic: Caruso, Roe & Vaccon, "Tracking p-adic precision", 2014).  Each
result is one residue read by ``_from_residue``, so cancelled digits are
never claimed and a zero needs no special case.

One rule for every exact value type of the package: only the public
constructor ``Type(...)`` validates, and named constructors check their own
arguments; a library routine has certified its results (here: a reduced unit
prime to p, zero exactly when it is 0) and builds them with ``_trusted``.

Valuations and norms of exact rationals are computed exactly: a norm is the
``Fraction`` p**e read off integer exponents, never a float.

This module is also the package's exact-arithmetic core.  ``is_prime`` is its
only primality test, and ``require_prime`` admits p only where that test is a
proof; ``_digits`` and ``_poly_eval`` are its only base-p digit encoder and
decoder; and the ``_poly_*`` coefficient-tuple helpers (add, mul, division
over F_p, Horner evaluation, derivative, rendering) serve
``RationalPolynomial`` here (int numerators over one denominator),
``FqPolynomial`` and its sieve in ``valuations_product``, and ``hensel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import product, zip_longest
from math import gcd, lcm

from .errors import (
    DomainError,
    ExpansionFormatError,
    ExpansionParseError,
    MixedPrimesError,
    NotPrimeError,
    ResourceLimitError,
    ZeroInversionError,
    int_str,
    quoted,
)

class _Archimedean:
    """Marker for the archimedean place of the rationals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ARCHIMEDEAN"


#: Pass this instead of a prime to select the usual absolute value.
ARCHIMEDEAN = _Archimedean()


# Miller-Rabin with the first twelve primes as bases has no strong pseudoprime
# below PROVEN_PRIME_BOUND, itself one (Sorenson & Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017); ``require_prime`` stops there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PROVEN_PRIME_BOUND = 318_665_857_834_031_151_167_461
# (bound, k): below bound the first k bases admit no strong pseudoprime; each
# bound is the least strong pseudoprime to those k bases (Jaeschke, "On
# strong pseudoprimes to several bases", Math. Comp. 61, 1993; the nine-base
# bound proven least by Jiang & Deng, Math. Comp. 83, 2014).
_MR_TIERS = (
    (3_215_031_751, 4),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


@lru_cache(maxsize=4096)
def is_prime(p: int) -> bool:
    """Miller-Rabin on bases 2..37: a proof for p < ``PROVEN_PRIME_BOUND`` (~3.18e23).

    That bound is far past ``valuations_product.FACTOR_LIMIT``; from it on a
    True answer means "strong probable prime to twelve bases".  Below the
    bounds of ``_MR_TIERS`` a proven-enough prefix of the bases is tested.
    """
    if not isinstance(p, int):
        raise NotPrimeError(f"prime expected, got {type(p).__name__}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MR_TIERS if p < bound), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p itself, if it is a prime below ``PROVEN_PRIME_BOUND``, where ``is_prime`` is a proof."""
    if not isinstance(p, int):  # before is_prime's cache hashes p; no repr of a huge int
        raise NotPrimeError(f"prime expected, got {type(p).__name__}")
    if p >= PROVEN_PRIME_BOUND:
        raise ResourceLimitError(f"p = {quoted(p)} is past the primality proof bound")
    if not is_prime(p):
        raise NotPrimeError(f"{int_str(p)} is not prime")
    return p


def _trusted(cls, **fields):
    """cls(**fields) for fields that hold the invariant of the frozen dataclass cls, unchecked."""
    x = object.__new__(cls)
    x.__dict__.update(fields)
    return x


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@total_ordering
@dataclass(frozen=True)
class Valuation:
    """Additive valuation: a finite integer, or infinity exactly for zero.

    ``value=None`` encodes infinity.  Ordering puts infinity above every
    finite value, and addition absorbs it, so ``min`` and sums behave like
    the extended integers.
    """

    value: int | None

    @classmethod
    def finite(cls, n: int) -> "Valuation":
        if not isinstance(n, int):
            raise DomainError(f"a finite valuation is an int, got {n!r}")
        return cls(n)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "Valuation") -> "Valuation":
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return Valuation(self.value + other.value)

    def __neg__(self) -> "Valuation":
        if self.is_infinite:
            raise DomainError("cannot negate the infinite valuation")
        return Valuation(-self.value)

    def __lt__(self, other: "Valuation") -> bool:
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def __int__(self) -> int:
        if self.is_infinite:
            raise DomainError("infinite valuation has no integer value")
        return self.value

    def __str__(self) -> str:
        return "infinity" if self.is_infinite else str(self.value)


#: The valuation of zero.
INFINITY = Valuation(None)


def _fraction(a) -> Fraction:
    """a as a Fraction: a Fraction as it is, no copy."""
    return a if isinstance(a, Fraction) else Fraction(a)


def nu(a, p: int | None = None) -> Valuation:
    """p-adic valuation of an integer, Fraction, or PadicNumber.

    For rationals the exponent of p in the decomposition ``a = p**n * b/c``
    with b, c coprime to p; infinity for zero.
    """
    if isinstance(a, PadicNumber):
        if p is not None and p != a.p:
            raise MixedPrimesError(f"value is {a.p}-adic, asked for p={p}")
        return a.v
    if p is None:
        raise DomainError("a prime is required to take the valuation of a rational")
    require_prime(p)
    a = _fraction(a)
    if a == 0:
        return INFINITY
    return Valuation(_int_valuation(a.numerator, p) - _int_valuation(a.denominator, p))


def _p_power(p: int, e: int) -> Fraction:
    """p**e as a Fraction, for any integer e."""
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def norm(a, p) -> Fraction:
    """Exact absolute value of a rational or a PadicNumber at the place p.

    For a finite prime this is ``(1/p) ** nu(a, p)`` with ``norm(0) == 0``;
    for ``ARCHIMEDEAN`` it is the usual absolute value.  A ``PadicNumber``
    has a norm only at its own prime (``MixedPrimesError`` at another,
    ``DomainError`` at ``ARCHIMEDEAN``), read off its valuation.
    """
    if isinstance(a, PadicNumber):
        if p is ARCHIMEDEAN:
            raise DomainError("a p-adic number has no archimedean absolute value")
        v = nu(a, p)
        return Fraction(0) if v.is_infinite else _p_power(a.p, -v.value)
    a = _fraction(a)
    if p is ARCHIMEDEAN:
        return abs(a)
    require_prime(p)
    if not a:
        return Fraction(0)
    return _p_power(p, _int_valuation(a.denominator, p) - _int_valuation(a.numerator, p))


# -- base-p digits and dense polynomials as coefficient tuples -------------
#
# Index i holds the digit of p**i, or the coefficient of x**i.


def _digits(value: int, p: int, r: int) -> tuple[int, ...]:
    # value reduced mod p**r, little-endian base-p digits, length exactly r;
    # _poly_eval(digits, p) is the inverse
    out = []
    for _ in range(r):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _trim(cs) -> tuple:
    """The coefficients as a tuple without trailing zeros: the canonical form."""
    cs = tuple(cs)
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _poly_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divmod(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    """(a // b, a % b) over F_p, the remainder trimmed; residues in and out, b's top one nonzero."""
    rem, db, inv_lead = list(a), len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(0, len(rem) - db)
    for i in reversed(range(len(q))):
        q[i] = c = rem[i + db] * inv_lead % p
        if c:
            for j, y in enumerate(b, i):
                rem[j] = (rem[j] - c * y) % p
    return tuple(q), _trim(rem[:db])  # the division left rem[db:] zero


def _poly_eval(coeffs: tuple, x, modulus: int | None = None):
    """Horner evaluation at x, reduced mod ``modulus`` at every step if given."""
    acc = 0
    if modulus is None:
        for c in reversed(coeffs):
            acc = acc * x + c
    else:
        for c in reversed(coeffs):
            acc = (acc * x + c) % modulus
    return acc


def _poly_derivative(coeffs: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _poly_str(coeffs: tuple, sep: str) -> str:
    """Nonzero terms from the top degree down, joined by ``sep``.

    Unit coefficients are elided (``x``, ``-x^2``) and ``+ -`` folds to
    ``- ``; the zero polynomial renders as ``0``.
    """
    parts = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c == 0:
            continue
        power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        coef = {1: "", -1: "-"}.get(c, str(c)) if power else str(c)
        parts.append(coef + power)
    return sep.join(parts).replace("+ -", "- ") if parts else "0"


def _require_precision(p: int, r: int) -> None:
    require_prime(p)
    if not (isinstance(r, int) and r >= 1):
        raise DomainError(f"precision must be an integer of at least one digit, got {quoted(r)}")


@dataclass(frozen=True)
class PadicNumber:
    """A p-adic number ``p**v * unit_value`` known modulo ``p**N``.

    Invariant: p is a prime, and either v is finite, r >= 1 and
    ``0 < unit_value < p**r`` is prime to p (N = v + r), or v is infinite,
    ``unit_value == 0`` and r = N is any integer: the zero O(p**N).
    ``PadicNumber(...)`` checks it; the named constructors and the
    arithmetic build results that hold it by construction with ``_trusted``.
    """

    p: int
    v: Valuation
    unit_value: int
    r: int

    def __post_init__(self):
        if not isinstance(self.v, Valuation):
            raise DomainError(f"v must be a Valuation, got {quoted(self.v)}")
        p, r, u = self.p, self.r, self.unit_value
        _require_precision(p, 1 if self.v.is_infinite and isinstance(r, int) else r)  # zero: any N
        if not (isinstance(u, int) and (self.v.is_infinite or isinstance(self.v.value, int))):
            raise DomainError(f"unit must be an int and v int or infinite: {quoted(u)}, {self.v}")
        if self.v.is_infinite:
            if u:
                raise DomainError("zero must carry a zero unit")
            return
        if not 0 <= u < p**r:
            raise DomainError(f"unit must lie in [0, {p}**{r})")
        if u % p == 0:
            raise DomainError("nonzero unit part must not be divisible by p")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, r: int) -> "PadicNumber":
        _require_precision(p, r)
        return _trusted(cls, p=p, v=INFINITY, unit_value=0, r=r)

    @classmethod
    def from_integer(cls, n: int, p: int, r: int) -> "PadicNumber":
        _require_precision(p, r)
        if not isinstance(n, int):
            raise DomainError(f"an integer is expected, got {n!r}")
        if n == 0:
            return _trusted(cls, p=p, v=INFINITY, unit_value=0, r=r)
        v = _int_valuation(n, p)
        return _trusted(cls, p=p, v=Valuation(v), unit_value=(n // p**v) % p**r, r=r)

    @classmethod
    def from_rational(cls, a, p: int, r: int) -> "PadicNumber":
        _require_precision(p, r)
        a = _fraction(a)
        if a == 0:
            return _trusted(cls, p=p, v=INFINITY, unit_value=0, r=r)
        vn, vd = _int_valuation(a.numerator, p), _int_valuation(a.denominator, p)
        u = a.numerator // p**vn * pow(a.denominator // p**vd, -1, p**r) % p**r
        return _trusted(cls, p=p, v=Valuation(vn - vd), unit_value=u, r=r)

    @classmethod
    def _from_residue(cls, p: int, x: int, n: int, e: int = 0) -> "PadicNumber":
        """``p**e * x`` known mod ``p**n``, n >= e: a factor p of x costs a digit; 0 is O(p**n)."""
        x %= p ** (n - e)
        if x == 0:
            return _trusted(cls, p=p, v=INFINITY, unit_value=0, r=n)
        s = _int_valuation(x, p)
        return _trusted(cls, p=p, v=Valuation(e + s), unit_value=x // p**s, r=n - e - s)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.unit_value

    @property
    def unit(self) -> tuple[int, ...]:
        """The r little-endian base-p digits of the unit part."""
        return _digits(self.unit_value, self.p, self.r)

    def truncate(self, r: int) -> "PadicNumber":
        """Forget digits beyond the first ``r``; a zero O(p**N) weakens to O(p**r), any r <= N."""
        if not (r <= self.r and (r >= 1 or self.is_zero)):
            raise DomainError(f"cannot truncate {self.r}-digit value to {r} digits")
        u = self.unit_value and self.unit_value % self.p**r  # 0 for a zero, whatever r is
        return _trusted(PadicNumber, p=self.p, v=self.v, unit_value=u, r=r)

    def agrees_with(self, other: "PadicNumber") -> bool:
        """Whether one p-adic number meets both claims: they agree mod p**min(N1, N2).

        That is their difference being O(p**min(N1, N2)); a zero O(p**N)
        claims only "valuation at least N".
        """
        return self.p == other.p and self.sub(other).is_zero

    # -- arithmetic --------------------------------------------------------
    #
    # Operands hold the invariant, so a nonzero operand has a finite v.value.

    def _en(self) -> tuple[int, int]:
        # (e, N): p**e times a residue known mod p**(N - e); a zero O(p**N) has e = N
        if self.unit_value:
            return self.v.value, self.v.value + self.r
        return self.r, self.r

    def _check_compatible(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber):
            raise DomainError(f"expected a PadicNumber, got {other!r}")
        if self.p != other.p:
            raise MixedPrimesError(f"mixed primes {self.p} and {other.p}")

    def add(self, other: "PadicNumber") -> "PadicNumber":
        """Sum, known mod p**min(N1, N2): digits that cancel are not claimed."""
        self._check_compatible(other)
        p, (e1, n1), (e2, n2) = self.p, self._en(), other._en()
        e, n = min(e1, e2), min(n1, n2)
        # past n a term is 0 mod p**(n - e) either way: min keeps its power small
        x = self.unit_value * p ** (min(e1, n) - e) + other.unit_value * p ** (min(e2, n) - e)
        return PadicNumber._from_residue(p, x, n, e)

    def neg(self) -> "PadicNumber":
        e, n = self._en()
        return PadicNumber._from_residue(self.p, -self.unit_value, n, e)

    def mul(self, other: "PadicNumber") -> "PadicNumber":
        """Product, known mod p**min(N1 + e2, N2 + e1)."""
        self._check_compatible(other)
        (e1, n1), (e2, n2) = self._en(), other._en()
        x = self.unit_value * other.unit_value
        return PadicNumber._from_residue(self.p, x, min(n1 + e2, n2 + e1), e1 + e2)

    def inv(self) -> "PadicNumber":
        if self.is_zero:
            raise ZeroInversionError("zero has no p-adic inverse")
        u = pow(self.unit_value, -1, self.p**self.r)
        return _trusted(PadicNumber, p=self.p, v=Valuation(-self.v.value), unit_value=u, r=self.r)

    def sub(self, other: "PadicNumber") -> "PadicNumber":
        self._check_compatible(other)
        return self.add(other.neg())

    __add__ = add
    __mul__ = mul
    __neg__ = neg
    __sub__ = sub

    def __repr__(self):
        if self.is_zero:
            return f"PadicNumber(p={self.p}, 0, r={self.r})"
        return f"PadicNumber(p={self.p}, v={self.v}, unit={list(self.unit)})"


# -- digit-expansion notation ----------------------------------------------
#
# Grammar (documented in the README): the first digit of the plain expansion,
# a comma, then the remaining digits ascending by power with trailing zeros
# trimmed.  Digits are single decimal characters for p <= 10; for larger p
# each digit is a decimal number and digits are separated by apostrophes.
# Zero renders as "0,".


def to_expansion_string(x: PadicNumber) -> str:
    """Render an integer p-adic expansion as ``a0,a1a2...``."""
    if x.is_zero:
        return "0,"
    if int(x.v) < 0:
        raise ExpansionFormatError(
            "only non-negative valuations have a plain digit expansion"
        )
    head, *tail = _trim((0,) * int(x.v) + x.unit)  # the unit's first digit is nonzero
    if x.p <= 10:
        return f"{head}," + "".join(str(d) for d in tail)
    return f"{head}," + "'".join(str(d) for d in tail)


def parse_expansion_string(s: str, p: int, r: int) -> PadicNumber:
    """Inverse of :func:`to_expansion_string` at precision ``r``."""
    require_prime(p)
    if "," not in s:
        raise ExpansionParseError(f"missing comma in expansion string {s!r}")
    head, _, tail = s.partition(",")
    if p <= 10:
        parts = [head] + list(tail)
    else:
        parts = [head] + (tail.split("'") if tail else [])
    digits = []
    for part in parts:
        if not part.isdigit():
            raise ExpansionParseError(f"bad digit {part!r} in {s!r}")
        d = int(part)
        if d >= p:
            raise ExpansionParseError(f"digit {d} is not a base-{p} digit")
        digits.append(d)
    return PadicNumber.from_integer(_poly_eval(digits, p), p, r)


# -- polynomials over the rationals and the Gauss norm ----------------------


def _lowest_terms(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """den > 0 and its int numerators, both divided by their gcd; the numerators as a tuple."""
    g = gcd(den, *nums)
    return (den, tuple(nums)) if g == 1 else (den // g, tuple(n // g for n in nums))


def _over_one_den(fs: list) -> tuple[int, list[int]]:
    """(den, nums): the fractions as int numerators over their least common denominator."""
    den = lcm(*[f.denominator for f in fs])
    return den, [f.numerator * (den // f.denominator) for f in fs]


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients: integers over one denominator.

    Coefficient i (of x**i) is ``nums[i] / den``.  The form is canonical
    (den > 0, no common factor of den and every numerator, no trailing zero
    numerator), so equality and hashing are coefficientwise;
    ``coefficients`` is a ``Fraction`` view.  Zero is ``(1, ())``.
    """

    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        if self.nums and self.nums[-1] == 0:
            raise DomainError("trailing zero coefficients must be trimmed")
        ints = (self.den, *self.nums)
        if not all(isinstance(n, int) for n in ints) or self.den < 1 or gcd(*ints) != 1:
            raise DomainError("polynomial must be ints in lowest terms over a positive denominator")

    @classmethod
    def _reduced(cls, den: int, nums) -> "RationalPolynomial":
        den, nums = _lowest_terms(den, _trim(nums))
        return _trusted(cls, den=den, nums=nums)

    @classmethod
    def of(cls, *coeffs) -> "RationalPolynomial":
        return cls._reduced(*_over_one_den([Fraction(c) for c in coeffs]))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __call__(self, x):
        return _poly_eval(self.nums, x) / Fraction(self.den)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return RationalPolynomial._reduced(
            den, _poly_add([s * a for a in self.nums], [t * b for b in other.nums])
        )

    def __neg__(self) -> "RationalPolynomial":
        return _trusted(RationalPolynomial, den=self.den, nums=tuple(-n for n in self.nums))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return RationalPolynomial._reduced(self.den * other.den, _poly_mul(self.nums, other.nums))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._reduced(self.den, _poly_derivative(self.nums))

    def __str__(self) -> str:
        return _poly_str(self.coefficients, " + ")


def gauss_norm(f: RationalPolynomial, p: int) -> Fraction:
    """max over coefficients of |.|_p; multiplicative by Gauss's lemma.

    On the canonical form this is p**(v_p(den) - min_i v_p(nums[i])), and
    min_i v_p(nums[i]) is v_p of the numerators' gcd.
    """
    require_prime(p)
    if f.is_zero:
        return Fraction(0)
    return _p_power(p, _int_valuation(f.den, p) - _int_valuation(gcd(*f.nums), p))


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class SeminormReport:
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __str__(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else f"FAIL  witness={r.witness}"
            lines.append(f"{r.axiom}: {status}")
        return "\n".join(lines)


def check_seminorm_axioms(norm_fn, samples, *, zero, one) -> SeminormReport:
    """Test |0|=0, |1|=1, multiplicativity and the triangle bound on samples.

    ``samples`` must be a finite sequence of ring elements supporting ``+``
    and ``*``; all ordered pairs are tested.  On failure each axiom entry
    carries the first witness found.
    """
    if not samples:
        raise DomainError("seminorm check needs at least one sample")
    zero_norm, one_norm = norm_fn(zero), norm_fn(one)
    normed = [(f, norm_fn(f)) for f in samples]
    mult_witness = next(
        (
            (f, g)
            for (f, nf), (g, ng) in product(normed, repeat=2)
            if norm_fn(f * g) != nf * ng
        ),
        None,
    )
    tri_witness = next(
        ((f, g) for (f, nf), (g, ng) in product(normed, repeat=2) if norm_fn(f + g) > nf + ng),
        None,
    )
    results = [
        AxiomResult("zero_norm", zero_norm == 0, None if zero_norm == 0 else (zero,)),
        AxiomResult("unit_norm", one_norm == 1, None if one_norm == 1 else (one,)),
        AxiomResult("multiplicative", mult_witness is None, mult_witness),
        AxiomResult("triangle", tri_witness is None, tri_witness),
    ]
    return SeminormReport(tuple(results))
