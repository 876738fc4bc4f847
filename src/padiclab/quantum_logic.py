"""Exact Pauli-group algebra and finite-lattice quantum logic.

Pauli elements live in the symplectic representation ``i**phase *
(tensor over j of X**xbits[j] Z**zbits[j])`` with the phase tracked mod 4;
multiplication is bitwise XOR plus the commutation phase ``2 * sum(z_left *
x_right)``.  Matrices over the Gaussian rationals are kept alongside as an
independent oracle, each stored as Gaussian integers (int real and
imaginary parts) over one common denominator, so products are plain integer
arithmetic: the symplectic product must agree entrywise with the matrix
product, and Clifford membership (normalizer of the Pauli group) is decided
by exact conjugation and Pauli-basis decomposition, never numerically.  A
Pauli word's matrix is monomial (one entry in {1, i, -1, -i} per column), so
each decomposition coefficient, the trace inner product tr(B† M) / 2**n,
is a sum over the 2**n nonzero entries of B.  Both checks use only it, the
basis check on each word's own matrix, and each is refused before it starts
when its entry products would pass 2**20.  Unitaries are accepted up to an
exact global scalar, so Hadamard-like matrices avoid any 1/sqrt(2).

Lattices are finite and explicit: the order is held as one down-set bitmask
per element, validated by bit tests, and meet and join are read off
intersected down-sets and up-sets and precomputed, so the modular and
distributive laws can be checked over all triples with witnesses on
failure.  Generated lattices are bounded to 128 elements before any is
enumerated.  Subspace lattices of F_q^d realize quantum logic exactly: they
are modular, and from dimension 2 on never distributive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .errors import DomainError, ResourceLimitError
from .padic_core import _lowest_terms, _over_one_den, _trusted, require_prime

# -- exact complex scalars and matrices --------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational a, b: each an int or a Fraction."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not all(type(q) is int or isinstance(q, Fraction) for q in (self.re, self.im)):
            raise DomainError("the parts of a Gaussian rational must be ints or Fractions")

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        """re + im*i, each an int or a Fraction as the constructor takes, kept as Fractions."""
        cls(re, im)  # the constructor's check
        return _trusted(cls, re=Fraction(re), im=Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussianRational":
        return _trusted(GaussianRational, re=self.re, im=-self.im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _trusted(GaussianRational, re=self.re + other.re, im=self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return _trusted(GaussianRational, re=self.re - other.re, im=self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return _trusted(GaussianRational, re=-self.re, im=-self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return _trusted(
            GaussianRational,
            re=self.re * other.re - self.im * other.im,
            im=self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = Fraction(other.re * other.re + other.im * other.im)  # int parts divide exactly too
        if d == 0:
            raise DomainError("division by zero")
        return _trusted(
            GaussianRational,
            re=(self.re * other.re + self.im * other.im) / d,
            im=(self.im * other.re - self.re * other.im) / d,
        )

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        mag = "" if abs(self.im) == 1 else str(abs(self.im))
        if self.re == 0:
            return f"-{mag}i" if self.im < 0 else f"{mag}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{mag}i"


#: i**k for k mod 4, as (re, im)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class GaussianMatrix:
    """Square matrix of exact complex rationals: Gaussian integers over one denominator.

    Entry (i, j) is ``(re[i*dim + j] + im[i*dim + j]*i) / den``.  The form is
    canonical (den > 0, and den has no common factor with all numerators), so
    equality and hashing are entrywise; ``rows`` is a ``GaussianRational`` view.
    """

    dim: int
    den: int
    re: tuple[int, ...]
    im: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1
                and len(self.re) == len(self.im) == self.dim**2):
            raise DomainError("matrix must be square and nonempty")
        ints = (self.den, *self.re, *self.im)
        if not all(isinstance(n, int) for n in ints) or self.den < 1 or gcd(*ints) != 1:
            raise DomainError("matrix must be ints in lowest terms over a positive denominator")

    @classmethod
    def _reduced(cls, dim: int, den: int, re, im) -> "GaussianMatrix":
        den, nums = _lowest_terms(den, [*re, *im])  # one gcd over both parts
        return _trusted(cls, dim=dim, den=den, re=nums[: dim * dim], im=nums[dim * dim :])

    @classmethod
    def of(cls, entries) -> "GaussianMatrix":
        def lift(v):
            if isinstance(v, GaussianRational):
                return v
            if isinstance(v, tuple):
                if len(v) not in (1, 2):
                    raise DomainError(f"an entry tuple is (re,) or (re, im), got {len(v)} parts")
                return GaussianRational.of(*v)
            return GaussianRational.of(v)

        def each(x):
            try:
                return iter(x)
            except TypeError:
                raise DomainError(
                    f"a matrix is rows of entries, got {type(x).__name__}") from None

        rows = [[lift(v) for v in each(row)] for row in each(entries)]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DomainError("matrix must be square and nonempty")
        den, nums = _over_one_den([q for row in rows for v in row for q in (v.re, v.im)])
        return cls._reduced(n, den, nums[0::2], nums[1::2])

    @classmethod
    def identity(cls, dim: int) -> "GaussianMatrix":
        diagonal = tuple(int(k % (dim + 1) == 0) for k in range(dim * dim))
        return cls(dim, 1, diagonal, (0,) * (dim * dim))

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        n, d = self.dim, self.den
        flat = [_trusted(GaussianRational, re=Fraction(a, d), im=Fraction(b, d))
                for a, b in zip(self.re, self.im)]
        return tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))

    def _same_dim(self, other: "GaussianMatrix") -> int:
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        return self.dim

    def __matmul__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        n = self._same_dim(other)
        cols = [(other.re[j::n], other.im[j::n]) for j in range(n)]
        re, im = [], []
        for i in range(0, n * n, n):
            ar, ai = self.re[i : i + n], self.im[i : i + n]
            for br, bi in cols:
                re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
                im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
        return GaussianMatrix._reduced(n, self.den * other.den, re, im)

    def __add__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        n = self._same_dim(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return GaussianMatrix._reduced(
            n,
            den,
            [s * a + t * b for a, b in zip(self.re, other.re)],
            [s * a + t * b for a, b in zip(self.im, other.im)],
        )

    def scale(self, c: GaussianRational) -> "GaussianMatrix":
        cd = lcm(c.re.denominator, c.im.denominator)
        cr = c.re.numerator * (cd // c.re.denominator)
        ci = c.im.numerator * (cd // c.im.denominator)
        pairs = list(zip(self.re, self.im))
        return GaussianMatrix._reduced(
            self.dim,
            self.den * cd,
            [a * cr - b * ci for a, b in pairs],
            [a * ci + b * cr for a, b in pairs],
        )

    def conjugate_transpose(self) -> "GaussianMatrix":
        n = self.dim
        order = [j * n + i for i in range(n) for j in range(n)]
        return _trusted(GaussianMatrix, dim=n, den=self.den, re=tuple(self.re[k] for k in order),
                        im=tuple(-self.im[k] for k in order))

    def trace(self) -> GaussianRational:
        step = self.dim + 1
        return _trusted(GaussianRational, re=Fraction(sum(self.re[::step]), self.den),
                        im=Fraction(sum(self.im[::step]), self.den))

    def kron(self, other: "GaussianMatrix") -> "GaussianMatrix":
        n, m = self.dim, other.dim
        re, im = [], []
        for i in range(n * m):
            for j in range(n * m):
                a, b = (i // m) * n + j // m, (i % m) * m + j % m
                x, y, u, v = self.re[a], self.im[a], other.re[b], other.im[b]
                re.append(x * u - y * v)
                im.append(x * v + y * u)
        return GaussianMatrix._reduced(n * m, self.den * other.den, re, im)

    def scalar_multiple_of_identity(self) -> GaussianRational | None:
        """The scalar c with self == c*I, or None."""
        c = _trusted(GaussianRational, re=Fraction(self.re[0], self.den),
                     im=Fraction(self.im[0], self.den))
        return c if self == GaussianMatrix.identity(self.dim).scale(c) else None


# -- the Pauli group ----------------------------------------------------------

#: Each letter's (x, z) bits; a (1, 1) pair is Y = i X Z, so it carries a phase i.
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PAULI_LETTERS = {bits: letter for letter, bits in _PAULI_BITS.items()}
#: log2 of the entry products one basis or normalizer check may spend (~1 s cold)
_WORK_LIMIT_BITS = 20


@dataclass(frozen=True)
class PauliElement:
    """i**phase times the tensor product of X**x Z**z over the qubits."""

    phase: int
    xbits: tuple[int, ...]
    zbits: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.xbits, tuple) and isinstance(self.zbits, tuple)):
            raise DomainError("xbits and zbits must be tuples")
        if len(self.xbits) != len(self.zbits) or not self.xbits:
            raise DomainError("xbits and zbits must have equal positive length")
        if not (isinstance(self.phase, int) and 0 <= self.phase < 4):
            raise DomainError("phase must be an int reduced mod 4")
        if any(type(b) is not int or b not in (0, 1) for b in self.xbits + self.zbits):
            raise DomainError("bit vectors must be 0/1 ints")

    @property
    def n(self) -> int:
        return len(self.xbits)

    @classmethod
    def identity(cls, n: int = 1) -> "PauliElement":
        return cls(0, (0,) * n, (0,) * n)

    @classmethod
    def single(cls, letter: str, j: int = 0, n: int = 1) -> "PauliElement":
        """X, Y, or Z acting on qubit j; Y carries the phase i of X Z."""
        if letter not in _PAULI_BITS:
            raise DomainError(f"unknown Pauli letter {letter!r}")
        x, z = [0] * n, [0] * n
        x[j], z[j] = _PAULI_BITS[letter]
        return cls(x[j] & z[j], tuple(x), tuple(z))

    def to_matrix(self) -> GaussianMatrix:
        """The monomial matrix: column c holds i**(phase + 2*|c & z|) in row c ^ x.

        Qubit 0 is the most significant bit of a basis index (the kron order),
        and Z**z acts before X**x, so X Z = [[0, -1], [1, 0]].
        """
        dim, xmask, zmask = 1 << self.n, _mask(self.xbits), _mask(self.zbits)
        re, im = [0] * (dim * dim), [0] * (dim * dim)
        for c in range(dim):
            k = (c ^ xmask) * dim + c
            re[k], im[k] = _I_POWERS[(self.phase + 2 * (c & zmask).bit_count()) % 4]
        return _trusted(GaussianMatrix, dim=dim, den=1, re=tuple(re), im=tuple(im))

    def __str__(self) -> str:
        # render (1,1) bit pairs as Y, folding the i of each XZ into the phase
        word = "".join(_PAULI_LETTERS[bits] for bits in zip(self.xbits, self.zbits))
        ys = word.count("Y")
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[(self.phase - ys) % 4]
        return prefix + word


def _mask(bits: tuple[int, ...]) -> int:
    mask = 0
    for b in bits:
        mask = mask << 1 | b
    return mask


def _word(g: PauliElement) -> tuple[int, int, int]:
    """g packed as (phase, x-mask, z-mask), qubit 0 the most significant bit."""
    return g.phase, _mask(g.xbits), _mask(g.zbits)


def _word_mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The symplectic product of two packed words."""
    (pa, xa, za), (pb, xb, zb) = a, b
    # moving each right-hand X past a left-hand Z costs a factor -1
    return (pa + pb + 2 * (za & xb).bit_count()) % 4, xa ^ xb, za ^ zb


def pauli_mul(x: PauliElement, y: PauliElement) -> PauliElement:
    """Symplectic product; agrees entrywise with the matrix product."""
    if x.n != y.n:
        raise DomainError(f"mixed qubit counts {x.n} and {y.n}")
    phase, xmask, zmask = _word_mul(_word(x), _word(y))
    shifts = range(x.n - 1, -1, -1)
    return _trusted(
        PauliElement, phase=phase,
        xbits=tuple([xmask >> k & 1 for k in shifts]),
        zbits=tuple([zmask >> k & 1 for k in shifts]),
    )


def pauli_generators(n: int) -> list[PauliElement]:
    """i*I together with X_j and Z_j for each qubit."""
    gens = [PauliElement(1, (0,) * n, (0,) * n)]
    for j in range(n):
        gens.append(PauliElement.single("X", j, n))
        gens.append(PauliElement.single("Z", j, n))
    return gens


def _pauli_closure(n: int) -> set[tuple[int, int, int]]:
    """Every packed word that products of the generators reach from the identity."""
    gens = [_word(g) for g in pauli_generators(n)]
    seen = {(0, 0, 0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                w = _word_mul(u, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def pauli_group_order(n: int) -> int:
    """Order of the closure of the generators; equals 4**(n+1)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if n > 2:
        raise ResourceLimitError("group closure is enumerated only for n in {1, 2}")
    return len(_pauli_closure(n))


def pauli_basis(n: int = 1) -> list[PauliElement]:
    """All 4**n phase-free tensor words in sigma_0,x,y,z (Y as i*XZ)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    out = []
    for bits in product((0, 1), repeat=2 * n):
        x, z = bits[:n], bits[n:]
        ys = sum(a & b for a, b in zip(x, z))
        out.append(_trusted(PauliElement, phase=ys % 4, xbits=x, zbits=z))
    return out


@lru_cache(maxsize=3)
def _basis_support(n: int) -> tuple:
    """Each sigma word of ``pauli_basis(n)`` with its matrix's nonzero (index, re, im)."""
    out = []
    for b in pauli_basis(n):
        m = b.to_matrix()
        out.append((b, [(k, r, s) for k, (r, s) in enumerate(zip(m.re, m.im)) if r or s]))
    return tuple(out)


def decompose_in_pauli_basis(m: GaussianMatrix, n: int = 1) -> dict[PauliElement, GaussianRational]:
    """Coefficients of m in the sigma basis via the trace inner product.

    The coefficient of B is tr(B† m) / 2**n, the sum of conj(B_ij) * m_ij
    over the 2**n nonzero entries of the monomial B: no matrix product.
    """
    if m.dim != 2**n:
        raise DomainError(f"expected a {2**n}x{2**n} matrix")
    den = m.den << n
    out = {}
    for b, support in _basis_support(n):
        re = sum(r * m.re[k] + s * m.im[k] for k, r, s in support)
        im = sum(r * m.im[k] - s * m.re[k] for k, r, s in support)
        if re or im:
            out[b] = _trusted(GaussianRational, re=Fraction(re, den), im=Fraction(im, den))
    return out


@dataclass(frozen=True)
class BasisReport:
    independent: bool
    spanning: bool

    @property
    def passed(self) -> bool:
        return self.independent and self.spanning

    def __str__(self) -> str:
        return (
            f"independent: {'yes' if self.independent else 'NO'}, "
            f"spanning: {'yes' if self.spanning else 'NO'}"
        )


def pauli_basis_check(n: int = 1) -> BasisReport:
    """The 4**n sigma words are a basis of the 2**n x 2**n matrices.

    Each word's own decomposition must be {word: 1}: tr(P_a† P_b) = 2**n δ_ab,
    so the distinct words are orthonormal, hence independent, and 4**n of them
    span; any other decomposition fails both.  The work, 4**n decompositions of
    4**n * 2**n entry products, is bounded by its exponent 5n.
    """
    if 5 * n > _WORK_LIMIT_BITS:
        raise ResourceLimitError(
            f"basis checking needs 2**{5 * n} entry products, over 2**{_WORK_LIMIT_BITS}"
        )
    words = pauli_basis(n)
    one = GaussianRational.of(1)
    orthonormal = all(decompose_in_pauli_basis(w.to_matrix(), n) == {w: one} for w in words)
    rank = len(set(words)) if orthonormal else 0  # without orthonormality, none is certified
    return BasisReport(independent=rank == len(words), spanning=rank == 4**n)


@dataclass(frozen=True)
class NormalizerCheck:
    member: bool
    failing_generator: PauliElement | None = None

    def __bool__(self) -> bool:
        return self.member

    def __str__(self) -> str:
        if self.member:
            return "in the normalizer"
        return f"not in the normalizer: conjugation of {self.failing_generator} leaves the Pauli set"


def is_in_normalizer(u: GaussianMatrix, n: int | None = None) -> NormalizerCheck:
    """Clifford membership by exact conjugation of the X_j, Z_j generators.

    ``u`` must be unitary up to a nonzero exact scalar (u @ u† = c*I); the
    conjugate u g u**-1 is then (u g u†)/c, and membership requires its
    Pauli-basis support to be a single word for every generator; scaling by
    c leaves the support alone, so u g u† is decomposed as it is.  The work is
    8**n entry products for u @ u†, then 3 * 8**n per generator: (6n + 1) * 8**n.
    """
    qubits = u.dim.bit_length() - 1
    if qubits < 1 or u.dim != 1 << qubits:
        raise DomainError(f"matrix side {u.dim} is not 2**n for a qubit count n >= 1")
    if n not in (None, qubits):
        raise DomainError(f"matrix side {u.dim} is 2**{qubits}, not 2**{n}")
    n = qubits
    if (work := (6 * n + 1) << 3 * n) > 1 << _WORK_LIMIT_BITS:
        raise ResourceLimitError(
            f"normalizer checking needs {6 * n + 1} * 8**{n} = {work} entry products,"
            f" over 2**{_WORK_LIMIT_BITS}"
        )
    udag = u.conjugate_transpose()
    c = (u @ udag).scalar_multiple_of_identity()
    if c is None:
        raise DomainError("matrix is not unitary up to an exact scalar")
    if c.is_zero:
        raise DomainError("matrix is not invertible")
    for g in pauli_generators(n)[1:]:  # skip i*I: central, always fine
        if len(decompose_in_pauli_basis(u @ g.to_matrix() @ udag, n)) != 1:
            return NormalizerCheck(False, g)
    return NormalizerCheck(True)


# -- finite lattices ----------------------------------------------------------


class FiniteLattice:
    """A finite lattice given by its order relation.

    The order is held as one bitmask per element: bit i of ``down[a]`` is set
    when element i <= a, and ``up`` is the transpose.  Reflexivity and
    transitivity are bit tests; given both, the order is antisymmetric exactly
    when no two elements share a down-set.  The meet of a and b is the element
    whose down-set is ``down[a] & down[b]`` and the join is the dual on
    up-sets; both are tabulated for every pair, and construction fails if any
    pair lacks one.  A query on a non-element raises ``DomainError``.
    Instances are immutable after construction.
    """

    def __init__(self, elements, leq_fn, labels=None):
        els = self._elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(els)}
        if len(self._index) != len(els):
            raise DomainError("elements must be distinct")
        labels = dict(labels or ())
        self._labels = {e: labels.get(e, str(e)) for e in els}
        down = self._down = [0] * len(els)
        up = [0] * len(els)
        for j, b in enumerate(els):
            for i, a in enumerate(els):
                if leq_fn(a, b):
                    down[j] |= 1 << i
                    up[i] |= 1 << j
        for i, a in enumerate(els):
            if not down[i] >> i & 1:
                raise DomainError(f"order is not reflexive at {self.label(a)}")
        for mask in down:
            for i in range(len(els)):
                if mask >> i & 1 and down[i] & ~mask:
                    raise DomainError("order is not transitive")
        by_down, by_up = {}, dict(zip(up, els))
        for a, mask in zip(els, down):
            if mask in by_down:
                raise DomainError(
                    f"order is not antisymmetric on {self.label(by_down[mask])}, {self.label(a)}"
                )
            by_down[mask] = a
        self._meet, self._join = {}, {}
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                try:
                    self._meet[a, b] = by_down[down[i] & down[j]]
                    self._join[a, b] = by_up[up[i] & up[j]]
                except KeyError:
                    kind = "join" if (a, b) in self._meet else "meet"
                    raise DomainError(
                        f"not a lattice: {self.label(a)}, {self.label(b)} have no unique {kind}"
                    ) from None

    @property
    def elements(self) -> tuple:
        return self._elements

    def label(self, e) -> str:
        try:
            return self._labels[e]
        except KeyError:
            raise self._not_an_element(e) from None

    def leq(self, a, b) -> bool:
        try:
            return bool(self._down[self._index[b]] >> self._index[a] & 1)
        except KeyError:
            raise self._not_an_element(a, b) from None

    def meet(self, a, b):
        try:
            return self._meet[(a, b)]
        except KeyError:
            raise self._not_an_element(a, b) from None

    def join(self, a, b):
        try:
            return self._join[(a, b)]
        except KeyError:
            raise self._not_an_element(a, b) from None

    def _not_an_element(self, *args) -> DomainError:
        bad = next(x for x in args if x not in self._index)
        return DomainError(f"{bad!r} is not an element of the lattice")


@dataclass(frozen=True)
class LawCheck:
    """Outcome of a lattice-law scan with a witness triple on failure."""

    law: str
    holds: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.holds

    def as_json(self) -> dict:
        out = {"law": self.law, "holds": self.holds}
        if self.witness:
            out.update(self.witness)
        return out


def _law_scan(lat: FiniteLattice, law: str) -> LawCheck:
    """The first triple in element order on which ``law`` fails, as a witness."""
    modular = law == "modular"
    meet, join = lat.meet, lat.join
    for a in lat.elements:
        for b in lat.elements:
            if modular and not lat.leq(b, a):
                continue
            for c in lat.elements:
                lhs = meet(a, join(b, c))
                rhs = join(b, meet(a, c)) if modular else join(meet(a, b), meet(a, c))
                if lhs != rhs:
                    witness = {"a": a, "b": b, "c": c, "lhs": lhs, "rhs": rhs}
                    return LawCheck(law, False, {k: lat.label(v) for k, v in witness.items()})
    return LawCheck(law, True)


def is_modular(lat: FiniteLattice) -> LawCheck:
    """b <= a implies a meet (b join c) == b join (a meet c), all triples."""
    return _law_scan(lat, "modular")


def is_distributive(lat: FiniteLattice) -> LawCheck:
    """a meet (b join c) == (a meet b) join (a meet c) over all triples."""
    return _law_scan(lat, "distributive")


def pentagon_lattice() -> FiniteLattice:
    """N5: 0 < x < z < 1 with y incomparable to both; fails modularity."""
    return FiniteLattice(
        "0xyz1", lambda a, b: a == b or a == "0" or b == "1" or (a, b) == ("x", "z")
    )


def diamond_lattice() -> FiniteLattice:
    """M3: three incomparable atoms; modular but not distributive."""
    return FiniteLattice("0abc1", lambda a, b: a == b or a == "0" or b == "1")


#: generated lattices are refused beyond this many elements: each law scan
#: makes up to 2 * n**3 meet/join lookups, seconds at n = 128
_MAX_LATTICE_ELEMENTS = 128


def _require_size(n: int, family: str) -> None:
    """Refuse a generated lattice of ``n`` elements before enumerating any."""
    if n > _MAX_LATTICE_ELEMENTS:
        raise ResourceLimitError(
            f"{family} lattices are supported up to {_MAX_LATTICE_ELEMENTS} elements"
        )


def chain_lattice(k: int) -> FiniteLattice:
    if k < 1:
        raise DomainError("a chain needs at least one element")
    _require_size(k, "chain")
    return FiniteLattice(range(k), lambda a, b: a <= b)


def boolean_lattice(k: int) -> FiniteLattice:
    """Subsets of a k-set under inclusion; the distributive benchmark."""
    if k < 0:
        raise DomainError("a boolean lattice needs k >= 0")
    # capping k keeps a huge k cheap: 2**bit_length already exceeds the bound
    _require_size(2 ** min(k, _MAX_LATTICE_ELEMENTS.bit_length()), "boolean")
    elements = [frozenset(sub) for size in range(k + 1) for sub in combinations(range(k), size)]
    labels = {e: "{" + ",".join(map(str, sorted(e))) + "}" for e in elements}
    return FiniteLattice(elements, frozenset.issubset, labels)


class SubspaceLattice(FiniteLattice):
    """All subspaces of F_q^d ordered by inclusion.

    Elements are the full vector sets (frozensets of tuples), enumerated
    once each via row-reduced echelon bases; meet is set intersection and
    join is the sum space, both read off the down-set and up-set masks of
    ``FiniteLattice`` and cross-checked in the tests.  The element count (the
    sum of the Gaussian binomials [d choose j]_q) is bounded before any
    subspace is enumerated, and q**d bounds each vector set.
    """

    def __init__(self, q: int, d: int):
        require_prime(q)
        if d < 1:
            raise DomainError("dimension must be at least 1")
        if d > 14 or q**d > 2**14:  # q >= 2, so d > 14 alone exceeds it
            raise ResourceLimitError("subspace lattices need q**d <= 2**14")
        _require_size(_subspace_count(q, d), "subspace")
        self.q = q
        self.d = d
        elements = []
        labels = {}
        for basis in _rref_bases(q, d):
            space = _span(basis, q, d)
            elements.append(space)
            if basis:
                labels[space] = "span{" + ",".join(_vec_str(v) for v in basis) + "}"
            else:
                labels[space] = "0"
        super().__init__(elements, frozenset.issubset, labels)


def _subspace_count(q: int, d: int) -> int:
    """Subspaces of F_q^d, by Goldman and Rota's G(n+1) = 2G(n) + (q**n - 1)G(n-1)."""
    g, h = 1, 2  # G(0), G(1)
    for n in range(1, d):
        g, h = h, 2 * h + (q**n - 1) * g
    return h


def _vec_str(v: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, v)) + ")"


def _rref_bases(q: int, d: int):
    """Every subspace of F_q^d exactly once, as a row-reduced basis."""
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free_cells = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, d)
                if j not in pivots
            ]
            for values in product(range(q), repeat=len(free_cells)):
                rows = []
                for i in range(k):
                    row = [0] * d
                    row[pivots[i]] = 1
                    rows.append(row)
                for (i, j), v in zip(free_cells, values):
                    rows[i][j] = v
                yield tuple(tuple(r) for r in rows)


def _span(basis, q: int, d: int) -> frozenset:
    vectors = set()
    for coeffs in product(range(q), repeat=len(basis)):
        vec = [0] * d
        for c, row in zip(coeffs, basis):
            if c:
                for j in range(d):
                    vec[j] = (vec[j] + c * row[j]) % q
        vectors.add(tuple(vec))
    return frozenset(vectors)


def subspace_lattice(q: int, d: int) -> SubspaceLattice:
    return SubspaceLattice(q, d)
