"""Census of who validates: one rule for every exact value type.

A public constructor ``Type(...)`` checks every field, since its input comes
from outside the library.  A library routine builds its results with
``padic_core._trusted``, which skips those checks, since the routine has
already certified them.  Each row below takes results of library routines
and rebuilds them through the public constructor (``dataclasses.replace``
calls it with the same fields): it must accept each one and give an equal,
equally hashed value.  An ``ast`` scan keeps the rows complete, one per type
that ``src/`` builds with ``_trusted``, and keeps ``_trusted`` the one place
that makes an instance around ``__init__``.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from padiclab import (
    INFINITY,
    DomainError,
    EulerSeries,
    FqPolynomial,
    GaussianMatrix,
    HenselCode,
    LiftTrace,
    PadicNumber,
    PauliElement,
    PrimeFactorization,
    RationalFunction,
    RationalPolynomial,
    Valuation,
    code_add,
    code_div,
    code_mul,
    code_sub,
    encode,
    enumerate_irreducibles,
    factor,
    factor_poly,
    hensel_lift,
    local_norms,
    local_norms_ff,
    parse_expansion_string,
    decompose_in_pauli_basis,
    nu,
    pauli_basis,
    pauli_generators,
    pauli_mul,
    poly_valuation,
    sqrt_padic,
)
from padiclab.quantum_logic import GaussianRational

SRC = Path(__file__).resolve().parent.parent / "src" / "padiclab"
PRIMES = (2, 3, 5, 7, 13, 101, 65537)


def rational(rng, size=10**6):
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def padic_numbers(rng):
    out = []
    for _ in range(40):
        p = rng.choice(PRIMES)
        x, y = (PadicNumber.from_rational(rational(rng), p, rng.randint(1, 30)) for _ in "xy")
        out += [x, y, x + y, x - y, x * y, -x, x - x, x.truncate(1), PadicNumber.zero(p, 3)]
        out += [z.inv() for z in (x, y) if not z.is_zero]
        out.append(PadicNumber.from_integer(rng.randint(-(10**9), 10**9), p, rng.randint(1, 9)))
    out.append(parse_expansion_string("1,2'0'3", 13, 5))
    out.append(hensel_lift((-2, 0, 1), 3, 7, 9).as_padic(10))
    return out + sqrt_padic(2, 7, 12)


def rational_polynomials(rng):
    out = []
    for _ in range(40):
        f, g = (RationalPolynomial.of(*(rational(rng, 50) for _ in range(rng.randint(0, 5))))
                for _ in "fg")
        out += [f, g, f + g, f - g, f * g, -f, f - f, f.derivative()]
    return out


def gaussian_matrices(rng):
    out = [w.to_matrix() for w in pauli_basis(2)]
    for _ in range(20):
        n = rng.randint(1, 3)
        a, b = (GaussianMatrix.of([[(rational(rng, 20), rational(rng, 20)) for _ in range(n)]
                                   for _ in range(n)]) for _ in "ab")
        c = GaussianRational.of(rational(rng, 20), rational(rng, 20))
        out += [a, b, a @ b, a + b, a.scale(c), a.kron(b), a.conjugate_transpose()]
        out += [GaussianMatrix.identity(n), a + a.scale(GaussianRational.of(-1))]
    return out


def fq_polynomials(rng):
    out = list(enumerate_irreducibles(3, 3))
    for _ in range(40):
        p = rng.choice(PRIMES[:5])
        f, g = (FqPolynomial.of(p, *(rng.randint(-20, 20) for _ in range(rng.randint(0, 7))))
                for _ in "fg")
        out += [f, g, f + g, f - g, f * g, -f, f.monic(), f.gcd(g)]
        if not g.is_zero:
            out += divmod(f, g)
        if not f.is_zero:
            out += list(factor_poly(f)[1])
    return out


def rational_function(rng):
    p = rng.choice(PRIMES[:4])
    num, den = (FqPolynomial.of(p, *(rng.randrange(p) for _ in range(rng.randint(0, 6))), 1)
                for _ in "nd")
    return RationalFunction.of(num, den)


def rational_functions(rng):
    fs = [rational_function(rng) for _ in range(40)]
    return fs + [RationalFunction.of(f.num - f.num, f.den) for f in fs]


def places(rng):
    out = []
    for _ in range(20):
        out += [place for place, _ in local_norms(rational(rng, 10**9))]
        out += [place for place, _ in local_norms_ff(rational_function(rng))]
    return out


def prime_factorizations(rng):
    ns = [rng.randint(-(10**12), 10**12) or 1 for _ in range(40)]
    return [factor(n) for n in ns + [1, -1, 2**40, 999_999_937 * 1_000_003]]


def hensel_codes(rng):
    out = []
    for _ in range(40):
        p, r = rng.choice(PRIMES), rng.randint(1, 12)
        a, b = (rational(rng, 10**4) for _ in "ab")
        if a.denominator % p == 0 or b.denominator % p == 0:
            continue
        x, y = encode(a, p, r), encode(b, p, r)
        out += [x, y, code_add(x, y), code_sub(x, y), code_mul(x, y)]
        if y.value % p:
            out.append(code_div(x, y))
    return out


def lift_traces(rng):
    out = []
    for _ in range(20):
        p = rng.choice(PRIMES[1:])
        a = rng.randint(1, 10**6)
        for x0 in range(p if p < 1000 else 0):
            if (x0 * x0 - a) % p == 0 and (2 * x0) % p:
                k = rng.randint(0, 40)
                out += [hensel_lift((-a, 0, 1), x0, p, k, method) for method in ("newton", "digit")]
    return out


def pauli_elements(rng):
    out = pauli_basis(1) + pauli_basis(2) + pauli_generators(2)
    for _ in range(40):
        x, y = rng.choice(out), rng.choice(out)
        if x.n == y.n:
            out.append(pauli_mul(x, y))
    return out


def valuations(rng):
    out = [INFINITY]
    for _ in range(20):
        a, p = rational(rng), rng.choice(PRIMES)
        v, w = nu(a, p), nu(rational(rng), p)
        out += [v, v + w, v + INFINITY, -v, nu(0, p)]
        x = PadicNumber.from_rational(a, p, rng.randint(1, 9))
        out += [x.v, x.inv().v, (x * x).v, (x - x).v, PadicNumber.from_integer(a.numerator, p, 3).v]
        f = rational_function(rng)
        if not f.is_zero:
            out += [poly_valuation(f, place) for place, _ in local_norms_ff(f)
                    if place.kind != "finite"]
    return out


def gaussian_rationals(rng):
    out = []
    for m in gaussian_matrices(rng)[:12]:
        entries = [z for row in m.rows for z in row]
        out += entries + [m.trace()]
        if m.dim in (2, 4):
            out += decompose_in_pauli_basis(m, m.dim.bit_length() - 1).values()
        z, w = entries[0], entries[-1]
        out += [z + w, z - w, z * w, -z, z.conjugate()]
        out += [z / w] if not w.is_zero else []
    out += [GaussianMatrix.identity(2).scale(out[0]).scalar_multiple_of_identity()]
    return out


def euler_series(rng):
    return [EulerSeries.up_to(order) for order in [*range(20), rng.randint(20, 500)]]


RESULTS = {
    "PadicNumber": padic_numbers,
    "RationalPolynomial": rational_polynomials,
    "GaussianMatrix": gaussian_matrices,
    "FqPolynomial": fq_polynomials,
    "RationalFunction": rational_functions,
    "Place": places,
    "PrimeFactorization": prime_factorizations,
    "HenselCode": hensel_codes,
    "LiftTrace": lift_traces,
    "PauliElement": pauli_elements,
    "Valuation": valuations,
    "GaussianRational": gaussian_rationals,
    "EulerSeries": euler_series,
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_every_library_result_passes_its_public_constructor(name):
    values = RESULTS[name](random.Random(name))
    assert len(values) >= 20 and {type(v).__name__ for v in values} == {name}
    for v in values:
        rebuilt = dataclasses.replace(v)  # runs __init__ and every check
        assert rebuilt == v and hash(rebuilt) == hash(v)


#: Public constructors and the named constructors that check their own arguments,
#: each given one field or argument that is not an int.
NOT_INTS = {
    "PadicNumber r": lambda: PadicNumber(5, Valuation(0), 1, 2.0),
    "PadicNumber zero r": lambda: PadicNumber(5, INFINITY, 0, 2.0),
    "PadicNumber v": lambda: PadicNumber(5, Valuation(0.5), 1, 2),
    "PadicNumber.from_rational r": lambda: PadicNumber.from_rational(Fraction(1, 3), 5, 2.0),
    "encode r": lambda: encode(Fraction(2, 3), 5, 2.0),
    "HenselCode r": lambda: HenselCode(5, 2.0, 3),
    "HenselCode value": lambda: HenselCode(5, 2, 3.5),
    "FqPolynomial.of coefficient": lambda: FqPolynomial.of(5, 1.5, 1),
    "FqPolynomial coefficient": lambda: FqPolynomial(5, (2.5, 1)),
    "LiftTrace root": lambda: LiftTrace(7, (-2, 0, 1), 2, 108.0),
    "LiftTrace k": lambda: LiftTrace(7, (-2, 0, 1), 2.0, 108),
    "LiftTrace f": lambda: LiftTrace(7, (-2.0, 0, 1), 2, 108),
    "PauliElement phase": lambda: PauliElement(0.5, (1,), (0,)),
    "PauliElement bit": lambda: PauliElement(0, (1.0,), (0,)),
    "PrimeFactorization exponent": lambda: PrimeFactorization(1, ((2, 1.5),)),
    "PrimeFactorization sign": lambda: PrimeFactorization(1.0, ()),
    "Valuation.finite": lambda: Valuation.finite(1.5),
    "GaussianMatrix entry": lambda: GaussianMatrix(1, 1, (1.0,), (0,)),
    "GaussianMatrix dim": lambda: GaussianMatrix(1.0, 1, (1,), (0,)),
    "RationalPolynomial numerator": lambda: RationalPolynomial(1, (1.5,)),
}


@pytest.mark.parametrize("build", NOT_INTS.values(), ids=NOT_INTS.keys())
def test_a_field_that_is_not_an_int_is_refused(build):
    with pytest.raises(DomainError):
        build()


class _Scan(ast.NodeVisitor):
    """The types built by ``_trusted`` calls, and each use of ``object.__new__/__setattr__``."""

    def __init__(self, module: str):
        self.module, self.scope, self.built, self.raw = module, [], set(), []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "_trusted":
            built = node.args[0].id
            self.built.add(self.scope[0] if built == "cls" else built)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "object"
                and node.attr in ("__new__", "__setattr__")):
            self.raw.append(".".join([self.module, *self.scope]))
        self.generic_visit(node)


def scan_src() -> _Scan:
    total = _Scan("")
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        total.built |= scan.built
        total.raw += scan.raw
    return total


def test_only_trusted_builds_around_init():
    assert scan_src().raw == ["padic_core._trusted"]


def test_every_type_built_trusted_has_a_census_row():
    assert scan_src().built == set(RESULTS)


#: Public constructors given fields of the right kind that break the type's shape or
#: meaning: a bool or a list for a bit vector, a lift to a non-root or a singular
#: root, a bare int for a valuation, a float, str or bool for a valuation or a
#: Gaussian part, and a series that is not the Euler series.
NOT_VALUES = {
    "PauliElement bool bit": lambda: PauliElement(0, (True,), (False,)),
    "PauliElement list bits": lambda: PauliElement(0, [1], [0]),
    "LiftTrace root of no lift": lambda: LiftTrace(7, (-2, 0, 1), 2, 5),
    "LiftTrace root mod p only": lambda: LiftTrace(7, (-2, 0, 1), 2, 3),
    "LiftTrace singular root": lambda: LiftTrace(2, (-2, 0, 1), 0, 0),
    "PadicNumber v": lambda: PadicNumber(5, 0, 1, 2),
    "Valuation float": lambda: Valuation(0.5),
    "Valuation str": lambda: Valuation("3"),
    "Valuation bool": lambda: Valuation(True),
    "GaussianRational float": lambda: GaussianRational(0.5, 0),
    "GaussianRational str": lambda: GaussianRational("a", 1),
    "GaussianRational bool": lambda: GaussianRational(0, True),
    "GaussianMatrix.of float entry": lambda: GaussianMatrix.of([[GaussianRational(0.5, 0)]]),
    "EulerSeries coefficients": lambda: EulerSeries(3, (1, 2)),
    "EulerSeries list coefficients": lambda: EulerSeries(1, [1, -1]),
    "EulerSeries bool order": lambda: EulerSeries(True, (1, -1)),
    "EulerSeries.up_to float": lambda: EulerSeries.up_to(2.5),
}


@pytest.mark.parametrize("build", NOT_VALUES.values(), ids=NOT_VALUES.keys())
def test_a_field_that_breaks_the_invariant_is_refused(build):
    with pytest.raises(DomainError):
        build()
