"""Request kinds of the ``library_bulk`` workload: public padiclab calls only.

Each kind draws its inputs from a seeded ``random.Random`` (test-suite
distributions where an acceptance test defines one), runs one public call
chain as the timed request, and checks the result by an independent route
afterwards, outside the timed interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mpmath import mp

from padiclab import (
    FqPolynomial,
    GaussianMatrix,
    GaussianRational,
    PadicNumber,
    PauliElement,
    RationalFunction,
    borel_sum,
    boolean_lattice,
    code_add,
    code_div,
    code_mul,
    code_sub,
    decode,
    encode,
    exp_e1_oracle,
    farey_bound,
    hensel_lift,
    is_distributive,
    is_in_normalizer,
    is_modular,
    local_norms,
    local_norms_ff,
    norm,
    pauli_mul,
    poly_valuation,
    product_formula_check,
    product_formula_check_ff,
    sqrt_padic,
    subspace_lattice,
)


@dataclass(frozen=True)
class Kind:
    """One request kind: its layer, how many it gets per pass, and its code."""

    name: str
    layer: str
    per_pass: int
    make: Callable[[Any, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


# -- valuations_product -------------------------------------------------------


def _make_pf_q(rng, i):
    # acceptance test 03: rationals with |num|, den <= 1e12
    num = rng.randint(1, 10**12) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 10**12))


def _run_pf_q(a):
    return product_formula_check(a)


def _check_pf_q(a, result):
    if result != 1:
        return False
    for place, v in local_norms(a):
        if place.kind == "archimedean":
            want = abs(a)
        elif place.prime < 2**32:
            want = norm(a, place.prime)
        else:  # past the primality gate of padic_core.norm
            want = _oracle_norm(a, place.prime)
        if v != want:
            return False
    return True


def _make_pf_ff(rng, i):
    # acceptance test 04: F_2/F_3/F_5(x), numerator and denominator degree <= 8
    p = rng.choice((2, 3, 5))

    def draw():
        deg = rng.randint(0, 8)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randint(1, p - 1)]
        return FqPolynomial.of(p, *coeffs)

    return RationalFunction.of(draw(), draw())


def _run_pf_ff(f):
    return product_formula_check_ff(f)


def _check_pf_ff(f, result):
    if result != 1:
        return False
    for place, v in local_norms_ff(f):
        e = int(poly_valuation(f, place))
        if place.kind == "degree_infinity":
            want = Fraction(f.p) ** (-e)
        else:
            want = Fraction(f.p) ** (-place.poly.degree * e)
        if v != want:
            return False
    return True


def _make_ultrametric(rng, i):
    # acceptance test 05
    p = rng.choice((2, 3, 5, 7, 11))
    a = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
    b = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
    return a, b, p


def _run_ultrametric(inp):
    a, b, p = inp
    return norm(a, p), norm(b, p), norm(a + b, p)


def _int_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _oracle_norm(q: Fraction, p: int) -> Fraction:
    if q == 0:
        return Fraction(0)
    return Fraction(1, p) ** (_int_val(q.numerator, p) - _int_val(q.denominator, p))


def _check_ultrametric(inp, result):
    a, b, p = inp
    na, nb, ns = result
    if (na, nb, ns) != (_oracle_norm(a, p), _oracle_norm(b, p), _oracle_norm(a + b, p)):
        return False
    return ns <= max(na, nb) and (na == nb or ns == max(na, nb))


# -- padic_core ---------------------------------------------------------------


def _make_padic(r):
    def make(rng, i):
        p = (2, 3, 5, 7, 11)[i % 5]  # cost grows with p: give each prime its share
        a = Fraction(rng.randint(1, 10**6) * rng.choice((1, -1)), rng.randint(1, 10**6))
        # v_p(b) >= 1, so b + 1 is a unit: a*b + a = a*(b+1) keeps all r digits
        den = rng.randint(1, 10**6)
        while den % p == 0:
            den = rng.randint(1, 10**6)
        b = Fraction(p * rng.randint(1, 10**6) * rng.choice((1, -1)), den)
        return a, b, p, r, PadicNumber.from_rational(a, p, r), PadicNumber.from_rational(b, p, r)

    return make


def _run_padic(inp):
    x, y = inp[4], inp[5]
    return x.mul(y).add(x).inv()


def _check_padic(inp, result):
    a, b, p, r = inp[:4]
    return result == PadicNumber.from_rational(1 / (a * b + a), p, r)


# -- hensel -------------------------------------------------------------------


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _make_lift(method, k):
    def make(rng, i):
        p = (3, 5, 7)[i % 3]
        while True:
            deg = rng.randint(2, 4)
            coeffs = [rng.randrange(-50, 51) for _ in range(deg)] + [rng.randint(1, 9)]
            x0 = rng.randrange(p)
            coeffs[0] -= _eval(coeffs, x0) % p
            deriv = sum(i * c * x0 ** (i - 1) for i, c in enumerate(coeffs) if i)
            if deriv % p:
                return tuple(coeffs), x0, p, k, method

    return make


def _run_lift(inp):
    coeffs, x0, p, k, method = inp
    return hensel_lift(coeffs, x0, p, k, method=method)


def _check_lift(inp, trace):
    coeffs, x0, p, k, method = inp
    other = hensel_lift(coeffs, x0, p, k, method="newton" if method == "digit" else "digit")
    return (
        trace.residues == other.residues
        and trace.digits == other.digits
        and _eval(coeffs, trace.residues[-1]) % p ** (k + 1) == 0
    )


def _make_sqrt(rng, i):
    p = (3, 5, 7)[i % 3]
    s = rng.randrange(1, p)
    return s * s + p * rng.randint(0, 10**6), p, 60


def _run_sqrt(inp):
    return tuple(sqrt_padic(*inp))


def _check_sqrt(inp, roots):
    a, p, r = inp
    m = p**r
    values = [x.unit_value for x in roots]
    return (
        len(values) == 2
        and values[0] != values[1]
        and all(int(x.v) == 0 and (u * u - a) % m == 0 for x, u in zip(roots, values))
    )


# -- hensel_codes -------------------------------------------------------------

_CODE_OPS = {
    "add": (lambda x, y: code_add(x, y), lambda a, b: a + b),
    "sub": (lambda x, y: code_sub(x, y), lambda a, b: a - b),
    "mul": (lambda x, y: code_mul(x, y), lambda a, b: a * b),
    "div": (lambda x, y: code_div(x, y), lambda a, b: a / b),
}


def _make_code(rng, i):
    p = rng.choice((5, 7, 11, 13))
    r = rng.randint(100, 300)
    # |num|, den <= sqrt(N/2) keeps every result inside the Farey box
    m = math.isqrt(farey_bound(p, r) // 2)
    op = rng.choice(sorted(_CODE_OPS))

    def draw():
        while True:
            q = Fraction(rng.randint(-m, m), rng.randint(1, m))
            if q.denominator % p and (op != "div" or q.numerator % p):
                return q

    return draw(), draw(), p, r, op


def _run_code(inp):
    a, b, p, r, op = inp
    return decode(_CODE_OPS[op][0](encode(a, p, r), encode(b, p, r)))


def _check_code(inp, result):
    a, b, p, r, op = inp
    return result == _CODE_OPS[op][1](a, b) and decode(encode(a, p, r)) == a


# -- quantum_logic ------------------------------------------------------------


def _make_pauli(rng, i):
    n = rng.choice((1, 2))

    def draw():
        return PauliElement(
            rng.randrange(4),
            tuple(rng.randrange(2) for _ in range(n)),
            tuple(rng.randrange(2) for _ in range(n)),
        )

    return draw(), draw()


def _run_pauli(inp):
    return pauli_mul(*inp)


def _check_pauli(inp, result):
    a, b = inp
    return result.to_matrix() == a.to_matrix() @ b.to_matrix()


_I = GaussianRational.of(0, 1)
_ZETA = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))


def _two_qubit_gates():
    h, eye = GaussianMatrix.of([[1, 1], [1, -1]]), GaussianMatrix.identity(2)
    s = GaussianMatrix.of([[1, 0], [0, _I]])
    clifford = [
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),  # CNOT
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),  # CZ
        GaussianMatrix.of([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),  # SWAP
        h.kron(eye),
        eye.kron(h),
        s.kron(eye),
        eye.kron(s),
    ]
    non_clifford = [
        GaussianMatrix.of([[1, 0], [0, _ZETA]]).kron(eye),
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, _ZETA]]),
    ]
    return clifford, non_clifford


_CLIFFORD, _NON_CLIFFORD = _two_qubit_gates()


def _make_normalizer(rng, i):
    # a product of Clifford gates is Clifford; one non-Clifford factor spoils
    # it.  Members cost ~4x more than non-members, so they alternate.
    u = rng.choice(_CLIFFORD)
    for _ in range(rng.randint(0, 2)):
        u = u @ rng.choice(_CLIFFORD)
    member = i % 2 == 0
    if not member:
        u = u @ rng.choice(_NON_CLIFFORD)
    return u, member


def _run_normalizer(inp):
    return is_in_normalizer(inp[0])


def _check_normalizer(inp, result):
    return result.member == inp[1]


def _gaussian_binomial_sum(q, d):
    # number of subspaces of F_q^d
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (d - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _laws(lat):
    return len(lat.elements), is_modular(lat).holds, is_distributive(lat).holds


# the run functions look padiclab names up at call time, so that a tracer
# that rebinds those names sees these calls too
def _run_subspace(inp):
    return _laws(subspace_lattice(*inp))


def _run_boolean(inp):
    return _laws(boolean_lattice(*inp))


def _check_subspace(inp, result):
    q, d = inp
    return result == (_gaussian_binomial_sum(q, d), True, d < 2)


def _check_boolean(inp, result):
    return result == (2 ** inp[0], True, True)


# -- resurgence ---------------------------------------------------------------


def _make_borel(rng, i):
    return Fraction(rng.randint(1, 40), 20)


def _run_borel(t):
    return borel_sum(t)


def _check_borel(t, result):
    with mp.workdps(30):
        oracle = exp_e1_oracle(t)
        return abs(result.value - oracle) / abs(oracle) <= mp.mpf("1e-8")


# per_pass sets the mix: each layer gets a visible share of a pass and no
# kind dominates; where a categorical draw sets the cost (the prime, the
# lattice, Clifford membership) it cycles with the request index instead,
# so a pass costs nearly the same on every seed.  BENCHMARK.json records
# the measured shares.
KINDS = (
    Kind("pf_q", "valuations_product", 80, _make_pf_q, _run_pf_q, _check_pf_q),
    Kind("pf_ff", "valuations_product", 60, _make_pf_ff, _run_pf_ff, _check_pf_ff),
    Kind("ultrametric", "padic_core", 200, _make_ultrametric, _run_ultrametric, _check_ultrametric),
    Kind("padic_r10", "padic_core", 200, _make_padic(10), _run_padic, _check_padic),
    Kind("padic_r100", "padic_core", 60, _make_padic(100), _run_padic, _check_padic),
    Kind("padic_r1000", "padic_core", 5, _make_padic(1000), _run_padic, _check_padic),
    Kind("lift_digit_k100", "hensel", 30, _make_lift("digit", 100), _run_lift, _check_lift),
    Kind("lift_newton_k100", "hensel", 30, _make_lift("newton", 100), _run_lift, _check_lift),
    Kind("lift_digit_k1000", "hensel", 3, _make_lift("digit", 1000), _run_lift, _check_lift),
    Kind("lift_newton_k1000", "hensel", 3, _make_lift("newton", 1000), _run_lift, _check_lift),
    Kind("sqrt_padic", "hensel", 30, _make_sqrt, _run_sqrt, _check_sqrt),
    Kind("code_roundtrip", "hensel_codes", 200, _make_code, _run_code, _check_code),
    Kind("pauli_mul", "quantum_logic", 100, _make_pauli, _run_pauli, _check_pauli),
    Kind("normalizer", "quantum_logic", 1, _make_normalizer, _run_normalizer, _check_normalizer),
    Kind(
        "lattice_subspace",
        "quantum_logic",
        4,
        lambda rng, i: ((2, 2), (3, 2), (5, 2), (2, 3))[i % 4],
        _run_subspace,
        _check_subspace,
    ),
    Kind(
        "lattice_boolean",
        "quantum_logic",
        3,
        lambda rng, i: ((3, 4, 5)[i % 3],),
        _run_boolean,
        _check_boolean,
    ),
    Kind("borel", "resurgence", 10, _make_borel, _run_borel, _check_borel),
)


def make_pool(rng, passes: int) -> list[list[tuple[Kind, int, Any]]]:
    """``passes`` lists of (kind, input index, input), one per pass."""
    pool = []
    for n in range(passes):
        requests = []
        for kind in KINDS:
            for j in range(kind.per_pass):
                i = n * kind.per_pass + j
                requests.append((kind, i, kind.make(rng, i)))
        pool.append(requests)
    return pool
