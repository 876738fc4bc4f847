"""Exact Pauli-group algebra, Clifford-normalizer tests, and finite lattices.

Two independent representations of the Pauli group are kept in sync on
purpose: the symplectic (phase, xbits, zbits) form used for the group
structure, and exact Gaussian-rational matrices used as the oracle.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import (
    BasisReport,
    DomainError,
    FiniteLattice,
    GaussianMatrix,
    GaussianRational,
    NormalizerCheck,
    PauliElement,
    ResourceLimitError,
    boolean_lattice,
    chain_lattice,
    decompose_in_pauli_basis,
    diamond_lattice,
    is_distributive,
    is_in_normalizer,
    is_modular,
    pauli_basis,
    pauli_basis_check,
    pauli_generators,
    pauli_group_order,
    pauli_mul,
    pentagon_lattice,
    subspace_lattice,
)
from padiclab import quantum_logic


def rand_pauli(n: int):
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return st.builds(
        lambda ph, x, z: PauliElement(ph, tuple(x), tuple(z)),
        st.integers(0, 3),
        bits,
        bits,
    )


# ---------------------------------------------------------------------------
# Gaussian rationals / matrices
# ---------------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    z = GaussianRational.of(Fraction(3), Fraction(4))
    w = GaussianRational.of(Fraction(0), Fraction(1))
    assert z * z.conjugate() == GaussianRational.of(Fraction(25))
    assert w * w == GaussianRational.of(Fraction(-1))
    assert (z / z) == GaussianRational.of(Fraction(1))
    assert str(w) == "i"


def test_gaussian_rational_sum_negation_and_ints():
    z, w = GaussianRational(3, -4), GaussianRational(Fraction(1, 2), 1)
    assert z + w == GaussianRational(Fraction(7, 2), -3) and z + -z == GaussianRational(0, 0)
    assert -w == GaussianRational(Fraction(-1, 2), -1)
    # int parts divide exactly: 1/2, not 0.5
    half = GaussianRational(1, 0) / GaussianRational(2, 0)
    assert half == GaussianRational(Fraction(1, 2), 0) and isinstance(half.re, Fraction)


@pytest.mark.parametrize(
    "re, im, text",
    [(Fraction(-1, 2), 0, "-1/2"), (3, 0, "3"), (0, -1, "-i"), (0, Fraction(4, 5), "4/5i"),
     (3, -2, "3-2i"), (-1, 2, "-1+2i"), (3, 1, "3+i"),
     (Fraction(3, 5), Fraction(-4, 5), "3/5-4/5i")],
)
def test_gaussian_rational_text(re, im, text):
    assert str(GaussianRational(re, im)) == text


@pytest.mark.parametrize(
    "build, holds",
    [(pentagon_lattice, False), (diamond_lattice, True), (lambda: boolean_lattice(2), True)],
)
def test_a_law_check_is_true_exactly_when_the_law_holds(build, holds):
    check = is_modular(build())
    assert bool(check) is check.holds is holds


def test_gaussian_matrix_mul_identity():
    m = GaussianMatrix.of([[1, 2], [3, 4]])
    assert m @ GaussianMatrix.identity(2) == m


# A GaussianMatrix keeps integer numerators over one denominator; the
# reference below works entrywise on (re, im) pairs of Fractions.

_RATIONALS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
_ENTRIES = st.one_of(st.just((Fraction(0), Fraction(0))), st.tuples(_RATIONALS, _RATIONALS))


def _square(n: int):
    return st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


_SQUARES = st.sampled_from([1, 2, 4]).flatmap(_square)


def _pairs(m: GaussianMatrix) -> list:
    return [[(v.re, v.im) for v in row] for row in m.rows]


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _csum(values):
    values = list(values)
    return (sum(v[0] for v in values), sum(v[1] for v in values))


def _assert_canonical(m: GaussianMatrix):
    assert m.den > 0 and gcd(m.den, *m.re, *m.im) == 1


@settings(max_examples=60, deadline=None)
@given(a=_SQUARES, data=st.data())
def test_matrix_ops_match_a_fraction_reference(a, data):
    n = len(a)
    b = data.draw(_square(n))
    c = data.draw(_ENTRIES)
    k = data.draw(_SQUARES)
    ma, mb, mk = GaussianMatrix.of(a), GaussianMatrix.of(b), GaussianMatrix.of(k)
    for mat in (ma, mb, mk):
        _assert_canonical(mat)
        assert GaussianMatrix.of(mat.rows) == mat
    matmul = [
        [_csum(_cmul(a[i][t], b[t][j]) for t in range(n)) for j in range(n)] for i in range(n)
    ]
    assert _pairs(ma @ mb) == matmul
    add = [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert _pairs(ma + mb) == add
    assert _pairs(ma.scale(GaussianRational(*c))) == [[_cmul(c, x) for x in row] for row in a]
    adjoint = [[(a[j][i][0], -a[j][i][1]) for j in range(n)] for i in range(n)]
    assert _pairs(ma.conjugate_transpose()) == adjoint
    trace = ma.trace()
    assert (trace.re, trace.im) == _csum(a[i][i] for i in range(n))
    m = len(k)
    kron = [[_cmul(a[i // m][j // m], k[i % m][j % m]) for j in range(n * m)] for i in range(n * m)]
    assert _pairs(ma.kron(mk)) == kron
    for result in (ma @ mb, ma + mb, ma.scale(GaussianRational(*c)), ma.kron(mk)):
        _assert_canonical(result)


@settings(max_examples=60, deadline=None)
@given(a=_SQUARES, c=st.tuples(_RATIONALS, _RATIONALS))
def test_equal_matrices_over_other_denominators_are_equal_and_hash_alike(a, c):
    assume(c != (0, 0))
    m = GaussianMatrix.of(a)
    c = GaussianRational(*c)
    round_trip = m.scale(c).scale(GaussianRational.of(1) / c)
    assert round_trip == m and hash(round_trip) == hash(m)
    assert GaussianMatrix.of(m.rows) == m and hash(GaussianMatrix.of(m.rows)) == hash(m)


def test_half_identity_built_two_ways():
    half = Fraction(1, 2)
    a = GaussianMatrix.of([[half, 0], [0, half]])
    b = GaussianMatrix.identity(2).scale(GaussianRational.of(half))
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.re, a.im) == (2, (1, 0, 0, 1), (0, 0, 0, 0))
    assert GaussianMatrix.of([[0, 0], [0, 0]]).den == 1


def test_matrix_shape_and_form_are_checked():
    with pytest.raises(DomainError, match="square"):
        GaussianMatrix.of([[1, 2, 3], [4]])
    with pytest.raises(DomainError, match="square"):
        GaussianMatrix.of([])
    with pytest.raises(DomainError, match="lowest terms"):
        GaussianMatrix(1, 2, (2,), (0,))
    with pytest.raises(DomainError, match="lowest terms"):
        GaussianMatrix(1, -1, (1,), (0,))
    with pytest.raises(DomainError, match="dimension mismatch"):
        GaussianMatrix.identity(2) @ GaussianMatrix.identity(4)


# ---------------------------------------------------------------------------
# Pauli group — symplectic vs matrix oracle
# ---------------------------------------------------------------------------


def test_xz_product_is_minus_i_y():
    x = PauliElement.single("X")
    z = PauliElement.single("Z")
    prod = pauli_mul(x, z)
    assert (prod.phase, prod.xbits, prod.zbits) == (0, (1,), (1,))
    assert str(prod) == "-iY"


def test_involutions_and_identity():
    for name in "XYZ":
        g = PauliElement.single(name)
        assert pauli_mul(g, g) == PauliElement.identity(1)
    e = PauliElement.identity(1)
    y = PauliElement.single("Y")
    assert pauli_mul(e, y) == y


@given(x=rand_pauli(1), y=rand_pauli(1))
def test_mul_agrees_with_matrices_1q(x, y):
    lhs = pauli_mul(x, y).to_matrix()
    rhs = x.to_matrix() @ y.to_matrix()
    assert lhs == rhs


@settings(max_examples=60)
@given(x=rand_pauli(2), y=rand_pauli(2))
def test_mul_agrees_with_matrices_2q(x, y):
    assert pauli_mul(x, y).to_matrix() == x.to_matrix() @ y.to_matrix()


@given(x=rand_pauli(2), y=rand_pauli(2), z=rand_pauli(2))
def test_mul_associative(x, y, z):
    assert pauli_mul(pauli_mul(x, y), z) == pauli_mul(x, pauli_mul(y, z))


@given(g=rand_pauli(2))
def test_every_element_has_order_dividing_four(g):
    acc = PauliElement.identity(2)
    for _ in range(4):
        acc = pauli_mul(acc, g)
    assert acc == PauliElement.identity(2)


def test_x_and_z_anticommute():
    x = PauliElement.single("X")
    z = PauliElement.single("Z")
    xz = pauli_mul(x, z)
    zx = pauli_mul(z, x)
    assert xz != zx
    assert xz.phase == (zx.phase + 2) % 4  # differ by the scalar -1


def test_mismatched_qubit_counts():
    with pytest.raises(DomainError):
        pauli_mul(PauliElement.identity(1), PauliElement.identity(2))


def test_group_orders():
    assert pauli_group_order(1) == 16
    assert pauli_group_order(2) == 64
    with pytest.raises(ResourceLimitError):
        pauli_group_order(3)


def tuple_pauli_mul(x: PauliElement, y: PauliElement) -> PauliElement:
    """The product on bit tuples, one qubit at a time: the oracle of the packed words."""
    swaps = sum(zl * xr for zl, xr in zip(x.zbits, y.xbits))
    return PauliElement(
        (x.phase + y.phase + 2 * swaps) % 4,
        tuple(a ^ b for a, b in zip(x.xbits, y.xbits)),
        tuple(a ^ b for a, b in zip(x.zbits, y.zbits)),
    )


def element_closure(n: int) -> set[PauliElement]:
    """The generators' closure over PauliElement values, by the tuple product."""
    gens = pauli_generators(n)
    seen = {PauliElement.identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = [w for w in {tuple_pauli_mul(u, g) for u in frontier for g in gens}
                    if w not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("n", [1, 2])
def test_packed_closure_is_the_element_closure(n):
    want = {quantum_logic._word(g) for g in element_closure(n)}
    assert quantum_logic._pauli_closure(n) == want
    assert len(want) == pauli_group_order(n) == 4 ** (n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_packed_product_is_the_tuple_product_on_every_pair(n):
    group = [PauliElement(ph, x, z) for ph in range(4)
             for x in product((0, 1), repeat=n) for z in product((0, 1), repeat=n)]
    for a, b in product(group, repeat=2):
        want = tuple_pauli_mul(a, b)
        assert quantum_logic._word_mul(quantum_logic._word(a), quantum_logic._word(b)) == (
            quantum_logic._word(want))
        assert pauli_mul(a, b) == want


@pytest.mark.parametrize("n", [0, -1])
def test_group_order_needs_a_qubit(n):
    with pytest.raises(DomainError, match="n must be at least 1"):
        pauli_group_order(n)


def test_pauli_str_forms():
    assert str(PauliElement.identity(2)) == "II"
    assert str(PauliElement(1, (1, 0), (1, 0))) == "YI"  # i * (XZ = -iY) folds to Y


# ---------------------------------------------------------------------------
# Pauli basis of 2x2 matrices
# ---------------------------------------------------------------------------


def test_basis_check_passes():
    report = pauli_basis_check(1)
    assert report.independent and report.spanning


def test_basis_check_guard():
    assert pauli_basis_check(4).passed
    with pytest.raises(ResourceLimitError):
        pauli_basis_check(5)
    with pytest.raises(DomainError):
        pauli_basis_check(-1)


def test_basis_check_refuses_a_huge_n_by_its_exponent():
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"2\*\*25 entry products"):
        pauli_basis_check(5)
    with pytest.raises(ResourceLimitError):
        pauli_basis_check(10**18)
    assert time.perf_counter() - t0 < 0.1


def _elimination_rank(vectors: list[list[GaussianRational]]) -> int:
    """Gauss-Jordan rank over the Gaussian rationals: the basis check's oracle."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = GaussianRational.of(1) / rows[rank][col]
        rows[rank] = [inv * v for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _eliminated(words) -> BasisReport:
    rank = _elimination_rank([[v for row in w.to_matrix().rows for v in row] for w in words])
    n = words[0].n
    return BasisReport(independent=rank == len(words), spanning=rank == 4**n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_check_agrees_with_elimination(n):
    assert pauli_basis_check(n) == _eliminated(pauli_basis(n)) == BasisReport(True, True)


@pytest.mark.parametrize("support_cached", [True, False])
def test_repeated_word_fails_both_routes(monkeypatch, support_cached):
    words = pauli_basis(2)
    repeated = words[:-1] + words[:1]
    assert _eliminated(repeated) == BasisReport(independent=False, spanning=False)
    # the decomposition reads its support from pauli_basis through a cache, so
    # check both the genuine cached support and one built from the repeated list
    quantum_logic._basis_support.cache_clear()
    if support_cached:
        quantum_logic._basis_support(2)
    monkeypatch.setattr(quantum_logic, "pauli_basis", lambda n: list(repeated))
    try:
        assert pauli_basis_check(2) == BasisReport(independent=False, spanning=False)
    finally:
        quantum_logic._basis_support.cache_clear()


def test_decompose_e11():
    e11 = GaussianMatrix.of([[1, 0], [0, 0]])
    coeffs = decompose_in_pauli_basis(e11)
    half = GaussianRational.of(Fraction(1, 2))
    # zero coefficients are omitted: E11 = (sigma_0 + sigma_z)/2 exactly
    assert {str(b): c for b, c in coeffs.items()} == {"I": half, "Z": half}


gaussian_entry = st.builds(
    lambda a, b: GaussianRational.of(Fraction(a), Fraction(b)),
    st.integers(-4, 4),
    st.integers(-4, 4),
)


@given(entries=st.lists(gaussian_entry, min_size=4, max_size=4))
def test_decompose_recompose_roundtrip(entries):
    m = GaussianMatrix.of([[entries[0], entries[1]], [entries[2], entries[3]]])
    acc = GaussianMatrix.of([[0, 0], [0, 0]])
    for basis_el, c in decompose_in_pauli_basis(m).items():
        acc = acc + basis_el.to_matrix().scale(c)
    assert acc == m


@pytest.mark.parametrize("n", [0, -1])
def test_pauli_basis_needs_a_qubit(n):
    with pytest.raises(DomainError, match="n must be at least 1"):
        pauli_basis(n)


def test_basis_trace_orthogonality():
    basis = pauli_basis(1)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            t = (a.to_matrix().conjugate_transpose() @ b.to_matrix()).trace()
            expected = Fraction(2) if i == j else Fraction(0)
            assert t == GaussianRational.of(expected)


# ---------------------------------------------------------------------------
# Clifford normalizer membership
# ---------------------------------------------------------------------------

HADAMARD_LIKE = GaussianMatrix.of([[1, 1], [1, -1]])  # sqrt(2)*H: scalar cleared
PHASE_S = GaussianMatrix.of(
    [[1, 0], [0, GaussianRational.of(Fraction(0), Fraction(1))]]
)
ZETA = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))  # unit modulus, order inf
NON_CLIFFORD = GaussianMatrix.of([[1, 0], [0, ZETA]])


def test_hadamard_like_in_normalizer():
    check = is_in_normalizer(HADAMARD_LIKE, 1)
    assert check.member
    assert check.failing_generator is None
    assert bool(check)


def test_phase_gate_in_normalizer():
    assert is_in_normalizer(PHASE_S, 1).member


def test_unit_modulus_phase_not_in_normalizer():
    check = is_in_normalizer(NON_CLIFFORD, 1)
    assert not check.member
    assert str(check.failing_generator) == "X"


def test_non_unitary_rejected():
    with pytest.raises(DomainError):
        is_in_normalizer(GaussianMatrix.of([[1, 1], [0, 1]]), 1)
    with pytest.raises(DomainError):
        is_in_normalizer(GaussianMatrix.of([[0, 0], [0, 0]]), 1)


@given(g=rand_pauli(1))
def test_membership_invariant_under_pauli_left_mul(g):
    # if U normalizes the group then gU does too
    product = g.to_matrix() @ HADAMARD_LIKE
    assert is_in_normalizer(product, 1).member


def test_cnot_in_normalizer_2q():
    cnot = GaussianMatrix.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert is_in_normalizer(cnot, 2).member


# Clifford conjugation against stabilizer tableaus (Gottesman 1998; Aaronson &
# Gottesman 2004): each gate's action on X_0, Z_0, X_1, Z_1 is written down
# here, composed with the symplectic product, and never touches a matrix.

EYE2 = GaussianMatrix.identity(2)
PAULI_2Q = {w: PauliElement.single(w[0], int(w[1]), 2) for w in ("X0", "Z0", "X1", "Z1")}


def _word(*letters: str) -> PauliElement:
    """Product of single-qubit letters like "X0", "Z1", in order."""
    acc = PauliElement.identity(2)
    for w in letters:
        acc = pauli_mul(acc, PAULI_2Q[w])
    return acc


# gate name -> (matrix, images of X0, Z0, X1, Z1 under g -> U g U^dagger)
GATES_2Q = {
    "H0": (HADAMARD_LIKE.kron(EYE2), (_word("Z0"), _word("X0"), _word("X1"), _word("Z1"))),
    "H1": (EYE2.kron(HADAMARD_LIKE), (_word("X0"), _word("Z0"), _word("Z1"), _word("X1"))),
    # S X S^dagger = Y = i X Z
    "S0": (PHASE_S.kron(EYE2), (pauli_mul(PauliElement(1, (0, 0), (0, 0)), _word("X0", "Z0")),
                                _word("Z0"), _word("X1"), _word("Z1"))),
    "S1": (EYE2.kron(PHASE_S), (_word("X0"), _word("Z0"),
                                pauli_mul(PauliElement(1, (0, 0), (0, 0)), _word("X1", "Z1")),
                                _word("Z1"))),
    "CNOT": (
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        (_word("X0", "X1"), _word("Z0"), _word("X1"), _word("Z0", "Z1")),
    ),
    "CZ": (
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        (_word("X0", "Z1"), _word("Z0"), _word("Z0", "X1"), _word("Z1")),
    ),
    "SWAP": (
        GaussianMatrix.of([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        (_word("X1"), _word("Z1"), _word("X0"), _word("Z0")),
    ),
}
GATE_PRODUCTS = [
    names
    for length in (1, 2, 3)
    for names in product(GATES_2Q, repeat=length)
]


def _conjugate_by_tableau(name: str, g: PauliElement) -> PauliElement:
    """U g U^dagger for the gate ``name``, read off its generator images."""
    images = GATES_2Q[name][1]
    acc = PauliElement(g.phase, (0, 0), (0, 0))
    for j in range(2):  # g = i**phase * X0**x0 Z0**z0 * X1**x1 Z1**z1
        if g.xbits[j]:
            acc = pauli_mul(acc, images[2 * j])
        if g.zbits[j]:
            acc = pauli_mul(acc, images[2 * j + 1])
    return acc


def _gate_product(names) -> GaussianMatrix:
    u = GATES_2Q[names[0]][0]
    for name in names[1:]:
        u = u @ GATES_2Q[name][0]
    return u


@pytest.mark.parametrize("length", [1, 2, 3])
def test_clifford_conjugation_matches_stabilizer_tableaus(length):
    for names in (n for n in GATE_PRODUCTS if len(n) == length):
        u = _gate_product(names)
        udag = u.conjugate_transpose()
        c = (u @ udag).scalar_multiple_of_identity()
        for g in PAULI_2Q.values():
            want = g
            for name in reversed(names):  # the rightmost gate acts first
                want = _conjugate_by_tableau(name, want)
            # want = i**k * sigma with sigma the phase-free word of the same bits
            ys = sum(a & b for a, b in zip(want.xbits, want.zbits))
            sigma = PauliElement(ys % 4, want.xbits, want.zbits)
            sign = {0: 1, 2: -1}[(want.phase - ys) % 4]  # Hermitian image: real sign
            image = (u @ g.to_matrix() @ udag).scale(GaussianRational.of(1) / c)
            want_terms = {sigma: GaussianRational.of(sign)}
            assert decompose_in_pauli_basis(image, 2) == want_terms, (names, g)
        assert is_in_normalizer(u, 2).member


def test_non_clifford_factor_fails_at_the_first_generator():
    # a Clifford prefix permutes the signed Pauli words, so the witness is the
    # first generator the non-Clifford factor itself spoils: X on qubit 0
    non_clifford = [
        GaussianMatrix.of([[1, 0], [0, ZETA]]).kron(EYE2),
        GaussianMatrix.of([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, ZETA]]),
    ]
    for names in GATE_PRODUCTS:
        u = _gate_product(names)
        for v in non_clifford:
            check = is_in_normalizer(u @ v)
            assert not check.member
            assert str(check.failing_generator) == "XI", names


# Work-bounded boundaries: the normalizer check costs (6n + 1) * 8**n entry
# products, admitted up to 2**20, so n = 5 runs and a 64x64 matrix is refused.


def _on_qubit(gate: GaussianMatrix, j: int, n: int) -> GaussianMatrix:
    """``gate`` acting on qubits j, j + 1, ... of n, identity elsewhere."""
    left = GaussianMatrix.identity(2**j)
    right = GaussianMatrix.identity(2**n // (2**j * gate.dim))
    return left.kron(gate).kron(right)


def _rescaled_verdict(u: GaussianMatrix) -> NormalizerCheck:
    """Membership read off the decomposition of the conjugate (u g u†)/c itself."""
    udag = u.conjugate_transpose()
    c_inv = GaussianRational.of(1) / (u @ udag).scalar_multiple_of_identity()
    n = u.dim.bit_length() - 1
    for g in pauli_generators(n)[1:]:
        terms = decompose_in_pauli_basis((u @ g.to_matrix() @ udag).scale(c_inv), n)
        if len(terms) != 1:
            return NormalizerCheck(False, g)
        # g squares to I, so its conjugate does too: a sigma word with a real sign
        assert set(terms.values()) <= {GaussianRational.of(1), GaussianRational.of(-1)}
    return NormalizerCheck(True)


def test_hadamard_on_five_qubits_is_a_member():
    u = HADAMARD_LIKE
    for _ in range(4):
        u = u.kron(HADAMARD_LIKE)
    assert is_in_normalizer(u) == NormalizerCheck(True)


def test_three_qubit_clifford_and_phase_gate_match_the_rescaled_decomposition():
    cnot = GATES_2Q["CNOT"][0]
    clifford = (
        _on_qubit(HADAMARD_LIKE, 0, 3)
        @ _on_qubit(cnot, 0, 3)
        @ _on_qubit(PHASE_S, 1, 3)
        @ _on_qubit(cnot, 1, 3)
        @ _on_qubit(HADAMARD_LIKE, 2, 3)
    )
    assert is_in_normalizer(clifford) == _rescaled_verdict(clifford) == NormalizerCheck(True)
    spoiled = clifford @ _on_qubit(NON_CLIFFORD, 2, 3)
    check = is_in_normalizer(spoiled)
    assert check == _rescaled_verdict(spoiled)
    assert not check.member and str(check.failing_generator) == "IIX"


def test_normalizer_work_refused_before_any_product(monkeypatch):
    def unreachable(self, other):
        raise AssertionError("the work bound must refuse before any product")

    monkeypatch.setattr(GaussianMatrix, "__matmul__", unreachable)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"needs 37 \* 8\*\*6 = 9699328"):
        is_in_normalizer(GaussianMatrix.identity(64))
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("side", [1, 3, 6])
def test_normalizer_names_a_side_that_is_not_a_power_of_two(side):
    with pytest.raises(DomainError, match=rf"matrix side {side} is not 2\*\*n"):
        is_in_normalizer(GaussianMatrix.identity(side))


def test_normalizer_refuses_a_side_that_disagrees_with_n():
    with pytest.raises(DomainError, match=r"matrix side 2 is 2\*\*1, not 2\*\*2"):
        is_in_normalizer(HADAMARD_LIKE, 2)


# ---------------------------------------------------------------------------
# Finite lattices — named examples
# ---------------------------------------------------------------------------


def test_pentagon_fails_both_laws_with_witness():
    n5 = pentagon_lattice()
    mod = is_modular(n5)
    assert not mod.holds
    assert mod.witness["a"] == "z"
    assert mod.witness["b"] == "x"
    assert mod.witness["c"] == "y"
    assert mod.witness["lhs"] != mod.witness["rhs"]
    dist = is_distributive(n5)
    assert not dist.holds


def test_diamond_is_modular_not_distributive():
    m3 = diamond_lattice()
    assert is_modular(m3).holds
    dist = is_distributive(m3)
    assert not dist.holds
    assert dist.witness is not None


def test_boolean_lattice_is_distributive():
    b3 = boolean_lattice(3)
    assert len(b3.elements) == 8
    assert is_modular(b3).holds
    assert is_distributive(b3).holds


def test_chains_satisfy_everything():
    c = chain_lattice(5)
    assert is_modular(c).holds
    assert is_distributive(c).holds


def test_lawcheck_json_shape():
    j = is_modular(pentagon_lattice()).as_json()
    assert j["law"] == "modular"
    assert j["holds"] is False
    assert {"a", "b", "c", "lhs", "rhs"} <= set(j)


def test_non_lattice_poset_rejected():
    # two incomparable maximal elements have no join
    elements = ["0", "a", "b"]

    def leq(x, y):
        return x == y or x == "0"

    with pytest.raises(DomainError):
        FiniteLattice(elements, leq)


def test_lattice_axioms_on_constructed_instances():
    for lat in (
        pentagon_lattice(),
        diamond_lattice(),
        boolean_lattice(3),
        chain_lattice(4),
        subspace_lattice(2, 2),
    ):
        els = list(lat.elements)
        for a in els:
            assert lat.meet(a, a) == a
            assert lat.join(a, a) == a
            for b in els:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                # absorption
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.join(a, lat.meet(a, b)) == a


def divides(a, b):
    return b % a == 0


def test_divisor_lattices_meet_is_gcd_join_is_lcm():
    # an oracle independent of the bitmask construction
    for n in range(1, 361):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        lat = FiniteLattice(divisors, divides)
        for a in divisors:
            for b in divisors:
                assert lat.meet(a, b) == gcd(a, b)
                assert lat.join(a, b) == lcm(a, b)
                assert lat.leq(a, b) == divides(a, b)


def test_missing_join_rejected():
    # 2 and 3 have no common multiple among 1, 2, 3
    with pytest.raises(DomainError, match="not a lattice: 2, 3 have no unique join"):
        FiniteLattice(range(1, 4), divides)


def test_missing_meet_rejected():
    with pytest.raises(DomainError, match="not a lattice: a, b have no unique meet"):
        FiniteLattice("abc", lambda x, y: x == y or y == "c")


@pytest.mark.parametrize(
    "leq, message",
    [
        (lambda x, y: x < y, "order is not reflexive at 0"),
        (lambda x, y: x <= y or (x, y) == (2, 1), "order is not antisymmetric on 1, 2"),
        # 0 <= 1 <= 2 without 0 <= 2
        (lambda x, y: x <= y and (x, y) != (0, 2), "order is not transitive"),
    ],
)
def test_invalid_orders_rejected(leq, message):
    with pytest.raises(DomainError, match=message):
        FiniteLattice(range(3), leq)


def test_meet_of_a_non_member_is_a_domain_error():
    with pytest.raises(DomainError, match="'q' is not an element of the lattice"):
        pentagon_lattice().meet("q", "x")


def test_join_of_a_non_member_is_a_domain_error():
    with pytest.raises(DomainError, match="'q' is not an element of the lattice"):
        pentagon_lattice().join("x", "q")


def test_leq_of_a_non_member_is_a_domain_error():
    with pytest.raises(DomainError, match="7 is not an element of the lattice"):
        FiniteLattice([1, 2, 3, 6], divides).leq(7, 6)


def test_label_of_a_non_member_is_a_domain_error():
    lat = subspace_lattice(2, 2)
    assert lat.label(lat.elements[0]) == "0"
    # an element the labels leave out keeps its str()
    assert FiniteLattice([1, 2], divides, {1: "one"}).label(2) == "2"
    with pytest.raises(DomainError, match="'q' is not an element of the lattice"):
        lat.label("q")


def test_distinct_elements_required():
    with pytest.raises(DomainError, match="elements must be distinct"):
        FiniteLattice([1, 1], divides)


def test_generated_lattices_bounded_at_128_elements():
    assert len(chain_lattice(128).elements) == 128
    for build, arg in ((chain_lattice, 129), (boolean_lattice, 8), (boolean_lattice, 1000)):
        with pytest.raises(ResourceLimitError, match="up to 128 elements"):
            build(arg)
    with pytest.raises(DomainError):
        boolean_lattice(-1)


def test_subspace_guard_refuses_before_enumerating(monkeypatch):
    def enumerate_nothing(q, d):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr("padiclab.quantum_logic._rref_bases", enumerate_nothing)
    # (2,5) has 374 subspaces and (2,14) about 4e15; (3,4) has 212
    for q, d in ((2, 5), (2, 14), (3, 4), (2, 1000)):
        with pytest.raises(ResourceLimitError):
            subspace_lattice(q, d)


# ---------------------------------------------------------------------------
# Subspace lattices over F_q
# ---------------------------------------------------------------------------


def gaussian_binomial(d: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "q,d,count", [(2, 2, 5), (3, 2, 6), (2, 1, 2), (2, 3, 16), (3, 3, 28), (5, 2, 8)]
)
def test_subspace_counts_match_gaussian_binomials(q, d, count):
    lat = subspace_lattice(q, d)
    assert len(lat.elements) == count
    assert count == sum(gaussian_binomial(d, k, q) for k in range(d + 1))


def test_subspace_lattice_guard():
    with pytest.raises(ResourceLimitError):
        subspace_lattice(2, 15)


@pytest.mark.parametrize("q,d", [(2, 4), (5, 2), (11, 2), (3, 3), (2, 6), (7, 1)])
def test_subspace_count_guard_admits_up_to_128(q, d):
    count = sum(gaussian_binomial(d, k, q) for k in range(d + 1))
    if count <= 128:
        assert len(subspace_lattice(q, d).elements) == count
    else:
        with pytest.raises(ResourceLimitError):
            subspace_lattice(q, d)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3)])
def test_subspace_lattices_modular_never_distributive(q, d):
    lat = subspace_lattice(q, d)
    assert is_modular(lat).holds
    dist = is_distributive(lat)
    assert not dist.holds


def test_q2_d2_witness_is_three_distinct_lines():
    dist = is_distributive(subspace_lattice(2, 2))
    w = dist.witness
    lines = {w["a"], w["b"], w["c"]}
    assert len(lines) == 3
    assert all(label.startswith("span{") for label in lines)
    assert w["lhs"] == w["a"]  # a wedge (b vee c) = a: b,c span everything
    assert w["rhs"] == "0"


def test_subspace_meet_is_intersection_join_is_span():
    lat = subspace_lattice(2, 2)
    els = list(lat.elements)
    for a in els:
        for b in els:
            meet = lat.meet(a, b)
            assert set(meet) == set(a) & set(b)
            join = lat.join(a, b)
            assert set(a) | set(b) <= set(join)
            # join is the smallest upper bound present in the lattice
            for c in els:
                if set(a) | set(b) <= set(c):
                    assert set(join) <= set(c)
