"""Headroom: the public calls behind acceptance tests 03, 04, 07, 08 and 09.

Each function repeats the calls of its test on the test's own seed and
returns (seconds, ok).  The budgets are read from
``tests/test_acceptance.py``, which is only read, never imported.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter

from mpmath import mp

from padiclab import (
    FqPolynomial,
    GaussianMatrix,
    GaussianRational,
    PauliElement,
    RationalFunction,
    RationalPolynomial,
    borel_sum,
    euler_series_partial,
    exp_e1_oracle,
    is_distributive,
    is_in_normalizer,
    is_modular,
    ode_residual,
    optimal_truncation_index,
    pauli_basis_check,
    pauli_group_order,
    pauli_mul,
    pentagon_lattice,
    product_formula_check,
    product_formula_check_ff,
    subspace_lattice,
    truncated_series_defect,
)

_REPORT_RE = re.compile(r"report\(\s*(\d+),.*?,\s*elapsed,\s*([0-9.]+),\s*ok\)")


def budgets(test_file: Path) -> dict[int, float]:
    return {int(n): float(b) for n, b in _REPORT_RE.findall(test_file.read_text())}


def _test_03():
    rng = random.Random(20260814)
    ok = True
    for _ in range(10_000):
        num = rng.randint(1, 10**12) * rng.choice((1, -1))
        ok = ok and product_formula_check(Fraction(num, rng.randint(1, 10**12))) == 1
    return ok


def _test_04():
    rng = random.Random(4)
    ok = True
    for _ in range(1_000):
        p = rng.choice((2, 3, 5))

        def draw():
            deg = rng.randint(0, 8)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randint(1, p - 1)]
            return FqPolynomial.of(p, *coeffs)

        ok = ok and product_formula_check_ff(RationalFunction.of(draw(), draw())) == 1
    return ok


def _test_07():
    ok = True
    for q, d in ((2, 2), (3, 2)):
        lat = subspace_lattice(q, d)
        ok = ok and is_modular(lat).holds and not is_distributive(lat).holds
    return ok and not is_modular(pentagon_lattice()).holds


def _test_08():
    ok = pauli_group_order(1) == 16 and pauli_group_order(2) == 64
    singles = [
        PauliElement(ph, (x,), (z,)) for ph in range(4) for x in (0, 1) for z in (0, 1)
    ]
    pairs = [(a, b) for a in singles for b in singles]
    rng = random.Random(8)

    def draw():
        return PauliElement(
            rng.randrange(4),
            (rng.randrange(2), rng.randrange(2)),
            (rng.randrange(2), rng.randrange(2)),
        )

    pairs += [(draw(), draw()) for _ in range(1_000)]
    for a, b in pairs:
        ok = ok and pauli_mul(a, b).to_matrix() == a.to_matrix() @ b.to_matrix()
    ok = ok and pauli_basis_check(1).passed
    i = GaussianRational.of(Fraction(0), Fraction(1))
    zeta = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))
    ok = ok and is_in_normalizer(GaussianMatrix.of([[1, 1], [1, -1]]), 1).member
    ok = ok and is_in_normalizer(GaussianMatrix.of([[1, 0], [0, i]]), 1).member
    return ok and not is_in_normalizer(GaussianMatrix.of([[1, 0], [0, zeta]]), 1).member


def _test_09():
    ok = True
    with mp.workdps(30):
        for t in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            y, oracle = borel_sum(t).value, exp_e1_oracle(t)
            ok = ok and abs(y - oracle) / abs(oracle) <= mp.mpf("1e-8")
            res = ode_residual(lambda u: borel_sum(u).value, t, Fraction(1, 10**4))
            ok = ok and res <= mp.mpf("1e-6")
        for n in range(13):
            want = RationalPolynomial.of(*([0] * (n + 2) + [(-1) ** (n + 1) * factorial(n + 1)]))
            ok = ok and truncated_series_defect(n) == want
        for t in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)):
            m_star = optimal_truncation_index(t)
            gap = abs(euler_series_partial(t, m_star).value - borel_sum(t).value)
            ok = ok and gap <= 10 * mp.e ** (-1 / mp.mpf(float(t)))
    return ok


TESTS = {3: _test_03, 4: _test_04, 7: _test_07, 8: _test_08, 9: _test_09}


def run() -> dict[int, tuple[float, bool]]:
    out = {}
    for n, fn in TESTS.items():
        t0 = perf_counter()
        ok = fn()
        out[n] = (perf_counter() - t0, ok)
    return out
