"""Census of every guard that refuses with exit 3 (``ResourceLimitError``).

One row per ``ResourceLimitError(`` call in ``src/``: where it sits, what it
bounds, its limit, and the pair of inputs on either side of that limit.  The
refused input must raise while spies stand in for the inner step the guard
protects, so a guard that runs after its work fails here.  The admitted
input must get past the guard: its spies raise ``Reached`` instead, and
reaching one (or returning) counts as admitted, so no admitted case does the
work it would otherwise do.

Kinds: ``work`` bounds the computation itself, ``print`` what CPython can
print, ``parse`` what it can parse, ``sampling`` a sampled check's pairs,
``proof`` where a test stops being a proof, and ``stand-in`` a cap that
bounds a proxy of the work; each stand-in names the ROADMAP item that
replaces it and the ``perfbench/`` file that blocks that change.
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest

from padiclab import cli, hensel, padic_core, quantum_logic, resurgence, valuations_product
from padiclab.errors import ResourceLimitError, max_str_digits, printable_bound

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padiclab"
#: CPython 3.11+ caps int <-> str conversion at 4300 digits; 3.10 has no such cap.
INT_DIGIT_CAP = hasattr(sys, "get_int_max_str_digits")


class Reached(Exception):
    """An admitted input got past its guard to the inner step."""


def run(*argv: str) -> Callable[[], object]:
    """The CLI handler of ``argv`` as a thunk: it raises what the handler raises."""

    def thunk():
        args = cli.build_parser().parse_args(list(argv))
        return args.handler(args)

    return thunk


@dataclass(frozen=True)
class Guard:
    site: str  # module.function of the ResourceLimitError call
    kind: str
    model: str  # what the guard counts, and the bound it puts on it
    limit: Callable[[], object]  # reads the limit off the code
    bound: object  # ... which must equal this
    admitted: Callable[[], object]  # the largest admitted input
    refused: Callable[[], object]  # the smallest refused input
    spies: tuple[str, ...]  # the inner steps a refusal must not reach
    cli: tuple[str, ...]  # a refused CLI request: the rows of README's exit-3 table
    blocked_by: str | None = None  # stand-ins: ROADMAP item, then the perfbench file


P_BELOW = 318665857834031151167441  # the largest prime below the gate
X2_MINUS_2 = (-2, 0, 1)

GUARDS = (
    Guard(
        "cli._parse_int", "parse", "an integer literal of at most 4300 digits",
        lambda: sys.get_int_max_str_digits() if INT_DIGIT_CAP else 4300, 4300,
        lambda: cli.parse_rational("9" * 4300),
        lambda: cli.parse_rational("9" * 4301),
        ("padiclab.cli.Fraction",),
        cli=("valuation", "9" * 4301, "--p", "5"),
    ),
    Guard(
        "cli.parse_polynomial", "parse", "a polynomial exponent of at most 10**4",
        lambda: cli._MAX_EXPONENT, 10**4,
        run("hensel", "--poly", "x^10000-1", "--p", "7", "--x0", "1", "--k", "2"),
        run("hensel", "--poly", "x^10001-1", "--p", "7", "--x0", "1", "--k", "2"),
        ("padiclab.cli.hensel_lift",),
        cli=("hensel", "--poly", "x^10001-1", "--p", "7", "--x0", "1", "--k", "2"),
    ),
    Guard(
        "cli._check_printable", "print", "results below p**e <= 10**4300",
        printable_bound, 10**4300,
        # 2**14284 < 10**4300 < 2**14285
        run("code", "encode", "2/3", "--p", "2", "--r", "14284"),
        run("code", "encode", "2/3", "--p", "2", "--r", "14285"),
        ("padiclab.cli.encode",),
        cli=("expand", "1/3", "--p", "2", "--r", "14285"),
    ),
    Guard(
        "cli._check_hensel_output", "print", "digits of x_0, ..., x_k",
        lambda: cli._HENSEL_DIGITS, 3_000_000,
        run("hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "4461"),
        run("hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "4462"),
        ("padiclab.cli.hensel_lift",),
        cli=("hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "4462"),
    ),
    Guard(
        "cli._check_seminorm_work", "sampling", "samples**2 * ((degree + 1)**2 + 8) units",
        lambda: cli._SEMINORM_WORK, 250_000,
        run("seminorm-check", "--samples", "166", "--degree", "0"),
        run("seminorm-check", "--samples", "167", "--degree", "0"),
        ("padiclab.cli.check_seminorm_axioms",),
        cli=("seminorm-check", "--samples", "88"),
    ),
    Guard(
        "padic_core.require_prime", "proof", "p below the Miller-Rabin proof bound",
        lambda: padic_core.PROVEN_PRIME_BOUND, 318665857834031151167461,
        lambda: padic_core.require_prime(P_BELOW),
        lambda: padic_core.require_prime(318665857834031151167461),
        ("padiclab.padic_core.is_prime",),
        cli=("valuation", "3", "--p", "318665857834031151167461"),
    ),
    Guard(
        "hensel._check_lift_work", "work", "(terms + 16) * (bitlen(p**(k+1)) + 256)**2 units",
        lambda: hensel._LIFT_WORK, 10**11,
        lambda: hensel.hensel_lift(X2_MINUS_2, 3, 7, 25749),
        lambda: hensel.hensel_lift(X2_MINUS_2, 3, 7, 25750),
        ("padiclab.hensel._lift_newton", "padiclab.hensel._lift_linear"),
        cli=("hensel", "--poly", "x^10000+x+5", "--p", "7", "--x0", "1", "--k", "2662"),
    ),
    Guard(
        "hensel.roots_mod_p", "work", "p * terms Horner steps",
        lambda: hensel.ROOT_SCAN_LIMIT, 3 * 2**20,
        # 1048573 and 1048583 are the primes next to 2**20
        lambda: hensel.roots_mod_p(X2_MINUS_2, 1048573),
        lambda: hensel.roots_mod_p(X2_MINUS_2, 1048583),
        ("padiclab.hensel._poly_eval",),
        cli=("sqrt", "2", "--p", "1048583"),
    ),
    Guard(
        "resurgence._unparsable", "parse", "a real literal of at most 4300 digits",
        lambda: sys.get_int_max_str_digits() if INT_DIGIT_CAP else 4300, 4300,
        lambda: resurgence.euler_series_partial("1" * 4300, 1),
        lambda: resurgence.euler_series_partial("1" * 4301, 1),
        ("padiclab.resurgence._poly_eval",),
        cli=("borel", "--t", "1" * 4301),
    ),
    Guard(
        "resurgence.EulerSeries.up_to", "work", "a series order of at most 500",
        lambda: resurgence.MAX_SERIES_ORDER, 500,
        lambda: resurgence.euler_series_partial(Fraction(1, 1000), 500),
        lambda: resurgence.euler_series_partial(Fraction(1, 1000), 501),
        ("padiclab.resurgence._poly_eval",),
        cli=("borel", "--t", "0.1", "--order", "501"),
    ),
    Guard(
        "resurgence.optimal_truncation_index", "work", "t >= 1/(2 * 500 + 2): its order <= 500",
        lambda: resurgence.MAX_SERIES_ORDER, 500,
        # 1/1002 = 0.000998003992...
        lambda: resurgence.optimal_truncation_index(
            "0.000998004", limit=resurgence.MAX_SERIES_ORDER),
        lambda: resurgence.optimal_truncation_index(
            "0.000998003", limit=resurgence.MAX_SERIES_ORDER),
        ("padiclab.resurgence.ceil",),
        cli=("borel", "--t", "1e-6", "--table"),
    ),
    Guard(
        "resurgence._point_at", "work", "t <= 10**60, where the quadrature converges",
        lambda: resurgence.MAX_QUADRATURE_T, 10**60,
        lambda: resurgence.borel_sum("1e60"),
        lambda: resurgence.borel_sum("1.000000001e60"),
        ("padiclab.resurgence._node_parts",),
        cli=("borel", "--t", "1e61"),
    ),
    Guard(
        "quantum_logic.pauli_group_order", "stand-in", "n <= 2 qubits for the closure",
        lambda: 2, 2,
        lambda: quantum_logic.pauli_group_order(2),
        lambda: quantum_logic.pauli_group_order(3),
        ("padiclab.quantum_logic.pauli_generators",),
        cli=("pauli", "order", "--n", "3"),
        blocked_by="ROADMAP item 2; perfbench/make_golden.py pins `pauli order --n 3` as exit 3",
    ),
    Guard(
        "quantum_logic.pauli_basis_check", "work", "2**(5n) entry products <= 2**20",
        lambda: quantum_logic._WORK_LIMIT_BITS, 20,
        lambda: quantum_logic.pauli_basis_check(4),
        lambda: quantum_logic.pauli_basis_check(5),
        ("padiclab.quantum_logic.pauli_basis",),
        cli=("pauli", "basis-check", "--n", "5"),
    ),
    Guard(
        "quantum_logic.is_in_normalizer", "work", "(6n + 1) * 8**n entry products <= 2**20",
        lambda: quantum_logic._WORK_LIMIT_BITS, 20,
        lambda: quantum_logic.is_in_normalizer(quantum_logic.GaussianMatrix.identity(32)),
        lambda: quantum_logic.is_in_normalizer(quantum_logic.GaussianMatrix.identity(64)),
        ("padiclab.quantum_logic.GaussianMatrix.conjugate_transpose",),
        cli=("pauli", "normalizer-check", "--matrix",
             ";".join(",".join("1" if i == j else "0" for j in range(64)) for i in range(64))),
    ),
    Guard(
        "quantum_logic._require_size", "stand-in", "at most 128 lattice elements",
        lambda: quantum_logic._MAX_LATTICE_ELEMENTS, 128,
        lambda: quantum_logic.chain_lattice(128),
        lambda: quantum_logic.chain_lattice(129),
        ("padiclab.quantum_logic.FiniteLattice",),
        cli=("lattice", "check", "--named", "chain", "--k", "129"),
        blocked_by="ROADMAP item 2; perfbench/worker.py counts triples by wrapping "
        "FiniteLattice.join",
    ),
    Guard(
        "quantum_logic.SubspaceLattice.__init__", "work", "q**d <= 2**14 vectors per subspace",
        lambda: 2**14, 2**14,
        lambda: quantum_logic.subspace_lattice(2, 14),
        lambda: quantum_logic.subspace_lattice(2, 15),
        ("padiclab.quantum_logic._subspace_count",),
        cli=("lattice", "check", "--subspace", "2", "15"),
    ),
    Guard(
        "valuations_product.factor", "work", "|n| <= 10**18 for Brent's rho",
        lambda: valuations_product.FACTOR_LIMIT, 10**18,
        lambda: valuations_product.factor(10**18),
        lambda: valuations_product.factor(10**18 + 1),
        ("padiclab.valuations_product.is_prime", "padiclab.valuations_product._brent_rho"),
        cli=("product-formula", "1/1000000000000000001"),
    ),
    Guard(
        "valuations_product.enumerate_irreducibles", "stand-in",
        "sieve candidates plus trial divisions <= 80,000",
        lambda: valuations_product._IRREDUCIBLE_ENUM_LIMIT, 80_000,
        # 55,198 and 152,678 steps
        lambda: valuations_product.enumerate_irreducibles(2, 11),
        lambda: valuations_product.enumerate_irreducibles(2, 12),
        ("padiclab.valuations_product._digits",),
        cli=("product-formula", "--function-field", "2", "x^24+x+1"),
        blocked_by="ROADMAP item 3; perfbench/worker.py reads the enumerate_irreducibles "
        "spans and cache_info()",
    ),
)

#: ResourceLimitError calls that report a failure after the work ran, not a guard.
AFTER_THE_WORK = {
    "valuations_product._brent_rho": "no rho polynomial split n: 'did not terminate'",
}


def _call_sites() -> Counter:
    """module.function of every ResourceLimitError(...) call under src/padiclab."""
    sites: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "ResourceLimitError"):
                    sites[".".join([path.stem, *scope])] += 1
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
    return sites


def test_every_resource_limit_call_is_in_the_census():
    census = Counter(g.site for g in GUARDS) + Counter(AFTER_THE_WORK.keys())
    assert _call_sites() == census
    assert len(GUARDS) + len(AFTER_THE_WORK) == 20


def _spy(monkeypatch, guard: Guard, error: Callable[[str], Exception]) -> None:
    for target in guard.spies:
        def spy(*args, _target=target, **kwargs):
            raise error(_target)

        monkeypatch.setattr(target, spy)


IDS = [g.site for g in GUARDS]


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_the_limit_is_the_census_value(guard):
    assert guard.kind in ("work", "print", "parse", "sampling", "proof", "stand-in")
    assert guard.limit() == guard.bound


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_the_smallest_refused_input_raises_before_the_work(monkeypatch, guard):
    if guard.kind == "parse" and not INT_DIGIT_CAP:
        pytest.skip("no 4300-digit int conversion cap before Python 3.11")
    _spy(monkeypatch, guard, lambda target: AssertionError(f"{target} ran past the guard"))
    with pytest.raises(ResourceLimitError):
        guard.refused()


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_the_largest_admitted_input_passes_the_guard(monkeypatch, guard):
    _spy(monkeypatch, guard, Reached)
    try:
        guard.admitted()
    except Reached:
        pass


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_the_cli_example_exits_3(guard):
    if guard.kind == "parse" and not INT_DIGIT_CAP:
        pytest.skip("no 4300-digit int conversion cap before Python 3.11")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(guard.cli))
    assert (code, out.getvalue()) == (3, "")
    assert len(err.getvalue()) < 200


def test_each_stand_in_names_its_roadmap_item_and_blocking_benchmark_file():
    stand_ins = [g for g in GUARDS if g.kind == "stand-in"]
    assert [g.site for g in stand_ins] == [
        "quantum_logic.pauli_group_order",
        "quantum_logic._require_size",
        "valuations_product.enumerate_irreducibles",
    ]
    roadmap = (ROOT / "ROADMAP.md").read_text()
    for g in stand_ins:
        item, blocker = g.blocked_by.split("; ")
        assert item.startswith("ROADMAP item ")
        assert f"### {item.removeprefix('ROADMAP item ')}." in roadmap
        assert (ROOT / blocker.split()[0]).is_file()
    assert all(g.blocked_by is None for g in GUARDS if g.kind != "stand-in")


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="no int <-> str digit limit before Python 3.10.7")
def test_the_digit_limit_is_the_active_one_capped_at_4300():
    before = sys.get_int_max_str_digits()
    try:
        for limit, expected in ((0, 4300), (1000, 1000), (4300, 4300), (5000, 4300)):
            sys.set_int_max_str_digits(limit)
            assert max_str_digits() == expected
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="no int <-> str digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ("hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "4000"),
    ("code", "encode", "2/3", "--p", "2", "--r", "5000"),
])
def test_the_print_guard_follows_a_lowered_digit_limit(argv):
    # a cli imported again under the lowered limit reads the same live bound
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        importlib.reload(cli)
        assert printable_bound() == 10**1000
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.set_int_max_str_digits(before)
        importlib.reload(cli)
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().count("\n") == 1 and "exceeds 1000 decimal digits" in err.getvalue()


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="no int <-> str digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ("hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "4000"),
    ("code", "encode", "2/3", "--p", "2", "--r", "5000"),
])
def test_the_print_guard_follows_a_limit_lowered_in_the_running_process(argv):
    # no reload: the guard reads the limit on every call
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        assert printable_bound() == 10**1000
    finally:
        sys.set_int_max_str_digits(before)
    assert printable_bound() == 10**max_str_digits()
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().count("\n") == 1 and "exceeds 1000 decimal digits" in err.getvalue()
