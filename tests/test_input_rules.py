"""Input rules: each has one home in ``src/``, and each refusal is reached.

Four rules are written once: ``padic_core._require_precision`` checks a
digit count, ``_trim`` makes a coefficient tuple canonical, ``_fraction``
reads a rational argument, and ``errors.max_str_digits`` is CPython's text
limit.  An ``ast`` scan keeps their copies from coming back.

The census rows call the input refusals (exit 1, ``DomainError``) that no
other test reaches and name the class and message each must raise.  CLI rows
run the handler of one request, then the whole ``main`` call, which must
exit 1 with one line on stderr and nothing on stdout.
"""

from __future__ import annotations

import ast
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from padiclab import (
    INFINITY,
    DomainError,
    ExpansionParseError,
    FqPolynomial,
    GaussianMatrix,
    GaussianRational,
    PadicNumber,
    PauliElement,
    Place,
    PrimeFactorization,
    chain_lattice,
    cli,
    decompose_in_pauli_basis,
    enumerate_irreducibles,
    hensel_lift,
    local_norms_ff,
    nu,
    parse_expansion_string,
    poly_valuation,
    subspace_lattice,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "padiclab"


def _copies() -> list[str]:
    """module.function of each copy of a rule outside its home."""
    found = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, site, name=None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{site}.{child.name}", child.name)
                    continue
                code = ast.unparse(child)
                if path.stem != "errors" and isinstance(child, ast.Constant) and (
                        child.value == 4300 or isinstance(child.value, str) and "4300" in code):
                    found.append(f"{site}: 4300")
                if isinstance(child, ast.Compare) and re.search(r"\br < 1$", code):
                    found.append(f"{site}: {code}")
                if isinstance(child, ast.While) and "[-1]" in ast.unparse(child.test):
                    found.append(f"{site}: a trailing-zero loop")
                if isinstance(child, ast.Call) and code == "Fraction(a)" and name != "_fraction":
                    found.append(f"{site}: {code}")
                visit(child, site, name)

        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):  # docstrings may name the limit
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                node.body = node.body[1:] if ast.get_docstring(node) else node.body
        visit(tree, path.stem)
    return found


def test_each_input_rule_has_one_home():
    assert _copies() == []


SEVEN = PadicNumber.from_integer(7, 5, 4)

LIBRARY = [
    # padic_core
    (lambda: -INFINITY, DomainError, "cannot negate the infinite valuation"),
    (lambda: nu(3), DomainError, "a prime is required"),
    (lambda: PadicNumber(5, INFINITY, 1, 3), DomainError, "zero must carry a zero unit"),
    (lambda: SEVEN.truncate(5), DomainError, "cannot truncate 4-digit value to 5 digits"),
    (lambda: SEVEN.add(7), DomainError, "expected a PadicNumber"),
    (lambda: parse_expansion_string("1,2x", 5, 4), ExpansionParseError, "bad digit 'x'"),
    # hensel
    (lambda: hensel_lift((-2, 0, 1), 3, 7, 4, method="bisect"), DomainError,
     "unknown lifting method 'bisect'"),
    # valuations_product
    (lambda: PrimeFactorization(1, ((2, 0),)), DomainError, "exponent of 2 must be a positive"),
    (lambda: FqPolynomial(5, (7,)), DomainError, r"residues in \[0, 5\)"),
    (lambda: FqPolynomial(5, (1, 0)), DomainError, "leading coefficient must be nonzero"),
    (lambda: FqPolynomial.x(5) + FqPolynomial.x(7), DomainError, "mixed fields F_5 and F_7"),
    (lambda: divmod(FqPolynomial.x(5), FqPolynomial.of(5)), DomainError,
     "polynomial division by zero"),
    (lambda: enumerate_irreducibles(5, 0), DomainError, "max_degree must be at least 1"),
    (lambda: poly_valuation(3, Place.degree_infinity()), DomainError,
     "expected a polynomial or rational function"),
    (lambda: local_norms_ff(FqPolynomial.of(5)), DomainError, "zero is outside the product"),
    (lambda: Place("bogus"), DomainError, "unknown place kind 'bogus'"),
    (lambda: FqPolynomial.of(5).leading, DomainError, "zero polynomial has no leading coefficient"),
    # quantum_logic
    (lambda: GaussianRational(1, 0) / GaussianRational(0, 0), DomainError, "division by zero"),
    (lambda: GaussianMatrix(2, 1, (1,), (0,)), DomainError, "square and nonempty"),
    (lambda: PauliElement(0, (1,), ()), DomainError, "equal positive length"),
    (lambda: PauliElement(4, (1,), (0,)), DomainError, "phase must be an int reduced mod 4"),
    (lambda: PauliElement(0, (2,), (0,)), DomainError, "bit vectors must be 0/1"),
    (lambda: PauliElement.single("W"), DomainError, "unknown Pauli letter 'W'"),
    (lambda: decompose_in_pauli_basis(GaussianMatrix.identity(2), 2), DomainError,
     "expected a 4x4 matrix"),
    (lambda: chain_lattice(0), DomainError, "a chain needs at least one element"),
    (lambda: subspace_lattice(2, 0), DomainError, "dimension must be at least 1"),
]

HENSEL = ("hensel", "--p", "7", "--x0", "3", "--k", "2", "--poly")
CLI = [
    (("valuation", "1/0", "--p", "5"), "zero denominator in '1/0'"),
    ((*HENSEL, " "), "empty polynomial"),
    ((*HENSEL, "x^2+y"), "cannot parse polynomial term '\\+y'"),
    # a sign that starts no term is refused, not dropped
    ((*HENSEL, "x^2-2++"), "cannot parse polynomial 'x\\^2-2\\+\\+'"),
    ((*HENSEL, "x^2--2"), "cannot parse polynomial 'x\\^2--2'"),
    ((*HENSEL, "x^2-2+"), "cannot parse polynomial"),
    ((*HENSEL[:-1], "--poly=--x^2+2"), "cannot parse polynomial"),
    (("product-formula", "--function-field", "5", "x^2--1"), "cannot parse polynomial"),
    (("product-formula", "--function-field", "5", "x/0"), "zero denominator"),
    (("pauli", "mul", "Q", "X"), "cannot parse Pauli word 'Q'"),
    (("pauli", "normalizer-check", "--matrix", "1,;0,1"), "empty matrix entry"),
]


@pytest.mark.parametrize("call, error, message", LIBRARY, ids=[m for _, _, m in LIBRARY])
def test_each_library_refusal_raises_its_class(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("argv, message", CLI, ids=[" ".join(argv) for argv, _ in CLI])
def test_each_cli_grammar_refusal_exits_1_on_one_line(argv, message):
    args = cli.build_parser().parse_args(list(argv))
    with pytest.raises(DomainError, match=message) as info:
        args.handler(args)
    assert type(info.value) is DomainError
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
