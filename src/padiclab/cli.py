"""Command-line front door: every module behind one deterministic binary.

Subcommands: expand, valuation, norm, hensel, sqrt, product-formula,
code {encode,decode,add,sub,mul,div}, pauli {mul,order,basis-check,
normalizer-check}, lattice check, borel, seminorm-check.  Each leaf
subcommand is declared once by ``leaf()``, which also gives it ``--json``:
structured output whose shape is pinned by the schemas under ``schemas/v1/``.
``--json`` belongs to the leaf, so it follows the leaf's name
(``padiclab code encode 2/3 --p 5 --json``); the groups take no options.

Conventions: exact rationals appear in JSON as {"num", "den"} string pairs;
high-precision reals as decimal strings; identical invocations produce
identical bytes.  Exit codes: 0 success, 1 domain error (including an
unparsable rational or real) or a failed write to stdout (a closed pipe, a
full disk: ``output_error``), 2 usage error, 3 resource limit (for example
``pauli basis-check`` beyond n = 4).  Errors go to stderr as one line (JSON
mode: an object with ``error`` and ``error_code``).  Every way the program
starts (the ``padiclab`` script, ``python -m padiclab`` or ``padiclab.cli``,
``scripts/demo.py``) goes through ``entry``, which writes stdout and stderr as
UTF-8 whatever the locale or ``PYTHONIOENCODING``; ``main`` writes to whatever
``sys.stdout`` is.

Defaults r=8 (``--r`` of expand, sqrt and every code subcommand) and
tolerance 1e-10 (``borel --tol``) can be overridden per invocation or by the
``PADICLAB_PRECISION`` / ``PADICLAB_TOLERANCE`` environment variables.
Arguments that begin with ``-`` (negative rationals) must follow a ``--``
separator, e.g. ``padiclab norm --archimedean -- -3/4``.

The argparse tree is built once per process; each ``main()`` call parses with
a fresh copy of its top-level parser and reads the environment anew.  A
request that names a leaf is parsed by that leaf's parser alone; argparse's
walk down the tree serves help and usage errors.
"""

from __future__ import annotations

import argparse
import copy
import errno
import functools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from mpmath import mp

from .errors import DomainError, PadiclabError, ResourceLimitError, max_str_digits, quoted
from .hensel import hensel_lift, sqrt_padic
from .hensel_codes import HenselCode, code_add, code_div, code_mul, code_sub, decode, encode
from .padic_core import (
    ARCHIMEDEAN,
    PadicNumber,
    RationalPolynomial,
    _int_valuation,
    _trim,
    check_seminorm_axioms,
    gauss_norm,
    norm,
    nu,
    require_prime,
    to_expansion_string,
)
from .quantum_logic import (
    _PAULI_BITS,
    GaussianMatrix,
    GaussianRational,
    PauliElement,
    boolean_lattice,
    chain_lattice,
    diamond_lattice,
    is_distributive,
    is_in_normalizer,
    is_modular,
    pauli_basis_check,
    pauli_group_order,
    pauli_mul,
    pentagon_lattice,
    subspace_lattice,
)
from .resurgence import (
    MAX_SERIES_ORDER,
    borel_sum,
    euler_partial_sums,
    euler_series_partial,
    general_solution,
    ode_residual,
    optimal_truncation_index,
)
from .valuations_product import (
    FqPolynomial,
    RationalFunction,
    local_norms,
    local_norms_ff,
)

_RESIDUAL_TOL = "1e-16"
#: seminorm-check multiplies and adds every ordered sample pair, and costs
#: samples**2 * ((degree + 1)**2 + _SEMINORM_PAIR) units (see ``_check_seminorm_work``).
_SEMINORM_WORK = 250_000
_SEMINORM_PAIR = 8
#: CPython converts an int of at most max_str_digits() decimal digits to or from text.
_PRINTABLE = 10 ** max_str_digits()
#: parse_polynomial builds a dense coefficient list up to the largest exponent.
_MAX_EXPONENT = 10**4
#: hensel prints x_0, ..., x_k: at most this many residue digits in all.
_HENSEL_DIGITS = 3_000_000


# -- input grammars -----------------------------------------------------------

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _int_arg(s: str) -> int:
    """argparse type of the integer arguments: a bad literal is quoted by its prefix only."""
    try:
        return int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(s)}") from None


def _parse_int(s: str) -> int:
    """int(s) for a [sign]digits literal, refused past CPython's digit limit."""
    try:
        return int(s)
    except ValueError:
        limit = max_str_digits()
        raise ResourceLimitError(f"integer literal exceeds {limit} decimal digits") from None


def parse_rational(s: str) -> Fraction:
    """Grammar: [-]digits[/digits]."""
    s = s.strip()
    m = _RATIONAL_RE.fullmatch(s)
    if not m:
        raise DomainError(f"cannot parse rational {quoted(s)}")
    num, den = m.groups()
    try:
        return Fraction(_parse_int(num), _parse_int(den or "1"))
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {quoted(s)}") from None


_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?(x(?:\^(\d+))?)?")


def parse_polynomial(s: str) -> tuple[int, ...]:
    """Integer polynomials in x: terms like ``3x^2``, ``-x``, ``7``; ``*`` optional."""
    compact = re.sub(r"\s+", "", s)
    if not compact:
        raise DomainError("empty polynomial")
    coeffs: dict[int, int] = {}
    parts = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(parts) != compact:  # a sign that starts no term
        raise DomainError(f"cannot parse polynomial {quoted(s)}")
    for part in parts:
        m = _TERM_RE.fullmatch(part)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise DomainError(f"cannot parse polynomial term {quoted(part)}")
        sign, num, xpart, exp = m.groups()
        degree = 0 if xpart is None else (1 if exp is None else _parse_int(exp))
        if degree > _MAX_EXPONENT:
            raise ResourceLimitError(f"exponent {degree} exceeds {_MAX_EXPONENT}")
        c = 1 if num is None else _parse_int(num)
        coeffs[degree] = coeffs.get(degree, 0) + (-c if sign == "-" else c)
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return _trim(out)


def _strip_parens(s: str) -> str:
    if s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


def parse_fq_ratio(s: str, p: int) -> RationalFunction:
    """``num`` or ``num/den`` with each side a polynomial, parens optional."""
    compact = re.sub(r"\s+", "", s)
    num_s, slash, den_s = compact.partition("/")
    num = FqPolynomial.of(p, *parse_polynomial(_strip_parens(num_s)))
    if not slash:
        den = FqPolynomial.one(p)
    else:
        den = FqPolynomial.of(p, *parse_polynomial(_strip_parens(den_s)))
        if den.is_zero:
            raise DomainError("zero denominator")
    return RationalFunction.of(num, den)


_PAULI_RE = re.compile(r"(\+i|-i|\+|-|i)?([IXYZ]+)")


def parse_pauli(s: str) -> PauliElement:
    """Words like ``X``, ``-iY``, ``XZ``: optional phase prefix, letters per qubit."""
    m = _PAULI_RE.fullmatch(s.strip())
    if not m:
        raise DomainError(f"cannot parse Pauli word {quoted(s)}")
    prefix, word = m.groups()
    phase = {None: 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}[prefix] + word.count("Y")
    xbits, zbits = zip(*(_PAULI_BITS[letter] for letter in word))
    return PauliElement(phase % 4, xbits, zbits)


def parse_gaussian(s: str) -> GaussianRational:
    """Entries like ``2``, ``-1/2``, ``i``, ``3/5+4/5i``."""
    s = re.sub(r"\s+", "", s)
    if not s:
        raise DomainError("empty matrix entry")
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s), Fraction(0))
    body = s[:-1]
    if body in ("", "+"):
        return GaussianRational(Fraction(0), Fraction(1))
    if body == "-":
        return GaussianRational(Fraction(0), Fraction(-1))
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "+-/":
            imag = body[idx:]
            if imag in ("+", "-"):
                imag += "1"
            return GaussianRational(parse_rational(body[:idx]), parse_rational(imag))
    return GaussianRational(Fraction(0), parse_rational(body))


def parse_matrix(s: str) -> GaussianMatrix:
    """Rows separated by ``;``, entries by ``,``: e.g. ``1,1;1,-1``."""
    rows = [
        [parse_gaussian(entry) for entry in row.split(",")]
        for row in s.strip().split(";")
    ]
    return GaussianMatrix.of(rows)


# -- output helpers -----------------------------------------------------------


def _rat_pair(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _val_json(v):
    return "infinity" if v.is_infinite else int(v)


def _fmt(x, digits: int = 20) -> str:
    with mp.workdps(40):
        return mp.nstr(mp.mpf(x), digits)


def _check_printable(p: int, e: int) -> None:
    """Refuse, before any work, a result whose integers (all below p**e) CPython won't print."""
    p, e = abs(p), max(e, 0)
    # p**e >= 2**(e * (bits - 1)), so the first test keeps p**e itself small
    if e * (p.bit_length() - 1) >= _PRINTABLE.bit_length() or p**e > _PRINTABLE:
        raise ResourceLimitError(
            f"p**e exceeds {max_str_digits()} decimal digits, p = {quoted(p)}, e = {quoted(e)}"
        )


def _check_hensel_output(p: int, k: int) -> None:
    """Refuse, before any lift, residues x_i < p**(i+1), i <= k, of over _HENSEL_DIGITS digits."""
    # power = p**(i+1) has ``digits`` digits: 10**(digits - 1) <= power < ten
    total, power, ten, digits = 0, 1, 10, 1
    for _ in range(k + 1):
        power *= p
        while power >= ten:
            ten, digits = ten * 10, digits + 1
        total += digits
        if total > _HENSEL_DIGITS:
            raise ResourceLimitError(
                f"the residues x_0, ..., x_{k} would print over {_HENSEL_DIGITS} digits"
            )


# -- handlers ------------------------------------------------------------------


def _cmd_expand(args):
    _check_printable(args.p, args.r)
    a = parse_rational(args.value)
    x = PadicNumber.from_rational(a, args.p, args.r)
    s = to_expansion_string(x)
    return {"input": args.value, "p": args.p, "r": args.r, "expansion": s}, s


def _cmd_valuation(args):
    v = nu(parse_rational(args.value), args.p)
    return {"input": args.value, "p": args.p, "valuation": _val_json(v)}, str(v)


def _cmd_norm(args):
    a = parse_rational(args.value)
    place = ARCHIMEDEAN if args.archimedean else args.p
    value = norm(a, place)
    return (
        {
            "input": args.value,
            "place": "infinity" if args.archimedean else str(args.p),
            "norm": _rat_pair(value),
        },
        str(value),
    )


def _cmd_hensel(args):
    _check_printable(args.p, args.k + 1)
    require_prime(args.p)  # p >= 2, so the digit count below passes the bound within ~4500 steps
    _check_hensel_output(args.p, args.k)
    trace = hensel_lift(parse_polynomial(args.poly), args.x0, args.p, args.k)
    residues, total = trace.residues, trace.render_sum()
    lines = [f"x_{i} = {x} (mod {args.p}^{i + 1})" for i, x in enumerate(residues)]
    lines.append(f"x_{trace.k} = {total}")
    payload = {
        "poly": args.poly,
        "p": args.p,
        "x0": args.x0,
        "k": args.k,
        "digits": list(trace.digits),
        "residues": list(residues),
        "sum": total,
    }
    return payload, "\n".join(lines)


def _cmd_sqrt(args):
    _check_printable(args.p, args.r)
    roots = sqrt_padic(args.a, args.p, args.r)
    expansions = [to_expansion_string(x) for x in roots]
    text = "\n".join(expansions) if expansions else f"no square roots in Z_{args.p}"
    return {"a": args.a, "p": args.p, "r": args.r, "roots": expansions}, text


def _place_valuation(place, value: Fraction, p: int | None):
    """v with |a| = q**(-v), q the size of the residue field; None at the archimedean place."""
    if place.kind == "archimedean":
        return None
    q = place.prime if place.kind == "finite" else p ** (place.poly.degree if place.poly else 1)
    return _int_valuation(value.denominator, q) - _int_valuation(value.numerator, q)


def _cmd_product_formula(args):
    p = args.function_field
    if p is not None:
        pairs = local_norms_ff(parse_fq_ratio(args.value, p))
        field = f"F_{p}(x)"
    else:
        pairs = local_norms(parse_rational(args.value))
        field = "Q"
    rows = [
        {
            "place": str(place),
            "valuation": _place_valuation(place, v, p),
            "norm_num": str(v.numerator),
            "norm_den": str(v.denominator),
        }
        for place, v in pairs
    ]
    product = math.prod(v for _, v in pairs)
    lines = [f"place {place}: |a| = {v}" for place, v in pairs]
    lines.append(f"product = {product}")
    payload = {
        "input": args.value,
        "field": field,
        "places": rows,
        "product": _rat_pair(product),
    }
    return payload, "\n".join(lines)


def _code_payload(code: HenselCode):
    return (
        {"p": code.p, "r": code.r, "value": code.value, "digits": list(code.digits)},
        f"{code.value} digits={list(code.digits)}",
    )


def _cmd_code_decode(args):
    _check_printable(args.p, args.r)
    value = decode(HenselCode(args.p, args.r, args.value))
    payload = {"p": args.p, "r": args.r, "value": args.value, "rational": _rat_pair(value)}
    return payload, str(value)


def _code_op(fn, *operands):
    """Handler for ``fn`` on the codes of the rationals named by ``operands``."""

    def handler(args):
        _check_printable(args.p, args.r)
        codes = [encode(parse_rational(getattr(args, a)), args.p, args.r) for a in operands]
        return _code_payload(fn(*codes))

    return handler


def _cmd_pauli_mul(args):
    g = pauli_mul(parse_pauli(args.x), parse_pauli(args.y))
    payload = {
        "word": str(g),
        "n": g.n,
        "phase": g.phase,
        "xbits": list(g.xbits),
        "zbits": list(g.zbits),
    }
    return payload, str(g)


def _cmd_pauli_order(args):
    order = pauli_group_order(args.n)
    return {"n": args.n, "order": order}, str(order)


def _cmd_pauli_basis_check(args):
    report = pauli_basis_check(args.n)
    payload = {"n": args.n, "independent": report.independent, "spanning": report.spanning}
    return payload, str(report)


def _cmd_pauli_normalizer_check(args):
    check = is_in_normalizer(parse_matrix(args.matrix))
    failing = check.failing_generator
    payload = {
        "member": check.member,
        "failing_generator": None if failing is None else str(failing),
    }
    return payload, str(check)


def _cmd_lattice(args):
    if args.subspace:
        q, d = args.subspace
        lat, desc = subspace_lattice(q, d), f"subspace({q},{d})"
    elif args.named in ("n5", "m3"):
        lat = pentagon_lattice() if args.named == "n5" else diamond_lattice()
        desc = args.named
    else:
        build = boolean_lattice if args.named == "boolean" else chain_lattice
        lat, desc = build(args.k), f"{args.named}({args.k})"
    modular = is_modular(lat)
    distributive = is_distributive(lat)

    def line(check):
        if check.holds:
            return f"{check.law}: holds"
        w = check.witness
        return (
            f"{check.law}: fails witness a={w['a']} b={w['b']} c={w['c']} "
            f"lhs={w['lhs']} rhs={w['rhs']}"
        )

    payload = {
        "lattice": desc,
        "elements": len(lat.elements),
        "modular": modular.as_json(),
        "distributive": distributive.as_json(),
    }
    text = "\n".join(
        [f"lattice {desc}: {len(lat.elements)} elements", line(modular), line(distributive)]
    )
    return payload, text


def _cmd_borel(args):
    t = args.t
    if args.table:
        top = args.order
        if top is None:
            top = optimal_truncation_index(t, limit=MAX_SERIES_ORDER) + 5
        partials = euler_partial_sums(t, top)
        borel = borel_sum(t, tol=args.tol)
        rows = [
            {"n": n, "partial_sum": _fmt(s), "gap": _fmt(abs(s - borel.value), 8)}
            for n, s in enumerate(partials)
        ]
        text = "\n".join(f"{row['n']}\t{row['partial_sum']}\t{row['gap']}" for row in rows)
        return {"t": t, "method": "partial_sums_table", "rows": rows}, text
    if args.order is not None:
        fn = lambda s, tol: euler_series_partial(s, args.order)
    elif args.a is not None:
        fn = lambda s, tol: general_solution(s, args.a, tol)
    else:
        fn = borel_sum
    result = fn(t, args.tol)
    residual = ode_residual(lambda s: fn(s, _RESIDUAL_TOL).value, t)
    payload = {
        "t": t,
        "method": result.method,
        "value": _fmt(result.value),
        "error_estimate": _fmt(result.error_estimate, 8),
        "residual": _fmt(residual, 8),
    }
    text = (
        f"y({t}) = {_fmt(result.value)}  [{result.method}, "
        f"error_estimate {_fmt(result.error_estimate, 8)}, "
        f"ode_residual {_fmt(residual, 8)}]"
    )
    return payload, text


def _check_seminorm_work(samples: int, degree: int) -> None:
    """Refuse, before any sample, a check of over _SEMINORM_WORK units.

    Each ordered pair costs its product's (degree + 1)**2 coefficient steps
    plus _SEMINORM_PAIR units for the rest: two Gauss norms, two Fraction
    operations and two reductions take about 13 us on a 2-vCPU host
    (Python 3.11), so a unit is ~1.6 us and the slowest admitted check, 166
    samples at degree 0, takes about 0.65 s cold.  A coefficient step costs
    ~0.1 us, well under a unit.
    """
    if max(samples, 0) ** 2 * ((degree + 1) ** 2 + _SEMINORM_PAIR) > _SEMINORM_WORK:
        raise ResourceLimitError(
            f"samples**2 * ((degree + 1)**2 + {_SEMINORM_PAIR}) exceeds {_SEMINORM_WORK}"
        )


def _cmd_seminorm_check(args):
    if args.degree < 0:
        raise DomainError("degree must be >= 0")
    _check_seminorm_work(args.samples, args.degree)
    rng = random.Random(args.seed)
    samples = []
    for _ in range(args.samples):
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, args.degree) + 1)
        ]
        samples.append(RationalPolynomial.of(*coeffs))
    report = check_seminorm_axioms(
        lambda f: gauss_norm(f, args.p),
        samples,
        zero=RationalPolynomial.of(),
        one=RationalPolynomial.of(1),
    )
    payload = {
        "p": args.p,
        "samples": args.samples,
        "degree": args.degree,
        "seed": args.seed,
        "all_passed": report.all_passed,
        "axioms": [
            {
                "axiom": r.axiom,
                "passed": r.passed,
                "witness": None if r.witness is None else str([str(w) for w in r.witness]),
            }
            for r in report.results
        ],
    }
    return payload, str(report)


# -- parser --------------------------------------------------------------------


def _env(name: str, convert, default):
    """``convert`` of environment variable ``name``; ``default`` if unset or malformed."""
    try:
        return convert(os.environ.get(name, default))
    except ValueError:
        return default


def leaf(subs, name, handler, *positionals, p=False, r=False, **kwargs):
    """Declare one leaf subcommand with its handler, ``--json`` and shared options.

    Positionals are names or (name, type) pairs.  ``p=True`` adds a required
    ``--p``; an int makes ``--p`` optional with that default; ``"archimedean"``
    requires exactly one of ``--p`` and ``--archimedean``.  ``r=True`` adds
    ``--r``, whose default ``main`` reads from ``PADICLAB_PRECISION``.  Returns
    the leaf parser for its own options; ``kwargs`` go to ``add_parser``.
    """
    sp = subs.add_parser(name, **kwargs)
    sp.set_defaults(handler=handler)
    sp.add_argument("--json", action="store_true", help="structured output")
    for pos in positionals:
        dest, kind = (pos, None) if isinstance(pos, str) else pos
        sp.add_argument(dest, type=kind)
    if p == "archimedean":
        place = sp.add_mutually_exclusive_group(required=True)
        place.add_argument("--p", type=_int_arg)
        place.add_argument("--archimedean", action="store_true")
    elif p is True:
        sp.add_argument("--p", type=_int_arg, required=True)
    elif p:
        sp.add_argument("--p", type=_int_arg, default=p)
    if r:
        sp.add_argument("--r", type=_int_arg)
    return sp


class _Parser(argparse.ArgumentParser):
    """Hands a request that names one of its subcommands straight to that subparser.

    argparse's own walk classifies the whole argv at every level above the
    leaf; help, a missing or unknown subcommand, or an option before it
    still take that walk, so argparse's messages stay its own.
    """

    _subcommands = None  # the action add_subparsers returned

    def add_subparsers(self, **kwargs):
        self._subcommands = super().add_subparsers(**kwargs)
        return self._subcommands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        subs = self._subcommands
        parser = subs.choices.get(args[0]) if subs and args else None
        if parser is None:
            return super().parse_known_args(args, namespace)
        namespace = argparse.Namespace() if namespace is None else namespace
        setattr(namespace, subs.dest, args[0])
        parsed, extras = parser.parse_known_args(args[1:])
        for key, value in vars(parsed).items():
            setattr(namespace, key, value)
        return namespace, extras


@functools.cache
def _parser_tree() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process."""
    parser = _Parser(
        prog="padiclab",
        description="Exact p-adic arithmetic, product formulas, Hensel codes, "
        "Pauli/lattice quantum logic, and Borel summation.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return top.add_parser(name, help=help).add_subparsers(
            dest=f"{name}_op", required=True
        )

    leaf(top, "expand", _cmd_expand, "value", p=True, r=True,
         help="digit expansion of a rational")
    leaf(top, "valuation", _cmd_valuation, "value", p=True,
         help="p-adic valuation of a rational")
    leaf(top, "norm", _cmd_norm, "value", p="archimedean",
         help="exact absolute value at a place")
    sp = leaf(top, "hensel", _cmd_hensel, p=True,
              help="lift a simple root mod p to mod p^(k+1)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--x0", type=_int_arg, required=True)
    sp.add_argument("--k", type=_int_arg, required=True)
    leaf(top, "sqrt", _cmd_sqrt, ("a", _int_arg), p=True, r=True,
         help="p-adic square roots of an integer")
    sp = leaf(top, "product-formula", _cmd_product_formula, "value",
              help="norms over all places")
    sp.add_argument(
        "--function-field",
        type=_int_arg,
        metavar="P",
        help="treat the input as a rational function over F_P",
    )

    code = group("code", "r-digit residue codes for rationals")
    leaf(code, "encode", _code_op(lambda x: x, "x"), "x", p=True, r=True)
    leaf(code, "decode", _cmd_code_decode, ("value", _int_arg), p=True, r=True)
    for op, fn in (("add", code_add), ("sub", code_sub), ("mul", code_mul), ("div", code_div)):
        leaf(code, op, _code_op(fn, "x", "y"), "x", "y", p=True, r=True)

    pauli = group("pauli", "exact Pauli-group algebra")
    leaf(pauli, "mul", _cmd_pauli_mul, "x", "y")
    leaf(pauli, "order", _cmd_pauli_order).add_argument("--n", type=_int_arg, default=1)
    leaf(pauli, "basis-check", _cmd_pauli_basis_check).add_argument(
        "--n", type=_int_arg, default=1
    )
    leaf(pauli, "normalizer-check", _cmd_pauli_normalizer_check).add_argument(
        "--matrix", required=True, help="rows ';', entries ','"
    )

    sp = leaf(group("lattice", "modular/distributive law checks"), "check", _cmd_lattice)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--subspace", nargs=2, type=_int_arg, metavar=("Q", "D"))
    which.add_argument("--named", choices=["n5", "m3", "boolean", "chain"])
    sp.add_argument("--k", type=_int_arg, default=3, help="size for boolean/chain")

    sp = leaf(top, "borel", _cmd_borel, help="summation of the Euler series")
    sp.add_argument("--t", required=True)
    sp.add_argument("--order", type=_int_arg, help="evaluate the partial sum S_N instead")
    sp.add_argument("--a", help="add a*exp(1/t) (general solution)")
    sp.add_argument("--tol")
    sp.add_argument("--table", action="store_true", help="rows (N, S_N, |S_N - y_B|)")

    sp = leaf(top, "seminorm-check", _cmd_seminorm_check, p=3,
              help="Gauss-norm axiom report")
    sp.add_argument("--samples", type=_int_arg, default=30)
    sp.add_argument("--degree", type=_int_arg, default=4)
    sp.add_argument("--seed", type=_int_arg, default=0)

    return parser


def build_parser() -> argparse.ArgumentParser:
    """A fresh top-level parser over the once-built tree of sub-parsers and actions.

    Attributes set on the returned object (say, a wrapped ``parse_args``)
    stay on it; adding arguments to it would change the shared tree.
    """
    return copy.copy(_parser_tree())


#: Options whose default comes from the environment, read by ``main`` on every
#: call: dest -> (variable, conversion, fallback).
_ENV_DEFAULTS = {
    "r": ("PADICLAB_PRECISION", int, 8),
    "tol": ("PADICLAB_TOLERANCE", str, "1e-10"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, (name, convert, default) in _ENV_DEFAULTS.items():
        if getattr(args, dest, 0) is None:
            setattr(args, dest, _env(name, convert, default))
    try:
        payload, text = args.handler(args)
    except PadiclabError as exc:
        _print_error(exc, exc.code, args.json)
        return 3 if isinstance(exc, ResourceLimitError) else 1
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    return 0


def _print_error(message, code: str, as_json: bool) -> None:
    """The one stderr line of an error: ``error: ...``, or an object with its ``error_code``."""
    error = {"error": str(message), "error_code": code}
    print(json.dumps(error, sort_keys=True) if as_json else f"error: {message}", file=sys.stderr)


def entry(request=main) -> int:
    """Run ``request()`` as the process: the console script, ``python -m`` and the demo.

    stdout and stderr write UTF-8 whatever the locale or ``PYTHONIOENCODING``.  An
    ``OSError`` on writing stdout (a closed pipe, a full disk) ends in one
    ``output_error`` line and exit 1, with stdout pointed at ``os.devnull`` so the
    flush at interpreter exit cannot fail again (the ``signal`` docs' note on SIGPIPE).
    """
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    try:
        if sys.stdout is None:  # started with fd 1 closed, where print drops every line
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.reconfigure(encoding="utf-8")
        try:
            return request()
        finally:
            sys.stdout.flush()  # a write that fails here still lands in the except
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        _print_error(f"cannot write stdout: {exc.strerror or exc}", "output_error",
                     "--json" in sys.argv)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
