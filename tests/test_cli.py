"""Command-line interface: output shapes, exit codes, schemas, determinism.

Every JSON payload must validate against its schema under schemas/v1/; the
text renderings of the worked examples are pinned byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from padiclab import GaussianRational, ResourceLimitError, cli, hensel, valuations_product
from padiclab.cli import build_parser, main, parse_gaussian, parse_polynomial
from padiclab.hensel import hensel_lift

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas" / "v1"


def load_schema(name: str) -> Draft202012Validator:
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return Draft202012Validator(json.load(fh))


def run_cli(*args: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_usage_error(*args: str):
    """(exit code, stderr) of an argv that argparse refuses."""
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(list(args))
    return exc.value.code, err.getvalue()


def run_json(*args: str, schema: str):
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    payload = json.loads(out)
    load_schema(schema).validate(payload)
    return payload


# ---------------------------------------------------------------------------
# Happy paths, text mode
# ---------------------------------------------------------------------------


def test_expand_text_output():
    code, out, _ = run_cli("expand", "216", "--p", "2")
    assert code == 0
    assert out == "0,0011011\n"
    assert run_cli("expand", "216", "--p", "3")[1] == "0,0022\n"
    assert run_cli("expand", "216", "--p", "5")[1] == "1,331\n"


def test_valuation_text():
    assert run_cli("valuation", "63/550", "--p", "5")[1] == "-2\n"
    assert run_cli("valuation", "0", "--p", "5")[1] == "infinity\n"


def test_norm_text():
    assert run_cli("norm", "63/550", "--p", "5")[1] == "25\n"
    assert run_cli("norm", "--archimedean", "--", "-3/4")[1] == "3/4\n"


def test_hensel_text_shows_sum():
    code, out, _ = run_cli(
        "hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "2"
    )
    assert code == 0
    assert "3 + 7·1 + 7²·2" in out
    assert "x_2 = 108 (mod 7^3)" in out


@pytest.mark.parametrize(
    "argv, name, operands",
    [
        (["63/550"], "factor", ["63", "550"]),
        (["(x^2+1)/(x+1)", "--function-field", "3"], "factor_poly", ["x^2+1", "x+1"]),
    ],
)
def test_product_formula_factors_each_operand_once(monkeypatch, argv, name, operands):
    calls = []
    kernel = getattr(valuations_product, name)
    monkeypatch.setattr(valuations_product, name, lambda g: calls.append(str(g)) or kernel(g))
    # the valuation column is read off the norms, not recomputed
    assert not hasattr(cli, "poly_valuation")
    monkeypatch.setattr(cli, "nu", lambda *a: pytest.fail("nu called"))
    monkeypatch.setattr(valuations_product, "poly_valuation",
                        lambda *a: pytest.fail("poly_valuation called"))
    for mode in ((), ("--json",)):
        calls.clear()
        code, out, err = run_cli("product-formula", *argv, *mode)
        assert code == 0, err
        assert "product" in out
        assert calls == operands


def _repeated_division(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_product_formula_valuations_over_test_03_rationals():
    # acceptance test 03's distribution; 76 of these have a prime factor above
    # 2**32 and exited 3 when each valuation was recomputed by nu
    rng = random.Random(3)
    for _ in range(200):
        num = rng.randint(1, 10**12) * rng.choice((1, -1))
        den = rng.randint(1, 10**12)
        code, out, err = run_cli("product-formula", "--json", "--", f"{num}/{den}")
        assert code == 0, err
        *finite, archimedean = json.loads(out)["places"]
        assert (archimedean["place"], archimedean["valuation"]) == ("infinity", None)
        for row in finite:
            p = int(row["place"])
            assert row["valuation"] == _repeated_division(num, p) - _repeated_division(den, p)


def test_product_formula_ff_valuations_match_poly_valuation():
    # acceptance test 04's distribution, against the independent divide-out route
    vp = valuations_product
    rng = random.Random(4)

    def draw(p):
        return vp.FqPolynomial.of(p, *(rng.randrange(p) for _ in range(rng.randint(0, 8))), 1)

    for _ in range(60):
        p = rng.choice((2, 3, 5))
        f = vp.RationalFunction.of(draw(p), draw(p))
        payload = run_json("product-formula", str(f), "--function-field", str(p),
                           schema="product-formula")
        places = [place for place, _ in vp.local_norms_ff(f)]
        assert [row["place"] for row in payload["places"]] == [str(pl) for pl in places]
        assert [row["valuation"] for row in payload["places"]] == [
            int(vp.poly_valuation(f, pl)) for pl in places]


def test_product_formula_past_the_primality_gate():
    code, out, _ = run_cli("product-formula", "4294967311")
    assert code == 0
    assert out.splitlines()[0] == "place 4294967311: |a| = 1/4294967311"
    payload = run_json("product-formula", "4294967311", schema="product-formula")
    assert payload["places"][0]["valuation"] == 1


def test_sqrt_text():
    code, out, _ = run_cli("sqrt", "2", "--p", "7", "--r", "3")
    assert code == 0
    assert out.splitlines() == ["3,12", "4,54"]


def test_product_formula_text_ends_with_product():
    code, out, _ = run_cli("product-formula", "63/550")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "product = 1"
    assert any("infinity" in line for line in lines)


# ---------------------------------------------------------------------------
# JSON payloads validate against their schemas
# ---------------------------------------------------------------------------


def test_expand_json_schema():
    payload = run_json("expand", "1/3", "--p", "5", "--r", "4", schema="expand")
    assert payload == {"expansion": "2,313", "input": "1/3", "p": 5, "r": 4}


def test_valuation_json_schema():
    assert run_json("valuation", "0", "--p", "7", schema="valuation")["valuation"] == (
        "infinity"
    )
    assert run_json("valuation", "50", "--p", "5", schema="valuation")["valuation"] == 2


def test_norm_json_schema():
    payload = run_json("norm", "63/550", "--p", "5", schema="norm")
    assert payload["norm"] == {"num": "25", "den": "1"}


def test_hensel_json_schema():
    payload = run_json(
        "hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "2",
        schema="hensel",
    )
    assert payload["digits"] == [3, 1, 2]
    assert payload["residues"] == [3, 10, 108]
    assert payload["sum"] == "3 + 7·1 + 7²·2"


def _hensel_requests(n: int = 40, seed: int = 14) -> list[list[str]]:
    """Seeded ``hensel`` argv lists, each lifting a simple root; the first at k = 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p, x0 = rng.choice([2, 3, 5, 7, 101]), rng.randrange(-200, 200)
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 50))
        coeffs[0] -= sum(c * x0**i for i, c in enumerate(coeffs)) % p
        if sum(i * c * x0 ** (i - 1) for i, c in enumerate(coeffs) if i) % p == 0:
            continue
        poly = "".join(f"{c:+d}x^{i}" if i else f"{c:+d}" for i, c in enumerate(coeffs) if c)
        k = 0 if not out else rng.randint(0, 60)
        out.append(["hensel", f"--poly={poly}", "--p", str(p), f"--x0={x0}", "--k", str(k)])
    return out


def test_hensel_matches_the_digit_reference(monkeypatch):
    digit_lift = functools.partial(hensel_lift, method="digit")
    for argv in _hensel_requests():
        for mode in ([], ["--json"]):
            got = run_cli(*argv, *mode)
            with monkeypatch.context() as m:
                m.setattr(cli, "hensel_lift", digit_lift)
                assert run_cli(*argv, *mode) == got
            assert got[0] == 0, (argv, got[2])


def test_sqrt_json_schema():
    payload = run_json("sqrt", "2", "--p", "7", "--r", "3", schema="sqrt")
    assert payload["roots"] == ["3,12", "4,54"]


def test_product_formula_json_schema():
    payload = run_json("product-formula", "63/550", schema="product-formula")
    assert payload["field"] == "Q"
    assert payload["product"] == {"num": "1", "den": "1"}
    places = {row["place"]: row for row in payload["places"]}
    assert places["5"]["valuation"] == -2
    assert places["5"]["norm_num"] == "25"
    assert places["infinity"]["valuation"] is None


def test_product_formula_ff_json_schema():
    payload = run_json(
        "product-formula", "(x^3+x)/(x+1)", "--function-field", "2",
        schema="product-formula",
    )
    assert payload["field"] == "F_2(x)"
    assert payload["product"] == {"num": "1", "den": "1"}


def test_product_formula_ff_lists_places_by_degree_first():
    # x^3+x+1 has the smaller reversed coefficient vector, x+1 the smaller degree
    argv = ("product-formula", "(x^3+x+1)/(x+1)", "--function-field", "2")
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out.splitlines()[:3] == [
        "place x+1: |a| = 2", "place x^3+x+1: |a| = 1/8", "place infinity: |a| = 4"]
    payload = run_json(*argv, schema="product-formula")
    assert [row["place"] for row in payload["places"]] == ["x+1", "x^3+x+1", "infinity"]
    assert [row["valuation"] for row in payload["places"]] == [-1, 1, -2]


def test_code_json_schemas():
    enc = run_json("code", "encode", "1/3", "--p", "5", "--r", "4", schema="code")
    assert enc == {"p": 5, "r": 4, "value": 417, "digits": [2, 3, 1, 3]}
    dec = run_json("code", "decode", "417", "--p", "5", "--r", "4", schema="code-decode")
    assert dec["rational"] == {"num": "1", "den": "3"}
    total = run_json(
        "code", "add", "1/3", "2/3", "--p", "5", "--r", "4", schema="code"
    )
    assert total["value"] == 1


def test_pauli_json_schemas():
    mul = run_json("pauli", "mul", "X", "Z", schema="pauli-mul")
    assert mul == {"word": "-iY", "n": 1, "phase": 0, "xbits": [1], "zbits": [1]}
    order = run_json("pauli", "order", "--n", "2", schema="pauli-order")
    assert order == {"n": 2, "order": 64}
    basis = run_json("pauli", "basis-check", schema="pauli-basis-check")
    assert basis == {"n": 1, "independent": True, "spanning": True}
    norm1 = run_json(
        "pauli", "normalizer-check", "--matrix", "1,1;1,-1",
        schema="pauli-normalizer-check",
    )
    assert norm1 == {"member": True, "failing_generator": None}
    norm2 = run_json(
        "pauli", "normalizer-check", "--matrix", "1,0;0,3/5+4/5i",
        schema="pauli-normalizer-check",
    )
    assert norm2 == {"member": False, "failing_generator": "X"}


def test_lattice_json_schemas():
    n5 = run_json("lattice", "check", "--named", "n5", schema="lattice-check")
    assert n5["modular"]["holds"] is False
    assert n5["modular"]["a"] == "z"
    sub = run_json("lattice", "check", "--subspace", "2", "2", schema="lattice-check")
    assert sub["elements"] == 5
    assert sub["modular"]["holds"] is True
    assert sub["distributive"]["holds"] is False
    assert {sub["distributive"][k] for k in "abc"} == {
        "span{(1,0)}", "span{(1,1)}", "span{(0,1)}"
    }


LATTICE_TEXT = {
    ("--named", "n5"): "lattice n5: 5 elements\n"
    "modular: fails witness a=z b=x c=y lhs=z rhs=x\n"
    "distributive: fails witness a=z b=x c=y lhs=z rhs=x\n",
    ("--named", "m3"): "lattice m3: 5 elements\n"
    "modular: holds\n"
    "distributive: fails witness a=a b=b c=c lhs=a rhs=0\n",
    ("--named", "boolean", "--k", "3"): "lattice boolean(3): 8 elements\n"
    "modular: holds\n"
    "distributive: holds\n",
    ("--named", "chain", "--k", "4"): "lattice chain(4): 4 elements\n"
    "modular: holds\n"
    "distributive: holds\n",
    ("--subspace", "2", "2"): "lattice subspace(2,2): 5 elements\n"
    "modular: holds\n"
    "distributive: fails witness a=span{(1,0)} b=span{(1,1)} c=span{(0,1)} "
    "lhs=span{(1,0)} rhs=0\n",
    ("--subspace", "3", "2"): "lattice subspace(3,2): 6 elements\n"
    "modular: holds\n"
    "distributive: fails witness a=span{(1,0)} b=span{(1,1)} c=span{(1,2)} "
    "lhs=span{(1,0)} rhs=0\n",
}


@pytest.mark.parametrize("argv", list(LATTICE_TEXT))
def test_lattice_text_pinned(argv):
    # the witnesses are the first failing triples in element order
    assert run_cli("lattice", "check", *argv) == (0, LATTICE_TEXT[argv], "")


def test_borel_json_schema():
    payload = run_json("borel", "--t", "1/2", schema="borel")
    assert payload["t"] == "1/2"
    assert payload["value"].startswith("0.36132861")
    assert payload["method"].startswith("borel(")
    table = run_json("borel", "--t", "1/10", "--table", "--order", "5",
                     schema="borel-table")
    assert [row["n"] for row in table["rows"]] == [0, 1, 2, 3, 4, 5]


BOREL_TEXT = {
    ("--t", "1/10"): "y(1/10) = 0.091563333939788081876  [borel(nodes=64), "
    "error_estimate 3.2446775e-14, ode_residual 8.1094336e-11]\n",
    ("--t", "1/2"): "y(1/2) = 0.3613286168882225847  [borel(nodes=64), "
    "error_estimate 1.6080272e-14, ode_residual 3.3846953e-10]\n",
    ("--t", "1"): "y(1) = 0.59634736232319407434  [borel(nodes=64), "
    "error_estimate 1.4506924e-14, ode_residual 4.1247382e-10]\n",
    ("--t", "1/2", "--a", "1"): "y(1/2) = 7.7503847158188728119  [general(a=1.0), "
    "error_estimate 1.6080272e-14, ode_residual 1.0833899e-6]\n",
    ("--t", "1/10", "--order", "9"): "y(1/10) = 0.091545632  [partial_sum(N=9), "
    "error_estimate 3.6288e-5, ode_residual 3.6288167e-5]\n",
    ("--t", "1/10", "--table", "--order", "12"): "0\t0.1\t0.0084366661\n"
    "1\t0.09\t0.0015633339\n"
    "2\t0.092\t0.00043666606\n"
    "3\t0.0914\t0.00016333394\n"
    "4\t0.09164\t7.666606e-5\n"
    "5\t0.09152\t4.333394e-5\n"
    "6\t0.091592\t2.866606e-5\n"
    "7\t0.0915416\t2.173394e-5\n"
    "8\t0.09158192\t1.858606e-5\n"
    "9\t0.091545632\t1.770194e-5\n"
    "10\t0.09158192\t1.858606e-5\n"
    "11\t0.0915420032\t2.133074e-5\n"
    "12\t0.09158990336\t2.656942e-5\n",
}


@pytest.mark.parametrize("argv", list(BOREL_TEXT))
def test_borel_text_pinned(argv):
    assert run_cli("borel", *argv) == (0, BOREL_TEXT[argv], "")


def test_borel_table_up_to_the_series_bound():
    table = run_json("borel", "--t", "1/2", "--table", "--order", "500", schema="borel-table")
    assert [row["n"] for row in table["rows"]] == list(range(501))


def test_seminorm_json_schema():
    payload = run_json(
        "seminorm-check", "--p", "3", "--samples", "10", "--seed", "1",
        schema="seminorm-check",
    )
    assert payload["all_passed"] is True
    assert [a["axiom"] for a in payload["axioms"]] == [
        "zero_norm", "unit_norm", "multiplicative", "triangle",
    ]


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------


def test_domain_error_exits_1_with_json_on_stderr():
    code, out, err = run_cli("expand", "5", "--p", "4", "--json")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    load_schema("error").validate(payload)
    assert payload["error_code"] == "not_prime"


def test_decode_failure_exit_code():
    code, _, err = run_cli("code", "decode", "100", "--p", "5", "--r", "4")
    assert code == 1
    assert "decode" in err.lower() or "farey" in err.lower() or "box" in err.lower()


def test_resource_limit_exits_3():
    code, _, err = run_cli("pauli", "order", "--n", "3", "--json")
    assert code == 3
    assert json.loads(err)["error_code"] == "resource_limit"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2


def test_basis_check_beyond_three_qubits_exits_3():
    code, out, err = run_cli("pauli", "basis-check", "--n", "5", "--json")
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    load_schema("error").validate(payload)
    assert payload["error_code"] == "resource_limit"


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--n", "0"],
        ["order", "--n", "-1"],
        ["basis-check", "--n", "0"],
    ],
)
def test_pauli_counts_below_one_qubit_exit_1(argv, json_mode):
    code, out, err = run_cli("pauli", *argv, *(["--json"] if json_mode else []))
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(err)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "domain_error"
    else:
        assert err == "error: n must be at least 1\n"


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("matrix, side", [("1", 1), ("1,0,0;0,1,0;0,0,1", 3)])
def test_normalizer_check_names_a_side_that_is_not_a_power_of_two(matrix, side, json_mode):
    argv = ["pauli", "normalizer-check", "--matrix", matrix]
    code, out, err = run_cli(*argv, *(["--json"] if json_mode else []))
    assert (code, out) == (1, "")
    message = f"matrix side {side} is not 2**n for a qubit count n >= 1"
    if json_mode:
        payload = json.loads(err)
        load_schema("error").validate(payload)
        assert (payload["error"], payload["error_code"]) == (message, "domain_error")
    else:
        assert err == f"error: {message}\n"


def _hadamards(n: int) -> str:
    """The --matrix text of the tensor power of [[1, 1], [1, -1]] on n qubits."""
    side = 1 << n
    sign = {0: "1", 1: "-1"}
    return ";".join(
        ",".join(sign[(i & j).bit_count() % 2] for j in range(side)) for i in range(side)
    )


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["pauli", "basis-check", "--n", "4"], "independent: yes, spanning: yes\n"),
        (["pauli", "normalizer-check", "--matrix", _hadamards(5)], "in the normalizer\n"),
    ],
    ids=["basis-n4", "normalizer-h5"],
)
def test_largest_admitted_pauli_checks(argv, stdout):
    # 2**20 and 31 * 8**5 entry products: the work bound's last admitted requests
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", *argv], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["pauli", "basis-check", "--n", "5"],
        ["pauli", "basis-check", "--n", str(10**18)],
        ["pauli", "normalizer-check", "--matrix", _hadamards(6)],
        ["pauli", "order", "--n", "3"],
    ],
    ids=["basis-n5", "basis-n1e18", "normalizer-64x64", "order-n3"],
)
def test_pauli_work_refused_fast(argv, json_mode):
    # one process at a time; past 2**20 entry products, refused before any product
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", *argv, *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"


@pytest.mark.parametrize(
    "argv",
    [
        ["--named", "chain", "--k", "100000"],
        ["--named", "boolean", "--k", "8"],
        ["--subspace", "2", "5"],
        ["--subspace", "2", "14"],
    ],
)
def test_oversized_lattice_refused_fast(argv):
    # one process at a time; the refusal must come before any enumeration
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "lattice", "check", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert elapsed < 2.0


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["borel", "--t", "1/2", "--order", "100000"],
        ["borel", "--t", "1e-6", "--table"],
        ["seminorm-check", "--samples", "10000"],
        ["seminorm-check", "--degree", "100000"],
    ],
)
def test_oversized_borel_and_seminorm_refused_fast(argv, json_mode):
    # one process at a time; the refusal must come before any series or sample
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", *argv, *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert proc.stderr.startswith("error: ")
    assert elapsed < 2.0


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["sqrt", "2", "--p", "4294967291", "--r", "2"],
        ["hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "10000"],
        ["code", "encode", "2/3", "--p", "5", "--r", "20000"],
        # integer literals past CPython's 4300-digit int-from-str limit
        ["valuation", "1" * 5000, "--p", "5"],
        ["hensel", "--poly", "1" * 5000 + "x-1", "--p", "7", "--x0", "1", "--k", "2"],
        ["pauli", "normalizer-check", "--matrix", "1" * 5000 + ",0;0,1"],
        # one past the exponent bound, refused before the coefficient list
        ["hensel", "--poly", "x^10001-1", "--p", "7", "--x0", "1", "--k", "2"],
    ],
)
def test_oversized_sqrt_hensel_and_code_refused_fast(argv, json_mode):
    # one process at a time; each refusal must come before the scan or the lift
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", *argv, *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert proc.stderr.startswith("error: ")
    assert elapsed < 2.0


# every command that takes a prime: the largest prime below the primality
# gate, and the gate itself (a strong pseudoprime to all twelve bases)
PRIME_COMMANDS = [
    ["valuation", "3", "--p", "{p}"],
    ["norm", "3", "--p", "{p}"],
    ["expand", "1/3", "--p", "{p}", "--r", "182"],
    ["code", "encode", "2/3", "--p", "{p}", "--r", "8"],
    ["code", "decode", "5", "--p", "{p}", "--r", "180"],
    ["hensel", "--poly", "x^2-1", "--p", "{p}", "--x0", "1", "--k", "181"],
    ["sqrt", "2", "--p", "{p}"],
    ["product-formula", "x+1", "--function-field", "{p}"],
    ["product-formula", "x^2+1", "--function-field", "{p}"],
    ["seminorm-check", "--p", "{p}", "--samples", "5"],
    ["lattice", "check", "--subspace", "{p}", "1"],
]


@pytest.mark.parametrize("argv", PRIME_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_primes_up_to_the_proof_bound_reach_each_command(argv):
    below = [a.format(p=318665857834031151167441) for a in argv]
    code, out, err = run_cli(*below)
    assert code in (0, 3), err
    assert "primality proof bound" not in err  # exit 3 comes from the command's own guard
    code, out, err = run_cli(*[a.format(p=318665857834031151167461) for a in argv])
    assert (code, out) == (3, "")
    assert "primality proof bound" in err


@pytest.mark.parametrize(
    "argv",
    PRIME_COMMANDS[:8]
    + [["seminorm-check", "--p", "{p}"], ["lattice", "check", "--subspace", "{p}", "2"]],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_huge_prime_is_quoted_not_echoed(argv):
    # README: an error message quotes at most the first 40 characters of an input
    for mode in ([], ["--json"]):
        code, out, err = run_cli(*[a.format(p="1" * 4000) for a in argv], *mode)
        assert (code, out) == (3, "")
        assert "... (4000 characters)" in err and len(err) < 300


@pytest.mark.parametrize(
    "argv",
    [
        # 7**5088 < 10**4300 < 7**5089 and 5**6151 < 10**4300 < 5**6152
        ["hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "5088"],
        ["expand", "1/3", "--p", "2", "--r", "14285"],
        ["sqrt", "2", "--p", "7", "--r", "5089"],
        ["code", "encode", "2/3", "--p", "2", "--r", "14285"],
        ["code", "decode", "5", "--p", "2", "--r", "14285"],
        ["code", "add", "1/3", "2/3", "--p", "5", "--r", "6152"],
        ["code", "sub", "1/3", "2/3", "--p", "5", "--r", "6152"],
        ["code", "mul", "1/3", "2/3", "--p", "5", "--r", "6152"],
        ["code", "div", "1/3", "2/3", "--p", "5", "--r", "1000000000"],
    ],
)
def test_unprintable_results_refused_before_any_work(argv, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the print bound must refuse before any lift or code")

    for name in ("hensel_lift", "encode", "decode", "sqrt_padic", "PadicNumber.from_rational"):
        monkeypatch.setattr(f"padiclab.cli.{name}", unreachable)
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert "exceeds 4300 decimal digits" in err


def test_results_at_the_print_bound_still_print():
    # 2**14284 < 10**4300 < 2**14285
    code, out, err = run_cli("code", "encode", "2/3", "--p", "2", "--r", "14284")
    assert code == 0, err
    value = int(out.split()[0])
    assert 3 * value % 2**14284 == 2
    assert len(str(value)) <= 4300
    payload = run_json("code", "encode", "2/3", "--p", "2", "--r", "14284", schema="code")
    assert payload["value"] == value
    payload = run_json("hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "300",
                       schema="hensel")
    assert payload["residues"][-1] ** 2 % 7**301 == 2
    code, out, err = run_cli("expand", "1/3", "--p", "2", "--r", "14284")
    assert code == 0, err
    head, _, tail = out.strip().partition(",")
    assert 3 * int((head + tail)[::-1], 2) % 2**14284 == 1  # digits ascend by power
    assert run_cli("sqrt", "2", "--p", "7", "--r", "5088")[0] == 0


def test_polynomial_exponent_bound():
    assert parse_polynomial("x^10000-1") == (-1,) + (0,) * 9999 + (1,)
    with pytest.raises(ResourceLimitError, match="exponent 10001 exceeds 10000"):
        parse_polynomial("x^10001")


def test_oversized_borel_table_refused_before_any_row(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the order bound must refuse before any summation")

    monkeypatch.setattr("padiclab.cli.borel_sum", unreachable)
    monkeypatch.setattr("padiclab.cli.euler_series_partial", unreachable)
    for argv in (["--t", "1e-6"], ["--t", "1/2", "--order", "501"]):
        code, out, err = run_cli("borel", *argv, "--table")
        assert (code, out) == (3, "")
        assert "series order" in err


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("t", ["1e-99999", "1e-9999999"])
def test_tiny_t_table_refused_before_the_exact_rational(t, json_mode):
    # ceil(1/t) - 1 has over 4300 digits; Fraction("1e-9999999") alone took seconds
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "borel", "--t", t, "--table",
         *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert "series order above the limit 500" in proc.stderr


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("extra", [[], ["--a", "0"]])
@pytest.mark.parametrize("t", ["1e-9999999", "1e-999999999"])
def test_tiny_t_borel_refused_without_wide_ints(t, extra, json_mode):
    # the quadrature's ints stay ~400 bits at any t, and a = 0 skips exp(1/t),
    # so the step check of ode_residual answers at once
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "borel", "--t", t, *extra,
         *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (1, "")
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload == {"error": "need 0 < h < t", "error_code": "domain_error"}
    else:
        assert proc.stderr == "error: need 0 < h < t\n"


@pytest.mark.parametrize("samples, degree", [(101, 4), (1, 500)])
def test_seminorm_work_bound(samples, degree):
    # samples**2 * (degree + 1)**2 just above 250000
    code, out, err = run_cli(
        "seminorm-check", "--samples", str(samples), "--degree", str(degree)
    )
    assert (code, out) == (3, "")
    assert "exceeds 250000" in err


@pytest.mark.parametrize(
    "samples, degree",
    [(166, 0), (144, 1), (121, 2), (87, 4), (1, 498)],
)
def test_seminorm_work_bound_counts_a_per_pair_constant(samples, degree):
    # the largest admitted sample count at each degree, and one more
    cli._check_seminorm_work(samples, degree)
    with pytest.raises(ResourceLimitError, match="exceeds 250000"):
        cli._check_seminorm_work(samples + 1, degree)


def test_seminorm_work_bound_keeps_the_documented_runs():
    for samples in (12, 30, 40):
        cli._check_seminorm_work(samples, 4)


def test_seminorm_check_at_degree_0_stays_desk_scale():
    # the slowest admitted corner: ~0.6 s in process on a 2-vCPU host
    t0 = time.perf_counter()
    code, out, _ = run_cli("seminorm-check", "--samples", "166", "--degree", "0")
    assert time.perf_counter() - t0 < 3.0
    assert (code, out.split()) == (0, ["zero_norm:", "pass", "unit_norm:", "pass",
                                       "multiplicative:", "pass", "triangle:", "pass"])


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("p, value, half", [("997", "x^4+1", 2), ("101", "x^4+1", 2),
                                            ("2", "x^24+x+1", 12)], ids=["997", "101", "2"])
def test_function_field_sieve_refused_before_it_starts(p, value, half, json_mode):
    # x^4+1 needs every irreducible of degree <= 2: p = 101 took 8 s cold and
    # 997 about 10**9 trial divisions, while p**2 passed the old p**d <= 10**6 rule;
    # the sieve is the one bound on factoring, so F_2 admits degree 23 and refuses 24
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "product-formula", value,
         "--function-field", p, *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert f"over F_{p} to degree {half} needs more than 80000 trial divisions" in proc.stderr


def test_function_field_degree_23_irreducible_stays_desk_scale():
    g = "x^23+x^21+x^19+x^18+x^14+x^10+x^8+x^6+x^4+x^3+x^2+x+1"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "padiclab", "product-formula", g,
                           "--function-field", "2"], capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [f"place {g}: |a| = 1/8388608",
                                        "place infinity: |a| = 8388608", "product = 1"]


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("table", [False, True])
def test_huge_t_refused_before_the_quadrature(table, json_mode):
    # every t from 1e64 up climbed to 131072 nodes and failed after ~8 s; --table
    # also built Fraction("1e9999999") for the truncation index
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "borel", "--t", "1e9999999",
         *(["--table"] if table else []), *(["--json"] if json_mode else [])],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(proc.stderr)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert "exceeds the quadrature limit 1e60" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["seminorm-check", "--samples", "0"],
        ["seminorm-check", "--samples", "-1"],
        ["seminorm-check", "--degree", "-1"],
        ["borel", "--t", "1/2", "--table", "--order", "-1"],
    ],
)
def test_empty_or_negative_counts_exit_1(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    code, out, err = run_cli(*argv, "--json")
    assert (code, out) == (1, "")
    payload = json.loads(err)
    load_schema("error").validate(payload)
    assert payload["error_code"] == "domain_error"


@pytest.mark.parametrize(
    "argv",
    [
        ["code", "--json", "encode", "2/3", "--p", "5", "--r", "4"],
        ["pauli", "--json", "mul", "X", "Z"],
        ["lattice", "--json", "check", "--named", "n5"],
    ],
)
def test_group_level_json_is_a_usage_error(argv):
    # --json belongs to the leaf; the groups take no options
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, tolerance",
    [
        (["borel", "--t", "abc"], None),
        (["borel", "--t", "1/2", "--tol", "xyz"], None),
        (["borel", "--t", "1/2", "--a", "q"], None),
        (["borel", "--t", "1/2"], "bad"),
    ],
)
def test_unparsable_real_exits_1(monkeypatch, argv, tolerance):
    if tolerance is not None:
        monkeypatch.setenv("PADICLAB_TOLERANCE", tolerance)
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot parse real ")
    code, out, err = run_cli(*argv, "--json")
    assert (code, out) == (1, "")
    payload = json.loads(err)
    load_schema("error").validate(payload)
    assert payload["error_code"] == "domain_error"


LONG = "1" * 5000


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv, exit_code",
    [
        # past CPython's 4300-digit int-from-str limit: a resource limit
        (["borel", "--t", LONG], 3),
        (["borel", "--t", LONG, "--table"], 3),
        (["borel", "--t", "1/2", "--tol", LONG], 3),
        (["borel", "--t", "1/2", "--a", LONG], 3),
        # malformed and long: a domain error
        (["borel", "--t", "x" * 5000], 1),
        (["valuation", LONG + "x", "--p", "5"], 1),
    ],
)
def test_long_literals_are_quoted_by_a_prefix(argv, exit_code, json_mode):
    code, out, err = run_cli(*argv, *(["--json"] if json_mode else []))
    assert (code, out) == (exit_code, "")
    assert len(err) < 300
    assert "... (5000 characters)" in err or "... (5001 characters)" in err
    if json_mode:
        payload = json.loads(err)
        load_schema("error").validate(payload)
        assert payload["error_code"] == ("resource_limit" if exit_code == 3 else "domain_error")
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["sqrt", LONG, "--p", "7"],
        ["valuation", "3", "--p", LONG],
        ["code", "decode", LONG, "--p", "5"],
        ["hensel", "--poly", "x-1", "--p", "7", "--x0", "1", "--k", LONG],
    ],
)
def test_long_int_arguments_are_short_usage_errors(argv, json_mode):
    code, err = run_usage_error(*argv, *(["--json"] if json_mode else []))
    assert code == 2
    assert len(err.encode()) < 300
    assert "invalid int value: '1111" in err and "... (5000 characters)" in err


def test_bad_int_arguments_keep_the_argparse_message():
    code, err = run_usage_error("valuation", "3", "--p", "abc")
    assert code == 2
    assert err.endswith("error: argument --p: invalid int value: 'abc'\n")


def test_hensel_output_bound_refuses_before_any_lift(monkeypatch):
    # 2**14284 < 10**4300, so every residue prints, but x_0..x_14283 total ~31M digits
    def unreachable(*args, **kwargs):
        raise AssertionError("the output bound must refuse before any lift")

    monkeypatch.setattr("padiclab.cli.hensel_lift", unreachable)
    argv = ["hensel", "--poly", "x^2+x+2", "--p", "2", "--x0", "0", "--k", "14283"]
    t0 = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (3, "")
    assert f"would print over {cli._HENSEL_DIGITS} digits" in err
    code, out, err = run_cli(*argv, "--json")
    assert (code, out) == (3, "")
    assert json.loads(err)["error_code"] == "resource_limit"


@pytest.mark.parametrize("json_mode", [False, True])
def test_hensel_lift_work_refused_before_any_lift(monkeypatch, json_mode):
    # 10001 Horner terms mod 7**2663: a Newton lift of ~5 s, past the work bound
    def unreachable(*args, **kwargs):
        raise AssertionError("the work bound must refuse before any lift")

    for name in ("_lift_newton", "_lift_linear", "_poly_eval"):
        monkeypatch.setattr(f"padiclab.hensel.{name}", unreachable)
    argv = ["hensel", "--poly", "x^10000+x+5", "--p", "7", "--x0", "1", "--k", "2662"]
    t0 = time.perf_counter()
    code, out, err = run_cli(*argv, *(["--json"] if json_mode else []))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    assert len(err.strip().splitlines()) == 1
    if json_mode:
        payload = json.loads(err)
        load_schema("error").validate(payload)
        assert payload["error_code"] == "resource_limit"
    else:
        assert "work units" in err


def test_hensel_newton_lift_admits_the_old_digit_refusal_cold():
    # the digit-lift model refused this; Newton lifts it in ~0.1 s
    argv = ["hensel", "--poly", "x^10000+x+2", "--p", "2", "--x0", "0", "--k", "800", "--json"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "padiclab", *argv],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 0, proc.stderr
    root = json.loads(proc.stdout)["residues"][-1]
    assert (root**10000 + root + 2) % 2**801 == 0


def _lift_work(p: int, k: int) -> int:
    # all Newton steps together cost under twice the last one, mod p**(k+1)
    return (len(bin(p ** (k + 1))) - 2 + 256) ** 2


@pytest.mark.parametrize(
    "p, k",
    [(2, 4461), (7, 400), (101, 100), (4294967291, 20), (7, 2662), (101, 1300), (4294967291, 440)],
)
def test_hensel_work_bound_admits_up_to_its_constant(p, k):
    terms = hensel._LIFT_WORK // _lift_work(p, k) - 16
    hensel._check_lift_work(p, k, terms)
    with pytest.raises(ResourceLimitError, match="work units"):
        hensel._check_lift_work(p, k, terms + 1)


def test_hensel_work_bound_keeps_quadratics_at_the_output_bound():
    # the largest k the output bound admits still lifts a quadratic
    for p, k in [(2, 4461), (3, 3543), (7, 2662)]:
        hensel._check_lift_work(p, k, 3)


@pytest.mark.parametrize("p, k", [(2, 4461), (3, 3543), (7, 2662)])
def test_hensel_output_bound_counts_residue_digits(p, k):
    # the largest admitted k: sum over i <= k of digits(p**(i+1)) fits the bound
    total = sum(len(str(p ** (i + 1))) for i in range(k + 1))
    assert total <= cli._HENSEL_DIGITS < total + len(str(p ** (k + 2)))
    cli._check_hensel_output(p, k)
    with pytest.raises(ResourceLimitError):
        cli._check_hensel_output(p, k + 1)


def test_negative_rational_needs_separator():
    code, out, _ = run_cli("valuation", "--p", "2", "--", "-8")
    assert code == 0
    assert out == "3\n"


def test_nonzero_required_by_product_formula():
    code, _, err = run_cli("product-formula", "0", "--json")
    assert code == 1
    assert json.loads(err)["error_code"] == "domain_error"


# ---------------------------------------------------------------------------
# Environment overrides and determinism
# ---------------------------------------------------------------------------


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("PADICLAB_PRECISION", "4")
    # main reads the environment on every call
    code, out, _ = run_cli("expand", "1/3", "--p", "5")
    assert code == 0
    assert out == "2,313\n"


def test_malformed_precision_env_falls_back(monkeypatch):
    monkeypatch.setenv("PADICLAB_PRECISION", "not-a-number")
    code, out, _ = run_cli("expand", "1/3", "--p", "5")
    assert code == 0
    assert out == "2,3131313\n"  # default eight digits


def test_env_defaults_are_read_on_every_call(monkeypatch):
    monkeypatch.setenv("PADICLAB_PRECISION", "4")
    assert run_cli("expand", "1/3", "--p", "5")[1] == "2,313\n"
    monkeypatch.delenv("PADICLAB_PRECISION")
    assert run_cli("expand", "1/3", "--p", "5")[1] == "2,3131313\n"
    loose = run_cli("borel", "--t", "1/2", "--tol", "1e-3")
    default = run_cli("borel", "--t", "1/2", "--tol", "1e-10")
    assert loose != default
    monkeypatch.setenv("PADICLAB_TOLERANCE", "1e-3")
    assert run_cli("borel", "--t", "1/2") == loose
    monkeypatch.delenv("PADICLAB_TOLERANCE")
    assert run_cli("borel", "--t", "1/2") == default


def test_json_output_is_byte_deterministic():
    runs = {run_cli("borel", "--t", "1/2", "--json")[1] for _ in range(3)}
    assert len(runs) == 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "expand", "216", "--p", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,331\n"


# ---------------------------------------------------------------------------
# The parser surface
# ---------------------------------------------------------------------------

# leaf path -> (option strings other than -h/--help, positional dests)
LEAVES = {
    ("expand",): ({"--json", "--p", "--r"}, ["value"]),
    ("valuation",): ({"--json", "--p"}, ["value"]),
    ("norm",): ({"--json", "--p", "--archimedean"}, ["value"]),
    ("hensel",): ({"--json", "--p", "--poly", "--x0", "--k"}, []),
    ("sqrt",): ({"--json", "--p", "--r"}, ["a"]),
    ("product-formula",): ({"--json", "--function-field"}, ["value"]),
    ("code", "encode"): ({"--json", "--p", "--r"}, ["x"]),
    ("code", "decode"): ({"--json", "--p", "--r"}, ["value"]),
    ("code", "add"): ({"--json", "--p", "--r"}, ["x", "y"]),
    ("code", "sub"): ({"--json", "--p", "--r"}, ["x", "y"]),
    ("code", "mul"): ({"--json", "--p", "--r"}, ["x", "y"]),
    ("code", "div"): ({"--json", "--p", "--r"}, ["x", "y"]),
    ("pauli", "mul"): ({"--json"}, ["x", "y"]),
    ("pauli", "order"): ({"--json", "--n"}, []),
    ("pauli", "basis-check"): ({"--json", "--n"}, []),
    ("pauli", "normalizer-check"): ({"--json", "--matrix"}, []),
    ("lattice", "check"): ({"--json", "--subspace", "--named", "--k"}, []),
    ("borel",): ({"--json", "--t", "--order", "--a", "--tol", "--table"}, []),
    ("seminorm-check",): ({"--json", "--p", "--samples", "--degree", "--seed"}, []),
}
# group path -> dest of its subcommand choice; groups take no options
GROUPS = {(): "command", ("code",): "code_op", ("pauli",): "pauli_op",
          ("lattice",): "lattice_op"}


def walk_parsers(parser, path=()):
    """Yield (path, parser, subcommand action or None) for every parser in the tree."""
    subs = next(
        (a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None
    )
    yield path, parser, subs
    if subs is not None:
        for name, child in subs.choices.items():
            yield from walk_parsers(child, path + (name,))


def test_three_main_calls_build_the_parser_tree_once(monkeypatch):
    cli._parser_tree.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
    )
    counts = []
    for _ in range(3):
        assert run_cli("valuation", "63/550", "--p", "5")[:2] == (0, "-2\n")
        counts.append(len(built))
    assert counts[0] >= len(LEAVES) + len(GROUPS)
    assert counts == [counts[0]] * 3
    assert cli._parser_tree.cache_info().misses == 1


def test_usage_error_then_good_request_in_one_process():
    good = run_cli("code", "encode", "2/3", "--p", "5", "--r", "4")
    assert good == (0, "209 digits=[4, 1, 3, 1]\n", "")
    assert run_usage_error("code", "--json", "encode", "2/3", "--p", "5", "--r", "4")[0] == 2
    assert run_cli("code", "encode", "2/3", "--p", "5", "--r", "4") == good


def test_a_patched_parser_does_not_reach_the_next_main(monkeypatch):
    parser = build_parser()
    parser.parse_args = lambda argv=None: pytest.fail("a patched parser reached main")
    assert run_cli("valuation", "0", "--p", "7")[:2] == (0, "infinity\n")
    # wrapping each built parser, as a tracer does, wraps it once per request
    calls = []
    build = cli.build_parser

    def wrapped_build():
        parser = build()
        parse = parser.parse_args
        parser.parse_args = lambda argv=None: calls.append(argv) or parse(argv)
        return parser

    monkeypatch.setattr(cli, "build_parser", wrapped_build)
    for _ in range(3):
        assert run_cli("valuation", "0", "--p", "7")[:2] == (0, "infinity\n")
    assert len(calls) == 3


def test_cli_surface_is_pinned():
    leaves, groups = {}, {}
    for path, parser, subs in walk_parsers(build_parser()):
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        if subs is None:
            positionals = [a.dest for a in parser._actions if not a.option_strings]
            leaves[path] = (options, positionals)
            json_flag = parser._option_string_actions["--json"]
            assert isinstance(json_flag, argparse._StoreTrueAction), path
        else:
            groups[path] = subs.dest
            assert options == set(), path
    assert leaves == LEAVES
    assert groups == GROUPS


# ---------------------------------------------------------------------------
# One-level parse: a leaf request is parsed by its leaf parser alone
# ---------------------------------------------------------------------------

with open(Path(__file__).resolve().parent.parent / "perfbench" / "golden.json") as fh:
    GOLDEN_ARGV = [r["argv"] for r in json.load(fh)]  # the demo requests and the refusals
# help and usage errors, which take argparse's own walk, and the ``--`` forms
USAGE_ARGV = [
    [], ["-h"], ["code"], ["code", "-h"], ["code", "add"],
    ["code", "--json", "encode", "1", "--p", "5"], ["valuation", "3"],
    ["valuation", "3", "--p", "5", "extra"], ["bogus"], ["--json", "valuation", "3", "--p", "5"],
    ["lattice", "check", "--named", "x"], ["pauli", "order", "--n", "2", "-h"],
]
SEPARATOR_ARGV = [
    ["norm", "--archimedean", "--", "-3/4"], ["product-formula", "--json", "--", "-24/17"],
]


def one_request(argv):
    """(parsed namespace or None, exit code, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parsed = vars(build_parser().parse_args(argv))
            code = main(list(argv))
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()
    return parsed, code, out.getvalue(), err.getvalue()


def test_the_equivalence_argv_name_every_leaf():
    # LEAVES is every leaf of the tree (test_cli_surface_is_pinned)
    assert set(LEAVES) <= {tuple(argv[:len(path)]) for argv in GOLDEN_ARGV for path in LEAVES}


@pytest.mark.parametrize(
    "argv", GOLDEN_ARGV + USAGE_ARGV + SEPARATOR_ARGV, ids=lambda argv: " ".join(argv) or "-"
)
def test_one_level_parse_matches_the_argparse_walk(argv, monkeypatch):
    for name in ("PADICLAB_PRECISION", "PADICLAB_TOLERANCE"):
        monkeypatch.delenv(name, raising=False)
    fast = one_request(argv)
    monkeypatch.setattr(cli._Parser, "parse_known_args", argparse.ArgumentParser.parse_known_args)
    assert one_request(argv) == fast


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=" ".join)
def test_a_leaf_request_is_parsed_once(argv, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser._parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "_parse_known_args",
        lambda self, *args, **kwargs: calls.append(self.prog) or parse(self, *args, **kwargs),
    )
    build_parser().parse_args(argv)
    (prog,) = calls  # argparse's walk parses at every level: 2 calls for a top leaf, 3 below
    path = prog.split()[1:]
    assert tuple(path) in LEAVES and argv[:len(path)] == path


def test_a_usage_error_in_a_fresh_process_reads_sys_argv():
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab", "code"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: padiclab code")


@pytest.mark.parametrize(
    "text, re, im",
    [("2", 2, 0), ("-1/2", Fraction(-1, 2), 0), ("i", 0, 1), ("+i", 0, 1), ("-i", 0, -1),
     ("3+i", 3, 1), ("3-i", 3, -1), ("4/5i", 0, Fraction(4, 5)), ("-4/5i", 0, Fraction(-4, 5)),
     ("3/5+4/5i", Fraction(3, 5), Fraction(4, 5)), ("1 - 2i", 1, -2)],
)
def test_a_matrix_entry_parses_to_its_gaussian_rational(text, re, im):
    z = parse_gaussian(text)
    assert z == GaussianRational(re, im)
    assert str(z) == text.replace(" ", "").lstrip("+")
