"""Write golden.json: the CLI requests and their expected outcomes.

Run once from the repository root on the tree whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

It runs every ``scripts/demo.py`` command in text and ``--json`` mode,
plus the expected-error requests below, through ``padiclab.cli.main``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# argv -> expected exit code: 3 is a guard refusal, 1 a domain error
ERRORS = (
    (["pauli", "order", "--n", "3"], 3),
    (["lattice", "check", "--named", "boolean", "--k", "15"], 3),
    (["valuation", "1/0", "--p", "5"], 1),
    (["expand", "1/5", "--p", "5"], 1),
    (["hensel", "--poly", "x^2-2", "--p", "7", "--x0", "2", "--k", "3"], 1),
)


def with_mode(argv, mode):
    # flags must precede the `--` end-of-options marker
    if "--" in argv:
        cut = argv.index("--")
        return argv[:cut] + mode + argv[cut:]
    return argv + mode


def schema_for(argv) -> str:
    if argv[0] == "code":
        return "code-decode" if argv[1] == "decode" else "code"
    if argv[0] == "pauli":
        return f"pauli-{argv[1]}"
    if argv[0] == "lattice":
        return "lattice-check"
    if argv[0] == "borel" and "--table" in argv:
        return "borel-table"
    return argv[0]


def main() -> int:
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.path.insert(0, str(HERE))
    from cli_requests import run_warm
    from demo import COMMANDS

    cases = [(argv, 0) for argv in COMMANDS] + list(ERRORS)
    requests = []
    for argv, want in cases:
        for mode in ([], ["--json"]):
            full = with_mode(argv, mode)
            code, out, _ = run_warm(full)
            if code != want:
                print(f"{full}: exit {code}, expected {want}", file=sys.stderr)
                return 1
            requests.append(
                {
                    "argv": full,
                    "exit": code,
                    "json": bool(mode),
                    "schema": schema_for(argv) if mode and code == 0 else None,
                    "stdout": out if not mode and code == 0 else None,
                }
            )
    with open(HERE / "golden.json", "w") as fh:
        json.dump(requests, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
