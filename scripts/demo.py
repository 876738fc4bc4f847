"""Run every padiclab subcommand once, in a fixed order, and print the output.

Used as the CLI determinism check: two runs of this script must produce
byte-identical stdout.  Keep everything here seeded / constant — no wall-clock,
no unordered iteration, no machine-specific paths.
"""

from __future__ import annotations

import sys

from padiclab.cli import entry, main

COMMANDS: list[list[str]] = [
    ["expand", "216", "--p", "2"],
    ["expand", "216", "--p", "3"],
    ["expand", "216", "--p", "5"],
    ["expand", "1/3", "--p", "5", "--r", "4"],
    ["valuation", "63/550", "--p", "5"],
    ["valuation", "0", "--p", "7"],
    ["norm", "63/550", "--p", "11"],
    ["norm", "63/550", "--archimedean"],
    ["hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3", "--k", "2"],
    ["sqrt", "2", "--p", "7", "--r", "2"],
    ["product-formula", "63/550"],
    ["product-formula", "--", "-24/17"],
    ["product-formula", "(x^3+x)/(x+1)", "--function-field", "2"],
    ["code", "encode", "2/3", "--p", "5", "--r", "4"],
    ["code", "decode", "417", "--p", "5", "--r", "4"],
    ["code", "add", "2/3", "1/2", "--p", "5", "--r", "4"],
    ["code", "sub", "2/3", "1/2", "--p", "5", "--r", "4"],
    ["code", "mul", "2/3", "3", "--p", "5", "--r", "4"],
    ["code", "div", "2/3", "2", "--p", "5", "--r", "4"],
    ["pauli", "mul", "X", "Z"],
    ["pauli", "mul", "XY", "YX"],
    ["pauli", "order", "--n", "1"],
    ["pauli", "order", "--n", "2"],
    ["pauli", "basis-check"],
    ["pauli", "normalizer-check", "--matrix", "1,1;1,-1"],
    ["pauli", "normalizer-check", "--matrix", "1,0;0,i"],
    ["lattice", "check", "--named", "n5"],
    ["lattice", "check", "--named", "m3"],
    ["lattice", "check", "--named", "boolean", "--k", "3"],
    ["lattice", "check", "--named", "chain", "--k", "4"],
    ["lattice", "check", "--subspace", "2", "2"],
    ["lattice", "check", "--subspace", "3", "2"],
    ["borel", "--t", "1/10"],
    ["borel", "--t", "1/2"],
    ["borel", "--t", "1"],
    ["borel", "--t", "1/2", "--a", "1"],
    ["borel", "--t", "1/10", "--order", "9"],
    ["borel", "--t", "1/10", "--table", "--order", "12"],
    ["seminorm-check", "--p", "3", "--samples", "12", "--seed", "7"],
]


def run() -> int:
    for argv in COMMANDS:
        for mode in ([], ["--json"]):
            if "--" in argv:
                # flags must precede the `--` end-of-options marker
                cut = argv.index("--")
                full = argv[:cut] + mode + argv[cut:]
            else:
                full = argv + mode
            print(f"$ padiclab {' '.join(full)}")
            code = main(full)
            if code != 0:
                print(f"exit status {code}", file=sys.stderr)
                return code
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(entry(run))
