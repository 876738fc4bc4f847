"""The text output of every ``scripts/demo.py`` command, against ``perfbench/golden.json``.

``golden.json`` holds each demo command's exit code and text-mode stdout as
captured by ``perfbench/make_golden.py``; the file is only read here.  A change
that alters demo output on purpose regenerates it in the same commit.
"""

from __future__ import annotations

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from padiclab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _demo_commands() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("demo", ROOT / "scripts" / "demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo.COMMANDS


COMMANDS = _demo_commands()
with open(ROOT / "perfbench" / "golden.json") as fh:
    GOLDEN = {tuple(r["argv"]): r for r in json.load(fh) if not r["json"]}


def test_every_demo_command_has_a_golden_entry():
    demo = {tuple(argv) for argv in COMMANDS}
    assert demo == {argv for argv, r in GOLDEN.items() if r["exit"] == 0}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_demo_text_output_matches_golden(argv, monkeypatch):
    for name in ("PADICLAB_PRECISION", "PADICLAB_TOLERANCE"):
        monkeypatch.delenv(name, raising=False)
    want = GOLDEN[tuple(argv)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert (code, out.getvalue()) == (want["exit"], want["stdout"])
