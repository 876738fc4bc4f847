"""Requests of the ``cli_cold`` and ``cli_warm`` workloads and their checks.

``golden.json`` lists every ``scripts/demo.py`` command in text and
``--json`` mode, plus a few requests that must fail, each with the exit
code, text-mode stdout and JSON schema captured from the seed tree by
``make_golden.py``.  The benchmark never reads ``scripts/demo.py`` itself,
so a later edit there cannot change what is measured.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_requests(workload: str) -> list[dict]:
    with open(HERE / "golden.json") as fh:
        requests = json.load(fh)
    # the refusals and domain errors time the error path in-process only
    return [r for r in requests if workload == "cli_warm" or r["exit"] == 0]


def run_warm(argv):
    """One in-process ``padiclab.cli.main(argv)`` call: (exit, stdout, stderr)."""
    from padiclab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cold_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PADICLAB_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cold(argv, root: Path, env: dict, flags=()):
    """One fresh ``python -m padiclab`` process: (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "padiclab", *argv],
        capture_output=True,
        cwd=root,
        env=env,
        timeout=60,
        encoding="utf-8",
    )
    return proc.returncode, proc.stdout, proc.stderr


class Checker:
    """Exit code, then schema (``--json``) or seed bytes (text), per request."""

    def __init__(self, root: Path):
        self.schema_dir = root / "schemas" / "v1"
        self.validators = {}

    def _valid(self, schema: str, text: str) -> bool:
        from jsonschema import Draft202012Validator

        if schema not in self.validators:
            with open(self.schema_dir / f"{schema}.schema.json") as fh:
                self.validators[schema] = Draft202012Validator(json.load(fh))
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        return self.validators[schema].is_valid(payload)

    def __call__(self, request: dict, outcome) -> bool:
        code, out, err = outcome
        if code != request["exit"]:
            return False
        if code != 0:
            if out:
                return False
            if request["json"]:
                return self._valid("error", err)
            return err.startswith("error: ")
        if request["json"]:
            return self._valid(request["schema"], out)
        return out == request["stdout"]
