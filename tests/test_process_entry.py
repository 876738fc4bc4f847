"""The process boundary: every way padiclab starts keeps the output contract.

Four entries start a process: the ``padiclab`` console script, ``python -m
padiclab``, ``python -m padiclab.cli`` and ``scripts/demo.py``.  Each goes
through ``cli.entry``, so in a fresh process each one writes UTF-8 whatever
``PYTHONIOENCODING`` says, and a stdout that cannot be written (a pipe closed
early, a full disk, a closed descriptor) ends in exit 1 and one stderr line,
with no traceback and nothing from the interpreter's flush at exit.  About
1 MB of output fails inside the request's ``print``; a short output fails at
``entry``'s final flush, or inside ``print`` under ``PYTHONUNBUFFERED``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from test_demo_golden import COMMANDS, GOLDEN

ROOT = Path(__file__).resolve().parent.parent
DEVFULL = Path("/dev/full")
HENSEL = ["hensel", "--poly", "x^2-2", "--p", "7", "--x0", "3"]
BIG = [*HENSEL, "--k", "1500"]  # about 1 MB of text, past any pipe buffer


def _console_script() -> list[str]:
    """What the installed ``padiclab`` script runs: its pyproject.toml target, called."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^padiclab = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


ENTRIES = {
    "console-script": _console_script(),
    "-m padiclab": [sys.executable, "-m", "padiclab"],
    "-m padiclab.cli": [sys.executable, "-m", "padiclab.cli"],
}
DEMO = [sys.executable, str(ROOT / "scripts" / "demo.py")]


def _env(**extra) -> dict:
    """The test's environment, buffered and with no IO encoding or padiclab defaults set."""
    drop = ("PADICLAB_", "PYTHONIOENCODING", "PYTHONUNBUFFERED")
    return {**{k: v for k, v in os.environ.items() if not k.startswith(drop)}, **extra}


def _closed_after_10_bytes(argv, env):
    """(exit, first 10 stdout bytes, stderr) of ``argv`` into a pipe closed after 10 bytes."""
    read_fd, write_fd = os.pipe()
    try:
        import fcntl

        # a one-page pipe fills before the demo's ~11 kB are written, so the
        # close always meets a write still to come
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    except (ImportError, AttributeError, OSError):
        pass
    proc = subprocess.Popen(argv, stdout=write_fd, stderr=subprocess.PIPE, cwd=ROOT, env=env)
    os.close(write_fd)
    head = b""
    while len(head) < 10 and (chunk := os.read(read_fd, 10 - len(head))):
        head += chunk
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, head, err


def _into_dev_full(argv, env):
    with DEVFULL.open("wb") as sink:
        proc = subprocess.run(argv, stdout=sink, stderr=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=120)
    return proc.returncode, b"", proc.stderr


def _into_closed_stdout(argv, env):
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, cwd=ROOT, env=env, timeout=120)
    return proc.returncode, b"", proc.stderr


def _error_line(err: bytes, json_mode: bool, reason: str) -> None:
    """exactly one stderr line: the output error, as text or as a schema-valid object."""
    text = err.decode("utf-8")
    assert "Traceback" not in text and "Exception ignored" not in text, text
    assert text.count("\n") == 1 and text.endswith("\n"), text
    if json_mode:
        with open(ROOT / "schemas" / "v1" / "error.schema.json") as fh:
            Draft202012Validator(json.load(fh)).validate(payload := json.loads(text))
        assert payload == {"error": f"cannot write stdout: {reason}", "error_code": "output_error"}
    else:
        assert text == f"error: cannot write stdout: {reason}\n"


SINKS = {"pipe closed after 10 bytes": (_closed_after_10_bytes, "Broken pipe")}
if DEVFULL.exists():
    SINKS["/dev/full"] = (_into_dev_full, "No space left on device")
if os.name == "posix":
    SINKS["stdout closed"] = (_into_closed_stdout, "Bad file descriptor")


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_failed_write_ends_in_one_error_line(entry, sink, json_mode):
    write, reason = SINKS[sink]
    argv = [*ENTRIES[entry], *BIG, *(["--json"] if json_mode else [])]
    code, head, err = write(argv, _env())
    _error_line(err, json_mode, reason)
    assert code == 1
    if sink.startswith("pipe"):
        assert head == (b'{"digits":' if json_mode else b"x_0 = 3 (m")


@pytest.mark.skipif(not DEVFULL.exists(), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, json_mode",
    [(["valuation", "3", "--p", "5"], False), (["valuation", "3", "--p", "5", "--json"], True),
     (["-h"], False)],
    ids=["text", "json", "help"],
)
def test_a_short_output_into_a_full_disk_ends_in_one_error_line(argv, json_mode, unbuffered):
    # buffered, the write fails at the final flush (argparse exits 0 after the help);
    # unbuffered, inside print
    extra = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    code, _, err = _into_dev_full([*ENTRIES["-m padiclab"], *argv], _env(**extra))
    if unbuffered and argv == ["-h"]:
        # argparse's own help printer drops a failed write and exits 0
        assert (code, err) == (0, b"")
        return
    _error_line(err, json_mode, "No space left on device")
    assert code == 1


@pytest.mark.parametrize("sink", SINKS)
def test_a_failed_write_ends_the_demo_in_one_error_line(sink):
    write, reason = SINKS[sink]
    code, head, err = write(DEMO, _env())
    _error_line(err, False, reason)
    assert code == 1
    if sink.startswith("pipe"):
        assert head == b"$ padiclab"


def _demo_sections(out: bytes) -> dict[str, bytes]:
    """``$ padiclab <argv>`` header -> the bytes the demo printed under it."""
    parts = re.split(rb"^\$ padiclab (.*)\n", out, flags=re.M)
    assert parts[0] == b""
    return {head.decode("utf-8"): body for head, body in zip(parts[1::2], parts[2::2])}


def test_demo_writes_utf8_under_every_io_encoding():
    runs = {}
    for encoding in ("utf-8", "ascii", "cp1252", "latin-1"):
        proc = subprocess.run(DEMO, capture_output=True, cwd=ROOT, timeout=120,
                              env=_env(PYTHONIOENCODING=encoding))
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode("utf-8")
        runs[encoding] = proc.stdout
    assert all(out == runs["utf-8"] for out in runs.values())
    sections = _demo_sections(runs["utf-8"])
    assert len(sections) == 2 * len(COMMANDS)
    for argv in COMMANDS:
        assert sections[" ".join(argv)] == GOLDEN[tuple(argv)]["stdout"].encode("utf-8")


def _under_each_io_encoding(argv) -> tuple[int, bytes, bytes]:
    """(exit, stdout, stderr) of ``argv``, the same under UTF-8, ASCII and cp1252."""
    outcomes = set()
    for encoding in ("utf-8", "ascii", "cp1252"):
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=60,
                              env=_env(PYTHONIOENCODING=encoding))
        outcomes.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(outcomes) == 1
    return outcomes.pop()


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_writes_utf8_under_every_io_encoding(entry):
    code, out, err = _under_each_io_encoding([*ENTRIES[entry], *HENSEL, "--k", "4"])
    assert (code, err) == (0, b"")
    assert out.decode("utf-8").endswith(" + 7⁴·1\n")


def test_an_error_line_is_utf8_under_every_io_encoding():
    argv = ["hensel", "--poly", "x²-2", "--p", "7", "--x0", "3", "--k", "4"]
    code, out, err = _under_each_io_encoding([*ENTRIES["-m padiclab"], *argv])
    assert (code, out) == (1, b"")
    assert err.decode("utf-8") == "error: cannot parse polynomial term 'x²'\n"
