"""padiclab benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload cli_warm --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload in turn.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the machine facts
and every metric by name, value and unit.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "cli_warm", "library_bulk")
# worker starts per run; set-up time is their median
SETUPS = 3
# a run must end well inside the 180 s a benchmark run may take
DEADLINE_S = 170


def machine_facts() -> dict:
    try:
        mpmath = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def start_worker(args, workload, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    # a worker still running at the deadline is killed; its pipes then close
    timer = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    timer.start()
    return proc, timer


def run_workload(args, workload, deadline) -> dict:
    setups = []
    for n in range(SETUPS):
        t0 = perf_counter()
        proc, timer = start_worker(args, workload, deadline)
        try:
            ready = proc.stdout.readline()
            setups.append(perf_counter() - t0)
            if ready.strip() != "READY":
                raise RuntimeError(f"{workload} worker did not start")
            last = n == SETUPS - 1
            proc.stdin.write("go\n" if last else "exit\n")
            proc.stdin.close()
            out = proc.stdout.read() if last else ""
        finally:
            proc.wait()
            timer.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return result


def print_result(workload, result, trace):
    attempted, failed = result["attempted"], result["failed"]
    rows = dict(result["metrics"])
    if not trace:
        rows["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in rows.items():
        print(f"{workload:13s} {name:50s} {value:16.6f} {unit}")
    if "samples" in result:
        print(f"{workload:13s} {'samples (latency)':50s} {result['samples']:16d} count")
    for kind, share in result.get("shares", {}).items():
        print(f"{workload:13s} share of request time: {kind:27s} {share:16.4f}")
    for line in result.get("report", []):
        print(f"{workload:13s} {line}")
    for name, ms in result.get("self_time_ms", {}).items():
        print(f"{workload:13s} self time {name:40s} {ms:16.3f} ms")
    for error in result["errors"]:
        print(f"{workload:13s} FAILED {error}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src" / "padiclab" / "cli.py", ROOT / "schemas" / "v1"]
    if args.trace:
        needed.append(ROOT / "tests" / "test_acceptance.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"run.py: not a padiclab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    print("facts " + json.dumps(machine_facts()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = monotonic() + DEADLINE_S * len(workloads)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(args, workload, deadline)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        print_result(workload, results[workload], args.trace)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
