"""One benchmark worker: set up a workload, then measure it when told to.

Started by ``run.py``.  Set-up is everything before the first timed
request: interpreter start, imports, input generation and an untimed
warm-up (see ``Workload.warm_up``).  The worker then prints ``READY`` and reads one line from
stdin: ``exit`` ends it (a set-up-only start), ``go`` runs the timed loop
and prints one JSON line of results.

The loop is closed, with one client: the next request is sent when the
previous one returns.  Each request's outcome is checked outside its timed
interval, and the time spent checking is excluded from the measured span.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cli_requests  # noqa: E402

# library_bulk inputs: this many distinct passes, reused in turn
POOL_PASSES = 6
# at least ten samples beyond the 90th percentile
MIN_REQUESTS = 100
PROBES = 7
OVERHEAD_SEGMENTS = 5
# subcommands whose second word selects the operation
_GROUPS = ("code", "pauli", "lattice")
IMPORT_MODULES = (
    "cli", "padic_core", "valuations_product", "hensel",
    "hensel_codes", "quantum_logic", "resurgence",
)


class Outcomes:
    """Checks the first outcome for each input; repeats must match it."""

    def __init__(self, check):
        self.check = check
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, key, request, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            ok = False
            self._note(key, f"raised {outcome!r}")
        elif key in self.seen:
            first_ok, fingerprint = self.seen[key]
            ok = first_ok and hash(outcome) == fingerprint
            if first_ok and not ok:
                self._note(key, "differs from its first outcome")
        else:
            try:
                ok = bool(self.check(request, outcome))
            except Exception as exc:  # a checker crash is a failed request
                ok = False
                self._note(key, f"check raised {exc!r}")
            else:
                if not ok:
                    self._note(key, "failed its check")
            self.seen[key] = (ok, hash(outcome))
        self.failed += not ok

    def _note(self, key, what):
        if len(self.errors) < 10:
            self.errors.append(f"{key}: {what}")


def measure(stream, execute, outcomes, seconds, min_requests=1, tracer=None, label=None):
    """Run requests from ``stream`` for ``seconds`` of timed work.

    Returns the per-request latencies (ms), their sums per request kind
    (the first part of a tuple key) and the timed seconds.  Latencies are
    kept in a flat array so that the benchmark's own memory stays small
    and does not grow with the request rate.  With a tracer, spans of the
    i-th request carry the id ``(label, i)``.
    """
    latencies = array("d")
    by_kind = defaultdict(float)
    budget = seconds * 1e9
    start = perf_counter_ns()
    excluded = 0
    for key, request in stream:
        if perf_counter_ns() - start - excluded >= budget and len(latencies) >= min_requests:
            break
        if tracer is not None:
            tracer.request = (label, len(latencies))
            tracer.enabled = True
        t0 = perf_counter_ns()
        try:
            outcome = execute(request)
        except Exception as exc:  # counted as a failed request
            outcome = exc
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.enabled = False
        latencies.append((t1 - t0) / 1e6)
        by_kind[key[0] if isinstance(key, tuple) else None] += latencies[-1]
        outcomes.add(key, request, outcome)
        excluded += perf_counter_ns() - t1
    return latencies, by_kind, (perf_counter_ns() - start - excluded) / 1e9


def passes(pool, rng, limit=None):
    """Endless (or ``limit``) passes, taking the lists of ``pool`` in turn.

    Each pass is freshly shuffled, so its order differs on every pass.
    """
    n = 0
    while limit is None or n < limit:
        order = list(pool[n % len(pool)])
        rng.shuffle(order)
        yield from order
        n += 1


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs, executor and checker of one workload, built during set-up."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        if name == "library_bulk":
            import library

            pool = library.make_pool(self.rng, POOL_PASSES)
            self.pool = [[((k.name, i), (k, inp)) for k, i, inp in p] for p in pool]
            self.execute = self._run_library
            self.check = lambda request, result: request[0].check(request[1], result)
        else:
            requests = cli_requests.load_requests(name)
            self.pool = [list(enumerate(requests))]
            self.check = cli_requests.Checker(ROOT)
            if name == "cli_warm":
                self.execute = lambda request: cli_requests.run_warm(request["argv"])
            else:
                env = cli_requests.cold_env(ROOT)
                self.execute = lambda request: _strip_importtime(
                    cli_requests.run_cold(request["argv"], ROOT, env, self.cold_flags)
                )
        self.cold_flags = ()
        self.tracer = None

    def _run_library(self, request):
        kind, inp = request
        if self.tracer is None:
            return kind.run(inp)
        return self.tracer.span(f"req.{kind.name}", kind.run, inp)

    def warm_up(self):
        requests = self.pool[0]
        if self.name == "cli_cold":
            # one text-mode process per subcommand compiles the .pyc files
            # and reads every module into the page cache; a whole pass of
            # cold processes would only repeat that at 12 s per set-up
            first = {}
            for key, request in requests:
                family = tuple(request["argv"][:2 if request["argv"][0] in _GROUPS else 1])
                if not request["json"]:
                    first.setdefault(family, (key, request))
            requests = list(first.values())
        for _, request in requests:
            self.execute(request)


def _strip_importtime(outcome):
    code, out, err = outcome
    err = "".join(l for l in err.splitlines(True) if not l.startswith("import time:"))
    return code, out, err


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(work: Workload, seconds: float) -> dict:
    outcomes = Outcomes(work.check)
    values, by_kind, timed = measure(
        passes(work.pool, work.rng), work.execute, outcomes, seconds, MIN_REQUESTS
    )
    who = resource.RUSAGE_CHILDREN if work.name == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "errors": outcomes.errors,
        "metrics": {
            "req_per_s": (len(values) / timed, "1/s"),
            "latency_p50_ms": (statistics.median(values), "ms"),
            "latency_p90_ms": (_quantile(values, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        },
        "samples": len(values),
    }
    if work.name == "library_bulk":
        total = sum(by_kind.values())
        result["shares"] = {k: round(v / total, 4) for k, v in sorted(by_kind.items())}
    return result


# -- traced run ----------------------------------------------------------------


def startup_probes() -> dict:
    """Bare interpreter start, and ``-X importtime`` of what ``-m padiclab`` imports."""
    env = cli_requests.cold_env(ROOT)
    bare, imports = [], defaultdict(list)
    for _ in range(PROBES):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((perf_counter_ns() - t0) / 1e6)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import padiclab.__main__"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                own, cumulative, module = int(fields[0]), int(fields[1]), fields[2].strip()
                imports[module].append((own / 1000, cumulative / 1000))
    out = {"startup.interpreter_ms": (statistics.median(bare), "ms")}
    # packages report cumulative time (their self time excludes submodules)
    out["import.padiclab_ms"] = (statistics.median(c for _, c in imports["padiclab"]), "ms")
    for name in IMPORT_MODULES:
        own = statistics.median(s for s, _ in imports[f"padiclab.{name}"])
        out[f"import.{name}_ms"] = (own, "ms")
    out["import.mpmath_ms"] = (statistics.median(c for _, c in imports["mpmath"]), "ms")
    return out


def count_triples(requests) -> float:
    """Mean lattice triples per law scan, counted as joins / 2.

    Each triple both law scans examine makes exactly two ``join`` calls
    today.  Counted in an untimed pass so the counter costs no span time.
    """
    from padiclab.quantum_logic import (
        FiniteLattice, boolean_lattice, is_distributive, is_modular, subspace_lattice,
    )

    build = {"lattice_subspace": subspace_lattice, "lattice_boolean": boolean_lattice}
    join = FiniteLattice.join
    calls = 0

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return join(self, a, b)

    scans = 0
    FiniteLattice.join = counted
    try:
        for (name, _), (_, inp) in requests:
            if name in build:
                lat = build[name](*inp)
                is_modular(lat)
                is_distributive(lat)
                scans += 2
    finally:
        FiniteLattice.join = join
    return calls / 2 / scans


def _median(values, scale=1.0):
    return statistics.median(values) * scale


def layer_metrics(spans, notes, cli_argv) -> dict:
    """Per-layer metrics from the spans of the two fixed passes.

    CLI and resurgence metrics come from the ``cli_warm`` pass, library
    metrics from the ``library_bulk`` pass (the workload each belongs to).
    Timings are medians of span durations per call.
    """
    from tracer import durations, per_request

    cli = [s for s in spans if s[4][0] == "cli_warm"]
    lib = [s for s in spans if s[4][0] == "library_bulk"]

    def med(source, name, unit):
        scale = {"us": 1.0, "ms": 1e-3}[unit]
        return (_median(durations(source, name), scale), unit)

    def noted(name, label):
        return [v for request, v in notes[name] if request[0] == label and v is not None]

    out = {}
    # parse = build_parser + parse_args; compute = the handler; render = the rest
    main = per_request(cli, {"cli.main"})
    parse = per_request(cli, {"cli.build_parser", "cli.parse_args"})
    compute = per_request(cli, {"cli.compute"})
    out["cli.parse_ms"] = (_median([parse[r] for r in main], 1e-3), "ms")
    out["cli.compute_ms"] = (_median([compute[r] for r in main], 1e-3), "ms")
    out["cli.render_ms"] = (_median([main[r] - parse[r] - compute[r] for r in main], 1e-3), "ms")
    out["cli.parse_share"] = (sum(parse[r] for r in main) / sum(main.values()), "ratio")

    borel_calls = defaultdict(int)
    for s in cli:
        if s[0] == "resurgence.borel_sum":
            borel_calls[s[4]] += 1
    plain = [
        borel_calls[r]
        for r, argv in cli_argv.items()
        if argv[0] == "borel" and not {"--order", "--a", "--table"} & set(argv)
    ]
    out["resurgence.borel_sum.calls_per_req"] = (_median(plain), "count")
    out["resurgence.borel_sum_ms"] = med(cli, "resurgence.borel_sum", "ms")
    out["resurgence.borel_sum.nodes"] = (
        statistics.fmean(noted("resurgence.borel_sum", "cli_warm")), "count")
    out["resurgence.ode_residual_ms"] = med(cli, "resurgence.ode_residual", "ms")
    out["resurgence.euler_series_partial_ms"] = med(cli, "resurgence.euler_series_partial", "ms")
    out["padic_core.check_seminorm_axioms_ms"] = med(cli, "padic_core.check_seminorm_axioms", "ms")

    vp = "valuations_product"
    out[f"{vp}.factor_us"] = med(lib, f"{vp}.factor", "us")
    n_checks = len(durations(lib, f"{vp}.product_formula_check"))
    out[f"{vp}.factor.calls"] = (len(durations(lib, f"{vp}.factor")) / n_checks, "count")
    for fn in ("local_norms", "product_formula_check", "factor_poly", "local_norms_ff"):
        out[f"{vp}.{fn}_us"] = med(lib, f"{vp}.{fn}", "us")
    # mean, not median: the rare cache misses are the cost
    irr = durations(lib, f"{vp}.enumerate_irreducibles")
    out[f"{vp}.enumerate_irreducibles_ms"] = (statistics.fmean(irr) / 1000, "ms")

    for r in (10, 100, 1000):
        out[f"padic_core.padic_op_r{r}_us"] = med(lib, f"req.padic_r{r}", "us")
    out["padic_core.norm_us"] = med(lib, "padic_core.norm", "us")

    for method in ("digit", "newton"):
        for k in (100, 1000):
            out[f"hensel.lift_{method}_k{k}_ms"] = med(lib, f"req.lift_{method}_k{k}", "ms")
    out["hensel.sqrt_padic_ms"] = med(lib, "hensel.sqrt_padic", "ms")

    for fn in ("encode", "decode", "code_op"):
        out[f"hensel_codes.{fn}_us"] = med(lib, f"hensel_codes.{fn}", "us")

    ql = "quantum_logic"
    for fn, unit in (("pauli_mul", "us"), ("to_matrix", "us"), ("matmul", "us"),
                     ("is_in_normalizer", "ms"), ("lattice_build", "ms"), ("law_scan", "ms")):
        out[f"{ql}.{fn}_{unit}"] = med(lib, f"{ql}.{fn}", unit)
    out[f"{ql}.lattice_elements"] = (
        statistics.fmean(noted(f"{ql}.lattice_build", "library_bulk")), "count")
    return out


def traced(work: Workload, seed: int, seconds: float) -> dict:
    import library
    from padiclab import cli  # noqa: F401  (loaded before the tracer rebinds names)
    from padiclab import padic_core, valuations_product
    from tracer import Tracer, self_times

    metrics = startup_probes()
    tracer = Tracer()
    tracer.install([library])
    outcomes = {work.name: Outcomes(work.check)}
    # tracing overhead: untraced and traced segments alternate, so drift in
    # machine speed and first-run effects fall on both alike.  Untraced
    # means the installed wrappers only forward the call.
    # first run and check the inputs the set-up did not warm
    warm = [item for p in work.pool[1:] for item in p]
    measure(iter(warm), work.execute, outcomes[work.name], float("inf"))
    stream = passes(work.pool, work.rng)
    counts, times = [0, 0], [0.0, 0.0]
    for segment in range(2 * OVERHEAD_SEGMENTS):
        on = segment % 2
        if work.name == "cli_cold":
            work.cold_flags = ("-X", "importtime") if on else ()
        else:
            work.tracer = tracer if on else None
        lat, _, timed = measure(
            stream, work.execute, outcomes[work.name], seconds / (2 * OVERHEAD_SEGMENTS),
            tracer=tracer if on and work.name != "cli_cold" else None,
        )
        counts[on] += len(lat)
        times[on] += timed
    rate_off, rate_on = counts[0] / times[0], counts[1] / times[1]
    metrics["trace.req_per_s_untraced"] = (rate_off, "1/s")
    metrics["trace.req_per_s_traced"] = (rate_on, "1/s")
    metrics["trace.overhead_pct"] = (100 * (1 - rate_on / rate_off), "%")

    # every layer is measured on one fixed, seeded pass of each in-process
    # workload, so its counts repeat exactly for a given seed
    layer_work = {}
    for name in ("cli_warm", "library_bulk"):
        layer_work[name] = work if work.name == name else Workload(name, seed)
        if layer_work[name] is not work:
            layer_work[name].warm_up()
            outcomes[name] = Outcomes(layer_work[name].check)
    tracer.spans.clear()
    tracer.notes.clear()
    prime_before = padic_core.is_prime.cache_info()
    irr_before = valuations_product.enumerate_irreducibles.__wrapped__.cache_info()
    cli_argv = {}
    for name, lw in layer_work.items():
        lw.tracer = tracer
        one = list(passes(lw.pool, lw.rng, limit=1))
        measure(iter(one), lw.execute, outcomes[name], float("inf"), tracer=tracer, label=name)
        if name == "cli_warm":
            cli_argv = {(name, i): request["argv"] for i, (_, request) in enumerate(one)}
    prime_after = padic_core.is_prime.cache_info()
    irr_after = valuations_product.enumerate_irreducibles.__wrapped__.cache_info()
    metrics["quantum_logic.triples_scanned"] = (count_triples(one), "count")
    metrics.update(layer_metrics(tracer.spans, tracer.notes, cli_argv))
    hits = prime_after.hits - prime_before.hits
    misses = prime_after.misses - prime_before.misses
    metrics["padic_core.is_prime.hit_ratio"] = (hits / (hits + misses), "ratio")
    vp = "valuations_product.enumerate_irreducibles"
    metrics[f"{vp}.hits"] = (irr_after.hits - irr_before.hits, "count")
    metrics[f"{vp}.misses"] = (irr_after.misses - irr_before.misses, "count")

    import headroom

    limits = headroom.budgets(ROOT / "tests" / "test_acceptance.py")
    report, headroom_failed = [], 0
    for n, (elapsed, ok) in headroom.run().items():
        metrics[f"headroom.test_{n:02d}_s"] = (elapsed, "s")
        report.append(
            f"headroom test_{n:02d}: {elapsed:8.3f} s of {limits[n]:g} s budget "
            f"({100 * elapsed / limits[n]:5.1f}%) {'PASS' if ok else 'FAIL'}"
        )
        headroom_failed += not ok

    selfs = sorted(self_times(tracer.spans).items(), key=lambda kv: -kv[1])
    return {
        "attempted": sum(o.attempted for o in outcomes.values()) + len(report),
        "failed": sum(o.failed for o in outcomes.values()) + headroom_failed,
        "errors": [e for o in outcomes.values() for e in o.errors],
        "metrics": metrics,
        "report": report,
        "self_time_ms": {k: round(v / 1000, 3) for k, v in selfs[:20]},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    work = Workload(args.workload, args.seed)
    work.warm_up()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = traced(work, args.seed, args.seconds)
    else:
        result = end_to_end(work, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
