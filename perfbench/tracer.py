"""Spans around calls into padiclab's public functions, recorded from outside.

``Tracer.install`` rebinds each traced name in every loaded module that
holds it (``padiclab.cli.borel_sum`` as well as
``padiclab.resurgence.borel_sum``, and the benchmark's own modules), so
calls between padiclab modules are traced too.  Spans (name, start, end,
parent, request id) stay in memory until the run ends.  While ``enabled``
is false the wrappers only forward the call.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); the span name carries the layer
FUNCTIONS = (
    ("padiclab.cli", "main", "cli.main"),
    ("padiclab.padic_core", "norm", "padic_core.norm"),
    ("padiclab.padic_core", "check_seminorm_axioms", "padic_core.check_seminorm_axioms"),
    ("padiclab.valuations_product", "factor", "valuations_product.factor"),
    ("padiclab.valuations_product", "local_norms", "valuations_product.local_norms"),
    ("padiclab.valuations_product", "product_formula_check", "valuations_product.product_formula_check"),
    ("padiclab.valuations_product", "factor_poly", "valuations_product.factor_poly"),
    ("padiclab.valuations_product", "local_norms_ff", "valuations_product.local_norms_ff"),
    ("padiclab.valuations_product", "product_formula_check_ff", "valuations_product.product_formula_check_ff"),
    ("padiclab.valuations_product", "enumerate_irreducibles", "valuations_product.enumerate_irreducibles"),
    ("padiclab.hensel", "hensel_lift", "hensel.hensel_lift"),
    ("padiclab.hensel", "sqrt_padic", "hensel.sqrt_padic"),
    ("padiclab.hensel_codes", "encode", "hensel_codes.encode"),
    ("padiclab.hensel_codes", "decode", "hensel_codes.decode"),
    ("padiclab.hensel_codes", "code_add", "hensel_codes.code_op"),
    ("padiclab.hensel_codes", "code_sub", "hensel_codes.code_op"),
    ("padiclab.hensel_codes", "code_mul", "hensel_codes.code_op"),
    ("padiclab.hensel_codes", "code_div", "hensel_codes.code_op"),
    ("padiclab.quantum_logic", "pauli_mul", "quantum_logic.pauli_mul"),
    ("padiclab.quantum_logic", "is_in_normalizer", "quantum_logic.is_in_normalizer"),
    ("padiclab.quantum_logic", "subspace_lattice", "quantum_logic.lattice_build"),
    ("padiclab.quantum_logic", "boolean_lattice", "quantum_logic.lattice_build"),
    ("padiclab.quantum_logic", "is_modular", "quantum_logic.law_scan"),
    ("padiclab.quantum_logic", "is_distributive", "quantum_logic.law_scan"),
    ("padiclab.resurgence", "borel_sum", "resurgence.borel_sum"),
    ("padiclab.resurgence", "ode_residual", "resurgence.ode_residual"),
    ("padiclab.resurgence", "euler_series_partial", "resurgence.euler_series_partial"),
)
# (module, class, method, span name)
METHODS = (
    ("padiclab.quantum_logic", "PauliElement", "to_matrix", "quantum_logic.to_matrix"),
    ("padiclab.quantum_logic", "GaussianMatrix", "__matmul__", "quantum_logic.matmul"),
)

_NODES_RE = re.compile(r"nodes=(\d+)")


def _borel_nodes(result):
    m = _NODES_RE.search(result.method)
    return int(m.group(1)) if m else None


# values read off a traced call's result, kept per span name
NOTES = {
    "resurgence.borel_sum": _borel_nodes,
    "quantum_logic.lattice_build": lambda lat: len(lat.elements),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = None
        self.spans: list = []  # (name, start_ns, end_ns, parent index, request)
        self.notes = defaultdict(list)  # name -> [(request, value)]
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter_ns(), parent, self.request)
                stack.pop()
            if note is not None:
                self.notes[name].append((self.request, note(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def install(self, extra_modules=()):
        modules = [m for n, m in sys.modules.items() if n.startswith("padiclab")]
        modules += list(extra_modules)
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, original, NOTES.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for modname, cls, attr, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._install_cli()

    def _install_cli(self):
        # parse = build_parser() + parse_args(); compute = the selected handler
        cli = sys.modules["padiclab.cli"]
        build = cli.build_parser

        def build_parser():
            parser = build()
            parse = self.wrap("cli.parse_args", parser.parse_args)

            def parse_args(argv=None):
                ns = parse(argv)
                ns.handler = self.wrap("cli.compute", ns.handler)
                return ns

            parser.parse_args = parse_args
            return parser

        cli.build_parser = self.wrap("cli.build_parser", build_parser)


def durations(spans, name):
    return [(s[2] - s[1]) / 1000 for s in spans if s[0] == name]  # microseconds


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in microseconds.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap (one thread).
    """
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[0]] += (s[2] - s[1] - child[i]) / 1000
    return dict(out)


def per_request(spans, names) -> dict:
    """Summed duration (microseconds) of the named spans, per request id."""
    out: dict = defaultdict(float)
    for s in spans:
        if s[0] in names:
            out[s[4]] += (s[2] - s[1]) / 1000
    return out
