"""Spans around calls into each loqc module, recorded from outside the library.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every ``loqc.*`` module attribute that holds one of them (modules
import functions by name, so ``loqc.gates.evolve`` and ``loqc.cli.evolve``
are separate bindings of one function). It then checks that no module
still holds an unwrapped original. ``uninstall`` restores the originals.

A span is ``[name, start_ns, end_ns, parent, op, pass, attrs]``; ``attrs``
holds the counts read from the arguments and results that cross the
boundary (terms in and out of ``evolve``, grid points fed to a kernel,
SLSQP iterations). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _points(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


def _evolve_attrs(args, kwargs, out):
    state = args[0]
    first = next(state.terms(), ((),))[0]
    return {"terms_in": state.num_terms(), "terms_out": out.num_terms(),
            "modes": state.num_modes, "photons": sum(first)}


def _postselect_attrs(args, kwargs, out):
    kept = sum(res.conditional_state.num_terms() for _, res in out
               if res.conditional_state is not None)
    return {"scanned": args[0].num_terms(), "kept": kept}


def _minimize_attrs(args, kwargs, res):
    return {"nit": int(res.nit), "nfev": int(res.nfev), "success": bool(res.success)}


#: (layer, module, attribute, attrs-from-(args, kwargs, result) or None).
#: ``fock`` has no entry: its methods run per term inside the other layers,
#: so it contributes the term counts read at their boundaries.
TARGETS = (
    ("cli", "loqc.cli", "main", None),
    ("cli", "loqc.cli", "parse_circuit", None),
    ("cli", "loqc.cli", "render_report", lambda a, k, out: {"bytes": len(out)}),
    ("gates", "loqc.gates", "GateCircuit.run", lambda a, k, out: {"gate": a[0].name}),
    ("gates", "loqc.gates", "evaluate_gate", None),
    ("multiport", "loqc.multiport", "evolve", _evolve_attrs),
    ("multiport", "loqc.multiport", "compose_elements", None),
    ("multiport", "loqc.multiport", "permanent_amplitude", None),
    ("measurement", "loqc.measurement", "postselect_branches", _postselect_attrs),
    ("measurement", "loqc.measurement", "outcome_distribution", None),
    ("measurement", "loqc.measurement", "with_ancilla", None),
    ("encodings", "loqc.encodings", "encode", None),
    ("encodings", "loqc.encodings", "decode", None),
    ("search", "loqc.search", "single_bs_infeasibility", None),
    ("search", "loqc.search", "two_bs_feasibility", None),
    ("search", "loqc.search", "ns_in_ns_feasibility", None),
    ("search", "loqc.search", "optimize_success", None),
    ("search", "loqc.search", "single_bs_corrected", lambda a, k, out: {"points": _points(a[1])}),
    ("search", "loqc.search", "two_bs_corrected", lambda a, k, out: {"points": _points(a[0], a[1])}),
    ("search", "loqc.search", "ns_in_ns_products", lambda a, k, out: {"points": _points(*a[2:5])}),
    ("search", "loqc.search", "sign_shift_branch_amplitudes", lambda a, k, out: {"points": _points(*a[:3])}),
    ("search", "loqc.search", "minimize", _minimize_attrs),
)

LAYERS = ("cli", "gates", "multiport", "measurement", "encodings", "search")

#: Search scheme -> (entry function span, kernel span).
SCHEMES = {
    "single_bs": ("search.single_bs_infeasibility", "search.single_bs_corrected"),
    "two_bs": ("search.two_bs_feasibility", "search.two_bs_corrected"),
    "ns_in_ns": ("search.ns_in_ns_feasibility", "search.ns_in_ns_products"),
    "optimize_ns": ("search.optimize_success", "search.sign_shift_branch_amplitudes"),
}

EVOLVE_SIZES = ((4, 2), (6, 3), (8, 4), (8, 5), (10, 5), (12, 6))


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


def _loqc_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "loqc" or n.startswith("loqc."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.pass_index: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.layer_of: dict[str, str] = {}

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, self.pass_index, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target binding; return the bindings still unwrapped."""
        modules = _loqc_modules()
        originals = []
        for layer, module, attr, attrs in TARGETS:
            name = span_name(module, attr)
            self.layer_of[name] = layer
            owner = sys.modules[module]
            if "." in attr:  # a method: one binding, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                originals.append((orig, [(cls, meth)]))
                setattr(cls, meth, self._wrap(name, orig, attrs))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, attrs)
            bindings = [(m, key) for m in modules for key, val in vars(m).items() if val is orig]
            originals.append((orig, bindings))
            for m, key in bindings:
                setattr(m, key, wrapper)
                self._restore.append((m, key, orig))
        leaks = []
        for orig, _ in originals:
            for m in modules:
                leaks += [f"{m.__name__}.{key}" for key, val in vars(m).items() if val is orig]
                for cls in [v for v in vars(m).values() if isinstance(v, type)]:
                    leaks += [f"{m.__name__}.{cls.__name__}.{key}"
                              for key, val in vars(cls).items() if val is orig]
        return sorted(set(leaks))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


# -- aggregation ---------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ancestor(spans: list[list], i: int, names) -> int:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return p
        p = spans[p][3]
    return -1


def _s(ns: int) -> float:
    return ns / 1e9


def pass_metrics(spans: list[list], own: list[int], layer_of: dict, op_kinds: list[str],
                 pass_index: int, wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``wall_ns`` is its summed op time."""
    mine = [i for i, s in enumerate(spans) if s[5] == pass_index]
    total = defaultdict(int)   # inclusive ns per span name
    selfns = defaultdict(int)  # self ns per span name
    calls = defaultdict(int)
    counts = defaultdict(int)
    evolve_ms = defaultdict(list)
    for i in mine:
        s = spans[i]
        name, dur = s[0], s[2] - s[1]
        total[name] += dur
        selfns[name] += own[i]
        calls[name] += 1
        a = s[6] or {}
        if name == "multiport.evolve":
            counts["terms_in"] += a["terms_in"]
            counts["terms_out"] += a["terms_out"]
            if op_kinds[s[4]] == f"haar:m{a['modes']}n{a['photons']}":
                evolve_ms[(a["modes"], a["photons"])].append(own[i] / 1e6)
        elif name == "measurement.postselect_branches":
            counts["scanned"] += a["scanned"]
            counts["kept"] += a["kept"]
        elif name == "cli.render_report":
            counts["report_bytes"] += a["bytes"]
        elif name == "search.minimize":
            counts["nit"] += a["nit"]
            counts["nfev"] += a["nfev"]
            counts["polish_ok"] += a["success"]

    m = {
        "cli.parse_circuit_s": _s(total["cli.parse_circuit"]),
        "cli.parse_circuit_calls": calls["cli.parse_circuit"],
        "cli.render_report_s": _s(total["cli.render_report"]),
        "cli.report_bytes": counts["report_bytes"],
        "cli.main_self_s": _s(selfns["cli.main"]),
        "cli.main_calls": calls["cli.main"],
        "gates.run_s": _s(total["gates.run"]),
        "gates.run_self_s": _s(selfns["gates.run"]),
        "gates.run_calls": calls["gates.run"],
        "multiport.evolve_s": _s(selfns["multiport.evolve"]),
        "multiport.evolve_calls": calls["multiport.evolve"],
        "multiport.evolve_terms_in": counts["terms_in"],
        "multiport.evolve_terms_out": counts["terms_out"],
        "multiport.evolve_us_per_term_out":
            selfns["multiport.evolve"] / 1e3 / counts["terms_out"] if counts["terms_out"] else 0.0,
    }
    for mm, nn in EVOLVE_SIZES:
        samples = evolve_ms[(mm, nn)]
        m[f"multiport.evolve_ms.m{mm}n{nn}"] = statistics.median(samples) if samples else 0.0
    m.update({
        "multiport.compose_elements_s": _s(selfns["multiport.compose_elements"]),
        "multiport.compose_elements_calls": calls["multiport.compose_elements"],
        "measurement.postselect_branches_s": _s(selfns["measurement.postselect_branches"]),
        "measurement.postselect_calls": calls["measurement.postselect_branches"],
        "measurement.terms_scanned": counts["scanned"],
        "measurement.terms_kept": counts["kept"],
        "measurement.survival_ratio": counts["kept"] / counts["scanned"] if counts["scanned"] else 0.0,
        "measurement.outcome_distribution_s": _s(selfns["measurement.outcome_distribution"]),
        "measurement.with_ancilla_s": _s(selfns["measurement.with_ancilla"]),
        "encodings.encode_s": _s(selfns["encodings.encode"]),
        "encodings.decode_s": _s(selfns["encodings.decode"]),
    })

    entries = {entry: scheme for scheme, (entry, _) in SCHEMES.items()}
    kernel_ns = defaultdict(int)
    points = defaultdict(int)
    kcalls = defaultdict(int)
    polish_ns = defaultdict(int)
    for i in mine:
        s = spans[i]
        if s[0] == "search.minimize":
            top = _ancestor(spans, i, entries)
            if top >= 0:
                polish_ns[entries[spans[top][0]]] += s[2] - s[1]
            continue
        for scheme, (entry, kernel) in SCHEMES.items():
            # kernel calls made by the SLSQP polish are polish time, not grid points
            if s[0] == kernel and _ancestor(spans, i, ("search.minimize",)) < 0 \
                    and _ancestor(spans, i, (entry,)) >= 0:
                kernel_ns[scheme] += s[2] - s[1]
                points[scheme] += s[6]["points"]
                kcalls[scheme] += 1
    for scheme, (entry, _) in SCHEMES.items():
        span_ns = total[entry]
        m[f"search.{scheme}.span_s"] = _s(span_ns)
        m[f"search.{scheme}.kernel_s"] = _s(kernel_ns[scheme])
        m[f"search.{scheme}.residual_s"] = _s(span_ns - kernel_ns[scheme] - polish_ns[scheme])
        m[f"search.{scheme}.grid_points"] = points[scheme]
        m[f"search.{scheme}.kernel_calls"] = kcalls[scheme]
        m[f"search.{scheme}.ns_per_point"] = kernel_ns[scheme] / points[scheme] if points[scheme] else 0.0
    m["search.polish_s"] = _s(total["search.minimize"])
    m["search.polish_nit"] = counts["nit"]
    m["search.polish_nfev"] = counts["nfev"]
    m["search.polish_success"] = counts["polish_ok"] / calls["search.minimize"] if calls["search.minimize"] else 0.0

    layer_ns = defaultdict(int)
    for i in mine:
        layer_ns[layer_of[spans[i][0]]] += own[i]
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_ns[layer] / wall_ns
    m["share.bench"] = 1.0 - sum(layer_ns.values()) / wall_ns
    m["trace.spans"] = len(mine)
    return m
