"""The benchmark tracer's contract with the library.

``perfbench/tracer.py`` wraps loqc functions by name and reads counts from
their arguments and results. A change to a traced signature breaks that
contract; these tests catch it without a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import loqc.cli  # noqa: F401  the tracer wraps bindings in every loqc module
from loqc import GATE_NAMES, NS_ANGLES, FockState, build_gate, compose_elements, encode, evolve, search
from loqc.measurement import postselect_branches

from helpers import cs_cascade

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_every_target_and_reads_its_counts():
    tracer = _load_tracer().Tracer()
    xs, ys = np.ix_(np.linspace(0.1, 1.0, 3), np.linspace(0.2, 1.2, 4))
    try:
        leaks = tracer.install()
        search.single_bs_corrected(1, np.linspace(0.1, 1.0, 5))
        search.two_bs_corrected(xs, ys)
        search.ns_in_ns_products(1, (2, 0), 0.5, xs, ys)
        search.sign_shift_branch_amplitudes(0.5, xs, ys)
        search.minimize(NS_ANGLES)
        build_gate("ns").run(FockState(1, {(1,): 1.0}))
    finally:
        tracer.uninstall()
    assert leaks == []

    top = {}  # span name -> attrs of the calls made here, not from inside the library
    for name, _, _, parent, _, _, attrs in tracer.spans:
        if parent < 0:
            top.setdefault(name, []).append(attrs)
    assert top["search.single_bs_corrected"] == [{"points": 5}]
    for kernel in ("two_bs_corrected", "ns_in_ns_products", "sign_shift_branch_amplitudes"):
        assert top[f"search.{kernel}"] == [{"points": 12}]
    [polish] = top["search.minimize"]
    assert set(polish) == {"nit", "nfev", "success"} and polish["success"]

    nested = {name: attrs for name, _, _, parent, _, _, attrs in tracer.spans if parent >= 0}
    assert set(nested["multiport.evolve"]) == {"terms_in", "terms_out", "modes", "photons"}
    assert nested["multiport.evolve"]["terms_in"] == 1
    assert set(nested["measurement.postselect_branches"]) == {"scanned", "kept"}


def test_uninstall_restores_the_library():
    kernel = search.two_bs_corrected
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert search.two_bs_corrected is not kernel
    finally:
        tracer.uninstall()
    assert search.two_bs_corrected is kernel


def test_traced_gate_runs_keep_the_benchmark_pins():
    # ``perfbench/run.py`` checks these counts on every traced gates_heralded pass
    rng = np.random.default_rng(48)
    gates = [build_gate(name) for name in GATE_NAMES] + [cs_cascade()]
    tracer = _load_tracer().Tracer()
    try:
        leaks = tracer.install()
        for gate in gates:
            dim = 3 if gate.encoding is None else gate.encoding.dim
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            comp = (FockState(1, {(k,): a for k, a in enumerate(v)}) if gate.encoding is None
                    else encode(v, gate.encoding))
            for _ in range(2):   # a first and a warm run
                gate.run(comp)
    finally:
        tracer.uninstall()
    assert leaks == []

    spans = tracer.spans
    runs = [i for i, s in enumerate(spans) if s[0] == "gates.run"]
    assert [spans[i][6]["gate"] for i in runs] == [g.name for g in gates for _ in range(2)]
    children = {i: [s[0] for s in spans if s[3] == i] for i in runs}
    for i in runs:
        kids = children[i]
        assert kids.count("measurement.postselect_branches") == 1
        if spans[i][6]["gate"] == "ns":
            assert kids.count("multiport.evolve") == 1
    cascade = [s[6] for s in spans if s[0] == "measurement.postselect_branches"
               and spans[s[3]][6]["gate"] == "cs_cascade"]
    assert [attrs["kept"] for attrs in cascade] == [4, 4]


def test_simulate_postselects_through_the_traced_entry_point(tmp_path):
    # one detected port set, on an output of at least ARRAY_ROUTE_TERMS terms
    # (the rows read the distribution's runs) and on a smaller one
    chain = "".join(f"bs {k} {k + 1} eta=0.{k + 2}\n" for k in range(1, 6)) * 3
    texts = ["modes 6\ninput fock 1 1 1 1 1 0\n" + chain + "correction fix ps 2 delta=0.5\n"
             "detect 1=0\ndetect 1=1\ndetect 1=2 correct fix\n",
             "modes 4\ninput fock 1 0 1 0\nbs 1 2 eta=0.3\nbs 2 3 eta=0.6\ndetect 2=1\ndetect 2=0\n"]
    tracer = _load_tracer().Tracer()
    want, got = [], []
    for k, text in enumerate(texts):
        path = tmp_path / f"c{k}.txt"
        path.write_text(text, encoding="utf-8")
        circ = loqc.cli.parse_circuit(text)
        out = evolve(circ.state, compose_elements(circ.elements, circ.modes))
        results = postselect_branches(out, [b for _, b in circ.branches])
        want.append({"scanned": out.num_terms(),
                     "kept": sum(r.conditional_state.num_terms() for _, r in results
                                 if r.conditional_state is not None)})
        try:
            leaks = tracer.install()
            assert loqc.cli.main(["simulate", str(path)]) == 0
        finally:
            tracer.uninstall()
        assert leaks == []
        got.append([s[6] for s in tracer.spans if s[0] == "measurement.postselect_branches"])
        tracer.spans.clear()
    assert want[0]["scanned"] >= loqc.measurement.ARRAY_ROUTE_TERMS > want[1]["scanned"]
    assert got == [[w] for w in want]
