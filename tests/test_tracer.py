"""The benchmark tracer's contract with the library.

``perfbench/tracer.py`` wraps loqc functions by name and reads counts from
their arguments and results. A change to a traced signature breaks that
contract; these tests catch it without a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import loqc.cli  # noqa: F401  the tracer wraps bindings in every loqc module
from loqc import NS_ANGLES, FockState, build_gate, search

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
