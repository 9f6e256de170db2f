"""Shared test utilities."""

import numpy as np

from loqc import (
    DetectionPattern,
    ElementSpec,
    Encoding,
    FockState,
    GateCircuit,
    OutcomeBranch,
    cli,
    compose_elements,
    evolve,
    ns_matrix,
    outcome_distribution,
    postselect_branches,
)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR with phase fixing."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng: np.random.Generator, num_modes: int, max_photons: int, terms: int = 4) -> FockState:
    amps = {}
    for _ in range(terms):
        occ = tuple(int(n) for n in rng.integers(0, max_photons + 1, num_modes))
        amps[occ] = complex(rng.normal(), rng.normal())
    return FockState(num_modes, amps)


def state_distance(a: FockState, b: FockState) -> float:
    return (a - b).norm()


_CASCADE_ANCILLA = {4: 1, 5: 0, 6: 1, 7: 0, 8: 1, 9: 0, 10: 1, 11: 0}


def cs_cascade() -> GateCircuit:
    """Two conditional sign flips in series on 12 modes, four cores heralded."""
    ns = ns_matrix().matrix

    def stage(a, b):
        return [ElementSpec.bs(1, 3, 0.5), ElementSpec.raw((1, a, a + 1), ns),
                ElementSpec.raw((3, b, b + 1), ns), ElementSpec.bs(1, 3, 0.5)]

    return GateCircuit(
        name="cs_cascade",
        num_modes=12,
        ancilla=dict(_CASCADE_ANCILLA),
        elements=stage(4, 6) + stage(8, 10),
        branches=[OutcomeBranch(DetectionPattern(_CASCADE_ANCILLA), label="all four cores fire")],
        computational_modes=[0, 1, 2, 3],
        encoding=Encoding("dual_rail", 2),
    )


def reference_simulate_report(text: str, digits: int) -> dict:
    """The ``simulate`` report of a circuit file as a tree of floats, each
    ``float(format(x, f".{digits}g"))``, built through the public API: the
    float round trip that ``cli.simulate_report``'s JSON text must match once
    both are rendered by ``cli.render_report``."""
    circ = cli.parse_circuit(text)
    spec = f".{digits}g"
    out = evolve(circ.state, compose_elements(circ.elements, circ.modes))
    if circ.branches:
        measured = sorted({m for _, b in circ.branches for m in b.pattern.modes})
    else:
        measured = list(range(circ.modes))

    def key(counts) -> str:
        return ",".join(map(str, counts))

    report = {
        **cli._report_header("simulate", text, modes=circ.modes,
                             mode_order="ports 1..N left to right; internal indices are ports minus 1"),
        "measured_ports": [m + 1 for m in measured],
        "outcomes": {key(k): float(format(p, spec)) for k, p in outcome_distribution(out, measured).items()},
    }
    if circ.branches:
        rows = []
        total = 0.0
        for (name, branch), (_, res) in zip(circ.branches, postselect_branches(out, [b for _, b in circ.branches])):
            total += res.probability
            cond = res.conditional_state
            rows.append({
                "pattern": branch.label,
                "correction": name,
                "probability": float(format(res.probability, spec)),
                "surviving_ports": [m + 1 for m in branch.pattern.survivors(circ.modes)],
                "conditional": {} if cond is None else {
                    key(occ): [float(format(a.real, spec)), float(format(a.imag, spec))]
                    for occ, a in cond.terms()},
            })
        report["branches"] = rows
        report["success_probability"] = float(format(total, spec))
    return report
