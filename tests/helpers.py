"""Shared test utilities."""

import numpy as np

from loqc import (
    DetectionPattern,
    ElementSpec,
    Encoding,
    FockState,
    GateCircuit,
    OutcomeBranch,
    ns_matrix,
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
