#!/usr/bin/env python3
"""One digest over the exact results of gate runs.

    python tools/gate_digest.py

Runs every gallery gate and the 12-mode two-stage ``cs`` cascade of the
benchmark's ``gates_heralded`` workload (``perfbench/workloads.cascade_circuit``,
imported read-only) on 64 Haar-random inputs and then on each basis
input, and prints the number of result lines and one sha256 over them.
A result line holds the hex bits of every branch's probability and
conditional amplitudes for one run, and then what the run reads from
them: for a gate with an encoding, ``decode``'s logical amplitudes and
leakage; for ``ns``, the amplitudes of 0, 1 and 2 photons on its one
mode. Each gate runs its inputs twice (first and repeat runs) on the
circuit as built and then twice on a ``dataclasses.replace`` copy, which
starts with an empty cache; all of it at ``multiport.COLUMN_CACHE_BUDGET``
2^16, 25 and 0, so that runs that keep every piece, some and none are
all covered. The budget covers both kinds of piece a gate keeps per
input occupation: the Ryser columns of the heralded route (``cs``,
``cnot_klm`` and the cascade, 10 sums each) and the ``evolve``
expansions (``ns``, 3 + 6 + 10 coefficients, all kept at 25;
``cnot_2photon``, 21 each, one kept at 25). A change meant to leave gate
results bit-identical runs this at the parent commit and at the change
and compares the two lines. The library is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loqc  # noqa: E402
from loqc import multiport  # noqa: E402
import workloads  # noqa: E402

BUDGETS = (1 << 16, 25, 0)
HAAR_INPUTS = 64


def _inputs(circuit, rng: np.random.Generator) -> list[loqc.FockState]:
    """Haar-random inputs, then the basis inputs, of one gate."""
    dim = 3 if circuit.encoding is None else circuit.encoding.dim
    draws = rng.normal(size=(HAAR_INPUTS, dim)) + 1j * rng.normal(size=(HAAR_INPUTS, dim))
    vecs = [v / np.linalg.norm(v) for v in draws] + list(np.eye(dim, dtype=complex))
    if circuit.encoding is None:   # ns: a one-mode qutrit
        return [loqc.FockState(1, {(k,): a for k, a in enumerate(v) if a != 0}) for v in vecs]
    return [loqc.encode(v, circuit.encoding) for v in vecs]


def _hex(amp: complex) -> str:
    return f"{amp.real.hex()},{amp.imag.hex()}"


def _read(state: loqc.FockState, encoding: loqc.Encoding | None) -> list[str]:
    """The logical amplitudes and leakage a run reads from one conditional state."""
    if encoding is None:   # ns: a one-mode qutrit
        return [_hex(state.amplitude((k,))) for k in range(3)]
    vec, leakage = loqc.decode(state, encoding)
    return [_hex(a) for a in vec] + [f"leak:{leakage.hex()}"]


def _line(results, encoding: loqc.Encoding | None) -> str:
    parts = []
    for res in results:
        parts.append(res.probability.hex())
        state = res.conditional_state
        if state is not None:
            parts += [f"{occ}:{_hex(amp)}" for occ, amp in state.terms()]
            parts += ["|", *_read(state, encoding)]
    return " ".join(parts)


def result_lines() -> list[str]:
    lines = []
    for budget in BUDGETS:
        multiport.COLUMN_CACHE_BUDGET = budget
        circuits = {name: loqc.build_gate(name) for name in loqc.GATE_NAMES}
        circuits["cs_cascade"] = workloads.cascade_circuit()
        for g, (name, gate) in enumerate(circuits.items()):
            inputs = _inputs(gate, np.random.default_rng(g))
            for copy, circuit in enumerate((gate, dataclasses.replace(gate))):
                for repeat in range(2):
                    for i, state in enumerate(inputs):
                        line = _line(circuit.run(state), circuit.encoding)
                        lines.append(f"{budget} {name} {copy} {repeat} {i} {line}")
    return lines


def main() -> int:
    lines = result_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} result lines, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
