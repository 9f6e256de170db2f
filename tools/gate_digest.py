#!/usr/bin/env python3
"""One digest over the exact results of gate runs.

    python tools/gate_digest.py

Runs every gallery gate, the 12-mode two-stage ``cs`` cascade of the
benchmark's ``gates_heralded`` workload (``perfbench/workloads.cascade_circuit``,
imported read-only) and ``cs_branches``, the ``cs`` gate with six
branches (the four one-photon-per-core detections, both ancilla photons
at the first detector and none detected), which takes the heralded
route. Each
runs 64 Haar-random inputs interleaved with 32 seeded inputs that have
one or two amplitudes zeroed (two- and three-term supports; two-term
for ``ns``), and then each basis input, so a gate meets several input
supports in turn. It prints the number of result lines and one sha256
over them. A result line holds the hex bits of every branch's
probability and conditional amplitudes for one run, and after the first
branch's what the run reads from it: for a gate with an encoding,
``decode``'s logical amplitudes and leakage; for ``ns``, the amplitudes
of 0, 1 and 2 photons on its one mode. Each gate runs its inputs twice (first and
repeat runs) on the circuit as built and then twice on a
``dataclasses.replace`` copy, which starts with an empty cache; all of
it at ``multiport.COLUMN_CACHE_BUDGET`` 2^16, 25 and 0, so that runs
that keep every plan, some and none are all covered. The budget covers
what a gate keeps, one plan per input support, counted by its Ryser sums
on the heralded route (``cs``, ``cnot_klm`` and the cascade, 10 per
term; ``cs_branches``, 85) or by ``evolve``'s (term, row) pairs
(``ns``, 3, 6 or 10 per term; ``cnot_2photon``, 21). A change meant to leave gate results bit-identical runs this at the
parent commit and at the change and compares the two lines. The library
is imported from this checkout's ``src/``.
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
SPARSE_INPUTS = 32

#: The ``cs_branches`` detections on the ``cs`` gate's ancilla modes 4-7.
BRANCHES = ({4: 1, 5: 0, 6: 1, 7: 0}, {4: 0, 5: 1, 6: 1, 7: 0}, {4: 1, 5: 0, 6: 0, 7: 1},
            {4: 0, 5: 1, 6: 0, 7: 1}, {4: 2, 5: 0, 6: 0, 7: 0}, {4: 0, 5: 0, 6: 0, 7: 0})


def _inputs(circuit, rng: np.random.Generator) -> list[loqc.FockState]:
    """Haar-random inputs interleaved with ones of a smaller support, then
    the basis inputs, of one gate."""
    dim = 3 if circuit.encoding is None else circuit.encoding.dim
    draws = rng.normal(size=(HAAR_INPUTS, dim)) + 1j * rng.normal(size=(HAAR_INPUTS, dim))
    vecs = [v / np.linalg.norm(v) for v in draws]
    for at in range(SPARSE_INPUTS):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v[rng.choice(dim, size=int(rng.integers(1, dim - 1)), replace=False)] = 0   # keep 2 or 3 terms
        vecs.insert(2 * at + 1, v / np.linalg.norm(v))
    vecs += list(np.eye(dim, dtype=complex))
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
    for b, res in enumerate(results):
        parts.append(res.probability.hex())
        state = res.conditional_state
        if state is not None:
            parts += [f"{occ}:{_hex(amp)}" for occ, amp in state.terms()]
            if b == 0:   # the branch a gate run reads
                parts += ["|", *_read(state, encoding)]
    return " ".join(parts)


def result_lines() -> list[str]:
    lines = []
    for budget in BUDGETS:
        multiport.COLUMN_CACHE_BUDGET = budget
        circuits = {name: loqc.build_gate(name) for name in loqc.GATE_NAMES}
        circuits["cs_cascade"] = workloads.cascade_circuit()
        circuits["cs_branches"] = dataclasses.replace(
            circuits["cs"], name="cs_branches",
            branches=[loqc.OutcomeBranch(loqc.DetectionPattern(b)) for b in BRANCHES])
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
