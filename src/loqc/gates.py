"""Named nondeterministic gate circuits and their evaluation.

The gallery:

* ``ns``           - nonlinear sign shift on one mode,
                     a|0> + b|1> + c|2>  ->  a|0> + b|1> - c|2>,
                     heralded by its two ancilla detectors, success 1/4.
* ``cs``           - conditional sign flip on two dual-rail qubits built
                     from two sign-shift cores between a splitter pair,
                     success 1/16.
* ``cnot_klm``     - the conditional sign flip conjugated by a balanced
                     splitter on the target rails, success 1/16.
* ``cnot_2photon`` - the six-mode two-photon coincidence-basis CNOT,
                     success 1/9 on coincidence detection.

A ``GateCircuit`` is an immutable description (ancilla preparation,
element list, outcome branches, computational modes): a frozen dataclass
whose fields can be neither reassigned nor edited in place. Its ancilla
pattern and checked branch family are built once, with the circuit
(``dataclasses.replace`` included; see ``GateCircuit``), so a run
rebuilds neither and checks no branch, and its patterns conflict
pairwise, as its heralded evaluator needs. ``GateCircuit.run`` evolves
the input by the heralded evaluator that the circuit keeps next to its
composed ``transform`` (``multiport._HeraldedEvolution``, whose
docstring gives the route rule and the cache) and returns each branch's
``PostselectionResult`` in branch order, from ``postselect_branches``.
On either route the evaluator keeps one table: each input support's
plan, the route and the gate's assembled linear map on that support, so
a run on a known support (any input with every logical amplitude
nonzero, after the first) computes no permanent, expands no photon and
only makes the products and sums, in the same order.
``dataclasses.replace`` builds a circuit with an empty cache; results
never depend on what the cache holds. Everything that evaluates a
circuit calls ``run``:

* ``evaluate_gate`` is one loop over a gate's inputs with a prepare/read
  pair per gate: a one-mode qutrit for ``ns``, ``encode``/``decode`` for
  the others. It returns the body of the ``verify-gate`` report as a
  plain dict; the CLI only puts its header in front.
* ``input_independence_check(circuit, probes)`` runs each probe and asks
  whether the branch probabilities depend on the input and whether the
  branch maps preserve the probes' inner products.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .encodings import Encoding, decode, encode, logical_fidelity, qubit_gate
from .fock import FockState
from .measurement import (
    PROB_FLOOR,
    DetectionPattern,
    OutcomeBranch,
    PostselectionResult,
    _check_branches,
    postselect_branches,
    with_ancilla,
)
from .multiport import (
    ElementSpec,
    ModeTransform,
    SQRT2,
    _HeraldedEvolution,
    compose_elements,
    ns_matrix,
)

@dataclass(frozen=True)
class GateCircuit:
    """A postselected gate: network, ancilla preparation and branches.

    ``computational_modes`` must be the modes the ancilla leaves free, in
    ascending order: ``with_ancilla`` places the input there. Construction
    checks that first (``DetectionPattern.survivors`` on the ancilla, then
    the modes themselves) and then the branch family with
    ``measurement._check_branches``: no branch, the first overlapping pair,
    a pattern outside the register, a correction of the wrong size; each a
    ``ValueError``. It keeps the ancilla's ``DetectionPattern`` for
    ``with_ancilla`` and the checked family as ``branches``, which
    ``postselect_branches`` reads unchecked. The fields cannot be
    reassigned, and ``elements`` and ``branches`` are tuples of frozen
    values, ``computational_modes`` a tuple and ``ancilla`` a read-only
    copy, so they cannot be edited in place either: the composed
    ``transform`` and the per-support plans that ``run`` keeps stay valid.
    ``dataclasses.replace`` builds a new circuit, which starts with neither.
    """

    name: str
    num_modes: int
    ancilla: Mapping[int, int]
    elements: Sequence[ElementSpec]
    branches: Sequence[OutcomeBranch]
    computational_modes: Sequence[int]
    encoding: Encoding | None = None
    coincidence: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ancilla", MappingProxyType(dict(self.ancilla)))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "computational_modes", tuple(self.computational_modes))
        object.__setattr__(self, "_ancilla_pattern", DetectionPattern(self.ancilla))
        free = self._ancilla_pattern.survivors(self.num_modes)
        if list(self.computational_modes) != free:
            raise ValueError(f"computational modes {list(self.computational_modes)} must be "
                             f"the modes the ancilla leaves free, {free}")
        object.__setattr__(self, "branches", _check_branches(self.branches, self.num_modes))

    @cached_property
    def transform(self) -> ModeTransform:
        return compose_elements(self.elements, self.num_modes)

    @cached_property
    def _evolution(self) -> _HeraldedEvolution:
        return _HeraldedEvolution(self.transform, [b.pattern for b in self.branches])

    def run(self, comp_state: FockState) -> list[PostselectionResult]:
        """Evolve a computational-mode input; one result per branch, in branch order."""
        full = with_ancilla(comp_state, self._ancilla_pattern, self.num_modes,
                            free_modes=self.computational_modes)
        out = self._evolution(full)
        return [res for _, res in postselect_branches(out, self.branches)]


# -- circuit builders ---------------------------------------------------

def ns_gate() -> GateCircuit:
    """Sign-shift core: signal on mode 0, ancilla photon on mode 1."""
    return GateCircuit(
        name="ns",
        num_modes=3,
        ancilla={1: 1, 2: 0},
        elements=[ElementSpec.raw((0, 1, 2), ns_matrix())],
        branches=[OutcomeBranch(DetectionPattern({1: 1, 2: 0}), label="n1=1,n2=0")],
        computational_modes=[0],
    )


def cs_gate() -> GateCircuit:
    """Conditional sign flip on two dual-rail qubits (modes 0..3).

    Qubit 0 lives on modes (0, 1), qubit 1 on modes (2, 3); logical 1
    puts the photon on the pair's second rail. A balanced splitter mixes
    the two logical-1 rails, a sign-shift core sits on each arm, and the
    splitter is undone. Success requires both cores to herald.
    """
    ns_m = ns_matrix()
    ancilla = {4: 1, 5: 0, 6: 1, 7: 0}
    return GateCircuit(
        name="cs",
        num_modes=8,
        ancilla=ancilla,
        elements=[
            ElementSpec.bs(1, 3, 0.5),
            ElementSpec.raw((1, 4, 5), ns_m),
            ElementSpec.raw((3, 6, 7), ns_m),
            ElementSpec.bs(1, 3, 0.5),  # the balanced splitter is an involution
        ],
        branches=[OutcomeBranch(DetectionPattern(ancilla), label="both cores fire")],
        computational_modes=[0, 1, 2, 3],
        encoding=Encoding("dual_rail", 2),
    )


def cnot_from_cs() -> GateCircuit:
    """CNOT: the conditional sign flip between balanced splitters on the
    target qubit's rails (the dual-rail Hadamard)."""
    cs = cs_gate()
    hadamard = ElementSpec.bs(2, 3, 0.5)
    return replace(cs, name="cnot_klm", elements=[hadamard, *cs.elements, hadamard])


def two_photon_cnot_matrix() -> ModeTransform:
    """The 6x6 unitary of the two-photon CNOT.

    Mode order (c_H, c_V, t_H, t_V, v_c, v_t): control pair, target pair,
    then the two unoccupied ancillary modes. Rows/columns encode how each
    output mode mixes the inputs; the matrix is symmetric, so the mode-
    operator convention drops out.
    """
    m = np.array([
        [1, 0, 0, 0, SQRT2, 0],
        [0, -1, 1, 1, 0, 0],
        [0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, -1],
        [SQRT2, 0, 0, 0, -1, 0],
        [0, 0, 1, -1, 0, -1],
    ]) / math.sqrt(3.0)
    return ModeTransform(m)


def two_photon_cnot() -> GateCircuit:
    """Coincidence-basis CNOT on two polarization-encoded qubits.

    Success is heralded destructively: vacuum on both ancillary modes and
    exactly one photon per qubit pair (the coincidence condition), which
    the evaluator expresses as the branch probability times the logical
    fraction of the survivors.
    """
    return GateCircuit(
        name="cnot_2photon",
        num_modes=6,
        ancilla={4: 0, 5: 0},
        elements=[ElementSpec.raw((0, 1, 2, 3, 4, 5), two_photon_cnot_matrix())],
        branches=[OutcomeBranch(DetectionPattern({4: 0, 5: 0}), label="ancilla vacuum")],
        computational_modes=[0, 1, 2, 3],
        encoding=Encoding("polarization", 2),
        coincidence=True,
    )


#: The gallery: name -> (builder, target map on the gate's input basis).
_GALLERY = {
    "ns": (ns_gate, np.diag([1.0, 1.0, -1.0]).astype(complex)),
    "cs": (cs_gate, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
    "cnot_klm": (cnot_from_cs, qubit_gate("CNOT")),
    "cnot_2photon": (two_photon_cnot, qubit_gate("CNOT")),
}

GATE_NAMES = tuple(_GALLERY)


def build_gate(name: str) -> GateCircuit:
    if name not in _GALLERY:
        raise ValueError(f"unknown gate {name!r}; choose from {GATE_NAMES}")
    return _GALLERY[name][0]()


# -- evaluation ----------------------------------------------------------

def _basis_inputs(labels: list[str]) -> list[tuple[str, np.ndarray]]:
    return [(label, np.eye(len(labels), dtype=complex)[k]) for k, label in enumerate(labels)]


def _qutrit_state(vec: np.ndarray) -> FockState:
    return FockState(1, {(k,): a for k, a in enumerate(vec) if a != 0})


def _qutrit_read(state: FockState) -> tuple[np.ndarray, float]:
    return np.array([state.amplitude((k,)) for k in range(3)]), 0.0


def evaluate_gate(name: str) -> dict:
    """Run a named gate over its inputs and compare with its target map.

    ``ns`` takes the Fock basis of one mode with up to two photons plus
    their equal superposition and reports the sign each basis input picks
    up; the other gates take their logical basis through their encoding.
    Returns the body of the ``verify-gate`` report, in its key order; an
    input whose branch never fires reports zero success and fidelity and
    no conditional amplitudes.
    """
    circuit = build_gate(name)
    gate_map = _GALLERY[name][1]
    enc = circuit.encoding
    if enc is None:  # ns: a qutrit on one mode, no logical encoding
        inputs = _basis_inputs(["|0>", "|1>", "|2>"])
        inputs.append(("(|0>+|1>+|2>)/sqrt3", np.ones(3, dtype=complex) / math.sqrt(3.0)))
        prepare, read = _qutrit_state, _qutrit_read
    else:
        inputs = _basis_inputs([f"|{k:0{enc.num_qubits}b}>" for k in range(enc.dim)])
        prepare, read = partial(encode, encoding=enc), partial(decode, encoding=enc)
    labels = [b.label or b.pattern.describe() for b in circuit.branches]
    rows = []
    for label, vec in inputs:
        outcomes = circuit.run(prepare(vec))
        probs = {lab: o.probability for lab, o in zip(labels, outcomes)}
        row = {"input": label, "branch_probabilities": probs,
               "success_probability": 0.0, "fidelity": 0.0, "conditional": []}
        cond = outcomes[0].conditional_state
        if cond is not None:
            logical, leakage = read(cond)
            success = sum(probs.values())
            if circuit.coincidence:
                success *= 1.0 - leakage
            target = gate_map @ vec
            row.update(success_probability=success,
                       fidelity=logical_fidelity(target / np.linalg.norm(target), logical),
                       conditional=[[float(a.real), float(a.imag)] for a in logical])
        rows.append(row)
    report = {"gate": name,
              "overall_success_probability": sum(r["success_probability"] for r in rows) / len(rows)}
    if enc is None:  # the sign of each basis input's own amplitude
        report["sign_pattern"] = "".join("+" if row["conditional"][k][0] >= 0 else "-"
                                         for k, row in enumerate(rows[:3]))
    report["inputs"] = rows
    return report


# -- input independence ----------------------------------------------------

#: Bound on probability spread and Gram deviation in ``input_independence_check``.
INDEPENDENCE_TOL = 1e-9


@dataclass
class IndependenceReport:
    """Outcome of probing a postselection scheme for input independence."""

    probabilities: list[list[float]]  # [branch][probe], in the order passed in
    max_probability_deviation: float
    max_gram_deviation: float
    operationally_unitary: bool


def input_independence_check(circuit: GateCircuit, probes: Sequence[FockState]) -> IndependenceReport:
    """Probe whether a circuit's branch probabilities depend on its input.

    Each probe, a state on the computational modes, is normalized and run
    through ``circuit.run``. The scheme is flagged operationally unitary
    when every branch probability is probe-independent and the branch
    maps preserve inner products between the probes at the common success
    amplitude, both within ``INDEPENDENCE_TOL``.
    """
    if not probes:
        raise ValueError("at least one probe state is required")
    normalized_probes = [p.normalized()[0] for p in probes]
    per_branch = list(zip(*(circuit.run(p) for p in normalized_probes)))
    probabilities = [[res.probability for res in results] for results in per_branch]
    projected = [[  # corrected conditionals, back to unnormalized
        None if res.conditional_state is None
        else res.conditional_state.scaled(math.sqrt(res.probability))
        for res in results
    ] for results in per_branch]

    prob_dev = max(max(row) - min(row) for row in probabilities)
    gram_dev = 0.0
    for row_p, row_s in zip(probabilities, projected):
        d = sum(row_p) / len(row_p)
        if d <= PROB_FLOOR:
            continue
        n = len(normalized_probes)
        for i in range(n):
            for j in range(n):
                want = normalized_probes[i].inner(normalized_probes[j])
                si, sj = row_s[i], row_s[j]
                got = (si.inner(sj) / d) if (si is not None and sj is not None) else 0j
                gram_dev = max(gram_dev, abs(got - want))
    return IndependenceReport(
        probabilities=probabilities,
        max_probability_deviation=prob_dev,
        max_gram_deviation=gram_dev,
        operationally_unitary=(prob_dev <= INDEPENDENCE_TOL and gram_dev <= INDEPENDENCE_TOL),
    )
