"""Simulator and search tools for postselected linear-optical circuits.

The package simulates passive linear networks over multimode Fock states,
supports projective ancilla detection with postselection and
postcorrection, ships the standard nondeterministic gate gallery
(sign-shift core, conditional sign flip, two CNOT constructions) and a
deterministic numerical search engine for postcorrection feasibility over
splitter angles.
"""

from .fock import FockState
from .multiport import (
    ElementSpec,
    ModeTransform,
    NS_ANGLES,
    beam_splitter,
    compose_elements,
    embed,
    evolve,
    general3,
    matrix_permanent,
    ns_matrix,
    permanent_amplitude,
    phase_shifter,
)
from .encodings import (
    Encoding,
    ZYDecomposition,
    decode,
    dual_rail_apply,
    encode,
    logical_fidelity,
    qubit_gate,
    zy_decompose,
)
from .measurement import (
    DetectionPattern,
    OutcomeBranch,
    PostselectionResult,
    outcome_distribution,
    postselect,
    postselect_branches,
    with_ancilla,
)
from .gates import (
    GATE_NAMES,
    GateCircuit,
    IndependenceReport,
    build_gate,
    cnot_from_cs,
    cs_gate,
    evaluate_gate,
    input_independence_check,
    ns_gate,
    two_photon_cnot,
    two_photon_cnot_matrix,
)
from .search import (
    CASE_AMPLITUDES,
    FeasibilityReport,
    OptimizationResult,
    closed_form_amplitudes,
    ns_in_ns_feasibility,
    optimize_success,
    parametrized_ns_amplitudes,
    proportionality_residual,
    single_bs_infeasibility,
    two_bs_feasibility,
)

__version__ = "0.1.0"

__all__ = [
    "FockState",
    "ElementSpec", "ModeTransform", "NS_ANGLES", "beam_splitter",
    "compose_elements", "embed", "evolve", "general3", "matrix_permanent",
    "ns_matrix", "permanent_amplitude", "phase_shifter",
    "Encoding", "ZYDecomposition", "decode", "dual_rail_apply", "encode",
    "logical_fidelity", "qubit_gate", "zy_decompose",
    "DetectionPattern", "OutcomeBranch", "PostselectionResult",
    "outcome_distribution", "postselect", "postselect_branches", "with_ancilla",
    "GATE_NAMES", "GateCircuit", "IndependenceReport", "build_gate",
    "cnot_from_cs", "cs_gate", "evaluate_gate", "input_independence_check",
    "ns_gate", "two_photon_cnot", "two_photon_cnot_matrix",
    "CASE_AMPLITUDES", "FeasibilityReport", "OptimizationResult",
    "closed_form_amplitudes", "ns_in_ns_feasibility",
    "optimize_success", "parametrized_ns_amplitudes",
    "proportionality_residual", "single_bs_infeasibility",
    "two_bs_feasibility",
    "__version__",
]
