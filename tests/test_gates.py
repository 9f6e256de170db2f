import math

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    ElementSpec,
    Encoding,
    FockState,
    GateCircuit,
    OutcomeBranch,
    build_gate,
    cnot_from_cs,
    cs_gate,
    decode,
    encode,
    evaluate_gate,
    evolve,
    logical_fidelity,
    ns_gate,
    ns_matrix,
    postselect_branches,
    qubit_gate,
    two_photon_cnot,
    two_photon_cnot_matrix,
    with_ancilla,
)
from loqc import measurement

SQ2 = math.sqrt(2)


# -- sign-shift core ---------------------------------------------------------

def test_ns_gate_on_fock_levels():
    gate = ns_gate()
    for k, sign in [(0, 1.0), (1, 1.0), (2, -1.0)]:
        [outcome] = gate.run(FockState.from_occupation([k]))
        assert outcome.probability == pytest.approx(0.25, abs=1e-9)
        assert outcome.conditional_state.amplitude([k]) == pytest.approx(sign, abs=1e-9)


def test_ns_gate_on_uniform_superposition():
    gate = ns_gate()
    signal = FockState(1, {(0,): 1, (1,): 1, (2,): 1}).scaled(1 / math.sqrt(3))
    [outcome] = gate.run(signal)
    assert outcome.probability == pytest.approx(0.25, abs=1e-9)
    cond = outcome.conditional_state
    expected = [1 / math.sqrt(3), 1 / math.sqrt(3), -1 / math.sqrt(3)]
    for k, want in enumerate(expected):
        assert cond.amplitude([k]) == pytest.approx(want, abs=1e-9)


def test_ns_report_sign_pattern():
    rep = evaluate_gate("ns")
    assert rep["sign_pattern"] == "++-"
    assert rep["overall_success_probability"] == pytest.approx(0.25, abs=1e-9)
    assert all(r["fidelity"] >= 1 - 1e-9 for r in rep["inputs"])


def test_ns_branch_probability_is_input_independent():
    from loqc import input_independence_check

    rng = np.random.default_rng(40)
    probes = [FockState.from_occupation([k]) for k in range(3)]
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        probes.append(FockState(1, {(k,): a for k, a in enumerate(v)}))
    report = input_independence_check(ns_gate(), probes)
    assert report.max_probability_deviation <= 1e-9
    assert report.operationally_unitary


# -- conditional sign flip -----------------------------------------------------

def test_cs_gate_circuit_is_unitary():
    assert cs_gate().transform.unitarity_deviation() <= 1e-9


@pytest.mark.parametrize("bits,sign", [("00", 1), ("01", 1), ("10", 1), ("11", -1)])
def test_cs_gate_basis_action(bits, sign):
    gate = cs_gate()
    enc = Encoding("dual_rail", 2)
    [outcome] = gate.run(encode(bits, enc))
    assert outcome.probability == pytest.approx(1 / 16, abs=1e-9)
    vec, leakage = decode(outcome.conditional_state, enc)
    assert leakage < 1e-9
    index = int(bits, 2)
    assert vec[index] == pytest.approx(sign, abs=1e-9)


def test_cs_gate_flips_bell_state_phase():
    gate = cs_gate()
    enc = Encoding("dual_rail", 2)
    bell = np.array([1, 0, 0, 1]) / SQ2
    [outcome] = gate.run(encode(bell, enc))
    assert outcome.probability == pytest.approx(1 / 16, abs=1e-9)
    vec, _ = decode(outcome.conditional_state, enc)
    want = np.array([1, 0, 0, -1]) / SQ2
    assert logical_fidelity(vec, want) >= 1 - 1e-9


def test_cs_conditional_phase_pattern():
    rep = evaluate_gate("cs")
    assert rep["overall_success_probability"] == pytest.approx(1 / 16, abs=1e-9)
    assert all(r["fidelity"] >= 1 - 1e-9 for r in rep["inputs"])


# -- CNOT from the sign flip ----------------------------------------------------

@pytest.mark.parametrize(
    "bits,want",
    [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")],
)
def test_cnot_truth_table(bits, want):
    gate = cnot_from_cs()
    enc = Encoding("dual_rail", 2)
    [outcome] = gate.run(encode(bits, enc))
    assert outcome.probability == pytest.approx(1 / 16, abs=1e-9)
    vec, leakage = decode(outcome.conditional_state, enc)
    assert leakage < 1e-9
    assert abs(vec[int(want, 2)]) == pytest.approx(1.0, abs=1e-9)


def test_cnot_matches_reference_matrix_on_random_inputs():
    rng = np.random.default_rng(41)
    gate = cnot_from_cs()
    enc = Encoding("dual_rail", 2)
    reference = qubit_gate("CNOT")
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        [outcome] = gate.run(encode(v, enc))
        assert outcome.probability == pytest.approx(1 / 16, abs=1e-9)
        vec, leakage = decode(outcome.conditional_state, enc)
        assert leakage < 1e-9
        assert logical_fidelity(vec, reference @ v) >= 1 - 1e-9


# -- two-photon coincidence CNOT --------------------------------------------------

def test_two_photon_matrix_is_tightly_unitary():
    m = two_photon_cnot_matrix().matrix
    assert np.abs(m.conj().T @ m - np.eye(6)).max() <= 1e-12


def _expected_output_groups(al, be, ga, de):
    """Hand-computed output amplitudes of the six-mode network, keyed by
    occupation (c_H, c_V, t_H, t_V, v_c, v_t)."""
    return {
        (1, 0, 1, 0, 0, 0): al / 3,
        (1, 0, 0, 1, 0, 0): be / 3,
        (0, 1, 0, 1, 0, 0): ga / 3,
        (0, 1, 1, 0, 0, 0): de / 3,
        (0, 1, 0, 0, 1, 0): SQ2 * (al + be) / 3,
        (0, 0, 0, 0, 1, 1): SQ2 * (al - be) / 3,
        (1, 1, 0, 0, 0, 0): (al + be) / 3,
        (1, 0, 0, 0, 0, 1): (al - be) / 3,
        (0, 0, 1, 0, 1, 0): SQ2 * al / 3,
        (0, 0, 0, 1, 1, 0): SQ2 * be / 3,
        (0, 2, 0, 0, 0, 0): -SQ2 * (ga + de) / 3,
        (0, 1, 0, 0, 0, 1): -(ga - de) / 3,
        (0, 0, 2, 0, 0, 0): SQ2 * ga / 3,
        (0, 0, 1, 0, 0, 1): (ga - de) / 3,
        (0, 0, 1, 1, 0, 0): (ga + de) / 3,
        (0, 0, 0, 1, 0, 1): (ga - de) / 3,
        (0, 0, 0, 2, 0, 0): SQ2 * de / 3,
    }


def test_two_photon_output_coefficients():
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        al, be, ga, de = v
        inp = FockState(6, {
            (1, 0, 1, 0, 0, 0): al,
            (1, 0, 0, 1, 0, 0): be,
            (0, 1, 1, 0, 0, 0): ga,
            (0, 1, 0, 1, 0, 0): de,
        })
        out = evolve(inp, two_photon_cnot_matrix(), prune_tol=0.0)
        expected = _expected_output_groups(al, be, ga, de)
        for occ, want in expected.items():
            assert out.amplitude(occ) == pytest.approx(want, abs=1e-9)
        # nothing else occurs
        total = sum(abs(a) ** 2 for a in expected.values())
        assert out.norm() ** 2 == pytest.approx(total, abs=1e-9)


def test_two_photon_coincidence_probability_is_one_ninth():
    rng = np.random.default_rng(43)
    gate = two_photon_cnot()
    enc = Encoding("polarization", 2)
    for _ in range(5):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        [outcome] = gate.run(encode(v, enc))
        _, leakage = decode(outcome.conditional_state, enc)
        coincidence = outcome.probability * (1 - leakage)
        assert coincidence == pytest.approx(1 / 9, abs=1e-9)


@pytest.mark.parametrize(
    "bits,want",
    [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")],
)
def test_two_photon_truth_table(bits, want):
    gate = two_photon_cnot()
    enc = Encoding("polarization", 2)
    [outcome] = gate.run(encode(bits, enc))
    vec, _ = decode(outcome.conditional_state, enc)
    assert abs(vec[int(want, 2)]) == pytest.approx(1.0, abs=1e-12)


def test_two_photon_report():
    rep = evaluate_gate("cnot_2photon")
    assert rep["overall_success_probability"] == pytest.approx(1 / 9, abs=1e-9)
    assert all(r["fidelity"] >= 1 - 1e-9 for r in rep["inputs"])


def test_unknown_gate_name():
    with pytest.raises(ValueError, match="unknown gate"):
        build_gate("toffoli")


@pytest.mark.parametrize("computational_modes", [[0], [2, 0], [0, 1, 2]])
def test_computational_modes_must_be_the_free_modes(computational_modes):
    # the run places the input on the modes the ancilla leaves free, [0, 2]
    branch = OutcomeBranch(DetectionPattern({1: 1}))
    with pytest.raises(ValueError, match="leaves free"):
        GateCircuit("x", 3, {1: 1}, [], [branch], computational_modes)
    assert GateCircuit("x", 3, {1: 1}, [], [branch], [0, 2]).computational_modes == [0, 2]


# -- two cs stages in series -------------------------------------------------

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


def test_cs_cascade_is_the_identity():
    # CZ . CZ = I, heralded with probability (1/16)^2
    gate = cs_cascade()
    enc = gate.encoding
    rng = np.random.default_rng(44)
    inputs = list(np.eye(4, dtype=complex))
    for _ in range(6):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        inputs.append(v / np.linalg.norm(v))
    for v in inputs:
        [outcome] = gate.run(encode(v, enc))
        assert outcome.probability == pytest.approx(1 / 256, abs=1e-12)
        vec, leakage = decode(outcome.conditional_state, enc)
        assert leakage < 1e-9
        assert logical_fidelity(vec, v) >= 1 - 1e-9


@pytest.mark.parametrize("gate,evolve_calls", [
    (ns_gate(), 1), (two_photon_cnot(), 1), (cs_gate(), 0), (cs_cascade(), 0),
])
def test_heralded_runs_pick_their_route_by_size(gate, evolve_calls, monkeypatch):
    # ns (<= 10 basis terms per input term) and the two-photon CNOT (21) expand
    # the full output; the cs gate (330) and the cascade (12,376) compute only
    # the outputs their detectors keep
    calls = []
    full = measurement.evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(measurement, "evolve", counted)
    comp = FockState.from_occupation([1] if gate.encoding is None else [0, 1, 0, 1])
    gate.run(comp)
    assert len(calls) == evolve_calls


@pytest.mark.parametrize("build", [cs_gate, cnot_from_cs, cs_cascade])
def test_heralded_route_keeps_the_terms_evolve_keeps(build):
    # the survivors are the four dual-rail words; the leakage outputs the
    # heralded route also computes come out below PRUNE_TOL and are dropped
    gate = build()
    rng = np.random.default_rng(45)
    for _ in range(3):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        comp = encode(v / np.linalg.norm(v), gate.encoding)
        [got] = gate.run(comp)
        full = evolve(with_ancilla(comp, gate.ancilla, gate.num_modes), gate.transform)
        [(_, want)] = postselect_branches(full, gate.branches)
        assert got.probability == pytest.approx(want.probability, abs=1e-12)
        got_terms = dict(got.conditional_state.terms())
        assert got_terms.keys() == dict(want.conditional_state.terms()).keys()
        assert len(got_terms) == 4
        for occ, amp in want.conditional_state.terms():
            assert abs(got_terms[occ] - amp) < 1e-12
