import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
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
    postselect_branches,
    qubit_gate,
    two_photon_cnot,
    two_photon_cnot_matrix,
    with_ancilla,
)
from loqc import multiport

from helpers import cs_cascade

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
    full = multiport.evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(multiport, "evolve", counted)
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


# -- cached heralded runs ------------------------------------------------------

def _gate_inputs(gate, rng, count=6):
    """The gate's basis inputs and ``count`` Haar-random ones, as states on
    its computational modes."""
    dim = 3 if gate.encoding is None else gate.encoding.dim
    vecs = list(np.eye(dim, dtype=complex))
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vecs.append(v / np.linalg.norm(v))
    if gate.encoding is None:
        return [FockState(1, {(k,): a for k, a in enumerate(v) if a != 0}) for v in vecs]
    return [encode(v, gate.encoding) for v in vecs]


def _bits(results):
    """Every probability and conditional amplitude of a run, as hex."""
    out = []
    for res in results:
        out.append(res.probability.hex())
        if res.conditional_state is not None:
            out += [(occ, a.real.hex(), a.imag.hex()) for occ, a in res.conditional_state.terms()]
    return out


def _uncached(gate, comp):
    """The gate's route with nothing kept: plain ``evolve`` for ``ns`` and the
    two-photon CNOT, a fresh heralded evaluator for the others; then
    ``postselect_branches``."""
    full = with_ancilla(comp, gate.ancilla, gate.num_modes)
    if gate.name in ("ns", "cnot_2photon"):
        out = evolve(full, gate.transform)
    else:
        out = multiport._HeraldedEvolution(gate.transform, [b.pattern for b in gate.branches])(full)
    return [res for _, res in postselect_branches(out, gate.branches)]


@pytest.mark.parametrize("build", [ns_gate, cs_gate, cnot_from_cs, two_photon_cnot, cs_cascade])
def test_cached_runs_repeat_the_uncached_bits(build):
    gate = build()
    copy = replace(gate, name=gate.name + " copy")
    inputs = _gate_inputs(gate, np.random.default_rng(46))
    for circuit in (gate, copy):
        for _ in range(2):   # the first run fills the cache, the second reads it
            for comp in inputs:
                assert _bits(circuit.run(comp)) == _bits(_uncached(gate, comp))
    assert copy.__dict__.keys() >= {"transform", "_evolution"}
    assert copy._evolution is not gate._evolution
    on_evolve = gate.name in ("ns", "cnot_2photon")
    assert bool(gate._evolution.expansions) == on_evolve and bool(gate._evolution.columns) != on_evolve


@pytest.mark.parametrize("cost", [math.inf, -math.inf], ids=["evolve", "heralded"])
def test_a_branch_that_cannot_fire_gets_probability_zero(cost, monkeypatch):
    # 200 photons on one detector do not fit the int8 heralded rows; no
    # input of the gate has them, so no row may be written for them
    monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", cost)
    gate = cs_gate()
    impossible = OutcomeBranch(DetectionPattern({4: 200, 5: 0, 6: 1, 7: 0}))
    wider = replace(gate, branches=gate.branches + [impossible])
    for comp in _gate_inputs(gate, np.random.default_rng(49), count=2):
        *kept, last = wider.run(comp)
        assert (last.probability, last.conditional_state) == (0.0, None)
        assert _bits(kept) == _bits(gate.run(comp))


def test_replace_starts_with_an_empty_cache():
    gate = cs_gate()
    gate.run(encode(np.eye(4, dtype=complex)[3], gate.encoding))
    assert gate._evolution.size > 0
    copy = replace(gate)
    assert "_evolution" not in copy.__dict__ and "transform" not in copy.__dict__
    assert copy._evolution.size == 0


def test_gate_circuit_fields_cannot_be_reassigned():
    gate = cs_gate()
    with pytest.raises(FrozenInstanceError):
        gate.elements = []
    with pytest.raises(FrozenInstanceError):
        gate.branches = gate.branches[:1]


#: Numbers each gate's cache holds at a budget: cs and the cascade keep 10
#: Ryser sums per dual-rail word, ns 3, 6 and 10 expansion coefficients for
#: 0, 1 and 2 signal photons, the two-photon CNOT 21 per logical word. The
#: basis inputs come first, so a budget holds the first pieces that fit.
_HELD = {  # budget -> (cs, cascade, ns, two-photon CNOT)
    0: (0, 0, 0, 0), 12: (10, 10, 9, 0), 25: (20, 20, 19, 21), 40: (40, 40, 19, 21), 84: (40, 40, 19, 84),
}


@pytest.mark.parametrize("budget", sorted(_HELD))
def test_the_column_cache_stays_within_its_budget(budget, monkeypatch):
    # one budget for the Ryser columns and the evolve expansions; a piece that
    # was computed and that the cache does not hold was used and dropped
    computed = []
    ryser, expand = multiport._ryser_column, multiport._expand

    def counted_column(matrix, occ, outs):
        computed.append(occ)
        return ryser(matrix, occ, outs)

    def counted_expansion(occupations, photons, cols):
        computed.extend(map(tuple, occupations.tolist()))   # every mode of ns and the CNOT is active
        return expand(occupations, photons, cols)

    monkeypatch.setattr(multiport, "COLUMN_CACHE_BUDGET", budget)
    rng = np.random.default_rng(47)
    builds = (cs_gate, cs_cascade, ns_gate, two_photon_cnot)
    for build, held, full in zip(builds, _HELD[budget], _HELD[max(_HELD)]):
        gate = build()
        inputs = _gate_inputs(gate, rng, count=3)
        want = [_bits(_uncached(gate, comp)) for comp in inputs]
        monkeypatch.setattr(multiport, "_ryser_column", counted_column)
        monkeypatch.setattr(multiport, "_expand", counted_expansion)
        dropped = []
        for _ in range(2):
            for comp, bits in zip(inputs, want):
                assert _bits(gate.run(comp)) == bits
                cache = gate._evolution
                dropped += [occ for occ in computed if occ not in cache.columns and occ not in cache.expansions]
                computed.clear()
                assert cache.size == (sum(column.size for _, column in cache.columns.values())
                                      + sum(len(coeff) for coeff, _ in cache.expansions.values()))
                assert cache.size <= budget
        monkeypatch.setattr(multiport, "_ryser_column", ryser)
        monkeypatch.setattr(multiport, "_expand", expand)
        assert cache.size == held
        assert bool(dropped) == (held < full)


def test_a_run_computes_one_column_per_new_occupation(monkeypatch):
    calls = []
    ryser = multiport._ryser_column

    def counted(matrix, occ, outs):
        calls.append(occ)
        return ryser(matrix, occ, outs)

    monkeypatch.setattr(multiport, "_ryser_column", counted)
    gate = cs_gate()
    gate.run(encode(np.eye(4, dtype=complex)[0], gate.encoding))
    assert len(calls) == 1
    v = np.array([1, 1j, -1, 0.5]) / math.sqrt(3.25)
    comp = encode(v, gate.encoding)
    assert comp.num_terms() == 4
    gate.run(comp)
    assert len(calls) == len(set(calls)) == 4   # the three dual-rail words not seen yet
    gate.run(encode(v[::-1], gate.encoding))
    assert len(calls) == 4   # a warm run computes no permanent
    assert set(calls) == {occ for occ, _ in with_ancilla(comp, gate.ancilla, gate.num_modes).terms()}


def test_a_warm_evolve_route_run_expands_no_photon(monkeypatch):
    # ns takes evolve on every run, once per run, and expands only the
    # occupations its evaluator has not seen
    evolved, expanded = [], []
    full, expand = multiport.evolve, multiport._expand

    def counted_evolve(*args, **kwargs):
        evolved.append(args)
        return full(*args, **kwargs)

    def counted_expansion(occupations, photons, cols):
        expanded.extend(map(tuple, occupations.tolist()))
        return expand(occupations, photons, cols)

    monkeypatch.setattr(multiport, "evolve", counted_evolve)
    monkeypatch.setattr(multiport, "_expand", counted_expansion)
    gate = ns_gate()
    gate.run(FockState.from_occupation([1]))
    assert expanded == [(1, 1, 0)]
    superposition = FockState(1, {(0,): 0.6, (1,): 0.6j, (2,): -math.sqrt(0.28)})
    gate.run(superposition)
    assert sorted(expanded) == [(0, 1, 0), (1, 1, 0), (2, 1, 0)]   # the two not seen yet
    gate.run(superposition.scaled(1j))
    assert len(expanded) == 3 and len(evolved) == 3
