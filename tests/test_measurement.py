import math

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    FockState,
    ModeTransform,
    OutcomeBranch,
    evolve,
    input_independence_check,
    ns_matrix,
    outcome_distribution,
    permanent_amplitude,
    postselect,
    postselect_branches,
    with_ancilla,
)
from loqc import measurement
from loqc.measurement import evolve_for_branches

from helpers import random_state, random_unitary, state_distance

SQ2 = math.sqrt(2)

# exact per-photon-count conditional amplitudes of the sign-shift network
_U, _V, _W, _R = 1 - SQ2, 2 ** -0.25, math.sqrt(3 / SQ2 - 2), 0.5 - 1 / SQ2
CASE3_CONDITIONALS = (_R, _U * _R + _V * _W, _U * _U * _R + 2 * _U * _V * _W)


def uniform_signal_with_ancilla() -> FockState:
    signal = FockState(1, {(0,): 1, (1,): 1, (2,): 1}).scaled(1 / math.sqrt(3))
    return signal.tensor(FockState.from_occupation([1, 0]))


def test_sign_shift_postselection_quarter_probability():
    out = evolve(uniform_signal_with_ancilla(), ns_matrix())
    res = postselect(out, DetectionPattern({1: 1, 2: 0}))
    assert res.probability == pytest.approx(0.25, abs=1e-9)
    cond = res.conditional_state
    assert cond.num_modes == 1
    assert cond.amplitude([0]) == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert cond.amplitude([1]) == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert cond.amplitude([2]) == pytest.approx(-1 / math.sqrt(3), abs=1e-9)


def test_trivial_ancilla_postselection():
    psi = FockState(1, {(0,): 0.6, (1,): 0.8})
    res = postselect(psi.tensor(FockState.from_occupation([1])), DetectionPattern({1: 1}))
    assert res.probability == pytest.approx(1.0)
    assert (res.conditional_state - psi).norm() < 1e-12


def test_impossible_pattern_yields_zero_probability():
    state = FockState.from_occupation([1, 1])
    res = postselect(state, DetectionPattern({1: 2}))
    assert res.probability == 0.0
    assert res.conditional_state is None


def test_pattern_mode_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        postselect(FockState.from_occupation([1, 0]), DetectionPattern({5: 1}))


def test_single_identity_branch_reduces_to_postselect():
    out = evolve(uniform_signal_with_ancilla(), ns_matrix())
    pattern = DetectionPattern({1: 1, 2: 0})
    [(branch, res)] = postselect_branches(out, [OutcomeBranch(pattern)])
    direct = postselect(out, pattern)
    assert res.probability == pytest.approx(direct.probability)
    assert (res.conditional_state - direct.conditional_state).norm() < 1e-12


def test_identical_patterns_are_rejected():
    state = FockState.from_occupation([1, 0])
    branches = [
        OutcomeBranch(DetectionPattern({1: 0})),
        OutcomeBranch(DetectionPattern({1: 0})),
    ]
    with pytest.raises(ValueError, match="overlap"):
        postselect_branches(state, branches)


def test_compatible_but_distinct_patterns_are_rejected():
    state = FockState.from_occupation([1, 0, 0])
    branches = [
        OutcomeBranch(DetectionPattern({1: 0})),
        OutcomeBranch(DetectionPattern({2: 0})),
    ]
    with pytest.raises(ValueError, match="overlap"):
        postselect_branches(state, branches)


def test_sign_shift_case_branch_masses():
    # uniform three-level signal: the heralded branch carries 1/4, the
    # photon-in-detector-2 branch carries the mean of the squared
    # conditional amplitudes of that case
    out = evolve(uniform_signal_with_ancilla(), ns_matrix())
    branches = [
        OutcomeBranch(DetectionPattern({1: 1, 2: 0}), label="heralded"),
        OutcomeBranch(DetectionPattern({1: 0, 2: 1}), label="lower-detector"),
    ]
    results = dict((b.label, r) for b, r in postselect_branches(out, branches))
    assert results["heralded"].probability == pytest.approx(0.25, abs=1e-9)
    want = sum(a * a for a in CASE3_CONDITIONALS) / 3
    assert results["lower-detector"].probability == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(0.0878908681, abs=1e-9)


def test_branch_probabilities_are_complete_and_exclusive():
    rng = np.random.default_rng(31)
    for _ in range(5):
        state = random_state(rng, 3, 2)
        if state.norm() == 0:
            continue
        state = state.normalized()[0]
        out = evolve(state, ModeTransform(random_unitary(rng, 3)))
        dist = outcome_distribution(out, [1, 2])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        branches = [OutcomeBranch(DetectionPattern({1: p[0], 2: p[1]})) for p in dist]
        results = postselect_branches(out, branches)
        assert sum(r.probability for _, r in results) == pytest.approx(1.0, abs=1e-9)
        # exclusivity: each term lands in exactly one branch
        n_terms = sum(
            r.conditional_state.num_terms() for _, r in results if r.conditional_state
        )
        assert n_terms == out.num_terms()


def test_conditional_states_are_normalized():
    rng = np.random.default_rng(32)
    state = random_state(rng, 3, 2).normalized()[0]
    out = evolve(state, ModeTransform(random_unitary(rng, 3)))
    for pattern, _ in outcome_distribution(out, [2]).items():
        res = postselect(out, DetectionPattern({2: pattern[0]}))
        if res.probability > 1e-12:
            assert res.conditional_state.is_normalized()


# -- density-operator oracle ---------------------------------------------

def _density_postselect(state: FockState, transform: ModeTransform, count: int):
    """Postselection via explicit density-matrix arithmetic on two modes.

    Builds rho = |psi><psi| over a truncated occupation basis, conjugates
    by the transform's matrix representation, projects onto mode-1 photon
    count, and partial-traces the measured mode.
    """
    max_total = max(sum(occ) for occ, _ in state.terms())
    basis = [
        (n0, n1)
        for n0 in range(max_total + 1)
        for n1 in range(max_total + 1)
        if n0 + n1 <= max_total
    ]
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)

    psi = np.zeros(dim, dtype=complex)
    for occ, amp in state.terms():
        psi[index[occ]] = amp
    rho = np.outer(psi, psi.conj())

    u = np.zeros((dim, dim), dtype=complex)
    for occ, col in index.items():
        evolved = evolve(FockState.from_occupation(occ), transform, prune_tol=0.0)
        for out_occ, amp in evolved.terms():
            u[index[out_occ], col] = amp

    proj = np.diag([1.0 if occ[1] == count else 0.0 for occ in basis]).astype(complex)
    rho_out = u @ rho @ u.conj().T
    prob = float(np.trace(rho_out @ proj).real)
    kept = proj @ rho_out @ proj

    reduced = np.zeros((max_total + 1, max_total + 1), dtype=complex)
    for (n0, n1), i in index.items():
        if n1 != count:
            continue
        for (m0, m1), j in index.items():
            if m1 != count:
                continue
            reduced[n0, m0] += kept[i, j]
    return prob, reduced


def test_pure_state_rule_matches_density_oracle():
    rng = np.random.default_rng(33)
    for _ in range(20):
        signal = FockState(1, {(n,): complex(rng.normal(), rng.normal()) for n in range(3)})
        signal = signal.normalized()[0]
        ancilla = FockState.from_occupation([int(rng.integers(0, 2))])
        state = signal.tensor(ancilla)
        transform = ModeTransform(random_unitary(rng, 2))
        count = int(rng.integers(0, 3))

        out = evolve(state, transform, prune_tol=0.0)
        res = postselect(out, DetectionPattern({1: count}))
        prob, reduced = _density_postselect(state, transform, count)

        assert res.probability == pytest.approx(prob, abs=1e-10)
        if res.probability > 1e-9:
            cond = res.conditional_state
            vec = np.array([cond.amplitude([n]) for n in range(reduced.shape[0])])
            assert np.abs(reduced / prob - np.outer(vec, vec.conj())).max() < 1e-10


# -- input independence -----------------------------------------------------

def _fock_levels(*amplitude_sets):
    states = []
    for amps in amplitude_sets:
        state = FockState(1, {(n,): a for n, a in enumerate(amps) if a != 0})
        states.append(state.normalized()[0])
    return states


def test_sign_shift_heralded_branch_is_input_independent():
    probes = _fock_levels((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    report = input_independence_check(
        ns_matrix(), {1: 1, 2: 0},
        [OutcomeBranch(DetectionPattern({1: 1, 2: 0}))],
        probes,
    )
    assert report.max_probability_deviation <= 1e-9
    assert all(p == pytest.approx(0.25, abs=1e-9) for p in report.probabilities[0])
    assert report.operationally_unitary


def test_identity_circuit_has_zero_deviation():
    probes = _fock_levels((1, 0, 0), (0, 1, 0), (1, 1, 0))
    report = input_independence_check(
        ModeTransform(np.eye(2)), {1: 0},
        [OutcomeBranch(DetectionPattern({1: 0}))],
        probes,
    )
    assert report.max_probability_deviation <= 1e-15
    assert report.operationally_unitary


def test_no_photon_branch_is_flagged_input_dependent():
    probes = _fock_levels((1, 0, 0), (0, 0, 1))
    report = input_independence_check(
        ns_matrix(), {1: 1, 2: 0},
        [OutcomeBranch(DetectionPattern({1: 0, 2: 0}))],
        probes,
    )
    # vacuum input keeps its ancilla photon far more often than the
    # two-photon input does
    p_vac, p_two = report.probabilities[0]
    assert p_vac == pytest.approx(1 / SQ2, abs=1e-9)
    assert p_two == pytest.approx((math.sqrt(3) * _U * _U * _V) ** 2, abs=1e-9)
    assert report.max_probability_deviation > 0.5
    assert not report.operationally_unitary


def test_ancilla_interleaving():
    comp = FockState.from_occupation([2, 3])
    full = with_ancilla(comp, {1: 1, 3: 0}, 4)
    assert full.amplitude([2, 1, 3, 0]) == pytest.approx(1.0)


# -- heralded route vs full evolve -------------------------------------------

def _both_routes(monkeypatch, state, transform, branches):
    """postselect_branches after evolve_for_branches, forced onto each route."""
    taken = []
    ryser = measurement.transition_amplitudes

    def counted(*args, **kwargs):
        taken.append("heralded")
        return ryser(*args, **kwargs)

    monkeypatch.setattr(measurement, "transition_amplitudes", counted)
    results = []
    for cost in (math.inf, -math.inf):  # never / always worth the heralded route
        monkeypatch.setattr(measurement, "HERALDED_COST_PER_TERM", cost)
        out = evolve_for_branches(state, transform, branches)
        results.append(postselect_branches(out, branches))
    assert taken == ["heralded"]
    return results


def _assert_same_results(full, heralded):
    for (_, a), (_, b) in zip(full, heralded, strict=True):
        assert abs(a.probability - b.probability) < 1e-12
        if a.conditional_state is None:
            assert b.conditional_state is None
            continue
        assert {o for o, _ in a.conditional_state.terms()} == {o for o, _ in b.conditional_state.terms()}
        assert state_distance(a.conditional_state, b.conditional_state) < 1e-12


def _mixed_input(rng, m):
    """Repeated occupations at three photon numbers, e.g. |2,1,0...>."""
    occs = [(2, 1) + (0,) * (m - 2), (1, 1, 1) + (0,) * (m - 3), (1,) + (0,) * (m - 1),
            (0,) * (m - 2) + (0, 2), (0, 0, 2) + (0,) * (m - 3)]
    return FockState(m, {o: complex(rng.normal(), rng.normal()) for o in occs}).normalized()[0]


@pytest.mark.parametrize("m", range(3, 9))
def test_heralded_route_matches_evolve_on_haar_unitaries(m, monkeypatch):
    rng = np.random.default_rng(50 + m)
    transform = ModeTransform(random_unitary(rng, m))
    state = _mixed_input(rng, m)
    a, b = m - 2, m - 1
    survivors = m - 2
    branches = [
        OutcomeBranch(DetectionPattern({a: 1, b: 0})),
        OutcomeBranch(DetectionPattern({a: 0, b: 1}), ModeTransform(random_unitary(rng, survivors))),
        OutcomeBranch(DetectionPattern({a: 0, b: 0}), ModeTransform(random_unitary(rng, survivors))),
        OutcomeBranch(DetectionPattern({a: 2, b: 2})),   # four photons: more than any term holds
    ]
    full, heralded = _both_routes(monkeypatch, state, transform, branches)
    _assert_same_results(full, heralded)
    assert full[3][1].probability == 0.0 and full[3][1].conditional_state is None
    assert sum(r.probability for _, r in full) > 0.1


def test_heralded_route_on_single_mode_patterns(monkeypatch):
    rng = np.random.default_rng(60)
    for m in (3, 5, 7):
        transform = ModeTransform(random_unitary(rng, m))
        state = _mixed_input(rng, m)
        branches = [OutcomeBranch(DetectionPattern({0: c})) for c in range(4)]
        _assert_same_results(*_both_routes(monkeypatch, state, transform, branches))


def test_heralded_amplitudes_match_permanent_oracle(monkeypatch):
    rng = np.random.default_rng(61)
    transform = ModeTransform(random_unitary(rng, 5))
    inp = (2, 1, 0, 1, 0)
    monkeypatch.setattr(measurement, "HERALDED_COST_PER_TERM", -math.inf)
    out = evolve_for_branches(FockState.from_occupation(inp), transform,
                              [OutcomeBranch(DetectionPattern({3: 1, 4: 0}))])
    assert out.num_terms() == math.comb(3 + 2, 2)   # 3 photons over 3 survivors
    for occ, amp in out.terms():
        assert occ[3:] == (1, 0)
        assert abs(amp - permanent_amplitude(inp, occ, transform)) < 1e-12


def test_independence_check_is_route_independent(monkeypatch):
    probes = _fock_levels((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    branches = [OutcomeBranch(DetectionPattern({1: 1, 2: 0})),
                OutcomeBranch(DetectionPattern({1: 0, 2: 1}))]
    reports = []
    for cost in (math.inf, -math.inf):
        monkeypatch.setattr(measurement, "HERALDED_COST_PER_TERM", cost)
        reports.append(input_independence_check(ns_matrix(), {1: 1, 2: 0}, branches, probes))
    full, heralded = reports
    assert np.abs(np.array(full.probabilities) - np.array(heralded.probabilities)).max() < 1e-12
    assert abs(full.max_gram_deviation - heralded.max_gram_deviation) < 1e-12
    assert full.operationally_unitary == heralded.operationally_unitary


@pytest.mark.parametrize("photons,modes,route", [
    (7, 14, "evolve"),      # 50,388 heralded outputs of 77,520, each over a 128-point s-grid
    (12, 12, "evolve"),     # a 4,096-point s-grid per output outgrows the basis
    (1, 3, "evolve"),       # tiny inputs: the fixed cost of the heralded route dominates
])
def test_one_detector_route_weighs_the_s_grid(photons, modes, route, monkeypatch):
    taken = []
    monkeypatch.setattr(measurement, "evolve", lambda *a: taken.append("evolve"))
    monkeypatch.setattr(measurement, "transition_amplitudes", lambda *a: taken.append("heralded"))
    state = FockState.from_occupation([1] * photons + [0] * (modes - photons))
    transform = ModeTransform(np.eye(modes))
    evolve_for_branches(state, transform, [OutcomeBranch(DetectionPattern({modes - 1: 0}))])
    assert taken == [route]
