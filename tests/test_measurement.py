import math
import re
from dataclasses import replace

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    FockState,
    GateCircuit,
    ModeTransform,
    OutcomeBranch,
    evolve,
    input_independence_check,
    ns_gate,
    ns_matrix,
    outcome_distribution,
    permanent_amplitude,
    postselect,
    postselect_branches,
    with_ancilla,
)
from loqc import measurement, multiport
from loqc.fock import NORM_ATOL

from helpers import random_state, random_unitary, state_distance

SQ2 = math.sqrt(2)

# exact per-photon-count conditional amplitudes of the sign-shift network
_U, _V, _W, _R = 1 - SQ2, 2 ** -0.25, math.sqrt(3 / SQ2 - 2), 0.5 - 1 / SQ2
CASE3_CONDITIONALS = (_R, _U * _R + _V * _W, _U * _U * _R + 2 * _U * _V * _W)


def uniform_signal_with_ancilla() -> FockState:
    signal = FockState(1, {(0,): 1, (1,): 1, (2,): 1}).scaled(1 / math.sqrt(3))
    return with_ancilla(signal, {1: 1, 2: 0}, 3)


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
    res = postselect(with_ancilla(psi, {1: 1}, 2), DetectionPattern({1: 1}))
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


@pytest.mark.parametrize("call,message", [
    (lambda: DetectionPattern({0: -1}), "photon counts must be non-negative"),
    (lambda: DetectionPattern({0: 1, 1: 0}).survivors(2), "pattern must leave at least one surviving mode"),
    (lambda: postselect_branches(FockState.from_occupation([1, 0]), []), "at least one branch is required"),
    (lambda: outcome_distribution(FockState.from_occupation([1, 0]), [0, 2]), "mode 2 out of range for 2 modes"),
    (lambda: with_ancilla(FockState.from_occupation([1, 0]), {1: 0}, 2),
     "computational state has 2 modes, expected 1"),
], ids=["negative-count", "no-survivor", "no-branch", "outcome-mode", "ancilla-register"])
def test_measurement_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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


def test_overlap_diagnostic_names_the_first_pair_of_the_double_loop():
    # the first overlapping pair: the least i, then the least j > i
    rng = np.random.default_rng(62)
    state = FockState.from_occupation([1, 0, 0, 0, 0])
    found = 0
    for _ in range(400):
        patterns = []
        for _ in range(rng.integers(2, 9)):
            modes = rng.choice(4, size=rng.integers(1, 4), replace=False) + 1
            patterns.append(DetectionPattern({int(m): int(rng.integers(0, 2)) for m in modes}))
        pairs = [(i, j) for i in range(len(patterns)) for j in range(i + 1, len(patterns))
                 if not patterns[i].conflicts_with(patterns[j])]
        branches = [OutcomeBranch(p, label=f"b{i}" if i % 2 else "") for i, p in enumerate(patterns)]
        if not pairs:
            postselect_branches(state, branches)
            continue
        found += 1
        a, b = (branches[k] for k in pairs[0])
        message = (f"branch patterns overlap: '{a.label or a.pattern.describe()}' "
                   f"and '{b.label or b.pattern.describe()}'")
        with pytest.raises(ValueError) as err:
            postselect_branches(state, branches)
        assert str(err.value) == message
    assert 50 < found < 400


def test_a_correction_of_the_wrong_size_fails_whatever_the_branch_keeps():
    # the size is checked before the state is read, on either route, so a
    # branch that keeps nothing fails as one that keeps terms does
    rng = np.random.default_rng(63)
    wrong = ModeTransform(random_unitary(rng, 5))   # each pattern leaves 4 of 5 modes
    small = FockState.from_occupation([1, 1, 0, 0, 0])
    large = evolve(FockState.from_occupation([3, 3, 0, 0, 0]), ModeTransform(random_unitary(rng, 5)))
    assert small.num_terms() < measurement.ARRAY_ROUTE_TERMS <= large.num_terms()
    for state in (small, large):
        for count in (1, 9):   # probability above 0, and 0
            [(_, res)] = postselect_branches(state, [OutcomeBranch(DetectionPattern({0: count}))])
            assert (res.probability > 0.0) == (count == 1)
            with pytest.raises(ValueError) as err:
                postselect_branches(state, [OutcomeBranch(DetectionPattern({0: count}), wrong)])
            assert str(err.value) == f"branch '0={count}' has a 5-mode correction but 4 surviving modes"
    # a pattern outside the register is reported first
    with pytest.raises(ValueError, match="out of range"):
        postselect_branches(small, [OutcomeBranch(DetectionPattern({0: 1}), wrong),
                                    OutcomeBranch(DetectionPattern({0: 0, 7: 0}))])


def test_a_family_checked_for_another_register_is_checked_again():
    branches = [OutcomeBranch(DetectionPattern({1: 1, 2: 0}), ModeTransform(np.eye(1)), label="fired"),
                OutcomeBranch(DetectionPattern({1: 0, 2: 0})), OutcomeBranch(DetectionPattern({1: 2}))]
    family = measurement._check_branches(branches, 3)
    assert list(family) == branches
    for state in (FockState.from_occupation([1, 1]), FockState.from_occupation([1, 1, 0, 0])):
        errors = []
        for given in (branches, family):
            with pytest.raises(ValueError) as info:
                postselect_branches(state, given)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
    assert errors[0][1] == "branch 'fired' has a 1-mode correction but 2 surviving modes"
    # with no correction the family fits a wider register, checked for it
    plain = measurement._check_branches(branches[1:], 3)
    state = FockState(4, {(1, 0, 0, 1): 0.6, (0, 2, 0, 0): 0.8})
    got, want = postselect_branches(state, plain), postselect_branches(state, branches[1:])
    assert [(r.probability, list(r.conditional_state.terms())) for _, r in got] \
        == [(r.probability, list(r.conditional_state.terms())) for _, r in want]


def test_a_checked_family_cannot_be_edited_in_place():
    branches = [OutcomeBranch(DetectionPattern({1: 1, 2: 0})), OutcomeBranch(DetectionPattern({1: 2})),
                OutcomeBranch(DetectionPattern({1: 0, 2: 0}))]
    family = measurement._check_branches(branches, 3)
    assert (family.num_modes, dict(family.groups), dict(family.survivors)) == \
        (3, {(1, 2): (0, 2), (1,): (1,)}, {(1, 2): (0,), (1,): (0, 2)})
    for table in (family.groups, family.survivors):
        with pytest.raises(TypeError):
            table[(1,)] = (0,)
        with pytest.raises(AttributeError):
            table[(1, 2)].append(1)
    with pytest.raises(AttributeError):
        family.append(branches[0])


def _groups(patterns):
    """The indices of the patterns on each tuple of measured modes, as
    ``postselect_branches`` groups them for ``_first_overlap``."""
    groups = {}
    for i, p in enumerate(patterns):
        groups.setdefault(p.modes, []).append(i)
    return groups


def test_overlap_check_takes_counts_linear_in_the_branches(monkeypatch):
    # 2N patterns in two groups of measured modes, none overlapping: each of
    # the three pairs of groups (a group with itself included) takes its
    # members' counts once each, 3 x 2N in all, where comparing every pair
    # takes 2N (2N - 1) / 2 comparisons
    taken = []
    counts_on = measurement._counts_on

    def counted(modes):
        counts = counts_on(modes)
        return lambda occ: taken.append(occ) or counts(occ)

    monkeypatch.setattr(measurement, "_counts_on", counted)
    for n in (500, 2000):
        taken.clear()
        patterns = [DetectionPattern({1: k}) for k in range(n)]
        patterns += [DetectionPattern({1: n + k, 2: 0}) for k in range(n)]
        assert measurement._first_overlap(patterns, _groups(patterns)) is None
        assert len(taken) == 3 * 2 * n
    # an overlapping pair found through the table of the other group
    patterns = [DetectionPattern({1: 0, 2: 0}), DetectionPattern({1: 1}), DetectionPattern({1: 0})]
    assert measurement._first_overlap(patterns, _groups(patterns)) == (0, 2)


def _per_branch_reference(state, branches):
    """The per-branch loop ``postselect_branches`` replaced: every branch
    reads every term of the state, in ``terms()`` order."""
    terms = list(state.terms())
    results = []
    for branch in branches:
        pattern = branch.pattern
        survivors = pattern.survivors(state.num_modes)
        wanted = tuple(c for _, c in pattern.constraints)
        kept, prob = {}, 0.0
        for occ, amp in terms:
            if tuple(occ[m] for m in pattern.modes) == wanted:
                prob += abs(amp) ** 2
                kept[tuple(occ[m] for m in survivors)] = amp
        cond = None
        if prob > measurement.PROB_FLOOR:
            cond = FockState._wrap(len(survivors), kept).scaled(1.0 / math.sqrt(prob))
            if branch.correction is not None:
                cond = evolve(cond, branch.correction)
        results.append((prob, cond))
    return results


def _bits(state):
    """A state's terms in stored order, each amplitude as its exact bits."""
    if state is None:
        return None
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state._amp.items()]


def _exclusive_branches(rng, num_modes, photons, corrected):
    """Up to 12 random patterns on up to two modes each, kept when they
    conflict with every pattern kept before, so they may share a port set
    or not; each carries a random correction when ``corrected``."""
    patterns = []
    for _ in range(12):
        modes = rng.choice(num_modes, size=int(rng.integers(1, min(2, num_modes - 1) + 1)), replace=False)
        p = DetectionPattern({int(m): int(rng.integers(0, photons + 1)) for m in modes})
        if all(p.conflicts_with(q) for q in patterns):
            patterns.append(p)
    branches = []
    for p in patterns:
        survivors = num_modes - len(p.modes)
        correction = ModeTransform(random_unitary(rng, survivors)) if corrected and rng.random() < 0.7 else None
        branches.append(OutcomeBranch(p, correction))
    return branches


def test_grouped_postselection_matches_the_per_branch_loop():
    rng = np.random.default_rng(17)
    groups_seen = set()
    for i in range(240):
        m = int(rng.integers(2, 6))
        if i % 2 == 0:
            state = random_state(rng, m, 2, terms=int(rng.integers(1, 13)))
        else:
            state = evolve(random_state(rng, m, 2, terms=int(rng.integers(1, 4))),
                           ModeTransform(random_unitary(rng, m)))
        if i % 4 < 2:   # one port set: every count combination on it
            modes = sorted(int(k) for k in rng.choice(m, size=int(rng.integers(1, m)), replace=False))
            keys = list(outcome_distribution(state, modes)) if state.num_terms() else [(0,) * len(modes)]
            branches = [OutcomeBranch(DetectionPattern(dict(zip(modes, key))),
                                      ModeTransform(random_unitary(rng, m - len(modes)))
                                      if i % 8 < 4 else None)
                        for key in keys]
        else:
            branches = _exclusive_branches(rng, m, 4, corrected=i % 8 >= 4)
        groups_seen.add(len({b.pattern.modes for b in branches}))
        got = postselect_branches(state, branches)
        want = _per_branch_reference(state, branches)
        assert [b for b, _ in got] == branches
        for (_, res), (prob, cond) in zip(got, want):
            assert res.probability.hex() == prob.hex()
            assert _bits(res.conditional_state) == _bits(cond)
    assert {1, 2, 3} <= groups_seen


def test_postselection_reads_given_runs_to_the_same_bits():
    # the runs of an outcome distribution on the branches' one port set, at
    # sizes on both sides of ARRAY_ROUTE_TERMS; and branches on another port set
    rng = np.random.default_rng(19)
    for m, photons in ((4, 2), (5, 3), (7, 4), (8, 5)):
        state = evolve(FockState.from_occupation([photons] + [0] * (m - 1)),
                       ModeTransform(random_unitary(rng, m)))
        modes = sorted(int(k) for k in rng.choice(m, size=2, replace=False))
        keys = list(outcome_distribution(state, modes))
        branches = [OutcomeBranch(DetectionPattern(dict(zip(modes, key))),
                                  ModeTransform(random_unitary(rng, m - 2)) if k % 2 else None)
                    for k, key in enumerate(keys)]
        other = [OutcomeBranch(DetectionPattern({modes[0]: c})) for c in range(photons + 1)]
        for family in (branches, other):
            want = _per_branch_reference(state, family)
            runs = measurement._runs(state, modes, measurement._squares(state))
            got = postselect_branches(state, family, _runs=(modes, runs))
            assert [b for b, _ in got] == family
            for (_, res), (prob, cond) in zip(got, want):
                assert res.probability.hex() == prob.hex()
                assert _bits(res.conditional_state) == _bits(cond)


def _nested_branches(rng, num_modes, photons, corrected):
    """Patterns on three nested port sets (a; a, b; a, b, c) that together
    keep every term: a = 1..photons, then a = 0 with b = 1..photons, then
    a = b = 0 with every count of c; a correction on the ones marked."""
    a, b, c = (int(k) for k in rng.choice(num_modes, size=3, replace=False))
    patterns = [{a: k} for k in range(1, photons + 1)]
    patterns += [{a: 0, b: k} for k in range(1, photons + 1)]
    patterns += [{a: 0, b: 0, c: k} for k in range(photons + 1)]
    branches = []
    for i, counts in enumerate(patterns):
        correction = ModeTransform(random_unitary(rng, num_modes - len(counts))) if corrected and i % 2 else None
        branches.append(OutcomeBranch(DetectionPattern(counts), correction))
    return branches


@pytest.mark.parametrize("modes, photons", [(8, 4), (8, 6), (9, 5), (10, 4), (10, 5)])
def test_both_postselection_routes_match_the_per_branch_loop(modes, photons, monkeypatch):
    # evolve outputs above ARRAY_ROUTE_TERMS, read as rows and, with the
    # crossover moved past them, term by term
    rng = np.random.default_rng(modes * 10 + photons)
    occ = [0] * modes
    for k in rng.choice(modes, size=photons):
        occ[k] += 1
    state = evolve(FockState.from_occupation(occ), ModeTransform(random_unitary(rng, modes)))
    assert state.num_terms() >= measurement.ARRAY_ROUTE_TERMS
    families = [_nested_branches(rng, modes, photons, corrected) for corrected in (False, True)]
    families += [_exclusive_branches(rng, modes, photons, corrected) for corrected in (False, True)]
    families.append([OutcomeBranch(DetectionPattern({0: photons + 1})),    # keeps nothing
                     OutcomeBranch(DetectionPattern({0: 10 ** 30, 1: 0}))])
    families.append([OutcomeBranch(DetectionPattern({}))])                  # keeps every term
    for branches in families:
        want = _per_branch_reference(state, branches)
        for crossover in (measurement.ARRAY_ROUTE_TERMS, state.num_terms() + 1):
            monkeypatch.setattr(measurement, "ARRAY_ROUTE_TERMS", crossover)
            got = postselect_branches(state, branches)
            for (_, res), (prob, cond) in zip(got, want):
                assert res.probability.hex() == prob.hex()
                assert _bits(res.conditional_state) == _bits(cond)
    assert len({b.pattern.modes for b in families[0]}) == 3


def test_the_row_route_sorts_once_per_port_set(monkeypatch):
    passes, squared = [], []
    runs, squares = measurement._runs, measurement._squares

    def counted(state, modes, squared_terms):
        passes.append(len(modes))
        return runs(state, modes, squared_terms)

    def counted_squares(state):
        squared.append(state.num_terms())
        return squares(state)

    monkeypatch.setattr(measurement, "_runs", counted)
    monkeypatch.setattr(measurement, "_squares", counted_squares)
    rng = np.random.default_rng(8)
    state = evolve(FockState.from_occupation((2, 1, 0, 1, 0, 0, 0, 1)), ModeTransform(random_unitary(rng, 8)))
    assert state.num_terms() == 792 >= measurement.ARRAY_ROUTE_TERMS
    branches = _nested_branches(rng, 8, 5, corrected=True)   # 16 branches, 3 port sets
    results = postselect_branches(state, branches)
    assert sum(r.probability for _, r in results) == pytest.approx(1.0, abs=1e-12)
    assert sorted(passes) == [1, 2, 3]
    assert squared == [792]   # the magnitudes are squared once per call


def test_the_row_route_on_many_measured_modes():
    # patterns on 44 of 45 modes
    rng = np.random.default_rng(45)
    state = evolve(FockState.from_occupation([1, 1] + [0] * 43), ModeTransform(random_unitary(rng, 45)))
    assert state.num_terms() == 1035
    measured = list(range(1, 45))
    branches = [OutcomeBranch(DetectionPattern(dict(zip(measured, key))))
                for key in outcome_distribution(state, measured)][::40]
    got = postselect_branches(state, branches)
    for (_, res), (prob, cond) in zip(got, _per_branch_reference(state, branches)):
        assert res.probability.hex() == prob.hex()
        assert _bits(res.conditional_state) == _bits(cond)


def test_an_overflowing_probability_is_one_error_on_every_route(monkeypatch):
    # a valid state whose squared amplitudes overflow a float
    rng = np.random.default_rng(330)
    state = evolve(FockState.from_occupation((1, 1, 1, 1, 0, 0, 0, 0)), ModeTransform(random_unitary(rng, 8)))
    assert state.num_terms() == 330
    big = state.scaled(1e200)
    lopsided = FockState(2, {(0, 1): 1e200, (1, 0): 0.6})
    for crossover in (0, big.num_terms() + 1):   # every state as rows, then term by term
        monkeypatch.setattr(measurement, "ARRAY_ROUTE_TERMS", crossover)
        with pytest.raises(ValueError, match="overflow"):
            postselect_branches(big, [OutcomeBranch(DetectionPattern({0: 1}))])
        # only an outcome that no branch selects overflows: both routes return the rest
        [(_, res)] = postselect_branches(lopsided, [OutcomeBranch(DetectionPattern({0: 1}))])
        assert res.probability == abs(0.6) ** 2
        assert res.conditional_state.amplitude([0]) == 1.0
    with pytest.raises(ValueError, match="overflow"):
        outcome_distribution(big, [0])
    for call in (big.norm, big.normalized):
        with pytest.raises(ValueError, match="overflow"):
            call()
    # scaled back down, the same terms measure again
    assert big.scaled(1e-200).norm() == pytest.approx(1.0, abs=1e-12)


def test_postselection_reads_the_terms_once_per_port_set(monkeypatch):
    # 7 branches in 2 port sets on a 56-term state: the measured counts of
    # 2 x 56 terms are read, where a scan per branch reads 7 x 56
    read = []
    counts_on = measurement._counts_on

    def counted(modes):
        counts = counts_on(modes)
        modes = tuple(modes)
        return lambda occ: (isinstance(occ, tuple) and read.append(modes)) or counts(occ)

    rng = np.random.default_rng(5)
    state = evolve(FockState.from_occupation((1, 1, 1, 0, 0, 0)), ModeTransform(random_unitary(rng, 6)))
    assert state.num_terms() == 56
    branches = [OutcomeBranch(DetectionPattern({0: k})) for k in (1, 2, 3)]
    branches += [OutcomeBranch(DetectionPattern({0: 0, 1: k})) for k in range(4)]
    monkeypatch.setattr(measurement, "_counts_on", counted)
    results = postselect_branches(state, branches)
    assert sum(r.probability for _, r in results) == pytest.approx(1.0, abs=1e-12)
    assert read.count((0,)) == read.count((0, 1)) == 56
    # every term is kept by exactly one branch, which reads its survivors once
    assert read.count((1, 2, 3, 4, 5)) + read.count((2, 3, 4, 5)) == 56
    assert len(read) == 3 * 56


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
            assert abs(res.conditional_state.norm() ** 2 - 1.0) <= NORM_ATOL


def _term_loop_distribution(state, modes):
    """The per-term loop ``outcome_distribution`` replaced: first-seen key
    order, each key's sum taken in ``state.terms()`` order from 0.0."""
    dist = {}
    for occ, amp in state.terms():
        key = tuple(occ[m] for m in modes)
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


def _loop_reference_states(rng):
    """400 states: dict-built with mixed photon numbers, and ``evolve``
    outputs through Haar networks, one in three with a spectator mode."""
    for i in range(400):
        m = int(rng.integers(1, 7))
        if i % 2 == 0:
            yield random_state(rng, m, int(rng.integers(0, 4)), terms=int(rng.integers(1, 13)))
            continue
        state = random_state(rng, m, 2, terms=int(rng.integers(1, 4)))
        matrix = random_unitary(rng, m)
        if i % 3 == 1 and m > 1:
            spectator = int(rng.integers(m))
            active = [k for k in range(m) if k != spectator]
            matrix = np.eye(m, dtype=complex)
            matrix[np.ix_(active, active)] = random_unitary(rng, m - 1)
        yield evolve(state, ModeTransform(matrix))


def test_outcome_distribution_matches_the_term_loop():
    rng = np.random.default_rng(15)
    checked = 0
    for state in _loop_reference_states(rng):
        m = state.num_modes
        subset = [int(k) for k in rng.permutation(m)[:int(rng.integers(1, m + 1))]]
        repeated = subset + [subset[int(rng.integers(len(subset)))]]
        for modes in ([], subset, repeated, list(range(m))):
            got = outcome_distribution(state, modes)
            want = _term_loop_distribution(state, modes)
            assert got.keys() == want.keys()
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
            assert list(got) == sorted(got)
        checked += 1
    assert checked == 400


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
        state = with_ancilla(signal, {1: int(rng.integers(0, 2))}, 2)
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
    report = input_independence_check(ns_gate(), probes)
    assert report.max_probability_deviation <= 1e-9
    assert all(p == pytest.approx(0.25, abs=1e-9) for p in report.probabilities[0])
    assert report.operationally_unitary


def test_identity_circuit_has_zero_deviation():
    probes = _fock_levels((1, 0, 0), (0, 1, 0), (1, 1, 0))
    branch = OutcomeBranch(DetectionPattern({1: 0}))
    report = input_independence_check(GateCircuit("identity", 2, {1: 0}, [], [branch], [0]), probes)
    assert report.max_probability_deviation <= 1e-15
    assert report.operationally_unitary


def test_no_photon_branch_is_flagged_input_dependent():
    probes = _fock_levels((1, 0, 0), (0, 0, 1))
    report = input_independence_check(
        replace(ns_gate(), branches=[OutcomeBranch(DetectionPattern({1: 0, 2: 0}))]), probes)
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

def _evolved(state, transform, branches):
    """``state`` through the heralded evaluator of the branches' patterns."""
    return multiport._HeraldedEvolution(transform, [b.pattern for b in branches])(state)


def _both_routes(monkeypatch, state, transform, branches):
    """postselect_branches after the heralded evaluator, forced onto each route."""
    passes = []
    ryser = multiport._ryser_column

    def counted(*args, **kwargs):
        passes.append(args)
        return ryser(*args, **kwargs)

    monkeypatch.setattr(multiport, "_ryser_column", counted)
    results, taken = [], []
    for cost in (math.inf, -math.inf):  # never / always worth the heralded route
        monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", cost)
        before = len(passes)
        out = _evolved(state, transform, branches)
        taken.append("heralded" if len(passes) > before else "evolve")
        results.append(postselect_branches(out, branches))
    assert taken == ["evolve", "heralded"]
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
    monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", -math.inf)
    out = _evolved(FockState.from_occupation(inp), transform, [OutcomeBranch(DetectionPattern({3: 1, 4: 0}))])
    assert out.num_terms() == math.comb(3 + 2, 2)   # 3 photons over 3 survivors
    for occ, amp in out.terms():
        assert occ[3:] == (1, 0)
        assert abs(amp - permanent_amplitude(inp, occ, transform)) < 1e-12


def test_independence_check_is_route_independent(monkeypatch):
    probes = _fock_levels((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    circuit = replace(ns_gate(), branches=[OutcomeBranch(DetectionPattern({1: 1, 2: 0})),
                                           OutcomeBranch(DetectionPattern({1: 0, 2: 1}))])
    reports = []
    for cost in (math.inf, -math.inf):
        monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", cost)
        reports.append(input_independence_check(circuit, probes))
    full, heralded = reports
    assert np.abs(np.array(full.probabilities) - np.array(heralded.probabilities)).max() < 1e-12
    assert abs(full.max_gram_deviation - heralded.max_gram_deviation) < 1e-12
    assert full.operationally_unitary == heralded.operationally_unitary


@pytest.mark.parametrize("photons,modes,per_product,fixed,route", [
    # 50,388 heralded outputs of 77,520, each over a 128-point s-grid
    pytest.param(7, 14, None, 0, "evolve", id="7-14-evolve"),
    # a 4,096-point s-grid per output outgrows the basis
    pytest.param(12, 12, None, 0, "evolve", id="12-12-evolve"),
    # tiny inputs: the fixed cost of the heralded route dominates
    pytest.param(1, 3, None, 0, "evolve", id="1-3-evolve"),
    # the s-grid free of charge and 12 more detectors, so one heralded output
    # costs 256 against 14 x C(26, 13): only MAX_RYSER_GRID keeps an
    # 8,192-point s-grid off the heralded route
    pytest.param(13, 14, 0, 12, "evolve", id="13-14-over-MAX_RYSER_GRID-evolve"),
])
def test_one_detector_route_weighs_the_s_grid(photons, modes, per_product, fixed, route, monkeypatch):
    # detectors on the last mode (no photon) and on the first ``fixed`` modes (one each)
    taken = []
    monkeypatch.setattr(multiport, "evolve", lambda *a, **kw: taken.append("evolve"))
    monkeypatch.setattr(multiport, "_heralded_outputs",
                        lambda *a: taken.append("heralded") or np.zeros((0, a[2]), dtype=np.int8))
    if per_product is not None:
        monkeypatch.setattr(multiport, "HERALDED_COST_PER_PRODUCT", per_product)
    state = FockState.from_occupation([1] * photons + [0] * (modes - photons))
    transform = ModeTransform(np.eye(modes))
    pattern = DetectionPattern({modes - 1: 0, **{k: 1 for k in range(fixed)}})
    _evolved(state, transform, [OutcomeBranch(pattern)])
    assert taken == [route]
