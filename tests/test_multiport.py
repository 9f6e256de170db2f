import math
import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    ElementSpec,
    FockState,
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
    postselect,
)
from loqc import multiport
from loqc.fock import PRUNE_TOL
from loqc.multiport import MAX_PHOTONS, transition_amplitudes

from helpers import random_state, random_unitary, state_distance

SQ2 = math.sqrt(2)


# -- element constructors -------------------------------------------------

def test_full_reflection_beam_splitter():
    m = beam_splitter(1.0).matrix
    assert np.allclose(m, np.diag([1.0, -1.0]))


def test_balanced_beam_splitter_matrix():
    m = beam_splitter(0.5).matrix
    want = np.array([[1, 1], [1, -1]]) / SQ2
    assert np.abs(m - want).max() < 1e-15


def test_beam_splitter_half_angle_parametrization():
    gamma = 1.234
    m = beam_splitter(math.cos(gamma / 2) ** 2).matrix
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    assert np.allclose(m, [[c, s], [s, -c]])


def test_beam_splitter_rejects_bad_reflectivity():
    for eta in (-0.1, 1.1):
        with pytest.raises(ValueError, match="eta"):
            beam_splitter(eta)


def test_balanced_splitter_is_an_involution():
    bs = beam_splitter(0.5)
    assert np.abs(bs.matrix @ bs.matrix - np.eye(2)).max() < 1e-15


def test_phase_shifter_limits():
    assert np.allclose(phase_shifter(0.0).matrix, np.eye(2))
    assert np.allclose(phase_shifter(math.pi).matrix, np.diag([-1.0, 1.0]))


def test_phase_shifter_acts_per_photon():
    state = FockState.from_occupation([1])
    out = evolve(state, ModeTransform(np.array([[np.exp(1j * 0.7)]])))
    assert out.amplitude([1]) == pytest.approx(np.exp(1j * 0.7))


def test_general3_at_zero_angles():
    m = general3(0.0, 0.0, 0.0).matrix
    assert np.allclose(m, np.diag([-1.0, 1.0, 1.0]))


def test_general3_matches_sign_shift_matrix_at_printed_angles():
    m = general3(math.radians(22.5), math.radians(65.53), math.radians(22.5)).matrix
    assert np.abs(m - ns_matrix().matrix).max() < 2e-3


def test_general3_is_unitary_for_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = general3(*rng.uniform(0, 2 * math.pi, 3))
        assert t.unitarity_deviation() <= 1e-9


def test_ns_matrix_closed_form_entries():
    m = ns_matrix().matrix
    assert m[0, 0] == pytest.approx(1 - SQ2)
    assert m[0, 1] == pytest.approx(2 ** -0.25)
    assert m[0, 1].real == pytest.approx(0.8408964155, abs=1e-9)
    assert m[1, 2] == pytest.approx(0.5 - 1 / SQ2)
    assert m[1, 2].real == pytest.approx(-0.2071067810, abs=1e-9)
    assert m[0, 2] == pytest.approx(math.sqrt(3 / SQ2 - 2))
    assert m[2, 2] == pytest.approx(SQ2 - 0.5)


def test_mode_transform_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        ModeTransform(np.array([[1.0, 0.0], [0.0, 2.0]]))


# -- embed / compose ------------------------------------------------------

def test_embed_beam_splitter_block():
    t = embed(ElementSpec.bs(0, 1, 0.5), 3)
    assert np.allclose(t.matrix[:2, :2], beam_splitter(0.5).matrix)
    assert t.matrix[2, 2] == 1.0
    assert np.abs(t.matrix[2, :2]).max() == 0.0


def test_embed_phase_shifter_on_last_mode():
    t = embed(ElementSpec.ps(2, 0.3), 3)
    assert np.allclose(t.matrix, np.diag([1.0, 1.0, np.exp(1j * 0.3)]))


def test_embed_rejects_bad_targets():
    with pytest.raises(ValueError, match="out of range"):
        embed(ElementSpec.bs(0, 7, 0.5), 3)
    with pytest.raises(ValueError, match="distinct"):
        ElementSpec.bs(1, 1, 0.5)


def test_element_block_is_checked_at_construction():
    with pytest.raises(ValueError, match="not unitary"):
        ElementSpec.raw((0, 1), np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="square"):
        ElementSpec.raw((0, 1), np.ones((2, 3)))
    with pytest.raises(ValueError, match="cannot act on 3 mode"):
        ElementSpec.raw((0, 1, 2), np.eye(2))
    assert ElementSpec.raw((1, 0), beam_splitter(0.3).matrix) == ElementSpec.bs(1, 0, 0.3)
    assert ElementSpec.bs(0, 1, 0.3) != ElementSpec.bs(1, 0, 0.3)


# bs, ps and gen3 blocks skip the unitarity check: each constructor still
# rejects what the check caught, with its message, and its blocks pass it
_NON_FINITE = (math.nan, math.inf, -math.inf)
_NOT_UNITARY = "matrix is not unitary (deviation nan)"


def _rejects(make, args, message):
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message


def _angle_sets():
    """Three finite angles with each non-finite value in each place."""
    for k, bad in product(range(3), _NON_FINITE):
        angles = [0.1, 0.2, 0.3]
        angles[k] = bad
        yield angles


def _passes_the_check(matrix):
    assert ModeTransform(matrix).unitarity_deviation() <= 1e-15


def test_beam_splitter_rejects_what_the_unitarity_check_caught():
    for eta in (*_NON_FINITE, -0.1, -1e-300, 1.5):
        _rejects(beam_splitter, (eta,), f"reflectivity eta must lie in [0, 1], got {eta}")
    for eta in (0.0, 1e-300, 0.3, 0.5, 1.0):
        _passes_the_check(beam_splitter(eta).matrix)


def test_element_bs_rejects_what_the_unitarity_check_caught():
    for eta in (*_NON_FINITE, -0.1, 1.5):
        _rejects(ElementSpec.bs, (0, 1, eta), f"reflectivity eta must lie in [0, 1], got {eta}")
    _passes_the_check(ElementSpec.bs(1, 0, 0.7).block)


def test_element_ps_rejects_what_the_unitarity_check_caught():
    for delta in _NON_FINITE:
        _rejects(ElementSpec.ps, (0, delta), _NOT_UNITARY)
    for delta in (0.0, -2.5, 1e300):
        _passes_the_check(ElementSpec.ps(0, delta).block)


def test_general3_rejects_what_the_unitarity_check_caught():
    for angles in _angle_sets():
        _rejects(general3, angles, _NOT_UNITARY)
    for angles in ((0.0, 0.0, 0.0), (1e300, -1e300, 3.0), NS_ANGLES):
        _passes_the_check(general3(*angles).matrix)


def test_element_gen3_rejects_what_the_unitarity_check_caught():
    for angles in _angle_sets():
        _rejects(ElementSpec.gen3, (0, 1, 2, *angles), _NOT_UNITARY)
    _passes_the_check(ElementSpec.gen3(2, 0, 1, 4.0, -1.0, 0.5).block)


def test_three_splitter_network_reproduces_ns_matrix():
    # the sign-shift network as three embedded two-mode blocks at the
    # exact angles behind the printed 22.5/65.53/22.5 values
    t1, t2, t3 = NS_ANGLES
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    first = ElementSpec.raw((1, 2), np.array([[c1, s1], [-s1, c1]]))
    middle = ElementSpec.raw((0, 1), np.array([[-c2, s2], [s2, c2]]))
    last = ElementSpec.raw((1, 2), np.array([[c1, -s1], [s1, c1]]))
    network = compose_elements([first, middle, last], 3)
    assert np.abs(network.matrix - ns_matrix().matrix).max() < 1e-9


# -- evolution -------------------------------------------------------------

def test_single_photon_through_splitter():
    eta = 0.3
    out = evolve(FockState.from_occupation([1, 0]), beam_splitter(eta))
    assert out.amplitude([1, 0]) == pytest.approx(math.sqrt(eta))
    assert out.amplitude([0, 1]) == pytest.approx(math.sqrt(1 - eta))


def test_two_photon_interference_kills_coincidence():
    out = evolve(FockState.from_occupation([1, 1]), beam_splitter(0.5))
    assert abs(out.amplitude([1, 1])) < 1e-12
    assert out.amplitude([2, 0]) == pytest.approx(1 / SQ2)
    assert out.amplitude([0, 2]) == pytest.approx(-1 / SQ2)


def test_sign_shift_heralded_amplitude():
    out = evolve(FockState.from_occupation([1, 1, 0]), ns_matrix())
    assert out.amplitude([1, 1, 0]) == pytest.approx(0.5)


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError, match="modes"):
        evolve(FockState.from_occupation([1, 0]), ns_matrix())


def test_norm_conservation_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = random_state(rng, 3, 2)
        if state.norm() == 0:
            continue
        t = ModeTransform(random_unitary(rng, 3))
        assert abs(evolve(state, t).norm() - state.norm()) < 1e-9


def test_pruning_moves_probabilities_below_reporting_precision():
    # a 1e-13 amplitude falls under PRUNE_TOL and is dropped
    state, bs = FockState.from_occupation([1, 0]), beam_splitter(1e-26)
    kept = evolve(state, bs, prune_tol=0.0)
    pruned = evolve(state, bs)
    assert kept.amplitude([1, 0]) == pytest.approx(1e-13, rel=1e-12)
    assert kept.num_terms() == 2 and pruned.num_terms() == 1
    assert abs(kept.norm() ** 2 - pruned.norm() ** 2) < 1e-20


def test_photon_number_is_conserved_termwise():
    rng = np.random.default_rng(8)
    state = FockState(3, {(2, 1, 0): 1.0, (0, 0, 1): 1.0})
    out = evolve(state, ModeTransform(random_unitary(rng, 3)), prune_tol=0.0)
    totals = {sum(occ) for occ, _ in out.terms()}
    assert totals <= {1, 3}


def test_inverse_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = random_state(rng, 3, 2)
        t = ModeTransform(random_unitary(rng, 3))
        back = evolve(evolve(state, t), ModeTransform(t.matrix.conj().T))
        assert state_distance(back, state) < 1e-9


def test_outcome_distribution_of_sign_shift_sums_to_one():
    for k in range(3):
        out = evolve(FockState.from_occupation([k, 1, 0]), ns_matrix())
        total = sum(abs(a) ** 2 for _, a in out.terms())
        assert total == pytest.approx(1.0, abs=1e-8)


# -- permanent oracle --------------------------------------------------------

def test_permanent_of_balanced_splitter_vanishes():
    assert abs(matrix_permanent(beam_splitter(0.5).matrix)) < 1e-15


def test_single_mode_amplitude_is_the_entry():
    t = ModeTransform(np.array([[np.exp(1j * 0.4)]]))
    assert permanent_amplitude((1,), (1,), t) == pytest.approx(np.exp(1j * 0.4))


def test_oracle_on_interference_and_sign_shift():
    assert abs(permanent_amplitude((1, 1), (1, 1), beam_splitter(0.5))) < 1e-12
    assert permanent_amplitude((1, 1, 0), (1, 1, 0), ns_matrix()) == pytest.approx(0.5)


def test_photon_number_mismatch_gives_zero():
    assert permanent_amplitude((1, 0), (1, 1), beam_splitter(0.5)) == 0j


def test_evolve_agrees_with_permanent_oracle():
    rng = np.random.default_rng(10)
    occs = [(0, 1, 1), (2, 0, 0), (1, 1, 1), (0, 0, 2)]
    for _ in range(10):
        t = ModeTransform(random_unitary(rng, 3))
        for inp in occs:
            out = evolve(FockState.from_occupation(inp), t, prune_tol=0.0)
            for outp in occs:
                if sum(outp) != sum(inp):
                    continue
                assert abs(out.amplitude(outp) - permanent_amplitude(inp, outp, t)) < 1e-10
    # a composed sparse network: its columns hold 3, 3, 2 and 1 nonzero entries
    sparse = compose_elements([ElementSpec.bs(0, 1, 0.3), ElementSpec.bs(1, 2, 0.6), ElementSpec.ps(3, 0.7)], 4)
    assert sorted(np.count_nonzero(sparse.matrix, axis=0)) == [1, 2, 3, 3]
    cases = [(FockState.from_occupation(occ), sparse)
             for occ in [(1, 1, 1, 0), (0, 2, 1, 1), (3, 0, 0, 1), (0, 0, 2, 2), (0, 0, 0, 3)]]
    cases += [
        (FockState.from_occupation([0, 0, 0]), ModeTransform(random_unitary(rng, 3))),
        (FockState.from_occupation([4]), ModeTransform(np.array([[np.exp(0.3j)]]))),
        (FockState(3, {(0, 0, 0): 0.5, (1, 0, 0): 0.5j, (0, 1, 1): -0.5, (2, 1, 0): 0.3, (1, 1, 2): 0.2 - 0.1j}),
         ModeTransform(random_unitary(rng, 3))),
        (FockState(4, {(1, 0, 0, 0): 0.6, (0, 1, 1, 0): 0.8j}), sparse),
    ]
    for state, t in cases:
        out = evolve(state, t, prune_tol=0.0)
        photons = {sum(occ) for occ, _ in state.terms()}
        assert {sum(occ) for occ, _ in out.terms()} <= photons
        for n in photons:
            for placed in combinations_with_replacement(range(t.dim), n):
                outp = tuple(np.bincount(np.array(placed, dtype=int), minlength=t.dim))
                want = sum(a * permanent_amplitude(occ, outp, t) for occ, a in state.terms())
                assert abs(out.amplitude(outp) - want) < 1e-10
    # two-photon interference cancels exactly: no zero-amplitude term is stored
    out = evolve(FockState.from_occupation([1, 1]), beam_splitter(0.5), prune_tol=0.0)
    assert [occ for occ, _ in out.terms()] == [(0, 2), (2, 0)]


def _operator_expansion(state, transform):
    """Reference for ``evolve``: each term's product of column forms expanded
    monomial by monomial in dicts, zero entries of a column skipped."""
    L, m = transform.matrix, transform.dim
    out = {}
    for occ, amp in state.terms():
        poly = {(0,) * m: 1.0 + 0j}
        for k, n_k in enumerate(occ):
            for _ in range(n_k):
                nxt = {}
                for mono, coeff in poly.items():
                    for l in np.flatnonzero(L[:, k]):
                        key = mono[:l] + (mono[l] + 1,) + mono[l + 1:]
                        nxt[key] = nxt.get(key, 0j) + coeff * L[l, k]
                poly = nxt
        pref = amp / math.sqrt(math.prod(math.factorial(n) for n in occ))
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0j) + pref * coeff * math.sqrt(math.prod(math.factorial(n) for n in mono))
    return FockState(m, {o: a for o, a in out.items() if abs(a) >= PRUNE_TOL})


def _in_basis_order(state, out):
    """The terms of ``out`` in the order ``evolve`` lists its keys: the photon
    numbers as they first occur in ``state.terms()``, each basis in descending
    lexicographic order."""
    first = {n: i for i, n in enumerate(dict.fromkeys(sum(occ) for occ, _ in state.terms()))}
    return sorted(out.terms(), key=lambda term: (first[sum(term[0])], [-c for c in term[0]]))


def test_evolve_repeats_the_operator_expansion_bit_for_bit():
    # columns without zero entries: the same float operations in the same order,
    # down to the order of the terms that norm() sums
    rng = np.random.default_rng(18)
    for m in (1, 2, 3, 5):
        t = ModeTransform(random_unitary(rng, m))
        state = random_state(rng, m, 2, terms=5)
        got, want = evolve(state, t), _operator_expansion(state, t)
        assert list(got._amp.items()) == _in_basis_order(state, want)
        assert got.norm() == want.norm()
    # spectator modes, whose row and column are e_k, are left out of the expansion
    # without moving a bit: a splitter plus identity, a circuit file's correction
    # (bs 1 2, ps 2) on six modes, the identity; and, with no spectator, a mode
    # that only takes a phase. Columns of at most two entries leave no sum to reorder.
    correction = compose_elements([ElementSpec.bs(0, 1, 0.37), ElementSpec.ps(1, 2.1)], 6)
    three_photons = FockState(6, {tuple(modes.count(k) for k in range(6)): complex(rng.normal(), rng.normal())
                                  for modes in combinations_with_replacement(range(6), 3)})
    cases = [
        (compose_elements([ElementSpec.bs(1, 3, 0.3)], 5), random_state(rng, 5, 2, terms=6)),
        (correction, random_state(rng, 6, 2, terms=6)),
        (correction, three_photons),                  # 56 terms, 10 active occupations
        (ModeTransform(np.eye(4)), random_state(rng, 4, 2, terms=6)),
        (compose_elements([ElementSpec.bs(0, 1, 0.6), ElementSpec.ps(2, 0.9)], 3), random_state(rng, 3, 2, terms=6)),
    ]
    for t, state in cases:
        got, want = evolve(state, t), _operator_expansion(state, t)
        assert list(got._amp.items()) == _in_basis_order(state, want)
    # with zero entries the sums may be taken in another order
    sparse = compose_elements([ElementSpec.bs(0, 1, 0.3), ElementSpec.bs(1, 2, 0.6), ElementSpec.ps(3, 0.7)], 4)
    state = random_state(rng, 4, 2, terms=5)
    assert state_distance(evolve(state, sparse), _operator_expansion(state, sparse)) < 1e-14


def test_evolve_blocks_agree(monkeypatch):
    # a block of 5 numbers puts every input term and every mode l in a block of its own
    rng = np.random.default_rng(17)
    dense = ModeTransform(random_unitary(rng, 5))
    spectators = compose_elements([ElementSpec.raw((3, 0, 1), random_unitary(rng, 3))], 5)
    cases = [(t, random_state(rng, 5, 2, terms=6)) for t in (dense, spectators)]
    whole = [evolve(state, t) for t, state in cases]
    monkeypatch.setattr(multiport, "RYSER_BLOCK", 5)
    for (t, state), out in zip(cases, whole):
        assert list(evolve(state, t)._amp.items()) == list(out._amp.items())


def test_evolve_memory_stays_under_8_mb():
    # 6 photons in 12 modes: 12,376 output terms; the dict expansion peaked at 6.3 MB
    t = ModeTransform(random_unitary(np.random.default_rng(16), 12))
    state = FockState.from_occupation([1] * 6 + [0] * 6)
    evolve(FockState.from_occupation([1] + [0] * 11), t)   # warm up imports
    tracemalloc.start()
    try:
        out = evolve(state, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_terms() == 12376
    assert peak < 8 * 2**20


def test_library_states_store_zero_parts_as_positive_zero():
    # the public constructor adds every amplitude to 0j; the states the library
    # builds without it must store the same bits (a real network, negative entries)
    out = evolve(FockState.from_occupation([2, 1, 0]), ns_matrix())
    states = [out, out.scaled(-1.0), postselect(out, DetectionPattern({1: 1, 2: 0})).conditional_state,
              transition_amplitudes(FockState.from_occupation([2, 1, 0]), ns_matrix(), [occ for occ, _ in out.terms()])]
    for state in states:
        assert state.num_terms() > 0
        for _, a in state.terms():
            assert all(math.copysign(1.0, part) == 1.0 for part in (a.real, a.imag) if part == 0)


# -- heralded-subspace amplitudes (Ryser) ------------------------------------

def test_transition_amplitudes_match_permanent_oracle():
    rng = np.random.default_rng(12)
    inputs = [(2, 1, 0, 0), (1, 1, 1, 0), (3, 0, 0, 1), (0, 0, 0, 2)]
    outputs = [(1, 1, 1, 0), (0, 3, 0, 0), (2, 0, 0, 1), (1, 0, 2, 1), (0, 0, 1, 1), (1, 1, 0, 0)]
    for _ in range(5):
        t = ModeTransform(random_unitary(rng, 4))
        for inp in inputs:
            got = transition_amplitudes(FockState.from_occupation(inp), t, outputs)
            for outp in outputs:
                want = permanent_amplitude(inp, outp, t)   # a pruned output reads 0
                assert abs(got.amplitude(outp) - want) < PRUNE_TOL + 1e-12


def test_transition_amplitudes_restrict_evolve():
    rng = np.random.default_rng(13)
    for m in range(2, 6):
        t = ModeTransform(random_unitary(rng, m))
        state = random_state(rng, m, 2, terms=3)
        full = evolve(state, t)
        outputs = [occ for occ, _ in full.terms()][::2] + [(5,) + (0,) * (m - 1)]
        part = transition_amplitudes(state, t, outputs)
        assert {occ for occ, _ in part.terms()} <= set(outputs)
        for occ in outputs:
            assert abs(part.amplitude(occ) - full.amplitude(occ)) < 1e-12


def test_transition_amplitudes_blocks_agree(monkeypatch):
    # a block of 5 numbers splits the outputs of every s-grid into many blocks
    rng = np.random.default_rng(14)
    t = ModeTransform(random_unitary(rng, 5))
    state = random_state(rng, 5, 3, terms=4)
    outputs = [occ for occ, _ in evolve(state, t).terms()]
    whole = transition_amplitudes(state, t, outputs)
    monkeypatch.setattr(multiport, "RYSER_BLOCK", 5)
    blocked = transition_amplitudes(state, t, outputs)
    assert dict(blocked.terms()).keys() == dict(whole.terms()).keys()
    assert state_distance(blocked, whole) < 1e-13


def test_transition_amplitudes_memory_is_bounded_by_the_block():
    # 3,432 outputs x a 128-point s-grid would take 7 MB per array unblocked
    t = ModeTransform(random_unitary(np.random.default_rng(15), 9))
    outputs = [tuple(np.bincount(c, minlength=9)) for c in combinations_with_replacement(range(8), 7)]
    state = FockState.from_occupation([1] * 7 + [0, 0])
    transition_amplitudes(state, t, outputs[:1])   # warm up imports and caches
    tracemalloc.start()
    try:
        out = transition_amplitudes(state, t, outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outputs) == out.num_terms() == 3432
    assert peak < 4 * 2**20


def _interleaved_groups():
    """A 4-mode input whose s-grid groups interleave in term order: at two
    photons (1,1), (2,), (1,1), (1,1), (2,); at three (1,2), (1,1,1); and
    one photon, which no output below holds."""
    rng = np.random.default_rng(18)
    occs = [(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 2, 0),
            (1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 0, 0)]
    state = FockState(4, {o: complex(rng.normal(), rng.normal()) for o in occs}).normalized()[0]
    outputs = [tuple(np.bincount(c, minlength=4)) for n in (2, 3) for c in combinations_with_replacement(range(4), n)]
    return state, ModeTransform(random_unitary(rng, 4)), outputs + [(0, 4, 0, 0)]


def test_transition_amplitudes_sum_groups_in_term_order():
    state, t, outputs = _interleaved_groups()
    got = transition_amplitudes(state, t, outputs)
    singles = [transition_amplitudes(FockState(4, {occ: amp}), t, outputs) for occ, amp in state.terms()]
    assert got.amplitude((0, 4, 0, 0)) == 0
    for outp in outputs[:-1]:
        want = sum(amp * permanent_amplitude(occ, outp, t) for occ, amp in state.terms())
        assert abs(got.amplitude(outp)) > 0.01
        assert abs(got.amplitude(outp) - want) < 1e-15
        assert abs(got.amplitude(outp) - sum(one.amplitude(outp) for one in singles)) < 1e-15


def _ryser_term_by_term(state, transform, outputs):
    """Ryser's formula one input term at a time, each term's scaled sums
    added in term order; unpruned, in the order of ``outputs``. The grouped
    pass must repeat it bit for bit."""
    dim = transform.dim
    outs = np.array(outputs).reshape(len(outputs), dim)
    photons = outs.sum(axis=1)
    sums = np.zeros(len(outs), dtype=complex)
    for occ, amp in state.terms():
        n = sum(occ)
        idx = np.flatnonzero(photons == n)
        if not len(idx):
            continue
        cols = [k for k, c in enumerate(occ) if c]
        counts = [occ[k] for k in cols]
        s = np.array(list(product(*(range(c + 1) for c in counts))))   # (s-grid, cols)
        weights = (-1.0) ** (n - s.sum(axis=1))
        r = np.zeros((dim, len(s)), dtype=complex)
        for j, (k, c) in enumerate(zip(cols, counts)):
            weights *= np.array([math.comb(c, i) for i in range(c + 1)])[s[:, j]]
            r += transform.matrix[:, k, None] * s[:, j]
        powers = np.ones((dim, n + 1, len(s)), dtype=complex)
        for e in range(1, n + 1):
            powers[:, e] = powers[:, e - 1] * r
        scale = amp / math.sqrt(math.prod(math.factorial(c) for c in counts))
        sub = outs[idx]
        prods = np.repeat(weights.astype(complex)[None, :], len(sub), axis=0)
        for l in np.flatnonzero(sub.any(axis=0)):
            prods *= powers[l, sub[:, l]]
        sums[idx] += scale * prods.sum(axis=1)
    factorials = np.array([math.factorial(k) for k in range(int(photons.max(initial=0)) + 1)], dtype=float)
    return sums / np.sqrt(factorials[outs].prod(axis=1))


@pytest.mark.parametrize("block", [multiport.RYSER_BLOCK, 64, 5])
def test_transition_amplitudes_repeat_the_term_by_term_pass_bit_for_bit(block, monkeypatch):
    # numpy's complex multiply may fuse its products, depending on the
    # operands' strides, so this pins the layout of every product too
    rng = np.random.default_rng(21)
    cases = [_interleaved_groups()]
    for _ in range(40):
        m = int(rng.integers(2, 7))
        occs = {tuple(np.bincount(rng.integers(0, m, int(rng.integers(0, 5))), minlength=m).tolist())
                for _ in range(int(rng.integers(1, 7)))}
        state = FockState(m, {o: complex(rng.normal(), rng.normal()) for o in occs})
        outputs = sorted({tuple(np.bincount(rng.integers(0, m, int(rng.integers(0, 5))), minlength=m).tolist())
                          for _ in range(int(rng.integers(1, 30)))})
        cases.append((state, ModeTransform(random_unitary(rng, m)), outputs))
    monkeypatch.setattr(multiport, "RYSER_BLOCK", block)
    for state, t, outputs in cases:
        want = _ryser_term_by_term(state, t, outputs)
        keep = np.abs(want) >= PRUNE_TOL
        rows, amps = transition_amplitudes(state, t, outputs)._arrays()
        assert np.array_equal(rows, np.array(outputs)[keep])
        assert amps.tobytes() == want[keep].tobytes()


def test_transition_amplitudes_blocks_are_bit_identical(monkeypatch):
    # a block of 5 numbers puts every term, output and term sum in a block of its own
    state, t, outputs = _interleaved_groups()
    whole = transition_amplitudes(state, t, outputs)._arrays()
    monkeypatch.setattr(multiport, "RYSER_BLOCK", 5)
    blocked = transition_amplitudes(state, t, outputs)._arrays()
    assert np.array_equal(blocked[0], whole[0])
    assert blocked[1].tobytes() == whole[1].tobytes()


def test_transition_amplitudes_memory_of_a_group_is_bounded_by_the_block():
    # 4 terms x 3,432 outputs x a 128-point s-grid would take 28 MB per array in one pass
    rng = np.random.default_rng(19)
    t = ModeTransform(random_unitary(rng, 9))
    outputs = [tuple(np.bincount(c, minlength=9)) for c in combinations_with_replacement(range(8), 7)]
    occs = [(1,) * 7 + (0, 0), (0, 0) + (1,) * 7, (1, 0) * 4 + (1,), (0,) + (1,) * 7 + (0,)]
    state = FockState(9, {o: complex(rng.normal(), rng.normal()) for o in occs})
    transition_amplitudes(state, t, outputs[:1])   # warm up imports and caches
    tracemalloc.start()
    try:
        out = transition_amplitudes(state, t, outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_terms() == 3432
    assert peak < 4 * 2**20


def test_ryser_grid_budget_is_a_named_error_before_allocating():
    # 20 singly occupied photons: a 2^20-point s-grid, whose powers table alone
    # would take 20 x 21 x 2^20 complex numbers (7 GB)
    t = ModeTransform(np.eye(20))
    state = FockState.from_occupation([1] * 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_RYSER_GRID"):
            transition_amplitudes(state, t, [(1,) * 20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the budget itself is allowed: 12 singly occupied photons hold 4,096 points
    assert multiport.MAX_RYSER_GRID == 2**12
    out = transition_amplitudes(FockState.from_occupation([1] * 12), ModeTransform(np.eye(12)), [(1,) * 12])
    assert out.amplitude((1,) * 12) == pytest.approx(1.0)


def test_transition_amplitudes_prune_like_evolve():
    # two-photon interference: |1,1> has no coincidence amplitude
    out = transition_amplitudes(FockState.from_occupation([1, 1]), beam_splitter(0.5),
                                [(1, 1), (2, 0), (0, 2)])
    assert {occ for occ, _ in out.terms()} == {(2, 0), (0, 2)}
    assert out.amplitude([2, 0]) == pytest.approx(1 / SQ2)


def test_transition_amplitudes_reject_bad_outputs():
    t = beam_splitter(0.5)
    with pytest.raises(ValueError, match="outputs"):
        transition_amplitudes(FockState.from_occupation([1, 0]), t, [(1, 0, 0)])
    with pytest.raises(ValueError, match="outputs"):
        transition_amplitudes(FockState.from_occupation([1, 0]), t, [(2, -1)])
    for outputs in ([(2.7, 0.2)], [(1.0, 1.0)]):
        with pytest.raises(ValueError, match="outputs"):
            transition_amplitudes(FockState.from_occupation([1, 1]), t, outputs)


@pytest.mark.parametrize("route", ["evolve", "transition_amplitudes", "permanent_amplitude", "evolve_basis"])
def test_photon_budget_is_a_named_error(route):
    state, t = FockState.from_occupation([MAX_PHOTONS + 1]), ModeTransform(np.eye(1))
    calls = {
        "evolve": lambda: evolve(state, t),
        "transition_amplitudes": lambda: transition_amplitudes(state, t, [(MAX_PHOTONS + 1,)]),
        "permanent_amplitude": lambda: permanent_amplitude((MAX_PHOTONS + 1,), (MAX_PHOTONS + 1,), t),
        # 12 photons in 12 modes span 1,352,078 basis terms
        "evolve_basis": lambda: evolve(FockState.from_occupation([1] * 12), ModeTransform(np.eye(12))),
    }
    with pytest.raises(ValueError, match="MAX_FOCK_TERMS" if route == "evolve_basis" else "MAX_PHOTONS"):
        calls[route]()
