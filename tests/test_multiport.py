import math
import tracemalloc
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    ElementSpec,
    FockState,
    GateCircuit,
    ModeTransform,
    NS_ANGLES,
    OutcomeBranch,
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
from loqc.multiport import MAX_PHOTONS

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


def _embedded_by_eye(element, total_modes):
    """The oracle embedding: a fresh ``np.eye`` per element with the block
    written in through ``np.ix_``."""
    full = np.eye(total_modes, dtype=complex)
    idx = np.array(element.modes)
    full[np.ix_(idx, idx)] = element.block
    return full


def _random_elements(rng, modes, count):
    """``count`` elements on ``modes`` modes: bs, ps, gen3 and 3- and 4-mode
    raw blocks, with half the parameters at an edge value (eta 0 and 1,
    delta 0.0 and -0.0, gen3 angles 0 and pi/2)."""
    kinds = ["ps"] + ["bs"] * (modes >= 2) + ["gen3", "raw"] * (modes >= 3)

    def pick(edges, low, high):
        return edges[rng.integers(len(edges))] if rng.random() < 0.5 else float(rng.uniform(low, high))

    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        size = {"ps": 1, "bs": 2, "gen3": 3}.get(kind) or int(rng.integers(3, min(modes, 4) + 1))
        ports = tuple(rng.choice(modes, size, replace=False).tolist())
        if kind == "ps":
            yield ElementSpec.ps(*ports, pick((0.0, -0.0), -4.0, 4.0))
        elif kind == "bs":
            yield ElementSpec.bs(*ports, pick((0.0, 1.0), 0.0, 1.0))
        elif kind == "gen3":
            yield ElementSpec.gen3(*ports, *(pick((0.0, math.pi / 2), -4.0, 4.0) for _ in range(3)))
        else:
            yield ElementSpec.raw(ports, random_unitary(rng, size))


def test_compose_repeats_the_per_element_eye_product_bit_for_bit():
    # the same left products in the same order as with one np.eye and one
    # np.ix_ store per element; np.array_equal would hide a flipped zero sign
    rng = np.random.default_rng(30)
    for _ in range(300):
        modes = int(rng.integers(1, 13))
        elements = list(_random_elements(rng, modes, int(rng.integers(0, 61))))
        want = np.eye(modes, dtype=complex)
        for el in elements:
            full = _embedded_by_eye(el, modes)
            assert embed(el, modes).matrix.tobytes() == full.tobytes()
            want = full @ want
        assert compose_elements(elements, modes).matrix.tobytes() == want.tobytes()
        assert compose_elements(tuple(elements), modes).matrix.tobytes() == want.tobytes()


def test_compose_checks_modes_before_any_store():
    ok = ElementSpec.bs(0, 1, 0.3)
    for bad in (ElementSpec.bs(1, 3, 0.3), ElementSpec.ps(-1, 0.1), ElementSpec.gen3(2, 0, 5, 0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match="out of range for 3 modes"):
            compose_elements([ok, bad], 3)
        with pytest.raises(ValueError, match="out of range for 3 modes"):
            embed(bad, 3)


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


def test_evolve_of_the_zero_state_is_the_zero_state():
    out = evolve(FockState(2, {}), beam_splitter(0.5))
    assert (out.num_modes, out.num_terms()) == (2, 0)


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


def _occupations(rng, modes, photons, count):
    """``count`` distinct occupations of 1 to ``photons`` photons in ``modes`` modes."""
    pool = [tuple(placed.count(k) for k in range(modes))
            for n in range(1, photons + 1) for placed in combinations_with_replacement(range(modes), n)]
    return [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]


@pytest.mark.parametrize("block,budget", [(multiport.RYSER_BLOCK, multiport.COLUMN_CACHE_BUDGET),
                                          (5, multiport.COLUMN_CACHE_BUDGET), (multiport.RYSER_BLOCK, 40)])
def test_evolve_with_a_kept_table_repeats_plain_evolve_bit_for_bit(block, budget, monkeypatch):
    # a plan kept across calls, as a gate's evaluator keeps it, moves no bit:
    # spectator modes put back their counts by rank, and terms of several photon
    # numbers and moving-photon counts start at different row offsets. The
    # second call shares six occupations with the first and expands them again;
    # the third call's support is the first's, and it replays the first call's
    # plan if one was kept. A block of 5 numbers puts every term in a block of
    # its own; a budget of 40 keeps only the 36 (term, row) pairs of the
    # six-mode case's first plan, of plans of 160, 180, 36, 51, 81 and 68
    monkeypatch.setattr(multiport, "RYSER_BLOCK", block)
    monkeypatch.setattr(multiport, "COLUMN_CACHE_BUDGET", budget)
    expanded, kept = [], []
    expand = multiport._expand

    def counted_expansion(occupations, photons, cols):
        expanded.extend(map(tuple, occupations.tolist()))
        return expand(occupations, photons, cols)

    rng = np.random.default_rng(64)
    for modes, active in [(4, (0, 1, 2, 3)), (6, (1, 2, 4)), (7, (0, 3, 5, 6))]:
        matrix = np.eye(modes, dtype=complex)
        matrix[np.ix_(active, active)] = random_unitary(rng, len(active))
        t = ModeTransform(matrix)
        table = multiport._HeraldedEvolution(t, [DetectionPattern({})])
        occs = _occupations(rng, modes, 3, 16)
        for chosen in (occs[:10], occs[5:], occs[:10]):
            state = FockState(modes, {occ: complex(rng.normal(), rng.normal()) for occ in chosen})
            known = tuple(sorted(chosen)) in table.plans
            want = evolve(state, t)._arrays()
            monkeypatch.setattr(multiport, "_expand", counted_expansion)
            got = evolve(state, t, _cache=table)._arrays()
            monkeypatch.setattr(multiport, "_expand", expand)
            assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
            assert len(expanded) == (0 if known else len(chosen))
            expanded.clear()
        assert table.size <= budget
        assert table.size == sum(len(pairs) for _, (_, _, pairs, *_) in table.plans.values())
        kept.append(len(table.plans))
    assert kept == ([2, 2, 2] if budget > 40 else [0, 1, 0])


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


def test_library_states_store_zero_parts_as_positive_zero(heralded):
    # the public constructor adds every amplitude to 0j; the states the library
    # builds without it must store the same bits (a real network, negative entries)
    out = evolve(FockState.from_occupation([2, 1, 0]), ns_matrix())
    states = [out, out.scaled(-1.0), postselect(out, DetectionPattern({1: 1, 2: 0})).conditional_state,
              heralded(FockState.from_occupation([2, 1, 0]), ns_matrix())]
    for state in states:
        assert state.num_terms() > 0
        for _, a in state.terms():
            assert all(math.copysign(1.0, part) == 1.0 for part in (a.real, a.imag) if part == 0)


# -- heralded-subspace amplitudes (Ryser) ------------------------------------

def _no_evolve(*args, **kwargs):
    pytest.fail("the heralded route fell back to evolve")


@pytest.fixture
def heralded(monkeypatch):
    """Run a state through the heralded evaluator, its route forced, for
    the patterns of the given constraints ({} keeps every output): once
    keeping its columns and once keeping none, which must give the same
    bits. Returns the result."""
    budget = multiport.COLUMN_CACHE_BUDGET
    monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", -math.inf)
    monkeypatch.setattr(multiport, "evolve", _no_evolve)

    def run(state, transform, *constraints):
        patterns = [DetectionPattern(c) for c in constraints or ({},)]
        outs = []
        for limit in (budget, 0):
            monkeypatch.setattr(multiport, "COLUMN_CACHE_BUDGET", limit)
            outs.append(multiport._HeraldedEvolution(transform, patterns)(state))
        (rows, amps), (rows_0, amps_0) = (out._arrays() for out in outs)
        assert np.array_equal(rows, rows_0) and amps.tobytes() == amps_0.tobytes()
        return outs[0]

    return run


def _basis(modes, photons):
    return [tuple(np.bincount(c, minlength=modes)) for c in combinations_with_replacement(range(modes), photons)]


def test_transition_amplitudes_match_permanent_oracle(heralded):
    rng = np.random.default_rng(12)
    inputs = [(2, 1, 0, 0), (1, 1, 1, 0), (3, 0, 0, 1), (0, 0, 0, 2)]
    for _ in range(5):
        t = ModeTransform(random_unitary(rng, 4))
        for inp in inputs:
            got = heralded(FockState.from_occupation(inp), t)   # every output
            outputs = _basis(4, sum(inp))
            assert {occ for occ, _ in got.terms()} <= set(outputs)
            for outp in outputs:
                want = permanent_amplitude(inp, outp, t)   # a pruned output reads 0
                assert abs(got.amplitude(outp) - want) < PRUNE_TOL + 1e-12


def test_transition_amplitudes_restrict_evolve(heralded):
    rng = np.random.default_rng(13)
    for m in range(2, 6):
        t = ModeTransform(random_unitary(rng, m))
        state = random_state(rng, m, 2, terms=3)
        full = evolve(state, t)
        part = heralded(state, t, {0: 1}, {0: 2})   # one or two photons in mode 0
        assert all(occ[0] in (1, 2) for occ, _ in part.terms())
        for occ in {occ for occ, _ in full.terms()} | {occ for occ, _ in part.terms()}:
            want = full.amplitude(occ) if occ[0] in (1, 2) else 0
            assert abs(part.amplitude(occ) - want) < 1e-12


def test_transition_amplitudes_blocks_agree(heralded, monkeypatch):
    # a block of 5 numbers splits the outputs of every s-grid into many blocks
    rng = np.random.default_rng(14)
    t = ModeTransform(random_unitary(rng, 5))
    state = random_state(rng, 5, 3, terms=4)
    whole = heralded(state, t)
    monkeypatch.setattr(multiport, "RYSER_BLOCK", 5)
    blocked = heralded(state, t)
    assert dict(blocked.terms()).keys() == dict(whole.terms()).keys()
    assert state_distance(blocked, whole) < 1e-13


def test_transition_amplitudes_memory_is_bounded_by_the_block(heralded):
    # 3,432 outputs x a 128-point s-grid would take 7 MB per array unblocked
    t = ModeTransform(random_unitary(np.random.default_rng(15), 9))
    outputs = [tuple(np.bincount(c, minlength=9)) for c in combinations_with_replacement(range(8), 7)]
    state = FockState.from_occupation([1] * 7 + [0, 0])
    heralded(state, t, {k: 0 for k in range(1, 9)})   # one output: warm up imports and caches
    tracemalloc.start()
    try:
        out = heralded(state, t, {8: 0})   # the outputs above
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outputs) == out.num_terms() == 3432
    assert peak < 4 * 2**20


def _interleaved_groups():
    """A 4-mode input whose s-grid groups interleave in term order: at two
    photons (1,1), (2,), (1,1), (1,1), (2,); at three (1,2), (1,1,1); and
    one photon. Returns it with a transform and its outputs at two and
    three photons."""
    rng = np.random.default_rng(18)
    occs = [(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 2, 0),
            (1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 0, 0)]
    state = FockState(4, {o: complex(rng.normal(), rng.normal()) for o in occs}).normalized()[0]
    return state, ModeTransform(random_unitary(rng, 4)), _basis(4, 2) + _basis(4, 3)


def test_transition_amplitudes_sum_groups_in_term_order(heralded):
    state, t, outputs = _interleaved_groups()
    got = heralded(state, t)
    singles = [heralded(FockState(4, {occ: amp}), t) for occ, amp in state.terms()]
    for outp in outputs:
        want = sum(amp * permanent_amplitude(occ, outp, t) for occ, amp in state.terms())
        assert abs(got.amplitude(outp)) > 0.01
        assert abs(got.amplitude(outp) - want) < 1e-15
        assert abs(got.amplitude(outp) - sum(one.amplitude(outp) for one in singles)) < 1e-15


def _ryser_term_by_term(state, transform, outputs):
    """Ryser's formula one input term at a time, each term's scaled sums
    added in term order; unpruned, in the order of ``outputs``. The heralded
    evaluator must repeat it bit for bit."""
    dim = transform.dim
    outs = np.array(outputs, dtype=int).reshape(len(outputs), dim)
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


def _heralded_rows(state, constraints):
    """The heralded evaluator's output rows for ``state``, unpruned, in
    its order: by photon number, then pattern by pattern, each pattern's
    free photons placed on its unmeasured modes in the order of
    ``combinations_with_replacement``. The patterns conflict pairwise, so
    no row is listed twice."""
    m = state.num_modes
    rows = []
    for n in sorted({sum(occ) for occ, _ in state.terms()}):
        for c in constraints:
            free = n - sum(c.values())
            survivors = [k for k in range(m) if k not in c]
            for placed in combinations_with_replacement(survivors, free) if free >= 0 else ():
                rows.append(tuple(c.get(k, 0) + placed.count(k) for k in range(m)))
    return rows


def _conflicting(constraints):
    """True when the patterns of ``constraints`` conflict pairwise, as a
    gate circuit's branch patterns must."""
    patterns = [DetectionPattern(c) for c in constraints]
    return all(a.conflicts_with(b) for a, b in combinations(patterns, 2))


@pytest.mark.parametrize("block", [multiport.RYSER_BLOCK, 64, 5])
def test_transition_amplitudes_repeat_the_term_by_term_pass_bit_for_bit(block, heralded, monkeypatch):
    # numpy's complex multiply may fuse its products, depending on the
    # operands' strides, so this pins the layout of every product too
    rng = np.random.default_rng(21)
    state, t, _ = _interleaved_groups()
    cases = [(state, t, [{}])]
    for _ in range(40):
        m = int(rng.integers(2, 7))
        occs = {tuple(np.bincount(rng.integers(0, m, int(rng.integers(0, 5))), minlength=m).tolist())
                for _ in range(int(rng.integers(1, 7)))}
        state = FockState(m, {o: complex(rng.normal(), rng.normal()) for o in occs})
        # one to three patterns, each fixing up to m - 1 modes at 0 to 2 photons,
        # kept only when they conflict pairwise
        constraints = [{int(k): int(rng.integers(0, 3)) for k in rng.permutation(m)[:int(rng.integers(0, m))]}
                       for _ in range(int(rng.integers(1, 4)))]
        t = ModeTransform(random_unitary(rng, m))
        if _conflicting(constraints):
            cases.append((state, t, constraints))
    # 24 families, four of them over two or three sets of measured modes
    assert len(cases) == 24
    assert sum(len({tuple(sorted(c)) for c in constraints}) > 1 for *_, constraints in cases) == 4
    monkeypatch.setattr(multiport, "RYSER_BLOCK", block)
    for state, t, constraints in cases:
        outputs = _heralded_rows(state, constraints)
        want = _ryser_term_by_term(state, t, outputs)
        keep = np.abs(want) >= PRUNE_TOL
        rows, amps = heralded(state, t, *constraints)._arrays()
        assert np.array_equal(rows, np.array(outputs, dtype=int).reshape(len(outputs), t.dim)[keep])
        assert amps.tobytes() == want[keep].tobytes()


@pytest.mark.parametrize("budget,plans", [(0, 0), (110, 3), (multiport.COLUMN_CACHE_BUDGET, 5)])
def test_heralded_plans_repeat_the_term_by_term_pass_bit_for_bit(budget, plans, monkeypatch):
    # a plan kept per input support moves no bit: supports of one to four
    # terms, at one to three photons, come back in interleaved order with new
    # amplitudes, through three conflicting patterns. The five plans hold 26,
    # 39, 70, 91 and 44 Ryser sums; a budget of 110 keeps the first two, uses
    # and drops the third and the fourth on both of their runs, and keeps the
    # fifth
    monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", -math.inf)
    monkeypatch.setattr(multiport, "evolve", _no_evolve)
    monkeypatch.setattr(multiport, "COLUMN_CACHE_BUDGET", budget)
    rng = np.random.default_rng(65)
    t = ModeTransform(random_unitary(rng, 5))
    constraints = [{3: 1, 4: 0}, {4: 1}, {3: 0, 4: 0}]
    assert _conflicting(constraints)
    evaluate = multiport._HeraldedEvolution(t, [DetectionPattern(c) for c in constraints])
    occs = _occupations(rng, 5, 3, 8)
    supports = [occs[:1], occs[1:3], occs[:4], occs[4:8], occs[1:3], occs[:1], occs[4:8], occs[:4], occs[2:5]]
    for chosen in supports:
        state = FockState(5, {occ: complex(rng.normal(), rng.normal()) for occ in chosen})
        outputs = _heralded_rows(state, constraints)
        want = _ryser_term_by_term(state, t, outputs)
        keep = np.abs(want) >= PRUNE_TOL
        rows, amps = evaluate(state)._arrays()
        assert np.array_equal(rows, np.array(outputs, dtype=int).reshape(len(outputs), 5)[keep])
        assert amps.tobytes() == want[keep].tobytes()
        assert evaluate.size <= budget
    assert evaluate.size == sum(column.size for _, (steps, _, _) in evaluate.plans.values()
                                for *_, column in steps)
    assert len(evaluate.plans) == plans


def test_transition_amplitudes_blocks_are_bit_identical(heralded, monkeypatch):
    # a block of 5 numbers puts every output in a block of its own
    state, t, _ = _interleaved_groups()
    whole = heralded(state, t)._arrays()
    monkeypatch.setattr(multiport, "RYSER_BLOCK", 5)
    blocked = heralded(state, t)._arrays()
    assert np.array_equal(blocked[0], whole[0])
    assert blocked[1].tobytes() == whole[1].tobytes()


def test_transition_amplitudes_memory_of_a_group_is_bounded_by_the_block(heralded):
    # 4 terms x 3,432 outputs x a 128-point s-grid would take 28 MB per array in one pass
    rng = np.random.default_rng(19)
    t = ModeTransform(random_unitary(rng, 9))
    occs = [(1,) * 7 + (0, 0), (0, 0) + (1,) * 7, (1, 0) * 4 + (1,), (0,) + (1,) * 7 + (0,)]
    state = FockState(9, {o: complex(rng.normal(), rng.normal()) for o in occs})
    heralded(state, t, {k: 0 for k in range(1, 9)})   # one output: warm up imports and caches
    tracemalloc.start()
    try:
        out = heralded(state, t, {8: 0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_terms() == 3432 + 792   # 7 photons and, for the third term, 5
    assert peak < 4 * 2**20


def test_heralded_rows_are_held_as_small_integers():
    # 5 photons in mode 0 of 20 modes behind one detector keep C(23, 5) = 33,649
    # outputs, each with a cached Ryser sum (0.5 MB); int64 rows would take
    # 5.1 MB, ten times the sums they index
    t = ModeTransform(random_unitary(np.random.default_rng(63), 20))
    state = FockState.from_occupation([5] + [0] * 19)
    multiport._HeraldedEvolution(t, [DetectionPattern({k: 0 for k in range(1, 20)})])(state)   # warm up
    tracemalloc.start()
    try:
        evaluate = multiport._HeraldedEvolution(t, [DetectionPattern({19: 0})])
        assert evaluate(state).num_terms() == 33649
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert evaluate.size == 33649
    assert held < 2.5 * 2**20
    # the rows are filled as arrays: a dict of output tuples peaked at 13.7 MB
    assert peak < 5 * 2**20


def test_heralded_rows_list_each_output_once_in_pattern_order():
    # conflicting patterns over three sets of measured modes: the rows come
    # pattern by pattern, none skipped, each pattern's outputs in
    # combinations_with_replacement order
    patterns = [DetectionPattern({0: 1}), DetectionPattern({0: 0, 3: 0}), DetectionPattern({0: 0, 1: 2, 3: 1})]
    evaluate = multiport._HeraldedEvolution(ModeTransform(np.eye(5)), patterns)
    for n in range(5):
        want = []
        for p in patterns:
            fixed = dict(p.constraints)
            free = n - sum(fixed.values())
            for placed in combinations_with_replacement(p.survivors(5), free) if free >= 0 else ():
                want.append(tuple(fixed.get(k, 0) + placed.count(k) for k in range(5)))
        assert len(set(want)) == len(want)
        assert len(want) == sum(math.comb(n - h + 4 - len(p.constraints), n - h)
                                for p, h in zip(patterns, (1, 0, 3)) if n >= h)
        rows, roots = evaluate._outputs_at(n)
        assert rows.dtype == np.int8 and rows.tolist() == [list(occ) for occ in want]
        assert roots.tolist() == [math.sqrt(math.prod(map(math.factorial, occ))) for occ in want]


def _exact_root(row):
    return math.sqrt(math.prod(map(math.factorial, row)))


def test_heralded_roots_are_exact_past_two_to_the_53():
    # 29 photons on 3 modes behind {2: 0}: rows (23, 6, 0) and (6, 23, 0) have
    # a factorial product past 2^53, which a float product rounds 1 ulp high
    evaluate = multiport._HeraldedEvolution(ModeTransform(np.eye(3)), [DetectionPattern({2: 0})])
    rows, roots = evaluate._outputs_at(29)
    basis, scale, _ = multiport._fock_basis(3, 29)
    where = {occ: i for i, occ in enumerate(map(tuple, basis.tolist()))}
    shared = [where[occ] for occ in map(tuple, rows.tolist())]
    assert len(shared) == len(rows) == 30
    assert roots.tolist() == scale[shared, 0].tolist()
    assert roots.tolist() == [_exact_root(row) for row in rows.tolist()]
    assert scale[:, 0].tolist() == [_exact_root(row) for row in basis.tolist()]
    assert roots[rows.tolist().index([23, 6, 0])].hex() == "0x1.f6411567394f4p+41"


def test_roots_of_rows_match_the_exact_root_across_two_to_the_53():
    # (18, 1) lies below 2^53 and (18, 2) just past it; 19! and 39! alone are past it
    assert math.factorial(18) < 2**53 < math.factorial(18) * 2 < math.factorial(19)
    rng = np.random.default_rng(53)
    for modes in (1, 2, 3, 5, 12, 64):
        rows = [row + (0,) * (modes - len(row)) for row in [(18,), (19,), (39,), (18, 1), (18, 2), (23, 6)]
                if len(row) <= modes]
        for photons in (1, 7, 18, 20, 25, 39):
            weights = rng.dirichlet(np.full(modes, 0.3))
            rows += [tuple(rng.multinomial(photons, weights)) for _ in range(20)]
        block = np.array(rows, dtype=np.int8)
        want = [multiport._root(row) for row in rows]
        assert multiport._roots(block).tolist() == want == [_exact_root(row) for row in rows]
        products = [math.prod(map(math.factorial, row)) for row in rows]
        assert min(products) < 2**53 <= max(products)
    assert multiport._roots(np.zeros((0, 4), dtype=np.int8)).shape == (0,)


def test_ryser_grid_budget_is_a_named_error_before_allocating(monkeypatch):
    # 20 singly occupied photons: a 2^20-point s-grid, whose powers table alone
    # would take 20 x 21 x 2^20 complex numbers (7 GB); even on the forced
    # heralded route the input goes to evolve, which names its own budget
    monkeypatch.setattr(multiport, "HERALDED_COST_PER_TERM", -math.inf)
    evaluate = multiport._HeraldedEvolution(ModeTransform(np.eye(21)), [DetectionPattern({k: 1 for k in range(20)})])
    state = FockState.from_occupation([1] * 20 + [0])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_FOCK_TERMS"):
            evaluate(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the budget itself is allowed: 12 singly occupied photons hold 4,096 points
    assert multiport.MAX_RYSER_GRID == 2**12
    monkeypatch.setattr(multiport, "evolve", _no_evolve)
    evaluate = multiport._HeraldedEvolution(ModeTransform(np.eye(13)), [DetectionPattern({k: 1 for k in range(12)})])
    out = evaluate(FockState.from_occupation([1] * 12 + [0]))
    assert out.amplitude((1,) * 12 + (0,)) == pytest.approx(1.0)


def test_transition_amplitudes_prune_like_evolve(heralded):
    # two-photon interference: |1,1> has no coincidence amplitude
    out = heralded(FockState.from_occupation([1, 1]), beam_splitter(0.5))
    assert {occ for occ, _ in out.terms()} == {(2, 0), (0, 2)}
    assert out.amplitude([2, 0]) == pytest.approx(1 / SQ2)


@pytest.mark.parametrize("route", ["evolve", "transition_amplitudes", "permanent_amplitude", "evolve_basis"])
def test_photon_budget_is_a_named_error(route):
    state, t = FockState.from_occupation([MAX_PHOTONS + 1]), ModeTransform(np.eye(1))
    calls = {
        "evolve": lambda: evolve(state, t),
        "transition_amplitudes": lambda: multiport._HeraldedEvolution(t, [DetectionPattern({})])(state),
        "permanent_amplitude": lambda: permanent_amplitude((MAX_PHOTONS + 1,), (MAX_PHOTONS + 1,), t),
        # 12 photons in 12 modes span 1,352,078 basis terms
        "evolve_basis": lambda: evolve(FockState.from_occupation([1] * 12), ModeTransform(np.eye(12))),
    }
    with pytest.raises(ValueError, match="MAX_FOCK_TERMS" if route == "evolve_basis" else "MAX_PHOTONS"):
        calls[route]()


def test_heralded_output_budget_sends_the_input_to_evolve(monkeypatch):
    # one detector behind 6 photons in mode 0 of 20 modes keeps C(24, 6) = 134,596
    # outputs, more than MAX_FOCK_TERMS: the input goes to evolve, which rejects
    # its 177,100 basis terms before any output is enumerated
    def enumerated(*args):
        pytest.fail("the heralded outputs were enumerated")

    monkeypatch.setattr(multiport, "_heralded_outputs", enumerated)
    t = ModeTransform(random_unitary(np.random.default_rng(62), 20))
    detector = OutcomeBranch(DetectionPattern({19: 0}))
    gate = GateCircuit("budget", 20, {19: 0}, [ElementSpec.raw(tuple(range(20)), t)], [detector], list(range(19)))
    runs = [lambda: multiport._HeraldedEvolution(t, [detector.pattern])(FockState.from_occupation([6] + [0] * 19)),
            lambda: gate.run(FockState.from_occupation([6] + [0] * 18))]
    for run in runs:
        with pytest.raises(ValueError, match="MAX_FOCK_TERMS"):
            run()
