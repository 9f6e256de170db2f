import math

import numpy as np
import pytest

from loqc import FockState

from helpers import random_state, state_distance

ATOL = 1e-9


def test_create_on_vacuum():
    out = FockState.from_occupation([0]).create(0)
    assert out.amplitude([1]) == pytest.approx(1.0)
    assert out.num_terms() == 1


def test_create_on_one_photon_gives_sqrt2():
    out = FockState.from_occupation([1]).create(0)
    assert out.amplitude([2]) == pytest.approx(math.sqrt(2))


def test_double_create_then_normalize_absorbs_factorial():
    raw = FockState.from_occupation([0]).create(0).create(0)
    state, norm = raw.normalized()
    assert norm == pytest.approx(math.sqrt(2))
    assert state.amplitude([2]) == pytest.approx(1.0)


def test_annihilate_vacuum_is_zero_state():
    out = FockState.from_occupation([0]).annihilate(0)
    assert out.num_terms() == 0
    assert out.norm() == 0.0


def test_annihilate_two_photons():
    out = FockState.from_occupation([2]).annihilate(0)
    assert out.amplitude([1]) == pytest.approx(math.sqrt(2))


def test_number_operator_eigenvalue():
    state = FockState.from_occupation([1])
    out = state.annihilate(0).create(0)
    assert state_distance(out, state) < ATOL


@pytest.mark.parametrize("n", range(7))
def test_commutator_acts_as_identity(n):
    state = FockState.from_occupation([n])
    lhs = state.create(0).annihilate(0) - state.annihilate(0).create(0)
    assert state_distance(lhs, state) < 1e-12


def test_mode_out_of_range():
    state = FockState.from_occupation([0, 0])
    with pytest.raises(ValueError, match="out of range"):
        state.create(2)
    with pytest.raises(ValueError, match="out of range"):
        state.annihilate(-1)


def test_orthonormality_is_exact():
    a = FockState.from_occupation([1, 0])
    b = FockState.from_occupation([0, 1])
    assert a.inner(b) == 0
    assert a.inner(a) == 1


def test_inner_product_mode_mismatch():
    with pytest.raises(ValueError, match="mode-count mismatch"):
        FockState.from_occupation([1]).inner(FockState.from_occupation([1, 0]))


def test_inner_product_of_orthogonal_superpositions():
    plus = (FockState.from_occupation([0]) + FockState.from_occupation([1])).scaled(1 / math.sqrt(2))
    minus = (FockState.from_occupation([0]) - FockState.from_occupation([1])).scaled(1 / math.sqrt(2))
    assert abs(plus.inner(minus)) < 1e-15
    assert plus.inner(plus) == pytest.approx(1.0, abs=ATOL)


def test_normalize_scalar_multiple():
    state, norm = FockState.from_occupation([1]).scaled(2.0).normalized()
    assert norm == pytest.approx(2.0)
    assert state.amplitude([1]) == pytest.approx(1.0)


def test_normalize_three_term_superposition():
    raw = FockState(1, {(0,): 1, (1,): 1, (2,): 1})
    state, norm = raw.normalized()
    assert norm == pytest.approx(math.sqrt(3))
    assert state.is_normalized()


def test_normalize_zero_state_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        FockState.zero(2).normalized()


def test_linearity_of_ladder_operators():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_state(rng, 2, 3)
        b = random_state(rng, 2, 3)
        c = complex(rng.normal(), rng.normal())
        combo = a + b.scaled(c)
        for op in (lambda s: s.create(1), lambda s: s.annihilate(0)):
            assert state_distance(op(combo), op(a) + op(b).scaled(c)) < 1e-12


def test_exact_zero_pruning_never_changes_probabilities():
    state = FockState(2, {(1, 0): 0.6, (0, 1): 0.8, (2, 0): 0.0})
    pruned = state.pruned(tol=0.0)
    assert pruned.num_terms() == 2
    for occ in [(1, 0), (0, 1), (2, 0)]:
        assert abs(state.amplitude(occ)) ** 2 == abs(pruned.amplitude(occ)) ** 2


def test_tolerance_pruning_moves_probabilities_below_reporting_precision():
    state = FockState(1, {(0,): 1.0, (1,): 1e-13})
    pruned = state.pruned()
    assert pruned.num_terms() == 1
    assert abs(state.norm() ** 2 - pruned.norm() ** 2) < 1e-20


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        FockState(1, {(-1,): 1.0})
    with pytest.raises(ValueError, match="modes"):
        FockState(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="non-finite"):
        FockState(1, {(0,): complex("nan")})


def test_tensor_product_concatenates_modes():
    left = FockState.from_occupation([1])
    right = FockState(1, {(0,): 1 / math.sqrt(2), (2,): 1 / math.sqrt(2)})
    joint = left.tensor(right)
    assert joint.num_modes == 2
    assert joint.amplitude([1, 0]) == pytest.approx(1 / math.sqrt(2))
    assert joint.amplitude([1, 2]) == pytest.approx(1 / math.sqrt(2))
