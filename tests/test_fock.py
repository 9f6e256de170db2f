import math

import numpy as np
import pytest

from loqc import DetectionPattern, ElementSpec, FockState, outcome_distribution, with_ancilla
from loqc.fock import NORM_ATOL

ATOL = 1e-9


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
    assert abs(state.norm() ** 2 - 1.0) <= NORM_ATOL


def test_normalize_zero_state_errors():
    state = FockState.from_occupation([1, 0])
    zero = state - state
    assert zero.num_terms() == 0
    assert zero.norm() == 0.0
    # exact zeros are never stored, so they cannot change a probability
    assert FockState(2, {(1, 0): 0.6, (0, 1): 0.8, (2, 0): 0.0}).num_terms() == 2
    with pytest.raises(ValueError, match="zero-norm"):
        zero.normalized()
    with pytest.raises(ValueError, match="zero-norm"):
        FockState(2, {}).normalized()


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        FockState(1, {(-1,): 1.0})
    with pytest.raises(ValueError, match="modes"):
        FockState(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="non-finite"):
        FockState(1, {(0,): complex("nan")})


STATE = FockState(2, {(1, 0): 1.0})


@pytest.mark.parametrize("build", [
    lambda: FockState(2, {(1.5, 0): 1.0, (1, 0): 1.0}),
    lambda: FockState(2.5, {(1, 0): 1.0}),
    lambda: FockState.from_occupation([0.9, 2]),
    lambda: FockState.from_occupation(np.array([1.0, 0.0])),
    lambda: DetectionPattern({1.5: 0}),
    lambda: DetectionPattern({1: 0.7}),
    lambda: with_ancilla(FockState(1, {(1,): 1.0}), {1.0: 1}, 2),
    lambda: with_ancilla(FockState(1, {(1,): 1.0}), {1: 1.5}, 2),
    lambda: outcome_distribution(STATE, [0.5]),
    lambda: ElementSpec.bs(0, 1.5, 0.5),
    lambda: ElementSpec.ps(0.0, 0.1),
], ids=["state-key", "state-modes", "occupation", "occupation-array", "detector-mode",
        "detector-count", "ancilla-mode", "ancilla-count", "outcome-mode", "bs-mode", "ps-mode"])
def test_non_integer_counts_and_modes_are_rejected(build):
    # int() would truncate these to valid integers; they must raise instead
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_numpy_integers_are_accepted():
    assert FockState.from_occupation(np.array([1, 0])).amplitude(np.array([1, 0])) == 1
    assert DetectionPattern({np.int64(1): np.int8(0)}).constraints == ((1, 0),)
