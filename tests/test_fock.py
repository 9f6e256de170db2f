import math
import re

import numpy as np
import pytest

from loqc import (
    DetectionPattern,
    ElementSpec,
    Encoding,
    FockState,
    dual_rail_apply,
    encode,
    outcome_distribution,
    with_ancilla,
)
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


@pytest.mark.parametrize("call,message", [
    (lambda: FockState(0, {}), "num_modes must be positive"),
    # each square fits a float, their sum does not
    (lambda: FockState(2, {(1, 0): 1e154, (0, 1): 1e154}).norm(), "squared amplitudes overflow a float"),
    (lambda: FockState(1, {(1,): 1e300}).scaled(1e10), "non-finite amplitude (inf+0j) for (1,)"),
    (lambda: FockState(1, {(1,): 1.0}) + FockState(2, {(1, 0): 1.0}), "mode-count mismatch"),
], ids=["no-mode", "norm-overflow", "scaled-overflow", "add-modes"])
def test_state_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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
    lambda: with_ancilla(FockState(1, {(1,): 1.0}), {1: 1}, 2.0),
    lambda: outcome_distribution(STATE, [0.5]),
    lambda: ElementSpec.bs(0, 1.5, 0.5),
    lambda: ElementSpec.ps(0.0, 0.1),
    lambda: Encoding("dual_rail", 2.0),
    lambda: Encoding("dual_rail", 1.5),
    lambda: dual_rail_apply(np.eye(2), 1.0, encode("00", Encoding("dual_rail", 2))),
], ids=["state-key", "state-modes", "occupation", "occupation-array", "detector-mode",
        "detector-count", "ancilla-mode", "ancilla-count", "ancilla-register", "outcome-mode",
        "bs-mode", "ps-mode", "encoding-qubits", "encoding-half-qubits", "dual-rail-qubit"])
def test_non_integer_counts_and_modes_are_rejected(build):
    # int() would truncate these to valid integers; they must raise instead
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_numpy_integers_are_accepted():
    assert FockState.from_occupation(np.array([1, 0])).amplitude(np.array([1, 0])) == 1
    assert DetectionPattern({np.int64(1): np.int8(0)}).constraints == ((1, 0),)


def _stored_bits(state):
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state._amp.items()]


def test_a_state_held_as_rows_scales_to_the_bits_of_its_map():
    rng = np.random.default_rng(11)
    rows = np.array([[2, 0], [1, 1], [0, 2], [3, 0], [0, 3], [1, 2]], dtype=np.int8)
    values = rng.normal(size=6) + 1j * rng.normal(size=6)
    values[2], values[3] = complex(-0.0, 1e-310), complex(1e-320, -2.5)
    for factor in (-1.0, 0.5, 1 / math.sqrt(0.37), 1e-300, 1e300 / 3, 0.0, 0.3 - 0.4j):
        mapped = FockState._wrap(2, dict(FockState._of_rows(2, rows.copy(), values.copy())._amp))
        got = FockState._of_rows(2, rows.copy(), values.copy()).scaled(factor)
        assert (got._map is None) == (complex(factor).imag == 0)   # a real factor keeps the rows
        assert _stored_bits(got) == _stored_bits(mapped.scaled(factor))
    huge = FockState._of_rows(2, rows.copy(), values * 1e300)
    with pytest.raises(ValueError, match="non-finite amplitude"):
        huge.scaled(1e300)
