import math
import re
import tracemalloc

import numpy as np
import pytest

from loqc import (
    Encoding,
    FockState,
    decode,
    dual_rail_apply,
    encode,
    logical_fidelity,
    qubit_gate,
    zy_decompose,
)

from helpers import random_unitary


# -- reference gates --------------------------------------------------------

def test_x_switches_amplitudes():
    v = np.array([0.6, 0.8j])
    out = qubit_gate("X") @ v
    assert np.allclose(out, [0.8j, 0.6])


def test_rx_equals_cos_identity_minus_i_sin_x():
    theta = 0.9
    want = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * qubit_gate("X")
    assert np.allclose(qubit_gate("RX", theta), want)


def test_cnot_swaps_last_two_amplitudes():
    v = np.array([1, 2, 3, 4], dtype=complex)
    assert np.allclose(qubit_gate("CNOT") @ v, [1, 2, 4, 3])


def test_pauli_algebra():
    ident = np.eye(2)
    x, y, z = (qubit_gate(n) for n in "XYZ")
    assert np.array_equal(x @ x, ident)
    assert np.array_equal(y @ y, ident)
    assert np.array_equal(z @ z, ident)
    assert np.array_equal(y, 1j * x @ z)


def test_unknown_gate_name():
    with pytest.raises(ValueError, match="unknown gate"):
        qubit_gate("HADAMARD")


# -- encode / decode ---------------------------------------------------------

def test_dual_rail_basis_example():
    state = encode("11", Encoding("dual_rail", 2))
    assert state.amplitude([0, 1, 0, 1]) == pytest.approx(1.0)


def test_one_hot_basis_example():
    state = encode("00", Encoding("one_hot", 2))
    assert state.amplitude([1, 0, 0, 0]) == pytest.approx(1.0)


def test_single_rail_superposition():
    v = np.array([1, 1]) / math.sqrt(2)
    state = encode(v, Encoding("single_rail", 1))
    assert state.amplitude([0]) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude([1]) == pytest.approx(1 / math.sqrt(2))


def test_polarization_matches_dual_rail_layout():
    state = encode("10", Encoding("polarization", 2))
    assert state.amplitude([0, 1, 1, 0]) == pytest.approx(1.0)


_QUBIT = Encoding("dual_rail", 1)


@pytest.mark.parametrize("call,message", [
    (lambda: Encoding("bogus", 1), "unknown scheme 'bogus'"),
    (lambda: Encoding("dual_rail", 0), "num_qubits must be positive"),
    (lambda: _QUBIT.basis_occupation("2"), "bad bitstring '2' for 1 qubit(s)"),
    (lambda: encode([1, 0, 0], _QUBIT), "amplitude vector must have length 2, got (3,)"),
    (lambda: decode(FockState(2, {}), _QUBIT), "no logical support: zero state"),
    (lambda: qubit_gate("RX"), "RX requires an angle"),
    (lambda: zy_decompose(np.eye(3)), "input must be a 2x2 unitary"),
    (lambda: dual_rail_apply(np.eye(2), 0, FockState.from_occupation([1, 0, 0])),
     "dual-rail states need an even mode count"),
    (lambda: dual_rail_apply(np.eye(2), 1, encode("0", _QUBIT)), "qubit 1 out of range for 1 qubits"),
], ids=["scheme", "no-qubit", "bitstring", "vector-length", "zero-state", "rx-angle", "zy-shape",
        "odd-modes", "qubit-range"])
def test_encoding_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_encode_rejects_unnormalized_vector():
    with pytest.raises(ValueError, match="not normalized"):
        encode(np.array([1.0, 1.0]), Encoding("dual_rail", 1))


@pytest.mark.parametrize("scheme,qubits,budget", [
    ("one_hot", 40, "MAX_FOCK_TERMS"),     # 2^40 modes and basis states
    ("dual_rail", 17, "MAX_FOCK_TERMS"),   # 34 modes, 131,072 basis states
    ("one_hot", 7, "MAX_MODES"),           # 128 modes
    ("one_hot", 10**6, "MAX_FOCK_TERMS"),  # the integer 2^q alone would take 125 kB
])
def test_encoding_budget_is_checked_at_construction(scheme, qubits, budget):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=budget):
            Encoding(scheme, qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("scheme", ["single_rail", "dual_rail", "one_hot", "polarization"])
@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_round_trip_on_all_basis_states(scheme, qubits):
    enc = Encoding(scheme, qubits)
    for index in range(enc.dim):
        bits = format(index, f"0{qubits}b")
        vec, leakage = decode(encode(bits, enc), enc)
        assert leakage == 0.0
        want = np.zeros(enc.dim)
        want[index] = 1.0
        assert np.allclose(vec, want)


def test_round_trip_on_random_vectors():
    rng = np.random.default_rng(21)
    for scheme in ("dual_rail", "one_hot"):
        enc = Encoding(scheme, 2)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            w, leakage = decode(encode(v, enc), enc)
            assert leakage < 1e-12
            assert np.abs(w - v).max() < 1e-9


def test_double_occupation_is_pure_leakage():
    enc = Encoding("dual_rail", 2)
    state = FockState.from_occupation([1, 1, 0, 0])
    with pytest.raises(ValueError, match="no logical support"):
        decode(state, enc)


def test_partial_leakage_renormalizes():
    enc = Encoding("dual_rail", 1)
    state = FockState(2, {(1, 0): 0.6, (2, 0): 0.8})
    vec, leakage = decode(state, enc)
    assert leakage == pytest.approx(0.64)
    assert np.allclose(vec, [1.0, 0.0])


def test_entangled_state_decodes_without_leakage():
    enc = Encoding("dual_rail", 2)
    state = FockState(4, {(1, 0, 1, 0): 1 / math.sqrt(2), (0, 1, 0, 1): 1 / math.sqrt(2)})
    vec, leakage = decode(state, enc)
    assert leakage < 1e-12
    want = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert logical_fidelity(vec, want) == pytest.approx(1.0, abs=1e-12)


def test_decode_mode_count_mismatch():
    with pytest.raises(ValueError, match="modes"):
        decode(FockState.from_occupation([1, 0]), Encoding("dual_rail", 2))


# -- the logical-basis table ---------------------------------------------------

_SCHEMES = ["single_rail", "dual_rail", "one_hot", "polarization"]


def _bits_of(index, enc):
    return format(index, f"0{enc.num_qubits}b")


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_basis_is_every_basis_occupation_in_index_order(scheme, qubits):
    enc = Encoding(scheme, qubits)
    assert enc.basis == tuple(enc.basis_occupation(_bits_of(i, enc)) for i in range(enc.dim))
    assert enc.basis is enc.basis   # built once


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def _encode_loop(vec, enc):
    """The amplitude map of ``encode(vec, enc)``, one bitstring at a time."""
    return {enc.basis_occupation(_bits_of(i, enc)): complex(a) for i, a in enumerate(vec) if a != 0}


def _decode_loop(state, enc):
    """``decode(state, enc)``, one bitstring at a time."""
    vec = np.zeros(enc.dim, dtype=complex)
    for index in range(enc.dim):
        vec[index] = state.amplitude(enc.basis_occupation(_bits_of(index, enc)))
    mass = float(np.vdot(vec, vec).real)
    return vec / math.sqrt(mass), max(0.0, 1.0 - mass / state.norm() ** 2)


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_encode_and_decode_match_a_per_bitstring_loop(scheme):
    rng = np.random.default_rng(28)
    for qubits in (1, 2, 3, 4):
        enc = Encoding(scheme, qubits)
        leak = (2,) + (0,) * (enc.num_modes - 1)   # no scheme puts two photons on a mode
        for _ in range(4):
            v = rng.normal(size=enc.dim) + 1j * rng.normal(size=enc.dim)
            v[1:][rng.random(enc.dim - 1) < 0.3] = 0   # encode skips zero amplitudes
            v /= np.linalg.norm(v)
            state = encode(v, enc)
            want = _encode_loop(v, enc)
            assert [(occ, _hex(a)) for occ, a in state._amp.items()] == [
                (occ, _hex(a)) for occ, a in want.items()]
            leaky = FockState(enc.num_modes, {**want, leak: 0.5 * rng.normal()})
            for probe in (state, leaky):
                (got, got_leak), (vec, leakage) = decode(probe, enc), _decode_loop(probe, enc)
                assert [_hex(a) for a in got] == [_hex(a) for a in vec]
                assert got_leak.hex() == leakage.hex()


def test_encoding_one_bitstring_builds_no_table():
    enc = Encoding("dual_rail", 16)
    state = encode("0" * 16, enc)
    assert state.amplitude((1, 0) * 16) == 1.0
    assert "basis" not in enc.__dict__


# -- Z-Y decomposition --------------------------------------------------------

def test_identity_decomposes_to_identity_product():
    dec = zy_decompose(np.eye(2))
    assert np.abs(dec.rotation_product() - np.eye(2)).max() < 1e-12


def test_x_gate_decomposition_reconstructs():
    dec = zy_decompose(qubit_gate("X"))
    assert dec.gamma == pytest.approx(math.pi)
    assert np.abs(dec.rotation_product() - qubit_gate("X")).max() < 1e-9


def test_rz_form_matches_phase_shifter_realization():
    beta = 0.77
    want = np.exp(-1j * beta / 2) * np.diag([1.0, np.exp(1j * beta)])
    assert np.allclose(qubit_gate("RZ", beta), want)


def test_decompose_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        zy_decompose(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_reconstruction_on_random_unitaries():
    rng = np.random.default_rng(22)
    for _ in range(50):
        u = random_unitary(rng, 2)
        dec = zy_decompose(u)
        assert np.abs(dec.rotation_product() - u).max() < 1e-9


# -- dual-rail application -----------------------------------------------------

def _fidelity_after(u: np.ndarray, state_vec: np.ndarray, qubit: int, enc: Encoding) -> float:
    state = encode(state_vec, enc)
    out = dual_rail_apply(u, qubit, state)
    got, leakage = decode(out, enc)
    assert leakage < 1e-9
    full = u if enc.num_qubits == 1 else (
        np.kron(u, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), u)
    )
    want = full @ state_vec
    return logical_fidelity(got, want / np.linalg.norm(want))


def test_x_swaps_the_rails():
    enc = Encoding("dual_rail", 1)
    out = dual_rail_apply(qubit_gate("X"), 0, encode("0", enc))
    vec, leakage = decode(out, enc)
    assert leakage < 1e-12
    assert abs(vec[1]) == pytest.approx(1.0)


def test_non_integer_qubit_is_named_in_the_diagnostic():
    # a float qubit used to pass the range check and fail on element modes
    state = encode("00", Encoding("dual_rail", 2))
    with pytest.raises(ValueError, match=r"qubit must be integers, got \(1\.0,\)"):
        dual_rail_apply(np.eye(2), 1.0, state)


def test_identity_leaves_state_alone():
    enc = Encoding("dual_rail", 2)
    state = encode(np.array([0.5, 0.5, 0.5, 0.5]), enc)
    out = dual_rail_apply(np.eye(2), 1, state)
    got, _ = decode(out, enc)
    assert logical_fidelity(got, np.full(4, 0.5)) == pytest.approx(1.0, abs=1e-9)


def test_z_rotation_flips_relative_sign():
    enc = Encoding("dual_rail", 1)
    plus = encode(np.array([1, 1]) / math.sqrt(2), enc)
    out = dual_rail_apply(qubit_gate("RZ", math.pi), 0, plus)
    got, _ = decode(out, enc)
    want = np.array([1, -1]) / math.sqrt(2)
    assert logical_fidelity(got, want) == pytest.approx(1.0, abs=1e-9)


def test_random_single_qubit_gates_match_matrix_oracle():
    rng = np.random.default_rng(23)
    enc = Encoding("dual_rail", 2)
    for _ in range(40):
        u = random_unitary(rng, 2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        fid = _fidelity_after(u, v, int(rng.integers(0, 2)), enc)
        assert fid >= 1 - 1e-9
