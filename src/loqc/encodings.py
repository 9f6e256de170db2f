"""Logical-qubit encodings over Fock states and single-qubit synthesis.

Supported schemes:

* ``single_rail``  - one mode per qubit; vacuum is logical 0, one photon
  is logical 1. Encode/decode only: no gate set is provided, since
  passive linear optics cannot move population between photon numbers.
* ``dual_rail``    - two modes per qubit; logical 0 puts the photon in the
  first mode of the pair, logical 1 in the second.
* ``polarization`` - dual rail over (H, V) polarization modes; H is the
  first mode of the pair and carries logical 0.
* ``one_hot``      - 2^m modes carrying a single photon; the occupied mode
  index equals the value of the logical bitstring.

Dual-rail single-qubit gates are realized from the Z-Y decomposition
U = e^{i a} Rz(b) Ry(g) Rz(d): each Rz is a phase shifter on the pair's
second rail (exact up to a global phase) and Ry is a splitter with
reflectivity cos^2(g/2) preceded by a pi phase on the second rail.
Logical comparisons are therefore made up to global phase throughout.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import FockState, NORM_ATOL, _integers
from .multiport import MAX_FOCK_TERMS, MAX_MODES, ElementSpec, ModeTransform, compose_elements, evolve

SCHEMES = ("single_rail", "dual_rail", "one_hot", "polarization")

_PAIR_SCHEMES = ("dual_rail", "polarization")


@dataclass(frozen=True)
class Encoding:
    """A logical labeling of Fock states: scheme name plus qubit count.

    Construction rejects an encoding whose logical basis exceeds
    ``MAX_FOCK_TERMS`` states or whose modes exceed ``MAX_MODES``, before
    ``encode`` or ``decode`` could allocate for it.
    """

    scheme: str
    num_qubits: int

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        [num_qubits] = _integers([self.num_qubits], "num_qubits")
        object.__setattr__(self, "num_qubits", num_qubits)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.num_qubits >= MAX_FOCK_TERMS.bit_length():   # 2**num_qubits > MAX_FOCK_TERMS
            raise ValueError(f"{self.num_qubits} qubits span 2^{self.num_qubits} logical basis "
                             f"states; at most MAX_FOCK_TERMS = {MAX_FOCK_TERMS} are supported")
        if self.num_modes > MAX_MODES:
            raise ValueError(f"{self.scheme} encoding of {self.num_qubits} qubits needs "
                             f"{self.num_modes} modes; at most MAX_MODES = {MAX_MODES} are supported")

    @property
    def num_modes(self) -> int:
        if self.scheme == "single_rail":
            return self.num_qubits
        if self.scheme in _PAIR_SCHEMES:
            return 2 * self.num_qubits
        return 2 ** self.num_qubits

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The occupation of each logical basis state, in index order: entry
        i is ``basis_occupation`` of i as a ``num_qubits``-bit string. Built
        on first use and kept, since a gate runs many times on one basis."""
        return tuple(self.basis_occupation(format(i, f"0{self.num_qubits}b")) for i in range(self.dim))

    def basis_occupation(self, bits: str) -> tuple[int, ...]:
        """Occupation vector of a logical computational-basis state."""
        if len(bits) != self.num_qubits or any(b not in "01" for b in bits):
            raise ValueError(f"bad bitstring {bits!r} for {self.num_qubits} qubit(s)")
        if self.scheme == "single_rail":
            return tuple(int(b) for b in bits)
        if self.scheme in _PAIR_SCHEMES:
            occ: list[int] = []
            for b in bits:
                occ.extend((0, 1) if b == "1" else (1, 0))
            return tuple(occ)
        index = int(bits, 2)
        return tuple(1 if m == index else 0 for m in range(self.num_modes))


def encode(logical: str | Sequence[complex], encoding: Encoding) -> FockState:
    """Map a logical bitstring or normalized amplitude vector to a Fock state."""
    if isinstance(logical, str):
        return FockState.from_occupation(encoding.basis_occupation(logical))
    vec = np.asarray(logical, dtype=complex)
    if vec.shape != (encoding.dim,):
        raise ValueError(f"amplitude vector must have length {encoding.dim}, got {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > NORM_ATOL:
        raise ValueError("amplitude vector is not normalized")
    return FockState(encoding.num_modes, {occ: complex(a) for occ, a in zip(encoding.basis, vec) if a != 0})


def decode(state: FockState, encoding: Encoding) -> tuple[np.ndarray, float]:
    """Project a Fock state onto the logical subspace.

    Returns (renormalized logical amplitude vector, leakage), where
    leakage is the fraction of the state's probability mass outside the
    logical subspace. A state with no logical support raises.
    """
    if state.num_modes != encoding.num_modes:
        raise ValueError(f"state has {state.num_modes} modes, encoding needs {encoding.num_modes}")
    total = state.norm() ** 2
    if total <= 0.0:
        raise ValueError("no logical support: zero state")
    vec = np.array([state.amplitude(occ) for occ in encoding.basis], dtype=complex)
    logical_mass = float(np.vdot(vec, vec).real)
    leakage = max(0.0, 1.0 - logical_mass / total)
    if logical_mass / total < 1e-12:
        raise ValueError("no logical support: state lies entirely outside the logical subspace")
    return vec / math.sqrt(logical_mass), leakage


# -- reference qubit gates ---------------------------------------------

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def qubit_gate(name: str, angle: float | None = None) -> np.ndarray:
    """Reference matrices: X, Y, Z, Rx/Ry/Rz(angle) and CNOT."""
    name = name.upper()
    if name in _PAULI:
        return _PAULI[name].copy()
    if name == "CNOT":
        return _CNOT.copy()
    if name in ("RX", "RY", "RZ"):
        if angle is None:
            raise ValueError(f"{name} requires an angle")
        h = angle / 2.0
        if name == "RX":
            return np.array([[math.cos(h), -1j * math.sin(h)], [-1j * math.sin(h), math.cos(h)]])
        if name == "RY":
            return np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]], dtype=complex)
        return np.array([[cmath.exp(-1j * h), 0], [0, cmath.exp(1j * h)]])
    raise ValueError(f"unknown gate {name!r}")


def logical_fidelity(v: np.ndarray, w: np.ndarray) -> float:
    """|<v|w>| for unit vectors: overlap magnitude, global phase ignored."""
    return float(abs(np.vdot(v, w)))


# -- Z-Y decomposition -------------------------------------------------

@dataclass
class ZYDecomposition:
    """Angles (alpha, beta, gamma, delta) with U = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta).

    ``elements`` realizes the rotation chain on a two-mode rail pair
    (local mode indices 0 and 1), up to the global phase e^{i alpha +
    i(beta+delta)/2} that phase-shifter Rz realizations leave behind.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    elements: list[ElementSpec] = field(default_factory=list)

    def rotation_product(self) -> np.ndarray:
        return (
            cmath.exp(1j * self.alpha)
            * qubit_gate("RZ", self.beta)
            @ qubit_gate("RY", self.gamma)
            @ qubit_gate("RZ", self.delta)
        )


def _rail_elements(beta: float, gamma: float, delta: float) -> list[ElementSpec]:
    """Optical realization of Rz(beta) Ry(gamma) Rz(delta) on modes (0, 1)."""
    eta = math.cos(gamma / 2.0) ** 2
    return [
        ElementSpec.ps(1, delta),        # Rz(delta) up to global phase
        ElementSpec.ps(1, math.pi),      # sign flip that turns the splitter into Ry
        ElementSpec.bs(0, 1, eta),
        ElementSpec.ps(1, beta),         # Rz(beta) up to global phase
    ]


def zy_decompose(u: np.ndarray) -> ZYDecomposition:
    """Extract Z-Y rotation angles from a 2x2 unitary.

    The branch cut sits at +-pi; when gamma lands on 0 or pi the split
    between beta and delta is not unique and delta is set to 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("input must be a 2x2 unitary")
    ModeTransform(u)  # raises ValueError unless u is unitary
    alpha = cmath.phase(np.linalg.det(u)) / 2.0
    v = cmath.exp(-1j * alpha) * u  # special-unitary part
    gamma = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    eps = 1e-12
    if abs(v[1, 0]) < eps:       # gamma ~ 0: v is diagonal
        beta = -2.0 * cmath.phase(v[0, 0])
        delta = 0.0
    elif abs(v[0, 0]) < eps:     # gamma ~ pi: v is antidiagonal
        beta = 2.0 * cmath.phase(v[1, 0])
        delta = 0.0
    else:
        p = cmath.phase(v[0, 0])   # -(beta+delta)/2
        q = cmath.phase(v[1, 0])   # (beta-delta)/2
        beta = q - p
        delta = -(p + q)
    dec = ZYDecomposition(alpha, beta, gamma, delta, _rail_elements(beta, gamma, delta))
    if np.abs(dec.rotation_product() - u).max() > 1e-9:
        raise AssertionError("angle extraction failed to reconstruct the input")
    return dec


def dual_rail_apply(u: np.ndarray, qubit: int, state: FockState) -> FockState:
    """Apply a single-qubit unitary to one dual-rail qubit of a Fock state.

    The unitary is synthesized into phase shifters and a splitter on the
    qubit's rail pair (modes 2q and 2q+1) and the whole state is evolved
    through the embedded elements. Acts as u on the logical subspace up
    to a global phase.
    """
    if state.num_modes % 2 != 0:
        raise ValueError("dual-rail states need an even mode count")
    n_qubits = state.num_modes // 2
    [qubit] = _integers([qubit], "qubit")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
    dec = zy_decompose(u)
    base = 2 * qubit
    shifted = [ElementSpec(tuple(m + base for m in el.modes), el.block) for el in dec.elements]
    return evolve(state, compose_elements(shifted, state.num_modes))
