"""Mode-transformation matrices and Fock-state evolution through them.

A passive linear network on N modes is described by an N x N unitary
acting on the mode creation operators. The convention fixed here (and
relied on by every regression test) is that evolution replaces the
creation operator of input mode k by the k-th *column* of the matrix:

    a_k+  ->  sum_l  L[l, k] a_l+

``evolve`` expands each input basis term as a product of such linear
forms applied to the vacuum and collects the resulting monomials: the
whole output, C(n+m-1, n) terms for n photons in m modes.
``transition_amplitudes`` computes <out|U|in> for a given list of output
occupations only, by Ryser's formula over repeated rows and columns; a
heralded evaluation gets one or the other from
``measurement.evolve_for_branches``, whose docstring gives the rule. The
n!-sum ``permanent_amplitude`` computes single amplitudes by a third
route and exists purely to cross-check the other two.

Budgets: a Fock term may carry at most ``MAX_PHOTONS`` photons (all three
routes raise ``ValueError`` beyond it), an input may span at most
``MAX_FOCK_TERMS`` basis terms and a circuit file may declare at most
``MAX_MODES`` modes; the command-line parser checks the last two before
anything is allocated. ``transition_amplitudes`` multiplies at most
``RYSER_BLOCK`` numbers at once.

All functions are pure; amplitude accumulation runs in a fixed order, so
results are deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .fock import FockState, Occupation, PRUNE_TOL, check_occupation

#: Maximum allowed deviation of L+L from the identity.
UNITARY_TOL = 1e-9

SQRT2 = math.sqrt(2.0)

#: Most photons one Fock term may carry; sizes the factorial table.
MAX_PHOTONS = 39

#: Most basis terms, C(n+m-1, n) for n photons in m modes, that an input
#: may span; ``evolve`` builds that many output terms.
MAX_FOCK_TERMS = 10**5

#: Most modes a circuit file may declare: every element is embedded as a
#: full N x N matrix, so memory grows as N^2 and composition as N^3.
MAX_MODES = 64

#: Most complex numbers ``transition_amplitudes`` multiplies at once in
#: its running product (outputs x s-grid); bounds its working memory.
RYSER_BLOCK = 1 << 15

_FACT = [math.factorial(n) for n in range(MAX_PHOTONS + 1)]


def _check_photon_budget(occ: Occupation) -> None:
    """Reject a Fock term carrying more than ``MAX_PHOTONS`` photons."""
    if sum(occ) > MAX_PHOTONS:
        raise ValueError(f"a term carries {sum(occ)} photons; at most "
                         f"MAX_PHOTONS = {MAX_PHOTONS} are supported")


class ModeTransform:
    """An N x N unitary matrix acting on mode operators."""

    __slots__ = ("dim", "_m")

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not np.isfinite(m).all() or dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        m.flags.writeable = False
        self.dim = m.shape[0]
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def dagger(self) -> "ModeTransform":
        return ModeTransform(self._m.conj().T)

    def unitarity_deviation(self) -> float:
        return float(np.abs(self._m.conj().T @ self._m - np.eye(self.dim)).max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModeTransform(dim={self.dim})"


@dataclass(eq=False)
class ElementSpec:
    """One optical element: its unitary block and the circuit modes it touches.

    Row and column k of ``block`` act on ``modes[k]``. The constructors
    ``bs``, ``ps``, ``gen3`` and ``raw`` build the block once; equality
    compares modes and blocks exactly.
    """

    modes: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        self.modes = tuple(int(m) for m in self.modes)
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"element modes must be distinct: {self.modes}")
        block = ModeTransform(self.block)
        if block.dim != len(self.modes):
            raise ValueError(f"a {block.dim}x{block.dim} block cannot act on "
                             f"{len(self.modes)} mode(s)")
        self.block = block.matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSpec):
            return NotImplemented
        return self.modes == other.modes and np.array_equal(self.block, other.block)

    @classmethod
    def bs(cls, i: int, j: int, eta: float) -> "ElementSpec":
        return cls((i, j), beam_splitter(eta).matrix)

    @classmethod
    def ps(cls, mode: int, delta: float) -> "ElementSpec":
        return cls((mode,), np.array([[np.exp(1j * float(delta))]]))

    @classmethod
    def gen3(cls, i: int, j: int, k: int, t1: float, t2: float, t3: float) -> "ElementSpec":
        return cls((i, j, k), general3(float(t1), float(t2), float(t3)).matrix)

    @classmethod
    def raw(cls, modes: tuple[int, ...], matrix: np.ndarray) -> "ElementSpec":
        return cls(modes, matrix)


def beam_splitter(eta: float) -> ModeTransform:
    """Two-mode splitter with reflectivity eta, asymmetric sign convention.

    Matrix [[sqrt(eta), sqrt(1-eta)], [sqrt(1-eta), -sqrt(eta)]]; the sign
    flip sits on the second mode's reflection. Other conventions (complex
    symmetric splitters) are intentionally not provided.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"reflectivity eta must lie in [0, 1], got {eta}")
    r = math.sqrt(eta)
    t = math.sqrt(1.0 - eta)
    return ModeTransform(np.array([[r, t], [t, -r]]))


def phase_shifter(delta: float) -> ModeTransform:
    """diag(e^{i delta}, 1): phase on the first of the two modes."""
    return ModeTransform(np.array([[np.exp(1j * float(delta)), 0], [0, 1]]))


def general3_columns(t1, t2, t3):
    """Yield the columns of ``general3`` in order: the images of the three
    mode creation operators. Accepts scalars or broadcastable arrays; a
    caller that needs only the first columns stops early."""
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)
    yield -c2, c1 * s2, s1 * s2
    c1c2, s1c2 = c1 * c2, s1 * c2
    yield s2 * c3, s1 * s3 + c1c2 * c3, -c1 * s3 + s1c2 * c3
    yield s2 * s3, -s1 * c3 + c1c2 * s3, c1 * c3 + s1c2 * s3


def general3(theta1: float, theta2: float, theta3: float) -> ModeTransform:
    """The real three-mode family swept by the postcorrection searches.

    Equals the product of three two-mode rotations: one on modes (1,2) by
    theta3, a reflection-type splitter on modes (0,1) by theta2, then a
    rotation on modes (1,2) by theta1.
    """
    return ModeTransform(np.array(list(general3_columns(theta1, theta2, theta3))).T)


#: Entries of ``ns_matrix``, shared with the search's closed forms.
NS_U = 1.0 - SQRT2              # signal back-reflection of the sign-shift core
NS_V = 2.0 ** -0.25             # signal <-> ancilla coupling
NS_W = math.sqrt(3.0 / SQRT2 - 2.0)
NS_R = 0.5 - 1.0 / SQRT2


def ns_matrix() -> ModeTransform:
    """Closed-form 3x3 matrix of the nonlinear sign-shift network.

    Mode 0 is the signal; modes 1 and 2 are the ancilla/detector modes.
    """
    return ModeTransform(np.array([
        [NS_U, NS_V, NS_W],
        [NS_V, 0.5, NS_R],
        [NS_W, NS_R, SQRT2 - 0.5],
    ]))


#: Exact angles at which the three-rotation factorization of ``general3``
#: reproduces ``ns_matrix`` to machine precision (the printed circuit
#: angles 22.5 / 65.53 / 22.5 degrees are roundings of these).
NS_ANGLES = (math.pi / 8, math.acos(SQRT2 - 1.0), math.pi / 8)


def embed(element: ElementSpec, total_modes: int) -> ModeTransform:
    """Place an element's block on its target modes, identity elsewhere."""
    for m in element.modes:
        if not 0 <= m < total_modes:
            raise ValueError(f"element mode {m} out of range for {total_modes} modes")
    full = np.eye(total_modes, dtype=complex)
    idx = np.array(element.modes)
    full[np.ix_(idx, idx)] = element.block
    return ModeTransform(full)


def compose(first: ModeTransform, then: ModeTransform) -> ModeTransform:
    """Composite transform of `first` followed by `then` (circuit order)."""
    if first.dim != then.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {then.dim}")
    return ModeTransform(then.matrix @ first.matrix)


def compose_elements(elements: list[ElementSpec] | tuple[ElementSpec, ...], total_modes: int) -> ModeTransform:
    """Embed and compose a sequence of elements in circuit order."""
    total = np.eye(total_modes, dtype=complex)
    for el in elements:
        total = embed(el, total_modes).matrix @ total
    return ModeTransform(total)


def evolve(state: FockState, transform: ModeTransform, prune_tol: float = PRUNE_TOL) -> FockState:
    """Send a Fock state through a linear network.

    Each basis term |n1 n2 ...> is rewritten as the corresponding product
    of creation-operator monomials; every operator of input mode k is
    replaced by the linear form given by column k of the matrix, the
    product is expanded, and monomials are converted back to occupation
    amplitudes. Total photon number is conserved term by term.
    """
    if state.num_modes != transform.dim:
        raise ValueError(f"state has {state.num_modes} modes, transform {transform.dim}")
    L = transform.matrix
    n_modes = transform.dim
    columns = [[(l, L[l, k]) for l in range(n_modes) if L[l, k] != 0] for k in range(n_modes)]
    out: dict[Occupation, complex] = {}
    zero = (0,) * n_modes
    for occ, amp in state.terms():
        _check_photon_budget(occ)
        poly: dict[Occupation, complex] = {zero: 1.0 + 0j}
        for k, n_k in enumerate(occ):
            for _ in range(n_k):
                nxt: dict[Occupation, complex] = {}
                for mono, coeff in poly.items():
                    for l, c in columns[k]:
                        key = mono[:l] + (mono[l] + 1,) + mono[l + 1:]
                        nxt[key] = nxt.get(key, 0j) + coeff * c
                poly = nxt
        pref = amp / math.sqrt(math.prod(_FACT[n] for n in occ))
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0j) + pref * coeff * math.sqrt(math.prod(_FACT[m] for m in mono))
    if prune_tol > 0:
        out = {o: a for o, a in out.items() if abs(a) >= prune_tol}
    return FockState(n_modes, out)


def transition_amplitudes(
    state: FockState, transform: ModeTransform, outputs: Iterable[Occupation]
) -> FockState:
    """The part of ``evolve(state, transform)`` on the given output occupations.

    For an input term with n_k photons in mode k and an output occupation
    (o_l), Ryser's formula over repeated rows and columns gives

        <o|U|n> = sum_{0 <= s_k <= n_k} (-1)^(n - |s|) prod_k C(n_k, s_k)
                  prod_l (sum_k s_k U[l, k])^(o_l) / sqrt(prod n_k! prod o_l!)

    (H. J. Ryser, Combinatorial Mathematics, 1963), prod(n_k + 1) <= 2^n
    products per output and mode instead of the n! of ``matrix_permanent``.
    Each input term is one numpy pass over its s-grid and its outputs at
    the same photon number: a table of powers of (modes, n + 1, s-grid)
    complex numbers, then a running product over the modes, taken in
    blocks of outputs of at most ``RYSER_BLOCK`` numbers each. Outputs
    with another photon number than every input term get no amplitude;
    the result is pruned at ``PRUNE_TOL`` exactly as ``evolve`` prunes.
    """
    if state.num_modes != transform.dim:
        raise ValueError(f"state has {state.num_modes} modes, transform {transform.dim}")
    dim = transform.dim
    keys = list(dict.fromkeys(map(tuple, outputs)))
    outs = np.array(keys, dtype=int).reshape(len(keys), -1) if keys else np.zeros((0, dim), int)
    if outs.shape[1] != dim or (outs < 0).any():
        raise ValueError(f"outputs must be non-negative occupations of {dim} modes")
    for occ in keys:
        _check_photon_budget(occ)
    photons = outs.sum(axis=1)
    sums = np.zeros(len(outs), dtype=complex)
    for occ, amp in state.terms():
        _check_photon_budget(occ)
        n = sum(occ)
        idx = np.flatnonzero(photons == n)
        if not len(idx):
            continue
        cols = [k for k, c in enumerate(occ) if c]
        counts = [occ[k] for k in cols]
        s = np.array(list(product(*(range(c + 1) for c in counts))))   # (s-grid, cols)
        weights = (-1.0) ** (n - s.sum(axis=1))
        # no matmul here or below: on these small shapes, BLAS threads cost
        # more than they save
        r = np.zeros((dim, len(s)), dtype=complex)                      # (modes, s-grid)
        for j, (k, c) in enumerate(zip(cols, counts)):
            weights *= np.array([math.comb(c, i) for i in range(c + 1)])[s[:, j]]
            r += transform.matrix[:, k, None] * s[:, j]
        weights = weights.astype(complex)
        powers = np.ones((dim, n + 1, len(s)), dtype=complex)           # r ** e, e = 0..n
        for e in range(1, n + 1):
            powers[:, e] = powers[:, e - 1] * r
        scale = amp / math.sqrt(math.prod(math.factorial(c) for c in counts))
        step = max(1, RYSER_BLOCK // len(s))
        for lo in range(0, len(idx), step):
            block = idx[lo:lo + step]
            sub = outs[block]
            terms = np.repeat(weights[None, :], len(sub), axis=0)           # (outputs, s-grid)
            for l in np.flatnonzero(sub.any(axis=0)):
                terms *= powers[l, sub[:, l]]
            sums[block] += scale * terms.sum(axis=1)
    top = int(photons.max(initial=0))
    factorials = np.array([math.factorial(k) for k in range(top + 1)], dtype=float)
    amps = sums / np.sqrt(factorials[outs].prod(axis=1))
    keep = np.abs(amps) >= PRUNE_TOL
    return FockState(dim, dict(zip(map(tuple, outs[keep].tolist()), amps[keep].tolist())))


def matrix_permanent(m: np.ndarray) -> complex:
    """Permanent by direct sum over permutations (small matrices only)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    rows = range(n)
    total = 0j
    for cols in permutations(rows):
        p = 1.0 + 0j
        for r, c in zip(rows, cols):
            p *= m[r, c]
        total += p
    return total


def permanent_amplitude(input_occ: Occupation, output_occ: Occupation, transform: ModeTransform) -> complex:
    """Transition amplitude <out|U|in> via the matrix permanent.

    Builds the submatrix that repeats column k of the transform once per
    input photon in mode k and row l once per output photon in mode l;
    the amplitude is per(sub)/sqrt(prod n_in! prod n_out!). Kept free of
    any shared code with ``evolve`` so the two can cross-check each other.
    """
    inp = check_occupation(input_occ, transform.dim)
    outp = check_occupation(output_occ, transform.dim)
    _check_photon_budget(inp)
    _check_photon_budget(outp)
    if sum(inp) != sum(outp):
        return 0j
    cols = [k for k, n in enumerate(inp) for _ in range(n)]
    rows = [l for l, n in enumerate(outp) for _ in range(n)]
    sub = transform.matrix[np.ix_(rows, cols)]
    norm = math.sqrt(math.prod(_FACT[n] for n in inp) * math.prod(_FACT[n] for n in outp))
    return complex(matrix_permanent(sub)) / norm
