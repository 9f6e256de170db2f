"""Mode-transformation matrices and Fock-state evolution through them.

A passive linear network on N modes is described by an N x N unitary
acting on the mode creation operators. The convention fixed here (and
relied on by every regression test) is that evolution replaces the
creation operator of input mode k by the k-th *column* of the matrix:

    a_k+  ->  sum_l  L[l, k] a_l+

``evolve`` expands each input basis term as a product of such linear
forms applied to the vacuum and collects the resulting monomials: the
whole output, C(n+m-1, n) terms for n photons in m modes. Only the modes
the network mixes take part: a spectator mode, whose row and column are
both e_k, keeps its photons and passes through; a transform works out
its active modes once (``ModeTransform._active_block``). The expansion
runs as numpy passes over the Fock basis of the other modes, one per
photon, guided by an index table per (modes, photons) from a bounded
cache; the ``evolve`` docstring gives the order in which it sums.
``_HeraldedEvolution`` is the one heralded evaluator: it computes the
outputs some detection patterns keep, by Ryser's formula over repeated
rows and columns (``_ryser_column``, one input occupation at a time), or
runs the full ``evolve``. Either way its output is a linear map of the
input, and it keeps each input occupation's piece of that map, a Ryser
column or an ``evolve`` expansion (``evolve``'s ``_cache``), so that a
gate's repeat runs skip that work; its docstring gives the route rule
and the cache. The n!-sum ``permanent_amplitude`` computes single
amplitudes by a third route and exists purely to cross-check the other
two.

Budgets: a Fock term may carry at most ``MAX_PHOTONS`` photons (all three
routes check), an input term may span at most ``MAX_FOCK_TERMS`` basis
terms (``evolve`` checks before it builds a table; the command-line
parser checks a circuit file's input first), and ``check_term_budget``
is the one place that raises ``ValueError`` for both. The heralded
route has two bounds of its own, on the s-grid (``MAX_RYSER_GRID``) and
on the heralded outputs; ``_HeraldedEvolution`` states them with its
rule. A circuit file may declare, and an ``Encoding`` span, at most
``MAX_MODES`` modes. ``evolve`` and the Ryser pass hold at most
``RYSER_BLOCK`` numbers in one working array, or one input term's share
of it when that is more: its products with one column, or its powers
table.

All functions are pure, apart from the caches they fill, which change no
result; amplitude accumulation runs in a fixed order, so results are
deterministic.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement, permutations

import numpy as np

from .fock import FockState, Occupation, PRUNE_TOL, _integers, check_occupation

#: Maximum allowed deviation of L+L from the identity.
UNITARY_TOL = 1e-9

SQRT2 = math.sqrt(2.0)

#: Most photons one Fock term may carry; sizes the factorial table.
MAX_PHOTONS = 39

#: Most basis terms, C(n+m-1, n) for n photons in m modes, that an input
#: may span; ``evolve`` builds that many output terms.
MAX_FOCK_TERMS = 10**5

#: Most modes a circuit file or an encoding may use: every element is
#: embedded as a full N x N matrix, so memory grows as N^2 and
#: composition as N^3.
MAX_MODES = 64

#: Most complex numbers the Ryser pass (``_ryser_column``) holds at once
#: in its running product (outputs x s-grid), and ``evolve`` forms at once
#: in one photon's pass (input terms x modes x basis); bounds their working
#: memory. One occupation's powers table (modes x (n + 1) x s-grid) is
#: bounded by ``MAX_RYSER_GRID`` instead.
RYSER_BLOCK = 1 << 15

#: Most points, prod(n_k + 1) over the modes of one input term, that an
#: s-grid of the heralded route may hold: 12 singly occupied photons; a
#: term with more takes ``evolve``. A term's powers table holds
#: modes x (n + 1) x grid complex numbers, which doubles with every
#: further singly occupied photon.
MAX_RYSER_GRID = 1 << 12

_FACT = [math.factorial(n) for n in range(MAX_PHOTONS + 1)]

#: Signs that turn the imaginary part b of a factor into the two cross
#: terms of a complex product: (re, im) * (a + ib) = (re*a - im*b, im*a + re*b).
_CROSS = np.array([-1.0, 1.0])


def check_term_budget(photons: int, modes: int | None = None) -> None:
    """Reject a Fock term of more than ``MAX_PHOTONS`` photons and, given
    ``modes``, one whose basis, C(n+m-1, n) terms for n photons in m modes,
    exceeds ``MAX_FOCK_TERMS``; raises ``ValueError``."""
    if photons > MAX_PHOTONS:
        raise ValueError(f"a term carries {photons} photons; at most "
                         f"{MAX_PHOTONS} (MAX_PHOTONS) are supported")
    size = 0 if modes is None else math.comb(photons + modes - 1, photons)
    if size > MAX_FOCK_TERMS:
        raise ValueError(f"{photons} photons in {modes} modes span {size} basis terms; at most "
                         f"MAX_FOCK_TERMS = {MAX_FOCK_TERMS} are supported")


class ModeTransform:
    """An N x N unitary matrix acting on mode operators."""

    __slots__ = ("dim", "_m", "_block")

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not np.isfinite(m).all() or dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        m.flags.writeable = False
        self.dim, self._m, self._block = m.shape[0], m, None

    @classmethod
    def _unitary(cls, matrix: np.ndarray) -> "ModeTransform":
        """Take over a square matrix that is unitary by construction,
        unchecked; the caller vouches that its entries are finite."""
        m = np.array(matrix, dtype=complex)
        m.flags.writeable = False
        transform = object.__new__(cls)
        transform.dim, transform._m, transform._block = m.shape[0], m, None
        return transform

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def unitarity_deviation(self) -> float:
        return float(np.abs(self._m.conj().T @ self._m - np.eye(self.dim)).max())

    def _active_block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The spectator modes, whose row and column are both exactly e_k,
        as a mask; the other, active modes as indices; and the columns of
        the matrix on the active modes as (k, l, re/im), for ``evolve``,
        which only reads them. Worked out on the first call: the matrix
        cannot change."""
        if self._block is None:
            off = self._m != np.eye(self.dim)
            mixed = (off | off.T).any(axis=1)
            active = np.flatnonzero(mixed)
            cols = self._m[active[:, None], active].T.copy().view(float).reshape(len(active), len(active), 2)
            self._block = ~mixed, active, cols
        return self._block


@dataclass(eq=False)
class ElementSpec:
    """One optical element: its unitary block and the circuit modes it touches.

    Row and column k of ``block`` act on ``modes[k]``. The constructors
    ``bs``, ``ps``, ``gen3`` and ``raw`` build the block once; a block
    given as a ``ModeTransform`` is taken as checked, any other is checked
    for unitarity here. ``bs``, ``ps`` and ``gen3`` build blocks that are
    unitary by construction and skip that check; they reject what it
    caught, a non-finite parameter or an ``eta`` outside [0, 1], with the
    same messages. Equality compares modes and blocks exactly.
    """

    modes: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        self.modes = _integers(self.modes, "element modes")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"element modes must be distinct: {self.modes}")
        block = self.block if isinstance(self.block, ModeTransform) else ModeTransform(self.block)
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
        return cls((i, j), beam_splitter(eta))

    @classmethod
    def ps(cls, mode: int, delta: float) -> "ElementSpec":
        return cls((mode,), ModeTransform._unitary([[np.exp(1j * _finite(delta))]]))

    @classmethod
    def gen3(cls, i: int, j: int, k: int, t1: float, t2: float, t3: float) -> "ElementSpec":
        return cls((i, j, k), general3(float(t1), float(t2), float(t3)))

    @classmethod
    def raw(cls, modes: tuple[int, ...], matrix: np.ndarray | ModeTransform) -> "ElementSpec":
        return cls(modes, matrix)


def _finite(angle: float) -> float:
    """``angle`` as a float; a non-finite one raises the ``ValueError`` that
    the unitarity check gave for the matrix it makes."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("matrix is not unitary (deviation nan)")
    return angle


def beam_splitter(eta: float) -> ModeTransform:
    """Two-mode splitter with reflectivity eta, asymmetric sign convention.

    Matrix [[sqrt(eta), sqrt(1-eta)], [sqrt(1-eta), -sqrt(eta)]]; the sign
    flip sits on the second mode's reflection. Other conventions (complex
    symmetric splitters) are intentionally not provided. Unitary for every
    eta in [0, 1], so it is not checked.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"reflectivity eta must lie in [0, 1], got {eta}")
    r = math.sqrt(eta)
    t = math.sqrt(1.0 - eta)
    return ModeTransform._unitary([[r, t], [t, -r]])


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
    rotation on modes (1,2) by theta1, so it is orthogonal for every finite
    angle and is not checked.
    """
    angles = map(_finite, (theta1, theta2, theta3))
    return ModeTransform._unitary(np.array(list(general3_columns(*angles))).T)


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


def _embedded(element: ElementSpec, total_modes: int) -> np.ndarray:
    """An element's block on its target modes, identity elsewhere; the
    block was checked when the element was built."""
    for m in element.modes:
        if not 0 <= m < total_modes:
            raise ValueError(f"element mode {m} out of range for {total_modes} modes")
    full = np.eye(total_modes, dtype=complex)
    idx = np.array(element.modes)
    full[np.ix_(idx, idx)] = element.block
    return full


def embed(element: ElementSpec, total_modes: int) -> ModeTransform:
    """Place an element's block on its target modes, identity elsewhere."""
    return ModeTransform(_embedded(element, total_modes))


def compose_elements(elements: list[ElementSpec] | tuple[ElementSpec, ...], total_modes: int) -> ModeTransform:
    """Embed and compose a sequence of elements in circuit order; the
    product is checked for unitarity once."""
    total = np.eye(total_modes, dtype=complex)
    for el in elements:
        total = _embedded(el, total_modes) @ total
    return ModeTransform(total)


@functools.lru_cache(maxsize=128)
def _rank_table(modes: int, photons: int) -> tuple[np.ndarray, np.ndarray]:
    """``table[i, t]`` = C(t + d - 1, d) for t <= ``photons`` photons in the
    d = ``modes`` - 1 - i modes beyond mode i (see ``_rank``), and the
    index of each mode i < ``modes`` - 1."""
    table = np.array([[math.comb(t + modes - i - 2, modes - i - 1) for t in range(photons + 1)]
                      for i in range(modes - 1)], dtype=np.int32).reshape(max(modes - 1, 0), photons + 1)
    return table, np.arange(max(modes - 1, 0))


def _rank(occs: np.ndarray, photons: int) -> np.ndarray:
    """The row of each occupation (along the last axis) in the
    ``_fock_basis`` of its modes and photons; none holds more than
    ``photons``.

    An occupation comes after those that agree with it before some mode i
    and hold more photons at mode i; with t photons beyond mode i and d
    modes beyond it, there are C(t + d - 1, d) of these for each i.
    """
    table, before = _rank_table(occs.shape[-1], photons)
    beyond = np.cumsum(occs[..., :0:-1], axis=-1, dtype=np.int8)[..., ::-1]   # photons beyond mode i
    return table[before, beyond].sum(axis=-1)


@functools.lru_cache(maxsize=128)
def _fock_basis(modes: int, photons: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Fock basis of ``photons`` photons in ``modes`` modes, its
    scale factors, and the index table that builds it from the basis of
    one photon fewer.

    ``basis`` holds the occupations o as int8 rows in descending
    lexicographic order, ``scale`` holds sqrt(prod_l o_l!) as a column,
    the integer product taken exactly before it is rounded. For the basis
    ``prev`` of one photon fewer, ``bins[m - 1 - l, p]`` is (2r, 2r + 1),
    where r = ``_rank(prev[p] + e_l)``: the real and imaginary slots of
    that row in an interleaved array.
    """
    if photons == 0:
        return np.zeros((1, modes), np.int8), np.ones((1, 1)), np.zeros((modes, 0, 2), np.int32)
    size = math.comb(photons + modes - 1, photons)
    prev = _fock_basis(modes, photons - 1)[0]
    eye = np.eye(modes, dtype=np.int8)
    child = np.array([_rank(prev + e_l, photons) for e_l in eye])     # (mode l, parent row)
    basis = np.empty((size, modes), dtype=np.int8)
    basis[child] = prev + eye[:, None, :]
    scale = np.sqrt(np.array(_FACT, dtype=object)[basis].prod(axis=1).astype(float))
    bins = (2 * child[::-1, :, None] + np.array([0, 1])).astype(np.min_scalar_type(2 * size))
    scale = scale[:, None]
    for table in (basis, scale, bins):   # shared by every caller
        table.flags.writeable = False
    return basis, scale, bins


def _expand(occupations: np.ndarray, photons: int, cols: np.ndarray) -> np.ndarray:
    """The product of the column forms of the photons of each occupation
    row, ``photons`` in each, on the Fock basis of that many photons in
    ``len(cols)`` modes: (rows, basis row, re/im). See ``evolve`` for the
    order of the sums."""
    terms, m = occupations.shape
    if not photons:
        return np.tile([1.0, 0.0], (terms, 1, 1))
    photon_modes = np.repeat(np.tile(np.arange(m), terms), occupations.ravel()).reshape(terms, photons)
    coeff = cols[photon_modes[:, 0]]                      # the first photon leaves its column itself
    if photons > 1:
        col_re = cols[:, ::-1, None, :1]                  # (k, l descending, 1, 1)
        col_im = cols[:, ::-1, None, 1:] * _CROSS         # -Im, +Im: the two cross terms
    for j in range(1, photons):
        bins = _fock_basis(m, j + 1)[2]
        slots = 2 * math.comb(j + m, j + 1)               # re/im of every row one photon up
        if terms > 1:
            bins = bins + slots * np.arange(terms)[:, None, None, None]
        re, im = col_re[photon_modes[:, j]], col_im[photon_modes[:, j]]
        nxt = np.zeros(slots * terms)
        step = max(1, RYSER_BLOCK // (terms * coeff.shape[1]))
        for l in range(0, m, step):
            w = coeff[:, None] * re[:, l:l + step]        # (terms, l, parent row, re/im)
            w += coeff[:, None, :, ::-1] * im[:, l:l + step]
            np.add.at(nxt, bins[..., l:l + step, :, :].ravel(), w.ravel())
        coeff = nxt.reshape(terms, -1, 2)
    return coeff


def evolve(state: FockState, transform: ModeTransform, prune_tol: float = PRUNE_TOL, *,
           _cache: _HeraldedEvolution | None = None) -> FockState:
    """Send a Fock state through a linear network.

    Each basis term |n1 n2 ...> is rewritten as the corresponding product
    of creation-operator monomials; every operator of input mode k is
    replaced by the linear form given by column k of the matrix, the
    product is expanded, and monomials are converted back to occupation
    amplitudes. Total photon number is conserved term by term.

    A spectator mode k, whose row and column of the matrix are both
    exactly e_k, keeps its photons, and no other photon enters it; the
    expansion runs over the other, active modes only. The photons of a
    term in active modes enter in ascending mode order, one numpy pass
    per photon over the Fock basis of the active modes, for all input
    terms with the same number of active photons. After one more photon
    of mode k, occupation K holds the sum over l of
    parent(K - e_l) * L[l, k], added up from zero in descending order of
    l (``np.add.at`` adds in index order). Complex products are formed
    from real ones, as Python forms them; numpy's complex multiply may
    fuse them. Each term's spectator counts are then put back, its rows
    found in the full basis by their rank, and the amplitudes scaled by
    sqrt(prod o_l!) / sqrt(prod n_k!) over all modes and summed over the
    input terms in sorted order. For a transform whose columns have no
    zero entry this repeats, operation for operation, the term-by-term
    expansion of the operator products. A spectator photon would multiply
    by exactly 1 and add exact zeros, so skipping it changes no bit. Other
    zero entries only add exact zeros, but the expansion then meets fewer
    occupations and may sum over l in another order, which can move the
    last bits. Input terms and columns l are taken in blocks, so that a
    working array holds at most ``RYSER_BLOCK`` complex numbers or one
    term's products with one column (and, with spectators, m small
    integers per output row for the ranks); the order of the sums does
    not depend on the blocks. The index tables of the last 128
    (modes, photons) pairs stay cached.

    A term's expansion and its output rows, relative to the basis of its
    photon number, depend only on the transform and its occupation: they
    are the term's piece of a linear map. ``_cache``, the evaluator
    (``_HeraldedEvolution``) of this same transform, keeps these pieces
    across calls in its ``expansions`` table, within its budget. A block
    expands only the occupations the table lacks, in one ``_expand`` call
    as before; then every term of the block, kept or new, is assembled
    from its piece by the same products and the same ``np.add.at`` in the
    same sorted term order, so the order of the sums is unchanged and the
    table changes no bit. Without ``_cache`` the table is a local that
    keeps nothing.

    Every input term is checked against ``MAX_PHOTONS`` and its basis,
    C(n+m-1, n) terms for n photons in all m modes, against
    ``MAX_FOCK_TERMS`` before any table is built.
    """
    if state.num_modes != transform.dim:
        raise ValueError(f"state has {state.num_modes} modes, transform {transform.dim}")
    m = transform.dim
    terms = list(state.terms())
    photons = [sum(occ) for occ, _ in terms]
    counts = list(dict.fromkeys(photons))
    for n in counts:
        check_term_budget(n, m)
    if not terms:
        return FockState._wrap(m, {})
    spectators, active, cols = transform._active_block()
    a = len(active)
    occs = np.array([occ for occ, _ in terms], dtype=np.int8)
    moving = occs[:, active].sum(axis=1)
    # terms with an output in common move as many photons; a stable sort keeps their order
    order = np.argsort(moving, kind="stable")
    occs, moving = occs[order], moving[order].tolist()
    terms = [terms[i] for i in order.tolist()]
    bases = [_fock_basis(m, n) for n in counts]
    start = dict(zip(counts, accumulate((len(basis) for basis, _, _ in bases), initial=0)))
    first = np.array([start[sum(occ)] for occ, _ in terms])   # the first output row of each term's basis
    scales = np.concatenate([scale for _, scale, _ in bases])
    prefs = np.array([amp / math.sqrt(math.prod(map(_FACT.__getitem__, occ))) for occ, amp in terms])
    prefs = prefs.view(float).reshape(-1, 1, 2)
    cross = prefs[..., 1:] * _CROSS
    kept = {} if _cache is None else _cache.expansions   # occupation -> (expansion, relative rows)
    total = np.zeros(len(scales), dtype=complex)
    ends = [i for i in range(1, len(terms)) if moving[i] != moving[i - 1]] + [len(terms)]
    for lo, hi in zip([0] + ends, ends):
        n = moving[lo]
        basis = _fock_basis(a, n)[0]
        if a < m:   # each output puts back its term's spectator counts
            lift = np.zeros((len(basis), m), dtype=np.int8)
            lift[:, active] = basis
        block = max(1, RYSER_BLOCK // (a * math.comb(n + a - 2, n - 1) if n else 1))
        for at in range(lo, hi, block):
            sel = slice(at, min(at + block, hi))
            pieces = [kept.get(occ) for occ, _ in terms[sel]]
            new = [at + i for i, piece in enumerate(pieces) if piece is None]
            if new:
                lacking = occs[sel] if len(new) == len(pieces) else occs[new]
                coeff = _expand(lacking[:, active], n, cols)   # (terms, active basis row, re/im)
                if a < m:
                    rows = _rank(lacking[:, None] * spectators + lift, max(counts))
                else:   # the active basis is the full basis
                    rows = np.arange(len(basis))[None].repeat(len(new), axis=0)
                if _cache is not None:
                    for i, piece in zip(new, zip(coeff, rows)):
                        pieces[i - at] = piece
                        _cache.keep(kept, terms[i][0], (piece[0].copy(), piece[1].copy()), len(basis))
            if len(new) < len(pieces):   # some pieces were kept: assemble the block from them
                coeff, rows = (np.array(part) for part in zip(*pieces))
            rows = rows + first[sel, None]
            part = coeff * prefs[sel, :, :1]
            part += coeff[..., ::-1] * cross[sel]
            part *= scales[rows]
            np.add.at(total, rows.ravel(), part.view(complex).ravel())
    keep = total != 0
    if prune_tol > 0:
        keep &= np.hypot(total.real, total.imag) >= prune_tol
    return FockState._of_rows(m, np.concatenate([basis for basis, _, _ in bases])[keep], total[keep])


@functools.lru_cache(maxsize=32)
def _ryser_grid(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, float]:
    """The s-grid of an input term whose nonzero counts, in mode order, are
    ``counts``: the points 0 <= s_j <= counts[j] as (j, point) in the
    order of ``itertools.product``, each point's weight
    (-1)^(n - |s|) prod_j C(counts[j], s_j), and the root
    sqrt(prod_j counts[j]!) that each term's amplitude is divided by. The
    weights are integers below 2^53, so every product is exact. The grids
    of the last 32 count tuples stay cached, at most
    ``MAX_RYSER_GRID`` x 13 numbers each."""
    dims = [c + 1 for c in counts]
    weights = np.ones(1)
    for c in counts:
        signed = [(-1.0) ** (c - i) * math.comb(c, i) for i in range(c + 1)]
        weights = np.multiply.outer(weights, signed).ravel()
    s, weights = np.indices(dims).reshape(len(dims), len(weights)), weights.astype(complex)
    for table in (s, weights):   # shared by every caller
        table.flags.writeable = False
    return s, weights, math.sqrt(math.prod(math.factorial(c) for c in counts))


def _ryser_column(matrix: np.ndarray, occ: Occupation, outs: np.ndarray) -> tuple[float, np.ndarray]:
    """One input occupation's unscaled Ryser sum on each output row of
    ``outs``, with the root sqrt(prod n_k!) that its amplitude is divided
    by: (root, sums).

    For an input term with n_k photons in mode k and an output occupation
    (o_l), Ryser's formula over repeated rows and columns gives

        <o|U|n> = sum_{0 <= s_k <= n_k} (-1)^(n - |s|) prod_k C(n_k, s_k)
                  prod_l (sum_k s_k U[l, k])^(o_l) / sqrt(prod n_k! prod o_l!)

    (H. J. Ryser, Combinatorial Mathematics, 1963), prod(n_k + 1) <= 2^n
    products per output and mode instead of the n! of ``matrix_permanent``.
    The sums here are the part before either root, which depends only on
    the transform, the occupation and the outputs; every output holds the
    occupation's photon number. One pass forms r = sum_k s_k U[:, k] over
    the s-grid of ``_ryser_grid`` and its powers, (modes, n + 1, s-grid),
    for only the modes and the powers that some output uses, then a running
    product over (outputs, s-grid), multiplied over the modes in ascending
    order and summed over the s-grid, in blocks of ``RYSER_BLOCK`` // s-grid
    outputs. numpy's complex multiply may fuse its products, depending on
    the operands' strides, so the layout of every operand is part of the
    result's bits.
    """
    s, weights, root = _ryser_grid(tuple(c for c in occ if c))
    used = np.flatnonzero(outs.any(axis=0))
    # no matmul here or below: on these small shapes, BLAS threads cost
    # more than they save
    entries = matrix[used[:, None], [k for k, c in enumerate(occ) if c]]   # U[l, k_j] as (modes, j)
    r = np.zeros((len(used), len(weights)), dtype=complex)                 # (modes, s-grid)
    for j, s_j in enumerate(s):
        r += entries[:, j, None] * s_j
    top = int(outs.max(initial=0))
    powers = np.ones((len(used), top + 1, len(weights)), dtype=complex)   # r ** e
    for e in range(1, top + 1):
        powers[:, e] = powers[:, e - 1] * r
    sums = np.empty(len(outs), dtype=complex)
    width = max(1, RYSER_BLOCK // len(weights))
    for lo in range(0, len(outs), width):
        sub = outs[lo:lo + width, used]
        prods = np.tile(weights, (len(sub), 1))                            # (outputs, s-grid)
        for i in np.flatnonzero(sub.any(axis=0)):
            prods *= powers[i][sub[:, i]]
        sums[lo:lo + width] = prods.sum(axis=1)
    return root, sums


#: Costs of the heralded route in units of one full-basis output term per
#: mode of ``evolve``: a fixed part per input term and a part per product
#: of its running product (see ``_HeraldedEvolution``).
HERALDED_COST_PER_TERM = 256
HERALDED_COST_PER_PRODUCT = 1 / 16

#: Most complex numbers that a ``_HeraldedEvolution`` keeps in all: Ryser
#: sums, one per heralded output per input occupation, and ``evolve``
#: coefficients, one per active basis row per input occupation (1 MiB).
COLUMN_CACHE_BUDGET = 1 << 16


def _heralded_outputs(pattern, survivors: Sequence[int], num_modes: int, photons: int) -> np.ndarray:
    """Every occupation with ``photons`` photons that ``pattern``, a
    ``measurement.DetectionPattern``, keeps, as int8 rows.

    ``survivors`` is ``pattern.survivors(num_modes)``. Each row holds the
    pattern's counts and one placement of the free photons on the
    survivors, in the order of ``combinations_with_replacement``, which
    is descending lexicographic order. The placements are read into an
    array one at a time, so no Python tuple per output is held.
    """
    free = photons - sum(c for _, c in pattern.constraints)
    if free < 0:   # the pattern asks for more photons than there are
        return np.zeros((0, num_modes), dtype=np.int8)
    count = math.comb(free + len(survivors) - 1, free)
    rows = np.zeros((count, num_modes), dtype=np.int8)
    for m, c in pattern.constraints:
        rows[:, m] = c
    if count and free:
        placed = np.fromiter(chain.from_iterable(combinations_with_replacement(survivors, free)),
                             dtype=np.int8, count=count * free).reshape(count, free)
        lines = np.arange(count)
        for photon in placed.T:   # one photon of every row at a time
            rows[lines, photon] += 1
    return rows


class _HeraldedEvolution:
    """``evolve`` through one transform as far as some detection patterns
    can see it; a gate keeps one per circuit (``gates.GateCircuit``).

    The patterns are ``measurement.DetectionPattern`` values, of which
    only ``constraints`` and ``survivors`` are read. The outputs a pattern
    keeps are its counts times every occupation of its surviving modes, at
    each photon number of the input. Called on a state, this gives its
    amplitudes on just those outputs (the heralded route) when that is
    cheaper by the measured costs, else the full ``evolve``, called
    through this module's global. For an input term with n photons, n_k in
    mode k, on m modes, with H_n heralded outputs over all patterns at n
    photons (the sum of C(f + s - 1, f) over the patterns, for f free
    photons on s survivors):

    * ``evolve`` costs m * C(n+m-1, n): every output term, once per mode;
    * the heralded route costs ``HERALDED_COST_PER_TERM`` plus
      ``HERALDED_COST_PER_PRODUCT`` * m * prod(n_k + 1) * H_n: its running
      product multiplies the s-grid of every output once per mode.

    The heralded route is taken when its cost, summed over the input
    terms, is below that of ``evolve``, no term's s-grid, prod(n_k + 1),
    exceeds ``MAX_RYSER_GRID`` and no H_n exceeds ``MAX_FOCK_TERMS``; an
    input over either budget goes to ``evolve``, which raises its own
    budget error when the basis is too large (H_n is at most the basis
    size for patterns that conflict pairwise). Every term is checked
    against ``MAX_PHOTONS`` first. The rule reads only the input's
    occupations, the mode count and the patterns. Both constants were
    fitted to both routes timed on the gate gallery, the two-stage cs
    cascade, Haar networks and singly occupied inputs with one to three
    detectors; the fit and its quality are recorded in ``BENCH_7.json``,
    and the gallery picks were re-timed in ``BENCH_16.json``. The fixed
    part keeps small inputs on ``evolve``: on the gallery, ``ns`` and
    ``cnot_2photon`` take ``evolve``, ``cs``, ``cnot_klm`` and the cascade
    the heralded route. The per-product part sends an input back to
    ``evolve`` when its s-grid outgrows the basis, as for one detector
    behind six singly occupied modes.

    Either route's output is a fixed linear map of its input: the sum, in
    term order, of each term's amplitude times a piece that depends only
    on the transform, the term's occupation and, on the heralded route,
    the heralded outputs. This object keeps those pieces per input
    occupation, ``columns`` for the heralded route and ``expansions`` for
    ``evolve``, which it passes as ``evolve``'s ``_cache``; ``size``
    counts the complex numbers both hold. A new piece is kept if both
    then hold at most ``COLUMN_CACHE_BUDGET`` numbers (``keep``); nothing
    is evicted, and a piece that would not fit is used and dropped. A run
    whose occupations are all known computes no permanent and expands no
    photon: it only multiplies in the amplitudes and adds. The cache does
    not change a bit. On the heralded route a term's piece is its root
    sqrt(prod n_k!) and its column of Ryser sums (``_ryser_column``) over
    the heralded outputs; the terms' amplitudes over their roots times
    their columns are added to zeros, one photon number at a time, each
    output is then divided by sqrt(prod o_l!) and pruned at ``PRUNE_TOL``
    as ``evolve`` prunes. This object also keeps, per photon number, the
    heralded output rows (int8, as ``_fock_basis`` keeps them) and their
    roots. ``evolve``'s docstring gives its piece.
    ``measurement.postselect_branches`` gives the same results on either
    route.
    """

    def __init__(self, transform: ModeTransform, patterns: Sequence) -> None:
        m = transform.dim
        self.transform = transform
        self.patterns = list(patterns)
        self.survivors = [p.survivors(m) for p in self.patterns]
        self.held = [sum(c for _, c in p.constraints) for p in self.patterns]
        self.outputs: dict[int, tuple[np.ndarray, np.ndarray]] = {}     # photons -> (rows, roots)
        self.columns: dict[Occupation, tuple[float, np.ndarray]] = {}   # occupation -> (root, column)
        self.expansions: dict[Occupation, tuple[np.ndarray, np.ndarray]] = {}   # see ``evolve``
        self.size = 0   # Ryser sums and expansion coefficients kept

    def keep(self, table: dict, occ: Occupation, piece: tuple, count: int) -> None:
        """Keep an occupation's piece of ``count`` numbers in ``table`` if
        both tables then hold at most ``COLUMN_CACHE_BUDGET``."""
        if self.size + count <= COLUMN_CACHE_BUDGET:
            table[occ] = piece
            self.size += count

    def _heralded(self, by_photons: dict[int, list[tuple[Occupation, complex]]]) -> bool:
        """The route rule: True for the heralded route."""
        m = self.transform.dim
        full = products = 0
        for n, terms in by_photons.items():
            check_term_budget(n)
            heralded = sum(math.comb(n - h + len(s) - 1, n - h)
                           for h, s in zip(self.held, self.survivors) if n >= h)
            grids = [math.prod(c + 1 for c in occ) for occ, _ in terms]
            if heralded > MAX_FOCK_TERMS or max(grids) > MAX_RYSER_GRID:
                return False
            full += math.comb(n + m - 1, n) * len(terms)
            products += heralded * sum(grids)
        count = sum(map(len, by_photons.values()))
        return HERALDED_COST_PER_TERM * count + HERALDED_COST_PER_PRODUCT * (m * products) < m * full

    def _outputs_at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct heralded output rows at ``n`` photons, pattern by
        pattern, and their roots sqrt(prod o_l!); kept once built. The
        factorials are multiplied along each row, ``RYSER_BLOCK`` numbers at
        a time."""
        kept = self.outputs.get(n)
        if kept is None:
            m = self.transform.dim
            rows = np.concatenate([_heralded_outputs(p, s, m, n) for p, s in zip(self.patterns, self.survivors)])
            if len(self.patterns) > 1:   # the first of equal rows, in pattern order
                rows = rows[np.sort(np.unique(rows, axis=0, return_index=True)[1])]
            factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
            roots = np.empty(len(rows))
            step = max(1, RYSER_BLOCK // m)
            for lo in range(0, len(rows), step):
                roots[lo:lo + step] = np.sqrt(factorials[rows[lo:lo + step]].prod(axis=1))
            kept = self.outputs[n] = rows, roots
        return kept

    def __call__(self, state: FockState) -> FockState:
        by_photons: dict[int, list[tuple[Occupation, complex]]] = {}
        for term in state.terms():
            by_photons.setdefault(sum(term[0]), []).append(term)
        if not self._heralded(by_photons):
            return evolve(state, self.transform, _cache=self)
        outs = {n: self._outputs_at(n) for n in sorted(by_photons)}
        sums = []
        for n, (rows, _) in outs.items():
            total = np.zeros(len(rows), dtype=complex)
            for occ, amp in by_photons[n]:
                entry = self.columns.get(occ)
                if entry is None:
                    entry = _ryser_column(self.transform.matrix, occ, rows)
                    self.keep(self.columns, occ, entry, len(rows))
                root, column = entry
                total += (amp / root) * column
            sums.append(total)
        rows, roots = (np.concatenate(part) for part in zip(*outs.values()))
        amps = np.concatenate(sums) / roots
        kept = np.abs(amps) >= PRUNE_TOL
        # sums of products added to zeros, over a positive root: no part is -0.0
        return FockState._of_rows(self.transform.dim, rows[kept], amps[kept])


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
    check_term_budget(sum(inp))
    check_term_budget(sum(outp))
    if sum(inp) != sum(outp):
        return 0j
    cols = [k for k, n in enumerate(inp) for _ in range(n)]
    rows = [l for l, n in enumerate(outp) for _ in range(n)]
    sub = transform.matrix[np.ix_(rows, cols)]
    norm = math.sqrt(math.prod(_FACT[n] for n in inp) * math.prod(_FACT[n] for n in outp))
    return complex(matrix_permanent(sub)) / norm
