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
rows and columns (``_ryser_column``, one input term at a time), or runs
the full ``evolve``. Either way its output is a linear map of the input,
and it keeps one table, a plan per input support: the route and the
assembled map (on the ``evolve`` route through ``evolve``'s ``_cache``),
so that a gate's repeat runs on a known support only make the products
and sums; its docstring gives the route rule. The n!-sum
``permanent_amplitude`` computes single amplitudes by a third route and
exists purely to cross-check the other two. Every other amplitude is
normalised by roots sqrt(prod n_k!) from ``_root`` and ``_roots`` alone:
the exact integer product, rounded once, so both routes agree bit for bit.

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

#: n! up to ``MAX_PHOTONS``; for ``_roots`` also as exact and float arrays.
_FACT = [math.factorial(n) for n in range(MAX_PHOTONS + 1)]
_FACT_EXACT, _FACT_FLOAT = np.array(_FACT, dtype=object), np.array(_FACT, dtype=float)

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


def _root(occ: Sequence[int]) -> float:
    """sqrt(prod_l o_l!), the exact integer product rounded once: the
    normalisation of every Fock amplitude but ``permanent_amplitude``'s."""
    return math.sqrt(math.prod(map(_FACT.__getitem__, occ)))


def _roots(rows: np.ndarray) -> np.ndarray:
    """``_root`` of each int8 occupation row, bit for bit, with no
    rows x modes float temporary. A float running product over the columns
    is exact while it stays below 2^53, every factor being an integer
    >= 1; rounding is monotone, so a row whose product reaches 2^53 reads
    at least 2^53. Only those rows take the exact integer product, one
    object-array product for all of them (a ``_root`` call per row is
    slower, ``BENCH_36.json``), rounded once."""
    prods = np.ones(len(rows))
    for column in rows.T:
        prods *= _FACT_FLOAT.take(column)
    if len(big := np.flatnonzero(prods >= 2.0 ** 53)):
        prods[big] = _FACT_EXACT.take(rows.take(big, axis=0)).prod(axis=1).astype(float)
    return np.sqrt(prods)


class ModeTransform:
    """An N x N unitary matrix acting on mode operators."""

    __slots__ = ("dim", "_m", "_block")

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        m.flags.writeable = False
        self.dim, self._m, self._block = m.shape[0], m, None
        dev = self.unitarity_deviation()
        if not np.isfinite(m).all() or dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")

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


@dataclass(eq=False, frozen=True)
class ElementSpec:
    """One optical element: its unitary block and the circuit modes it touches.

    Row and column k of ``block`` act on ``modes[k]``. The constructors
    ``bs``, ``ps``, ``gen3`` and ``raw`` build the block once; a block
    given as a ``ModeTransform`` is taken as checked, any other is checked
    for unitarity here. ``bs``, ``ps`` and ``gen3`` build blocks that are
    unitary by construction and skip that check; they reject what it
    caught, a non-finite parameter or an ``eta`` outside [0, 1], with the
    same messages. Every block is read-only. The circuit-file parser,
    which checks the ports and parameters of a line itself, builds the
    same blocks and hands them to ``_wrap``, which checks nothing more.
    Equality compares modes and blocks with ``np.array_equal``, which
    does not tell 0.0 from -0.0.
    """

    modes: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _integers(self.modes, "element modes"))
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"element modes must be distinct: {self.modes}")
        block = self.block if isinstance(self.block, ModeTransform) else ModeTransform(self.block)
        if block.dim != len(self.modes):
            raise ValueError(f"a {block.dim}x{block.dim} block cannot act on "
                             f"{len(self.modes)} mode(s)")
        object.__setattr__(self, "block", block.matrix)

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

    @classmethod
    def _wrap(cls, modes: tuple[int, ...], block: ModeTransform) -> "ElementSpec":
        """Take over a checked or unitary-by-construction block, with no
        check of its own; the caller vouches for what ``__post_init__``
        checks: ``modes`` is a tuple of distinct ints, one per row of
        ``block``."""
        element = object.__new__(cls)
        object.__setattr__(element, "modes", modes)
        object.__setattr__(element, "block", block.matrix)
        return element


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


def _embedded(element: ElementSpec, identity: np.ndarray) -> np.ndarray:
    """An element's block on its target modes, identity elsewhere: a copy
    of the complex ``identity`` of the circuit's size with the block's
    entries stored over it, the same matrix, bit for bit, that a fresh
    ``np.eye`` with the block written in gives. The block was checked when
    the element was built; its modes are checked here, before any store."""
    for m in element.modes:
        if not 0 <= m < len(identity):
            raise ValueError(f"element mode {m} out of range for {len(identity)} modes")
    full = identity.copy()
    idx = np.array(element.modes)
    full[idx[:, None], idx] = element.block
    return full


def embed(element: ElementSpec, total_modes: int) -> ModeTransform:
    """Place an element's block on its target modes, identity elsewhere."""
    return ModeTransform(_embedded(element, np.eye(total_modes, dtype=complex)))


def compose_elements(elements: list[ElementSpec] | tuple[ElementSpec, ...], total_modes: int) -> ModeTransform:
    """Embed and compose a sequence of elements in circuit order; the
    product is checked for unitarity once.

    Starting from the identity, each element's full N x N embedding
    multiplies the running product from the left, ``total = E_k @ total``
    for k = 1, 2, ... in list order. Every product has the same operands,
    in the same order, as with each embedding built from its own
    ``np.eye``, so the result is the same bit for bit. Multiplying by
    blocks alone, or merging disjoint elements into one layer first, sums
    in a different order, which can flip the sign of an exact zero."""
    total = identity = np.eye(total_modes, dtype=complex)
    for el in elements:
        total = _embedded(el, identity) @ total
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
    """The Fock basis of ``photons`` photons in ``modes`` modes as int8
    rows in descending lexicographic order; their ``_roots`` as a column;
    and ``bins``, where ``bins[m - 1 - l, p]`` is (2r, 2r + 1) for
    r = ``_rank(prev[p] + e_l)`` and ``prev`` the basis of one photon
    fewer: that row's real and imaginary slots in an interleaved array."""
    if photons == 0:
        return np.zeros((1, modes), np.int8), np.ones((1, 1)), np.zeros((modes, 0, 2), np.int32)
    size = math.comb(photons + modes - 1, photons)
    prev = _fock_basis(modes, photons - 1)[0]
    eye = np.eye(modes, dtype=np.int8)
    child = np.array([_rank(prev + e_l, photons) for e_l in eye])     # (mode l, parent row)
    basis = np.empty((size, modes), dtype=np.int8)
    basis[child] = prev + eye[:, None, :]
    scale = _roots(basis)[:, None]
    bins = (2 * child[::-1, :, None] + np.array([0, 1])).astype(np.min_scalar_type(2 * size))
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


def _add_terms(total: np.ndarray, rows: np.ndarray, coeff: np.ndarray, prefs: np.ndarray,
               scales: np.ndarray) -> None:
    """Add each coefficient (re/im along the last axis) times its term's
    prefactor ``prefs`` and its row's scale into ``total`` at ``rows``, in
    index order; see ``evolve``."""
    part = coeff * prefs[..., :1]
    part += coeff[..., ::-1] * (prefs[..., 1:] * _CROSS)
    part *= scales
    np.add.at(total, rows.ravel(), part.view(complex).ravel())


def evolve(state: FockState, transform: ModeTransform, prune_tol: float = PRUNE_TOL, *,
           _cache: _HeraldedEvolution | None = None) -> FockState:
    """Send a Fock state through a linear network.

    Each basis term |n1 n2 ...> is rewritten as the corresponding product
    of creation-operator monomials; every operator of input mode k is
    replaced by the linear form given by column k of the matrix, the
    product is expanded, and monomials are converted back to occupation
    amplitudes. Total photon number is conserved term by term. Every
    input term is checked against ``MAX_PHOTONS`` and its basis,
    C(n+m-1, n) terms for n photons in all m modes, against
    ``MAX_FOCK_TERMS`` before any table is built.

    Order of the sums. A spectator mode k, whose row and column are both
    exactly e_k, keeps its photons; the expansion runs over the active
    modes only, one numpy pass per photon, the photons of a term in
    ascending mode order, for all terms with as many active photons (a
    stable sort by that count). After one more photon of mode k,
    occupation K holds the sum over l of parent(K - e_l) * L[l, k], added
    up from zero in descending order of l; complex products are formed
    from real ones. Each output is then scaled by sqrt(prod o_l!) /
    sqrt(prod n_k!) and the terms are added in sorted order. For columns
    with no zero entry this repeats the term-by-term operator expansion
    operation for operation. Skipping a spectator changes no bit; other
    zero entries may change the order over l and move the last bits.
    Terms and columns are taken in blocks of at most ``RYSER_BLOCK``
    numbers, which do not change the order of the sums.

    ``_cache``, the evaluator (``_HeraldedEvolution``) of this same
    transform, keeps the run's assembled map as the plan of the input's
    support (its occupations in ``terms()`` order), within its budget: the
    terms' order and roots and, over every (term, row) pair in the order of
    the sums, the term's place, the coefficient, the row among the rows
    reached and its scale. A run on a known support makes the same products
    and one ``np.add.at`` from zeros in the same order, so no bit moves.
    Timings are in ``BENCH_29.json`` and ``BENCH_32.json``.
    """
    if state.num_modes != transform.dim:
        raise ValueError(f"state has {state.num_modes} modes, transform {transform.dim}")
    m = transform.dim
    terms = list(state.terms())
    support = tuple(occ for occ, _ in terms)
    plan = None if _cache is None else _cache.plans.get(support)
    if plan is not None:   # the evaluator's own plan for this support, on the evolve route
        order, roots, pairs, coeff, rows, scales, basis = plan[1]
        prefs = np.array([terms[i][1] / root for i, root in zip(order, roots)]).view(float).reshape(-1, 2)
        total = np.zeros(len(basis), dtype=complex)
        _add_terms(total, rows, coeff, prefs[pairs], scales)
    else:
        photons = [sum(occ) for occ in support]
        counts = list(dict.fromkeys(photons))
        for n in counts:
            check_term_budget(n, m)
        if not terms:
            return FockState._wrap(m, {})
        spectators, active, cols = transform._active_block()
        a = len(active)
        occs = np.array(support, dtype=np.int8)
        moving = occs[:, active].sum(axis=1)
        # terms with an output in common move as many photons; a stable sort keeps their order
        order = np.argsort(moving, kind="stable")
        occs, moving, order = occs[order], moving[order].tolist(), order.tolist()
        roots = [_root(support[i]) for i in order]
        bases = [_fock_basis(m, n) for n in counts]
        start = dict(zip(counts, accumulate((len(basis) for basis, _, _ in bases), initial=0)))
        first = np.array([start[photons[i]] for i in order])   # the first output row of each term's basis
        scales = np.concatenate([scale for _, scale, _ in bases])
        prefs = np.array([terms[i][1] / root for i, root in zip(order, roots)]).view(float).reshape(-1, 2)
        parts = None   # the plan's pieces, gathered only if a plan of their count could be kept
        if _cache is not None:
            sizes = [math.comb(n + a - 1, n) if n else 1 for n in moving]   # (term, row) pairs per term
            parts = [] if _cache.size + sum(sizes) <= COLUMN_CACHE_BUDGET else None
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
                coeff = _expand(occs[sel, active], n, cols)   # (terms, active basis row, re/im)
                if a < m:
                    rows = _rank(occs[sel, None] * spectators + lift, max(counts)) + first[sel, None]
                else:   # the active basis is the full basis
                    rows = np.arange(len(basis)) + first[sel, None]
                _add_terms(total, rows, coeff, prefs[sel, None], scales[rows])
                if parts is not None:
                    parts.append((coeff.reshape(-1, 2), rows.ravel()))
        basis = np.concatenate([basis for basis, _, _ in bases])
        if parts:
            coeff, rows = (np.concatenate(part) for part in zip(*parts))
            gathered, reached = scales[rows], slice(None)
            if a < m:   # only the rows some term reaches, in order
                reached, rows = np.unique(rows, return_inverse=True)
            plan = False, (order, roots, np.arange(len(sizes)).repeat(sizes), coeff, rows, gathered, basis[reached])
            _cache.keep(support, plan, len(coeff))
    keep = total != 0
    if prune_tol > 0:
        keep &= np.hypot(total.real, total.imag) >= prune_tol
    return FockState._of_rows(m, basis[keep], total[keep])


@functools.lru_cache(maxsize=32)
def _ryser_grid(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The s-grid of an input term whose nonzero counts, in mode order, are
    ``counts``: the points 0 <= s_j <= counts[j] as (j, point) in
    ``itertools.product`` order, and each point's weight
    (-1)^(n - |s|) prod_j C(counts[j], s_j), an exact integer below 2^53."""
    dims = [c + 1 for c in counts]
    weights = np.ones(1)
    for c in counts:
        signed = [(-1.0) ** (c - i) * math.comb(c, i) for i in range(c + 1)]
        weights = np.multiply.outer(weights, signed).ravel()
    s, weights = np.indices(dims).reshape(len(dims), len(weights)), weights.astype(complex)
    for table in (s, weights):   # shared by every caller
        table.flags.writeable = False
    return s, weights


def _ryser_column(matrix: np.ndarray, occ: Occupation, outs: np.ndarray) -> tuple[float, np.ndarray]:
    """One input occupation's ``_root``, and on each output row of
    ``outs`` (each of its photon number) the sum of Ryser's formula over
    repeated rows and columns (H. J. Ryser, Combinatorial Mathematics,
    1963) before the division by both roots:

        <o|U|n> = sum_{0 <= s_k <= n_k} (-1)^(n - |s|) prod_k C(n_k, s_k)
                  prod_l (sum_k s_k U[l, k])^(o_l) / (_root(n) _root(o))

    Over the s-grid of ``_ryser_grid`` it
    forms r = sum_k s_k U[:, k] and its powers, for the modes and powers
    some output uses, then a running product over (outputs, s-grid), the
    modes ascending, summed over the s-grid, ``RYSER_BLOCK`` // s-grid
    outputs at a time. numpy's complex multiply may fuse products
    depending on strides, so every operand's layout is part of the bits.
    """
    s, weights = _ryser_grid(tuple(c for c in occ if c))
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
    return _root(occ), sums


#: Costs of the heralded route in units of one full-basis output term per
#: mode of ``evolve``: a fixed part per input term and a part per product
#: of its running product (see ``_HeraldedEvolution``).
HERALDED_COST_PER_TERM = 256
HERALDED_COST_PER_PRODUCT = 1 / 16

#: Most numbers that a ``_HeraldedEvolution`` keeps in its plans (1 MiB of
#: complex numbers): per input support, one Ryser sum per heralded output
#: per term, or one ``evolve`` coefficient per (term, row) pair.
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
    only ``constraints`` and ``survivors`` are read. They must conflict
    pairwise, as a ``GateCircuit``'s do (it checks its branches when it is
    built). The outputs a pattern keeps are its counts times every
    occupation of its surviving modes, at each photon number of the
    input; since no output is kept by two patterns, they are listed
    pattern by pattern. Called on a state, this gives its
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
    budget error when the basis is too large. Every term is checked
    against ``MAX_PHOTONS`` first. The rule reads only the input's
    occupations, the mode count and the patterns. On the gallery, ``ns``
    and ``cnot_2photon`` take ``evolve``, ``cs``, ``cnot_klm`` and the
    cascade the heralded route; the fit is in ``BENCH_7.json`` and the
    gallery picks are re-timed in ``BENCH_16.json``.

    Order of the sums on the heralded route: photon number by photon
    number, ascending, each term in ``terms()`` order adds its amplitude
    over its ``_root`` times its column of Ryser sums (``_ryser_column``)
    to zeros; each output is then divided by its ``_roots`` entry and
    pruned at ``PRUNE_TOL`` as ``evolve`` prunes. ``outputs`` keeps each
    photon number's heralded rows and roots (``_outputs_at``).

    ``plans`` keeps per input support, its occupations in ``terms()``
    order, the route the rule picked (the rule reads only occupations) and
    the run's assembled map: on the heralded route each term's place,
    output slice, root and column and the heralded rows and roots; on the
    ``evolve`` route what ``evolve`` keeps. A run on a known support skips
    the rule and every Ryser pass or expansion and makes the same sums in
    the same order. ``size`` counts the Ryser sums or (term, row) pairs the
    plans hold; a plan is kept while they stay within
    ``COLUMN_CACHE_BUDGET`` (``keep``), otherwise used and dropped, and
    nothing is evicted. Timings are in ``BENCH_29.json`` and
    ``BENCH_32.json``.
    """

    def __init__(self, transform: ModeTransform, patterns: Sequence) -> None:
        m = transform.dim
        self.transform = transform
        self.patterns = list(patterns)
        self.survivors = [p.survivors(m) for p in self.patterns]
        self.held = [sum(c for _, c in p.constraints) for p in self.patterns]
        self.outputs: dict[int, tuple[np.ndarray, np.ndarray]] = {}     # photons -> (rows, roots)
        self.plans: dict[tuple[Occupation, ...], tuple[bool, tuple]] = {}   # support -> (heralded, map)
        self.size = 0   # Ryser sums and (term, row) pairs the plans hold

    def keep(self, support: tuple[Occupation, ...], plan: tuple[bool, tuple], count: int) -> None:
        """Keep the plan of ``count`` numbers for ``support`` if the plans
        then hold at most ``COLUMN_CACHE_BUDGET``."""
        if self.size + count <= COLUMN_CACHE_BUDGET:
            self.plans[support] = plan
            self.size += count

    def _heralded(self, support: tuple[Occupation, ...], by_photons: dict[int, list[int]]) -> bool:
        """The route rule: True for the heralded route."""
        m = self.transform.dim
        full = products = 0
        for n, places in by_photons.items():
            check_term_budget(n)
            heralded = sum(math.comb(n - h + len(s) - 1, n - h)
                           for h, s in zip(self.held, self.survivors) if n >= h)
            grids = [math.prod(c + 1 for c in support[i]) for i in places]
            if heralded > MAX_FOCK_TERMS or max(grids) > MAX_RYSER_GRID:
                return False
            full += math.comb(n + m - 1, n) * len(places)
            products += heralded * sum(grids)
        return HERALDED_COST_PER_TERM * len(support) + HERALDED_COST_PER_PRODUCT * (m * products) < m * full

    def _outputs_at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The heralded output rows at ``n`` photons, pattern by pattern
        (none repeats), and their ``_roots``; kept once built."""
        kept = self.outputs.get(n)
        if kept is None:
            m = self.transform.dim
            rows = np.concatenate([_heralded_outputs(p, s, m, n) for p, s in zip(self.patterns, self.survivors)])
            kept = self.outputs[n] = rows, _roots(rows)
        return kept

    def _plan(self, support: tuple[Occupation, ...], by_photons: dict[int, list[int]]) -> tuple[bool, tuple]:
        """The heralded route's plan for a new support, one Ryser pass per
        term; kept in ``plans`` if it fits."""
        steps, outs, lo = [], [], 0
        for n in sorted(by_photons):
            rows, roots = self._outputs_at(n)
            for i in by_photons[n]:
                steps.append((i, lo, lo + len(rows), *_ryser_column(self.transform.matrix, support[i], rows)))
            outs.append((rows, roots))
            lo += len(rows)
        rows, roots = outs[0] if len(outs) == 1 else (np.concatenate(part) for part in zip(*outs))
        plan = True, (steps, rows, roots)
        self.keep(support, plan, sum(len(column) for *_, column in steps))
        return plan

    def __call__(self, state: FockState) -> FockState:
        terms = list(state.terms())
        support = tuple(occ for occ, _ in terms)
        plan = self.plans.get(support)
        if plan is None:
            by_photons: dict[int, list[int]] = {}   # photons -> the terms' places in the support
            for i, occ in enumerate(support):
                by_photons.setdefault(sum(occ), []).append(i)
            if self._heralded(support, by_photons):
                plan = self._plan(support, by_photons)
        if plan is None or not plan[0]:   # the evolve route, where evolve keeps the plan
            return evolve(state, self.transform, _cache=self)
        steps, rows, roots = plan[1]
        total = np.zeros(len(rows), dtype=complex)
        for i, lo, hi, root, column in steps:
            total[lo:hi] += (terms[i][1] / root) * column
        amps = total / roots
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
