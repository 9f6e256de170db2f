"""Projective photon counting, postselection and postcorrection.

A ``DetectionPattern`` fixes photon counts on some modes of a register:
the counts detectors demand, or the counts ancillas hold
(``with_ancilla``). ``DetectionPattern.survivors`` checks a pattern
against a register and lists the modes it leaves free; every caller takes
the free modes from there. Postselecting keeps the matching basis terms,
strips the measured modes from the surviving labels and renormalizes; the
success probability is the squared norm of the unnormalized projection.

Postcorrection generalizes this to several mutually exclusive patterns,
each paired with a unitary correction applied to the surviving modes.
``postselect_branches`` is the one place that postselects and corrects:
gate runs (``gates.GateCircuit.run``, which the input-independence probe
calls too), circuit files and ``postselect`` (its one-branch case) all go
through it. It groups the branches by their measured modes and reads the
state's terms once per group, not once per branch: a state of fewer than
``ARRAY_ROUTE_TERMS`` terms one term at a time, a larger one as
occupation rows with one integer-key pass per group. Both routes give the
same bits; the crossover was measured on both (see
``postselect_branches``).

Before that, ``evolve_for_branches`` is the one place that picks how a
gate run evolves its input. Most of a low-success gate's output is
thrown away, so it may compute only the outputs the branches can keep,
by the Ryser permanents of ``multiport.transition_amplitudes``, instead
of the full ``evolve``; its docstring gives the measured cost rule that
decides. Circuit files keep the full ``evolve`` because their report
lists the whole outcome distribution.

This module holds only these measurement primitives; what runs them on a
gate lives in ``gates``. Everything here operates on pure states with
product ancillas, which is exact for the circuits this package builds;
the density-operator form of the same rules is exercised as an
independent oracle in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import itemgetter

import numpy as np

from .fock import FockState, Occupation, _integers
from .multiport import MAX_RYSER_GRID, ModeTransform, evolve, transition_amplitudes

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DetectionPattern:
    """Fixed photon counts on some modes of a register.

    The same type describes what detectors demand of an output and what
    ancillas hold in an input; ``survivors`` lists the modes it leaves
    free, which carry the computational state.
    """

    constraints: tuple[tuple[int, int], ...]

    def __init__(self, constraints: Mapping[int, int]):
        constraints = dict(constraints)  # keys, so the modes are distinct
        items = tuple(sorted(zip(_integers(constraints, "pattern modes"),
                                 _integers(constraints.values(), "photon counts"))))
        if any(c < 0 for _, c in items):
            raise ValueError("photon counts must be non-negative")
        object.__setattr__(self, "constraints", items)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.constraints)

    def survivors(self, num_modes: int) -> list[int]:
        """The modes of a ``num_modes``-mode register this pattern leaves
        free, ascending.

        This is the one check of a pattern against a register: it raises
        ``ValueError`` unless ``num_modes`` is an integer, every pattern
        mode lies in range and at least one mode is left free.
        """
        [num_modes] = _integers([num_modes], "num_modes")
        fixed = set()
        for m, _ in self.constraints:
            if not 0 <= m < num_modes:
                raise ValueError(f"pattern mode {m} out of range for {num_modes} modes")
            fixed.add(m)
        if len(fixed) >= num_modes:
            raise ValueError("pattern must leave at least one surviving mode")
        return [m for m in range(num_modes) if m not in fixed]

    def conflicts_with(self, other: "DetectionPattern") -> bool:
        """True when no basis state can satisfy both patterns."""
        theirs = dict(other.constraints)
        return any(theirs.get(m, c) != c for m, c in self.constraints)

    def describe(self) -> str:
        return " ".join(f"{m}={c}" for m, c in self.constraints)


@dataclass
class PostselectionResult:
    """Success probability plus the surviving normalized state (if any)."""

    probability: float
    conditional_state: FockState | None


@dataclass
class OutcomeBranch:
    """A detection pattern with an optional correction on the survivors."""

    pattern: DetectionPattern
    correction: ModeTransform | None = None
    label: str = ""


def _counts_on(modes: Sequence[int]) -> Callable[[Occupation], tuple[int, ...]]:
    """The function from an occupation, or a map from mode to count, to
    its counts on ``modes``, as a tuple."""
    if len(modes) == 1:       # itemgetter of one item returns the bare item
        mode = modes[0]
        return lambda occ: (occ[mode],)
    return itemgetter(*modes) if modes else lambda occ: ()


def postselect(state: FockState, pattern: DetectionPattern) -> PostselectionResult:
    """Condition on a detector outcome: ``postselect_branches`` with one
    branch and no correction.

    Probability 0 is a valid result and carries no conditional state.
    """
    [(_, result)] = postselect_branches(state, [OutcomeBranch(pattern)])
    return result


def _first_overlap(patterns: Sequence[DetectionPattern],
                   groups: Mapping[tuple[int, ...], Sequence[int]]) -> tuple[int, int] | None:
    """The first pair i < j of patterns that some basis state satisfies
    both, least i then least j; None when every pair conflicts.

    ``groups`` maps each tuple of measured modes to the ascending indices
    of the patterns on it, as ``postselect_branches`` builds it. Two
    patterns overlap exactly when they fix the same counts on the modes
    they share. For each pair of groups, the counts on the shared modes of
    the second group's members go into a table that each member of the
    first looks up: (G + 1) * N count tuples for N patterns in G groups,
    not N * (N - 1) / 2 comparisons.
    """
    fixed = [dict(p.constraints) for p in patterns]
    items = [(modes, set(modes), members) for modes, members in groups.items()]
    first = None
    for g, (modes_a, _, members_a) in enumerate(items):
        for _, modes_b, members_b in items[g:]:
            counts = _counts_on([m for m in modes_a if m in modes_b])
            least: dict[tuple[int, ...], int] = {}
            for j in members_b:   # ascending: the least index with these counts
                least.setdefault(counts(fixed[j]), j)
            for i in members_a:
                # i's least partner; when that is i itself, every later partner
                # of i finds i first, and the least such pair is found there
                j = least.get(counts(fixed[i]), i)
                pair = (min(i, j), max(i, j))
                if j != i and (first is None or pair < first):
                    first = pair
    return first


#: Fewest terms of a state that ``postselect_branches`` reads as occupation
#: rows rather than term by term; measured on both routes (see there).
ARRAY_ROUTE_TERMS = 128


def postselect_branches(
    state: FockState, branches: Sequence[OutcomeBranch]
) -> list[tuple[OutcomeBranch, PostselectionResult]]:
    """Evaluate a family of mutually exclusive outcome branches.

    Each branch postselects on its pattern and then sends the survivors
    through its correction. Branches whose patterns could both match the
    same basis state are a configuration error, which names the first such
    pair (``_first_overlap``).

    The branches are grouped by their measured modes, and each group reads
    the state's terms once, in ``terms()`` order: the patterns of a group
    conflict pairwise, so a term's counts on those modes pick at most one
    branch, which keeps it. Each branch's probability is summed from 0.0,
    and its kept terms listed, in ``terms()`` order; the kept terms are then
    scaled by ``FockState.scaled``. The groups come in order of their first
    members, so a bad pattern fails as its first branch.

    A state of fewer than ``ARRAY_ROUTE_TERMS`` terms is read term by term
    (``_read_terms``), a larger one as occupation rows (``_read_rows``).
    Both give the same bits. The rows pay numpy's fixed cost per call,
    which grows with the groups and branches, and cost less per term. Both
    routes were timed on fresh ``evolve`` outputs of 45 to 330 terms with
    one branch, three on one port set, and five on two port sets (medians
    of 9 alternating rounds, ``BENCH_19.json``): the rows took 1.05-2.2
    times as long at 45-84 terms, 0.76-0.93 times at 120-126 terms on one
    port set but 1.26-1.29 times on two, 0.56-0.94 times at 165-210 and
    0.41-0.57 times at 330. The crossover lies near 100 terms for one port
    set and near 150 for two.

    The result pairs each branch with its ``PostselectionResult``, in
    branch order (``perfbench/tracer.py`` reads the pairs).
    """
    if not branches:
        raise ValueError("at least one branch is required")
    patterns = [b.pattern for b in branches]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(patterns):
        groups.setdefault(p.modes, []).append(i)
    pair = _first_overlap(patterns, groups) if len(branches) > 1 else None
    if pair is not None:
        a, b = (branches[i] for i in pair)
        raise ValueError(
            f"branch patterns overlap: '{a.label or a.pattern.describe()}' "
            f"and '{b.label or b.pattern.describe()}'"
        )
    read = _read_terms if state.num_terms() < ARRAY_ROUTE_TERMS else _read_rows
    probs, kept = read(state, patterns, groups)
    results = []
    for branch, prob, amps in zip(branches, probs, kept):
        cond = None
        if prob > PROB_FLOOR:
            cond = amps.scaled(1.0 / math.sqrt(prob))
            if branch.correction is not None:
                cond = evolve(cond, branch.correction)
        results.append((branch, PostselectionResult(prob, cond)))
    return results


def _read_terms(state: FockState, patterns: Sequence[DetectionPattern],
                groups: Mapping[tuple[int, ...], Sequence[int]]) -> tuple[list[float], list[FockState]]:
    """Each pattern's probability and kept (unscaled) survivor terms, read
    one term at a time: a dict lookup of each term's measured counts per
    group."""
    terms = list(state.terms())   # sorted once for every group
    probs = [0.0] * len(patterns)
    kept: list[dict[Occupation, complex]] = [{} for _ in patterns]
    for modes, members in groups.items():
        survivors = patterns[members[0]].survivors(state.num_modes)   # the members share them
        measured, survivor = _counts_on(modes), _counts_on(survivors)
        branch_of = {tuple(c for _, c in patterns[i].constraints): i for i in members}.get
        for occ, amp in terms:
            i = branch_of(measured(occ))
            if i is not None:   # the measured counts are fixed, so survivors are distinct
                probs[i] += abs(amp) ** 2
                kept[i][survivor(occ)] = amp
    return probs, [FockState._wrap(state.num_modes - len(p.constraints), amps)
                   for p, amps in zip(patterns, kept)]


def _row_keys(counts: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer keys of the count rows ``counts`` and ``wanted``, equal
    exactly when two rows are equal.

    Each column is a digit whose base is one more than its largest count.
    When the next digit would take a key past 2^62, the keys so far are
    first replaced by their ranks.
    """
    both = np.concatenate([counts, wanted]).astype(np.int64)
    keys = np.zeros(len(both), dtype=np.int64)
    span = 1   # every key lies below it
    for column, top in zip(both.T, both.max(axis=0, initial=0).tolist()):
        if span * (top + 1) > 1 << 62:
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
            span = int(keys.max()) + 1
        keys = keys * (top + 1) + column
        span *= top + 1
    return keys[:len(counts)], keys[len(counts):]


def _read_rows(state: FockState, patterns: Sequence[DetectionPattern],
               groups: Mapping[tuple[int, ...], Sequence[int]]) -> tuple[list[float], list[FockState | None]]:
    """``_read_terms`` on the state's occupation rows: one sort into
    ``terms()`` order, one ``_row_keys`` pass per group, and each term's
    probability ``np.float_power(np.hypot(re, im), 2)`` (Python's
    ``abs(a) ** 2``, bit for bit) added by ``np.add.at`` in that order. A
    pattern that keeps no term gets None."""
    rows, amps = state._sorted_arrays()
    term_probs = np.float_power(np.hypot(amps.real, amps.imag), 2)
    tops = rows.max(axis=0, initial=0).tolist()
    probs = np.zeros(len(patterns))
    kept: list[FockState | None] = [None] * len(patterns)
    for modes, members in groups.items():
        survivors = patterns[members[0]].survivors(state.num_modes)   # the members share them
        # a pattern above some count the state shows keeps nothing, and its
        # counts need not fit an int64
        live = [i for i in members if all(c <= tops[m] for m, c in patterns[i].constraints)]
        if not live:
            continue
        wanted = np.array([[c for _, c in patterns[i].constraints] for i in live])
        keys, wanted = _row_keys(rows[:, modes], wanted)
        order = np.argsort(wanted)
        wanted = wanted[order]
        rank = np.minimum(np.searchsorted(wanted, keys), len(live) - 1)
        taken = np.flatnonzero(wanted[rank] == keys)           # the kept terms, in terms() order
        rank = rank[taken]                                     # each one's pattern, by key rank
        owners = np.array(live)[order]
        np.add.at(probs, owners[rank], term_probs[taken])
        taken = taken[np.argsort(rank, kind="stable")]         # each pattern's terms, in order
        ends = np.cumsum(np.bincount(rank, minlength=len(live))).tolist()
        left = rows[:, survivors]
        for i, lo, hi in zip(owners.tolist(), [0] + ends, ends):
            if hi > lo:
                at = taken[lo:hi]
                kept[i] = FockState._of_rows(len(survivors), left[at], amps[at])
    return probs.tolist(), kept


#: Costs of ``transition_amplitudes`` in units of one full-basis output
#: term per mode of ``evolve``: a fixed part per input term and a part per
#: product of its running product (see ``evolve_for_branches``).
HERALDED_COST_PER_TERM = 256
HERALDED_COST_PER_PRODUCT = 1 / 16


def _heralded_outputs(pattern: DetectionPattern, survivors: Sequence[int], num_modes: int,
                      photons: int) -> Iterator[Occupation]:
    """Every occupation with ``photons`` photons that ``pattern`` keeps.

    ``survivors`` is ``pattern.survivors(num_modes)``. The outputs are
    enumerated by ``combinations_with_replacement`` rather than from
    ``multiport._fock_basis``: on the few outputs a gate's branch keeps,
    the array version costs more than it saves.
    """
    free = photons - sum(c for _, c in pattern.constraints)
    if free < 0:
        return
    fixed = [0] * num_modes
    for m, c in pattern.constraints:
        fixed[m] = c
    for placed in combinations_with_replacement(survivors, free):
        occ = list(fixed)
        for m in placed:
            occ[m] += 1
        yield tuple(occ)


def evolve_for_branches(
    state: FockState, transform: ModeTransform, branches: Sequence[OutcomeBranch]
) -> FockState:
    """``evolve(state, transform)`` as far as ``branches`` can see it.

    The outputs a branch can keep are its pattern's counts times every
    occupation of the surviving modes, at each photon number of the
    input. The result is ``transition_amplitudes`` over just those when
    that is cheaper by the measured costs, else the full ``evolve``. For
    an input term with n photons, n_k in mode k, on m modes, with H_n
    heralded outputs over all branches at n photons:

    * ``evolve`` costs m * C(n+m-1, n): every output term, once per mode;
    * ``transition_amplitudes`` costs ``HERALDED_COST_PER_TERM`` plus
      ``HERALDED_COST_PER_PRODUCT`` * m * prod(n_k + 1) * H_n: its running
      product multiplies the s-grid of every output once per mode.

    The heralded route is taken when its cost, summed over the input
    terms, is below that of ``evolve`` and no term's s-grid,
    prod(n_k + 1), exceeds ``multiport.MAX_RYSER_GRID``. The rule reads
    only the input's occupations, the mode count and the patterns. Both
    constants were fitted to both routes timed on the gate gallery, the
    two-stage cs cascade, Haar networks and singly occupied inputs with
    one to three detectors; the fit and its quality are recorded in
    ``BENCH_7.json``, and the gallery picks were re-timed when the Ryser
    pass began to take a group of terms at once (``BENCH_16.json``). The
    fixed part keeps small inputs on ``evolve``: on the gallery, ``ns``
    and ``cnot_2photon`` take ``evolve``, ``cs``, ``cnot_klm`` and the
    cascade the heralded route. The per-product part sends an input back
    to ``evolve`` when its s-grid outgrows the basis, as for one detector
    behind six singly occupied modes. ``postselect_branches`` gives the
    same results on either state.
    """
    m = transform.dim
    survivors = [b.pattern.survivors(m) for b in branches]
    held = [sum(c for _, c in b.pattern.constraints) for b in branches]
    occs = [occ for occ, _ in state.terms()]
    full = m * sum(math.comb(sum(occ) + m - 1, sum(occ)) for occ in occs)
    products = 0
    for occ in occs:   # H_n sums C(f + s - 1, f) over branches: f free photons on s survivors
        n = sum(occ)
        grid = math.prod(c + 1 for c in occ)
        if grid > MAX_RYSER_GRID:
            return evolve(state, transform)
        h_n = sum(math.comb(n - h + len(s) - 1, n - h) for h, s in zip(held, survivors) if n >= h)
        products += m * grid * h_n
    if HERALDED_COST_PER_TERM * len(occs) + HERALDED_COST_PER_PRODUCT * products >= full:
        return evolve(state, transform)
    outputs = [occ for n in sorted({sum(occ) for occ in occs}) for b, s in zip(branches, survivors)
               for occ in _heralded_outputs(b.pattern, s, m, n)]
    return transition_amplitudes(state, transform, outputs)


def _distribution(state: FockState, modes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``outcome_distribution`` as arrays: the distinct count rows on
    ``modes``, ascending, and the probability of each."""
    modes = list(_integers(modes, "outcome modes"))
    for m in modes:
        if not 0 <= m < state.num_modes:
            raise ValueError(f"mode {m} out of range for {state.num_modes} modes")
    rows, amps = state._arrays()
    counts = rows[:, modes]
    others = sorted(set(range(state.num_modes)).difference(modes))
    # lexsort's last key decides first: the counts on modes, then on the others
    order = np.lexsort(np.concatenate([counts, rows[:, others]], axis=1).T[::-1])
    counts, amps = counts[order], amps[order]
    first = np.ones(len(counts), dtype=bool)   # the first term of each key
    first[1:] = (counts[1:] != counts[:-1]).any(axis=1)
    sums = np.zeros(np.count_nonzero(first))
    np.add.at(sums, np.cumsum(first) - 1, np.float_power(np.hypot(amps.real, amps.imag), 2))
    return counts[first], sums


def outcome_distribution(state: FockState, modes: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Probability of every photon-count combination on the given modes.

    The keys are the count tuples on ``modes`` (in the order given; a mode
    may repeat) that some term of ``state`` shows, in ascending order. A
    term's probability is ``np.float_power(np.hypot(re, im), 2)``, which
    equals Python's ``abs(a) ** 2`` bit for bit (``np.abs(a) ** 2`` does
    not: numpy squares by one multiplication). One sort by the counts on
    ``modes`` and then by those on the other modes brings each key's terms
    together in the order of ``state.terms()`` (terms with one key agree on
    ``modes``, so the other modes decide their occupation order);
    ``np.add.at`` adds their probabilities one after another from 0.0 in
    that order (``np.sum`` would add pairwise). The work runs on the
    state's occupation rows (``FockState._arrays``), so an ``evolve``
    output never builds its occupation map here; ``_distribution`` returns
    the keys and sums as arrays, and the map's keys are built a column at
    a time, with no list per row. Unlike ``postselect_branches`` it has no
    per-term route below ``ARRAY_ROUTE_TERMS``: every state takes the rows.
    """
    counts, sums = _distribution(state, modes)
    keys = zip(*counts.T.tolist()) if counts.shape[1] else [()] * len(sums)
    return dict(zip(keys, sums.tolist()))


def with_ancilla(comp_state: FockState, ancilla: Mapping[int, int], num_modes: int) -> FockState:
    """Interleave a computational state with fixed ancilla occupations.

    The ancilla is a ``DetectionPattern`` of the counts it holds, and the
    computational state's modes fill the modes it leaves free, in
    ascending mode order.
    """
    held = DetectionPattern(ancilla)
    comp_modes = held.survivors(num_modes)
    if comp_state.num_modes != len(comp_modes):
        raise ValueError(
            f"computational state has {comp_state.num_modes} modes, expected {len(comp_modes)}"
        )
    full = [0] * num_modes
    for m, n in held.constraints:
        full[m] = n
    amp: dict[Occupation, complex] = {}
    for occ, a in comp_state.terms():
        for m, n in zip(comp_modes, occ):
            full[m] = n
        amp[tuple(full)] = a
    # the keys are distinct occupations of checked counts and the values come
    # from a valid state, so there is nothing for ``FockState`` to check
    return FockState._wrap(len(full), amp)
