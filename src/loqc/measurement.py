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
through it. ``_check_branches`` checks a family where it is built (a
gate circuit, a circuit file) and returns it grouped by measured modes;
``postselect_branches`` checks any other sequence, and reads the state
once per group, not once per branch: a state of fewer than
``ARRAY_ROUTE_TERMS`` terms one term at a time, a larger one as
occupation rows. The rows are sorted by their counts on the group's
modes, and each run of equal counts is summed (``_runs``), the same pass
that gives ``outcome_distribution``; a branch takes the run that shows its
counts. Both routes give the same bits; the crossover was timed on both
(``BENCH_19.json``, ``BENCH_20.json``). A probability that overflows a
float is a ``ValueError`` on either route.

A gate run evolves its input only as far as its branches' patterns can
see it, by ``multiport._HeraldedEvolution``, whose docstring gives the
route rule and the cache. Circuit files keep the full ``evolve`` because
their report lists the whole outcome distribution; ``simulate`` hands its
distribution's runs to ``postselect_branches`` (its keyword-only
``_runs``), which reads them when every branch measures the
distribution's modes, so it sorts the output once.

This module holds only these measurement primitives; what runs them on a
gate lives in ``gates``. Everything here operates on pure states with
product ancillas, which is exact for the circuits this package builds;
the density-operator form of the same rules is exercised as an
independent oracle in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .fock import FockState, Occupation, _integers, _overflow_error
from .multiport import ModeTransform, evolve

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


@dataclass(frozen=True)
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


class _Family(tuple):
    """The branches that ``_check_branches`` checked for ``num_modes``
    modes, with read-only maps from measured modes to member indices
    (``groups``, in order of first members) and to surviving modes."""


class _Overlap(ValueError):
    """The overlap ``ValueError``; ``pair`` indexes its two branches."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


def _check_branches(branches: Sequence[OutcomeBranch], num_modes: int) -> _Family:
    """The checked family of ``branches`` on a ``num_modes``-mode register.
    In this order, each a ``ValueError``: no branch; the first pair of
    patterns that one basis state could both match (``_Overlap``); a
    pattern outside the register (``DetectionPattern.survivors``, once per
    group, first group first); a correction whose size is not its group's
    surviving-mode count, first branch first.
    """
    branches = _Family(branches)
    if not branches:
        raise ValueError("at least one branch is required")
    patterns = [b.pattern for b in branches]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(patterns):
        groups.setdefault(p.modes, []).append(i)
    pair = _first_overlap(patterns, groups) if len(branches) > 1 else None
    if pair is not None:
        a, b = (branches[i] for i in pair)
        raise _Overlap(f"branch patterns overlap: '{a.label or a.pattern.describe()}' "
                       f"and '{b.label or b.pattern.describe()}'", pair)
    # the members of a group share their survivors
    survivors = {modes: tuple(patterns[members[0]].survivors(num_modes)) for modes, members in groups.items()}
    for b in branches:   # a checked pattern leaves the modes it does not fix
        if b.correction is not None and b.correction.dim != (width := num_modes - len(b.pattern.constraints)):
            raise ValueError(f"branch '{b.label or b.pattern.describe()}' has a {b.correction.dim}-mode "
                             f"correction but {width} surviving modes")
    branches.__dict__.update(num_modes=num_modes, survivors=MappingProxyType(survivors),
                             groups=MappingProxyType({modes: tuple(ids) for modes, ids in groups.items()}))
    return branches


#: Fewest terms of a state that ``postselect_branches`` reads as occupation
#: rows rather than term by term; measured on both routes (see there).
ARRAY_ROUTE_TERMS = 128


def postselect_branches(
    state: FockState, branches: Sequence[OutcomeBranch], *,
    _runs: tuple[Sequence[int], tuple] | None = None,
) -> list[tuple[OutcomeBranch, PostselectionResult]]:
    """Evaluate a family of mutually exclusive outcome branches.

    Each branch postselects on its pattern and then sends the survivors
    through its correction. A family that ``_check_branches`` returned for
    the state's mode count is read as checked; any other sequence is
    checked first, before the state is read.

    Each group reads the state once: its patterns conflict pairwise, so a
    term's counts on its modes pick at most one branch, which keeps it. A
    state of fewer than ``ARRAY_ROUTE_TERMS`` terms is read term by term
    (``_read_terms``), a larger one as occupation rows (``_read_rows``),
    which sorts and sums the rows once per group (``_runs``); the timings
    behind the crossover are in ``BENCH_19.json`` and ``BENCH_20.json``.
    Both give the same bits: a branch's probability is the sum over its
    kept terms in the order that ``_runs`` states, a probability that
    overflows a float raises ``ValueError``, and the kept terms are then
    scaled by ``FockState.scaled``.

    ``_runs`` is None, or a list of modes and the state's ``_runs`` on
    them, which the row route reads when every branch measures exactly
    those modes (``cli.simulate_report`` hands over its ``_distribution``'s).

    The result pairs each branch with its ``PostselectionResult``, in
    branch order (``perfbench/tracer.py`` reads the pairs).
    """
    family = branches if isinstance(branches, _Family) and branches.num_modes == state.num_modes \
        else _check_branches(branches, state.num_modes)
    if state.num_terms() < ARRAY_ROUTE_TERMS:
        probs, kept = _read_terms(state, family)
    else:
        runs = _runs[1] if _runs is not None and list(family.groups) == [tuple(_runs[0])] else None
        probs, kept = _read_rows(state, family, runs)
    if any(map(math.isinf, probs)):
        raise _overflow_error()
    results = []
    for branch, prob, amps in zip(family, probs, kept):
        cond = None
        if prob > PROB_FLOOR:
            cond = amps.scaled(1.0 / math.sqrt(prob))
            if branch.correction is not None:
                cond = evolve(cond, branch.correction)
        results.append((branch, PostselectionResult(prob, cond)))
    return results


def _read_terms(state: FockState, family: _Family) -> tuple[list[float], list[FockState]]:
    """Each branch's probability and kept (unscaled) survivor terms, read
    one term at a time: a dict lookup of each term's measured counts per
    group of the checked ``family``. A kept term's squared magnitude that
    overflows raises ``ValueError``."""
    terms = list(state.terms())   # sorted once for every group
    probs = [0.0] * len(family)
    kept: list[dict[Occupation, complex]] = [{} for _ in family]
    for modes, members in family.groups.items():
        measured, survivor = _counts_on(modes), _counts_on(family.survivors[modes])
        branch_of = {tuple(c for _, c in family[i].pattern.constraints): i for i in members}.get
        for occ, amp in terms:
            i = branch_of(measured(occ))
            if i is not None:   # the measured counts are fixed, so survivors are distinct
                try:
                    probs[i] += abs(amp) ** 2
                except OverflowError:
                    raise _overflow_error() from None
                kept[i][survivor(occ)] = amp
    return probs, [FockState._wrap(state.num_modes - len(b.pattern.constraints), amps)
                   for b, amps in zip(family, kept)]


def _squares(state: FockState) -> np.ndarray:
    """Each term's probability, in ``FockState._arrays`` order:
    ``np.float_power(np.hypot(re, im), 2)``, which equals Python's
    ``abs(a) ** 2`` bit for bit (``np.abs(a) ** 2`` does not: numpy squares
    by one multiplication). One that overflows is ``inf``, without a
    warning."""
    amps = state._arrays()[1]
    with np.errstate(over="ignore"):
        return np.float_power(np.hypot(amps.real, amps.imag), 2)


def _runs(state: FockState, modes: Sequence[int],
          squares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state's occupation rows and amplitudes sorted by their counts on
    ``modes`` (``FockState._sorted_arrays``), the index at which each run
    of equal counts begins, and each run's probability. ``squares`` is
    ``_squares(state)``, which a caller that sorts one state on several
    port sets takes once.

    The terms of one run agree on ``modes``, so they stand in ``terms()``
    order, and ``np.add.at`` adds a run's ``squares`` one after another
    from 0.0 (``np.sum`` would add pairwise). So each sum has the bits of
    ``+= abs(a) ** 2`` over the run's terms in ``terms()`` order. A sum
    that overflows is ``inf``, without a warning; the callers reject it
    where they return it.
    """
    rows, amps, squares = state._sorted_arrays(modes, squares)
    counts = rows[:, modes]
    first = np.ones(len(rows), dtype=bool)   # the first term of each run
    first[1:] = (counts[1:] != counts[:-1]).any(axis=1)
    sums = np.zeros(np.count_nonzero(first))
    with np.errstate(over="ignore"):
        np.add.at(sums, np.cumsum(first) - 1, squares)
    return rows, amps, np.flatnonzero(first), sums


def _read_rows(state: FockState, family: _Family,
               runs: tuple | None = None) -> tuple[list[float], list[FockState | None]]:
    """``_read_terms`` on the state's occupation rows: ``_runs`` once per
    group, on ``_squares`` taken once, unless the one group's ``runs`` are
    given, and each pattern's run looked up by its counts. The run's sum is
    the pattern's probability and its terms are the kept ones; a pattern
    that matches no run keeps nothing and gets None."""
    probs = [0.0] * len(family)
    kept: list[FockState | None] = [None] * len(family)
    squares = _squares(state) if runs is None else None   # once for every group
    for modes, members in family.groups.items():
        free = family.survivors[modes]
        rows, amps, starts, sums = _runs(state, modes, squares) if runs is None else runs
        run_of = {counts: k for k, counts in enumerate(map(tuple, rows[starts][:, modes].tolist()))}
        bounds, sums = starts.tolist() + [len(rows)], sums.tolist()
        for i in members:
            k = run_of.get(tuple(c for _, c in family[i].pattern.constraints))
            if k is not None:
                lo, hi = bounds[k], bounds[k + 1]
                probs[i] = sums[k]
                kept[i] = FockState._of_rows(len(free), rows[lo:hi, free], amps[lo:hi])
    return probs, kept


def _distribution(state: FockState, modes: Sequence[int]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``outcome_distribution`` as arrays: the distinct count rows on
    ``modes``, ascending, the probability of each, and the ``_runs`` they
    come from, which ``postselect_branches`` can read again (its ``_runs``)."""
    modes = list(_integers(modes, "outcome modes"))
    for m in modes:
        if not 0 <= m < state.num_modes:
            raise ValueError(f"mode {m} out of range for {state.num_modes} modes")
    runs = _runs(state, modes, _squares(state))
    rows, _, starts, sums = runs
    if np.isinf(sums).any():
        raise _overflow_error()
    return rows[starts][:, modes], sums, runs


def outcome_distribution(state: FockState, modes: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Probability of every photon-count combination on the given modes.

    The keys are the count tuples on ``modes`` (in the order given; a mode
    may repeat) that some term of ``state`` shows, in ascending order; each
    value is the sum of its run in ``_runs``, which states the order of the
    sum. The work runs on the state's occupation rows
    (``FockState._arrays``), so an ``evolve`` output never builds its
    occupation map here; ``_distribution`` returns the keys and sums as
    arrays, and the map's keys are built a column at a time, with no list
    per row. Unlike ``postselect_branches`` it has no per-term route below
    ``ARRAY_ROUTE_TERMS``: every state takes the rows. A probability that
    overflows a float raises ``ValueError``.
    """
    counts, sums = _distribution(state, modes)[:2]   # the sorted rows are not kept
    keys = zip(*counts.T.tolist()) if counts.shape[1] else [()] * len(sums)
    return dict(zip(keys, sums.tolist()))


def with_ancilla(comp_state: FockState, ancilla: Mapping[int, int] | DetectionPattern, num_modes: int,
                 *, free_modes: Sequence[int] | None = None) -> FockState:
    """Interleave a computational state with fixed ancilla occupations.

    The ancilla is a ``DetectionPattern`` of its counts (or a map of
    them); the state fills the modes it leaves free, ascending, or
    ``free_modes``, a caller's checked list.
    """
    held = ancilla if isinstance(ancilla, DetectionPattern) else DetectionPattern(ancilla)
    comp_modes = held.survivors(num_modes) if free_modes is None else free_modes
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
