"""Projective photon counting, postselection and postcorrection.

A ``DetectionPattern`` demands exact photon counts on a set of measured
modes. Postselecting keeps the matching basis terms, strips the measured
modes from the surviving labels and renormalizes; the success probability
is the squared norm of the unnormalized projection.

Postcorrection generalizes this to several mutually exclusive patterns,
each paired with a unitary correction applied to the surviving modes.
``postselect_branches`` is the one place that postselects and corrects:
gate runs, circuit files and ``input_independence_check`` all go
through it.
Everything here operates on pure states with product ancillas, which is
exact for the circuits this package builds; the density-operator form of
the same rules is exercised as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .fock import FockState, Occupation
from .multiport import ModeTransform, evolve

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon-count requirements on measured modes."""

    constraints: tuple[tuple[int, int], ...]

    def __init__(self, constraints: Mapping[int, int]):
        items = tuple(sorted((int(m), int(c)) for m, c in dict(constraints).items()))
        if any(c < 0 for _, c in items):
            raise ValueError("required photon counts must be non-negative")
        if len({m for m, _ in items}) != len(items):
            raise ValueError("constrained modes must be distinct")
        object.__setattr__(self, "constraints", items)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.constraints)

    def count(self, mode: int) -> int | None:
        for m, c in self.constraints:
            if m == mode:
                return c
        return None

    def matches(self, occ: Occupation) -> bool:
        return all(occ[m] == c for m, c in self.constraints)

    def conflicts_with(self, other: "DetectionPattern") -> bool:
        """True when no basis state can satisfy both patterns."""
        for m, c in self.constraints:
            oc = other.count(m)
            if oc is not None and oc != c:
                return True
        return False

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


def _strip_modes(occ: Occupation, modes: Sequence[int]) -> Occupation:
    drop = set(modes)
    return tuple(n for m, n in enumerate(occ) if m not in drop)


def postselect(state: FockState, pattern: DetectionPattern) -> PostselectionResult:
    """Condition on a detector outcome.

    Probability 0 is a valid result and carries no conditional state.
    """
    for m in pattern.modes:
        if not 0 <= m < state.num_modes:
            raise ValueError(f"pattern mode {m} out of range for {state.num_modes} modes")
    if len(pattern.modes) >= state.num_modes:
        raise ValueError("pattern must leave at least one surviving mode")
    kept: dict[Occupation, complex] = {}
    prob = 0.0
    for occ, amp in state.terms():
        if pattern.matches(occ):
            prob += abs(amp) ** 2
            key = _strip_modes(occ, pattern.modes)
            kept[key] = kept.get(key, 0j) + amp
    if prob <= PROB_FLOOR:
        return PostselectionResult(prob, None)
    survivor = FockState(state.num_modes - len(pattern.modes), kept)
    return PostselectionResult(prob, survivor.scaled(1.0 / math.sqrt(prob)))


def postselect_branches(
    state: FockState, branches: Sequence[OutcomeBranch]
) -> list[tuple[OutcomeBranch, PostselectionResult]]:
    """Evaluate a family of mutually exclusive outcome branches.

    Each branch postselects on its pattern and then sends the survivors
    through its correction. Branches whose patterns could both match the
    same basis state are a configuration error.
    """
    if not branches:
        raise ValueError("at least one branch is required")
    for i, a in enumerate(branches):
        for b in branches[i + 1:]:
            if not a.pattern.conflicts_with(b.pattern):
                raise ValueError(
                    f"branch patterns overlap: '{a.label or a.pattern.describe()}' "
                    f"and '{b.label or b.pattern.describe()}'"
                )
    results = []
    for branch in branches:
        res = postselect(state, branch.pattern)
        if res.conditional_state is not None and branch.correction is not None:
            res = PostselectionResult(res.probability, evolve(res.conditional_state, branch.correction))
        results.append((branch, res))
    return results


def outcome_distribution(state: FockState, modes: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Probability of every photon-count combination on the given modes."""
    modes = [int(m) for m in modes]
    for m in modes:
        if not 0 <= m < state.num_modes:
            raise ValueError(f"mode {m} out of range for {state.num_modes} modes")
    dist: dict[tuple[int, ...], float] = {}
    for occ, amp in state.terms():
        key = tuple(occ[m] for m in modes)
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


def with_ancilla(comp_state: FockState, ancilla: Mapping[int, int], num_modes: int) -> FockState:
    """Interleave a computational state with fixed ancilla occupations.

    The computational state's modes fill the non-ancilla slots in
    ascending mode order.
    """
    anc = {int(m): int(c) for m, c in ancilla.items()}
    for m in anc:
        if not 0 <= m < num_modes:
            raise ValueError(f"ancilla mode {m} out of range for {num_modes} modes")
    comp_modes = [m for m in range(num_modes) if m not in anc]
    if comp_state.num_modes != len(comp_modes):
        raise ValueError(
            f"computational state has {comp_state.num_modes} modes, expected {len(comp_modes)}"
        )
    amp: dict[Occupation, complex] = {}
    for occ, a in comp_state.terms():
        full = [0] * num_modes
        for m, c in anc.items():
            full[m] = c
        for m, n in zip(comp_modes, occ):
            full[m] = n
        amp[tuple(full)] = a
    return FockState(num_modes, amp)


@dataclass
class IndependenceReport:
    """Outcome of probing a postselection scheme for input independence."""

    branch_labels: list[str]
    probabilities: list[list[float]]  # [branch][probe]
    max_probability_deviation: float
    max_gram_deviation: float
    operationally_unitary: bool
    tolerance: float = 1e-9


def input_independence_check(
    transform: ModeTransform,
    ancilla: Mapping[int, int],
    branches: Sequence[OutcomeBranch],
    probes: Sequence[FockState],
    tolerance: float = 1e-9,
) -> IndependenceReport:
    """Probe whether branch probabilities depend on the computational input.

    Each probe (a state on the computational modes) is combined with the
    fixed ancilla preparation, evolved, and evaluated per branch by
    ``postselect_branches``, so the branches must be mutually exclusive. The
    scheme is flagged operationally unitary when every branch probability
    is probe-independent within tolerance and the branch maps preserve
    inner products between the probes at the common success amplitude.
    """
    if not probes:
        raise ValueError("at least one probe state is required")
    normalized_probes = [p.normalized()[0] for p in probes]
    per_probe = [
        postselect_branches(evolve(with_ancilla(p, ancilla, transform.dim), transform), branches)
        for p in normalized_probes
    ]
    labels = [b.label or b.pattern.describe() for b in branches]
    probabilities: list[list[float]] = []
    projected: list[list[FockState | None]] = []
    for column in zip(*per_probe):
        results = [res for _, res in column]
        probabilities.append([res.probability for res in results])
        projected.append([  # corrected conditionals, back to unnormalized
            None if res.conditional_state is None
            else res.conditional_state.scaled(math.sqrt(res.probability))
            for res in results
        ])

    prob_dev = max(max(row) - min(row) for row in probabilities)
    gram_dev = 0.0
    for row_p, row_s in zip(probabilities, projected):
        d = sum(row_p) / len(row_p)
        if d <= PROB_FLOOR:
            continue
        n = len(normalized_probes)
        for i in range(n):
            for j in range(n):
                want = normalized_probes[i].inner(normalized_probes[j])
                si, sj = row_s[i], row_s[j]
                got = (si.inner(sj) / d) if (si is not None and sj is not None) else 0j
                gram_dev = max(gram_dev, abs(got - want))
    return IndependenceReport(
        branch_labels=labels,
        probabilities=probabilities,
        max_probability_deviation=prob_dev,
        max_gram_deviation=gram_dev,
        operationally_unitary=(prob_dev <= tolerance and gram_dev <= tolerance),
        tolerance=tolerance,
    )
