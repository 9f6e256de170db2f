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

Before that, ``evolve_for_branches`` is the one place that picks how a
heralded evaluation (a gate run, an independence probe) evolves its
input. Most of a low-success gate's output is thrown away, so it may
compute only the outputs the branches can keep, by the Ryser permanents
of ``multiport.transition_amplitudes``, instead of the full ``evolve``;
its docstring gives the measured cost rule that decides. Circuit files
keep the full ``evolve`` because their report lists the whole outcome
distribution.
Everything here operates on pure states with product ancillas, which is
exact for the circuits this package builds; the density-operator form of
the same rules is exercised as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import itemgetter

from .fock import FockState, Occupation, _integers
from .multiport import ModeTransform, evolve, transition_amplitudes

PROB_FLOOR = 1e-12

#: Bound on probability spread and Gram deviation in ``input_independence_check``.
INDEPENDENCE_TOL = 1e-9


@dataclass(frozen=True)
class DetectionPattern:
    """Exact photon-count requirements on measured modes."""

    constraints: tuple[tuple[int, int], ...]

    def __init__(self, constraints: Mapping[int, int]):
        constraints = dict(constraints)  # keys, so the modes are distinct
        items = tuple(sorted(zip(_integers(constraints, "detector modes"),
                                 _integers(constraints.values(), "detector counts"))))
        if any(c < 0 for _, c in items):
            raise ValueError("required photon counts must be non-negative")
        object.__setattr__(self, "constraints", items)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.constraints)

    def count(self, mode: int) -> int | None:
        for m, c in self.constraints:
            if m == mode:
                return c
        return None

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


def _check_pattern(pattern: DetectionPattern, num_modes: int) -> None:
    for m in pattern.modes:
        if not 0 <= m < num_modes:
            raise ValueError(f"pattern mode {m} out of range for {num_modes} modes")
    if len(pattern.modes) >= num_modes:
        raise ValueError("pattern must leave at least one surviving mode")


def _counts_on(modes: Sequence[int]) -> Callable[[Occupation], tuple[int, ...]]:
    """The function from an occupation to its counts on ``modes``, as a tuple."""
    if len(modes) == 1:       # itemgetter of one item returns the bare item
        mode = modes[0]
        return lambda occ: (occ[mode],)
    return itemgetter(*modes) if modes else lambda occ: ()


def postselect(state: FockState, pattern: DetectionPattern) -> PostselectionResult:
    """Condition on a detector outcome.

    Probability 0 is a valid result and carries no conditional state.
    """
    return _postselect(list(state.terms()), state.num_modes, pattern)


def _postselect(terms: list[tuple[Occupation, complex]], num_modes: int,
                pattern: DetectionPattern) -> PostselectionResult:
    """``postselect`` on a state's ``terms()``, listed by the caller."""
    _check_pattern(pattern, num_modes)
    measured = _counts_on(pattern.modes)
    wanted = tuple(c for _, c in pattern.constraints)
    survivor = _counts_on([m for m in range(num_modes) if pattern.count(m) is None])
    kept: dict[Occupation, complex] = {}
    prob = 0.0
    for occ, amp in terms:
        if measured(occ) == wanted:   # the measured counts are fixed, so survivors are distinct
            prob += abs(amp) ** 2
            kept[survivor(occ)] = amp
    if prob <= PROB_FLOOR:
        return PostselectionResult(prob, None)
    survivor_state = FockState._wrap(num_modes - len(pattern.modes), kept)
    return PostselectionResult(prob, survivor_state.scaled(1.0 / math.sqrt(prob)))


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
    terms = list(state.terms())   # sorted once for every branch
    results = []
    for branch in branches:
        res = _postselect(terms, state.num_modes, branch.pattern)
        if res.conditional_state is not None and branch.correction is not None:
            res = PostselectionResult(res.probability, evolve(res.conditional_state, branch.correction))
        results.append((branch, res))
    return results


#: Costs of ``transition_amplitudes`` in units of one full-basis output
#: term per mode of ``evolve``: a fixed part per input term and a part per
#: product of its running product (see ``evolve_for_branches``).
HERALDED_COST_PER_TERM = 256
HERALDED_COST_PER_PRODUCT = 1 / 16


def _heralded_outputs(pattern: DetectionPattern, num_modes: int, photons: int) -> Iterator[Occupation]:
    """Every occupation with ``photons`` photons that ``pattern`` keeps."""
    free = photons - sum(c for _, c in pattern.constraints)
    if free < 0:
        return
    fixed = [0] * num_modes
    for m, c in pattern.constraints:
        fixed[m] = c
    survivors = [m for m in range(num_modes) if pattern.count(m) is None]
    for placed in combinations_with_replacement(survivors, free):
        occ = list(fixed)
        for m in placed:
            occ[m] += 1
        yield tuple(occ)


def _heralded_output_count(pattern: DetectionPattern, num_modes: int, photons: int) -> int:
    free = photons - sum(c for _, c in pattern.constraints)
    survivors = num_modes - len(pattern.modes)
    return math.comb(free + survivors - 1, free) if free >= 0 else 0


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
    terms, is below that of ``evolve``. The rule reads only the input's
    occupations, the mode count and the patterns. Both constants were
    fitted to both routes timed on 347 inputs: the gate gallery, the
    two-stage cs cascade, Haar networks of 3..14 modes with 1..7 photons
    and random patterns, and singly occupied inputs of up to 9 photons
    with one to three detectors (``BENCH_7.json``). Over that set the rule
    takes 6 % more time than always picking the faster route, and 2.8x
    at worst on one small input; always-``evolve`` takes 1.97x and
    always-heralded 1.50x. The fixed part keeps small inputs on
    ``evolve``: on the gallery, ``ns`` and ``cnot_2photon`` take
    ``evolve``, ``cs``, ``cnot_klm`` and the cascade the heralded route.
    The per-product part sends an input back to ``evolve`` when its
    s-grid outgrows the basis, as for one detector behind six singly
    occupied modes. ``postselect_branches`` gives the same results on
    either state.
    """
    m = transform.dim
    for branch in branches:
        _check_pattern(branch.pattern, m)
    occs = [occ for occ, _ in state.terms()]
    full = m * sum(math.comb(sum(occ) + m - 1, sum(occ)) for occ in occs)
    products = m * sum(
        math.prod(c + 1 for c in occ) * sum(_heralded_output_count(b.pattern, m, sum(occ)) for b in branches)
        for occ in occs
    )
    if HERALDED_COST_PER_TERM * len(occs) + HERALDED_COST_PER_PRODUCT * products >= full:
        return evolve(state, transform)
    outputs = [occ for n in sorted({sum(occ) for occ in occs}) for b in branches
               for occ in _heralded_outputs(b.pattern, m, n)]
    return transition_amplitudes(state, transform, outputs)


def outcome_distribution(state: FockState, modes: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Probability of every photon-count combination on the given modes."""
    modes = _integers(modes, "outcome modes")
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
    anc = dict(zip(_integers(ancilla, "ancilla modes"),
                   _integers(ancilla.values(), "ancilla counts")))
    for m in anc:
        if not 0 <= m < num_modes:
            raise ValueError(f"ancilla mode {m} out of range for {num_modes} modes")
    comp_modes = [m for m in range(num_modes) if m not in anc]
    if comp_state.num_modes != len(comp_modes):
        raise ValueError(
            f"computational state has {comp_state.num_modes} modes, expected {len(comp_modes)}"
        )
    full = [anc.get(m, 0) for m in range(num_modes)]
    amp: dict[Occupation, complex] = {}
    for occ, a in comp_state.terms():
        for m, n in zip(comp_modes, occ):
            full[m] = n
        amp[tuple(full)] = a
    return FockState(num_modes, amp)


@dataclass
class IndependenceReport:
    """Outcome of probing a postselection scheme for input independence."""

    probabilities: list[list[float]]  # [branch][probe], in the order passed in
    max_probability_deviation: float
    max_gram_deviation: float
    operationally_unitary: bool


def input_independence_check(
    transform: ModeTransform,
    ancilla: Mapping[int, int],
    branches: Sequence[OutcomeBranch],
    probes: Sequence[FockState],
) -> IndependenceReport:
    """Probe whether branch probabilities depend on the computational input.

    Each probe (a state on the computational modes) is combined with the
    fixed ancilla preparation, evolved, and evaluated per branch by
    ``postselect_branches``, so the branches must be mutually exclusive. The
    scheme is flagged operationally unitary when every branch probability
    is probe-independent and the branch maps preserve inner products
    between the probes at the common success amplitude, both within
    ``INDEPENDENCE_TOL``.
    """
    if not probes:
        raise ValueError("at least one probe state is required")
    normalized_probes = [p.normalized()[0] for p in probes]
    per_probe = []
    for p in normalized_probes:
        full = with_ancilla(p, ancilla, transform.dim)
        per_probe.append(postselect_branches(evolve_for_branches(full, transform, branches), branches))
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
        probabilities=probabilities,
        max_probability_deviation=prob_dev,
        max_gram_deviation=gram_dev,
        operationally_unitary=(prob_dev <= INDEPENDENCE_TOL and gram_dev <= INDEPENDENCE_TOL),
    )
