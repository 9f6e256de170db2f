"""Numerical feasibility scans and optimization for postcorrection schemes.

The object under study is the parametrized three-mode sign-shift network
(``multiport.general3``) fed with k = 0, 1, 2 signal photons plus one
ancilla photon on mode 1. For each detector outcome the surviving
mode-0 amplitude is a trigonometric polynomial in the three angles; the
closed forms here were expanded by hand once and are continuously
cross-checked against the operator-expansion simulator by the tests.

Feasibility of a correction scheme is judged by a proportionality
residual: the corrected amplitude triple must be proportional to the
target pattern (sign-flipped or identity) for the correction to act as a
unitary on the signal. The amplitudes are real and the residual is
scale-free,

    r(c, t) = 1 - <t, c>^2 / (|t|^2 |c|^2),

zero exactly on proportional triples. Where a parameter choice kills all
three corrected amplitudes (|c|^2 = 0) the scheme applies no correction
at all and the residual falls back to the uncorrected mismatch of the case.

Verdicts are numerical certificates, not proofs: "infeasible" means the
residual exceeded the margin everywhere on a refined grid outside small
exclusion windows around degenerate angles.

Every scan runs on one engine, ``_refine_scan``: a coarse grid over the
scheme's domain, then ``REFINE_ROUNDS`` (3) rounds that each divide the
step by ten and rescan a window of refined cells either side of the
incumbent. It refuses a step wider than the domain (pi; 2 pi for
``ns_in_ns``), so every grid it lays has a point of the domain on each
axis. The kernel gets the grid as broadcast ``np.ix_`` axes, so its
trigonometry runs per axis value, not per point. Each call covers a block
of consecutive first-axis values, as many as fit in ``SCAN_BLOCK_POINTS``
(2^14) grid points and at least one, so a call's temporaries stay
cache-sized; no call covers more than max(``SCAN_BLOCK_POINTS``, one
first-axis slab) points. Before the first kernel call the engine bounds
the last two axes by ``MAX_SLAB_POINTS`` points, and so the largest call;
and the whole scan, the coarse grid plus every refinement window, by
``MAX_SCAN_POINTS`` (10^9) points. A "clipped" grid is laid over the
window cut to the domain; a "filtered" one over the whole window, keeping
only the points inside the domain. A kernel marks a point it does not
admit with cost +inf. Per scheme:

* ``single_bs``: x in [0, pi], filtered; window 100. Points within
  ``DEGENERATE_EXCLUSION`` of 0, pi/2 and pi cost +inf.
* ``two_bs``: x, y in [0, pi], clipped; window 100. Each point's amplitude
  triple is computed once and scored at both phases ``TWO_BS_PHASES``; it
  keeps the lower residual, phase 0 on a tie.
* ``ns_in_ns``: t1, t2, t3 in [0, 2 pi], filtered; window 100.
* ``optimize_ns``: t1, t2, t3 in [0, pi], clipped; window 10. The engine
  minimizes, so the score enters negated.

All scans are deterministic: fixed grids and first-index argmin.
``optimize_ns`` then moves to the nearest point of the proved maximizer
set (``minimize``), where the worst-case branch probability is exactly 1/4.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .fock import FockState
from .multiport import NS_R, NS_U, NS_V, NS_W, SQRT2, evolve, general3, general3_columns

#: Grid points whose angles sit within this radius of a degenerate value
#: are excluded from infeasibility certificates.
DEGENERATE_EXCLUSION = 1e-3

#: A best residual above this margin makes an "infeasible" verdict; one
#: between the tolerance and the margin is "inconclusive".
VERDICT_MARGIN = 1e-3

#: Phases of the two-splitter scheme's phase shifter; every scan point is
#: scored at both.
TWO_BS_PHASES = (0.0, math.pi)

#: Refinement rounds after the coarse grid, each dividing the step by ten.
REFINE_ROUNDS = 3

#: Most grid points in the last two scan axes; with three axes that is one
#: first-axis slab, the largest single kernel call. A scan whose slab would
#: be larger is rejected before the slab is allocated.
MAX_SLAB_POINTS = 10**7

#: Grid points one kernel call covers when several first-axis values fit:
#: a call takes as many consecutive first-axis values as stay within this
#: many points, and at least one. Small enough that a call's temporaries
#: stay in cache, large enough that numpy's fixed cost per pass is spread
#: over many points (BENCH_31.json has the sweep that set it).
SCAN_BLOCK_POINTS = 2**14

#: Most grid points one whole scan may cover, coarse grid and refinement
#: windows together; checked before the first kernel call.
MAX_SCAN_POINTS = 10**9

TARGETS = {"sign_flip": (1.0, 1.0, -1.0), "restore": (1.0, 1.0, 1.0)}


# -- closed-form outcome amplitudes --------------------------------------

#: Detector outcomes with at most one photon per detector, per signal count.
OUTCOME_PATTERNS = {
    0: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    1: ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    2: ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 1)),
}


def closed_form_amplitudes(angles: tuple[float, float, float]) -> dict:
    """Hand-expanded outcome amplitudes of the parametrized network.

    Keys are (signal photon count k, output occupation); values are the
    exact real amplitudes for input |k> x |1, 0>. Independent of the
    simulator path; the factorial weights of multiply-occupied modes are
    already folded in.
    """
    d, e = itertools.islice(general3_columns(*angles), 2)
    d1, d2, d3 = d
    e1, e2, e3 = e
    return {
        (0, (1, 0, 0)): e1,
        (0, (0, 1, 0)): e2,
        (0, (0, 0, 1)): e3,
        (1, (2, 0, 0)): SQRT2 * d1 * e1,
        (1, (1, 1, 0)): d1 * e2 + d2 * e1,
        (1, (1, 0, 1)): d1 * e3 + d3 * e1,
        (1, (0, 1, 1)): d2 * e3 + d3 * e2,
        (2, (3, 0, 0)): math.sqrt(3.0) * (d1 * d1) * e1,
        (2, (2, 1, 0)): d1 * d1 * e2 + 2 * d1 * d2 * e1,
        (2, (2, 0, 1)): d1 * d1 * e3 + 2 * d1 * d3 * e1,
        (2, (1, 1, 1)): SQRT2 * (d1 * d2 * e3 + d1 * d3 * e2 + d2 * d3 * e1),
    }


def parametrized_ns_amplitudes(angles: tuple[float, float, float]) -> dict:
    """The same outcome-amplitude table computed via the simulator."""
    transform = general3(*angles)
    table = {}
    for k, patterns in OUTCOME_PATTERNS.items():
        out = evolve(FockState.from_occupation((k, 1, 0)), transform, prune_tol=0.0)
        for pat in patterns:
            table[(k, pat)] = out.amplitude(pat)
    return table


def sign_shift_branch_amplitudes(t1, t2, t3):
    """Amplitudes of the heralded branch (one photon on detector 1, none
    on detector 2) for k = 0, 1, 2; accepts scalars or arrays."""
    d, e = itertools.islice(general3_columns(t1, t2, t3), 2)
    a0 = e[1]
    a1 = d[0] * e[1] + d[1] * e[0]
    a2 = d[0] * (d[0] * e[1] + 2 * d[1] * e[0])
    return a0, a1, a2


# -- case data ------------------------------------------------------------

#: Per-photon-count coefficients of each detector case of the standard
#: sign-shift network (signal counts k = 0, 1, 2). Case 2 (one photon on
#: detector 1) lists the bare conditional amplitudes; it needs no
#: correction. Cases 1 and 3 list the coefficients that multiply the
#: correction-scan monomial families (the two-photon entry of case 1 folds
#: in the photon-removal path weight).
CASE_AMPLITUDES = {
    1: (NS_V, 2.0 * NS_U * NS_V, math.sqrt(3.0) * NS_U * NS_U * NS_V),
    2: (0.5, 0.5, -0.5),
    3: (NS_R, NS_U * NS_R + NS_V * NS_W, NS_U * NS_U * NS_R + 2.0 * NS_U * NS_V * NS_W),
}


# -- residuals -------------------------------------------------------------

def proportionality_residual(values, target, fallback=1.0):
    """Scale-free deviation of ``values`` from being proportional to ``target``.

    ``target`` is a sequence of numbers. Elementwise over the broadcast
    shape of the real components of ``values`` (a float for scalars);
    sum(c^2) and <t, c> are summed in component order, and ``fallback``
    is returned where sum(c^2) == 0. Complex input, a component count
    unlike the target's and a zero target raise ``ValueError``.
    """
    if any(np.iscomplexobj(v) for v in (*values, *target)):
        raise ValueError("proportionality_residual takes real values only")
    if len(values) != len(target):
        raise ValueError(f"values have {len(values)} components, target has {len(target)}")
    nt = _inner(target, target)
    if not nt > 0.0:
        raise ValueError("target must have a nonzero component")
    nc = _inner(values, values)
    r = _residual(_inner(target, values), nt * nc, nc > 0.0, fallback)
    return r if r.ndim else float(r)


def _inner(a, b):
    """sum(a_k b_k) in component order, started from the first term:
    sum()'s 0 + ... is one more pass that can change only a zero's sign."""
    return functools.reduce(operator.add, map(operator.mul, a, b))


def _residual(ip, den, alive, fallback):
    """1 - ip^2 / den clipped to [0, 1] where ``alive``, ``fallback``
    elsewhere: with den = |t|^2 |c|^2 and alive = |c|^2 > 0 this is
    r(c, t), ``proportionality_residual``'s last step; the scan kernels
    that share |c|^2 between scores call it directly."""
    ratio = np.divide(ip * ip, den, out=np.zeros(np.shape(den)), where=alive)
    np.subtract(1.0, ratio, out=ratio)
    return np.where(alive, np.clip(ratio, 0.0, 1.0, out=ratio), fallback)


def uncorrected_mismatch(case: int, target: str) -> float:
    """Residual of the raw case amplitudes against a target pattern."""
    if case not in CASE_AMPLITUDES:
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    if target not in TARGETS:
        raise ValueError(f"target must be one of {sorted(TARGETS)}")
    return proportionality_residual(CASE_AMPLITUDES[case], TARGETS[target])


@dataclass
class FeasibilityReport:
    """Result of one feasibility scan, serializable as a flat record."""

    scheme: str
    parameters: dict
    best_residual: float
    best_params: dict
    verdict: str
    extras: dict

    def to_record(self) -> dict:
        return asdict(self)


def _feasibility_report(scheme, grid_step, tolerance, residual, best_params, fallback,
                        extras=None, **scheme_parameters) -> FeasibilityReport:
    """The one constructor of a scan's ``FeasibilityReport``.

    ``scheme_parameters`` go between the margin and ``refine_rounds``; the
    extras open with the uncorrected mismatch ``fallback``. A residual at
    or below ``tolerance`` is "feasible", one above ``VERDICT_MARGIN``
    "infeasible", and one between them "inconclusive".
    """
    return FeasibilityReport(
        scheme=scheme,
        parameters={"grid_step": grid_step, "tolerance": tolerance, "margin": VERDICT_MARGIN,
                    **scheme_parameters, "refine_rounds": REFINE_ROUNDS},
        best_residual=residual,
        best_params=best_params,
        verdict=("feasible" if residual <= tolerance else
                 "infeasible" if residual > VERDICT_MARGIN else "inconclusive"),
        extras={"uncorrected_mismatch": fallback, **(extras or {})},
    )


# -- the scan engine ---------------------------------------------------------

def _refine_scan(kernel, domains, step, window, *, clip):
    """Grid scan of ``kernel`` over ``domains``, refined around the incumbent.

    Each of ``REFINE_ROUNDS`` rounds divides the step by ten and rescans
    ``window`` refined cells either side of the incumbent, which it keeps
    unless a strictly lower cost turns up. With ``clip`` the window is
    clipped to the domain before the grid is laid; otherwise the grid
    covers the whole window and points outside the domain are dropped.

    The kernel gets the ``np.ix_`` axes, shapes (k, 1, 1), (1, n, 1) and
    (1, 1, m) for three axes, with the first cut to a block of consecutive
    values: as many as fit in ``SCAN_BLOCK_POINTS`` grid points, and at
    least one, so a call covers at most max(``SCAN_BLOCK_POINTS``, one
    first-axis slab) points. It returns ``(cost, *aux)`` arrays that
    broadcast over the block, with cost +inf at a point it does not admit;
    ``aux`` is read at the first-index argmin of ``cost``, and a later
    block replaces the incumbent only with a strictly lower cost, so the
    pick is the first argmin of the whole grid in C order. ``step`` must be
    finite, positive and no wider than the narrowest domain; it is checked,
    then both budgets, before the first kernel call. Every domain starts at
    0, so each grid then has a point of the domain on each axis. A coarse
    grid with no admitted point raises ``ValueError``; a refinement round
    with none keeps its incumbent.

    Returns ``(best, history)``. ``best`` is ``(cost, point, aux)`` with the
    point ordered like the axes; ``history`` holds one ``(step, best)`` pair
    for the coarse scan and one per round.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("grid_step must be finite and positive")
    if step > (width := min(hi - lo for lo, hi in domains)):
        raise ValueError(f"grid_step {step!r} is wider than the scan's narrowest axis ({width!r})")
    # a refinement window spans at most 2 * window + 1 points per axis, so
    # the coarse grid bounds both budgets
    coarse = [(hi - lo) / step + 1.0 for lo, hi in domains]
    slab = math.prod(coarse[-2:])
    if slab > MAX_SLAB_POINTS:
        raise ValueError(f"a scan slab of {slab:.3g} grid points exceeds "
                         f"MAX_SLAB_POINTS = {MAX_SLAB_POINTS}; use a larger grid_step")
    total = math.prod(coarse) + REFINE_ROUNDS * (2 * window + 1) ** len(domains)
    if total > MAX_SCAN_POINTS:
        raise ValueError(f"a scan of up to {total:.3g} grid points exceeds "
                         f"MAX_SCAN_POINTS = {MAX_SCAN_POINTS}; use a larger grid_step")

    def scan(windows, step):
        axes = []
        for (lo, hi), (dlo, dhi) in zip(windows, domains):
            if clip:
                lo, hi = max(lo, dlo), min(hi, dhi)
            ax = np.arange(lo, hi + step / 2, step)
            axes.append(ax if clip else ax[(ax >= dlo) & (ax <= dhi)])
        best = (math.inf, None, ())
        first, *rest = np.ix_(*axes)
        per = max(1, SCAN_BLOCK_POINTS // math.prod(len(ax) for ax in axes[1:]))
        for lo in range(0, len(axes[0]), per):
            cost, *aux = np.broadcast_arrays(*kernel(first[lo:lo + per], *rest))
            i = int(np.argmin(cost))
            value = float(cost.flat[i])
            if value < best[0]:
                at = np.unravel_index(i, cost.shape)
                point = (axes[0][lo + at[0]], *(ax[j] for ax, j in zip(axes[1:], at[1:])))
                best = (value, tuple(map(float, point)), tuple(float(a.flat[i]) for a in aux))
        return best

    best = scan(domains, step)
    if best[0] == math.inf:
        raise ValueError("the coarse grid has no admissible point; use a smaller grid_step")
    history = [(step, best)]
    for _ in range(REFINE_ROUNDS):
        step /= 10.0
        refined = scan([(c - window * step, c + window * step) for c in best[1]], step)
        if refined[0] < best[0]:
            best = refined
        history.append((step, best))
    return best, history


# -- one-splitter correction ------------------------------------------------

def single_bs_corrected(case: int, x):
    """Corrected amplitude triple of the one-splitter scheme at angle x.

    Case 1 survivors carry 1..3 photons; the splitter faces an empty port
    and exactly one photon must leave through it. Case 3 survivors carry
    0..2 photons; the splitter faces a port prepared with one photon that
    must come back out.

    The splitter is the block [[cos x, sin x], [sin x, -cos x]] on the
    survivor mode and the port. For x <= pi/2 that is
    ``beam_splitter(cos(x)**2)``; for x in (pi/2, pi) it is diag(-1, 1)
    ``beam_splitter(cos(x)**2)`` diag(1, -1), the splitter between two pi
    phase shifts (the bare splitter there gives the case-3 triple times
    (-1, 1, -1)). So the scan's ``infeasible`` verdict over (0, pi) covers
    both the bare splitter and the splitter between pi shifts. A test
    simulates this scheme: case 3 agrees with the triple up to one common
    factor; case 1 does not, its simulated triple is this one times
    (1, 1, sqrt 3).
    """
    s, c = np.sin(x), np.cos(x)
    if case == 1:
        monos = (s, s * c, s * (c * c))
    elif case == 3:
        monos = (-c, s * s - c * c, 2 * (s * s) * c - c * (c * c))
    else:
        raise ValueError(f"only cases 1 and 3 have a one-splitter correction scan, got case {case}")
    return tuple(k * m for k, m in zip(CASE_AMPLITUDES[case], monos))


def _excluded(axis: np.ndarray, points: tuple[float, ...]) -> np.ndarray:
    mask = np.ones(axis.shape, dtype=bool)
    for p in points:
        mask &= np.abs(axis - p) > DEGENERATE_EXCLUSION
    return mask


def single_bs_infeasibility(
    case: int,
    grid_step: float = 1e-2,
    *,
    target: str = "sign_flip",
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Certify (or refute) the one-splitter correction over angle x in (0, pi)."""
    fallback = uncorrected_mismatch(case, target)
    tvec = TARGETS[target]

    def kernel(xs):
        r = proportionality_residual(single_bs_corrected(case, xs), tvec, fallback)
        return (np.where(_excluded(xs, (0.0, math.pi / 2, math.pi)), r, math.inf),)

    (residual, (x,), _), _ = _refine_scan(kernel, [(0.0, math.pi)], grid_step, 100, clip=False)
    return _feasibility_report(f"single_bs:case{case}:{target}", grid_step, tolerance,
                               residual, {"x": x}, fallback, components=[0, 1, 2])


# -- two-splitter correction -------------------------------------------------

def two_bs_corrected(x, y):
    """Corrected amplitude triple of the two-splitter scheme for case 3,
    at phase 0.

    The two angles enter through the product monomial family
    (sin x sin y, 2 sin x cos x sin y cos y, 3 sin x cos^2 x sin y cos^2 y).
    A phase shifter multiplies the k-photon component by e^{i k phase},
    which for the phases ``TWO_BS_PHASES`` (0, pi) is the real cos(k phase),
    exactly +1 or -1. The residual is unchanged when that sign moves from
    the component onto the target, so ``two_bs_feasibility`` scores phase
    pi on this same triple against the target with its middle entry negated.
    """
    sx, cx, sy, cy = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
    monos = (sx * sy, 2 * sx * cx * sy * cy, 3 * sx * (cx * cx) * sy * (cy * cy))
    return tuple(co * m for co, m in zip(CASE_AMPLITUDES[3], monos))


def two_bs_feasibility(grid_step: float = 1e-2, *, tolerance: float = 1e-6) -> FeasibilityReport:
    """Scan the case-3 two-splitter sign-flip correction over (x, y), each
    point at both phases ``TWO_BS_PHASES``; no other case has a
    two-splitter family."""
    fallback = uncorrected_mismatch(3, "sign_flip")
    tvec = TARGETS["sign_flip"]
    # the target each phase scores the phase-0 triple against: the sign
    # cos(k phase) of component k, moved onto the target (exact, as it is
    # +-1, so every phase target has the norm of tvec)
    phase_targets = [tuple(t * math.cos(k * phi) for k, t in enumerate(tvec)) for phi in TWO_BS_PHASES]
    nt = _inner(tvec, tvec)

    def kernel(xs, ys):
        parts = two_bs_corrected(xs, ys)
        nc = _inner(parts, parts)
        den, alive = nt * nc, nc > 0.0
        r0, r1 = (_residual(_inner(t, parts), den, alive, fallback) for t in phase_targets)
        return np.minimum(r0, r1), np.where(r1 < r0, TWO_BS_PHASES[1], TWO_BS_PHASES[0])

    (residual, (x, y), (phase,)), _ = _refine_scan(kernel, [(0.0, math.pi)] * 2, grid_step, 100, clip=True)

    # constrained equal-angle slice
    ys = np.arange(0.0, math.pi + grid_step / 2, grid_step)
    slice_r = proportionality_residual(two_bs_corrected(ys, ys), tvec, fallback)
    j = int(np.argmin(slice_r))

    return _feasibility_report(
        "two_bs:case3:sign_flip", grid_step, tolerance, residual,
        {"x": x, "y": y, "phase": phase}, fallback,
        {"equal_angle_min_residual": float(slice_r[j]), "equal_angle_best_y": float(ys[j])},
        phases=list(TWO_BS_PHASES))


# -- correction through a second sign-shift network ---------------------------

#: Coefficient triple entering the case-1 second-network proportionality
#: system: the raw monomial weights of the survivors (1..3 photons).
_SECOND_GATE_INPUT = (NS_V, NS_U * 2.0 ** 0.25, NS_U * NS_U * NS_V)


def second_gate_coefficients(case: int, pattern: tuple[int, int], t1, t2, t3):
    """Monomial coefficients of the second network's detector outcome.

    For survivors carrying n photons plus the fresh ancilla photon, these
    are the coefficients of the monomial with n_detected photons removed;
    the simulator amplitude equals the coefficient times
    sqrt(prod(out!)*2)/sqrt(n!) (tests pin this conversion).

    Only case 1 with both photons on the second network's first detector,
    pattern (2, 0), has a table: it is the one the scan reads. Any other
    case/pattern raises ``ValueError``.
    """
    if (case, pattern) != (1, (2, 0)):
        raise ValueError(f"unsupported case/pattern combination: case {case}, pattern {pattern}")
    (d1, d2, _), (e1, e2, _) = itertools.islice(general3_columns(t1, t2, t3), 2)
    return (d2 * e2,
            d2 * d2 * e1 + 2 * d1 * d2 * e2,
            3 * d1 * (d2 * d2) * e1 + 3 * (d1 * d1) * d2 * e2)


def ns_in_ns_products(case: int, pattern: tuple[int, int], t1, t2, t3):
    """Per-photon-count products (incoming coefficient x correction).

    The ``ns_in_ns`` scan kernel; the benchmark tracer counts its grid
    points from the angles at argument positions 2-4, so the signature
    keeps ``case`` and ``pattern`` although the scan fixes both.
    """
    coeffs = second_gate_coefficients(case, pattern, t1, t2, t3)
    return tuple(i * c for i, c in zip(_SECOND_GATE_INPUT, coeffs))


def candidate_root_family() -> list[tuple[float, float, float]]:
    """Sample the exact root family of the case-1 (2,0) sign-flip system.

    With d, e the first two ``general3`` columns, a = d1 = -cos t2 and
    b = d2 e1 / e2, the products are d2 e2 (I0, I1 (b + 2a), 3 I2 a (b + a))
    for I = ``_SECOND_GATE_INPUT``. Proportionality to (1, 1, -1) gives
    b = I0/I1 - 2a and 3 I2 a^2 - 3 I2 (I0/I1) a - I0 = 0, whose roots have
    opposite signs; the positive one lies in [-1, 1] and fixes t2 = acos(-a),
    then b fixes tan t1 tan t3 = sin^2 t2 / b - cos t2. The family is sampled
    at 21 values of t1 in [0.2, pi - 0.2] for each sign of t2.
    """
    i0, i1, i2 = _SECOND_GATE_INPUT
    p, q = 3 * i2, -3 * i2 * i0 / i1
    a = (-q + math.sqrt(q * q + 4 * p * i0)) / (2 * p)
    t2 = math.acos(-a)
    tan_ratio = math.sin(t2) ** 2 / (i0 / i1 - 2 * a) - math.cos(t2)
    return [(float(t1), sign * t2, math.atan(tan_ratio / math.tan(t1)))
            for sign in (1.0, -1.0) for t1 in np.linspace(0.2, math.pi - 0.2, 21)]


def ns_in_ns_feasibility(grid_step: float = 2e-2, *, tolerance: float = 1e-6) -> FeasibilityReport:
    """Scan the second-network angle space for a case-1 sign-flip correction
    with two photons on the second network's first detector, then sample
    the exact root family ``candidate_root_family``."""
    fallback = uncorrected_mismatch(1, "sign_flip")
    tvec = TARGETS["sign_flip"]

    def kernel(t1, t2, t3):
        return (proportionality_residual(ns_in_ns_products(1, (2, 0), t1, t2, t3), tvec, fallback),)

    (residual, angles, _), _ = _refine_scan(
        kernel, [(0.0, 2 * math.pi)] * 3, grid_step, 100, clip=False)

    fam = candidate_root_family()
    fam_r = [proportionality_residual(ns_in_ns_products(1, (2, 0), *p), tvec) for p in fam]
    j = int(np.argmin(fam_r))
    extras = {"candidate_family_best_residual": float(fam_r[j]),
              "candidate_family_best_angles": list(fam[j])}
    if fam_r[j] < residual:
        residual, angles = float(fam_r[j]), fam[j]

    return _feasibility_report(
        "ns_in_ns:case1:2,0:sign_flip", grid_step, tolerance,
        residual, {"t1": angles[0], "t2": angles[1], "t3": angles[2]}, fallback, extras)


# -- success-probability optimization ------------------------------------------

@dataclass
class OptimizationResult:
    angles: tuple[float, float, float]
    probability: float
    residual: float
    rounds: list[dict]
    grid_step: float

    def to_record(self) -> dict:
        return {
            "objective": "ns_sign_flip",
            "angles": list(self.angles),
            "probability": self.probability,
            "residual": self.residual,
            # known ceiling for heralding such a sign shift by
            # postselection alone; listed for comparison, not derived here
            "postselection_upper_bound": 0.5,
            "rounds": [dict(r) for r in self.rounds],
            "grid_step": self.grid_step,
            "refinement_rounds": REFINE_ROUNDS,
        }


def optimize_success(grid_step: float = 0.05) -> OptimizationResult:
    """Maximize the worst-case heralded-branch probability of the
    parametrized sign-shift network subject to the sign-flip
    proportionality constraint: penalty form on a refined grid, then the
    exact maximizer ``minimize`` nearest the incumbent, kept unless it
    scores lower than the grid. On the constraint set the probability is
    at most 1/4 by AM-GM, reached exactly at cos t2 = sqrt(2) - 1 with t1
    and t3 both pi/8 or both 7 pi/8 (mod pi); ``minimize`` gives the proof.

    ``rounds`` holds the grid-only score of the coarse scan and of each
    refinement round; the polish is not part of it.
    """
    tvec = TARGETS["sign_flip"]
    nt = _inner(tvec, tvec)

    def kernel(t1, t2, t3):  # the engine minimizes, so the score enters negated
        amps = sign_shift_branch_amplitudes(t1, t2, t3)
        sq0, sq1, sq2 = (a * a for a in amps)
        prob = np.minimum(np.minimum(sq0, sq1), sq2)
        nc = sq0 + sq1 + sq2
        r = _residual(_inner(tvec, amps), nt * nc, nc > 0.0, 1.0)
        return -(prob - r), prob, r

    (neg_score, angles, (prob, resid)), history = _refine_scan(
        kernel, [(0.0, math.pi)] * 3, grid_step, 10, clip=True)
    rounds = [{"round": n, "step": step, "score": -cost, "probability": aux[0], "residual": aux[1]}
              for n, (step, (cost, _, aux)) in enumerate(history)]

    polish = minimize(angles)
    p_cost, p_prob, p_resid = kernel(*polish.x)
    if p_cost <= neg_score + 1e-12:
        angles, prob, resid = polish.x, p_prob, p_resid
    return OptimizationResult(
        angles=tuple(float(a) for a in angles),
        probability=float(prob),
        residual=float(resid),
        rounds=rounds,
        grid_step=grid_step,
    )


@dataclass
class PolishResult:
    x: tuple[float, float, float]
    nit: int
    nfev: int
    success: bool


def minimize(angles) -> PolishResult:
    """The maximizer of ``optimize_success``'s problem nearest ``angles``.

    With a = -cos t2 and k = (sqrt(2) - 1)^2, the sign flip forces
    a = 1 - sqrt(2) and tan t1 tan t3 = k. There the worst-case branch
    probability is p = sin^4 t2 cos^2 t1 cos^2 t3 / 2, and AM-GM gives
    p <= 2k / (1 + k)^2 = 1/4, with equality exactly at cos t2 = sqrt(2) - 1
    and t1, t3 both pi/8 or both 7 pi/8 (mod pi). Of the points
    t2 = +-acos(sqrt(2) - 1) (mod 2 pi) with such t1, t3, the result is the
    one nearest ``angles`` in Euclidean distance, ties going to pi/8 first,
    then to +acos. ``success`` (True), ``nit`` and ``nfev`` (both 0) are
    kept for the benchmark tracer only, which reads them.
    """
    def nearest(t, centre, period):
        return centre + period * math.floor((t - centre) / period + 0.5)

    t1, t2, t3 = angles
    acos = math.acos(SQRT2 - 1.0)
    best = min(((nearest(t1, c, math.pi), nearest(t2, s, 2 * math.pi), nearest(t3, c, math.pi))
                for c in (math.pi / 8, 7 * math.pi / 8) for s in (acos, -acos)),
               key=lambda x: math.dist(x, angles))
    return PolishResult(best, 0, 0, True)
