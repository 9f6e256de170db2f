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
unitary on the signal. The residual is scale-free,

    r(c, t) = 1 - |<t, c>|^2 / (|t|^2 |c|^2),

zero exactly on proportional triples. Where a parameter choice kills all
three corrected amplitudes the scheme applies no correction at all and
the residual falls back to the uncorrected mismatch of the case.

Verdicts are numerical certificates, not proofs: "infeasible" means the
residual exceeded the margin everywhere on a refined grid outside small
exclusion windows around degenerate angles.

Every scan runs on one engine, ``_refine_scan``: a coarse grid over the
scheme's domain, then ``REFINE_ROUNDS`` (3) rounds that each divide the
step by ten and rescan a window of refined cells either side of the
incumbent. The last two axes form one slab per kernel call (at most
``MAX_SLAB_POINTS`` points); a leading axis is looped over. Before the
first kernel call the engine also bounds the whole scan, the coarse grid
plus every refinement window, by ``MAX_SCAN_POINTS`` (10^9) points. A
"clipped" grid is laid over the window cut to the domain; a "filtered"
one over the whole window, keeping only the points inside the domain.
Per scheme:

* ``single_bs``: x in [0, pi], filtered, degenerate angles excluded; window 100.
* ``two_bs``: x, y in [0, pi], clipped, phases a fixed leading axis; window 100.
* ``ns_in_ns``: t1, t2, t3 in [0, 2 pi], filtered; window 100.
* ``optimize_ns``: t1, t2, t3 in [0, pi], clipped; window 10. The engine
  minimizes, so the score enters negated.

All scans are deterministic: fixed grids, first-index argmin, and a
derivative-free-seeded SLSQP polish only where noted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .fock import FockState
from .multiport import NS_R, NS_U, NS_V, NS_W, SQRT2, evolve, general3, general3_columns

#: Grid points whose angles sit within this radius of a degenerate value
#: are excluded from infeasibility certificates.
DEGENERATE_EXCLUSION = 1e-3

#: A best residual above this margin makes an "infeasible" verdict; one
#: between the tolerance and the margin is "inconclusive".
VERDICT_MARGIN = 1e-3

#: Phases of the two-splitter scheme's phase shifter, a fixed scan axis.
TWO_BS_PHASES = (0.0, math.pi)

#: Weight of the proportionality residual in the optimizer's score.
RESIDUAL_PENALTY = 1.0

#: Refinement rounds after the coarse grid, each dividing the step by ten.
REFINE_ROUNDS = 3

#: Most grid points one kernel call may cover. A scan whose slab would be
#: larger is rejected before the slab is allocated.
MAX_SLAB_POINTS = 10**7

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
        (2, (3, 0, 0)): math.sqrt(3.0) * d1 ** 2 * e1,
        (2, (2, 1, 0)): d1 ** 2 * e2 + 2 * d1 * d2 * e1,
        (2, (2, 0, 1)): d1 ** 2 * e3 + 2 * d1 * d3 * e1,
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

def proportionality_residual(values, target) -> float:
    """Scale-free deviation of `values` from being proportional to `target`."""
    c = np.asarray(values, dtype=complex)
    t = np.asarray(target, dtype=complex)
    nc = float(np.vdot(c, c).real)
    nt = float(np.vdot(t, t).real)
    if nc <= 0.0:
        return 1.0
    return float(max(0.0, 1.0 - abs(np.vdot(t, c)) ** 2 / (nt * nc)))


def _target_vector(target: str) -> np.ndarray:
    if target not in TARGETS:
        raise ValueError(f"target must be one of {sorted(TARGETS)}")
    return np.array(TARGETS[target], dtype=complex)


def uncorrected_mismatch(case: int, target: str) -> float:
    """Residual of the raw case amplitudes against a target pattern."""
    if case not in CASE_AMPLITUDES:
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    return proportionality_residual(CASE_AMPLITUDES[case], TARGETS[target])


def _grid_residual(parts: list[np.ndarray], target: np.ndarray, fallback: float) -> np.ndarray:
    c = np.stack([np.asarray(p, dtype=complex) for p in parts])
    nc = (np.abs(c) ** 2).sum(axis=0)
    nt = float(np.vdot(target, target).real)
    ip = np.abs((target.conj()[:, None] * c.reshape(len(parts), -1)).sum(axis=0)) ** 2
    ip = ip.reshape(nc.shape)
    alive = nc > 1e-30
    r = np.full(nc.shape, fallback, dtype=float)
    np.divide(ip, nt * nc, out=ip, where=alive)
    r[alive] = np.clip(1.0 - ip[alive], 0.0, 1.0)
    return r


@dataclass
class FeasibilityReport:
    """Result of one feasibility scan, serializable as a flat record."""

    scheme: str
    parameters: dict
    best_residual: float
    best_params: dict
    verdict: str
    extras: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "scheme": self.scheme,
            "parameters": dict(self.parameters),
            "best_residual": self.best_residual,
            "best_params": dict(self.best_params),
            "verdict": self.verdict,
            "extras": dict(self.extras),
        }


def _verdict(best: float, tolerance: float) -> str:
    if best <= tolerance:
        return "feasible"
    if best > VERDICT_MARGIN:
        return "infeasible"
    return "inconclusive"


# -- the scan engine ---------------------------------------------------------

def _excluded(axis: np.ndarray, points: tuple[float, ...]) -> np.ndarray:
    mask = np.ones(axis.shape, dtype=bool)
    for p in points:
        mask &= np.abs(axis - p) > DEGENERATE_EXCLUSION
    return mask


def _refine_scan(kernel, domains, step, window, *, clip, exclude=(), fixed=None):
    """Grid scan of ``kernel`` over ``domains``, refined around the incumbent.

    Each of ``REFINE_ROUNDS`` rounds divides the step by ten and rescans
    ``window`` refined cells either side of the incumbent. With ``clip``
    the window is clipped to the domain before the grid is laid; otherwise
    the grid covers the whole window and points outside the domain, or
    within DEGENERATE_EXCLUSION of an ``exclude`` value, are dropped.
    ``fixed`` holds the values of a leading axis that is scanned but never
    refined.

    The last two axes are meshed into one slab and ``kernel(*lead, *slab)``
    is called once for each combination of leading-axis values. It returns
    ``(cost, *aux)`` arrays over the slab; ``aux`` is read at the minimum.

    Returns ``(best, history)``. ``best`` is ``(cost, point, aux)`` with the
    point ordered like the axes, fixed axis first; ``history`` holds one
    ``(step, best)`` pair for the coarse scan and one per round.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("grid_step must be finite and positive")
    lead_fixed = [] if fixed is None else [tuple(fixed)]
    # a refinement window spans at most 2 * window + 1 points per axis, so
    # the coarse grid bounds both budgets
    coarse = [max(0.0, (hi - lo) / step + 1.0) for lo, hi in domains]
    slab = math.prod(coarse[-2:])
    if slab > MAX_SLAB_POINTS:
        raise ValueError(f"a scan slab of {slab:.3g} grid points exceeds "
                         f"MAX_SLAB_POINTS = {MAX_SLAB_POINTS}; use a larger grid_step")
    total = (math.prod(coarse) + REFINE_ROUNDS * (2 * window + 1) ** len(domains)) \
        * math.prod(len(f) for f in lead_fixed)
    if total > MAX_SCAN_POINTS:
        raise ValueError(f"a scan of up to {total:.3g} grid points exceeds "
                         f"MAX_SCAN_POINTS = {MAX_SCAN_POINTS}; use a larger grid_step")

    def scan(windows, step):
        if clip:
            windows = [(max(lo, dlo), min(hi, dhi)) for (lo, hi), (dlo, dhi) in zip(windows, domains)]
        axes = []
        for (lo, hi), (dlo, dhi) in zip(windows, domains):
            ax = np.arange(lo, hi + step / 2, step)
            if not clip:
                ax = ax[(ax >= dlo) & (ax <= dhi) & _excluded(ax, exclude)]
            axes.append(ax)
        axes = lead_fixed + axes
        if not all(len(ax) for ax in axes):
            return None
        mesh = np.meshgrid(*axes[-2:], indexing="ij") if len(axes) > 1 else axes
        best = None
        for lead in itertools.product(*axes[:-2]):
            cost, *aux = kernel(*lead, *mesh)
            i = int(np.argmin(cost))
            value = float(cost.flat[i])
            if best is None or value < best[0]:
                point = (*lead, *(g.flat[i] for g in mesh))
                best = (value, tuple(map(float, point)), tuple(float(a.flat[i]) for a in aux))
        return best

    best = scan(domains, step)
    if best is None:
        raise ValueError("the coarse grid has no admissible point; use a smaller grid_step")
    history = [(step, best)]
    for _ in range(REFINE_ROUNDS):
        step /= 10.0
        center = best[1][len(lead_fixed):]
        refined = scan([(c - window * step, c + window * step) for c in center], step)
        if refined is not None and refined[0] < best[0]:
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
    """
    s, c = np.sin(x), np.cos(x)
    if case == 1:
        monos = (s, s * c, s * c ** 2)
    elif case == 3:
        monos = (-c, s ** 2 - c ** 2, 2 * s ** 2 * c - c ** 3)
    else:
        raise ValueError(f"only cases 1 and 3 have a one-splitter correction scan, got case {case}")
    return tuple(k * m for k, m in zip(CASE_AMPLITUDES[case], monos))


def single_bs_infeasibility(
    case: int,
    grid_step: float = 1e-2,
    *,
    target: str = "sign_flip",
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Certify (or refute) the one-splitter correction over angle x in (0, pi)."""
    tvec = _target_vector(target)
    fallback = uncorrected_mismatch(case, target)

    def kernel(xs):
        parts = [single_bs_corrected(case, xs)[i] for i in range(3)]
        return (_grid_residual(parts, tvec, fallback),)

    (residual, (x,), _), _ = _refine_scan(
        kernel, [(0.0, math.pi)], grid_step, 100,
        clip=False, exclude=(0.0, math.pi / 2, math.pi))
    return FeasibilityReport(
        scheme=f"single_bs:case{case}:{target}",
        parameters={
            "grid_step": grid_step,
            "tolerance": tolerance,
            "margin": VERDICT_MARGIN,
            "components": [0, 1, 2],
            "refine_rounds": REFINE_ROUNDS,
        },
        best_residual=residual,
        best_params={"x": x},
        verdict=_verdict(residual, tolerance),
        extras={"uncorrected_mismatch": fallback},
    )


# -- two-splitter correction -------------------------------------------------

def two_bs_corrected(x, y, phase: float = 0.0):
    """Corrected amplitude triple of the two-splitter scheme for case 3.

    The two angles enter through the product monomial family
    (sin x sin y, 2 sin x cos x sin y cos y, 3 sin x cos^2 x sin y cos^2 y);
    an optional phase shifter multiplies the k-photon component by
    e^{i k phase}.
    """
    coeff = CASE_AMPLITUDES[3]
    sx, cx, sy, cy = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
    monos = (sx * sy, 2 * sx * cx * sy * cy, 3 * sx * cx ** 2 * sy * cy ** 2)
    out = []
    for k, (co, m) in enumerate(zip(coeff, monos)):
        out.append(co * m * np.exp(1j * k * phase))
    return tuple(out)


def two_bs_feasibility(
    grid_step: float = 1e-2,
    *,
    target: str = "sign_flip",
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Scan the case-3 two-splitter correction over (x, y) and the phases
    ``TWO_BS_PHASES``; no other case has a two-splitter family."""
    tvec = _target_vector(target)
    fallback = uncorrected_mismatch(3, target)

    def kernel(phi, X, Y):
        return (_grid_residual(list(two_bs_corrected(X, Y, phi)), tvec, fallback),)

    (residual, (phase, x, y), _), _ = _refine_scan(
        kernel, [(0.0, math.pi)] * 2, grid_step, 100,
        clip=True, fixed=TWO_BS_PHASES)

    # constrained equal-angle slice
    ys = np.arange(0.0, math.pi + grid_step / 2, grid_step)
    slice_r = _grid_residual(list(two_bs_corrected(ys, ys, 0.0)), tvec, fallback)
    j = int(np.argmin(slice_r))

    return FeasibilityReport(
        scheme=f"two_bs:case3:{target}",
        parameters={
            "grid_step": grid_step,
            "tolerance": tolerance,
            "margin": VERDICT_MARGIN,
            "phases": list(TWO_BS_PHASES),
            "refine_rounds": REFINE_ROUNDS,
        },
        best_residual=residual,
        best_params={"x": x, "y": y, "phase": phase},
        verdict=_verdict(residual, tolerance),
        extras={
            "uncorrected_mismatch": fallback,
            "equal_angle_min_residual": float(slice_r[j]),
            "equal_angle_best_y": float(ys[j]),
        },
    )


# -- correction through a second sign-shift network ---------------------------

NS_IN_NS_PATTERNS = {1: ((2, 0), (0, 2), (1, 1)), 3: ((1, 0),)}

#: Coefficient triples entering the second-network proportionality systems.
#: Case 1 keeps the raw monomial weights of the survivors (1..3 photons);
#: case 3 uses the exact conditional amplitudes (0..2 photons).
_SECOND_GATE_INPUT = {
    1: (NS_V, NS_U * 2.0 ** 0.25, NS_U * NS_U * NS_V),
    3: CASE_AMPLITUDES[3],
}


def second_gate_coefficients(case: int, pattern: tuple[int, int], t1, t2, t3):
    """Monomial coefficients of the second network's detector outcome.

    For survivors carrying n photons plus the fresh ancilla photon, these
    are the coefficients of the monomial with n_detected photons removed;
    the simulator amplitude equals the coefficient times
    sqrt(prod(out!)*2)/sqrt(n!) (tests pin this conversion).
    """
    if case == 3 and pattern == (1, 0):
        return sign_shift_branch_amplitudes(t1, t2, t3)
    d, e = itertools.islice(general3_columns(t1, t2, t3), 2)
    d1, d2, d3 = d
    e1, e2, e3 = e
    if case == 1 and pattern == (2, 0):
        return (d2 * e2,
                d2 ** 2 * e1 + 2 * d1 * d2 * e2,
                3 * d1 * d2 ** 2 * e1 + 3 * d1 ** 2 * d2 * e2)
    if case == 1 and pattern == (0, 2):
        return (d3 * e3,
                d3 ** 2 * e1 + 2 * d1 * d3 * e3,
                3 * d1 * d3 ** 2 * e1 + 3 * d1 ** 2 * d3 * e3)
    if case == 1 and pattern == (1, 1):
        return (d2 * e3 + d3 * e2,
                2 * (d1 * d2 * e3 + d1 * d3 * e2 + d2 * d3 * e1),
                3 * d1 ** 2 * (d2 * e3 + d3 * e2) + 6 * d1 * d2 * d3 * e1)
    raise ValueError(f"unsupported case/pattern combination: case {case}, pattern {pattern}")


def ns_in_ns_products(case: int, pattern: tuple[int, int], t1, t2, t3):
    """Per-photon-count products (incoming coefficient x correction)."""
    coeffs = second_gate_coefficients(case, pattern, t1, t2, t3)
    incoming = _SECOND_GATE_INPUT[case]
    return tuple(i * c for i, c in zip(incoming, coeffs))


#: Parameters of the analytically known root family of the case-1
#: two-photons-on-detector-1 proportionality system: theta2 fixed, and
#: tan(theta3) * tan(theta1) a fixed ratio.
CANDIDATE_T2 = 2.466864691
CANDIDATE_TAN_RATIO = 0.6614985514


def candidate_root_family() -> list[tuple[float, float, float]]:
    """Sample the known solution family of the case-1 (2,0) system."""
    pts = []
    for t2 in (CANDIDATE_T2, -CANDIDATE_T2):
        for t1 in np.linspace(0.2, math.pi - 0.2, 21):
            tan = math.tan(t1)
            if abs(tan) < 1e-9:
                continue
            t3 = math.atan(CANDIDATE_TAN_RATIO / tan)
            pts.append((float(t1), float(t2), float(t3)))
    return pts


def ns_in_ns_feasibility(
    case: int,
    pattern: tuple[int, int],
    grid_step: float = 2e-2,
    *,
    target: str = "sign_flip",
    tolerance: float = 1e-6,
) -> FeasibilityReport:
    """Scan the second-network angle space for a working correction.

    ``pattern`` is the photon count on each of the second network's two
    detectors; ``NS_IN_NS_PATTERNS`` lists the supported ones per case.
    """
    pattern = tuple(pattern)
    if case not in NS_IN_NS_PATTERNS or pattern not in NS_IN_NS_PATTERNS[case]:
        raise ValueError(
            f"unknown pattern {pattern} for case {case}; "
            f"supported: {NS_IN_NS_PATTERNS}"
        )
    tvec = _target_vector(target)
    fallback = uncorrected_mismatch(case, target)

    def kernel(t1, t2, t3):
        return (_grid_residual(list(ns_in_ns_products(case, pattern, t1, t2, t3)), tvec, fallback),)

    (residual, angles, _), _ = _refine_scan(
        kernel, [(0.0, 2 * math.pi)] * 3, grid_step, 100, clip=False)

    extras = {"uncorrected_mismatch": fallback}
    if case == 1 and pattern == (2, 0):
        fam = candidate_root_family()
        fam_r = [proportionality_residual(ns_in_ns_products(case, pattern, *p), tvec) for p in fam]
        j = int(np.argmin(fam_r))
        extras["candidate_family_best_residual"] = float(fam_r[j])
        extras["candidate_family_best_angles"] = list(fam[j])
        if fam_r[j] < residual:
            residual, angles = float(fam_r[j]), fam[j]

    return FeasibilityReport(
        scheme=f"ns_in_ns:case{case}:{pattern[0]},{pattern[1]}:{target}",
        parameters={
            "grid_step": grid_step,
            "tolerance": tolerance,
            "margin": VERDICT_MARGIN,
            "refine_rounds": REFINE_ROUNDS,
        },
        best_residual=residual,
        best_params={"t1": angles[0], "t2": angles[1], "t3": angles[2]},
        verdict=_verdict(residual, tolerance),
        extras=extras,
    )


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
    proportionality constraint (penalty form on a refined grid, with a
    deterministic constrained polish from the incumbent).

    ``rounds`` holds the grid-only score of the coarse scan and of each
    refinement round; the polish is not part of it.
    """
    tvec = np.array(TARGETS["sign_flip"], dtype=complex)

    def kernel(t1, t2, t3):  # the engine minimizes, so the score enters negated
        a0, a1, a2 = sign_shift_branch_amplitudes(t1, t2, t3)
        prob = np.minimum(np.minimum(a0 ** 2, a1 ** 2), a2 ** 2)
        r = _grid_residual([a0, a1, a2], tvec, 1.0)
        return -(prob - RESIDUAL_PENALTY * r), prob, r

    (neg_score, angles, (prob, resid)), history = _refine_scan(
        kernel, [(0.0, math.pi)] * 3, grid_step, 10, clip=True)
    rounds = [{"round": n, "step": step, "score": -cost, "probability": aux[0], "residual": aux[1]}
              for n, (step, (cost, _, aux)) in enumerate(history)]

    polished = _polish_sign_flip(angles)
    if polished is not None:
        p_angles, p_prob, p_resid = polished
        if p_prob - RESIDUAL_PENALTY * p_resid >= -neg_score - 1e-12:
            angles, prob, resid = p_angles, p_prob, p_resid
    return OptimizationResult(
        angles=tuple(float(a) for a in angles),
        probability=float(prob),
        residual=float(resid),
        rounds=rounds,
        grid_step=grid_step,
    )


def _polish_sign_flip(angles) -> tuple[tuple[float, float, float], float, float] | None:
    """Drive the incumbent onto the proportionality manifold with SLSQP.

    Variables are the three angles plus the common branch amplitude s;
    maximizing s^2 under a0 = a1 = s, a2 = -s maximizes the worst-case
    branch probability exactly on the constraint manifold.
    """

    def split(x):
        return x[:3], x[3]

    def neg_obj(x):
        return -x[3] ** 2

    def c0(x):
        th, s = split(x)
        return sign_shift_branch_amplitudes(*th)[0] - s

    def c1(x):
        th, s = split(x)
        return sign_shift_branch_amplitudes(*th)[1] - s

    def c2(x):
        th, s = split(x)
        return sign_shift_branch_amplitudes(*th)[2] + s

    s0 = sign_shift_branch_amplitudes(*angles)[0]
    x0 = np.array([*angles, s0])
    res = minimize(
        neg_obj, x0, method="SLSQP",
        constraints=[{"type": "eq", "fun": f} for f in (c0, c1, c2)],
        options={"maxiter": 300, "ftol": 1e-14},
    )
    if not res.success:
        return None
    th = tuple(float(v) for v in res.x[:3])
    a = sign_shift_branch_amplitudes(*th)
    prob = float(min(v * v for v in a))
    resid = proportionality_residual(a, (1.0, 1.0, -1.0))
    return th, prob, resid
