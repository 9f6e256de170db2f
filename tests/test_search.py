import math
import re

import numpy as np
import pytest

from loqc import (
    CASE_AMPLITUDES,
    ElementSpec,
    FockState,
    closed_form_amplitudes,
    compose_elements,
    evolve,
    general3,
    ns_in_ns_feasibility,
    ns_matrix,
    optimize_success,
    parametrized_ns_amplitudes,
    proportionality_residual,
    single_bs_infeasibility,
    two_bs_feasibility,
)
from loqc import search
from loqc.search import (
    candidate_root_family,
    minimize,
    ns_in_ns_products,
    second_gate_coefficients,
    sign_shift_branch_amplitudes,
    single_bs_corrected,
    two_bs_corrected,
    uncorrected_mismatch,
)

SQ2 = math.sqrt(2)


# -- closed forms vs simulator ------------------------------------------------

def test_closed_forms_match_simulator_at_random_angles():
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(30):
        angles = tuple(rng.uniform(0, 2 * math.pi, 3))
        sim = parametrized_ns_amplitudes(angles)
        for key, val in closed_form_amplitudes(angles).items():
            worst = max(worst, abs(sim[key] - val))
    assert worst <= 1e-10


def _scalar_mismatches(form, *axes):
    """Points at which ``form`` evaluated on Python floats differs in any bit
    from the same point inside one array evaluation over ``axes``."""
    grid = [np.asarray(part) for part in form(*axes)]
    return sum(any(float(got).hex() != want.hex() for got, want in zip(form(*point), (part[i] for part in grid)))
               for i, point in enumerate(zip(*(axis.tolist() for axis in axes))))


def test_closed_forms_at_a_point_repeat_the_grid_bits():
    # numpy squares an array as x * x, but a float64 scalar with ** 2 through
    # C pow, which may differ in the last bit; a point's closed form must
    # read what a grid scan reads there
    rng = np.random.default_rng(52)
    t1, t2, t3 = rng.uniform(-math.pi, math.pi, (3, 4000))
    forms = [
        (lambda *t: tuple(closed_form_amplitudes(t).values()), t1, t2, t3),
        (lambda x: single_bs_corrected(1, x), t1),
        (lambda x: single_bs_corrected(3, x), t1),
        (two_bs_corrected, t1, t2),
        (lambda *t: second_gate_coefficients(1, (2, 0), *t), t1, t2, t3),
    ]
    assert [_scalar_mismatches(*form) for form in forms] == [0] * len(forms)


def test_heralded_amplitude_closed_form_instance():
    rng = np.random.default_rng(52)
    for _ in range(10):
        t1, t2, t3 = rng.uniform(0, 2 * math.pi, 3)
        want = math.sin(t1) * math.sin(t3) + math.cos(t1) * math.cos(t2) * math.cos(t3)
        assert closed_form_amplitudes((t1, t2, t3))[(0, (0, 1, 0))] == pytest.approx(want)


def test_heralded_amplitudes_at_network_angles():
    table = closed_form_amplitudes((math.radians(22.5), math.radians(65.53), math.radians(22.5)))
    assert table[(0, (0, 1, 0))] == pytest.approx(0.5, abs=2e-3)
    assert table[(1, (1, 1, 0))] == pytest.approx(0.5, abs=2e-3)
    assert table[(2, (2, 1, 0))] == pytest.approx(-0.5, abs=2e-3)


# magnitude/square value pairs at two pinned evaluation points (printed to
# ten digits; sets ignore an overall sign convention)
_POINT_A = (3.2, math.pi * 60 / 180, 3.2)
_PINS_A = {
    (0, (1, 0, 0)): (0.8645486365, 0.7474443444),
    (1, (2, 0, 0)): (0.6113282036, 0.3737221725),
    (2, (3, 0, 0)): (0.3743605410, 0.1401458147),
    (0, (0, 1, 0)): (0.5017037703, 0.2517066731),
    (1, (1, 1, 0)): (0.4965924595, 0.2466040708),
    (2, (2, 1, 0)): (0.6220184020, 0.3869068924),
    (0, (0, 0, 1)): (0.02913730122, 0.0008489823224),
    (1, (1, 0, 1)): (0.05827460244, 0.003395929290),
    (2, (2, 0, 1)): (0.05099027712, 0.002600008361),
}
_POINT_B = (0.09, math.pi * 80 / 180, 0.09)
_PINS_B = {
    (0, (1, 0, 0)): (0.9808219732, 0.9620117431),
    (1, (2, 0, 0)): (0.2408659518, 0.05801640676),
    (2, (3, 0, 0)): (0.05122609757, 0.002624113071),
    (0, (0, 1, 0)): (0.1803235743, 0.03251659145),
    (1, (1, 1, 0)): (0.9306988831, 0.8662004110),
    (2, (2, 1, 0)): (0.3286657504, 0.1080211755),
}


@pytest.mark.parametrize("point,pins", [(_POINT_A, _PINS_A), (_POINT_B, _PINS_B)])
def test_pinned_outcome_amplitude_magnitudes(point, pins):
    table = closed_form_amplitudes(point)
    for key, pair in pins.items():
        got = sorted((abs(table[key]), table[key] ** 2))
        want = sorted(pair)
        assert got == pytest.approx(want, abs=5e-9)


def test_zero_middle_angle_kills_port1_mixing():
    table = closed_form_amplitudes((1.0, 0.0, 2.0))
    assert table[(0, (1, 0, 0))] == 0.0
    assert table[(1, (2, 0, 0))] == 0.0
    assert table[(2, (3, 0, 0))] == 0.0


# -- case coefficient triples ---------------------------------------------------

def test_case1_coefficients():
    vals = CASE_AMPLITUDES[1]
    assert vals[0] == pytest.approx(0.8408964155, abs=1e-9)
    assert vals[1] == pytest.approx(-0.6966213991, abs=1e-9)
    assert vals[2] == pytest.approx(0.2498916572, abs=1e-9)


def test_case2_is_the_heralded_branch():
    assert CASE_AMPLITUDES[2] == (0.5, 0.5, -0.5)


def test_case3_matches_rounded_values():
    vals = CASE_AMPLITUDES[3]
    for got, want in zip(vals, (-0.21, 0.38, -0.28)):
        assert got == pytest.approx(want, abs=5e-3)


def test_case3_values_are_the_conditional_amplitudes():
    # independent route: evolve each photon level through the network
    from loqc import DetectionPattern, ns_matrix, postselect

    for k, want in enumerate(CASE_AMPLITUDES[3]):
        out = evolve(FockState.from_occupation([k, 1, 0]), ns_matrix())
        res = postselect(out, DetectionPattern({1: 0, 2: 1}))
        assert res.conditional_state.amplitude([k]) * math.sqrt(res.probability) == pytest.approx(
            want, abs=1e-9
        )


def test_invalid_case_id():
    with pytest.raises(ValueError, match="case"):
        single_bs_infeasibility(4, 0.5)


# -- one-splitter scan ------------------------------------------------------------

def _one_splitter_triple(case, x):
    """The simulated amplitude triple of the one-splitter scheme: the
    sign-shift core on modes (0, 1, 2), then the block [[cos x, sin x],
    [sin x, -cos x]] on the signal and port mode 3, which starts with
    (case 3) or without (case 1) a photon and must end with one."""
    c, s = math.cos(x), math.sin(x)
    network = compose_elements([ElementSpec.raw((0, 1, 2), ns_matrix()),
                                ElementSpec.raw((0, 3), np.array([[c, s], [s, -c]]))], 4)
    port, out = {1: (0, (0, 0, 1)), 3: (1, (0, 1, 1))}[case]
    return np.array([evolve(FockState.from_occupation((k, 1, 0, port)), network).amplitude((k, *out))
                     for k in range(3)])


@pytest.mark.parametrize("case", [
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="the case-1 closed form is the simulated triple over (1, 1, sqrt 3): "
                            "CASE_AMPLITUDES[1] leaves out the three-photon path weight")),
    3,
])
def test_one_splitter_closed_form_is_the_simulated_scheme(case):
    # end to end: the closed-form triple equals the simulated one up to
    # one common factor per angle
    worst = 0.0
    for x in np.random.default_rng(53).uniform(0.0, math.pi, 200):
        sim, closed = _one_splitter_triple(case, x), np.array(single_bs_corrected(case, x))
        factor = sim @ closed / (closed @ closed)
        worst = max(worst, np.abs(sim - factor * closed).max())
    assert worst <= 1e-12

@pytest.mark.parametrize("case", [1, 3])
@pytest.mark.parametrize("target", ["sign_flip", "restore"])
def test_single_splitter_correction_is_infeasible(case, target):
    report = single_bs_infeasibility(case, 2e-2, target=target)
    assert report.verdict == "infeasible"
    assert report.best_residual > 1e-3


def test_single_splitter_verdict_stable_under_grid_halving():
    a = single_bs_infeasibility(1, 2e-2)
    b = single_bs_infeasibility(1, 1e-2)
    assert a.verdict == b.verdict == "infeasible"
    assert a.best_residual == pytest.approx(b.best_residual, abs=1e-4)


def test_case1_pairwise_equations_have_no_interior_roots():
    # the one- and two-photon corrected amplitudes never cross away from
    # the degenerate angles (their nontrivial roots are complex)
    xs = np.linspace(1e-3, math.pi - 1e-3, 20001)
    a, b, c = single_bs_corrected(1, xs)
    assert (a - b).min() > 0.0
    assert np.abs(a + c).min() > 0.0  # sign-flip pairing of levels 0 and 2
    assert np.abs(a - c).min() > 0.0  # restore pairing


def test_scan_reports_are_deterministic():
    a = single_bs_infeasibility(3, 1e-2)
    b = single_bs_infeasibility(3, 1e-2)
    assert a == b


# -- two-splitter scan --------------------------------------------------------------

def test_equal_angle_slice_closed_forms():
    for y in np.linspace(0.2, 3.0, 9):
        d, e, f = (z.real for z in two_bs_corrected(y, y))
        s, c = math.sin(y), math.cos(y)
        assert d == pytest.approx(-0.2071067810 * s ** 2, abs=1e-8)
        assert e == pytest.approx(0.7573593114 * s ** 2 * c ** 2, abs=1e-8)
        assert f == pytest.approx(-0.834523777 * s ** 2 * c ** 4, abs=1e-8)


def test_switched_off_splitters_apply_no_correction():
    assert all(v == 0 for v in two_bs_corrected(0.0, 1.0))
    assert all(v == 0 for v in two_bs_corrected(1.0, 0.0))
    want = proportionality_residual(CASE_AMPLITUDES[3], (1, 1, -1))
    assert uncorrected_mismatch(3, "sign_flip") == pytest.approx(want)


def test_two_splitter_scan_reports_residual_surface_minimum():
    report = two_bs_feasibility(2e-2)
    assert report.verdict in ("feasible", "infeasible", "inconclusive")
    assert 0.0 <= report.best_residual <= report.extras["uncorrected_mismatch"]
    assert "equal_angle_min_residual" in report.extras
    assert report.extras["equal_angle_min_residual"] >= report.best_residual - 1e-12
    assert report.parameters["grid_step"] == 2e-2


# -- correction through a second network ------------------------------------------------

_CASE_INPUT_LEVELS = {1: (1, 2, 3)}


@pytest.mark.parametrize("case,pattern", [(1, (2, 0))])   # the one table the scan reads
def test_second_gate_coefficients_match_simulator(case, pattern):
    rng = np.random.default_rng(53)
    p2, p3 = pattern
    for _ in range(20):
        angles = tuple(rng.uniform(0, 2 * math.pi, 3))
        coeffs = second_gate_coefficients(case, pattern, *angles)
        transform = general3(*angles)
        for n, coeff in zip(_CASE_INPUT_LEVELS[case], coeffs):
            out = evolve(FockState.from_occupation((n, 1, 0)), transform, prune_tol=0.0)
            surviving = n + 1 - p2 - p3
            amp = out.amplitude((surviving, p2, p3))
            conv = math.sqrt(
                math.factorial(surviving) * math.factorial(p2) * math.factorial(p3)
                / math.factorial(n)
            )
            assert abs(amp - coeff * conv) < 1e-9


def test_candidate_family_solves_the_proportionality_system():
    worst = 0.0
    for angles in candidate_root_family():
        products = ns_in_ns_products(1, (2, 0), *angles)
        worst = max(worst, proportionality_residual(products, (1, 1, -1)))
    assert worst <= 1e-9


def test_identity_angles_fall_back_to_uncorrected_mismatch():
    products = ns_in_ns_products(1, (2, 0), 0.0, 0.0, 0.0)
    assert all(p == 0 for p in products)
    assert proportionality_residual(products, (1, 1, -1)) == 1.0


def test_residual_is_elementwise_over_broadcast_components():
    xs, ys = np.ix_(np.linspace(0.0, math.pi, 7), np.linspace(0.0, math.pi, 5))
    parts = two_bs_corrected(xs, ys)
    grid = proportionality_residual(parts, (1, 1, -1), fallback=0.5)
    assert grid.shape == (7, 5)
    assert grid[0, 0] == 0.5  # x = y = 0 kills every component
    for i, j in np.ndindex(grid.shape):
        point = [np.broadcast_to(p, grid.shape)[i, j] for p in parts]
        assert grid[i, j] == proportionality_residual(point, (1, 1, -1), 0.5)


def test_residual_rejects_complex_input():
    for values in ((1.0, 1j, 0.0), np.ones((3, 4), dtype=complex)):
        with pytest.raises(ValueError, match="real"):
            proportionality_residual(values, (1, 1, -1))


@pytest.mark.parametrize("values,target,message", [
    ((1.0, 2.0), (1.0, 1.0, -1.0), "components"),   # zip would drop the third target entry
    ((1.0, 2.0, 3.0), (0.0, 0.0, 0.0), "nonzero"),  # every ratio would be 0/0
])
def test_residual_rejects_mismatched_or_zero_targets(values, target, message):
    with pytest.raises(ValueError, match=message):
        proportionality_residual(values, target)


def test_two_splitter_phase_pi_moves_onto_the_target():
    # the kernel scores phase pi, which negates the one-photon component,
    # against the target with its middle entry negated; bit for bit the same
    xs, ys = np.ix_(np.linspace(0.0, math.pi, 41), np.linspace(0.0, math.pi, 37))
    c0, c1, c2 = two_bs_corrected(xs, ys)
    fallback = uncorrected_mismatch(3, "sign_flip")
    moved = proportionality_residual((c0, c1, c2), (1, -1, -1), fallback)
    negated = proportionality_residual((c0, -c1, c2), (1, 1, -1), fallback)
    assert moved.shape == (41, 37)
    assert moved.tobytes() == negated.tobytes()


def test_two_axis_kernels_receive_broadcast_axes(monkeypatch):
    shapes = []

    def recording(case, pattern, t1, t2, t3):
        shapes.append(tuple(map(np.shape, (t1, t2, t3))))
        return ns_in_ns_products(case, pattern, t1, t2, t3)

    monkeypatch.setattr(search, "ns_in_ns_products", recording)
    ns_in_ns_feasibility(0.5)
    blocks = [s for s in shapes if s != ((), (), ())]  # the root family is sampled point by point
    assert blocks
    for lead, rows, cols in blocks:
        (k, _, _), (_, n, _), (_, _, m) = lead, rows, cols
        assert (lead, rows, cols) == ((k, 1, 1), (1, n, 1), (1, 1, m))  # never a meshgrid
        assert k * n * m <= max(search.SCAN_BLOCK_POINTS, n * m)
    assert any(lead[0] > 1 for lead, _, _ in blocks)  # the coarse grid goes in one call


def _recorded_scans(monkeypatch, run):
    """``(kernel, args, kwargs, result)`` of every ``_refine_scan`` call
    ``run`` makes."""
    calls = []
    engine = search._refine_scan

    def recording(kernel, *args, **kwargs):
        result = engine(kernel, *args, **kwargs)
        calls.append((kernel, args, kwargs, result))
        return result

    monkeypatch.setattr(search, "_refine_scan", recording)
    run()
    monkeypatch.setattr(search, "_refine_scan", engine)
    return calls


def _hex(value):
    return value.hex() if isinstance(value, float) else tuple(map(_hex, value))


@pytest.mark.parametrize("run,step", [
    (lambda step: single_bs_infeasibility(1, step), 1e-2),
    (lambda step: single_bs_infeasibility(3, step), 0.0493),
    (two_bs_feasibility, 0.1),
    (two_bs_feasibility, 0.0507),
    (ns_in_ns_feasibility, 1.0),
    (ns_in_ns_feasibility, 0.5),
    (optimize_success, 0.2),
    (optimize_success, 0.05),
], ids=["single_bs-1e-2", "single_bs-0.0493", "two_bs-0.1", "two_bs-0.0507",
        "ns_in_ns-1.0", "ns_in_ns-0.5", "optimize_ns-0.2", "optimize_ns-0.05"])
def test_block_size_moves_no_scan_bit(monkeypatch, run, step):
    ((kernel, args, kwargs, default),) = _recorded_scans(monkeypatch, lambda: run(step))
    partial = []

    def recording(first, *rest):
        per = max(1, search.SCAN_BLOCK_POINTS // math.prod(r.size for r in rest))
        partial.append(len(first) < per)
        return kernel(first, *rest)

    # the default block against one first-axis value per call and against
    # 1000 points, whose last block on each coarse grid here holds fewer
    # first-axis values than a full one
    for block in (1, 1000):
        monkeypatch.setattr(search, "SCAN_BLOCK_POINTS", block)
        assert _hex(search._refine_scan(recording, *args, **kwargs)) == _hex(default)
    assert any(partial)


def _two_bs_reference(xs, ys):
    """The ``two_bs`` kernel's cost and phase from unbuffered calls."""
    fallback = uncorrected_mismatch(3, "sign_flip")
    r0, r1 = (proportionality_residual(two_bs_corrected(xs, ys), t, fallback)
              for t in ((1.0, 1.0, -1.0), (1.0, -1.0, -1.0)))
    return np.minimum(r0, r1), np.where(r1 < r0, math.pi, 0.0)


def _optimize_ns_reference(t1, t2, t3):
    """The ``optimize_ns`` kernel as one expression over fresh arrays."""
    amps = sign_shift_branch_amplitudes(t1, t2, t3)
    sq0, sq1, sq2 = (a * a for a in amps)
    prob = np.minimum(np.minimum(sq0, sq1), sq2)
    nc = sq0 + sq1 + sq2
    r = search._residual(search._inner((1.0, 1.0, -1.0), amps), 3.0 * nc, nc > 0.0, 1.0)
    return -(prob - r), prob, r


def _random_blocks(rng, dims, per):
    """Broadcast axes over [0, pi], each with its 0 value, cut into blocks of
    ``per`` first-axis values; the last block holds fewer."""
    first, *rest = np.ix_(*(np.sort(np.append(rng.uniform(0.0, math.pi, n - 1), 0.0)) for n in dims))
    return [(first[lo:lo + per], *rest) for lo in range(0, len(first), per)]


@pytest.mark.parametrize("run,reference,dims", [
    (lambda: two_bs_feasibility(0.1), _two_bs_reference, (123, 97)),
    (lambda: optimize_success(0.2), _optimize_ns_reference, (23, 17, 19)),
], ids=["two_bs", "optimize_ns"])
def test_buffered_kernels_repeat_the_unbuffered_bits(monkeypatch, run, reference, dims):
    ((kernel, *_),) = _recorded_scans(monkeypatch, run)
    blocks = _random_blocks(np.random.default_rng(38), dims, 10)
    assert len(blocks[-1][0]) < len(blocks[0][0])
    for axes in blocks:
        got, want = ([(a.shape, a.tobytes()) for a in arrays] for arrays in (kernel(*axes), reference(*axes)))
        assert got == want
    if len(dims) == 2:  # every corrected amplitude vanishes at x = 0 and at y = 0
        cost = kernel(*blocks[0])[0]
        assert set(cost[0]) | set(cost[:, 0]) == {uncorrected_mismatch(3, "sign_flip")}


@pytest.mark.parametrize("scan", [two_bs_feasibility, optimize_success], ids=["two_bs", "optimize_ns"])
def test_scan_kernels_keep_their_buffers_for_one_scan(monkeypatch, scan):
    engine, costs = search._refine_scan, []

    def recording(kernel, *args, **kwargs):
        def spy(*axes):
            result = kernel(*axes)
            costs[-1].append(result[0])
            return result
        return engine(spy, *args, **kwargs)

    monkeypatch.setattr(search, "_refine_scan", recording)
    for _ in range(2):
        costs.append([])
        scan(0.2)
    first, second = costs
    assert len(first) > 1
    for calls in costs:
        assert all(np.shares_memory(calls[0], cost) for cost in calls[1:])
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_second_network_scan_finds_the_family():
    report = ns_in_ns_feasibility(0.1)
    assert report.verdict == "feasible"
    assert report.extras["candidate_family_best_residual"] <= 1e-9
    # the derived second angle, against its value printed to 10 digits
    assert abs(abs(report.extras["candidate_family_best_angles"][1]) - 2.466864691) < 1e-9


def test_unknown_pattern_is_rejected():
    with pytest.raises(ValueError, match="pattern"):
        second_gate_coefficients(1, (3, 0), 0.1, 0.2, 0.3)


@pytest.mark.parametrize("scan", [
    lambda: single_bs_infeasibility(1, 0.5, target="nope"),
], ids=["single_bs"])
def test_unknown_target_is_rejected(scan):
    with pytest.raises(ValueError, match="target must be one of"):
        scan()


@pytest.mark.parametrize("call,message", [
    (lambda: single_bs_infeasibility(1, grid_step=-1), "grid_step must be finite and positive"),
    (lambda: single_bs_corrected(2, 0.3), "only cases 1 and 3 have a one-splitter correction scan, got case 2"),
], ids=["negative-step", "case-2"])
def test_search_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


#: (scan, domain width, steps below the width in the sweep) for each of the
#: five scans; ns_in_ns refines 201^3 points a round at any step, so it is
#: swept at one.
SCANS = [
    pytest.param(lambda step: single_bs_infeasibility(1, step), math.pi, 12, id="single_bs:case1"),
    pytest.param(lambda step: single_bs_infeasibility(3, step), math.pi, 12, id="single_bs:case3"),
    pytest.param(two_bs_feasibility, math.pi, 12, id="two_bs:case3"),
    pytest.param(ns_in_ns_feasibility, 2 * math.pi, 1, id="ns_in_ns:case1"),
    pytest.param(optimize_success, math.pi, 12, id="optimize_ns"),
]


@pytest.mark.parametrize("scan,width,_", SCANS)
def test_a_step_wider_than_the_domain_is_refused_before_any_kernel_call(monkeypatch, scan, width, _):
    engine = search._refine_scan

    def kernel(*axes):
        raise AssertionError("kernel called")

    monkeypatch.setattr(search, "_refine_scan", lambda _kernel, *args, **kwargs: engine(kernel, *args, **kwargs))
    with pytest.raises(ValueError, match=re.escape(f"grid_step {math.nextafter(width, math.inf)!r} is wider")):
        scan(math.nextafter(width, math.inf))
    with pytest.raises(AssertionError, match="kernel called"):  # a step equal to the width is admitted
        scan(width)


@pytest.mark.parametrize("scan,width,count", SCANS)
def test_every_admitted_step_lays_a_point_on_every_axis(monkeypatch, scan, width, count):
    # geometric steps from width / 20, then the double just below the width
    # and the width itself: every grid the engine lays, coarse or refined,
    # clipped or filtered, holds a point of the domain on each axis, so each
    # of its kernel calls gets non-empty axes
    laid, calls = [], []
    ix, engine = np.ix_, search._refine_scan

    def recording_ix(*axes):
        laid.append([len(ax) for ax in axes])
        return ix(*axes)

    def instrumented(kernel, *args, **kwargs):
        def recording(*axes):
            calls.append([ax.size for ax in axes])
            return kernel(*axes)
        return engine(recording, *args, **kwargs)

    monkeypatch.setattr(np, "ix_", recording_ix)
    monkeypatch.setattr(search, "_refine_scan", instrumented)
    steps = [*np.geomspace(width / 20, width, count + 1)[:-1].tolist(), math.nextafter(width, 0.0), width]
    refused = 0
    for step in steps:
        try:
            scan(step)
        except ValueError as exc:  # single_bs, where every coarse point is excluded
            assert "no admissible point" in str(exc) and laid[-1] == [2]
            refused += 1
    assert len(laid) == (1 + search.REFINE_ROUNDS) * (len(steps) - refused) + refused
    assert min(map(min, laid)) >= 1 and min(map(min, calls)) >= 1


def test_no_grid_step_escapes_as_anything_but_a_value_error():
    # steps m * 10^k from 100 up, and 1e307: each is wider than every
    # scan's domain (pi, or 2 pi for ns_in_ns), so the engine refuses it
    # with a ValueError before it checks a budget or lays a grid
    scans = [lambda step: single_bs_infeasibility(1, step), lambda step: single_bs_infeasibility(3, step),
             two_bs_feasibility, ns_in_ns_feasibility, optimize_success]
    for scan in scans:
        for step in [float(f"{m}e{k}") for k in range(2, 40) for m in (1, 2, 3, 5, 7)] + [1e307]:
            try:
                scan(step)
            except ValueError:
                pass


def test_engine_rejects_a_grid_it_never_admits():
    def kernel(xs, ys):
        return (np.full(np.broadcast_shapes(xs.shape, ys.shape), math.inf),)

    with pytest.raises(ValueError, match="no admissible point"):
        search._refine_scan(kernel, [(0.0, 1.0)] * 2, 0.5, 10, clip=True)


# -- optimization -------------------------------------------------------------------------

def test_branch_amplitudes_match_closed_form_table():
    rng = np.random.default_rng(54)
    for _ in range(10):
        angles = tuple(rng.uniform(0, 2 * math.pi, 3))
        a0, a1, a2 = sign_shift_branch_amplitudes(*angles)
        table = closed_form_amplitudes(angles)
        assert a0 == pytest.approx(table[(0, (0, 1, 0))])
        assert a1 == pytest.approx(table[(1, (1, 1, 0))])
        assert a2 == pytest.approx(table[(2, (2, 1, 0))])


def test_optimizer_is_deterministic():
    a = optimize_success(grid_step=0.2)
    b = optimize_success(grid_step=0.2)
    assert a.to_record() == b.to_record()


def test_refinement_scores_never_decrease():
    result = optimize_success(grid_step=0.1)
    scores = [r["score"] for r in result.rounds]
    assert scores == sorted(scores)


def test_coarse_grid_achieves_less_than_refined_search():
    # ``rounds`` holds grid-only scores: the coarse scan, then each refinement
    rounds = optimize_success(grid_step=0.5).rounds
    assert rounds[0]["score"] < rounds[-1]["score"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", (0.05, 0.0493, 0.0507, 0.1, 0.2, 0.25, 0.33, 0.45, 0.55, 0.7, 1.5, 3.1))
def test_polish_reaches_the_quarter_point(step):
    result = optimize_success(grid_step=step)
    assert result.probability == pytest.approx(0.25, abs=1e-12)
    assert result.residual <= 1e-12
    assert all(-math.pi <= t <= 2 * math.pi for t in result.angles)
    # the closed-form optimum: cos t2 = |tan t1| = |tan t3| = sqrt(2) - 1
    t1, t2, t3 = result.angles
    for value in (math.cos(t2), abs(math.tan(t1)), abs(math.tan(t3))):
        assert value == pytest.approx(SQ2 - 1, abs=1e-9)


def _optimize_ns_score(monkeypatch):
    """The score ``optimize_success`` maximizes, read from its scan kernel."""
    ((kernel, *_),) = _recorded_scans(monkeypatch, lambda: optimize_success(grid_step=1.5))
    return lambda *angles: -kernel(*angles)[0]


def test_no_optimize_ns_score_exceeds_the_proved_maximum(monkeypatch):
    # the family's maximum is 1/4 (``minimize``'s docstring); the penalty
    # only lowers the score off the constraint manifold
    score = _optimize_ns_score(monkeypatch)
    axis = np.arange(0.0, math.pi + 0.025, 0.05)
    assert np.max(score(*np.ix_(axis, axis, axis))) <= 0.25 + 1e-12
    rng = np.random.default_rng(57)
    for _ in range(10):
        assert np.max(score(*rng.uniform(0.0, 2 * math.pi, (3, 10**5)))) <= 0.25 + 1e-12


def test_minimize_returns_the_nearest_proved_maximizer():
    acos = math.acos(SQ2 - 1)
    # every maximizer within two periods of [0, pi]^3
    maximizers = [(c + j * math.pi, s + 2 * k * math.pi, c + l * math.pi)
                  for c in (math.pi / 8, 7 * math.pi / 8) for s in (acos, -acos)
                  for j in range(-2, 3) for k in range(-2, 3) for l in range(-2, 3)]
    rng = np.random.default_rng(58)
    for angles in rng.uniform(0.0, math.pi, (200, 3)):
        polish = minimize(angles)
        assert polish.success
        t1, t2, t3 = polish.x
        for value in (math.cos(t2), abs(math.tan(t1)), abs(math.tan(t3))):
            assert value == pytest.approx(SQ2 - 1, abs=1e-12)
        assert math.tan(t1) * math.tan(t3) > 0
        nearest = min(math.dist(angles, x) for x in maximizers)
        assert math.dist(angles, polish.x) <= nearest + 1e-12
    # ties go to pi/8 first, then to +acos
    assert minimize((0.0, 0.0, 0.0)).x == (math.pi / 8, acos, math.pi / 8)
