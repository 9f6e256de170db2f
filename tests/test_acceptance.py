"""Acceptance suite: one test per release criterion, each printing a
pass line and holding its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import itertools
import math
import time

import numpy as np
import pytest

from loqc import (
    Encoding,
    FockState,
    ModeTransform,
    beam_splitter,
    closed_form_amplitudes,
    decode,
    dual_rail_apply,
    embed,
    encode,
    evolve,
    general3,
    logical_fidelity,
    ns_gate,
    cs_gate,
    two_photon_cnot,
    two_photon_cnot_matrix,
    optimize_success,
    parametrized_ns_amplitudes,
    permanent_amplitude,
    phase_shifter,
    single_bs_infeasibility,
    zy_decompose,
)
from loqc.multiport import ElementSpec, ns_matrix

from helpers import random_state, random_unitary
from test_gates import _expected_output_groups

SQ2 = math.sqrt(2)


class budget:
    """Context manager asserting a runtime budget and printing a pass line."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget {self.seconds}s"
            print(f"[PASS] {self.name} ({elapsed:.2f}s)")
        else:
            print(f"[FAIL] {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_01_ns_gate_probability_and_amplitudes():
    with budget("criterion 1: sign-shift branch probability 1/4, amplitudes (+1/2,+1/2,-1/2)", 1.0):
        gate = ns_gate()
        for k, want in [(0, 0.5), (1, 0.5), (2, -0.5)]:
            [outcome] = gate.run(FockState.from_occupation([k]))
            assert outcome.probability == pytest.approx(0.25, abs=1e-9)
            unnormalized = outcome.conditional_state.amplitude([k]) * math.sqrt(outcome.probability)
            assert unnormalized == pytest.approx(want, abs=1e-9)
        rng = np.random.default_rng(101)
        flip = np.diag([1.0, 1.0, -1.0])
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            signal = FockState(1, {(k,): a for k, a in enumerate(v)})
            [outcome] = gate.run(signal)
            assert outcome.probability == pytest.approx(0.25, abs=1e-9)
            got = np.array([outcome.conditional_state.amplitude([k]) for k in range(3)])
            assert logical_fidelity(got, flip @ v) >= 1 - 1e-9


def test_criterion_02_cs_gate_probability_and_phase_pattern():
    with budget("criterion 2: conditional sign flip succeeds with 1/16 and phase (1,1,1,-1)", 1.0):
        gate = cs_gate()
        enc = Encoding("dual_rail", 2)
        phases = []
        for bits in ("00", "01", "10", "11"):
            [outcome] = gate.run(encode(bits, enc))
            assert outcome.probability == pytest.approx(1 / 16, abs=1e-9)
            vec, leakage = decode(outcome.conditional_state, enc)
            assert leakage < 1e-9
            phases.append(vec[int(bits, 2)])
        rel = np.array(phases) / phases[0]  # global phase removed
        assert np.abs(rel - np.array([1, 1, 1, -1])).max() < 1e-9


def test_criterion_03_two_photon_cnot():
    with budget("criterion 3: two-photon CNOT matrix, output coefficients, 1/9 coincidence", 1.0):
        m = two_photon_cnot_matrix().matrix
        assert np.abs(m.conj().T @ m - np.eye(6)).max() <= 1e-12

        rng = np.random.default_rng(103)
        gate = two_photon_cnot()
        enc = Encoding("polarization", 2)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            al, be, ga, de = v
            inp = FockState(6, {
                (1, 0, 1, 0, 0, 0): al, (1, 0, 0, 1, 0, 0): be,
                (0, 1, 1, 0, 0, 0): ga, (0, 1, 0, 1, 0, 0): de,
            })
            out = evolve(inp, two_photon_cnot_matrix(), prune_tol=0.0)
            for occ, want in _expected_output_groups(al, be, ga, de).items():
                assert out.amplitude(occ) == pytest.approx(want, abs=1e-9)

            [outcome] = gate.run(encode(v, enc))
            vec, leakage = decode(outcome.conditional_state, enc)
            assert outcome.probability * (1 - leakage) == pytest.approx(1 / 9, abs=1e-9)

        for bits, want in [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")]:
            [outcome] = gate.run(encode(bits, enc))
            vec, _ = decode(outcome.conditional_state, enc)
            assert abs(vec[int(want, 2)]) == pytest.approx(1.0, abs=1e-12)


# squared amplitudes of every detector outcome of the standard network,
# keyed by (n1, n2, n3), as printed to ten digits in the reference tables
_REGRESSION_TABLES = {
    0: {(1, 0, 0): 0.7071067816, (0, 1, 0): 0.2500000000, (0, 0, 1): 0.04289321874},
    1: {
        (2, 0, 0): 0.2426406868, (1, 1, 0): 0.2500000000, (1, 0, 1): 0.1433982819,
        (0, 2, 0): 0.3535533908, (0, 1, 1): 0.0, (0, 0, 2): 0.01040764001,
    },
    2: {
        (0, 1, 2): 0.003679656346, (1, 1, 1): 0.1213203433, (2, 1, 0): 0.2500000000,
        (2, 0, 1): 0.07738110336, (0, 2, 1): 0.02144660920, (0, 0, 3): 0.001893987729,
        (1, 2, 0): 0.06066017190, (1, 0, 2): 0.02617228614, (0, 3, 0): 0.3749999997,
        (3, 0, 0): 0.06244584072,
    },
}
_REGRESSION_TOTALS = {0: 1.0000000000, 1: 0.9999999995, 2: 0.9999999983}


def test_criterion_04_full_outcome_distribution_regression():
    with budget("criterion 4: full outcome tables for k=0,1,2 reproduce printed values", 1.0):
        for k, table in _REGRESSION_TABLES.items():
            out = evolve(FockState.from_occupation([k, 1, 0]), ns_matrix(), prune_tol=0.0)
            for occ, want in table.items():
                assert abs(out.amplitude(occ)) ** 2 == pytest.approx(want, abs=1e-6)
            total = sum(abs(a) ** 2 for _, a in out.terms())
            assert total == pytest.approx(_REGRESSION_TOTALS[k], abs=1e-6)


def test_criterion_05_permanent_oracle_equivalence():
    with budget("criterion 5: evolve agrees with the permanent oracle everywhere", 10.0):
        rng = np.random.default_rng(105)
        worst = 0.0
        plan = [(1, 8), (2, 17), (3, 25)]  # (modes, unitaries) summing to 50
        for num_modes, num_unitaries in plan:
            occs = [
                occ
                for total in range(4)
                for occ in itertools.product(range(4), repeat=num_modes)
                if sum(occ) == total
            ]
            for _ in range(num_unitaries):
                t = ModeTransform(random_unitary(rng, num_modes))
                for inp in occs:
                    out = evolve(FockState.from_occupation(inp), t, prune_tol=0.0)
                    for outp in occs:
                        if sum(outp) != sum(inp):
                            continue
                        dev = abs(out.amplitude(outp) - permanent_amplitude(inp, outp, t))
                        worst = max(worst, dev)
        assert worst <= 1e-10


def test_criterion_06_closed_forms_and_printed_angles():
    with budget("criterion 6: closed forms vs simulator; printed angles vs exact matrix", 5.0):
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(100):
            angles = tuple(rng.uniform(0, 2 * math.pi, 3))
            sim = parametrized_ns_amplitudes(angles)
            for key, val in closed_form_amplitudes(angles).items():
                worst = max(worst, abs(sim[key] - val))
        assert worst <= 1e-10
        printed = general3(math.radians(22.5), math.radians(65.53), math.radians(22.5))
        assert np.abs(printed.matrix - ns_matrix().matrix).max() <= 2e-3


def test_criterion_07_single_splitter_postcorrection_is_infeasible():
    with budget("criterion 7: one-splitter correction infeasible for cases 1 and 3", 30.0):
        for case in (1, 3):
            for target in ("sign_flip", "restore"):
                full = single_bs_infeasibility(case, 1e-2, target=target)
                halved = single_bs_infeasibility(case, 5e-3, target=target)
                assert full.verdict == "infeasible", (case, target, full.best_residual)
                assert full.best_residual > 1e-3
                assert halved.verdict == "infeasible"


def test_criterion_08_optimizer_recovers_the_known_feasible_point():
    with budget("criterion 8: optimizer reaches probability 1/4 on the constraint manifold", 120.0):
        result = optimize_success(grid_step=0.05)
        assert result.probability >= 0.25 - 1e-6
        assert result.residual <= 1e-6
        scores = [r["score"] for r in result.rounds]
        assert scores == sorted(scores)


def test_criterion_09_property_suites():
    with budget("criterion 9: unitarity, conservation laws, round trips, synthesis", 30.0):
        rng = np.random.default_rng(109)

        # element constructors and embeddings stay unitary
        for _ in range(50):
            eta = float(rng.uniform(0, 1))
            delta = float(rng.uniform(0, 2 * math.pi))
            angles = rng.uniform(0, 2 * math.pi, 3)
            for t in (
                beam_splitter(eta),
                phase_shifter(delta),
                general3(*angles),
                embed(ElementSpec.bs(1, 3, eta), 5),
            ):
                assert t.unitarity_deviation() <= 1e-9

        # norm and photon-number conservation
        for _ in range(30):
            state = random_state(rng, 3, 2)
            if state.norm() == 0:
                continue
            t = ModeTransform(random_unitary(rng, 3))
            out = evolve(state, t, prune_tol=0.0)
            assert abs(out.norm() - state.norm()) <= 1e-9
            in_totals = {sum(occ) for occ, _ in state.terms()}
            assert {sum(occ) for occ, _ in out.terms()} <= in_totals

        # encode/decode round trips for every scheme up to three qubits
        for scheme in ("single_rail", "dual_rail", "one_hot", "polarization"):
            for qubits in (1, 2, 3):
                enc = Encoding(scheme, qubits)
                for index in range(enc.dim):
                    bits = format(index, f"0{qubits}b")
                    vec, leakage = decode(encode(bits, enc), enc)
                    assert leakage == 0.0
                    assert vec[index] == pytest.approx(1.0)

        # rotation synthesis: reconstruction and dual-rail fidelity
        enc = Encoding("dual_rail", 1)
        for _ in range(200):
            u = random_unitary(rng, 2)
            dec = zy_decompose(u)
            assert np.abs(dec.rotation_product() - u).max() <= 1e-9

            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            out = dual_rail_apply(u, 0, encode(v, enc))
            got, leakage = decode(out, enc)
            assert leakage < 1e-9
            assert logical_fidelity(got, u @ v) >= 1 - 1e-9
