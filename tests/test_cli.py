import hashlib
import importlib.util
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loqc import ElementSpec, cli, compose_elements, search
from loqc.cli import MAX_CIRCUIT_BYTES, ParseError, main, parse_circuit
from loqc.multiport import MAX_MODES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE_DIGESTS = PERFBENCH / "reference.json"

#: Environment for a fresh interpreter that imports this checkout's package.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))}

NS_FILE = """\
# heralded sign shift driven from a circuit file
modes 3
input fock 1 1 0
gen3 1 2 3 t1=0.39269908169872414 t2=1.1437177404024204 t3=0.39269908169872414
detect 2=1 3=0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ------------------------------------------------------------------

def test_empty_file_reports_missing_modes():
    with pytest.raises(ParseError) as info:
        parse_circuit("")
    assert "missing modes declaration" in info.value.message
    assert (info.value.line, info.value.column) == (1, 1)


def test_out_of_range_port_is_positioned():
    with pytest.raises(ParseError) as info:
        parse_circuit("modes 3\nbs 0 7 eta=0.5\n")
    assert info.value.line == 2
    assert "out of range" in info.value.message


def test_duplicate_modes_declaration():
    with pytest.raises(ParseError, match="duplicate modes"):
        parse_circuit("modes 2\nmodes 3\n")


def test_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_circuit("modes 2\nsqueeze 1 r=2\n")


def test_bad_float_is_positioned():
    with pytest.raises(ParseError) as info:
        parse_circuit("modes 2\nbs 1 2 eta=lots\n")
    assert info.value.line == 2
    assert info.value.column >= 8


def test_theta_converts_to_reflectivity():
    circ = parse_circuit("modes 2\nbs 1 2 theta=60\n")
    assert circ.elements[0].block[0, 0] ** 2 == pytest.approx(0.25)


def test_unknown_correction_name():
    with pytest.raises(ParseError, match="unknown correction"):
        parse_circuit("modes 3\ndetect 2=1 correct nope\n")


def test_correction_port_must_fit_surviving_modes():
    text = "modes 3\ncorrection fix ps 3 delta=1.0\ndetect 2=1 3=0 correct fix\n"
    with pytest.raises(ParseError, match="surviving"):
        parse_circuit(text)


def test_a_correction_is_composed_once_per_survivor_count(monkeypatch):
    # 7 branches name 'fix': 3 leave three ports, 4 leave two
    calls = []

    def counted(elements, total_modes):
        calls.append(total_modes)
        return compose_elements(elements, total_modes)

    monkeypatch.setattr("loqc.cli.compose_elements", counted)
    text = ("modes 4\ncorrection fix bs 1 2 eta=0.3\ncorrection fix ps 2 delta=0.5\n"
            + "".join(f"detect 1={k} correct fix\n" for k in (1, 2, 3))
            + "".join(f"detect 1=0 2={k} correct fix\n" for k in range(4))
            + "detect 1=4\n")
    circ = parse_circuit(text)
    assert sorted(calls) == [2, 3]
    three = {id(b.correction) for _, b in circ.branches[:3]}
    two = {id(b.correction) for _, b in circ.branches[3:7]}
    assert len(three) == len(two) == 1 and three != two
    assert circ.branches[-1][1].correction is None
    specs = [ElementSpec.bs(0, 1, 0.3), ElementSpec.ps(1, 0.5)]
    for _, branch in circ.branches[:7]:
        dim = branch.correction.dim
        assert np.array_equal(branch.correction.matrix, compose_elements(specs, dim).matrix)


def test_detect_requires_a_surviving_port():
    with pytest.raises(ParseError, match="surviving"):
        parse_circuit("modes 2\ndetect 1=0 2=0\n")


def test_dualrail_amplitudes_must_be_normalized():
    with pytest.raises(ParseError, match="not normalized"):
        parse_circuit("modes 2\ninput dualrail 1 1\n")
    # norm off by 1.7e-9, beyond the encoder's 1e-9 tolerance
    with pytest.raises(ParseError, match="not normalized"):
        parse_circuit("modes 2\ninput dualrail 0.70710678 0.70710678\n")
    # an amplitude above 1 is caught at its own column, before its norm overflows
    with pytest.raises(ParseError, match="not normalized") as info:
        parse_circuit("modes 2\ninput dualrail 1e200 1e200\n")
    assert (info.value.line, info.value.column) == (2, 16)


def test_parse_converts_ports_at_the_boundary():
    text = (
        "modes 4\n"
        "input dualrail 0.5 0.5 0.5+0j 0.5j\n"
        "bs 1 3 eta=0.5\n"
        "ps 2 delta=3.14\n"
        "gen3 1 2 4 t1=0.1 t2=0.2 t3=0.3\n"
        "correction fix ps 1 delta=1.5\n"
        "detect 2=1 correct fix\n"
        "detect 2=0\n"
    )
    circ = parse_circuit(text)
    assert circ.modes == 4
    assert circ.state.num_modes == 4
    assert circ.state.amplitude((0, 1, 0, 1)) == pytest.approx(0.5j)
    assert circ.elements == (
        ElementSpec.bs(0, 2, 0.5),
        ElementSpec.ps(1, 3.14),
        ElementSpec.gen3(0, 1, 3, 0.1, 0.2, 0.3),
    )
    (fix_name, fixed), (plain_name, plain) = circ.branches
    assert (fix_name, fixed.label, fixed.pattern.constraints) == ("fix", "2=1", ((1, 1),))
    assert (plain_name, plain.label, plain.pattern.constraints) == ("identity", "2=0", ((1, 0),))
    want = compose_elements([ElementSpec.ps(0, 1.5)], 3).matrix
    assert np.array_equal(fixed.correction.matrix, want)
    assert plain.correction is None


def test_fock_input_photon_cap_is_a_positioned_error():
    with pytest.raises(ParseError) as info:
        parse_circuit("modes 2\ninput fock 40 0\n")
    assert info.value.line == 2
    assert "at most 39" in info.value.message
    assert parse_circuit("modes 2\ninput fock 39 0\n").state.num_terms() == 1


#: (file text, line, column, message fragment): one row per ``ParseError``
#: that ``parse_circuit`` and its helpers raise.
PARSE_DIAGNOSTICS = [
    ("modes 2\nbs 1 2 eta=lots\n", 2, 12, "invalid eta: 'lots'"),
    ("modes 2\nps 1 delta=inf\n", 2, 12, "delta must be finite"),
    ("modes two\n", 1, 7, "invalid mode count: 'two'"),
    ("modes 2\ndetect 1=x\n", 2, 10, "invalid photon count: 'x'"),
    ("modes 2\nps 1 delta\n", 2, 6, "expected delta=<value>"),
    ("modes 3\ngen3 1 2 3 t1=0 t2=0 t4=0\n", 2, 22, "expected parameter 't3', got 't4'"),
    ("modes 3\nbs 0 7 eta=0.5\n", 2, 4, "port 0 out of range 1..3"),
    ("modes 2\ninput fock 40 0\n", 2, 7, "at most 39 (MAX_PHOTONS)"),
    ("modes 20\ninput fock 10" + " 0" * 19 + "\n", 2, 7, "MAX_FOCK_TERMS"),
    ("modes 2\nbs 1\n", 2, 1, "bs needs 2 port(s)"),
    ("modes 2\nbs 1 1 eta=0.5\n", 2, 4, "bs ports must be distinct"),
    ("modes 2\nbs 1 2\n", 2, 1, "bs takes exactly one of eta= or theta="),
    ("modes 2\nbs 1 2 eta=1.5\n", 2, 8, "eta must lie in [0, 1]"),
    ("modes 2\nbs 1 2 r=0.5\n", 2, 8, "expected eta= or theta="),
    ("modes 2\nps 1\n", 2, 1, "ps takes exactly delta="),
    ("modes 3\ngen3 1 2 3 t1=0\n", 2, 1, "gen3 takes t1= t2= t3="),
    ("modes 2\nmodes 3\n", 2, 1, "duplicate modes declaration"),
    ("modes\n", 1, 1, "usage: modes N"),
    ("modes 0\n", 1, 7, "mode count must be positive"),
    (f"modes {MAX_MODES + 1}\n", 1, 7, "MAX_MODES"),
    ("bs 1 2 eta=0.5\n", 1, 1, "modes must be declared before any other directive"),
    ("modes 1\ninput fock 1\ninput fock 1\n", 3, 1, "duplicate input declaration"),
    ("modes 1\ninput\n", 2, 1, "usage: input fock|dualrail"),
    ("modes 2\ninput fock 1\n", 2, 7, "input fock needs 2 occupation number(s)"),
    ("modes 2\ninput fock -1 0\n", 2, 12, "occupations must be non-negative"),
    ("modes 2\ninput dualrail 1 0 0\n", 2, 7, "input dualrail needs 2^q amplitudes"),
    ("modes 3\ninput dualrail 1 0\n", 2, 7, "needing 2 modes, file declares 3"),
    ("modes 2\ninput dualrail 1 x\n", 2, 18, "invalid amplitude: 'x'"),
    ("modes 2\ninput dualrail nan 0\n", 2, 16, "amplitudes must be finite"),
    ("modes 2\ninput dualrail 1e200 1e200\n", 2, 16, "exceeds 1"),
    ("modes 2\ninput dualrail 1 1\n", 2, 7, "amplitudes are not normalized (norm"),
    ("modes 2\ninput coherent 1\n", 2, 7, "unknown input kind 'coherent'"),
    ("modes 2\ncorrection fix\n", 2, 1, "usage: correction NAME"),
    ("modes 3\ncorrection identity ps 1 delta=3.14159\n", 2, 12,
     "correction name 'identity' is reserved"),
    ("modes 2\ncorrection fix squeeze 1\n", 2, 16, "correction element must be bs, ps or gen3"),
    ("modes 2\ndetect 1=0 correct\n", 2, 12, "correct needs a correction name"),
    ("modes 3\ncorrection fix ps 1 delta=1\ndetect 1=0 correct fix 2=0\n", 3, 24,
     "correct NAME must end the detect line"),
    ("modes 2\ndetect 1\n", 2, 8, "expected PORT=COUNT"),
    ("modes 2\ndetect 1=-1\n", 2, 8, "photon counts must be non-negative"),
    ("modes 2\ndetect\n", 2, 1, "detect needs at least one PORT=COUNT"),
    ("modes 3\ndetect 1=0 1=1\n", 2, 1, "detect ports must be distinct"),
    ("modes 2\ndetect 1=0 2=0\n", 2, 1, "detect must leave at least one surviving port"),
    ("modes 3\ndetect 2=1 correct nope\n", 2, 1, "unknown correction 'nope'"),
    ("modes 2\nsqueeze 1\n", 2, 1, "unknown directive 'squeeze'"),
    ("# no modes line\n", 1, 1, "missing modes declaration"),
    ("modes 3\ncorrection fix ps 3 delta=1.0\ndetect 2=1 3=0 correct fix\n", 2, 19,
     "leaves only 1 surviving port(s)"),
    # the offending port is on the correction's second line
    ("modes 3\ncorrection fix ps 1 delta=1\ncorrection fix ps 3 delta=1\n"
     "detect 2=1 3=0 correct fix\n", 3, 19, "correction 'fix' uses port 3"),
]


@pytest.mark.parametrize("text,line,column,fragment", PARSE_DIAGNOSTICS,
                         ids=[row[3] for row in PARSE_DIAGNOSTICS])
def test_every_parse_diagnostic_is_positioned(text, line, column, fragment):
    with pytest.raises(ParseError) as info:
        parse_circuit(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert fragment in info.value.message


@pytest.mark.parametrize("text,diagnostic", [
    # without the reservation the file printed the uncorrected conditional
    ("modes 3\ninput fock 1 1 0\ncorrection identity ps 1 delta=3.14159\n"
     "detect 3=0 correct identity\n",
     "circuit.txt:3:12: correction name 'identity' is reserved"),
    ("modes 2\nbs 1 2 eta=0.5\n", "circuit file has no input declaration"),
], ids=["reserved-identity", "no-input"])
def test_simulate_diagnostics_exit_1(tmp_path, capsys, text, diagnostic):
    path = tmp_path / "circuit.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert diagnostic in err


def test_fock_basis_budget_is_checked_before_evolve(tmp_path, capsys, monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran")

    monkeypatch.setattr("loqc.cli.evolve", no_evolve)
    path = tmp_path / "big.circ"
    for text in (
        "modes 10\ninput fock 39" + " 0" * 9 + "\n",            # C(48, 39) terms
        "modes 16\ninput dualrail 1" + " 0" * 255 + "\n",       # C(23, 8) terms
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert "big.circ:2:" in err and "MAX_FOCK_TERMS" in err
    # 10 photons in 10 modes span 92,378 terms, inside the budget
    assert parse_circuit("modes 10\ninput fock 10" + " 0" * 9 + "\n").state.num_terms() == 1


def test_mode_budget_is_checked_before_compose(tmp_path, capsys, monkeypatch):
    def no_compose(*args, **kwargs):
        raise AssertionError("compose_elements ran")

    monkeypatch.setattr("loqc.cli.compose_elements", no_compose)
    path = tmp_path / "wide.circ"
    # one photon in 1200 modes spans 1200 basis terms, inside MAX_FOCK_TERMS
    path.write_text("modes 1200\ninput fock 1" + " 0" * 1199 + "\nbs 1 2 eta=0.5\n")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert out == ""
    assert "wide.circ:1:7:" in err and "MAX_MODES" in err
    assert parse_circuit(f"modes {MAX_MODES}\n").modes == MAX_MODES
    with pytest.raises(ParseError) as info:
        parse_circuit(f"modes {MAX_MODES + 1}\n")
    assert (info.value.line, info.value.column) == (1, 7)


def test_parser_never_crashes_on_garbage():
    rng = np.random.default_rng(61)
    alphabet = string.printable
    words = ["modes", "input", "bs", "ps", "gen3", "detect", "correct", "eta=", "1", "#"]
    for _ in range(300):
        if rng.random() < 0.5:
            text = "".join(rng.choice(list(alphabet), size=rng.integers(0, 120)))
        else:
            text = "\n".join(
                " ".join(rng.choice(words, size=rng.integers(0, 6)))
                for _ in range(rng.integers(0, 6))
            )
        try:
            parse_circuit(text)
        except ParseError:
            pass  # every failure must be a positioned diagnostic


# -- simulate -----------------------------------------------------------------

def test_simulate_sign_shift_file(tmp_path, capsys):
    path = tmp_path / "ns.circ"
    path.write_text(NS_FILE)
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "simulate"
    assert report["measured_ports"] == [2, 3]
    assert report["success_probability"] == pytest.approx(0.25, abs=1e-9)
    [branch] = report["branches"]
    assert branch["pattern"] == "2=1 3=0"
    assert branch["conditional"]["1"][0] == pytest.approx(1.0, abs=1e-9)
    assert sum(report["outcomes"].values()) == pytest.approx(1.0, abs=1e-9)


def test_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "ns.circ"
    path.write_text(NS_FILE)
    _, first, _ = run_cli(capsys, "simulate", str(path))
    _, second, _ = run_cli(capsys, "simulate", str(path))
    assert first == second


def test_correction_flips_conditional_sign(tmp_path, capsys):
    text = (
        "modes 2\n"
        "input fock 1 0\n"
        "bs 1 2 eta=0.5\n"
        "correction flip ps 1 delta=3.141592653589793\n"
        "detect 2=0 correct flip\n"
        "detect 2=1\n"
    )
    path = tmp_path / "flip.circ"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    report = json.loads(out)
    corrected, plain = report["branches"]
    assert corrected["conditional"]["1"][0] == pytest.approx(-1.0, abs=1e-9)
    assert plain["conditional"]["0"][0] == pytest.approx(1.0, abs=1e-9)
    assert report["success_probability"] == pytest.approx(1.0, abs=1e-9)


def test_dualrail_input_runs(tmp_path, capsys):
    text = "modes 2\ninput dualrail 0.7071067811865476 0.7071067811865476\nps 2 delta=3.141592653589793\n"
    path = tmp_path / "dr.circ"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["outcomes"] == {"0,1": 0.5, "1,0": 0.5}


def test_overlapping_detect_lines_are_a_diagnostic(tmp_path, capsys):
    text = "modes 3\ninput fock 1 0 0\ndetect 2=0\ndetect 3=0\n"
    path = tmp_path / "overlap.circ"
    path.write_text(text)
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert "overlap" in err
    assert "'2=0'" in err and "'3=0'" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.circ"
    path.write_text("modes 3\nbs 0 7 eta=0.5\n")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert "bad.circ:2:" in err


def test_missing_file_is_a_diagnostic(capsys):
    code, _, err = run_cli(capsys, "simulate", "/does/not/exist.circ")
    assert code == 1
    assert "error" in err


def test_non_utf8_file_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin1.circ"
    path.write_bytes(b"modes 1\n# caf\xe9\n")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert out == ""
    assert err == f"loqc: error: cannot read {path}: not UTF-8 text (byte 13)\n"


def test_circuit_file_over_the_byte_budget_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "padded.circ"
    head = "modes 1\ninput fock 1\n"
    path.write_text(head + "#" * (MAX_CIRCUIT_BYTES - len(head)))
    assert run_cli(capsys, "simulate", str(path))[0] == 0
    path.write_text(head + "#" * (MAX_CIRCUIT_BYTES - len(head) + 1))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("loqc: error:") and err.count("\n") == 1
    assert "MAX_CIRCUIT_BYTES" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_circuit_file_is_a_diagnostic(capsys):
    code, out, err = run_cli(capsys, "simulate", "/dev/zero")
    assert (code, out) == (1, "")
    assert err.startswith("loqc: error:") and "MAX_CIRCUIT_BYTES" in err


def test_crlf_circuit_file_is_read_with_universal_newlines(tmp_path, capsys):
    path = tmp_path / "ns.circ"
    path.write_bytes(NS_FILE.replace("\n", "\r\n").encode())
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    digest = "sha256:" + hashlib.sha256(NS_FILE.encode()).hexdigest()
    assert json.loads(out)["input"]["digest"] == digest


def test_pretty_output_is_text(tmp_path, capsys):
    path = tmp_path / "ns.circ"
    path.write_text(NS_FILE)
    code, out, _ = run_cli(capsys, "--pretty", "simulate", str(path))
    assert code == 0
    assert out.startswith("loqc ")
    assert "success_probability" in out


def test_report_digits_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ns.circ"
    path.write_text(NS_FILE)
    monkeypatch.setenv("LOQC_REPORT_DIGITS", "3")
    _, out, _ = run_cli(capsys, "simulate", str(path))
    report = json.loads(out)
    assert report["outcomes"]["0,0"] == pytest.approx(0.243, abs=5e-4)
    monkeypatch.setenv("LOQC_REPORT_DIGITS", "zillions")
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 1


def test_bad_report_digits_are_rejected_before_the_work(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the search ran before LOQC_REPORT_DIGITS was checked")

    monkeypatch.setattr("loqc.cli.ns_in_ns_feasibility", scan)
    monkeypatch.setenv("LOQC_REPORT_DIGITS", "x")
    code, out, err = run_cli(capsys, "search", "ns_in_ns:case1")
    assert (code, out) == (1, "")
    assert err == "loqc: error: LOQC_REPORT_DIGITS must be an integer, got 'x'\n"


CORRECTED_FILE = """\
modes 3
input fock 1 1 0
gen3 1 2 3 t1=0.4 t2=1.1 t3=0.7
correction fix ps 1 delta=0.9
detect 2=1 3=0 correct fix
detect 2=0 3=1
"""


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value)


@pytest.mark.parametrize("argv", [
    ["simulate", "CORRECTED"],
    ["verify-gate", "cs"],
    ["search", "single_bs:case1"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_every_printed_float_is_rounded(argv, tmp_path, capsys, monkeypatch):
    path = tmp_path / "corrected.circ"
    path.write_text(CORRECTED_FILE)
    monkeypatch.setenv("LOQC_REPORT_DIGITS", "3")
    code, out, _ = run_cli(capsys, *[str(path) if a == "CORRECTED" else a for a in argv])
    assert code == 0
    floats = list(_floats(json.loads(out)))
    assert len(floats) >= 4
    assert [x for x in floats if float(f"{x:.3g}") != x] == []


def test_bulk_rounding_equals_rounding_each_float():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 0.5, 9.99999999995e-05,
               1 - 2 ** -53, 123456789.0, -1e300, 1.7976931348623157e308]
    values = np.array(special + rng.normal(size=200).tolist() + (rng.random(200) ** 40).tolist()
                      + (rng.normal(size=100) * 10.0 ** rng.integers(-300, 300, size=100)).tolist())
    for digits in range(1, 18):
        want = [float(format(x, f".{digits}g")) for x in values.tolist()]
        got = cli._rounded(values, digits)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert cli._rounded(np.zeros(0), 10) == []


def test_bulk_keys_equal_joined_counts():
    rng = np.random.default_rng(4)
    for modes in (1, 2, 7):
        rows = rng.integers(0, 40, size=(300, modes))
        rows[0] = 39
        for dtype in (np.int8, np.int64):
            got = cli._count_keys(rows.astype(dtype))
            assert got == [",".join(map(str, row)) for row in rows.tolist()]
    assert cli._count_keys(np.zeros((0, 3), dtype=np.int8)) == []


# -- verify-gate and search ------------------------------------------------------

def test_verify_gate_ns(capsys):
    code, out, _ = run_cli(capsys, "verify-gate", "ns")
    assert code == 0
    report = json.loads(out)
    assert report["sign_pattern"] == "++-"
    assert report["overall_success_probability"] == pytest.approx(0.25, abs=1e-9)


def test_verify_gate_two_photon(capsys):
    code, out, _ = run_cli(capsys, "verify-gate", "cnot_2photon")
    assert code == 0
    report = json.loads(out)
    assert report["overall_success_probability"] == pytest.approx(1 / 9, abs=1e-9)
    fidelities = [row["fidelity"] for row in report["inputs"]]
    assert min(fidelities) >= 1 - 1e-9


def test_verify_gate_rejects_unknown(capsys):
    code, _, err = run_cli(capsys, "verify-gate", "toffoli")
    assert code == 1


def test_search_single_splitter_case1(capsys):
    code, out, _ = run_cli(capsys, "search", "single_bs:case1", "--grid-step", "0.02")
    assert code == 0
    report = json.loads(out)
    verdicts = {rec["scheme"]: rec["verdict"] for rec in report["reports"]}
    assert verdicts == {
        "single_bs:case1:sign_flip": "infeasible",
        "single_bs:case1:restore": "infeasible",
    }


def test_search_two_splitter_scheme(capsys):
    code, out, _ = run_cli(capsys, "search", "two_bs:case3", "--grid-step", "0.05")
    assert code == 0
    [record] = json.loads(out)["reports"]
    assert record["scheme"] == "two_bs:case3:sign_flip"
    assert "equal_angle_min_residual" in record["extras"]


def test_search_second_network_scheme(capsys):
    code, out, _ = run_cli(capsys, "search", "ns_in_ns:case1", "--grid-step", "0.1")
    assert code == 0
    [record] = json.loads(out)["reports"]
    assert record["verdict"] == "feasible"
    assert record["extras"]["candidate_family_best_residual"] <= 1e-9
    # the derived second angle, against its value printed to 10 digits
    assert abs(abs(record["extras"]["candidate_family_best_angles"][1]) - 2.466864691) < 1e-9


def test_search_optimizer_scheme(capsys):
    code, out, _ = run_cli(capsys, "search", "optimize_ns", "--grid-step", "0.2")
    assert code == 0
    [record] = json.loads(out)["reports"]
    assert record["probability"] >= 0.25 - 1e-6
    assert record["residual"] <= 1e-6


@pytest.mark.parametrize("argv", [
    ["single_bs:case1", "--grid-step", "-1"],
    ["single_bs:case1", "--grid-step", "4"],  # every coarse point excluded
    ["single_bs:case1", "--grid-step", "nan"],
    ["two_bs:case3", "--grid-step", "inf"],
    ["optimize_ns", "--tolerance", "nan"],
    ["single_bs:case3", "--tolerance", "inf"],
    ["optimize_ns", "--tolerance", "1e-6"],  # optimize_ns gives no verdict to threshold
], ids=["negative-step", "empty-grid", "nan-step", "inf-step", "nan-tolerance", "inf-tolerance",
        "optimize-tolerance"])
def test_search_rejects_bad_inputs(capsys, argv):
    code, out, err = run_cli(capsys, "search", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("loqc: error: ")


def test_search_slab_budget_is_checked_before_allocation(capsys, monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("slab allocated")

    monkeypatch.setattr(search, "ns_in_ns_products", no_kernel)
    code, _, err = run_cli(capsys, "search", "ns_in_ns:case1", "--grid-step", "1e-3")
    assert code == 1
    assert "MAX_SLAB_POINTS" in err


def test_search_scan_budget_is_checked_before_any_kernel_call(capsys, monkeypatch):
    # 3,143^3 points: each slab is under MAX_SLAB_POINTS, the whole scan is not
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    monkeypatch.setattr(search, "sign_shift_branch_amplitudes", no_kernel)
    code, out, err = run_cli(capsys, "search", "optimize_ns", "--grid-step", "1e-3")
    assert code == 1
    assert out == ""
    assert err.startswith("loqc: error: ")
    assert "MAX_SCAN_POINTS" in err


@pytest.mark.parametrize("argv", [
    *(pytest.param(["search", scheme], id=scheme)
      for scheme in ("single_bs:case1", "single_bs:case3", "two_bs:case3", "ns_in_ns:case1",
                     "optimize_ns")),
    *(pytest.param(["verify-gate", gate], id=f"verify-gate:{gate}")
      for gate in ("ns", "cs", "cnot_klm", "cnot_2photon")),
    pytest.param(["selftest", "--seed", "0"], id="selftest:seed0"),
])
def test_default_searches_match_reference_digests(capsys, argv):
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == reference[" ".join(argv)]


@pytest.fixture(scope="module")
def default_circuit_files(tmp_path_factory):
    """The seed-0 circuit files whose ``simulate`` stdout ``reference.json`` pins."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    files = workloads.write_circuits(0, "default", 1, tmp_path_factory.mktemp("circuits"))
    return {f"simulate {key}": path for key, path, _ in files}


@pytest.mark.parametrize("key", sorted(k for k in json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
                                       if k.startswith("simulate ")))
def test_default_circuit_files_match_reference_digests(capsys, default_circuit_files, key):
    # six of these files end in heralded branches whose corrections leave spectator modes
    reference = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    code, out, _ = run_cli(capsys, "simulate", str(default_circuit_files[key]))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == reference[key]


def test_verify_gate_cs_and_cnot(capsys):
    for name, prob in [("cs", 1 / 16), ("cnot_klm", 1 / 16)]:
        code, out, _ = run_cli(capsys, "verify-gate", name)
        assert code == 0
        report = json.loads(out)
        assert report["overall_success_probability"] == pytest.approx(prob, abs=1e-9)


def test_negative_selftest_seed_is_a_diagnostic(capsys):
    code, out, err = run_cli(capsys, "selftest", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("loqc: error: --seed must be a non-negative integer")


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 5


def test_no_subcommand_is_a_diagnostic(capsys):
    code, _, err = run_cli(capsys, )
    assert code == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_output_pipe_is_not_an_internal_error(unbuffered):
    # the read end is closed before the child starts, so its first write
    # fails, or with a buffered stdout its first flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "loqc.cli", "--pretty", "selftest"], stdout=write_end,
                              stderr=subprocess.PIPE, env={**SRC_ENV, "PYTHONUNBUFFERED": unbuffered},
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_cli_import_loads_no_scipy():
    code = "import sys, loqc.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV, timeout=120, check=True)
    assert proc.stdout == "False\n"
