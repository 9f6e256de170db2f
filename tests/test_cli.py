import hashlib
import importlib.util
import json
import math
import os
import re
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loqc import ElementSpec, cli, compose_elements, measurement, search
from loqc.cli import MAX_CIRCUIT_BYTES, ParseError, main, parse_circuit
from loqc.multiport import MAX_MODES

from helpers import reference_simulate_report

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


_HALF_PI = math.pi / 2

#: (element line on 4 ports, the public constructor's element): parameters
#: at edge values; theta converts to eta = cos^2 theta as the parser does it
PARSED_ELEMENTS = [
    ("bs 1 3 eta=0", ElementSpec.bs(0, 2, 0.0)),
    ("bs 3 1 eta=1", ElementSpec.bs(2, 0, 1.0)),
    ("bs 2 4 eta=0.3", ElementSpec.bs(1, 3, 0.3)),
    ("bs 2 4 theta=90", ElementSpec.bs(1, 3, math.cos(math.radians(90.0)) ** 2)),
    ("bs 4 2 theta=-0", ElementSpec.bs(3, 1, math.cos(math.radians(-0.0)) ** 2)),
    ("ps 4 delta=-0.0", ElementSpec.ps(3, -0.0)),
    ("ps 1 delta=0.0", ElementSpec.ps(0, 0.0)),
    ("ps 2 delta=1e308", ElementSpec.ps(1, 1e308)),
    ("gen3 1 2 3 t1=0 t2=0 t3=-0.0", ElementSpec.gen3(0, 1, 2, 0.0, 0.0, -0.0)),
    (f"gen3 4 2 1 t1={_HALF_PI!r} t2=0 t3={_HALF_PI!r}", ElementSpec.gen3(3, 1, 0, _HALF_PI, 0.0, _HALF_PI)),
    ("gen3 3 1 4 t1=0.1 t2=-2.5 t3=7", ElementSpec.gen3(2, 0, 3, 0.1, -2.5, 7.0)),
]


@pytest.mark.parametrize("line,public", PARSED_ELEMENTS, ids=[row[0] for row in PARSED_ELEMENTS])
def test_parsed_elements_equal_the_public_constructors_bit_for_bit(line, public):
    # ElementSpec.__eq__ uses np.array_equal, which does not tell 0.0 from -0.0
    main_line = parse_circuit(f"modes 4\n{line}\n").elements[0]
    correction = cli._parse_element(cli._tokens(f"correction fix {line}")[2:], 2, 4)
    for element in (main_line, correction):
        assert element.modes == public.modes and all(type(m) is int for m in element.modes)
        assert element.block.dtype == public.block.dtype and element.block.shape == public.block.shape
        assert element.block.tobytes() == public.block.tobytes()
        assert not element.block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            element.block[0, 0] = 0.0


def test_public_element_constructors_keep_their_checks():
    for make, args, message in [
        (ElementSpec.bs, (1, 1, 0.5), "element modes must be distinct: (1, 1)"),
        (ElementSpec.gen3, (0, 2, 0, 0.1, 0.2, 0.3), "element modes must be distinct: (0, 2, 0)"),
        (ElementSpec.bs, (0, 1, 1.5), "reflectivity eta must lie in [0, 1], got 1.5"),
        (ElementSpec.ps, (0, math.nan), "matrix is not unitary (deviation nan)"),
        (ElementSpec.ps, (0, math.inf), "matrix is not unitary (deviation nan)"),
        (ElementSpec.ps, (1.5, 0.1), "element modes must be integers, got (1.5,)"),
    ]:
        with pytest.raises(ValueError) as err:
            make(*args)
        assert str(err.value) == message


def _regex_tokens(line):
    """The (token, column) pairs of ``re.finditer(r"\\S+")`` before any '#'."""
    line = line.partition("#")[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def test_tokens_split_as_the_whitespace_regex_on_every_bmp_code_point():
    # each code point as a separator and inside a token: a whitespace one
    # splits, any other joins; then with a comment cutting the line
    chars = [chr(c) for c in range(0x10000) if chr(c) != "#"]
    for k in range(0, len(chars), 64):
        chunk = chars[k:k + 64]
        line = "".join(f"{c}t{c}{c}u {c}" for c in chunk)
        for text in (line, line + "#" + line, line[:150] + "# " + line[150:], "#" + line):
            assert cli._tokens(text) == _regex_tokens(text)
    for text in ("#", " # a", "a#b c", "bs 1 2 eta=0.5 #", "\tbs 1  2　eta=0.5"):
        assert cli._tokens(text) == _regex_tokens(text)


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
    # ports 1..8: port 1 and the set bits of i on ports 2..8, one port set per line
    ("modes 9\n" + "".join("detect 1=%d" % i + "".join(f" {k + 2}=0" for k in range(7) if i >> k & 1) + "\n"
                           for i in range(65)), 66, 1, "MAX_PORT_SETS = 64"),
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


def test_a_bad_correction_port_fails_before_any_compose(tmp_path, capsys, monkeypatch):
    # the first two branches leave three ports and would compose 'fix'; only
    # the last, which leaves two, is out of range for its port 3
    def no_compose(*args, **kwargs):
        raise AssertionError("compose_elements ran")

    monkeypatch.setattr("loqc.cli.compose_elements", no_compose)
    path = tmp_path / "circuit.txt"
    path.write_text("modes 4\ninput fock 1 0 1 0\ncorrection fix bs 1 2 eta=0.3\n"
                    "correction fix ps 3 delta=0.5\ndetect 1=1 correct fix\n"
                    "detect 2=1 correct fix\ndetect 1=0 2=2 correct fix\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert err == (f"loqc: error: {path}:4:19: correction 'fix' uses port 3 but branch "
                   f"'1=0 2=2' leaves only 2 surviving port(s)\n")


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


def _port_set_file(port_sets: int, lines_per_set: int = 1) -> str:
    """Nine modes, one photon; each detect line measures port 1, at a count
    of its own, and the ports 2..8 of the set bits of its port set's index,
    so no two lines overlap."""
    lines = ["modes 9", "input fock 0 0 0 0 0 0 0 0 1", "bs 8 9 eta=0.5"]
    for j in range(lines_per_set):
        for i in range(port_sets):
            lines.append(f"detect 1={j * port_sets + i}" + "".join(f" {k + 2}=0" for k in range(7) if i >> k & 1))
    return "\n".join(lines) + "\n"


def test_port_set_budget_is_checked_before_evolve(tmp_path, capsys, monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran")

    path = tmp_path / "ports.circ"
    path.write_text(_port_set_file(cli.MAX_PORT_SETS, lines_per_set=2))
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0   # the budget counts port sets, not lines
    assert len(json.loads(out)["branches"]) == 2 * cli.MAX_PORT_SETS
    monkeypatch.setattr("loqc.cli.evolve", no_evolve)
    path.write_text(_port_set_file(cli.MAX_PORT_SETS + 1))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    # the 65th port set is on the 65th detect line, file line 68
    assert err == (f"loqc: error: {path}:68:1: detect lines measure more than "
                   f"MAX_PORT_SETS = 64 distinct port sets\n")


@pytest.mark.parametrize("photons,detects,sorts", [
    (5, ["detect 1=0", "detect 1=1", "detect 1=2"], [(0,)]),                  # 2,814 terms
    (2, ["detect 1=0 3=1", "detect 1=1 3=0"], [(0, 2)]),                   # 66 terms
    (5, ["detect 1=0", "detect 1=1 3=0"], [(0, 2), (0,), (0, 2)]),        # two port sets
])
def test_simulate_sorts_once_for_one_port_set(photons, detects, sorts, tmp_path, capsys, monkeypatch):
    # the outcome distribution's runs serve the branches when they measure its modes
    calls = []
    runs = measurement._runs

    def counted(state, modes, squares):
        calls.append(tuple(modes))
        return runs(state, modes, squares)

    monkeypatch.setattr(measurement, "_runs", counted)
    path = tmp_path / "one.circ"
    lines = ["modes 11", "input fock " + " ".join(["1"] * photons + ["0"] * (11 - photons))]
    lines += [f"bs {i} {i + 1} eta=0.4" for i in range(1, 11)] + detects
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0 and len(json.loads(out)["branches"]) == len(detects)
    assert calls == sorts


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
    assert err == f"loqc: error: {path}:4:1: branch patterns overlap: '2=0' and '3=0'\n"


@pytest.mark.parametrize("lines, where, pair", [
    # an adjacent pair, after an element line: named at the later line
    (["bs 1 2 eta=0.5", "detect 3=0", "detect 2=1 3=0"], (5, 1), "'3=0' and '2=1 3=0'"),
    # line 3 conflicts with lines 4 and 6 and overlaps line 7, which is
    # indented; line 8 overlaps lines 4 and 7, later pairs
    (["detect 1=0 2=0", "detect 1=1", "# a comment", "detect 1=0 2=1", "  detect 2=0", "detect 2=0 1=1"],
     (7, 3), "'1=0 2=0' and '2=0'"),
    # corrected lines: the corrections are composed before the pair is named
    (["correction fix ps 1 delta=0.5", "correction fix ps 1 delta=0.3", "detect 3=0 correct fix",
      "detect 3=1 correct fix", "detect 3=0 2=0 correct fix"], (7, 1), "'3=0' and '2=0 3=0'"),
])
def test_overlapping_detect_lines_are_a_parse_error_at_the_later_line(lines, where, pair, tmp_path, capsys,
                                                                      monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran")

    text = "modes 3\ninput fock 1 1 0\n" + "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as info:
        parse_circuit(text)
    assert (info.value.line, info.value.column, info.value.message) == (*where, f"branch patterns overlap: {pair}")
    monkeypatch.setattr("loqc.cli.evolve", no_evolve)
    path = tmp_path / "overlap.circ"
    path.write_text(text)
    assert run_cli(capsys, "simulate", str(path)) == (1, "", f"loqc: error: {path}:{where[0]}:{where[1]}: "
                                                             f"branch patterns overlap: {pair}\n")


def test_a_simulate_checks_its_detect_lines_once(tmp_path, capsys, monkeypatch):
    # parse_circuit checks the family and simulate_report hands it on
    calls = []
    first_overlap = measurement._first_overlap
    for module in (measurement, cli):
        if hasattr(module, "_first_overlap"):
            monkeypatch.setattr(module, "_first_overlap", lambda *args: calls.append(1) or first_overlap(*args))
    path = tmp_path / "branches.circ"
    path.write_text("modes 4\ninput fock 1 1 0 0\nbs 1 2 eta=0.5\nbs 2 3 eta=0.3\ncorrection fix ps 1 delta=0.5\n"
                    "detect 4=0 correct fix\ndetect 4=1\ndetect 4=2 3=0 correct fix\ndetect 4=2 3=1\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert (code, len(calls)) == (0, 1)
    assert [b["pattern"] for b in json.loads(out)["branches"]] == ["4=0", "4=1", "3=0 4=2", "3=1 4=2"]
    assert not hasattr(cli, "_first_overlap")


def test_a_correction_port_is_checked_before_overlapping_detect_lines():
    text = "modes 3\ninput fock 1 0 0\ncorrection c ps 3 delta=1\ndetect 2=0\ndetect 3=0 correct c\n"
    with pytest.raises(ParseError) as info:
        parse_circuit(text)
    assert (info.value.line, info.value.column) == (3, 17)
    assert info.value.message == "correction 'c' uses port 3 but branch '3=0' leaves only 2 surviving port(s)"


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


#: One file per shape of the ``simulate`` report: no branches (one outcome
#: near 0.99, written "1.0" at one digit), detect lines on two port sets
#: (real amplitudes with zero imaginary parts, one branch that keeps
#: nothing), and a correction whose name holds '"', '\\' and U+0000.
REPORT_SHAPES = {
    "no_branches": "modes 4\ninput fock 1 0 1 0\nbs 1 2 eta=0.999\nbs 3 4 eta=0.99\n"
                   "ps 2 delta=0.3\ngen3 2 3 4 t1=0.1 t2=0.02 t3=0.05\n",
    "detect": "modes 5\ninput fock 1 1 1 0 0\nbs 1 2 eta=0.3\nbs 2 3 eta=0.6\nbs 3 4 eta=0.5\n"
              "bs 4 5 eta=0.2\nbs 1 2 eta=0.7\ndetect 5=0\ndetect 5=1\ndetect 4=0 5=3\n"
              "detect 4=1 5=2\ndetect 4=3 5=2\n",
    "escaped_name": 'modes 4\ninput fock 1 0 1 0\nbs 1 2 eta=0.5\nbs 3 4 eta=0.4\n'
                    'correction a"b\\c\x00d ps 1 delta=3.0\ndetect 1=1 correct a"b\\c\x00d\n'
                    'detect 1=0\n',
}


@pytest.mark.parametrize("shape", REPORT_SHAPES)
def test_simulate_stdout_equals_the_float_round_trip(shape, tmp_path, capsys, monkeypatch):
    text = REPORT_SHAPES[shape]
    path = tmp_path / "shape.circ"
    path.write_text(text, encoding="utf-8")
    for digits in range(1, 18):
        monkeypatch.setenv("LOQC_REPORT_DIGITS", str(digits))
        tree = reference_simulate_report(text, digits)
        for pretty in (False, True):
            code, out, err = run_cli(capsys, *["--pretty"] * pretty, "simulate", str(path))
            assert (code, err) == (0, "")
            assert out == cli.render_report(tree, pretty=pretty) + "\n", (digits, pretty)


def test_bulk_rounding_equals_rounding_each_float():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.0, 0.5, 9.99999999995e-05,
               0.96, 0.99999999999, 1 - 2 ** -53, 1 + 2 ** -52, 9.6, 1234.0,
               123456789.0, -1e300, 1.7976931348623157e308]
    values = np.array(special + rng.normal(size=200).tolist() + (rng.random(200) ** 40).tolist()
                      + (rng.normal(size=100) * 10.0 ** rng.integers(-300, 300, size=100)).tolist())
    mag = np.abs(values)
    checked = values[(mag <= 1) & ((mag >= sys.float_info.min) | (mag == 0))]   # the %g text's domain

    def map_text(vals, digits):
        """``_json_map`` against the float round trip, ``json.dumps`` of each
        ``float(format(x, f".{digits}g"))``, for numbers and for [re, im] pairs."""
        rounded = [float(format(x, f".{digits}g")) for x in vals.tolist()]
        want = json.dumps({str(i): x for i, x in enumerate(rounded)}, separators=(",", ":"))
        assert cli._json_map(np.arange(len(vals))[:, None], vals, digits) == want
        pairs = vals[:len(vals) // 2 * 2].reshape(-1, 2)
        want = json.dumps({str(i): rounded[2 * i:2 * i + 2] for i in range(len(pairs))},
                          separators=(",", ":"))
        assert cli._json_map(np.arange(len(pairs))[:, None], pairs, digits) == want

    for digits in range(1, 18):
        want = [float(format(x, f".{digits}g")) for x in values.tolist()]
        got = cli._rounded(values, digits)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        map_text(values, digits)     # the guard's float round trip
        map_text(checked, digits)    # the %g text itself up to 15 digits
        for x in special:            # each value alone, so each takes its own route
            map_text(np.array([x, x]), digits)
    assert cli._rounded(np.zeros(0), 10) == []


def test_bulk_keys_equal_joined_counts():
    rng = np.random.default_rng(4)
    for modes in (1, 2, 7):
        for top in (10, 40, 120):
            rows = rng.integers(0, top, size=(300, modes))
            rows[0] = top - 1
            rows[1] = [100 if top > 100 else 10] + [0] * (modes - 1)
            for dtype in (np.int8, np.int64):
                got = cli._count_keys(rows.astype(dtype), "%s,")
                assert got == "".join('"' + ",".join(map(str, row)) + '":%s,' for row in rows.tolist())
    assert cli._count_keys(np.zeros((0, 3), dtype=np.int8), "%s,") == ""


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
    ["single_bs:case1", "--grid-step", "3.141592653589793"],  # both coarse points excluded
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


@pytest.mark.parametrize("step", ["5e20", "1e100", "1e307"])
def test_search_at_a_huge_grid_step_is_no_internal_error(capsys, step):
    # each step is wider than the ns_in_ns domain [0, 2 pi], so the search
    # is refused before it lays a grid
    code, _, err = run_cli(capsys, "search", "ns_in_ns:case1", "--grid-step", step)
    assert code in (0, 1), err


@pytest.mark.parametrize("argv", [
    ["two_bs:case3", "--grid-step", "1e20"],
    ["two_bs:case3", "--grid-step", "4"],
    ["optimize_ns", "--grid-step", "4"],
    ["ns_in_ns:case1", "--grid-step", "7"],
], ids=["two_bs-1e20", "two_bs-4", "optimize_ns-4", "ns_in_ns-7"])
def test_search_refuses_a_step_wider_than_its_domain(capsys, argv):
    code, out, err = run_cli(capsys, "search", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("loqc: error: grid_step ") and "wider than the scan's narrowest axis" in err


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
