"""Generated user input never reaches exit code 2, and output is deterministic.

Each example runs ``loqc.cli.main`` in process twice, on a generated
circuit file, argv or ``LOQC_REPORT_DIGITS`` value. The exit code must be
0 or 1, both runs must print the same stdout and stderr, and stderr must
be empty on exit 0 and exactly one ``loqc: error:`` line on exit 1. So a
leaked warning or a stray traceback fails too. Examples are derived from
the test function, so every run tries the same inputs.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from loqc.cli import DIGITS_ENV, GATE_NAMES, SEARCH_SCHEMES, main


def examples(count):
    return settings(derandomize=True, database=None, deadline=None, max_examples=count,
                    suppress_health_check=[HealthCheck.too_slow])


def run_twice(argv, digits=None):
    """(exit code, stdout, stderr) of two runs of ``main(argv)``."""
    runs = []
    saved = os.environ.pop(DIGITS_ENV, None)
    try:
        for _ in range(2):
            if digits is not None:
                os.environ[DIGITS_ENV] = digits
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            runs.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.environ.pop(DIGITS_ENV, None)
        if saved is not None:
            os.environ[DIGITS_ENV] = saved
    return runs


def assert_well_behaved(argv, digits=None):
    (code, out, err), again = run_twice(argv, digits)
    assert code in (0, 1), (argv, digits)
    assert again == (code, out, err), (argv, digits)
    if code == 0:
        assert err == "", (argv, digits, err)
    else:
        assert re.fullmatch(r"loqc: error: [^\n]*\n", err), (argv, digits, err)


# -- argv ------------------------------------------------------------------------

BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-3", "1e-400"])
#: Grid steps of 0.2 and up keep every scheme but ns_in_ns well under a
#: second; ns_in_ns refines 201^3 points a round at any step, so it only
#: gets steps that are rejected before the scan.
CHEAP_STEPS = st.floats(min_value=0.2, max_value=8.0).map(repr)
TOLERANCES = st.floats(min_value=1e-12, max_value=1.0).map(repr)


@st.composite
def search_argv(draw):
    scheme = draw(st.sampled_from(SEARCH_SCHEMES))
    argv = ["search", scheme]
    if scheme == "ns_in_ns:case1":
        step = draw(BAD_NUMBERS)
    else:
        step = draw(st.one_of(st.none(), BAD_NUMBERS, CHEAP_STEPS))
    if step is not None:
        argv += ["--grid-step", step]
    tolerance = draw(st.one_of(st.none(), BAD_NUMBERS, TOLERANCES))
    if tolerance is not None:
        argv += ["--tolerance", tolerance]
    return argv


SELFTEST_ARGV = st.integers(min_value=-2**70, max_value=2**70).map(
    lambda seed: ["selftest", "--seed", str(seed)])
GATE_ARGV = st.sampled_from([*GATE_NAMES, "toffoli", ""]).map(lambda name: ["verify-gate", name])
JUNK_ARGV = st.lists(st.sampled_from(["search", "selftest", "verify-gate", "--pretty", "--seed",
                                      "--grid-step", "--tolerance", "ns", "optimize_ns",
                                      "-1", "0.5", "nan", "--bogus", "x"]), max_size=4)


@examples(40)
@given(argv=st.one_of(search_argv(), SELFTEST_ARGV, GATE_ARGV, JUNK_ARGV),
       pretty=st.booleans())
@example(argv=["selftest", "--seed", "-1"], pretty=False)
def test_argv_never_reaches_internal_error(argv, pretty):
    assert_well_behaved((["--pretty"] if pretty else []) + argv)


# -- LOQC_REPORT_DIGITS ------------------------------------------------------------

DIGITS = st.one_of(
    st.integers(min_value=-3, max_value=25).map(str),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
)


@examples(30)
@given(digits=DIGITS)
@example(digits="")
@example(digits="0")
@example(digits="17")
def test_report_digits_never_reach_internal_error(digits):
    assert_well_behaved(["verify-gate", "ns"], digits)


# -- circuit files --------------------------------------------------------------------

WIDTH = {"bs": 2, "ps": 1, "gen3": 3}
ANGLES = st.floats(min_value=-7.0, max_value=7.0).map(repr)
JUNK_TOKENS = st.sampled_from(["nan", "inf", "1e400", "1e200", "-1", "0", "9", "x", "eta=2", "=", "#"])


@st.composite
def element_line(draw, modes):
    kind = draw(st.sampled_from([k for k, width in WIDTH.items() if width <= modes]))
    ports = draw(st.permutations(range(1, modes + 1)))[:WIDTH[kind]]
    if kind == "bs":
        params = [draw(st.one_of(st.floats(0.0, 1.0).map(lambda v: f"eta={v!r}"),
                                 st.floats(-720.0, 720.0).map(lambda v: f"theta={v!r}")))]
    elif kind == "ps":
        params = [f"delta={draw(ANGLES)}"]
    else:
        params = [f"t{i}={draw(ANGLES)}" for i in (1, 2, 3)]
    return " ".join([kind, *map(str, ports), *params])


@st.composite
def input_line(draw, modes):
    if modes % 2 == 0 and draw(st.booleans()):
        size = 2 * 2 ** (modes // 2)  # real and imaginary part of 2^q amplitudes
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        amps = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
        norm = sum(abs(a) ** 2 for a in amps) ** 0.5
        amps = [a / norm for a in amps] if norm > 1e-3 else [1.0] + [0.0] * (len(amps) - 1)
        return "input dualrail " + " ".join(repr(complex(a)) for a in amps)
    occupations = draw(st.lists(st.integers(0, 2), min_size=modes, max_size=modes))
    return "input fock " + " ".join(map(str, occupations))


@st.composite
def circuit_file(draw):
    """A valid circuit file; one in four gets a corrupted token, a junk line
    or a few raw bytes that need not be UTF-8."""
    modes = draw(st.integers(min_value=1, max_value=4))
    lines = [f"modes {modes}", draw(input_line(modes))]
    lines += [draw(element_line(modes)) for _ in range(draw(st.integers(0, 4)))]
    if modes > 1:
        if draw(st.booleans()):
            lines.append(f"correction fix {draw(element_line(modes - 1))}")
        # branches on one port set with distinct counts never overlap
        ports = draw(st.permutations(range(1, modes + 1)))[:draw(st.integers(1, modes - 1))]
        count_sets = st.tuples(*[st.integers(0, 2)] * len(ports))
        for counts in draw(st.lists(count_sets, max_size=2, unique=True)):
            line = "detect " + " ".join(f"{p}={c}" for p, c in zip(ports, counts))
            if draw(st.booleans()):
                line += " correct " + draw(st.sampled_from(["fix", "identity"]))
            lines.append(line)
    corruption = draw(st.sampled_from([None] * 9 + ["token", "line", "bytes"]))
    if corruption == "token":
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(JUNK_TOKENS)
        lines[i] = " ".join(tokens)
    elif corruption == "line":
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.text(st.characters(codec="utf-8"), max_size=12)))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if corruption == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@pytest.fixture(scope="module")
def circuit_path(tmp_path_factory):
    return tmp_path_factory.mktemp("circuits") / "generated.circ"


@examples(60)
@given(data=circuit_file())
@example(data=b"modes 2\ninput fock 1 0\nbs 1 2 eta=0.5\ndetect 1=1\n")
@example(data=b"modes 1\n\xff\n")
@example(data=b"modes 2\ninput dualrail 1e200 1e200\n")
def test_circuit_files_never_reach_internal_error(circuit_path, data):
    circuit_path.write_bytes(data)
    assert_well_behaved(["simulate", str(circuit_path)])
