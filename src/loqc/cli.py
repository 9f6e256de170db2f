"""Command-line front end: circuit files, gate verification, searches.

Subcommands:

* ``simulate FILE``    - run a circuit description and report the outcome
  distribution, per-branch conditionals and success probability.
* ``verify-gate NAME`` - evaluate a gallery gate (ns, cs, cnot_klm,
  cnot_2photon) over its logical basis.
* ``search SCHEME``    - run a feasibility scan or the success optimizer
  (single_bs:case1, single_bs:case3, two_bs:case3, ns_in_ns:case1,
  optimize_ns).
* ``selftest``         - seeded randomized cross-checks of the simulator.

Circuit grammar (one directive per line, ``#`` starts a comment, ports
are numbered 1..N left to right):

    modes N
    input fock n1 n2 ... nN
    input dualrail a0 a1 ... a_{2^q-1}     # q qubits, complex literals
    bs I J eta=V        | bs I J theta=DEG  (eta = cos^2 theta)
    ps I delta=RAD
    gen3 I J K t1=RAD t2=RAD t3=RAD
    correction NAME <bs|ps|gen3 line>      # on surviving ports, 1-based
    detect P=C [P=C ...] [correct NAME]

A circuit file may hold at most ``MAX_CIRCUIT_BYTES`` (1 MiB), and its
``detect`` lines may measure at most ``MAX_PORT_SETS`` (64) distinct port
sets.

Reports are JSON trees with fixed key order and floats printed at 10
significant digits (override with the LOQC_REPORT_DIGITS environment
variable, which is read before any work); each float is rounded where its
report is built, so rendering only serializes. Identical invocations
produce byte-identical output. Exit
codes: 0 success, 1 diagnostics or a closed output pipe, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .encodings import Encoding, encode
from .fock import NORM_ATOL, FockState
from .gates import GATE_NAMES, evaluate_gate
from .measurement import DetectionPattern, OutcomeBranch, _check_branches, _distribution, _Overlap, postselect_branches
from .multiport import (MAX_MODES, ElementSpec, ModeTransform, beam_splitter, check_term_budget, compose_elements,
                        evolve, general3)
from .search import (
    ns_in_ns_feasibility,
    optimize_success,
    single_bs_infeasibility,
    two_bs_feasibility,
)

SEARCH_SCHEMES = ("single_bs:case1", "single_bs:case3", "two_bs:case3",
                  "ns_in_ns:case1", "optimize_ns")

DIGITS_ENV = "LOQC_REPORT_DIGITS"
DEFAULT_DIGITS = 10

#: Largest circuit file ``simulate`` reads, in bytes: 512 times the largest
#: file the benchmark generates (2,049 bytes).
MAX_CIRCUIT_BYTES = 1 << 20

#: Most distinct port sets the ``detect`` lines of a circuit file may
#: measure. Postselection sorts the output once per port set, and the
#: overlap check compares every pair of port sets. At this budget the worst
#: admitted file, 64 modes with 3 photons (45,760 output terms, the most 64
#: modes admit) and one detect line per port set, simulates in 2.1 s in
#: process, against 0.4 s with one detect line; a 1 MiB file of 37,846
#: detect lines on 64 port sets takes 5.0 s, against 2.3 s for 68,118 lines
#: on one (``BENCH_37.json``).
MAX_PORT_SETS = 64


class CliError(Exception):
    """A user-facing diagnostic (exit code 1)."""


@dataclass
class ParseError(Exception):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


# -- circuit description files -------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """A parsed circuit file; every port is already a 0-based mode index."""

    modes: int
    state: FockState | None                           # None without an input line
    elements: tuple[ElementSpec, ...]
    branches: tuple[tuple[str, OutcomeBranch], ...]   # (correction name, branch)
    family: tuple[OutcomeBranch, ...]                 # the branches, checked (``_check_branches``)


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs: the runs of non-whitespace
    (``str.split``), each found after the one before it; text after '#'
    is a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    pairs, end = [], 0
    for tok in line.split():
        start = line.index(tok, end)
        end = start + len(tok)
        pairs.append((tok, start + 1))
    return pairs


def _parse_float(tok: str, lineno: int, col: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(lineno, col, f"invalid {what}: {tok!r}") from None
    if not math.isfinite(value):
        raise ParseError(lineno, col, f"{what} must be finite, got {tok!r}")
    return value


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, col, f"invalid {what}: {tok!r}") from None


def _parse_kv(tok: str, lineno: int, col: int, key: str) -> float:
    if "=" not in tok:
        raise ParseError(lineno, col, f"expected {key}=<value>, got {tok!r}")
    name, _, raw = tok.partition("=")
    if name != key:
        raise ParseError(lineno, col, f"expected parameter {key!r}, got {name!r}")
    return _parse_float(raw, lineno, col + len(name) + 1, key)


def _parse_port(tok: str, lineno: int, col: int, modes: int) -> int:
    port = _parse_int(tok, lineno, col, "port")
    if not 1 <= port <= modes:
        raise ParseError(lineno, col, f"port {port} out of range 1..{modes}")
    return port


def _check_term_budget(photons: int, modes: int, lineno: int, col: int) -> None:
    try:
        check_term_budget(photons, modes)
    except ValueError as exc:
        raise ParseError(lineno, col, str(exc)) from None


def _parse_element(tokens: list[tuple[str, int]], lineno: int, modes: int) -> ElementSpec:
    """A ``bs``, ``ps`` or ``gen3`` line as an element on 0-based modes.

    Ports are checked here as ints in 1..``modes`` and distinct, ``eta``
    in [0, 1] and every value finite, so the element is built unchecked
    (``ElementSpec._wrap``) from the block ``ElementSpec.bs``, ``ps`` or
    ``gen3`` would make.
    """
    kind = tokens[0][0]
    want_ports = {"bs": 2, "ps": 1, "gen3": 3}[kind]
    if len(tokens) < 1 + want_ports:
        raise ParseError(lineno, tokens[0][1], f"{kind} needs {want_ports} port(s)")
    ports = tuple(
        _parse_port(tok, lineno, col, modes) - 1 for tok, col in tokens[1:1 + want_ports]
    )
    if len(set(ports)) != len(ports):
        raise ParseError(lineno, tokens[1][1], f"{kind} ports must be distinct")
    rest = tokens[1 + want_ports:]
    if kind == "bs":
        if len(rest) != 1:
            raise ParseError(lineno, tokens[0][1], "bs takes exactly one of eta= or theta=")
        tok, col = rest[0]
        if tok.startswith("eta="):
            eta = _parse_kv(tok, lineno, col, "eta")
            if not 0.0 <= eta <= 1.0:
                raise ParseError(lineno, col, f"eta must lie in [0, 1], got {eta}")
        elif tok.startswith("theta="):
            theta_deg = _parse_kv(tok, lineno, col, "theta")
            eta = math.cos(math.radians(theta_deg)) ** 2
        else:
            raise ParseError(lineno, col, f"expected eta= or theta=, got {tok!r}")
        return ElementSpec._wrap(ports, beam_splitter(eta))
    if kind == "ps":
        if len(rest) != 1:
            raise ParseError(lineno, tokens[0][1], "ps takes exactly delta=<radians>")
        tok, col = rest[0]
        delta = _parse_kv(tok, lineno, col, "delta")
        return ElementSpec._wrap(ports, ModeTransform._unitary([[np.exp(1j * delta)]]))
    if len(rest) != 3:
        raise ParseError(lineno, tokens[0][1], "gen3 takes t1= t2= t3= (radians)")
    angles = tuple(
        _parse_kv(tok, lineno, col, f"t{i + 1}") for i, (tok, col) in enumerate(rest)
    )
    return ElementSpec._wrap(ports, general3(*angles))


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit description; every failure is a positioned error."""
    modes: int | None = None
    state: FockState | None = None
    elements: list[ElementSpec] = []
    # name -> [(element, line, port columns)] in file order; 'identity' is
    # reserved and names no element
    corrections: dict[str, list[tuple[ElementSpec, int, list[int]]]] = {"identity": []}
    detects: list[tuple[DetectionPattern, str, int, int]] = []   # (pattern, correction, line, column)
    port_sets: set[tuple[int, ...]] = set()   # the measured port sets

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if head == "modes":
            if modes is not None:
                raise ParseError(lineno, head_col, "duplicate modes declaration")
            if len(tokens) != 2:
                raise ParseError(lineno, head_col, "usage: modes N")
            n = _parse_int(tokens[1][0], lineno, tokens[1][1], "mode count")
            if n < 1:
                raise ParseError(lineno, tokens[1][1], "mode count must be positive")
            if n > MAX_MODES:
                raise ParseError(lineno, tokens[1][1],
                                 f"{n} modes requested; at most MAX_MODES = {MAX_MODES} "
                                 f"are supported")
            modes = n
            continue

        if modes is None:
            raise ParseError(lineno, head_col, "modes must be declared before any other directive")

        if head == "input":
            if state is not None:
                raise ParseError(lineno, head_col, "duplicate input declaration")
            if len(tokens) < 2:
                raise ParseError(lineno, head_col, "usage: input fock|dualrail <values>")
            kind = tokens[1][0]
            values = tokens[2:]
            if kind == "fock":
                if len(values) != modes:
                    raise ParseError(lineno, tokens[1][1],
                                     f"input fock needs {modes} occupation number(s)")
                occ = []
                for tok, col in values:
                    n = _parse_int(tok, lineno, col, "occupation")
                    if n < 0:
                        raise ParseError(lineno, col, "occupations must be non-negative")
                    occ.append(n)
                _check_term_budget(sum(occ), modes, lineno, tokens[1][1])
                state = FockState.from_occupation(occ)
            elif kind == "dualrail":
                count = len(values)
                if count == 0 or count & (count - 1):
                    raise ParseError(lineno, tokens[1][1],
                                     "input dualrail needs 2^q amplitudes")
                qubits = count.bit_length() - 1
                if 2 * qubits != modes:
                    raise ParseError(lineno, tokens[1][1],
                                     f"{count} amplitudes encode {qubits} qubit(s) "
                                     f"needing {2 * qubits} modes, file declares {modes}")
                _check_term_budget(qubits, modes, lineno, tokens[1][1])
                amps = []
                for tok, col in values:
                    try:
                        a = complex(tok)
                    except ValueError:
                        raise ParseError(lineno, col, f"invalid amplitude: {tok!r}") from None
                    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                        raise ParseError(lineno, col, "amplitudes must be finite")
                    # a normalized vector has no larger entry, and the norm
                    # of larger ones can overflow
                    if (mag := math.hypot(a.real, a.imag)) > 1.0 + NORM_ATOL:
                        raise ParseError(lineno, col, f"amplitude magnitude {mag:.10g} exceeds 1, "
                                                      f"so the amplitudes are not normalized")
                    amps.append(a)
                vec = np.array(amps, dtype=complex)
                norm = float(np.linalg.norm(vec))  # as encode computes it
                if abs(norm - 1.0) > NORM_ATOL:
                    raise ParseError(lineno, tokens[1][1],
                                     f"amplitudes are not normalized (norm {norm:.10f})")
                state = encode(vec, Encoding("dual_rail", qubits))
            else:
                raise ParseError(lineno, tokens[1][1],
                                 f"unknown input kind {kind!r} (use fock or dualrail)")
            continue

        if head in ("bs", "ps", "gen3"):
            elements.append(_parse_element(tokens, lineno, modes))
            continue

        if head == "correction":
            if len(tokens) < 3:
                raise ParseError(lineno, head_col, "usage: correction NAME <element line>")
            name = tokens[1][0]
            if name == "identity":
                raise ParseError(lineno, tokens[1][1],
                                 "correction name 'identity' is reserved: "
                                 "'correct identity' applies no correction")
            if tokens[2][0] not in ("bs", "ps", "gen3"):
                raise ParseError(lineno, tokens[2][1],
                                 f"correction element must be bs, ps or gen3, got {tokens[2][0]!r}")
            # ports inside a correction refer to surviving-mode positions;
            # range is rechecked per referencing branch below
            el = _parse_element(tokens[2:], lineno, modes)
            port_cols = [col for _, col in tokens[3:3 + len(el.modes)]]
            corrections.setdefault(name, []).append((el, lineno, port_cols))
            continue

        if head == "detect":
            words = [tok for tok, _ in tokens]
            cut = words.index("correct") if "correct" in words else len(tokens)
            counts: dict[int, int] = {}
            for tok, col in tokens[1:cut]:
                if "=" not in tok:
                    raise ParseError(lineno, col, f"expected PORT=COUNT, got {tok!r}")
                port_s, _, count_s = tok.partition("=")
                port = _parse_port(port_s, lineno, col, modes)
                count = _parse_int(count_s, lineno, col + len(port_s) + 1, "photon count")
                if count < 0:
                    raise ParseError(lineno, col, "photon counts must be non-negative")
                counts[port - 1] = count
            tail = tokens[cut:]   # empty, or 'correct NAME'
            if len(tail) == 1:
                raise ParseError(lineno, tail[0][1], "correct needs a correction name")
            if len(tail) > 2:
                raise ParseError(lineno, tail[2][1], "correct NAME must end the detect line")
            if cut == 1:
                raise ParseError(lineno, head_col, "detect needs at least one PORT=COUNT")
            if len(counts) != cut - 1:
                raise ParseError(lineno, head_col, "detect ports must be distinct")
            if len(counts) >= modes:
                raise ParseError(lineno, head_col,
                                 "detect must leave at least one surviving port")
            port_sets.add(tuple(sorted(counts)))
            if len(port_sets) > MAX_PORT_SETS:
                raise ParseError(lineno, head_col, f"detect lines measure more than "
                                                   f"MAX_PORT_SETS = {MAX_PORT_SETS} distinct port sets")
            name = tail[1][0] if tail else "identity"
            if name not in corrections:
                raise ParseError(lineno, head_col, f"unknown correction {name!r}")
            detects.append((DetectionPattern(counts), name, lineno, head_col))
            continue

        raise ParseError(lineno, head_col, f"unknown directive {head!r}")

    if modes is None:
        raise ParseError(1, 1, "missing modes declaration")

    # corrections act on surviving ports: check every branch against its
    # correction's highest port before anything is composed, naming the
    # first bad port in file order; compose once per (name, survivor count),
    # then check the family, naming the least overlapping pair at its later line
    highest = {name: max((m for el, _, _ in els for m in el.modes), default=-1)
               for name, els in corrections.items()}
    labelled = []
    for pattern, name, _, _ in detects:
        label = " ".join(f"{m + 1}={c}" for m, c in pattern.constraints)
        surviving = modes - len(pattern.constraints)   # its ports are checked above
        if highest[name] >= surviving:
            line, col, m = next((line, col, m) for el, line, port_cols in corrections[name]
                                for m, col in zip(el.modes, port_cols) if m >= surviving)
            raise ParseError(line, col, f"correction {name!r} uses port {m + 1} but branch "
                                        f"'{label}' leaves only {surviving} surviving port(s)")
        labelled.append((pattern, name, label, surviving))
    composed: dict[tuple[str, int], ModeTransform | None] = {}
    branches = []
    for pattern, name, label, surviving in labelled:
        if (name, surviving) not in composed:
            specs = [el for el, _, _ in corrections[name]]
            composed[name, surviving] = compose_elements(specs, surviving) if specs else None
        branches.append((name, OutcomeBranch(pattern, composed[name, surviving], label=label)))
    try:
        family = _check_branches([b for _, b in branches], modes) if branches else ()
    except _Overlap as exc:
        raise ParseError(*detects[exc.pair[1]][2:], str(exc)) from None
    return Circuit(modes, state, tuple(elements), tuple(branches), family)


# -- report assembly -------------------------------------------------------

def _report_header(command: str, digested: str, **details) -> dict:
    """The ``tool``/``command``/``input`` keys that open every report;
    ``input.digest`` is the sha256 of ``digested``, then ``details``."""
    return {
        "tool": {"name": "loqc", "version": __version__},
        "command": command,
        "input": {"digest": "sha256:" + hashlib.sha256(digested.encode()).hexdigest(), **details},
    }


@dataclass(frozen=True)
class _JsonText:
    """A top-level report value already written as compact JSON;
    ``render_report`` writes it as it stands."""

    text: str


#: ``json.dumps`` with the compact separators every report is written with.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _count_keys(rows: np.ndarray, entry: str) -> str:
    """A ``%`` template with one JSON member per row of photon counts: the
    counts, comma-separated, as its key ("1,0,2"), then ``entry``. Written
    for all rows at once as bytes, one digit place of every count at a
    time; a zero ahead of a count's first digit is dropped."""
    n, m = rows.shape
    width = len(str(int(rows.max()))) if rows.size else 1
    step = width + 1   # a count's places and the comma after it
    buf = np.zeros((n, m * step + 2 + len(entry)), np.uint8)
    buf[:, 0] = ord('"')
    buf[:, step:m * step:step] = ord(",")
    buf[:, m * step:] = np.frombuffer(('":' + entry).encode(), np.uint8)
    place = 1
    for k in range(width, 0, -1):
        ahead = rows // place
        cells = (ahead % 10 + ord("0")).astype(np.uint8)
        if place > 1:
            cells[ahead == 0] = 0
        buf[:, k:m * step:step] = cells
        place *= 10
    flat = buf.ravel()
    return (flat[flat != 0] if width > 1 else flat).tobytes().decode()


def _json_map(rows: np.ndarray, values: np.ndarray, digits: int) -> str:
    """The JSON object that maps each row of counts (``_count_keys``) to its
    value rounded to ``digits`` significant digits: a number for a value
    array of shape (n,), a ``[re, im]`` pair for shape (n, 2). Every number
    is written as ``json.dumps(float(format(x, f".{digits}g")))``.

    Checked domain: for ``digits`` <= 15 and a value that is zero or normal
    with ``|x|`` <= 1, that text is the ``%.{digits}g`` text itself, with
    ".0" appended when it has no "." and no "e" (only 0 and 1 are written
    so). A map whose values all lie there is written in one ``%`` pass over
    the ``_count_keys`` template, with no float parsed back.

    The one guard: a map with any value outside it (a nonzero ``|x|`` below
    ``sys.float_info.min``, ``|x|`` > 1, or ``digits`` >= 16) takes the
    float round trip, ``_rounded`` and then ``json.dumps`` of each float.
    There the ``%g`` text can differ: ``%.1g`` of 9.6 is "1e+01", the JSON
    of its float "10.0"."""
    def entry(spec: str) -> str:
        return f"[{spec},{spec}]," if values.ndim == 2 else spec + ","

    mag = np.abs(values)
    if digits >= 16 or ((mag > 1.0) | ((mag < sys.float_info.min) & (mag != 0))).any():
        text = _count_keys(rows, entry("%s")) % tuple(map(_dumps, _rounded(values.ravel(), digits)))
        return "{" + text[:-1] + "}"
    text = _count_keys(rows, entry(f"%.{digits}g")) % tuple(values.ravel().tolist())
    if ((mag == 0) | (mag > 0.5)).any():   # only these can be written as 0 or ±1
        for before, after in (("[", ","), (",", "]")) if values.ndim == 2 else ((":", ","),):
            for bare in ("0", "-0", "1", "-1"):
                text = text.replace(before + bare + after, before + bare + ".0" + after)
    return "{" + text[:-1] + "}"


def _rounded(values: np.ndarray, digits: int) -> list[float]:
    """``float(format(x, f".{digits}g"))`` of each value, formatted for all
    values at once."""
    return list(map(float, ((f"%.{digits}g " * len(values)) % tuple(values.tolist())).split()))


def simulate_report(circ: Circuit, source_text: str, digits: int) -> dict:
    """The ``simulate`` report; each float is rounded to ``digits``
    significant digits as it is written. Its ``outcomes`` and ``branches``
    are JSON text (``_JsonText``): the outcome map and each branch's
    conditional map are written from the state's arrays (``_json_map``)."""
    if circ.state is None:
        raise CliError("circuit file has no input declaration")
    spec = f".{digits}g"
    out = evolve(circ.state, compose_elements(circ.elements, circ.modes))

    measured = sorted({m for modes in circ.family.groups for m in modes}) if circ.family else list(range(circ.modes))
    counts, probs, runs = _distribution(out, measured)   # the counts in ascending order
    if circ.branches:
        try:   # branches on the measured ports read the distribution's runs
            evaluated = postselect_branches(out, circ.family, _runs=(measured, runs))
        except ValueError as exc:
            raise CliError(str(exc)) from None
    del runs   # the sorted output is not held while the report's maps are written

    report = {
        **_report_header("simulate", source_text, modes=circ.modes,
                         mode_order="ports 1..N left to right; internal indices are ports minus 1"),
        "measured_ports": [m + 1 for m in measured],
        "outcomes": _JsonText(_json_map(counts, probs, digits)),
    }

    if circ.branches:
        rows = []
        total = 0.0
        for (name, branch), (_, res) in zip(circ.branches, evaluated):
            total += res.probability
            conditional = "{}"
            if res.conditional_state is not None:
                occs, amps = res.conditional_state._sorted_arrays()
                conditional = _json_map(occs, np.stack([amps.real, amps.imag], axis=1), digits)
            head = _dumps({
                "pattern": branch.label,
                "correction": name,
                "probability": float(format(res.probability, spec)),
                "surviving_ports": [m + 1 for m in circ.family.survivors[branch.pattern.modes]],
            })
            rows.append(head[:-1] + ',"conditional":' + conditional + "}")   # the head's last member
        report["branches"] = _JsonText("[" + ",".join(rows) + "]")
        report["success_probability"] = float(format(total, spec))
    return report


def gate_report(name: str) -> dict:
    return {
        **_report_header("verify-gate", name, gate=name,
                         mode_order="ports 1..N left to right; dual-rail qubit q uses ports 2q+1, 2q+2 "
                                    "with the photon on the first port encoding logical 0"),
        **evaluate_gate(name),
    }


def search_report(scheme: str, grid_step: float | None, tolerance: float | None) -> dict:
    if scheme not in SEARCH_SCHEMES:
        raise CliError(f"unknown search scheme {scheme!r}; choose from {', '.join(SEARCH_SCHEMES)}")
    for flag, value in (("--grid-step", grid_step), ("--tolerance", tolerance)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise CliError(f"{flag} must be finite and positive, got {value}")
    if scheme == "optimize_ns" and tolerance is not None:
        raise CliError("--tolerance does not apply to optimize_ns, which gives no verdict")
    # unset flags are left out, so the library's defaults apply
    step = {} if grid_step is None else {"grid_step": grid_step}
    tol = {} if tolerance is None else {"tolerance": tolerance}

    try:
        if scheme.startswith("single_bs:"):
            records = [
                single_bs_infeasibility(int(scheme[-1]), target=target, **step, **tol).to_record()
                for target in ("sign_flip", "restore")
            ]
        elif scheme == "two_bs:case3":
            records = [two_bs_feasibility(**step, **tol).to_record()]
        elif scheme == "ns_in_ns:case1":
            records = [ns_in_ns_feasibility(**step, **tol).to_record()]
        else:
            records = [optimize_success(**step).to_record()]
    except ValueError as exc:  # empty grid or a scan budget exceeded
        raise CliError(str(exc)) from None

    request = f"{scheme}|grid_step={grid_step}|tolerance={tolerance}"
    return {**_report_header("search", request, scheme=scheme), "reports": records}


def selftest_report(seed: int) -> dict:
    if seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {seed}")
    from .multiport import permanent_amplitude
    from .encodings import SCHEMES, decode, zy_decompose
    from .search import closed_form_amplitudes, parametrized_ns_amplitudes

    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, deviation: float, tol: float):
        checks.append({"name": name, "max_deviation": deviation,
                       "tolerance": tol, "passed": bool(deviation <= tol)})

    def random_unitary(dim: int) -> np.ndarray:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    dev = 0.0
    for _ in range(10):
        t = ModeTransform(random_unitary(3))
        occs = [(2, 0, 1), (1, 1, 0), (0, 0, 3), (1, 1, 1)]
        for inp in occs:
            out = evolve(FockState.from_occupation(inp), t, prune_tol=0.0)
            for outp in occs:
                if sum(outp) != sum(inp):
                    continue
                dev = max(dev, abs(out.amplitude(outp) - permanent_amplitude(inp, outp, t)))
    record("evolve vs permanent oracle", dev, 1e-10)

    dev = 0.0
    for _ in range(20):
        t = ModeTransform(random_unitary(3))
        amps = {tuple(rng.integers(0, 3, 3)): complex(*rng.normal(size=2)) for _ in range(4)}
        state = FockState(3, amps)
        if state.norm() == 0:
            continue
        dev = max(dev, abs(evolve(state, t).norm() - state.norm()))
    record("norm conservation", dev, 1e-9)

    dev = 0.0
    for scheme in SCHEMES:
        enc = Encoding(scheme, 2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        w, leak = decode(encode(v, enc), enc)
        dev = max(dev, float(np.abs(w - v).max()), leak)
    record("encode/decode round trip", dev, 1e-9)

    dev = 0.0
    for _ in range(25):
        u = random_unitary(2)
        dec = zy_decompose(u)
        dev = max(dev, float(np.abs(dec.rotation_product() - u).max()))
    record("zy reconstruction", dev, 1e-9)

    dev = 0.0
    for _ in range(25):
        angles = tuple(rng.uniform(0, 2 * math.pi, 3))
        sim = parametrized_ns_amplitudes(angles)
        for key, val in closed_form_amplitudes(angles).items():
            dev = max(dev, abs(sim[key] - val))
    record("closed forms vs simulator", dev, 1e-10)

    return {
        "tool": {"name": "loqc", "version": __version__},
        "command": "selftest",
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# -- output formatting -----------------------------------------------------

def _report_digits() -> int:
    raw = os.environ.get(DIGITS_ENV)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise CliError(f"{DIGITS_ENV} must be an integer, got {raw!r}") from None
    if not 1 <= digits <= 17:
        raise CliError(f"{DIGITS_ENV} must lie in 1..17, got {digits}")
    return digits


def _quantize(obj, digits: int):
    """A report tree with every float rounded to ``digits`` significant
    digits; for the small reports (``simulate_report`` rounds its own)."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _quantize(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v, digits) for v in obj]
    return obj


def render_report(report: dict, pretty: bool = False) -> str:
    """The report as printed: compact JSON, or the ``--pretty`` listing.
    Its floats are already rounded; the compact text is each top-level
    value's ``json.dumps`` or, for a ``_JsonText``, its text, in key order."""
    if pretty:
        return _render_pretty(report)
    return "{" + ",".join([_dumps(k) + ":" + (v.text if isinstance(v, _JsonText) else _dumps(v))
                           for k, v in report.items()]) + "}"


def _render_pretty(report: dict) -> str:
    lines = [f"loqc {report['tool']['version']} - {report['command']}"]

    def walk(obj, indent: int, label: str | None = None):
        pad = "  " * indent
        if isinstance(obj, _JsonText):   # each number as its text, which is str() of its float
            obj = json.loads(obj.text, parse_float=str)
        if isinstance(obj, dict):
            if label:
                lines.append(f"{pad}{label}:")
            for k, v in obj.items():
                walk(v, indent + (1 if label else 0), str(k))
        elif isinstance(obj, list):
            if label:
                lines.append(f"{pad}{label}:")
            for i, v in enumerate(obj):
                walk(v, indent + (1 if label else 0), f"[{i}]")
        else:
            lines.append(f"{pad}{label}: {obj}")

    for key, value in report.items():
        if key in ("tool", "command"):
            continue
        walk(value, 0, str(key))
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------

def _read_circuit(path: str) -> str:
    """A circuit file's text, read in at most ``MAX_CIRCUIT_BYTES`` + 1 bytes
    and decoded as ``Path.read_text`` would: UTF-8, universal newlines."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_CIRCUIT_BYTES + 1)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    if len(data) > MAX_CIRCUIT_BYTES:
        raise CliError(f"cannot read {path}: larger than "
                       f"MAX_CIRCUIT_BYTES = {MAX_CIRCUIT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # diagnostics, not usage-exit(2)
        raise CliError(message)


@functools.cache   # parsing leaves the parser as it was
def _make_parser() -> _Parser:
    parser = _Parser(prog="loqc", description="postselected linear-optics simulator")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="subcommand")

    p_sim = sub.add_parser("simulate", help="run a circuit description file")
    p_sim.add_argument("file")

    p_gate = sub.add_parser("verify-gate", help="evaluate a gallery gate")
    p_gate.add_argument("name", choices=GATE_NAMES)

    p_search = sub.add_parser("search", help="feasibility scans and optimization")
    p_search.add_argument("scheme", choices=SEARCH_SCHEMES)
    p_search.add_argument("--grid-step", type=float, default=None)
    p_search.add_argument("--tolerance", type=float, default=None)

    p_self = sub.add_parser("selftest", help="seeded randomized cross-checks")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise CliError("a subcommand is required (simulate, verify-gate, search, selftest)")
        digits = _report_digits()   # before any work, so a bad value costs none
        if args.subcommand == "simulate":
            text = _read_circuit(args.file)
            try:
                circ = parse_circuit(text)
            except ParseError as exc:
                raise CliError(f"{args.file}:{exc.line}:{exc.column}: {exc.message}") from None
            report = simulate_report(circ, text, digits)
        elif args.subcommand == "verify-gate":
            report = _quantize(gate_report(args.name), digits)
        elif args.subcommand == "search":
            report = _quantize(search_report(args.scheme, args.grid_step, args.tolerance), digits)
        else:
            report = _quantize(selftest_report(args.seed), digits)
        print(render_report(report, pretty=args.pretty))
        sys.stdout.flush()
        if args.subcommand == "selftest" and not report["passed"]:
            return 1
        return 0
    except CliError as exc:
        print(f"loqc: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; the exit-time flush goes to devnull (Python docs, note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"loqc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
