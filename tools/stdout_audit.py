#!/usr/bin/env python3
"""Byte-identity audit of ``loqc`` output over a fixed set of invocations.

    python tools/stdout_audit.py OUT.json
    python tools/stdout_audit.py --compare A.json B.json

The first form runs every invocation in process through ``loqc.cli.main``
and writes ``{invocation: "exit:sha256-of-stdout:sha256-of-stderr"}``,
with the temporary directory of the circuit files written as ``CIRCUITS``
in stderr, so that a diagnostic's text is compared. The second lists the
invocations whose entries differ (or that only one file has) and exits 1
if there are any. A change meant to leave reports byte-identical runs the
first form at the parent commit and at the change, then compares.

The set, each at default digits and at ``LOQC_REPORT_DIGITS`` 3, 15, 16
and 17 (17 digits round no double, so only a shorter setting shows a float
that skipped rounding; ``simulate`` writes its maps from the ``%g`` text up
to 15 digits and takes the float round trip from 16):
``verify-gate`` on every gallery gate; the five searches at their default
grid and at ``--grid-step`` 0.3 and 0.1 (at 0.1 the ``optimize_ns`` and
``ns_in_ns`` scans take several first-axis values per kernel call, and
``ns_in_ns``'s last coarse call fewer than the rest), at a step equal to
the width of each scheme's domain (pi; 2 pi for ``ns_in_ns``), the widest
step the scan engine admits, and at the next double above it, which it
refuses (exit 1); ``selftest`` with seeds 0 and 7;
``simulate`` on the circuit files the benchmark's ``circuits_full``
workload writes for seeds 0 and 7 (``perfbench/workloads.write_circuits``,
imported read-only), on the three files of ``PORT_SET_CIRCUITS``,
whose branches measure several port sets, on the three files of
``ELEMENT_EDGE_CIRCUITS``, whose elements sit at edge values, and on the
two of ``DIAGNOSTIC_CIRCUITS``, each a diagnostic (exit 1); ``--pretty``
on ``verify-gate cs`` and one ``simulate``. The library is imported from
this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loqc.cli  # noqa: E402
import workloads  # noqa: E402

DIGITS = (None, "3", "15", "16", "17")
SEEDS = (0, 7)

#: Width of each search scheme's domain: each axis runs from 0 to it.
DOMAIN_WIDTHS = {"single_bs:case1": math.pi, "single_bs:case3": math.pi, "two_bs:case3": math.pi,
                 "ns_in_ns:case1": 2 * math.pi, "optimize_ns": math.pi}

_NESTED = ("1=1", "1=2", "1=0 2=0", "1=0 2=1", "1=0 2=2 3=0", "1=0 2=2 3=1")

#: (name, modes, input occupation, correction lines, detect lines): outputs
#: of 792, 715 and 5,005 terms. The first two files' detect lines measure
#: three port sets (1; 1, 2; 1, 2, 3), the second's through a correction;
#: each of the third's measures its own port set, and its last keeps nothing.
PORT_SET_CIRCUITS = (
    ("ports8n5", 8, (1, 1, 1, 1, 1, 0, 0, 0), [], [f"detect {c}" for c in _NESTED]),
    ("ports10n4", 10, (0, 1, 0, 1, 0, 1, 0, 1, 0, 0),
     ["correction fix bs 1 2 eta=0.3", "correction fix ps 2 delta=0.7"],
     [f"detect {c} correct fix" for c in _NESTED]),
    ("ports10n6", 10, (1, 1, 1, 1, 1, 1, 0, 0, 0, 0), [],
     ["detect 1=1 2=0", "detect 1=2 3=0", "detect 1=3 4=1", "detect 1=0 5=2", "detect 1=4 6=7"]),
)


_HALF_PI = "1.5707963267948966"

#: (name, lines): circuit files whose elements sit at edge values, so that
#: exact 0, 1 and -0.0 entries stand in their blocks and composed matrices
#: (``bs`` at eta 0 has -r = -0.0) and exact 0.0, 1.0 and -1.0 values in
#: the printed maps: ``bs`` at eta 0 and 1 and theta 90, 0 and -0;
#: ``ps`` at delta 0.0, -0.0, pi and 1e308, each file with one on a mode
#: no other element touches; ``gen3`` at angles 0 and pi/2; and
#: corrections at such values on the surviving ports.
ELEMENT_EDGE_CIRCUITS = (
    ("edge_bs5n3", ["modes 5", "input fock 1 1 0 0 1", "bs 1 2 eta=0", "bs 2 3 eta=1",
                    "bs 3 4 theta=90", "bs 1 2 theta=-0", "bs 2 3 theta=0", "bs 2 3 eta=0.5",
                    "ps 5 delta=-0.0", "ps 1 delta=0.0", "correction fix bs 1 2 eta=1",
                    "correction fix ps 2 delta=-0.0", "detect 4=0 correct fix", "detect 4=1",
                    "detect 4=2 3=0 correct fix"]),
    ("edge_ps6n3", ["modes 6", "input fock 1 0 1 0 0 1", "bs 1 2 eta=0.5", "bs 3 4 eta=1",
                    "ps 6 delta=-0.0", "ps 6 delta=1e308", "ps 3 delta=-0.0", "bs 2 3 theta=90",
                    "ps 6 delta=3.141592653589793", "correction flip ps 1 delta=-0.0",
                    "correction flip bs 2 3 eta=0", "detect 4=0 correct flip",
                    "detect 4=1 correct flip", "detect 4=2 5=0"]),
    ("edge_gen3_5n2", ["modes 5", "input fock 0 1 0 0 1", "gen3 1 2 3 t1=0 t2=0 t3=0",
                       f"gen3 2 3 4 t1={_HALF_PI} t2={_HALF_PI} t3={_HALF_PI}",
                       f"gen3 4 1 2 t1=0 t2={_HALF_PI} t3=-0.0", "ps 5 delta=-0.0", "bs 3 4 eta=1",
                       f"correction g gen3 1 2 3 t1={_HALF_PI} t2=0 t3={_HALF_PI}",
                       "correction g ps 4 delta=-0.0", "detect 5=1 correct g", "detect 5=0",
                       "detect 5=2 4=0"]),
)


#: (name, lines): circuit files that are diagnostics: an overlapping pair
#: of detect lines that name a correction, and a correction port past the
#: survivors of a branch that also overlaps another.
DIAGNOSTIC_CIRCUITS = (
    ("overlap_corrected", ["modes 4", "input fock 1 1 0 0", "bs 1 2 eta=0.5", "correction fix ps 1 delta=0.5",
                           "correction fix bs 1 2 eta=0.3", "detect 4=1 correct fix", "detect 4=0 3=1 correct fix",
                           "detect 4=0 correct fix"]),
    ("port_past_survivors", ["modes 3", "input fock 1 0 0", "correction c bs 1 3 eta=0.5", "detect 2=0 correct c",
                             "detect 3=0"]),
)


def _port_set_circuit(modes: int, occupation: tuple[int, ...], corrections: list[str],
                      detects: list[str]) -> str:
    """A brickwork of splitters and phases with fixed parameters, one
    ``gen3``, the corrections and the detect lines."""
    lines = [f"modes {modes}", "input fock " + " ".join(map(str, occupation))]
    for layer in range(modes):
        for i in range(layer % 2, modes - 1, 2):
            lines.append(f"bs {i + 1} {i + 2} eta={0.2 + 0.6 * ((3 * layer + i) % 7) / 6:.3f}")
        lines.append(f"ps {layer + 1} delta={0.3 * layer - 1.1:.2f}")
        if layer == 2:
            lines.append("gen3 1 4 7 t1=0.4 t2=1.1 t3=2.3")
    return "\n".join(lines + corrections + detects) + "\n"


def _invocations(circuits: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) pairs; keys name circuit files relative to ``circuits``."""
    runs = [(f"verify-gate {g}", ["verify-gate", g]) for g in loqc.cli.GATE_NAMES]
    for scheme in loqc.cli.SEARCH_SCHEMES:
        runs.append((f"search {scheme}", ["search", scheme]))
        runs += [(f"search {scheme} --grid-step {step}", ["search", scheme, "--grid-step", step])
                 for step in ("0.3", "0.1")]
    for scheme, width in DOMAIN_WIDTHS.items():
        runs += [(f"search {scheme} --grid-step {step!r}", ["search", scheme, "--grid-step", repr(step)])
                 for step in (width, math.nextafter(width, math.inf))]
    runs += [(f"selftest --seed {s}", ["selftest", "--seed", str(s)]) for s in SEEDS]
    files = workloads.write_circuits(workloads.DEFAULT_SEED, "default", 1, circuits / "default")
    for seed in SEEDS:
        files += workloads.write_circuits(seed, "seeded", workloads.FILES_PER_TEMPLATE,
                                          circuits / f"seed{seed}")
    names = [path.relative_to(circuits).as_posix() for _, path, _ in files]
    runs += [(f"simulate {name}", ["simulate", str(circuits / name)]) for name in names]
    runs.append(("--pretty verify-gate cs", ["--pretty", "verify-gate", "cs"]))
    runs.append((f"--pretty simulate {names[-1]}", ["--pretty", "simulate", str(circuits / names[-1])]))
    for name, *spec in PORT_SET_CIRCUITS:
        path = circuits / f"{name}.txt"
        path.write_text(_port_set_circuit(*spec), encoding="utf-8")
        runs.append((f"simulate {name}.txt", ["simulate", str(path)]))
    for name, lines in ELEMENT_EDGE_CIRCUITS + DIAGNOSTIC_CIRCUITS:
        path = circuits / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runs.append((f"simulate {name}.txt", ["simulate", str(path)]))
    return runs


def _run(argv: list[str], circuits: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = loqc.cli.main(argv)
    texts = (out.getvalue(), err.getvalue().replace(circuits, "CIRCUITS"))
    return ":".join([str(code), *(hashlib.sha256(t.encode()).hexdigest() for t in texts)])


def audit() -> dict[str, str]:
    """Run every invocation at each digit setting; sets ``LOQC_REPORT_DIGITS``
    in this process as it goes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = _invocations(Path(tmp))
        for digits in DIGITS:
            os.environ.pop(loqc.cli.DIGITS_ENV, None)
            prefix = ""
            if digits is not None:
                os.environ[loqc.cli.DIGITS_ENV] = digits
                prefix = f"{loqc.cli.DIGITS_ENV}={digits} "
            for key, argv in runs:
                digests[prefix + key] = _run(argv, tmp)
    return digests


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the invocations whose digests differ between two audits")
    parser.add_argument("out", nargs="?", help="where to write the audit")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differing = compare(a, b)
        for key in differing:
            print(f"{key}: {a.get(key, 'missing')} != {b.get(key, 'missing')}")
        print(f"{len(differing)} of {len(a.keys() | b.keys())} invocations differ")
        return 1 if differing else 0
    if args.out is None:
        parser.error("give OUT.json, or --compare A.json B.json")
    digests = audit()
    Path(args.out).write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} invocations written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
