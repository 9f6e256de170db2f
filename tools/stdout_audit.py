#!/usr/bin/env python3
"""Byte-identity audit of ``loqc`` stdout over a fixed set of invocations.

    python tools/stdout_audit.py OUT.json
    python tools/stdout_audit.py --compare A.json B.json

The first form runs every invocation in process through ``loqc.cli.main``
and writes ``{invocation: "exit:sha256-of-stdout"}``. The second lists the
invocations whose entries differ (or that only one file has) and exits 1
if there are any. A change meant to leave reports byte-identical runs the
first form at the parent commit and at the change, then compares.

The set, each at default digits and at ``LOQC_REPORT_DIGITS`` 3 and 17
(17 digits round no double, so only a shorter setting shows a float that
skipped rounding):
``verify-gate`` on every gallery gate; the five searches at their default
grid and at ``--grid-step 0.3``; ``selftest`` with seeds 0 and 7;
``simulate`` on the circuit files the benchmark's ``circuits_full``
workload writes for seeds 0 and 7 (``perfbench/workloads.write_circuits``,
imported read-only) and on two files of ``PORT_SET_CIRCUITS``, whose
branches measure several port sets; ``--pretty`` on ``verify-gate cs`` and
one ``simulate``. The library is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loqc.cli  # noqa: E402
import workloads  # noqa: E402

DIGITS = (None, "3", "17")
SEEDS = (0, 7)

#: (name, modes, input occupation, correction lines, detect-line suffix):
#: outputs of 792 and 715 terms, whose detect lines measure three port sets
#: (1; 1, 2; 1, 2, 3), the second file's through a correction.
PORT_SET_CIRCUITS = (
    ("ports8n5", 8, (1, 1, 1, 1, 1, 0, 0, 0), [], ""),
    ("ports10n4", 10, (0, 1, 0, 1, 0, 1, 0, 1, 0, 0),
     ["correction fix bs 1 2 eta=0.3", "correction fix ps 2 delta=0.7"], " correct fix"),
)


def _port_set_circuit(modes: int, occupation: tuple[int, ...], corrections: list[str],
                      suffix: str) -> str:
    """A brickwork of splitters and phases with fixed parameters, one
    ``gen3``, and six mutually exclusive detect lines on three port sets."""
    lines = [f"modes {modes}", "input fock " + " ".join(map(str, occupation))]
    for layer in range(modes):
        for i in range(layer % 2, modes - 1, 2):
            lines.append(f"bs {i + 1} {i + 2} eta={0.2 + 0.6 * ((3 * layer + i) % 7) / 6:.3f}")
        lines.append(f"ps {layer + 1} delta={0.3 * layer - 1.1:.2f}")
        if layer == 2:
            lines.append("gen3 1 4 7 t1=0.4 t2=1.1 t3=2.3")
    lines += corrections
    for counts in ("1=1", "1=2", "1=0 2=0", "1=0 2=1", "1=0 2=2 3=0", "1=0 2=2 3=1"):
        lines.append(f"detect {counts}{suffix}")
    return "\n".join(lines) + "\n"


def _invocations(circuits: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) pairs; keys name circuit files relative to ``circuits``."""
    runs = [(f"verify-gate {g}", ["verify-gate", g]) for g in loqc.cli.GATE_NAMES]
    for scheme in loqc.cli.SEARCH_SCHEMES:
        runs.append((f"search {scheme}", ["search", scheme]))
        runs.append((f"search {scheme} --grid-step 0.3", ["search", scheme, "--grid-step", "0.3"]))
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
    return runs


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = loqc.cli.main(argv)
    return f"{code}:{hashlib.sha256(out.getvalue().encode()).hexdigest()}"


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
                digests[prefix + key] = _run(argv)
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
