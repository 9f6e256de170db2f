#!/usr/bin/env python3
"""loqc benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root; the library is imported from ``src/``.

One worker process runs one op at a time (closed loop, one client) with the
BLAS/OpenMP pools pinned to one thread. A run repeats passes over the
workload's op list until ``--seconds`` have elapsed (at least two passes with
``--trace 0``). Times are reference-host seconds (see ``HostClock``).
Every output is checked outside the timed region: the first time an op runs,
against its oracle and, for fixed invocations, against the stdout sha256
recorded from the seed commit; afterwards, against its own first output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
time from median cold interpreter starts, the pass time and per-op latency
from each op's median over the passes, and peak RSS. ``--trace 1`` reports the per-layer metrics: ``-X importtime`` from
cold starts, then untraced passes for half the time and traced passes for
the other half, whose spans (see ``tracer.py``) give each layer's time,
counts and share of the traced wall time. The spans are written to
``.perfbench/`` at the end of the run.

``--workload all`` runs every workload with and without tracing, prints each
metric with unit and sample count, prints a provenance record as its last
line, and exits non-zero when any output check failed.

The last stdout line of a single-workload run is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("gates_heralded", "circuits_full", "search_scan")

#: One BLAS/OpenMP thread: a single closed-loop client on a 2-core machine.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

#: Cold interpreter starts per run for setup_s and for the import.* metrics.
SETUP_STARTS = 5
IMPORT_STARTS = 3

CHILD_TIMEOUT = 120

#: Seconds ``HostClock.probe`` takes on the reference host: the machine and
#: quiet period on which ``baseline.json`` was recorded. Changing it rescales
#: every reported time.
CAL_REF_S = 0.00034


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- host speed -------------------------------------------------------------

class HostClock:
    """Times intervals in reference-host seconds.

    The host is shared. Over seconds to minutes the guest's CPU throughput
    drifts by tens of percent, while thread CPU time keeps pace with wall
    time, so neighbours set a raw timing as much as this program does. A
    fixed probe of dict-of-tuples work and a small numpy call is timed on
    both sides of every timed interval; the interval is divided by the mean
    probe time and multiplied by ``CAL_REF_S``. The probe is benchmark code,
    so a change to loqc cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 12_000)

    def _kernel(self) -> float:
        acc: dict[tuple, complex] = {}
        for i in range(500):
            key = (i % 7, i % 11, i % 13)
            acc[key] = acc.get(key, 0j) + complex(i, 1)
        return float(self._np.cos(self._x * len(acc)).sum())

    def probe(self) -> int:
        """Median of three probe runs, in nanoseconds."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            self._kernel()
            times.append(time.perf_counter_ns() - t0)
        return sorted(times)[1]

    @staticmethod
    def scale(raw_ns: int, before: int, after: int) -> float:
        """A raw interval in reference-host seconds."""
        return raw_ns * CAL_REF_S / ((before + after) / 2)


# -- cold starts ------------------------------------------------------------

def setup_times(workload: str, seed: int, clock: HostClock) -> list[float]:
    """Spawn-to-ready reference-host seconds of fresh interpreters (see probe.py)."""
    times = []
    for _ in range(SETUP_STARTS):
        before = clock.probe()
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        raw = int(done.stdout.split()[-1]) - t0
        times.append(clock.scale(raw, before, clock.probe()))
    return times


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times() -> dict[str, list[float]]:
    """Cumulative seconds per module from ``-X importtime`` cold starts."""
    out: dict[str, list[float]] = {"import.loqc_s": [], "import.scipy_optimize_s": [],
                                   "import.numpy_s": []}
    for _ in range(IMPORT_STARTS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loqc.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        cum = {m.group(3): int(m.group(2)) / 1e6 for m in _IMPORTTIME.finditer(done.stderr)}
        out["import.loqc_s"].append(cum["loqc.cli"])  # loqc.cli nests the loqc package
        out["import.scipy_optimize_s"].append(cum.get("scipy.optimize", 0.0))
        out["import.numpy_s"].append(cum.get("numpy", 0.0))
    return out


# -- passes -------------------------------------------------------------------

class Pass:
    """One pass over the op list: raw nanoseconds and reference-host seconds per op."""

    def __init__(self) -> None:
        self.raw: list[int] = []
        self.ref: list[float] = []


class Run:
    """Op outputs seen so far and the failures found in them."""

    def __init__(self, ops, references: dict, clock: HostClock) -> None:
        self.ops = ops
        self.references = references
        self.clock = clock
        self.verdicts: dict[str, tuple[str, str | None]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None, pass_index: int = 0) -> Pass:
        result = Pass()
        now = time.perf_counter_ns
        before = self.clock.probe()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op, tracer.pass_index = i, pass_index
            t0 = now()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            raw = now() - t0
            self.attempted += 1
            if error is None:
                error = self._verify(op, out)
            if error is not None:
                self.failed += 1
                self.failures.append(f"pass {pass_index} {op.key}: {error}")
            after = self.clock.probe()
            result.raw.append(raw)
            # probes at the two ends of a multi-second op do not see the host
            # speed in between; such ops (traced runs only) are reported raw
            result.ref.append(raw / 1e9 if op.long else self.clock.scale(raw, before, after))
            before = after
        return result

    def _verify(self, op, out) -> str | None:
        digest = op.digest(out)
        if op.key in self.verdicts:  # an output equal to the first one shares its verdict
            first, error = self.verdicts[op.key]
            return error if digest == first else "output differs from the first pass"
        error = op.check(out)
        if error is None and op.fixed and digest != self.references.get(op.key):
            error = "stdout sha256 differs from the seed commit"
        self.verdicts[op.key] = (digest, error)
        return error

    def passes(self, seconds: float, tracer=None, first_index: int = 0,
               at_least: int = 1) -> list[Pass]:
        deadline = time.perf_counter() + seconds
        result = [self.one_pass(tracer, first_index)]
        while len(result) < at_least or time.perf_counter() < deadline:
            result.append(self.one_pass(tracer, first_index + len(result)))
        return result


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each op's median reference-host latency over the passes, in seconds."""
    return [statistics.median(p.ref[i] for p in passes) for i in range(len(passes[0].ref))]


def end_to_end(run: Run, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    passes = run.passes(seconds, at_least=2)  # every op's median has two samples
    ops = op_latencies(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(ops),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes), "op_p50_ms": len(ops),
               "op_p90_ms": len(ops), "peak_rss_mb": 1}
    print(f"passes: {len(passes)}, median raw pass time "
          f"{statistics.median(sum(p.raw) for p in passes) / 1e9:.4f} s")
    return metrics, samples


# -- traced run -------------------------------------------------------------------

#: verdict_s.<scheme>: CLI default invocations timed for that scheme.
VERDICT_OPS = {
    "single_bs": ("search single_bs:case1", "search single_bs:case3"),
    "two_bs": ("search two_bs:case3",),
    "ns_in_ns": ("search ns_in_ns:case1",),
    "optimize_ns": ("search optimize_ns",),
}

NS_IN_NS_CALLS = 960
NS_IN_NS_POINTS = 55_617_720
CASCADE_TERMS_OUT = 4632
CASCADE_TERMS_KEPT = 4


def pinned_counts(workload: str, ops, spans: list[list]) -> list[str]:
    """Exact counts that must repeat on every traced pass."""
    import tracer as tr

    errors = []
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[3], []).append(s)
    for i, s in enumerate(spans):
        kind = ops[s[4]].kind
        kids = [c[0] for c in children.get(i, [])]
        if s[0] == "gates.run" and s[6]["gate"] == "ns":
            if kids.count("multiport.evolve") != 1 or kids.count("measurement.postselect_branches") != 1:
                errors.append(f"ns run made calls {kids}, expected 1 evolve and 1 postselect")
        if s[0] == "multiport.evolve" and kind == "cascade:random" \
                and s[6]["terms_out"] != CASCADE_TERMS_OUT:
            errors.append(f"cascade evolve gave {s[6]['terms_out']} terms, expected {CASCADE_TERMS_OUT}")
        if s[0] == "measurement.postselect_branches" and kind == "cascade:random" \
                and s[6]["kept"] != CASCADE_TERMS_KEPT:
            errors.append(f"cascade postselect kept {s[6]['kept']} terms, expected {CASCADE_TERMS_KEPT}")
        if s[0] == "multiport.evolve" and kind.startswith("haar:"):
            m, n = s[6]["modes"], s[6]["photons"]
            if s[6]["terms_out"] != math.comb(m + n - 1, n):
                errors.append(f"haar m={m} n={n} evolve gave {s[6]['terms_out']} terms")
    kernel = tr.SCHEMES["ns_in_ns"][1]
    per_op: dict[tuple, list[int]] = {}
    for s in spans:
        if s[0] == kernel and ops[s[4]].kind == "search.default:ns_in_ns:case1":
            acc = per_op.setdefault((s[5], s[4]), [0, 0])
            acc[0] += 1
            acc[1] += s[6]["points"]
    for calls, points in per_op.values():
        if (calls, points) != (NS_IN_NS_CALLS, NS_IN_NS_POINTS):
            errors.append(f"ns_in_ns:case1 made {calls} kernel calls over {points} points, "
                          f"expected {NS_IN_NS_CALLS} over {NS_IN_NS_POINTS}")
    if workload == "search_scan" and not per_op:
        errors.append("no ns_in_ns kernel spans were recorded")
    return sorted(set(errors))


def per_layer(workload: str, seed: int, run: Run, seconds: float) -> tuple[dict, dict, list[str]]:
    import tracer as tr

    imports = import_times()
    untraced = run.passes(seconds / 2)
    latency = dict(zip((op.key for op in run.ops), op_latencies(untraced)))
    verdict = {scheme: sum(latency.get(key, 0.0) for key in keys)
               for scheme, keys in VERDICT_OPS.items()}

    t = tr.Tracer()
    leaks = t.install()
    try:
        traced = run.passes(seconds / 2, tracer=t, first_index=len(untraced))
    finally:
        t.uninstall()
    errors = [f"tracer left unwrapped bindings: {', '.join(leaks)}"] if leaks else []
    errors += pinned_counts(workload, run.ops, t.spans)

    own = tr.self_times(t.spans)
    kinds = [op.kind for op in run.ops]
    rows = [tr.pass_metrics(t.spans, own, t.layer_of, kinds, len(untraced) + j, sum(p.raw))
            for j, p in enumerate(traced)]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    samples = {name: len(rows) for name in rows[0]}
    for name, values in imports.items():
        metrics[name], samples[name] = statistics.median(values), len(values)
    for scheme, value in verdict.items():
        metrics[f"verdict_s.{scheme}"] = value
        samples[f"verdict_s.{scheme}"] = len(untraced)
    traced_wall = sum(op_latencies(traced))
    untraced_wall = sum(op_latencies(untraced))
    metrics.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall})
    samples.update({"trace.wall_s": len(traced), "trace.untraced_wall_s": len(untraced),
                    "trace.overhead_s": len(traced)})

    WORKDIR.mkdir(exist_ok=True)
    with open(WORKDIR / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "pass", "attrs"],
                   "ops": [op.key for op in run.ops], "spans": t.spans}, fh)
    return metrics, samples, errors


# -- one workload ---------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if not (SRC / "loqc" / "__init__.py").is_file():
        print(f"error: no loqc sources under {SRC}", file=sys.stderr)
        return 3
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(BENCH)]

    clock = HostClock()
    setup = [] if trace else setup_times(workload, seed, clock)
    import loqc
    import workloads as wl

    if not Path(loqc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: loqc was imported from {loqc.__file__}, not {SRC}", file=sys.stderr)
        return 3
    objects = wl.program_objects(workload, seed)
    ops = wl.build_ops(workload, seed, objects, WORKDIR, traced=bool(trace))
    run = Run(ops, wl.load_references(), clock)

    if trace:
        metrics, samples, errors = per_layer(workload, seed, run, seconds)
    else:
        (metrics, samples), errors = end_to_end(run, seconds, setup), []
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    errors += [f"metric {name} was not measured" for name in missing]

    for line in run.failures[:20] + errors:
        print(f"check failed: {line}")
    for m in wanted:
        name = m["name"]
        print(f"{workload:15s} {name:42s} {metrics.get(name, float('nan')):>16.6g} "
              f"{m['unit']:6s} n={samples.get(name, 0)}")
    print("samples: " + json.dumps({m["name"]: samples.get(m["name"], 0) for m in wanted}))
    print(json.dumps({
        "correct": run.failed == 0 and not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


# -- all workloads --------------------------------------------------------------------

def provenance(seed: int) -> dict:
    os.environ.update(THREAD_PINS)
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_pins": THREAD_PINS, "git_sha": sha, "workload_seed": seed}


def run_all(seed: int, seconds: int) -> int:
    record = {"provenance": provenance(seed), "runs": {}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-2]:
                print(line)
            try:
                result = json.loads(lines[-1])
                samples = json.loads(lines[-2].removeprefix("samples: "))
            except (IndexError, ValueError):
                print(f"{workload} trace={trace}: no result (exit {done.returncode})\n{done.stderr}")
                ok = False
                continue
            fail_frac = result["failed"] / result["attempted"]
            print(f"{workload:15s} {'fail_frac':42s} {fail_frac:>16.6g} ratio  "
                  f"n={result['attempted']}")
            ok &= done.returncode == 0 and result["correct"] and result["failed"] == 0
            record["runs"][f"{workload}/trace{trace}"] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "fail_frac": fail_frac,
                "metrics": {k: {**v, "samples": samples[k]} for k, v in result["metrics"].items()},
            }
    traced = {w: record["runs"].get(f"{w}/trace1", {}).get("metrics", {}) for w in WORKLOADS}
    record["survival_ratio"] = {w: m.get("measurement.survival_ratio", {}).get("value")
                                for w, m in traced.items()}
    record["tracing_overhead_s"] = {w: m.get("trace.overhead_s", {}).get("value")
                                    for w, m in traced.items()}
    print(json.dumps(record))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
