"""Decision benchmark: times entdis.decide and entdis.witness_search on a corpus.

Usage (from the repository root):

    python3 decidebench/run.py --workload certified|protocol|search \
        --seed N --seconds S --trace 0|1

One closed-loop caller issues the workload's calls back to back; the
program keeps its own defaults (thread pool, BLAS threads, kernel backend),
and this script sets none of ENTDIS_THREADS, ENTDIS_BACKEND or the BLAS
thread variables.  A pass calls the public API once per case and builds the
JSON report a user of ``entdis decide`` gets; passes repeat while one more
still ends within S seconds.  Every report is checked by the verdict oracle (oracle.py) and
its digest is compared across passes.

Each call is timed twice: in wall seconds and in CPU seconds of the whole
process (all its threads).  On a shared virtual machine the hypervisor
takes CPU time away from the guest ("steal"); wall time of a program that
keeps two threads busy grows with it, CPU time does not, so the gated
end-to-end times are the CPU ones and the wall times are reported beside
them.  With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of tracer.py, measured in
traced passes that alternate with untraced ones.  The lines before it are a
readable table and one JSON object with the environment and details.

Exit status is 0 when a result was printed, 2 when the entdis sources are
not next to this directory (nothing is printed on stdout then).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import corpus
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
ENV_VARS = (
    "ENTDIS_THREADS",
    "ENTDIS_BACKEND",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {"corpus_cpu_s": "s", "largest_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed in the table and the detail line, not gated: they follow the host's steal
WALL_UNITS = {"corpus_s": "s", "largest_s": "s"}
# per-layer metrics measured by the traced run itself rather than by spans
TRACE_RUN_UNITS = {
    "states.build_s": "s",
    "states.sets": "count",
    "trace.corpus_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_entdis():
    """Import entdis from the checkout's src/ and nowhere else."""
    if not (SRC / "entdis" / "__init__.py").is_file():
        raise SetupError(f"no entdis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entdis
    import entdis.serialize  # noqa: F401  (looked up as entdis.serialize below)

    if Path(entdis.__file__).resolve().parent != SRC / "entdis":
        raise SetupError(f"imported entdis from {entdis.__file__}, not from {SRC}")
    return entdis


def environment(entdis) -> dict:
    import numpy
    import scipy

    kernels = getattr(entdis, "_kernels", None)
    worker_count = getattr(entdis.search, "_worker_count", None)
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(kernels, "BACKEND", None),
        "numba_available": getattr(kernels, "NUMBA_AVAILABLE", None),
        "search_workers_for_64_restarts": None if worker_count is None else worker_count(64),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def call(entdis, case) -> str:
    """One public-API call plus its JSON report, looked up at call time."""
    if case.call == "witness_search":
        doc = entdis.witness_search(case.unitaries).to_dict()
    else:
        doc = entdis.decision_to_dict(entdis.decide(case.unitaries))
    return entdis.serialize.canonical_json(doc)


class Runner:
    """Runs passes, checks every report and keeps the per-pass timings."""

    def __init__(self, entdis, cases):
        self.entdis = entdis
        self.cases = cases
        self.first_digest = {}
        self.verdicts = {}  # (case, digest) -> problems
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, case, problems):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"case": case.name, "problems": problems})

    def run_pass(self, cases=None) -> tuple[dict, dict]:
        """Time each case: case name -> wall seconds and -> CPU seconds, for the cases that completed."""
        wall, cpu = {}, {}
        for case in cases or self.cases:
            self.attempted += 1
            c0, t0 = process_time(), perf_counter()
            try:
                report = call(self.entdis, case)
            except Exception:  # a failing call is counted, the pass goes on
                self._fail(case, [traceback.format_exc(limit=3)])
                continue
            wall[case.name] = perf_counter() - t0
            cpu[case.name] = process_time() - c0
            self._check(case, report)
        return wall, cpu

    def _check(self, case, report):
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        problems = []
        first = self.first_digest.setdefault(case.name, digest)
        if digest != first:
            problems.append(f"report digest {digest[:12]} differs from the first pass {first[:12]}")
        key = (case.name, digest)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.check(case, report, self.entdis)
        problems += self.verdicts[key]
        if problems:
            self._fail(case, problems)


def case_medians(cases, passes) -> dict:
    """Median seconds of each case over the passes in which it completed.

    Their sum is the run's estimate of one pass: a single slow call moves
    one case's median, not the whole pass.
    """
    return {
        c.name: statistics.median(p[c.name] for p in passes if c.name in p)
        for c in cases
        if any(c.name in p for p in passes)
    }


def fits(walls, deadline) -> bool:
    """Whether a pass of median length still ends before the deadline.

    Runs then end within --seconds instead of overrunning by up to a pass.
    """
    return perf_counter() + statistics.median(walls) <= deadline


def setup_seconds(workload, seed) -> list[float]:
    """Set-up time in fresh processes: import entdis, build and validate the sets."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(workload, seed, seconds, entdis, cases):
    """Untraced run: the end-to-end metrics."""
    setup = setup_seconds(workload, seed)
    runner = Runner(entdis, cases)
    runner.run_pass(corpus.warmup(cases))
    passes, cpu_passes, walls = [], [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or fits(walls, deadline):
        t0 = perf_counter()
        wall, cpu = runner.run_pass()
        walls.append(perf_counter() - t0)
        passes.append(wall)
        cpu_passes.append(cpu)
        if len(passes) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    case_s = case_medians(cases, passes)
    case_cpu_s = case_medians(cases, cpu_passes)
    largest = next(c.name for c in cases if c.largest)
    metrics = {
        "corpus_cpu_s": sum(case_cpu_s.values()),
        "largest_cpu_s": case_cpu_s[largest],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    details = {
        "wall": {"corpus_s": sum(case_s.values()), "largest_s": case_s[largest]},
        "passes": len(passes),
        "pass_s": [sum(p.values()) for p in passes],
        "pass_cpu_s": [sum(p.values()) for p in cpu_passes],
        "case_median_s": case_s,
        "case_median_cpu_s": case_cpu_s,
        "setup_probes_s": setup,
        "largest_case": largest,
    }
    return runner, metrics, END_TO_END_UNITS, details


def measure_traced(workload, seed, seconds, entdis, cases):
    """Traced run: per-layer metrics, untraced passes alternate with traced ones."""
    import tracer  # imports numpy, so it must not load before the set-up probe's clock starts

    builds = []
    for _ in range(3):
        t0 = perf_counter()
        corpus.build(workload, seed, entdis)
        builds.append(perf_counter() - t0)
    runner = Runner(entdis, cases)
    runner.run_pass(corpus.warmup(cases))
    untraced, traced, summaries, walls = [], [], [], []
    missing, absent = set(), set()
    deadline = perf_counter() + seconds
    while len(traced) < MIN_PASSES or fits(walls, deadline):
        t0 = perf_counter()
        untraced.append(sum(runner.run_pass()[0].values()))
        t = tracer.Tracer()
        with t.installed():
            traced.append(sum(runner.run_pass()[0].values()))
        summaries.append(t.summary())
        walls.append(perf_counter() - t0)
        missing |= t.missing
        absent.update(t.absent())
    metrics = {
        name: statistics.median(s["metrics"][name] for s in summaries)
        for name in summaries[0]["metrics"]
    }
    metrics["states.build_s"] = statistics.median(builds)
    metrics["states.sets"] = len(cases)
    metrics["trace.corpus_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.accounted_ratio"] = statistics.median(
        s["accounted_s"] / pass_s for s, pass_s in zip(summaries, traced)
    )
    units = {**tracer.metric_units(), **TRACE_RUN_UNITS}
    self_times = {n: metrics[n] for n in (*tracer.SELF_TIME_METRICS, "kernels.s")}
    total = sum(self_times.values())
    details = {
        "passes_traced": len(traced),
        "passes_untraced": len(untraced),
        "untraced_corpus_s": statistics.median(untraced),
        "absent_metrics": sorted(absent),
        "missing_hooks": sorted(missing),
        "ratio_bases_last_pass": summaries[-1]["ratio_bases"],
        "self_time_shares": {n: round(v / total, 4) for n, v in self_times.items()} if total else {},
        "note": "kernels.flop_computed and kernels.bytes_computed are computed from array shapes, not measured",
    }
    return runner, metrics, units, details


def print_result(workload, seed, runner, metrics, units, details, env):
    attempted, failed = runner.attempted, runner.failed
    print(f"workload {workload}  seed {seed}  attempted {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    for name, value in details.get("wall", {}).items():
        print(f"  {name:32s} {value:16.6f} {WALL_UNITS[name]}  (wall, not gated)")
    print(f"  {'fail_frac':32s} {failed / max(attempted, 1):16.6f} ratio")
    detail = {
        "workload": workload,
        "seed": seed,
        "fail_frac": failed / max(attempted, 1),
        "failures": runner.failures,
        "environment": env,
        **details,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        entdis = load_entdis()
    except SetupError as exc:
        print(f"decidebench: {exc}", file=sys.stderr)
        return 2
    cases = corpus.build(args.workload, args.seed, entdis)
    if args.setup_probe:
        print(perf_counter() - t0)
        return 0
    measure_fn = measure_traced if args.trace else measure
    runner, metrics, units, details = measure_fn(args.workload, args.seed, args.seconds, entdis, cases)
    print_result(args.workload, args.seed, runner, metrics, units, details, environment(entdis))
    return 0


if __name__ == "__main__":
    sys.exit(main())
