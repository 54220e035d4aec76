"""hsprolong benchmark: drive ``hsprolong.cli.main(argv)`` in-process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {verify,prolong,jet} --seed N --seconds S --trace {0,1}

One process, one thread, one client in a closed loop: the next job starts
when the previous ``cli.main`` call returns.  All inputs come from ``--seed``.
Outputs are checked after the timed pass by ``gate.py``.

``--trace 0`` sets up ``SETUP_ROUNDS`` times (fresh import of the program,
generation of the job list, warm-up), then runs each job of the list once.
The list's length comes from ``--seconds`` alone, so a seed always gives the
same jobs, and ``attempted`` and ``failed`` repeat exactly.  Times are in
reference seconds (see ``hostspeed.py``).  ``--trace 1``
runs a fixed job list twice, untraced and then under ``spans.Tracer``, and
reports the per-layer metrics plus the tracing overhead; it also records the
sha256 of ``check all --seed 42`` stdout.

The last stdout line is the result object; the line before it holds run
details (machine, sample counts, failure causes).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = (
    "fields", "multiindex", "basefield", "series", "sparsepoly", "diffpoly",
    "presentations", "docparse", "sampling", "layered", "checks", "cli",
)
SETUP_ROUNDS = 5
MIN_JOBS = 100  # leaves >= 10 latency samples above p90
# Jobs in the list per second of --seconds.  A quiet 2-CPU x86_64 VM runs
# about 20 verify, 200 prolong and 150 jet jobs per second.  The lists are
# longer where the spread from seed to seed alone needs it: verify's jobs
# differ in cost by up to 30x from one sub-seed to the next (with 300 jobs
# latency_p90_ms spread by 0.11 over ten seeds), and prolong's latency_p90_ms
# spread by 0.09 with 1800 jobs.
JOBS_PER_SECOND = {"verify": 45, "prolong": 240, "jet": 140}
TRACE_JOBS = {"verify": 24, "prolong": 200, "jet": 200}
DIGEST_ARGV = ["check", "all", "--seed", "42"]

END_TO_END = {
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer spans reported with .calls and .self_s.
TIMED_SPANS = (
    "basefield.ParamPoly.mul", "basefield.poly_divexact", "basefield.poly_gcd",
    "basefield.BaseElem.add", "basefield.BaseElem.mul", "basefield.hasse_derive",
    "series.TruncatedElement.mul", "series.trunc_inverse", "series.twist_expand",
    "series.twist_psi", "series.twist_inverse",
    "sparsepoly.SparsePoly.mul", "sparsepoly.SparsePoly.add",
    "sparsepoly.SparsePoly.substitute", "sparsepoly.SparsePoly.render",
    "diffpoly.apply_d", "diffpoly.taylor_oracle",
    "layered.layered_expand", "layered.outer_derive", "layered.phi", "layered.psi", "layered.theta",
    "presentations.prolong_presentation", "presentations.nabla", "presentations.lift_morphism",
    "presentations.render_presentation", "presentations.ideal_membership_witness",
    "docparse.parse_document", "docparse.parse_assignments",
)
COUNTED_SPANS = ("fields.Scalar.mul", "fields.Scalar.add", "fields.binom")


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in COUNTED_SPANS}
    for name in TIMED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["basefield.poly_gcd.nontrivial_ratio"] = "ratio"
    units["basefield.hasse_derive.repeat_ratio"] = "ratio"
    for suite in ("oracle", "twist", "iterative", "leibniz", "theta", "phi-psi", "tensor", "multinomial"):
        units[f"checks.{suite}.total_s"] = "s"
    units["cli.main.calls"] = "count"
    units["cli.main.self_s"] = "s"
    units["fail_ratio"] = "ratio"
    units["trace.untraced_jobs_per_s"] = "1/s"
    units["trace.traced_jobs_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# -- program loading and one job ---------------------------------------------------


def load_program() -> types.SimpleNamespace:
    """Import hsprolong from this checkout's ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hsprolong" or n.startswith("hsprolong.")]:
        del sys.modules[name]
    package = importlib.import_module("hsprolong")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"hsprolong was imported from {package.__file__}, not from this checkout")
    mods = {name: importlib.import_module(f"hsprolong.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def run_job(hs, job) -> tuple[object, str, float]:
    """(exit code or failure text, stdout, seconds) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = hs.cli.main(job.argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def outcome(job, k: int, rc, text: str) -> tuple:
    """What the gate needs later: (job index, rc, stdout digest, check verdict)."""
    verdict = gate.check_report(rc, text) if job.kind == "check" else None
    return k, rc, gate.digest(text), verdict


# -- phases ----------------------------------------------------------------------------


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, round(seconds * JOBS_PER_SECOND[workload]))


def set_up(workload: str, seed: int, count: int, workdir: Path, clock: hostspeed.HostClock):
    """Fresh import, input generation and warm-up; returns (hs, jobs, reference seconds)."""
    t0 = time.perf_counter()
    hs = load_program()
    clock.record(time.perf_counter() - t0)
    t0 = time.perf_counter()
    jobs = workloads.make_jobs(hs, workload, seed, count, workdir)
    clock.record(time.perf_counter() - t0)
    for job in workloads.warmup_jobs(hs, workload, workdir / "warmup"):
        t0 = time.perf_counter()
        run_job(hs, job)
        clock.record(time.perf_counter() - t0)
    return hs, jobs, sum(clock.take())


def timed_pass(hs, jobs, clock: hostspeed.HostClock):
    """Each job once, in order; returns (outcome tally, reference seconds per job)."""
    tally = Counter()
    for k, job in enumerate(jobs):
        rc, text, dt = run_job(hs, job)
        clock.record(dt)
        tally[outcome(job, k, rc, text)] += 1
    return tally, clock.take()


def check_outputs(hs, jobs, tally: Counter) -> tuple[Counter, dict]:
    """Gate every outcome; returns (failed jobs per cause, {label: (cause, reason, count)})."""
    expected: dict = {}
    verdicts: dict = {}
    for key in tally:
        k, rc, dig, check_verdict = key
        job = jobs[k]
        if job.kind == "check":
            ok = check_verdict is None
        else:
            if k not in expected:
                want_rc, want = gate.expected(hs, job, job.doc.variety, job.doc.point, job.images)
                expected[k] = (want_rc, gate.digest(want))
            ok = (rc, dig) == expected[k]
        if ok:
            verdicts[key] = None
        elif job.kind == "check":
            verdicts[key] = (gate.WRONG_OUTPUT, check_verdict)
        else:
            rc2, text, _ = run_job(hs, job)
            if (rc2, gate.digest(text)) != (rc, dig):
                verdicts[key] = (gate.WRONG_OUTPUT, "output differs between two runs of the job")
            else:
                verdicts[key] = gate.diagnose(hs, job, rc, text)
    causes: Counter = Counter()
    failures: dict = {}
    for key, count in tally.items():
        verdict = verdicts[key]
        if verdict is not None:
            causes[verdict[0]] += count
            label = jobs[key[0]].label
            _, _, seen = failures.get(label, (None, None, 0))
            failures[label] = (*verdict, seen + count)
    return causes, failures


def check_digest(hs) -> dict:
    """sha256 of ``check all --seed 42`` stdout and per-suite wall times (informational)."""
    timer = Tracer()
    timer.install((), hs.checks._SUITES)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = hs.cli.main(DIGEST_ARGV)
    finally:
        timer.restore()
    suite_s = {name[len("checks."):]: round(stat[1], 4) for name, stat in timer.stats.items()}
    return {"argv": DIGEST_ARGV, "exit": rc, "stdout_sha256": gate.digest(out.getvalue()), "suite_s": suite_s}


def traced_run(hs, jobs) -> tuple[dict, Counter, dict]:
    picked = list(enumerate(jobs))
    tally: Counter = Counter()
    t0 = time.perf_counter()
    for k, job in picked:
        rc, text, _ = run_job(hs, job)
        tally[outcome(job, k, rc, text)] += 1
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install([hs.package] + [getattr(hs, m) for m in MODULES], hs.checks._SUITES)
    try:
        t0 = time.perf_counter()
        for k, job in picked:
            tracer.begin_job()
            rc, text, _ = run_job(hs, job)
            tally[outcome(job, k, rc, text)] += 1
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()

    def stat(name: str, i: int):
        return tracer.stats.get(name, [0, 0.0, 0.0])[i]

    values = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = stat(span, 0)
        elif field == "total_s":
            values[metric] = stat(span, 1)
        elif field == "self_s":
            values[metric] = stat(span, 2)
    gcd_calls, hasse_calls = stat("basefield.poly_gcd", 0), stat("basefield.hasse_derive", 0)
    values["basefield.poly_gcd.nontrivial_ratio"] = tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0
    values["basefield.hasse_derive.repeat_ratio"] = tracer.hasse_repeats / hasse_calls if hasse_calls else 0.0
    values["trace.untraced_jobs_per_s"] = len(picked) / untraced_s
    values["trace.traced_jobs_per_s"] = len(picked) / traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values, tally, {"trace_jobs": len(picked), "check_all_digest": check_digest(hs)}


# -- entry point -------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """(result object, run details) for one benchmark run."""
    info = {"workload": workload, "seed": seed, "trace": int(trace), "machine": machine()}
    if trace:
        hs, jobs, setup = set_up(workload, seed, TRACE_JOBS[workload], workdir, hostspeed.HostClock())
        values, tally, extra = traced_run(hs, jobs)
        info.update({"setup_s": round(setup, 4), **extra})
    else:
        clock = hostspeed.HostClock()
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            hs, jobs, setup = set_up(workload, seed, job_count(workload, seconds), workdir, clock)
            setup_times.append(setup)
        t0 = time.perf_counter()
        tally, latencies = timed_pass(hs, jobs, clock)
        measured_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        values = {
            "jobs_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": p90 * 1000,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        speed = [hostspeed.REFERENCE_TASK_S / x for x in clock.samples]
        info.update({"jobs": len(jobs), "setup_rounds_s": [round(t, 4) for t in setup_times],
                     "pass_s": {"measured": round(measured_s, 4), "reference": round(sum(latencies), 4)},
                     "host_speed": {"min": round(min(speed), 3), "median": round(statistics.median(speed), 3),
                                    "max": round(max(speed), 3), "samples": len(speed)},
                     "samples_above_p90": sum(1 for x in latencies if x > p90)})
    t0 = time.perf_counter()
    causes, failures = check_outputs(hs, jobs, tally)
    info["gate_s"] = round(time.perf_counter() - t0, 3)
    failed, attempted = sum(causes.values()), sum(tally.values())
    if trace:
        values["fail_ratio"] = failed / attempted
    units = PER_LAYER if trace else END_TO_END
    info["failed_by_cause"] = dict(causes)
    info["failures"] = [f"{label}: {cause}: {reason} (x{count})" for label, (cause, reason, count) in failures.items()]
    result = {
        "correct": gate.WRONG_OUTPUT not in causes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hsprolong" / "__init__.py").is_file():
        print(f"no hsprolong sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = HERE / "_work" / str(os.getpid())
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in info["failures"]:
        print(f"REJECTED {line}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
