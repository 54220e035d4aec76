"""Self-tests of the benchmark harness, at tiny sizes.

Run from the root of a source checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = [
    mock.patch.object(run, "SETUP_ROUNDS", 2),
    mock.patch.dict(workloads.WARMUP_JOBS, {"verify": 2, "prolong": 2, "jet": 2}),
    mock.patch.dict(run.TRACE_JOBS, {"verify": 8, "prolong": 12, "jet": 12}),
    mock.patch.object(run, "MIN_JOBS", 12),
    mock.patch.object(run, "DIGEST_ARGV", ["check", "multinomial", "--max", "3"]),
]


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        for patch in TINY:
            patch.start()
            self.addCleanup(patch.stop)
        self.workdir = HERE / "_work" / f"selftest-{os.getpid()}"
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def tiny_run(self, workload: str, trace: bool, seed: int = 3) -> dict:
        result, _ = run.run(workload, seed, 0.05, trace, self.workdir)
        return result

    def jobs(self, workload: str, seed: int = 3, count: int = 24):
        hs = run.load_program()
        return hs, workloads.make_jobs(hs, workload, seed, count, self.workdir)

    def test_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_tiny_runs_emit_every_metric(self):
        for workload in workloads.WORKLOADS:
            for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(list(result["metrics"]), list(names))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertTrue(result["correct"])

    def test_traced_call_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (self.tiny_run(workload, True)["metrics"] for _ in range(2))
                calls = [name for name in first if name.endswith(".calls")]
                self.assertEqual({n: first[n]["value"] for n in calls}, {n: second[n]["value"] for n in calls})
                self.assertGreater(first["cli.main.calls"]["value"], 0)

    def test_timed_pass_runs_each_job_once(self):
        hs, jobs = self.jobs("prolong")
        clock = run.hostspeed.HostClock()
        tally, latencies = run.timed_pass(hs, jobs, clock)
        self.assertEqual(len(latencies), len(jobs))
        self.assertEqual(sorted(key[0] for key in tally), list(range(len(jobs))))
        self.assertEqual(set(tally.values()), {1})
        self.assertGreater(len(clock.samples), 1)

    def test_host_clock_scales_by_the_reference_task(self):
        ref = run.hostspeed.REFERENCE_TASK_S
        block = run.hostspeed.BLOCK_S
        with mock.patch.object(run.hostspeed, "sample", side_effect=[2 * ref, 2 * ref, 4 * ref]):
            clock = run.hostspeed.HostClock()
            clock.record(block)
            clock.record(block / 2)
            clock.record(block / 2)
            reference = clock.take()
        self.assertEqual(len(reference), 3)
        for got, want in zip(reference, [block / 2, block / 6, block / 6]):
            self.assertAlmostEqual(got, want)

    def test_attempted_and_failed_repeat_for_a_seed(self):
        first, second = (self.tiny_run("jet", False) for _ in range(2))
        self.assertEqual((first["attempted"], first["failed"]), (second["attempted"], second["failed"]))
        short = [job.argv for job in self.jobs("jet", count=12)[1]]
        long = [job.argv for job in self.jobs("jet", count=24)[1]]
        self.assertEqual(short, long[: len(short)])

    def test_tracer_restores_the_program(self):
        hs = run.load_program()
        before = (hs.basefield.hasse_derive, hs.diffpoly.hasse_derive, hs.fields.Scalar.__dict__["__mul__"])
        tracer = run.Tracer()
        tracer.install([hs.package] + [getattr(hs, m) for m in run.MODULES], hs.checks._SUITES)
        self.assertIsNot(hs.diffpoly.hasse_derive, before[1])
        tracer.restore()
        after = (hs.basefield.hasse_derive, hs.diffpoly.hasse_derive, hs.fields.Scalar.__dict__["__mul__"])
        self.assertEqual(before, after)

    def gate_records(self, hs, jobs, picked):
        tally = Counter()
        for k in picked:
            rc, text, _ = run.run_job(hs, jobs[k])
            tally[run.outcome(jobs[k], k, rc, text)] += 1
        return run.check_outputs(hs, jobs, tally)

    def round_trips(self, hs, job) -> bool:
        return gate.reparsed(hs, job) == (job.doc.variety, job.doc.point, job.images)

    def test_gate_rejects_a_planted_wrong_generator(self):
        hs, jobs = self.jobs("prolong")
        k = next(k for k, j in enumerate(jobs) if j.kind == "prolong" and self.round_trips(hs, j))
        real = hs.presentations.apply_d

        def planted(alpha, f, mode):
            return real(alpha, f, mode) + 1 if any(alpha) else real(alpha, f, mode)

        self.assertEqual(self.gate_records(hs, jobs, [k])[0], {})
        with mock.patch.object(hs.presentations, "apply_d", planted):
            causes, failures = self.gate_records(hs, jobs, [k])
        self.assertEqual(causes, {gate.WRONG_OUTPUT: 1})
        self.assertIn("line", failures[jobs[k].label][1])

    def test_gate_rejects_a_wrong_nabla_value(self):
        hs, jobs = self.jobs("prolong")
        k = next(k for k, j in enumerate(jobs) if j.kind == "nabla" and self.round_trips(hs, j)
                 and any(not a.is_poly() or a.num.degree() > 0 for a in j.doc.point.values()))
        real = hs.presentations.hasse_derive

        def planted(alpha, a):
            return real(alpha, a) * 2 if sum(alpha) == 1 else real(alpha, a)

        self.assertEqual(self.gate_records(hs, jobs, [k])[0], {})
        with mock.patch.object(hs.presentations, "hasse_derive", planted):
            causes, _ = self.gate_records(hs, jobs, [k])
        self.assertEqual(causes, {gate.WRONG_OUTPUT: 1})

    def test_gate_rejects_a_failing_check_report(self):
        hs, jobs = self.jobs("verify")
        with mock.patch.object(hs.checks, "report_passed", lambda lines: False):
            causes, _ = self.gate_records(hs, jobs, [0])
        self.assertEqual(causes, {gate.WRONG_OUTPUT: 1})
        self.assertIsNotNone(gate.check_report(0, "check\nOK twist params= trials=0\nRESULT: pass\n"))

    def test_render_parse_defect_is_diagnosed_not_hidden(self):
        hs, jobs = self.jobs("jet", count=400)
        bad = [k for k, j in enumerate(jobs) if not self.round_trips(hs, j)]
        self.assertTrue(bad, "expected some seeded inputs that do not survive render/parse")
        causes, failures = self.gate_records(hs, jobs, bad[:2])
        self.assertEqual(set(causes), {gate.RENDER_PARSE})

    def test_refuses_to_run_without_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
