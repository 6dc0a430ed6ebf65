#!/usr/bin/env python3
"""Self-tests of the benchmark: metric names and units, agreement with
BENCHMARK.json, the result line, the output check, and a short smoke run of
every workload (which builds the benchmark binary on first use).

    python3 perfbench/test_run.py          # everything, ~3 min with a build
    python3 perfbench/test_run.py -k Static  # the checks that run nothing
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StaticTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, NAME)
        for unit in list(run.END_TO_END.values()) + list(run.PER_LAYER.values()):
            self.assertRegex(unit, UNIT)
        for workload in run.WORKLOADS:
            self.assertRegex(workload, NAME)

    def test_benchmark_json_matches_run_py(self):
        path = run.ROOT / "BENCHMARK.json"
        self.assertLessEqual(path.stat().st_size, 64 * 1024)
        spec = json.loads(path.read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        gated = [w["name"] for w in spec["workloads"]]
        self.assertTrue(set(gated) <= set(run.WORKLOADS), gated)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_result_line_parses(self):
        metrics = {"setup_s": {"value": 0.5, "unit": "s"}}
        line = json.loads(run.result_line(True, 10, 0, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertEqual(line["metrics"], metrics)

    def test_output_check_catches_mismatches(self):
        rep = {"firings": 5, "toll_notifications": 2, "accident_notifications": 0,
               "tolls_calculated": 2, "accidents_recorded": 0, "toll_p50_us": 1,
               "toll_p95_us": 2, "toll_p99_us": 3}
        report = {"outputs": [rep, dict(rep)], "info": {"accidents_injected": 0}}
        self.assertEqual(run.check_outputs("ramp_overload", 987654321, report), [])
        report["outputs"][1]["firings"] = 6
        self.assertTrue(run.check_outputs("ramp_overload", 987654321, report))
        report["outputs"] = [dict(rep, toll_notifications=3)] * 2
        self.assertTrue(run.check_outputs("ramp_overload", 987654321, report))
        live = {"sent": 10, "received": 10, "rejected": 0, "sender_ok": 1,
                "toll_notifications": 4}
        self.assertEqual(run.check_outputs("live_tcp", 1, {"outputs": [live]}), [])
        lost = dict(live, received=9)
        self.assertTrue(run.check_outputs("live_tcp", 1, {"outputs": [lost]}))

    def test_references_cover_the_virtual_workloads(self):
        references = run.load_references()
        for workload in run.VIRTUAL_WORKLOADS:
            self.assertTrue(references.get(workload), workload)


class SmokeTest(unittest.TestCase):
    """Runs each workload briefly through the real command and checks its
    result line. Virtual workloads always run two repetitions, whatever the
    run length; live_tcp needs ~8 s before its first toll."""

    def smoke(self, workload, seconds, trace=0, seed=1):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(wanted))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], wanted[name])
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_ramp_overload(self):
        self.smoke("ramp_overload", 1)

    def test_steady_soak_unreferenced_seed(self):
        self.smoke("steady_soak", 1, seed=4242)

    def test_live_tcp(self):
        self.smoke("live_tcp", 12)

    def test_traced_steady_soak(self):
        self.smoke("steady_soak", 1, trace=1)
        bench = json.loads(run.traced_bench_path("steady_soak").read_text())
        self.assertEqual(bench["schema_version"], 1)
        self.assertTrue(bench["host_phase_us"])
        self.assertGreater(sum(bench["host_phase_us"].values()), 0)


if __name__ == "__main__":
    unittest.main()
