"""Self-test of the benchmark: every workload at a tiny size, and the output checks.

Run from the root of a checkout:

    python3 pptbench/selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_traced_counts_repeat_for_a_seed(self):
        spec_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts = [name for name, unit in spec_units.items() if unit == "count"]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = bench(workload, 1, seed=5), bench(workload, 1, seed=5)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        cls.mods = run.load_pptgeo()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_tampered_claim_report_is_rejected(self):
        path = Path(self.tmp.name) / "claim.json"
        self.assertEqual(self.mods.cli.main(["claim-check", "--d", "3", "--samples", "20",
                                             "--seed", "1", "--out", str(path)]), 0)
        workloads.check_claim(self.mods.harness, path, 3, 1)

        report = json.loads(path.read_text())
        state = report["counterexample"]["state"]
        dim = state["dim"]
        # The maximally mixed state: its partial transpose is positive.
        state["data"] = [[1.0 / dim if r == c else 0.0, 0.0] for r in range(dim) for c in range(dim)]
        path.write_text(json.dumps(report))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_claim(self.mods.harness, path, 3, 1)

    def test_tampered_shell_row_is_rejected(self):
        harness, split = self.mods.harness, self.mods.bipartite.BipartiteSplit(3, 3)
        radius = 0.3
        text = harness.shells_to_csv(harness.shell_scan(9, split, [radius], samples_per_shell=20,
                                                        base_seed=4))
        workloads.check_shell_csv(text, 9, "3x3", radius, 20, 4)

        *head, row = text.rstrip("\n").split("\n")
        fields = row.split(",")
        fields[3] = str(int(fields[2]) + 1)  # ppt_count > accepted
        tampered = "\n".join([*head, ",".join(fields)]) + "\n"
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_shell_csv(tampered, 9, "3x3", radius, 20, 4)

    def test_floor_shell_must_accept_everything(self):
        harness, split = self.mods.harness, self.mods.bipartite.BipartiteSplit(3, 3)
        radius = workloads.floor_radius(9) / 2
        text = harness.shells_to_csv(harness.shell_scan(9, split, [radius], samples_per_shell=20,
                                                        base_seed=4))
        *head, row = text.rstrip("\n").split("\n")
        fields = row.split(",")
        fields[3] = str(int(fields[3]) - 1)
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_shell_csv("\n".join([*head, ",".join(fields)]) + "\n",
                                      9, "3x3", radius, 20, 4)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
