"""Self-test for the benchmark: every workload at its smallest size.

Checks that each run prints the result line with every metric named in
BENCHMARK.json and its unit, that no job fails, and that a directory holding
only the benchmark (no ``src/``) makes the run fail without a result.
Stdlib only; run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> list[str]:
        out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, out.stderr)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return lines

    def test_end_to_end(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                lines = self.check_run(workload, 0)
                summary = lines[-2]
                self.assertIn("fail_ratio=0 ratio", summary)
                for m in SPEC["end_to_end"]:
                    self.assertIn(f"{m['name']}=", summary)

    def test_traced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check_run(workload, 1)
                table = json.loads((HERE / "out" / f"{workload}-seed3.trace.json").read_text())
                self.assertGreaterEqual(table["per_layer"]["trace.coverage"], 0.9)
                self.assertTrue((HERE / "out" / f"{workload}-seed3.spans.tsv.gz").is_file())

    def test_fails_without_sources(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "3",
                        "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
