#!/usr/bin/env python3
"""Self-test of the HSCD benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each case runs the real benchmark for about a second per phase:
- a tiny run of every workload prints every metric BENCHMARK.json names,
  with its unit, in the JSON result and in the readable listing;
- a corrupted expected fingerprint turns paper-figures ops into failed
  ops, so the output check is live;
- traced and untraced runs of one seed, and two traced runs of one
  seed, give identical simulated counts and scheme-replay hit/miss counts.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own launcher)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_NAMES = ["verify.diagnostics", "sim.stream_ops", "sim.refs",
               "network.packets", "network.words", "mc.states",
               "mc.transitions"]


def bench(workload, trace, seed=5, *extra):
    """Run one tiny benchmark; return (stdout lines, parsed result)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def counts_block(lines):
    """The 'simulated counts' listing every run prints, as a dict."""
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("simulated counts"))
    block = {}
    for line in lines[start + 1:start + 1 + len(COUNT_NAMES)]:
        name, value, _unit = line.split()
        block[name] = float(value)
    return block


class Benchmark(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        run.build(run.build_dir())
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[w, trace] = bench(w, trace)

    def test_tiny_run_prints_every_metric_with_unit(self):
        for (w, trace), (lines, res) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                want = SPEC["per_layer" if trace else "end_to_end"]
                got = res["metrics"]
                self.assertEqual(sorted(got), sorted(m["name"] for m in want))
                text = "\n".join(lines[:-1])
                for m in want:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(got[m["name"]]["value"],
                                          (int, float))
                    self.assertRegex(text, rf"\n  {re.escape(m['name'])} +"
                                           rf"\S+ {re.escape(m['unit'])}\n")
                if not trace:
                    self.assertRegex(text, r"op_ms_tail is p[0-9.]+: "
                                           r"\d+ of \d+ ops beyond it")

    def test_corrupt_fingerprint_fails_ops(self):
        scratch = run.build_dir() / "selftest"
        scratch.mkdir(parents=True, exist_ok=True)
        bad = scratch / "paper_figures.corrupt.txt"
        text = run.EXPECTED.read_text()
        line = next(l for l in text.splitlines()
                    if l and not l.startswith("#"))
        fp = line.split()[2]
        flipped = fp[:-1] + ("0" if fp[-1] != "0" else "1")
        bad.write_text(text.replace(line, line.replace(fp, flipped)))
        _, res = bench("paper-figures", 0, 5, "--expected", str(bad))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        # Every op runs every cell, so every op meets the bad cell.
        self.assertEqual(res["failed"], res["attempted"])

    def test_simulated_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                untraced, _ = self.runs[w, 0]
                traced, res = self.runs[w, 1]
                again, res2 = bench(w, 1)
                for name in COUNT_NAMES:
                    self.assertEqual(res["metrics"][name]["value"],
                                     res2["metrics"][name]["value"], name)
                self.assertEqual(counts_block(untraced),
                                 counts_block(traced))
                replays = [l for l in traced if "  replay " in l]
                self.assertEqual(replays,
                                 [l for l in again if "  replay " in l])
                if w != "model-check":
                    self.assertTrue(replays)


if __name__ == "__main__":
    unittest.main()
