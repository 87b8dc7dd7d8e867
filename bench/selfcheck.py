"""Self-check of the benchmark itself (not part of the package tests).

    python3 bench/selfcheck.py

Run from the root of a source checkout; takes about two minutes.  It
confirms that the input generator is deterministic for a seed, that every
metric named in BENCHMARK.json is printed with its unit and checked answers,
that corrupted answers are counted as failed, and that the benchmark refuses
to run without the package sources.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import specs  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for base, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


class Generator(unittest.TestCase):
    def test_scaled_family_is_seeded(self):
        a = specs.scaled_spec(6, 2, 3, random.Random("x:1"))
        b = specs.scaled_spec(6, 2, 3, random.Random("x:1"))
        c = specs.scaled_spec(6, 2, 3, random.Random("x:2"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a["forbidden"]), 6)
        self.assertTrue(all(len(w.split()) == 4 for w in a["forbidden"]))
        self.assertEqual(sorted(set(a["phi"].values())), ["a", "b", "c"])

    def test_workload_inputs_are_seeded(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            seen = {}
            for run_dir, seed in (("a", 3), ("b", 3), ("c", 4)):
                out = os.path.join(tmp, run_dir)
                w = workloads.Membership(seed, out)
                state = w.setup()
                queries = w.cold(state, 0) + w.cold(w.fresh(1), 1) + w.round(state, 0) + w.round(state, 1)
                queries += workloads.Cli(seed, out, ROOT).round(None, 0)
                seen[run_dir] = (_files(out), [a.label for a in queries])
            self.assertEqual(seen["a"], seen["b"])
            # The spaces are one fixed draw; the seed picks the queries.
            self.assertEqual(seen["a"][0], seen["c"][0])
            self.assertNotEqual(seen["a"][1], seen["c"][1])


class Metrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def _expect(self, result: dict, declared: list[dict]) -> None:
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self._expect(_result(_bench("--workload", name, "--seconds", "1", "--trace", "0")),
                             self.spec["end_to_end"])
                self._expect(_result(_bench("--workload", name, "--seconds", "1", "--trace", "1")),
                             self.spec["per_layer"])

    def test_corrupted_answers_are_counted(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = _result(_bench("--workload", name, "--seconds", "1", "--corrupt", "2"))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"] // 2)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
