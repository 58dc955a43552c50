#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = bench.build(BUILD_DIR)
        cls.work = os.path.join(BUILD_DIR, "selftest")
        os.makedirs(cls.work, exist_ok=True)
        cls.csv = os.path.join(cls.work, "pai-3000-7.csv")
        subprocess.run([cls.harness, "synth", "--trace", "pai", "--jobs",
                        "3000", "--seed", "7", "--out", cls.csv],
                       check=True, stdout=subprocess.DEVNULL)

    def test_corrupted_body_counts_in_error_rate(self):
        # Half the 20 requests expect a body with one byte flipped; each of
        # those must count as a failed request.
        done = subprocess.run([self.harness, "selftest", "--csv", self.csv,
                               "--work-dir", self.work],
                              stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(done.returncode, 0, result)
        self.assertEqual(result["attempted"], 20)
        self.assertEqual(result["failed"], 10)
        self.assertEqual(result["wrong"], 10)
        self.assertAlmostEqual(result["error_rate"], 0.5)

    def test_committed_digest_mismatch_is_incorrect(self):
        problems = []
        ok = bench.check_digests("pai-mine", bench.DEFAULT_SEED,
                                 {"Failed": "0" * 16}, problems)
        self.assertFalse(ok)
        self.assertTrue(problems)

    def test_missing_sources_fail_without_result(self):
        # A directory holding only the benchmark cannot build gpumine.
        with tempfile.TemporaryDirectory() as bare:
            subprocess.run(["cp", "-r", os.path.dirname(bench.BENCH_DIR) +
                            "/perfbench", bare], check=True)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pai-mine",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env={**os.environ,
                                "CARGO_TARGET_DIR": bare + "/.bench_build"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
