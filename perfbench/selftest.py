"""Self-tests of the benchmark harness. Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that failures are counted rather than hidden: an over-long
8-strand word ends as a counted failure inside its memory and time caps, a
flipped expected answer is counted as failed in every workload, and run.py
refuses to report anything when the package source is missing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import answers as A  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

OVERLONG = """
import json, random, sys
sys.path.insert(0, {here!r})
import answers as A, oracle_load, worker
worker.cap_memory({cap})
w = A.reduced_word(random.Random(7), 8, 200)
q = oracle_load.Query("is_identity", "long", "trivial", (8, w + A.inverse(w)), True)
print(json.dumps(worker.run_queries(oracle_load, [q], 60.0, {limit})))
"""


class OverlongWord(unittest.TestCase):
    def test_blow_up_is_a_counted_failure_within_its_cap(self):
        cap_mib, limit_s = 384, 3.0
        code = OVERLONG.format(here=str(HERE), cap=cap_mib, limit=limit_s)
        done = worker.spawn([sys.executable, "-c", code], "", run.child_env(), 60)
        self.assertEqual(done.code, 0)
        (record,) = json.loads(done.stdout)
        self.assertIn(record["status"], ("timeout", "memory"))
        self.assertLess(done.seconds, limit_s + 10)
        self.assertLessEqual(done.peak_rss_kib, cap_mib * 1024)
        attempted, failed, _ = run.tally([record])
        self.assertEqual((attempted, failed), (1, 1))


class FlippedAnswers(unittest.TestCase):
    def _flip_one(self, load, flip):
        queries = load.make_round(random.Random(5), 0)
        plain = worker.run_queries(load, queries, 60.0, 20.0)
        self.assertEqual(run.tally(plain)[1], 0)
        flip(queries[0])
        flipped = worker.run_queries(load, queries, 60.0, 20.0)
        self.assertEqual(run.tally(flipped)[1:], (1, {"wrong": 1}))
        self.assertEqual(flipped[0]["status"], "wrong")

    def test_oracle(self):
        import oracle_load

        def flip(q):
            q.truth = not q.truth if isinstance(q.truth, bool) else ()

        self._flip_one(oracle_load, flip)

    def test_algebra(self):
        import algebra_load

        def flip(q):
            q.truth = ("not-a-verdict",)

        self._flip_one(algebra_load, flip)

    def test_cli(self):
        import cli_load

        os.environ["PYTHONPATH"] = run.child_env()["PYTHONPATH"]
        calls = cli_load.make_round(random.Random(5), 0)[:3]
        records = worker.run_calls(calls, 60.0, 60.0)[0]
        self.assertEqual(run.tally(records)[1], 0)
        calls[1].code = 1 - calls[1].code
        records = worker.run_calls(calls, 60.0, 60.0)[0]
        self.assertEqual(run.tally(records)[1], 1)
        self.assertTrue(records[1]["status"].startswith("wrong"))


class KnownAnswers(unittest.TestCase):
    def test_independent_arithmetic(self):
        self.assertEqual(A.determinant([[2, 1], [7, 4]]), 1)
        self.assertEqual(A.permutation(3, A.garside(3)), (2, 1, 0))
        self.assertEqual(len(A.shapes(8)), 9)
        self.assertEqual(A.ln_order(3, 3, 3, 3), 27)


class MissingSource(unittest.TestCase):
    def test_run_refuses_without_the_package(self):
        bare = Path(".perfbench/selftest-bare").resolve()
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if Path("BENCHMARK.json").is_file():
            shutil.copy("BENCHMARK.json", bare)
        argv = [sys.executable, "perfbench/run.py", "--workload", "cli-calls", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        try:
            proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
