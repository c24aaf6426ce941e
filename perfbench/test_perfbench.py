#!/usr/bin/env python3
"""Self-tests of the host-time benchmark.

    python3 perfbench/test_perfbench.py

They build the drivers the way run.py does, then check the metric
names and units, the correctness gate, the seed contract, and the
determinism contracts of DESIGN.md that the digest rests on: a run in
5-minute slices equals one run(), observed at 4 merge shards equals
1 shard, and the threaded federation equals its merge oracle domain
by domain.  A failure of the last three is a defect of the library,
not of the benchmark.
"""

import contextlib
import io
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# The benchmark contract's limits on metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def driver(workload, seed, *extra, exe="vcpbench"):
    result, _, _ = run.run_driver(exe, workload, seed, extra)
    if result is None:
        raise AssertionError("%s %s seed %d failed" % (exe, workload, seed))
    return result


def describe(workload, seed):
    return driver(workload, seed, "--describe")


def run_main(*argv):
    """run.main() with its standard output captured; returns the
    printed lines and the parsed last line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(argv))
    lines = out.getvalue().splitlines()
    if rc != 0:
        raise AssertionError("run.py exited %d" % rc)
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(traced=True)
        cls.spec = run.load_spec()

    def test_metric_names_and_units(self):
        declared = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in declared]
        self.assertEqual(len(names), len(set(names)))
        for m in declared:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, last = run_main("--workload", "observed", "--seed", "1",
                                   "--seconds", "0", "--trace", str(trace))
            self.assertEqual(set(last), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(last["correct"])
            printed = last["metrics"]
            self.assertEqual(list(printed),
                             [m["name"] for m in self.spec[key]])
            for m in self.spec[key]:
                self.assertEqual(printed[m["name"]]["unit"], m["unit"])
                self.assertIsInstance(printed[m["name"]]["value"],
                                      (int, float))
                self.assertTrue(any(
                    l.split()[:1] == [m["name"]] and
                    l.split()[-1] == m["unit"] for l in lines),
                    "%s is not printed with its unit" % m["name"])

    def test_wrong_recorded_digest_marks_the_run_failed(self):
        real = run.load_digests
        run.load_digests = lambda: {"observed": {"1": "0" * 16}}
        try:
            _, last = run_main("--workload", "observed", "--seed", "1",
                               "--seconds", "0", "--trace", "0")
        finally:
            run.load_digests = real
        self.assertFalse(last["correct"])
        self.assertEqual(last["failed"], last["attempted"])

        r = driver("observed", 1)
        ok = run.check_runs(1, [r, r], r["digest"])
        self.assertTrue(ok[0])
        self.assertEqual(ok[2], 0)
        bad = run.check_runs(1, [r, r], "0" * 16)
        self.assertFalse(bad[0])
        self.assertEqual(bad[2], bad[1])

    def test_seed_changes_the_inputs_and_nothing_else(self):
        for w in run.WORKLOADS:
            a, b = describe(w, 1), describe(w, 2)
            self.assertEqual(a.pop("seed"), 1)
            self.assertEqual(b.pop("seed"), 2)
            if w == "federation":
                # The burst schedule is the input drawn from the seed.
                self.assertNotEqual(a.pop("steps_hash"),
                                    b.pop("steps_hash"))
                a.pop("deploys")
                b.pop("deploys")
            self.assertEqual(a, b, w)
            self.assertEqual(describe(w, 1), describe(w, 1))
        one, two = driver("observed", 1), driver("observed", 2)
        self.assertNotEqual(one["digest"], two["digest"])
        self.assertEqual(driver("observed", 1)["digest"], one["digest"])

    def test_sliced_run_equals_single_run(self):
        for w in ("churn", "wide", "observed"):
            sliced = driver(w, 3)
            single = driver(w, 3, "--single")
            self.assertGreater(len(sliced["slice_ms"]), 200)
            self.assertEqual(sliced["digest"], single["digest"],
                             "%s: 5-minute runUntil slices changed the "
                             "outcome of run()" % w)

    def test_observed_four_merge_shards_equal_one(self):
        four = driver("observed", 4)
        one = driver("observed", 4, "--shards", "1")
        self.assertEqual(four["shards"], 4)
        self.assertEqual(one["shards"], 1)
        self.assertEqual(four["digest"], one["digest"],
                         "merge-mode sharding changed the outcome")

    def test_federation_threaded_equals_merge_oracle(self):
        threaded = driver("federation", 5)
        merge = driver("federation", 5, "--merge")
        self.assertEqual(merge["exec_mode"], "merge")
        if threaded["shards"] > 1:
            self.assertEqual(threaded["exec_mode"], "threaded")
        self.assertEqual(len(threaded["domain_digests"]), 4)
        self.assertEqual(threaded["domain_digests"],
                         merge["domain_digests"],
                         "threaded domains diverged from the merge "
                         "oracle")
        self.assertEqual(threaded["ops_failed"], 0)

    def test_recorded_digests_match_this_build(self):
        digests = run.load_digests()
        for w in ("observed", "federation"):
            r = driver(w, 1)
            rec = digests.get(run.digest_key(w, r), {}).get("1")
            if rec is not None:
                self.assertEqual(r["digest"], rec, w)

    def test_traced_driver_records_every_layer(self):
        plain = driver("observed", 1)
        traced = driver("observed", 1, exe="vcpbench_traced")
        self.assertEqual(plain["digest"], traced["digest"],
                         "tracing changed the simulated outcome")
        kinds = traced["trace"]["kinds"]
        for name, k in kinds.items():
            if name != "cloud.route":
                self.assertGreater(k["calls"], 0,
                                   "%s recorded no call: is its symbol "
                                   "still wrapped?" % name)
        main = kinds["bench.main"]["total_s"]
        covered = sum(k["main_self_s"] for k in kinds.values())
        self.assertAlmostEqual(covered / main, 1.0, delta=0.01)
        fed = driver("federation", 1, exe="vcpbench_traced")
        self.assertGreater(fed["trace"]["kinds"]["cloud.route"]["calls"], 0)
        spans = os.path.join(run.BUILD, "out", "federation", "spans.json")
        with open(spans) as f:
            self.assertTrue(json.load(f)["traceEvents"])


if __name__ == "__main__":
    unittest.main()
