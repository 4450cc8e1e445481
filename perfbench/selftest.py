"""Self-test of the benchmark's checker and output.

    python3 perfbench/selftest.py

A flipped verdict must count as failed, and a tiny run of every workload
must print exactly the metrics BENCHMARK.json names, with their units.
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import run

run.load_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from fockrep import catalogue, realize  # noqa: E402
from fockrep.scalars import rat  # noqa: E402
from fockrep.verify import CheckResult  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_line(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def tiny(workload, trace=0) -> dict:
    return result_line("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--tiny")


class FlippedVerdicts(unittest.TestCase):
    def test_negative_control_that_passes_is_a_failure(self):
        rep = catalogue.build("sl2_standard", {"n": rat(1)})
        name = next(iter(rep.generators))
        mono = next(iter(rep.generators[name].as_weyl().terms))
        bumped = run.run_pass([workloads.negative_control_op(rep, name, mono, 1)])
        unbumped = run.run_pass([workloads.negative_control_op(rep, name, mono, 0)])
        self.assertEqual(bumped.mismatches, [])
        self.assertEqual(len(unbumped.mismatches), 1)
        self.assertIn("passes", unbumped.mismatches[0][1])

    def test_cross_result_forced_to_fail_is_a_failure(self):
        honest = tiny("cross_realize")
        forced = [CheckResult("cross differential J0", "FAIL", "", "forced")]
        with mock.patch.object(realize, "cross_check", return_value=forced):
            flipped = tiny("cross_realize")
        self.assertTrue(honest["correct"])
        self.assertEqual(honest["failed"], 1)  # the recorded Jackson defect
        self.assertFalse(flipped["correct"])
        self.assertEqual(flipped["failed"], flipped["attempted"])

    def test_a_raising_op_is_a_failure(self):
        op = workloads.Op("boom", lambda: 1 / 0, lambda result: "")
        with contextlib.redirect_stderr(io.StringIO()):
            done = run.run_pass([op])
        self.assertEqual(len(done.mismatches), 1)


class Smoke(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_every_workload_prints_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload)
                self.assertTrue(result["correct"])
                self.assert_metrics(result, SPEC["end_to_end"])
                traced = tiny(workload, trace=1)
                self.assertTrue(traced["correct"])
                self.assert_metrics(traced, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
