"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import harness as h  # noqa: E402
import run  # noqa: E402

CHECK_OK = """== Reproduction scorecard (paper claims re-derived from the simulators) ==
|    Artifact |    Claim | Status | Evidence |
----------------------------------------------
""" + "".join(f"|     Fig {i} | claim {i} |   PASS | e{i} |\n" for i in range(15)) + """
all 15 claims reproduced
"""

GEN_OK = """== Metamorphic invariants ==
|           Invariant | Description | Checked | Violations |
-----------------------------------------------------------
|      fault_monotone |           a |       0 |          0 |
|      fp8_kv_smaller |           b |      13 |          0 |
"""

REPORT_OK = ("run report: 20 points — 20 completed (0 retried), 0 from journal, "
             "0 failed, 0 panicked, 0 timed out\n")


class SelfTime(unittest.TestCase):
    # (id, parent, name, start_ns, end_ns)
    def test_nested_spans_subtract_only_their_direct_children(self):
        spans = [
            (1, 0, "root", 0, 100),
            (2, 1, "a", 10, 60),
            (3, 2, "b", 20, 30),
            (4, 2, "c", 40, 45),
            (5, 1, "d", 70, 80),
        ]
        s = h.self_times(spans)
        self.assertAlmostEqual(s["root"] * 1e9, 100 - 50 - 10)
        self.assertAlmostEqual(s["a"] * 1e9, 50 - 10 - 5)
        self.assertAlmostEqual(s["b"] * 1e9, 10)
        self.assertAlmostEqual(sum(s.values()) * 1e9, 100)

    def test_overlapping_children_on_other_threads_count_once(self):
        spans = [(1, 0, "sweep", 0, 100), (2, 1, "item", 0, 60), (3, 1, "item", 10, 90)]
        s = h.self_times(spans)
        self.assertAlmostEqual(s["sweep"] * 1e9, 10)
        self.assertAlmostEqual(s["item"] * 1e9, 140)

    def test_layer_split_sums_to_total(self):
        spans = [(1, 0, "trace.run", 0, 100), (2, 1, "compile.graph", 0, 30),
                 (3, 1, "render", 30, 90)]
        split = h.layer_split(h.self_times(spans))
        self.assertAlmostEqual(split["unattributed"] * 1e9, 10)
        self.assertAlmostEqual(split["compile"] * 1e9, 30)
        self.assertAlmostEqual(split["Total"] * 1e9, 100)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(h.tail_percentile(range(19)))
        self.assertEqual(h.tail_percentile(range(1, 21)), (50.0, 10))
        self.assertEqual(h.tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(h.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(h.tail_percentile(range(1, 10001)), (99.9, 9990))

    def test_unsorted_input(self):
        self.assertEqual(h.tail_percentile(list(range(100, 0, -1))), (90.0, 90))


class Populations(unittest.TestCase):
    def test_mean_of_medians_weights_each_population_once(self):
        self.assertEqual(h.mean_of_medians([[1, 2, 100], [4, 4]]), 3)

    def test_seeds_are_the_seed_first_and_distinct_across_seeds(self):
        self.assertEqual(run.population_seeds("paper", 7), [7])
        a, b = run.population_seeds("gen-baby", 7), run.population_seeds("gen-baby", 8)
        self.assertEqual(a[0], 7)
        self.assertEqual(len(set(a + b)), 2 * run.POPULATIONS["gen-baby"])
        self.assertEqual(a, run.population_seeds("gen-cosmic", 7)[: len(a)])


class OutputChecks(unittest.TestCase):
    def test_clean_outputs_pass(self):
        self.assertEqual(h.check_claims(CHECK_OK), [])
        self.assertEqual(h.check_invariants(GEN_OK), [])
        self.assertEqual(h.check_run_report("gen", REPORT_OK, 20), [])
        self.assertEqual(h.check_exit("all", 0), [])

    def test_non_zero_exit_and_timeout_fail(self):
        self.assertEqual(len(h.check_exit("all", 2)), 1)
        self.assertEqual(len(h.check_exit("all", 0, timed_out=True)), 1)

    def test_fail_claim_line_fails(self):
        tampered = CHECK_OK.replace("|   PASS | e3 |", "|   FAIL | e3 |")
        errors = h.check_claims(tampered)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("claim 3", errors[0])

    def test_missing_summary_fails(self):
        self.assertEqual(len(h.check_claims(CHECK_OK.replace("all 15", "all 14"))), 1)

    def test_violations_and_failed_points_count_each(self):
        self.assertEqual(len(h.check_invariants(GEN_OK.replace("13 |          0", "13 |          2"))), 2)
        bad = REPORT_OK.replace("20 completed", "17 completed").replace("0 failed", "3 failed")
        self.assertEqual(len(h.check_run_report("gen", bad, 20)), 4)
        self.assertEqual(len(h.check_run_report("gen", "", 20)), 1)

    def test_tampered_stdout_changes_the_digest(self):
        self.assertNotEqual(h.digest(CHECK_OK.encode()), h.digest(CHECK_OK.encode() + b" "))

    def test_tampered_stdout_fails_the_iteration(self):
        tally = run.Tally()
        original = run.iteration
        run.iteration = lambda *a: (12, 0.1, 0.1, 1, b"tampered", [])
        try:
            run.checked_iteration(None, "paper", 0, None, tally, b"reference")
        finally:
            run.iteration = original
        self.assertEqual((tally.attempted, tally.failed), (12, 1))


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_what_the_harness_prints(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(h.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], ["paper", "gen-baby", "gen-cosmic"])


if __name__ == "__main__":
    unittest.main()
