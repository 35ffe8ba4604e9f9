"""Tests of the literal oracles and of the checks built on them.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import oracles
from checks import Checker
from workloads import FULL_COVERAGE_CAP, NAMED_FAULTS, WORKLOADS, jobs_for, make_job

# odds below 1e4 whose odd chains climb above 1e6
GAPS_AT_1E6 = [4255, 4591, 5673, 6121, 6383, 6471, 6887, 8161, 8191, 8511, 9183, 9575, 9663, 9707]


class OracleTests(unittest.TestCase):
    def test_walk_follows_the_step_rule_to_one(self):
        values = oracles.walk(27)
        self.assertEqual((len(values) - 1, max(values), values[-1]), (111, 9232, 1))
        self.assertEqual(oracles.walk(1), [1])
        self.assertEqual(oracles.walk(6), [6, 3, 10, 5, 16, 8, 4, 2, 1])
        with self.assertRaises(oracles.RunawayChain):
            oracles.walk(27, max_steps=50)

    def test_descent_count_is_the_first_drop_in_the_walk(self):
        self.assertEqual([oracles.descent_count(n) for n in (1, 3, 5, 7, 27)], [0, 6, 3, 11, 96])
        for n in range(3, 4001, 2):
            values = oracles.walk(n)
            self.assertEqual(oracles.descent_count(n), next(i for i, v in enumerate(values) if v < n))
        with self.assertRaises(oracles.RunawayChain):
            oracles.descent_count(27, max_steps=95)

    def test_odd_chain_caps(self):
        self.assertEqual(oracles.odd_chain_caps(1), (1, 0))
        self.assertEqual(oracles.odd_chain_caps(3), (5, 4))  # 3 -> 5 -> 1, runs 1 and 4
        self.assertEqual(oracles.odd_chain_caps(9663)[0], FULL_COVERAGE_CAP)
        caps = {n: oracles.odd_chain_caps(n) for n in range(1, 10_001, 2)}
        self.assertEqual(sorted(n for n, (peak, _) in caps.items() if peak > 10**6), GAPS_AT_1E6)
        self.assertEqual(max(peak for peak, _ in caps.values()), FULL_COVERAGE_CAP)
        with self.assertRaises(oracles.RunawayChain):
            oracles.odd_chain_caps(27, max_odd_steps=40)

    def test_odd_count_matches_enumeration(self):
        for lo in range(0, 12):
            for hi in range(-1, 30):
                self.assertEqual(oracles.odd_count(lo, hi), sum(1 for v in range(lo, hi + 1) if v % 2))
        n = (4**33 - 1) // 3
        self.assertEqual(oracles.odd_count(1, n), (n + 1) // 2)

    def test_descent_records_prefix_recomputed(self):
        self.assertEqual(
            oracles.descent_records(1_000_000), [r for r in oracles.DESCENT_RECORDS if r[0] <= 1_000_000]
        )
        for start, count in oracles.DESCENT_RECORDS:
            self.assertEqual(oracles.descent_count(start), count)

    def test_record_start(self):
        self.assertEqual(oracles.record_start(10_000_000), (8088063, 401))
        self.assertEqual(oracles.record_start(100_000), (35655, 220))
        self.assertEqual(oracles.record_start(26), (7, 11))
        with self.assertRaises(ValueError):
            oracles.record_start(11_000_001)


class CheckTests(unittest.TestCase):
    """Each check accepts a right result and rejects a wrong one."""

    def setUp(self):
        self.c = Checker(seed=1)

    def assert_verdicts(self, argv, code, good: dict | list, bad: dict | list):
        self.assertIsNone(self.c.check(argv, code, json.dumps(good)))
        self.assertIsNotNone(self.c.check(argv, code, json.dumps(bad)))

    def test_verify_forward(self):
        argv = make_job("verify-forward", bound=10_000_000).argv
        good = {"bound": 10_000_000, "verified": 5_000_000, "failures": [], "max_steps_used": 401,
                "wall_time": 1.0, "shards": 2}
        self.assert_verdicts(argv, 0, good, dict(good, max_steps_used=400))
        self.assertIsNotNone(self.c.check(argv, 0, json.dumps(dict(good, verified=4_999_999))))

    def test_verify_inverse(self):
        argv = make_job("verify-inverse", bound=10_000, value_cap=10**6, x_max=60).argv
        good = {"bound": 10_000, "value_cap": 10**6, "x_max": 60, "reached_count": 5000 - 14,
                "unreached_count": 14, "unreached": GAPS_AT_1E6, "nodes_expanded": 1}
        bad = dict(good, unreached=GAPS_AT_1E6[:-1], unreached_count=13, reached_count=5000 - 13)
        self.assert_verdicts(argv, 1, good, bad)
        full = make_job("verify-inverse", bound=10_000, value_cap=FULL_COVERAGE_CAP, x_max=60).argv
        self.assertIsNone(self.c.check(full, 0, json.dumps(dict(good, reached_count=5000, unreached_count=0, unreached=[]))))
        self.assertIsNotNone(self.c.check(full, 1, json.dumps(good)))

    def test_seq(self):
        values = oracles.walk(7)
        steps = values[:-1]
        good = {"start": 7, "terminated": True, "steps": len(steps), "even_steps": sum(v % 2 == 0 for v in steps),
                "odd_steps": sum(v % 2 for v in steps), "peak": 52, "values": values, "chain_product": "1/7"}
        self.assert_verdicts(make_job("seq", start=7).argv, 0, good, dict(good, chain_product="1/1"))

    def test_uniqueness_and_totals(self):
        argv = make_job("uniqueness", bound=1001).argv
        good = {"bound": 1001, "records_checked": 500, "violations": []}
        self.assert_verdicts(argv, 0, good, dict(good, records_checked=501))
        rows = [{"kN": k, "N": (4**k - 1) // 3, "T": (4**k + 2) // 6, "identityHolds": True} for k in (2, 3)]
        self.assert_verdicts(make_job("totals", kmax=3).argv, 0, rows, [rows[0], dict(rows[1], T=10)])

    def test_named_faults_fail_as_they_fail_today(self):
        # today each of these raises out of main (exit 1) or, for the budget-starved
        # cycle scan, passes with exit 0
        for job in NAMED_FAULTS:
            code = 0 if job.command == "cycle-scan" else 1
            out = json.dumps([{"members": [1, 4, 2]}]) if code == 0 else ""
            self.assertIsNotNone(self.c.check(job.argv, code, out), job.argv)
        self.assertIsNone(self.c.check(NAMED_FAULTS[0].argv, 2, ""))


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_jobs_and_fixed_make_up(self):
        for w in WORKLOADS:
            self.assertEqual(jobs_for(w, 7), jobs_for(w, 7))
            self.assertEqual(sorted(j.command for j in jobs_for(w, 7)), sorted(j.command for j in jobs_for(w, 8)))
        self.assertNotEqual(jobs_for("queries", 7), jobs_for("queries", 8))
        self.assertEqual(sum(j.fault is not None for j in jobs_for("queries", 3)), len(NAMED_FAULTS))


if __name__ == "__main__":
    unittest.main()
