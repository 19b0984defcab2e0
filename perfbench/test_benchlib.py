"""Unit tests of the benchmark's own rules.

    python3 perfbench/test_benchlib.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


class TailRule(unittest.TestCase):
    def test_p75_by_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.tail(values), (75, 75.0, 25, 100))
        self.assertEqual(sum(1 for v in values if v > 75), 25)
        value, pct, beyond, n = benchlib.tail(list(range(1001)))
        self.assertEqual((value, pct, beyond, n), (750, 75.0, 250, 1001))

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(benchlib.tail(values),
                         benchlib.tail(sorted(values, reverse=True)))

    def test_few_samples(self):
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), (3.0, 75.0, 0, 3))
        self.assertEqual(benchlib.tail(list(range(25))), (18, 75.0, 6, 25))

    def test_empty(self):
        self.assertEqual(benchlib.tail([]), (0.0, 0.0, 0, 0))

    def test_highest_tail_leaves_exactly_ten_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.highest_tail(values), (90, 90.0, 10, 100))
        value, pct, beyond, n = benchlib.highest_tail(list(range(1000)))
        self.assertEqual((value, beyond, n), (989, 10, 1000))
        self.assertAlmostEqual(pct, 99.0)
        self.assertIsNone(benchlib.highest_tail([1.0] * 10))
        self.assertEqual(benchlib.highest_tail([1.0] * 11)[2], 10)

    def test_quartile_spread(self):
        self.assertAlmostEqual(benchlib.quartile_spread([10.0] * 10), 0.0)
        spread = benchlib.quartile_spread([8, 9, 10, 10, 10, 10, 10, 11, 12, 13])
        self.assertAlmostEqual(spread, (11.25 - 9.75) / 10.0)


def ev(name, sid, parent, ts, dur):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"id": sid, "parent": parent}}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        events = [
            ev("op", 0, -1, 0.0, 100.0),
            ev("proxy", 1, 0, 1.0, 60.0),
            ev("inner", 2, 1, 2.0, 10.0),   # grandchild: not subtracted from op
            ev("key", 3, 0, 70.0, 5.0),
            ev("key", 4, 0, 80.0, 5.0),
        ]
        s = benchlib.span_stats(events)
        self.assertAlmostEqual(s["op"]["self_us"], 100.0 - 60.0 - 10.0)
        self.assertAlmostEqual(s["proxy"]["self_us"], 50.0)
        self.assertAlmostEqual(s["inner"]["self_us"], 10.0)
        self.assertEqual(s["key"]["count"], 2)
        self.assertAlmostEqual(s["key"]["total_us"], 10.0)
        self.assertAlmostEqual(s["key"]["self_us"], 10.0)

    def test_overhanging_children_clamp_at_zero(self):
        s = benchlib.span_stats([ev("op", 0, -1, 0.0, 10.0),
                                 ev("c", 1, 0, 0.0, 10.001)])
        self.assertEqual(s["op"]["self_us"], 0.0)

    def test_table_is_sorted_by_self_time_and_shares_sum_to_one(self):
        events = [ev("op", 0, -1, 0.0, 100.0), ev("proxy", 1, 0, 0.0, 90.0)]
        rows = benchlib.self_time_table(benchlib.span_stats(events))
        self.assertEqual([r[0] for r in rows], ["proxy", "op"])
        self.assertAlmostEqual(sum(r[4] for r in rows), 1.0)
        self.assertAlmostEqual(rows[0][4], 0.9)


PROC_STAT = """cpu  452 3 60 9000 7 0 2 48 0 0
cpu0 100 1 15 2250 2 0 1 12 0 0
intr 12345
ctxt 67890
"""


class ProcStat(unittest.TestCase):
    def test_parses_the_aggregate_line(self):
        t = benchlib.parse_proc_stat(PROC_STAT)
        self.assertEqual(t["user"], 452)
        self.assertEqual(t["iowait"], 7)
        self.assertEqual(t["steal"], 48)
        self.assertEqual(t["idle"], 9000)

    def test_old_kernels_without_steal_read_as_zero(self):
        t = benchlib.parse_proc_stat("cpu 1 2 3 4 5\n")
        self.assertEqual(t["steal"], 0)
        self.assertEqual(t["iowait"], 5)

    def test_missing_cpu_line_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.parse_proc_stat("cpu0 1 2 3 4\n")

    def test_delta_and_shares(self):
        a = benchlib.parse_proc_stat("cpu 100 0 0 100 0 0 0 0\n")
        b = benchlib.parse_proc_stat("cpu 552 0 0 100 0 0 0 48\n")
        d = benchlib.cpu_delta(a, b)
        self.assertEqual(d["user"], 452)
        self.assertEqual(d["steal"], 48)
        self.assertAlmostEqual(d["steal_share"], 0.096)
        self.assertEqual(d["iowait_share"], 0.0)


if __name__ == "__main__":
    unittest.main()
