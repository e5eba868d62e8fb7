"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import analysis  # noqa: E402
import run  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_percentiles_of_one_to_hundred(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(analysis.nearest_rank(values, 50), 50)
        self.assertEqual(analysis.nearest_rank(values, 90), 90)
        self.assertEqual(analysis.nearest_rank(values, 100), 100)
        self.assertEqual(analysis.nearest_rank(values, 1), 1)

    def test_rank_rounds_up(self):
        # ceil(0.9 * 5) = 5: the p90 of five samples is the largest.
        self.assertEqual(analysis.nearest_rank([3, 1, 2, 5, 4], 90), 5)
        # ceil(0.5 * 4) = 2: the p50 of four samples is the second.
        self.assertEqual(analysis.nearest_rank([4, 1, 3, 2], 50), 2)

    def test_rejects_empty_and_bad_percentiles(self):
        with self.assertRaises(ValueError):
            analysis.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            analysis.nearest_rank([1], 0)
        with self.assertRaises(ValueError):
            analysis.nearest_rank([1], 101)


class TenBeyond(unittest.TestCase):
    def test_hundred_samples_leave_ten_past_p90(self):
        self.assertEqual(analysis.samples_beyond(100, 90), 10)
        self.assertTrue(analysis.supports_percentile(100, 90))

    def test_fewer_samples_do_not(self):
        self.assertEqual(analysis.samples_beyond(99, 90), 9)
        self.assertFalse(analysis.supports_percentile(99, 90))
        self.assertFalse(analysis.supports_percentile(0, 50))

    def test_median_needs_twenty(self):
        self.assertTrue(analysis.supports_percentile(20, 50))
        self.assertFalse(analysis.supports_percentile(19, 50))


class SelfTimes(unittest.TestCase):
    def span(self, parent, begin, end):
        return {"parent": parent, "begin": begin, "end": end}

    def test_nested_spans(self):
        spans = {
            0: self.span(-1, 0, 100),   # request
            1: self.span(0, 10, 40),    # call with a nested call
            2: self.span(1, 20, 30),
            3: self.span(0, 50, 60),
        }
        self_us = analysis.self_times(spans)
        self.assertEqual(self_us[0], 100 - 30 - 10)  # only direct children
        self.assertEqual(self_us[1], 30 - 10)
        self.assertEqual(self_us[2], 10)
        self.assertEqual(self_us[3], 10)

    def test_children_are_clipped_and_not_double_counted(self):
        spans = {
            0: self.span(-1, 10, 20),
            1: self.span(0, 5, 15),    # starts before its parent
            2: self.span(0, 12, 14),   # inside the part already covered
            3: self.span(0, 18, 25),   # ends after its parent
        }
        self.assertEqual(analysis.self_times(spans)[0], 10 - 5 - 2)

    def test_trace_round_trip(self):
        doc = {"traceEvents": [
            {"name": "request", "ph": "B", "ts": 0.0, "args": {"req": 7}},
            {"name": "bm3d.denoise", "ph": "B", "ts": 2.0,
             "args": {"req": 7}},
            {"name": "bm3d.denoise", "ph": "E", "ts": 9.0},
            {"name": "request", "ph": "E", "ts": 10.0},
        ]}
        spans = analysis.parse_trace(doc)
        self.assertEqual(spans[1]["req"], 7)
        self.assertEqual(spans[1]["parent"], 0)
        self.assertEqual(analysis.self_times(spans), {0: 3.0, 1: 7.0})

    def test_parents_and_requests_come_from_the_nesting(self):
        # Timestamps tie; the event order alone says what nests.
        doc = {"traceEvents": [
            {"name": "simd.micro", "ph": "B", "ts": 5.0, "args": {"req": -1}},
            {"name": "simd.dct4_fwd", "ph": "B", "ts": 5.0,
             "args": {"calls": 64}},
            {"name": "simd.dct4_fwd", "ph": "E", "ts": 5.0},
            {"name": "simd.dct4_inv", "ph": "B", "ts": 5.0,
             "args": {"calls": 32}},
            {"name": "simd.dct4_inv", "ph": "E", "ts": 6.0},
            {"name": "simd.micro", "ph": "E", "ts": 6.0},
            {"name": "request", "ph": "B", "ts": 7.0, "args": {"req": 3}},
            {"name": "runtime.collect", "ph": "B", "ts": 7.5},
            {"name": "runtime.collect", "ph": "E", "ts": 8.0},
            {"name": "request", "ph": "E", "ts": 9.0},
        ]}
        spans = analysis.parse_trace(doc)
        self.assertEqual([spans[i]["parent"] for i in range(5)],
                         [-1, 0, 0, -1, 3])
        self.assertEqual([spans[i]["req"] for i in range(5)],
                         [-1, -1, -1, 3, 3])
        self.assertEqual([spans[i]["calls"] for i in range(5)],
                         [1, 64, 32, 1, 1])

    def test_unbalanced_trace_is_rejected(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0.0, "args": {"req": 0}},
            {"name": "b", "ph": "E", "ts": 1.0},
        ]}
        with self.assertRaises(ValueError):
            analysis.parse_trace(doc)
        with self.assertRaises(ValueError):
            analysis.parse_trace({"traceEvents": doc["traceEvents"][:1]})


class FailedFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(analysis.failed_frac(150, 0), 0.0)
        self.assertEqual(analysis.failed_frac(4, 1), 0.25)

    def test_invalid_counts(self):
        with self.assertRaises(ValueError):
            analysis.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            analysis.failed_frac(3, 4)
        with self.assertRaises(ValueError):
            analysis.failed_frac(3, -1)


class InFlight(unittest.TestCase):
    def test_closed_loop_of_two(self):
        # Two requests kept in flight; each next one is submitted the
        # instant the oldest is collected.
        intervals = [(0, 3), (1, 5), (3, 7), (5, 9), (7, 8)]
        self.assertEqual(analysis.max_in_flight(intervals), 2)

    def test_overlap_is_detected(self):
        self.assertEqual(
            analysis.max_in_flight([(0, 10), (1, 10), (2, 3)]), 3)

    def test_sequential_requests(self):
        self.assertEqual(analysis.max_in_flight([(0, 1), (1, 2), (2, 3)]), 1)
        self.assertEqual(analysis.max_in_flight([]), 0)

    def test_collect_before_submit_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.max_in_flight([(2, 1)])


class WarmupCut(unittest.TestCase):
    def rec(self, sess, c):
        return {"sess": sess, "c": c}

    def test_every_session_must_have_completed(self):
        recs = [self.rec(0, 1), self.rec(0, 2), self.rec(1, 2.5),
                self.rec(1, 2.9), self.rec(1, 4)]
        self.assertTrue(analysis.warmup_cut_ok(recs, 3.0, 2, 2))
        self.assertFalse(analysis.warmup_cut_ok(recs, 3.0, 2, 3))
        # A cut before session 1's second completion is too early.
        self.assertFalse(analysis.warmup_cut_ok(recs, 2.6, 2, 2))

    def test_session_without_requests_fails(self):
        self.assertFalse(
            analysis.warmup_cut_ok([self.rec(0, 1)], 5.0, 2, 1))


class Determinism(unittest.TestCase):
    """Exact metrics must repeat between runs of one build, and only
    there: a rebuilt program may change them on purpose."""

    def test_same_build_must_repeat(self):
        with tempfile.TemporaryDirectory() as d:
            det_dir = Path(d)
            first = run.check_determinism(det_dir, "a-avx2", "photo", 1,
                                          {"x": 1.0})
            again = run.check_determinism(det_dir, "a-avx2", "photo", 1,
                                          {"x": 1.0})
            changed = run.check_determinism(det_dir, "a-avx2", "photo", 1,
                                            {"x": 2.0})
            self.assertEqual((first, again), ([], []))
            self.assertEqual(len(changed), 1)

    def test_other_build_or_seed_starts_afresh(self):
        with tempfile.TemporaryDirectory() as d:
            det_dir = Path(d)
            run.check_determinism(det_dir, "a-avx2", "photo", 1, {"x": 1.0})
            self.assertEqual(run.check_determinism(
                det_dir, "b-avx2", "photo", 1, {"x": 2.0}), [])
            self.assertEqual(run.check_determinism(
                det_dir, "a-avx2", "photo", 2, {"x": 2.0}), [])

    def test_build_key_follows_the_binary(self):
        with tempfile.TemporaryDirectory() as d:
            a, b, c = (Path(d) / n for n in "abc")
            a.write_bytes(b"program one")
            b.write_bytes(b"program one")
            c.write_bytes(b"program two")
            self.assertEqual(run.build_key(a, "avx2"),
                             run.build_key(b, "avx2"))
            self.assertNotEqual(run.build_key(a, "avx2"),
                                run.build_key(c, "avx2"))
            self.assertNotEqual(run.build_key(a, "avx2"),
                                run.build_key(a, "scalar"))


class MetricLists(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    def test_names_and_units_match_the_contract(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
