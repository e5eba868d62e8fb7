#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py (registered as a ctest).

Covers the comparison primitives directly (tolerance edges, keys
present in only one record, the deterministic op-count gate) and the
end-to-end exit code through main() on synthetic records.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"),
)
import bench_diff  # noqa: E402


def record(**overrides):
    """A minimal valid bench record; fields overridable per test."""
    base = {
        "name": "fig02_cpu_runtime",
        "git_sha": "abc123",
        "simd_level": "avx2",
        "threads": 8,
        "wall_time_s": 10.0,
        "metrics": {},
        "kernel_times_ms": {"DCT1": 100.0, "BM1": 200.0},
        "ops": {"DCT1_ops": 1000.0, "BM1_ops": 2000.0},
        "counters": {"bm3d.mr.bm1Refs": 64009.0},
    }
    base.update(overrides)
    return base


class TestLoad(unittest.TestCase):
    def test_load_valid_record(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as f:
            json.dump(record(), f)
            path = f.name
        try:
            self.assertEqual(bench_diff.load(path)["name"], "fig02_cpu_runtime")
        finally:
            os.unlink(path)

    def test_load_rejects_non_record(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as f:
            json.dump({"name": "x"}, f)  # missing wall_time_s etc.
            path = f.name
        try:
            with self.assertRaises(SystemExit):
                bench_diff.load(path)
        finally:
            os.unlink(path)


class TestCompareTimes(unittest.TestCase):
    def test_identical_records_pass(self):
        rows, regressions = bench_diff.compare_times(record(), record(), 0.10)
        self.assertEqual(regressions, [])
        self.assertTrue(all(status == "ok" for *_, status in rows))

    def test_slowdown_over_threshold_fails(self):
        cand = record(kernel_times_ms={"DCT1": 125.0, "BM1": 200.0})
        rows, regressions = bench_diff.compare_times(record(), cand, 0.10)
        self.assertEqual(regressions, ["DCT1"])

    def test_slowdown_within_threshold_passes(self):
        cand = record(kernel_times_ms={"DCT1": 109.0, "BM1": 200.0})
        _, regressions = bench_diff.compare_times(record(), cand, 0.10)
        self.assertEqual(regressions, [])

    def test_missing_kernels_reported_not_failed(self):
        # Kernels come and go across PRs: "new" and "gone" rows must
        # never fail the gate on their own.
        cand = record(kernel_times_ms={"DCT1": 100.0, "DE1": 50.0})
        rows, regressions = bench_diff.compare_times(record(), cand, 0.10)
        self.assertEqual(regressions, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["BM1"], "gone")
        self.assertEqual(statuses["DE1"], "new")

    def test_zero_baseline_time_is_regression_when_candidate_positive(self):
        base = record(kernel_times_ms={"DCT1": 0.0})
        cand = record(kernel_times_ms={"DCT1": 1.0})
        _, regressions = bench_diff.compare_times(base, cand, 0.10)
        self.assertEqual(regressions, ["DCT1"])

    def test_step_skipped_by_both_runs_passes(self):
        # Wiener-off records carry 0 ms for BM2/DCT2/DE2 on both
        # sides; a self-compare must not read 0/0 as infinitely slower.
        base = record(kernel_times_ms={"DCT1": 100.0, "BM2": 0.0})
        _, regressions = bench_diff.compare_times(base, dict(base), 0.10)
        self.assertEqual(regressions, [])


class TestCompareOps(unittest.TestCase):
    def test_exact_match_passes_at_zero_tolerance(self):
        _, drifted = bench_diff.compare_ops(record(), record(), 0.0)
        self.assertEqual(drifted, [])

    def test_any_drift_fails_at_zero_tolerance(self):
        cand = record(ops={"DCT1_ops": 1001.0, "BM1_ops": 2000.0})
        _, drifted = bench_diff.compare_ops(record(), cand, 0.0)
        self.assertEqual(drifted, ["DCT1_ops"])

    def test_counters_snapshot_is_gated_too(self):
        cand = record(counters={"bm3d.mr.bm1Refs": 64010.0})
        _, drifted = bench_diff.compare_ops(record(), cand, 0.0)
        self.assertEqual(drifted, ["bm3d.mr.bm1Refs"])

    def test_drift_within_tolerance_passes(self):
        cand = record(ops={"DCT1_ops": 1040.0, "BM1_ops": 2000.0})
        _, drifted = bench_diff.compare_ops(record(), cand, 0.05)
        self.assertEqual(drifted, [])

    def test_missing_keys_reported_not_failed(self):
        # Records from before the counters were embedded have no
        # "counters" map at all; the gate must not fail vacuously.
        base = record()
        del base["counters"]
        rows, drifted = bench_diff.compare_ops(base, record(), 0.0)
        self.assertEqual(drifted, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["bm3d.mr.bm1Refs"], "new")

    def test_excluded_keys_never_drift(self):
        # Arena hit/miss tallies depend on pipeline interleaving; the
        # exclude regex lets a zero-tolerance gate skip exactly those.
        base = record(
            counters={"arena.hit": 10.0, "service.hd0.arena.hits": 5.0,
                      "service.rejects": 2.0}
        )
        cand = record(
            counters={"arena.hit": 12.0, "service.hd0.arena.hits": 7.0,
                      "service.rejects": 2.0}
        )
        rows, drifted = bench_diff.compare_ops(
            base, cand, 0.0, exclude=r"(^|\.)arena\."
        )
        self.assertEqual(drifted, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["arena.hit"], "excluded")
        self.assertEqual(statuses["service.hd0.arena.hits"], "excluded")
        self.assertEqual(statuses["service.rejects"], "ok")

    def test_exclude_does_not_weaken_gate_on_other_keys(self):
        base = record(counters={"arena.hit": 10.0, "service.rejects": 2.0})
        cand = record(counters={"arena.hit": 10.0, "service.rejects": 3.0})
        _, drifted = bench_diff.compare_ops(
            base, cand, 0.0, exclude=r"(^|\.)arena\."
        )
        self.assertEqual(drifted, ["service.rejects"])


class TestCompareMem(unittest.TestCase):
    """The mem.peak* footprint-gauge gate (--mem-tolerance)."""

    GAUGES = {
        "mem.peakResidentBytes": 8.0e6,
        "mem.peakBandBytes": 1.0e6,
        "mem.peakFieldBytes": 6.0e6,
        "simd.level": 2.0,
    }

    def test_identical_gauges_pass(self):
        base = record(gauges=dict(self.GAUGES))
        rows, regressions = bench_diff.compare_mem(base, base, 0.10)
        self.assertEqual(regressions, [])
        # Only the mem.peak* family is gated; other gauges stay out.
        self.assertEqual(len(rows), 3)

    def test_footprint_growth_over_tolerance_fails(self):
        base = record(gauges=dict(self.GAUGES))
        cand = record(gauges=dict(self.GAUGES, **{
            "mem.peakBandBytes": 1.2e6}))
        _, regressions = bench_diff.compare_mem(base, cand, 0.10)
        self.assertEqual(regressions, ["mem.peakBandBytes"])

    def test_shrinking_footprint_never_fails(self):
        # The banded schedule's whole point: a candidate whose peak
        # drops (whole-image field replaced by the ring) must pass.
        base = record(gauges=dict(self.GAUGES))
        cand = record(gauges=dict(self.GAUGES, **{
            "mem.peakResidentBytes": 2.0e6}))
        rows, regressions = bench_diff.compare_mem(base, cand, 0.10)
        self.assertEqual(regressions, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertIn("improved", statuses["mem.peakResidentBytes"])

    def test_non_mem_gauges_never_gated(self):
        base = record(gauges={"simd.level": 2.0, "mem.peakBandBytes": 1.0})
        cand = record(gauges={"simd.level": 9.0, "mem.peakBandBytes": 1.0})
        _, regressions = bench_diff.compare_mem(base, cand, 0.10)
        self.assertEqual(regressions, [])

    def test_prefixed_names_are_gated_too(self):
        # Service rollups nest gauges as "<tenant>.mem.peak*".
        base = record(gauges={"hd0.mem.peakBandBytes": 1.0e6})
        cand = record(gauges={"hd0.mem.peakBandBytes": 2.0e6})
        _, regressions = bench_diff.compare_mem(base, cand, 0.10)
        self.assertEqual(regressions, ["hd0.mem.peakBandBytes"])

    def test_one_sided_gauges_reported_not_failed(self):
        # Records from before the footprint ledger have no mem.peak*
        # gauges at all; the gate must not fail vacuously.
        base = record()
        cand = record(gauges=dict(self.GAUGES))
        rows, regressions = bench_diff.compare_mem(base, cand, 0.10)
        self.assertEqual(regressions, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["mem.peakBandBytes"], "new")


class TestCompareLatency(unittest.TestCase):
    LAT = {"p50": 100.0, "p95": 150.0, "p99": 180.0, "mean": 110.0,
           "max": 200.0}

    def test_identical_latencies_pass(self):
        base = record(latency_ms=dict(self.LAT))
        rows, regressions = bench_diff.compare_latency(base, base, 0.10)
        self.assertEqual(regressions, [])
        self.assertEqual(len(rows), len(self.LAT))

    def test_percentile_regression_fails(self):
        base = record(latency_ms=dict(self.LAT))
        cand_lat = dict(self.LAT, p99=250.0)
        cand = record(latency_ms=cand_lat)
        _, regressions = bench_diff.compare_latency(base, cand, 0.10)
        self.assertEqual(regressions, ["p99"])

    def test_slowdown_within_tolerance_passes(self):
        base = record(latency_ms=dict(self.LAT))
        cand = record(latency_ms=dict(self.LAT, p50=105.0))
        _, regressions = bench_diff.compare_latency(base, cand, 0.10)
        self.assertEqual(regressions, [])

    def test_batch_records_have_nothing_to_gate(self):
        # Batch records carry an empty "latency_ms" (bench/common.cc
        # always emits the key); pre-PR-5 records lack it entirely.
        # Neither may fail.
        base = record(latency_ms={})
        old = record()
        for b, c in ((base, base), (old, record(latency_ms=self.LAT))):
            rows, regressions = bench_diff.compare_latency(b, c, 0.10)
            self.assertEqual(regressions, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["p50"], "new")


class TestTenantLatency(unittest.TestCase):
    """Per-tenant SLO rows: "tenant_latency_ms" flattening + gating."""

    SLO = {"p50": 40.0, "p95": 60.0, "p99": 75.0, "mean": 45.0,
           "max": 80.0}

    def service_record(self, **tenant_overrides):
        tenants = {"hd0": dict(self.SLO), "sd0": dict(self.SLO, p50=20.0)}
        for name, summary in tenant_overrides.items():
            tenants[name] = summary
        return record(
            latency_ms=dict(self.SLO), tenant_latency_ms=tenants
        )

    def test_flatten_merges_global_and_tenant_keys(self):
        flat = bench_diff.flatten_latency(self.service_record())
        self.assertEqual(flat["p50"], 40.0)
        self.assertEqual(flat["hd0.p95"], 60.0)
        self.assertEqual(flat["sd0.p50"], 20.0)
        self.assertEqual(len(flat), len(self.SLO) * 3)

    def test_flatten_of_solo_record_is_just_the_global_summary(self):
        self.assertEqual(
            bench_diff.flatten_latency(record(latency_ms=dict(self.SLO))),
            self.SLO,
        )

    def test_identical_service_records_pass(self):
        base = self.service_record()
        _, regressions = bench_diff.compare_latency(base, base, 0.10)
        self.assertEqual(regressions, [])

    def test_single_tenant_regression_fails_by_name(self):
        # One tenant's p99 blowing its SLO must fail even when the
        # aggregate "latency_ms" percentiles stay flat.
        base = self.service_record()
        cand = self.service_record(hd0=dict(self.SLO, p99=150.0))
        _, regressions = bench_diff.compare_latency(base, cand, 0.10)
        self.assertEqual(regressions, ["hd0.p99"])

    def test_tenant_in_only_one_record_reported_not_failed(self):
        # Sessions come and go across PRs — same shared-key rule as
        # kernels: "new"/"gone" rows never fail on their own.
        base = self.service_record()
        cand = record(
            latency_ms=dict(self.SLO),
            tenant_latency_ms={"hd0": dict(self.SLO)},
        )
        rows, regressions = bench_diff.compare_latency(base, cand, 0.10)
        self.assertEqual(regressions, [])
        statuses = {key: status for key, _, _, status in rows}
        self.assertEqual(statuses["sd0.p50"], "gone")

    def test_end_to_end_tenant_gate(self):
        runner = TestMain()
        base = self.service_record()
        cand = self.service_record(sd0=dict(self.SLO, p50=90.0))
        # Gate off by default; fails once --latency-tolerance is given.
        self.assertEqual(runner.run_main(base, cand), 0)
        self.assertEqual(
            runner.run_main(base, cand, "--latency-tolerance", "0.10"), 1
        )


class TestCheckSnr(unittest.TestCase):
    def test_delta_within_envelope_passes(self):
        cand = record(metrics={"snr_delta_db": -0.041})
        _, failures = bench_diff.check_snr(cand, 0.05)
        self.assertEqual(failures, [])

    def test_delta_outside_envelope_fails(self):
        cand = record(metrics={"snr_delta_db": 0.2})
        _, failures = bench_diff.check_snr(cand, 0.05)
        self.assertEqual(failures, ["snr_delta_db"])

    def test_envelope_is_two_sided(self):
        # A quantized path that somehow *gains* SNR is just as much a
        # behavioral change as one that loses it.
        cand = record(metrics={"snr_delta_db": -0.2})
        _, failures = bench_diff.check_snr(cand, 0.05)
        self.assertEqual(failures, ["snr_delta_db"])

    def test_records_without_snr_metrics_have_nothing_to_gate(self):
        rows, failures = bench_diff.check_snr(record(), 0.05)
        self.assertEqual(rows, [])
        self.assertEqual(failures, [])

    def test_ablation_rows_gate_only_the_loss_side(self):
        # Variant rows search a different candidate set by design, so
        # a quality *gain* (e.g. MR on coherent content) must pass;
        # only losses beyond the envelope fail.
        cand = record(
            metrics={
                "ablate_mr_snr_delta_db": 2.6,
                "ablate_preset_snr_delta_db": 0.15,
                "ablate_coarse_snr_delta_db": -0.26,
            }
        )
        _, failures = bench_diff.check_snr(cand, 0.1)
        self.assertEqual(failures, ["ablate_coarse_snr_delta_db"])

    def test_parity_keys_stay_two_sided(self):
        cand = record(metrics={"snr_delta_db": 0.2})
        _, failures = bench_diff.check_snr(cand, 0.1)
        self.assertEqual(failures, ["snr_delta_db"])


class TestCompareWall(unittest.TestCase):
    def test_within_tolerance(self):
        cand = record(wall_time_s=10.5)
        _, regressed = bench_diff.compare_wall(record(), cand, 0.10)
        self.assertFalse(regressed)

    def test_over_tolerance(self):
        cand = record(wall_time_s=11.5)
        _, regressed = bench_diff.compare_wall(record(), cand, 0.10)
        self.assertTrue(regressed)

    def test_speedup_passes(self):
        cand = record(wall_time_s=5.0)
        msg, regressed = bench_diff.compare_wall(record(), cand, 0.10)
        self.assertFalse(regressed)
        self.assertIn("speedup", msg)


class TestCompareStages(unittest.TestCase):
    """The summed-stage gate (--stage-tolerance / --stages)."""

    DE = {"DE1": 400.0, "DE2": 600.0}

    def test_identical_records_pass(self):
        base = record(kernel_times_ms=dict(self.DE))
        _, regressed = bench_diff.compare_stages(base, base, "DE1,DE2", 0.10)
        self.assertFalse(regressed)

    def test_sum_regression_over_tolerance_fails(self):
        base = record(kernel_times_ms=dict(self.DE))
        cand = record(kernel_times_ms={"DE1": 500.0, "DE2": 700.0})
        msg, regressed = bench_diff.compare_stages(
            base, cand, "DE1,DE2", 0.10
        )
        self.assertTrue(regressed)
        self.assertIn("REGRESSION", msg)

    def test_time_moving_between_stages_passes(self):
        # The whole point of gating the sum: a fused datapath may shift
        # time between DE1 and DE2 as long as the section holds.
        base = record(kernel_times_ms=dict(self.DE))
        cand = record(kernel_times_ms={"DE1": 900.0, "DE2": 100.0})
        _, regressed = bench_diff.compare_stages(
            base, cand, "DE1,DE2", 0.10
        )
        self.assertFalse(regressed)

    def test_speedup_passes(self):
        base = record(kernel_times_ms=dict(self.DE))
        cand = record(kernel_times_ms={"DE1": 200.0, "DE2": 300.0})
        msg, regressed = bench_diff.compare_stages(
            base, cand, "DE1,DE2", 0.10
        )
        self.assertFalse(regressed)
        self.assertIn("speedup 2.00x", msg)

    def test_missing_stage_fails_loudly(self):
        # Unlike compare_times' shared-key discovery, the caller named
        # these stages explicitly: one absent from either record is a
        # failure, not a silently weaker gate.
        base = record(kernel_times_ms=dict(self.DE))
        cand = record(kernel_times_ms={"DE1": 400.0})
        msg, regressed = bench_diff.compare_stages(
            base, cand, "DE1,DE2", 0.10
        )
        self.assertTrue(regressed)
        self.assertIn("DE2", msg)

    def test_empty_stage_list_is_skipped(self):
        base = record(kernel_times_ms=dict(self.DE))
        _, regressed = bench_diff.compare_stages(base, base, " , ", 0.10)
        self.assertFalse(regressed)

    def test_zero_baseline_is_skipped(self):
        base = record(kernel_times_ms={"DE1": 0.0, "DE2": 0.0})
        cand = record(kernel_times_ms=dict(self.DE))
        msg, regressed = bench_diff.compare_stages(
            base, cand, "DE1,DE2", 0.10
        )
        self.assertFalse(regressed)
        self.assertIn("skipped", msg)


class TestCompareContext(unittest.TestCase):
    def test_mismatched_context_warns(self):
        cand = record(simd_level="scalar", threads=1)
        warnings = bench_diff.compare_context(record(), cand)
        self.assertEqual(len(warnings), 2)

    def test_matching_context_is_silent(self):
        self.assertEqual(bench_diff.compare_context(record(), record()), [])

    def test_metric_threads_mismatch_warns(self):
        # fig02 mixes widths in one record (single-threaded probe next
        # to t8 rows); a shared metric tagged with different resolved
        # widths is not comparable and must be flagged.
        base = record(metric_threads={"psnr_db": 1, "int16_speedup": 8})
        cand = record(metric_threads={"psnr_db": 4, "int16_speedup": 8})
        warnings = bench_diff.compare_context(base, cand)
        self.assertEqual(len(warnings), 1)
        self.assertIn("metric_threads[psnr_db]", warnings[0])

    def test_metric_threads_one_sided_keys_are_silent(self):
        # A row tagged in only one record (new bench column, or a
        # pre-tagging baseline with no map at all) is not a mismatch.
        cand = record(metric_threads={"band_hash_match": 8})
        self.assertEqual(bench_diff.compare_context(record(), cand), [])


class TestMain(unittest.TestCase):
    def run_main(self, base, cand, *flags):
        paths = []
        for rec in (base, cand):
            f = tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False
            )
            json.dump(rec, f)
            f.close()
            paths.append(f.name)
        argv_saved = sys.argv
        sys.argv = ["bench_diff.py", *paths, *flags]
        try:
            return bench_diff.main()
        finally:
            sys.argv = argv_saved
            for p in paths:
                os.unlink(p)

    def test_identical_records_exit_zero(self):
        self.assertEqual(self.run_main(record(), record()), 0)

    def test_kernel_regression_exits_nonzero(self):
        cand = record(kernel_times_ms={"DCT1": 150.0, "BM1": 200.0})
        self.assertEqual(self.run_main(record(), cand), 1)

    def test_ops_gate_off_by_default(self):
        cand = record(ops={"DCT1_ops": 9999.0, "BM1_ops": 2000.0})
        self.assertEqual(self.run_main(record(), cand), 0)

    def test_ops_gate_fails_on_drift(self):
        cand = record(ops={"DCT1_ops": 9999.0, "BM1_ops": 2000.0})
        self.assertEqual(
            self.run_main(record(), cand, "--ops-tolerance", "0.0"), 1
        )

    def test_ops_exclude_exempts_matching_keys_end_to_end(self):
        base = record(counters={"arena.hit": 10.0})
        cand = record(counters={"arena.hit": 12.0})
        self.assertEqual(
            self.run_main(base, cand, "--ops-tolerance", "0.0"), 1
        )
        self.assertEqual(
            self.run_main(base, cand, "--ops-tolerance", "0.0",
                          "--ops-exclude", r"(^|\.)arena\."), 0
        )

    def test_mem_gate_off_by_default(self):
        base = record(gauges={"mem.peakBandBytes": 1.0e6})
        cand = record(gauges={"mem.peakBandBytes": 9.0e6})
        self.assertEqual(self.run_main(base, cand), 0)

    def test_mem_gate_fails_on_footprint_growth(self):
        base = record(gauges={"mem.peakBandBytes": 1.0e6})
        cand = record(gauges={"mem.peakBandBytes": 9.0e6})
        self.assertEqual(
            self.run_main(base, cand, "--mem-tolerance", "0.10"), 1
        )

    def test_mem_gate_passes_on_band_counters_with_zero_ops_tolerance(self):
        # The CI band-smoke invocation: band counters identical at
        # --ops-tolerance 0 while the footprint gauges hold at 10%.
        base = record(
            counters={"bm3d.band.bands": 24.0,
                      "bm3d.band.rowsFilled": 1077.0},
            gauges={"mem.peakBandBytes": 27.0e6},
        )
        cand = record(
            counters={"bm3d.band.bands": 24.0,
                      "bm3d.band.rowsFilled": 1077.0},
            gauges={"mem.peakBandBytes": 27.5e6},
        )
        self.assertEqual(
            self.run_main(base, cand, "--ops-tolerance", "0",
                          "--mem-tolerance", "0.10"), 0
        )
        drifted_cand = record(
            counters={"bm3d.band.bands": 25.0,
                      "bm3d.band.rowsFilled": 1077.0},
            gauges={"mem.peakBandBytes": 27.0e6},
        )
        self.assertEqual(
            self.run_main(base, drifted_cand, "--ops-tolerance", "0",
                          "--mem-tolerance", "0.10"), 1
        )

    def test_latency_gate_off_by_default(self):
        base = record(latency_ms={"p50": 100.0})
        cand = record(latency_ms={"p50": 900.0})
        self.assertEqual(self.run_main(base, cand), 0)

    def test_latency_gate_fails_on_regression(self):
        base = record(latency_ms={"p50": 100.0})
        cand = record(latency_ms={"p50": 150.0})
        self.assertEqual(
            self.run_main(base, cand, "--latency-tolerance", "0.10"), 1
        )

    def test_snr_gate_off_by_default(self):
        cand = record(metrics={"snr_delta_db": 0.2})
        self.assertEqual(self.run_main(record(), cand), 0)

    def test_snr_gate_fails_outside_envelope(self):
        cand = record(metrics={"snr_delta_db": 0.2})
        self.assertEqual(
            self.run_main(record(), cand, "--snr-tolerance", "0.05"), 1
        )

    def test_snr_gate_passes_within_envelope(self):
        cand = record(metrics={"snr_delta_db": -0.041})
        self.assertEqual(
            self.run_main(record(), cand, "--snr-tolerance", "0.05"), 0
        )

    def test_stage_gate_off_by_default(self):
        base = record(kernel_times_ms={"DE1": 400.0, "DE2": 600.0})
        cand = record(kernel_times_ms={"DE1": 900.0, "DE2": 1400.0})
        # Per-kernel gate would fire; keep the table quiet by matching
        # thresholds, so only the (absent) stage gate is under test.
        self.assertEqual(
            self.run_main(base, cand, "--threshold", "9.9",
                          "--tolerance", "0.1"), 0
        )

    def test_stage_gate_fails_on_summed_regression(self):
        base = record(kernel_times_ms={"DE1": 400.0, "DE2": 600.0})
        cand = record(kernel_times_ms={"DE1": 900.0, "DE2": 1400.0})
        self.assertEqual(
            self.run_main(base, cand, "--threshold", "9.9",
                          "--stage-tolerance", "0.10"), 1
        )

    def test_stage_gate_honors_stages_flag(self):
        # Regression lives in DE2; gating DCT1+DE1 alone must pass.
        base = record(
            kernel_times_ms={"DCT1": 100.0, "DE1": 400.0, "DE2": 600.0}
        )
        cand = record(
            kernel_times_ms={"DCT1": 100.0, "DE1": 400.0, "DE2": 1400.0}
        )
        self.assertEqual(
            self.run_main(base, cand, "--threshold", "9.9",
                          "--stage-tolerance", "0.10",
                          "--stages", "DCT1,DE1"), 0
        )

    def test_stage_gate_fails_when_stage_missing(self):
        base = record(kernel_times_ms={"DE1": 400.0})
        cand = record(kernel_times_ms={"DE1": 400.0})
        self.assertEqual(
            self.run_main(base, cand, "--stage-tolerance", "0.10"), 1
        )


ABLATION_METRICS = {
    "snr_delta_db": -0.02,
    "ablate_dense_wall_s": 4.0,
    "ablate_dense_bm1_ms": 900.0,
    "ablate_dense_bm2_ms": 600.0,
    "ablate_dense_de1_ms": 300.0,
    "ablate_dense_de2_ms": 200.0,
    "ablate_dense_snr_delta_db": 0.0,
    "ablate_coarse_wall_s": 2.5,
    "ablate_coarse_bm1_ms": 450.0,
    "ablate_coarse_bm2_ms": 300.0,
    "ablate_coarse_de1_ms": 600.0,
    "ablate_coarse_de2_ms": 400.0,
    "ablate_coarse_snr_delta_db": -0.03,
}


class TestAblationRows(unittest.TestCase):
    def test_groups_by_variant_in_insertion_order(self):
        order, variants = bench_diff.ablation_rows(
            record(metrics=dict(ABLATION_METRICS))
        )
        self.assertEqual(order, ["dense", "coarse"])
        self.assertEqual(variants["dense"]["bm1_ms"], 900.0)
        self.assertEqual(variants["coarse"]["snr_delta_db"], -0.03)

    def test_non_ablation_metrics_ignored(self):
        _, variants = bench_diff.ablation_rows(
            record(metrics={"snr_delta_db": 0.1})
        )
        self.assertEqual(variants, {})

    def test_unknown_field_suffix_ignored(self):
        order, variants = bench_diff.ablation_rows(
            record(
                metrics={
                    "ablate_dense_bm1_ms": 1.0,
                    "ablate_dense_novel_field": 7.0,
                }
            )
        )
        self.assertEqual(order, ["dense"])
        self.assertEqual(variants["dense"], {"bm1_ms": 1.0})

    def test_variant_names_with_underscores(self):
        # The field suffix is matched from the end, so variant names
        # may themselves contain underscores.
        order, variants = bench_diff.ablation_rows(
            record(metrics={"ablate_coarse_s3_bm1_ms": 5.0})
        )
        self.assertEqual(order, ["coarse_s3"])
        self.assertEqual(variants["coarse_s3"]["bm1_ms"], 5.0)


class TestAblationTable(unittest.TestCase):
    def test_empty_record_renders_nothing(self):
        self.assertEqual(bench_diff.ablation_table(record()), [])

    def test_table_shape_and_speedup(self):
        lines = bench_diff.ablation_table(
            record(metrics=dict(ABLATION_METRICS))
        )
        # Header + separator + one row per variant.
        self.assertEqual(len(lines), 4)
        self.assertTrue(lines[0].startswith("| variant |"))
        dense_row = lines[2]
        coarse_row = lines[3]
        # Dense is its own reference: exactly 1.00x.
        self.assertIn("| 1.00x |", dense_row)
        # BM: (900 + 600) / (450 + 300) = 2.00x, read off the table.
        self.assertIn("| 2.00x |", coarse_row)
        # DE: (300 + 200) / (600 + 400) = 0.50x — the fused-off row
        # pattern, where the variant's denoise section is *slower*.
        self.assertIn("| 0.50x |", coarse_row)
        self.assertIn("| -0.030 |", coarse_row)

    def test_missing_fields_render_as_dash(self):
        lines = bench_diff.ablation_table(
            record(metrics={"ablate_dense_bm1_ms": 10.0})
        )
        row = lines[2]
        # No wall, no bm2 (hence no BM sum and no speedup), no de1/de2
        # (hence no DE sum and no speedup), no dSNR: six dash cells.
        self.assertEqual(row.count("-"), 6)

    def test_no_dense_row_means_no_speedup_column(self):
        metrics = {
            k: v
            for k, v in ABLATION_METRICS.items()
            if not k.startswith("ablate_dense")
        }
        lines = bench_diff.ablation_table(record(metrics=metrics))
        self.assertEqual(len(lines), 3)
        # All fields present except the speedup, which has no reference.
        self.assertIn("| - |", lines[2])
        self.assertNotIn("x", lines[2])


class TestMainAblationMode(unittest.TestCase):
    def run_main_single(self, rec, *flags):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump(rec, f)
        f.close()
        argv_saved = sys.argv
        sys.argv = ["bench_diff.py", f.name, *flags]
        try:
            return bench_diff.main()
        finally:
            sys.argv = argv_saved
            os.unlink(f.name)

    def test_ablation_table_exits_zero(self):
        rec = record(metrics=dict(ABLATION_METRICS))
        self.assertEqual(
            self.run_main_single(rec, "--ablation-table"), 0
        )

    def test_record_without_ablation_metrics_exits_nonzero(self):
        self.assertEqual(
            self.run_main_single(record(), "--ablation-table"), 1
        )

    def test_missing_candidate_without_flag_is_usage_error(self):
        with self.assertRaises(SystemExit) as ctx:
            self.run_main_single(record())
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
