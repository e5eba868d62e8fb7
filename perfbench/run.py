#!/usr/bin/env python3
"""Closed-loop benchmark of the IDEAL BM3D reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload {photo,video,service}
                             --seed N --seconds S --trace {0,1}

Builds the repository's libraries and the benchmark program from source
(into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs the workload, checks its outputs and prints every metric by name
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones, from a traced run next to an untraced one.

Run records and traces go to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import analysis  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("photo", "video", "service")
# Set-ups per run behind the setup_s median: back-to-back photo set-ups
# ranged 0.82-1.76 s with one or two outliers in eight.
SETUPS = 5
RUN_TIMEOUT_S = 150  # a single binary invocation

END_TO_END = [
    ("setup_s", "s"),
    ("mp_per_s", "MP/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p90_hi_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("psnr_db", "dB"),
]

TENANTS = ("big_hi", "big_i16", "small_lo", "small_seed", "small_wiener",
           "small_w2")
SIMD_KERNELS = ("ssd_soa_batch", "dct4_fwd", "dct4_inv", "haar_shrink_fused",
                "wiener_shrink_fused", "aggregate_group")

PER_LAYER = (
    [("image.gen_ms", "ms")]
    + [(f"bm3d.{s}_ms_per_mp", "ms/MP")
       for s in ("bm1", "bm2", "dct1", "de1", "dct2", "de2", "unattributed")]
    + [("bm3d.bm1_candidates_per_ref", "count"),
       ("bm3d.bm2_candidates_per_ref", "count"),
       ("bm3d.ops_per_mp", "count/MP"), ("bm3d.bytes_per_mp", "B/MP"),
       ("bm3d.ops_per_byte", "ratio"), ("bm3d.peak_field_mb", "MB")]
    + [(f"simd.{k}_ns", "ns") for k in SIMD_KERNELS]
    + [("parallel.speedup", "ratio"), ("parallel.efficiency", "ratio"),
       ("parallel.tiles_per_request", "count")]
    + [("runtime.submit_block_ms", "ms"), ("runtime.frame_interval_ms", "ms"),
       ("runtime.queue_wait_ms", "ms"), ("runtime.seed_hit_ratio", "ratio"),
       ("runtime.arena_hit_ratio", "ratio"),
       ("runtime.arena_steady_bytes", "B")]
    + [(f"service.{t}.latency_p50_ms", "ms") for t in TENANTS]
    + [("service.fair_share_min", "ratio"), ("service.submit_block_ms", "ms"),
       ("service.queue_high_water", "count"),
       ("service.sharded_frame_share", "ratio"),
       ("service.arena_steady_bytes", "B"),
       ("service.wiener_bm2_ms_per_mp", "ms/MP")]
    + [("obs.trace_overhead_frac", "ratio")]
)


def build():
    """Configure once and build incrementally; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the repository sources are missing next to "
                 f"{HERE.name}/; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=840)
    return build_dir / "perfbench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    return lines[1] if Path(lines[0]).resolve() == ROOT else "unknown"


def invoke(binary, args, out_dir, tag, setup_only=False, trace=False):
    """Run the program once; returns its raw record (and trace path)."""
    record = out_dir / f"raw-{tag}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--out",
           str(record)]
    trace_path = None
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace", str(trace_path)]
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S)
    with open(record) as f:
        raw = json.load(f)
    record.unlink()
    return raw, trace_path


def requests(raw):
    """Per-request records of a raw run."""
    r = raw["req"]
    return [
        {"sess": int(r["sess"][i]), "phase": r["phase"][i], "s": r["s"][i],
         "c": r["c"][i], "ms": r["ms"][i], "px": r["px"][i],
         "ok": r["ok"][i] > 0}
        for i in range(len(r["phase"]))
    ]


def end_to_end(raw, reqs):
    """End-to-end metrics of one untraced run, with sample counts."""
    t0, t_end = raw["t0"], raw["t_end"]
    timed = [q for q in reqs if q["phase"] == "t" and q["ok"]]
    hi = [q for q in timed if q["sess"] == raw["hi_session"]]
    done_px = sum(q["px"] for q in reqs if t0 < q["c"] <= t_end and q["ok"])
    lat = [q["ms"] for q in timed]
    lat_hi = [q["ms"] for q in hi]
    metrics = {
        "mp_per_s": done_px / 1e6 / (t_end - t0),
        "latency_p50_ms": analysis.nearest_rank(lat, 50),
        "latency_p90_ms": analysis.nearest_rank(lat, 90),
        "latency_p90_hi_ms": analysis.nearest_rank(lat_hi, 90),
        "peak_rss_mb": raw["peak_rss_mb"],
        "psnr_db": raw["det"]["psnr_db"],
    }
    counts = {"latency_p50_ms": len(lat), "latency_p90_ms": len(lat),
              "latency_p90_hi_ms": len(lat_hi)}
    return metrics, counts


def run_checks(raw, reqs):
    """Structural checks of one run; returns a list of problems."""
    problems = list(raw["failures"])
    problems += [f"check {c['name']} failed: {c['detail']}"
                 for c in raw["checks"] if not c["ok"]]
    sessions = len(raw["sessions"])
    if not analysis.warmup_cut_ok(reqs, raw["t0"], sessions,
                                  raw["warmup_need"]):
        problems.append("timing started before every session warmed up")
    for sess, bound in enumerate(raw["in_flight_bound"]):
        mine = [(q["s"], q["c"]) for q in reqs
                if q["sess"] == sess and q["ok"]]
        if analysis.max_in_flight(mine) > bound:
            problems.append(f"session {sess} exceeded {bound} in flight")
    timed = [q for q in reqs if q["phase"] == "t"]
    hi = [q for q in timed if q["sess"] == raw["hi_session"]]
    if not analysis.supports_percentile(len(timed), 90):
        problems.append(f"only {len(timed)} timed requests for p90")
    if not analysis.supports_percentile(len(hi), 90):
        problems.append(f"only {len(hi)} high-priority requests for p90")
    return problems


def span_metrics(spans):
    """Per-layer metrics derived from the traced run's spans."""
    self_us = analysis.self_times(spans)
    by_name = {}
    for sid, sp in spans.items():
        by_name.setdefault(sp["name"], []).append(sid)

    def median_ms(name):
        ids = by_name.get(name, [])
        return statistics.median(self_us[i] for i in ids) / 1e3 if ids else 0.0

    out = {}
    gen = {}
    for sid, sp in spans.items():
        if sp["name"].startswith("image.") and sp["req"] >= 0:
            gen[sp["req"]] = gen.get(sp["req"], 0.0) + self_us[sid]
    out["image.gen_ms"] = statistics.median(gen.values()) / 1e3 if gen else 0.0
    out["runtime.submit_block_ms"] = median_ms("runtime.submit")
    out["service.submit_block_ms"] = median_ms("service.submit")
    for k in SIMD_KERNELS:
        ids = by_name.get(f"simd.{k}", [])
        out[f"simd.{k}_ns"] = (
            statistics.median(self_us[i] * 1e3 / spans[i]["calls"]
                              for i in ids) if ids else 0.0)
    return out


def per_layer(raw, reqs, spans, e2e_untraced, e2e_traced):
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for src in (raw["det"], raw["layer"]):
        for k, v in src.items():
            if k in metrics:
                metrics[k] = v
    metrics.update(span_metrics(spans))
    if raw["workload"] == "video":
        window = [q for q in reqs
                  if raw["t0"] < q["c"] <= raw["t_end"] and q["ok"]]
        interval = (raw["t_end"] - raw["t0"]) * 1e3 / max(1, len(window))
        metrics["runtime.frame_interval_ms"] = interval
        metrics["runtime.queue_wait_ms"] = (e2e_traced["latency_p50_ms"]
                                            - interval)
    if raw["workload"] == "service":
        for sess, name in enumerate(raw["sessions"]):
            lat = [q["ms"] for q in reqs
                   if q["sess"] == sess and q["phase"] == "t" and q["ok"]]
            metrics[f"service.{name}.latency_p50_ms"] = (
                analysis.nearest_rank(lat, 50))
    metrics["obs.trace_overhead_frac"] = (
        e2e_traced["latency_p50_ms"] / e2e_untraced["latency_p50_ms"] - 1.0)
    return metrics


def build_key(binary, simd):
    """Names one build of the program at one SIMD level: its exact
    metrics must repeat from run to run, while a rebuilt program may
    change them on purpose."""
    digest = hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]
    return f"{digest}-{simd}"


def check_determinism(det_dir, key, workload, seed, det):
    """Deterministic metrics must repeat exactly for a seed: compare with
    the first run of this seed by the same build (`key`)."""
    path = det_dir / key / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        with open(path) as f:
            before = json.load(f)
        return [f"deterministic {k} changed: {before[k]!r} -> {det.get(k)!r}"
                for k in sorted(before) if before[k] != det.get(k)]
    with open(path, "w") as f:
        json.dump(det, f, sort_keys=True)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    out_dir = Path(".bench_out").resolve()
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"

    raw, _ = invoke(binary, args, out_dir, tag)
    reqs = requests(raw)
    problems = run_checks(raw, reqs)
    e2e, counts = end_to_end(raw, reqs)
    problems += check_determinism(out_dir / "det",
                                  build_key(binary, raw["simd"]),
                                  args.workload, args.seed, raw["det"])

    if args.trace:
        traced, trace_path = invoke(binary, args, out_dir, tag + "-traced",
                                    trace=True)
        traced_reqs = requests(traced)
        problems += run_checks(traced, traced_reqs)
        problems += [f"traced run changed {k}: {raw['det'][k]!r} -> "
                     f"{traced['det'].get(k)!r}"
                     for k in sorted(raw["det"])
                     if traced["det"].get(k) != raw["det"][k]]
        with open(trace_path) as f:
            spans = analysis.parse_trace(json.load(f))
        e2e_traced, _ = end_to_end(traced, traced_reqs)
        metrics = per_layer(traced, traced_reqs, spans, e2e, e2e_traced)
        units = dict(PER_LAYER)
    else:
        setups = [raw["setup_s"]]
        for k in range(SETUPS - 1):
            extra, _ = invoke(binary, args, out_dir, f"{tag}-setup{k}",
                              setup_only=True)
            setups.append(extra["setup_s"])
        metrics = dict(e2e, setup_s=statistics.median(setups))
        counts["setup_s"] = len(setups)
        units = dict(END_TO_END)

    timed = [q for q in reqs if q["phase"] in "td"]
    failed = sum(1 for q in timed if not q["ok"])
    failed += sum(1 for c in raw["checks"] if not c["ok"])
    attempted = max(1, len(timed))
    correct = not problems and failed == 0

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "nproc": raw["nproc"], "simd": raw["simd"], "threads": raw["threads"],
        "sample_counts": counts, "metrics": metrics, "det": raw["det"],
        "checks": raw["checks"], "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    with open(out_dir / f"record-{tag}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={raw['nproc']} simd={raw['simd']} sha={record['git_sha']} "
          f"threads={json.dumps(raw['threads'], sort_keys=True)}")
    for name, unit in (END_TO_END if not args.trace else PER_LAYER):
        n = counts.get(name)
        extra = f"  (n={n})" if n else ""
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}{extra}")
    print(f"  {'failed_frac':34s} "
          f"{analysis.failed_frac(attempted, failed):14.6g} ratio  "
          f"({failed} of {attempted})")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
