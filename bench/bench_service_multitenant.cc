/**
 * @file
 * Multi-tenant denoise service benchmark (DESIGN §13): a 9-tenant
 * mixed-resolution mix (HD + SD streams, mixed priorities, weights,
 * precisions, one Reject-policy tenant, one temporally-seeded tenant,
 * one tenant running the Wiener stage) multiplexed through one
 * DenoiseService, against the same nine workloads run as sequential
 * solo StreamDenoiser streams.
 *
 * Reported per tenant: sustained fps, p50/p95/p99 frame latency
 * (SLO rows, emitted as the record's "tenant_latency_ms" object),
 * admission rejects, queue high-water and arena steady-state bytes
 * (via the "service.<tenant>.*" counters the service exports).
 * Headline: aggregate service fps vs the sequential-solo aggregate —
 * the service shards large frames across the whole pool, runs
 * different tenants' frames side by side on its dispatch lanes and
 * overlaps prepass with stage work, so it must sustain the higher
 * rate. The service exports its lane count ("service.lanes") and the
 * most frames it had in stages at once ("service.concurrentFramesMax")
 * into the record's gauges.
 *
 * Determinism gates: every tenant's outputs are hashed against its
 * solo run (stream_hash_match_<tenant>, exit 1 on mismatch), and the
 * paused pre-fill with a seeded arrival order makes the admission
 * counters ("service.rejects") run-to-run identical — CI runs the
 * bench twice and diffs with bench_diff.py --ops-tolerance 0
 * --latency-tolerance.
 *
 * Default scale is CI-sized; IDEAL_BENCH_SCALE=full runs the
 * 1080p/512^2 acceptance mix.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench/common.h"
#include "runtime/stream.h"
#include "service/service.h"

using namespace ideal;
using bench::fmt;

namespace {

/** FNV-1a over the float bit patterns: bitwise output equality. */
uint64_t
hashImage(const image::ImageF &img)
{
    uint64_t h = 1469598103934665603ull;
    for (float v : img.raw()) {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Nearest-rank percentile (same rule as bench/common.cc). */
double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    if (rank < 1)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    return samples[rank - 1];
}

struct Tenant
{
    service::SessionConfig session;
    std::vector<image::ImageF> clip;
    /// Frames a paused pre-fill admits (queue bound for the Reject
    /// tenant, the whole clip for Block tenants) — the solo reference
    /// runs over exactly this prefix.
    size_t admitted = 0;
    std::vector<uint64_t> soloHashes;
    double soloWallS = 0.0;
};

} // namespace

int
main()
{
    bench::printHeader("Service", "multi-tenant N-stream denoise service");

    const bool full = bench::fullScale();
    const int hd_w = full ? 1920 : 160, hd_h = full ? 1080 : 90;
    const int sd_w = full ? 512 : 80, sd_h = full ? 512 : 80;
    const int frames = full ? 8 : 4;

    // Video-rate frame profile (fig15's): local window, stage 1 only.
    runtime::StreamConfig base;
    base.frame.sigma = 25.0f;
    base.frame.searchWindow1 = 13;
    base.frame.refStride = 2;
    base.frame.enableWiener = false;
    base.frame.numThreads = 2;
    base.queueDepth = frames; // a paused pre-fill must fully fit

    // The 9-tenant mix: 4 HD + 5 SD, mixed priorities/weights/
    // precisions, one Reject-policy tenant, one seeded tenant, and one
    // Wiener tenant (BM2/DE2 under the service).
    std::vector<Tenant> tenants(9);

    service::ServiceConfig svc_cfg;
    svc_cfg.startPaused = true; // deterministic admission + schedule
    svc_cfg.shardPixels =
        full ? 1000 * 1000 : 10 * 1000; // HD shards, SD stays local
    svc_cfg.shardThreads = 0; // whole pool per sharded frame, one lane per core
    // Room for every pre-filled frame: the tiers never bind, so only
    // the Reject tenant's queue bound refuses frames.
    svc_cfg.sharedBudgetFrames =
        static_cast<int>(tenants.size()) * frames * 2;

    for (size_t t = 0; t < tenants.size(); ++t) {
        service::SessionConfig &s = tenants[t].session;
        const bool hd = t < 4;
        s.name = (hd ? "hd" : "sd") + std::to_string(t % 4);
        s.stream = base;
        if (!hd)
            s.stream.frame.numThreads = 1;
    }
    tenants[1].session.weight = 2.0;
    tenants[2].session.priority = service::Priority::High;
    tenants[3].session.stream.frame.precision = bm3d::Precision::Int16;
    tenants[5].session.priority = service::Priority::High;
    tenants[6].session.priority = service::Priority::Low;
    tenants[6].session.policy = service::AdmissionPolicy::Reject;
    tenants[6].session.stream.queueDepth = frames / 2; // forces rejects
    tenants[7].session.priority = service::Priority::Low;
    tenants[7].session.stream.temporalSeed = true;
    tenants[8].session.name = "sd_wiener";
    tenants[8].session.stream.frame.enableWiener = true;

    uint64_t seed = 900;
    for (size_t t = 0; t < tenants.size(); ++t) {
        const bool hd = t < 4;
        const image::ImageF clean = image::makeScene(
            image::SceneKind::Detail, hd ? hd_w : sd_w, hd ? hd_h : sd_h,
            1, 777 + static_cast<uint64_t>(t));
        for (int f = 0; f < frames; ++f)
            tenants[t].clip.push_back(
                image::addGaussianNoise(clean, base.frame.sigma, seed++));
        tenants[t].admitted =
            std::min(tenants[t].clip.size(),
                     static_cast<size_t>(
                         tenants[t].session.stream.queueDepth));
    }

    // ---- Sequential solo runs: the pre-service way to serve 8 ----
    std::printf("\nsolo reference: %zu sequential StreamDenoiser runs\n",
                tenants.size());
    double solo_wall_s = 0.0;
    size_t solo_frames = 0;
    for (Tenant &t : tenants) {
        runtime::StreamDenoiser solo(t.session.stream);
        for (size_t f = 0; f < t.admitted; ++f)
            solo.submit(image::ImageF(t.clip[f]));
        solo.finish();
        for (size_t f = 0; f < t.admitted; ++f) {
            image::ImageF out = solo.collect();
            t.soloHashes.push_back(hashImage(out));
            solo.recycle(std::move(out));
        }
        t.soloWallS = solo.stats().wallSeconds;
        solo_wall_s += t.soloWallS;
        solo_frames += t.admitted;
    }

    // ---- The service pass: paused pre-fill, seeded interleave ----
    service::DenoiseService svc(svc_cfg);
    std::vector<service::SessionId> ids;
    for (const Tenant &t : tenants)
        ids.push_back(svc.openSession(t.session));

    std::vector<size_t> order;
    for (size_t t = 0; t < tenants.size(); ++t)
        order.insert(order.end(), tenants[t].clip.size(), t);
    std::mt19937 rng(4242);
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<size_t> next(tenants.size(), 0);
    uint64_t submit_rejects = 0;
    for (size_t t : order) {
        if (!svc.submit(ids[t], image::ImageF(tenants[t].clip[next[t]++])))
            ++submit_rejects;
    }
    const auto run_t0 = std::chrono::steady_clock::now();
    svc.resume();
    svc.finish();
    const double service_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_t0)
            .count();

    bool all_hashes_match = true;
    std::vector<int> per_tenant_match(tenants.size(), 1);
    for (size_t t = 0; t < tenants.size(); ++t) {
        for (size_t f = 0; f < tenants[t].admitted; ++f) {
            image::ImageF out = svc.collect(ids[t]);
            if (hashImage(out) != tenants[t].soloHashes[f]) {
                per_tenant_match[t] = 0;
                all_hashes_match = false;
            }
            svc.recycle(ids[t], std::move(out));
        }
    }
    const service::ServiceStats stats = svc.stats();

    // ---- Per-tenant SLO table + record -------------------------
    const double service_fps =
        static_cast<double>(stats.frames) / service_wall_s;
    const double solo_fps = static_cast<double>(solo_frames) / solo_wall_s;

    bench::BenchRecord record;
    record.name = "service_multitenant";
    record.requestedThreads = 0;
    record.wallTimeS = service_wall_s;

    std::printf("\nservice: %d frames/tenant, shard >= %zu px, "
                "budget %d frames\n",
                frames, svc_cfg.shardPixels, svc_cfg.sharedBudgetFrames);
    std::vector<int> widths = {11, 10, 8, 10, 10, 10, 9, 9, 11};
    bench::printRow({"tenant", "prio", "fps", "p50 ms", "p95 ms",
                     "p99 ms", "rejects", "q-high", "steadyB"},
                    widths);
    for (size_t t = 0; t < tenants.size(); ++t) {
        const service::TenantStats &ts = stats.tenants[t];
        const double fps =
            ts.wallSeconds > 0.0
                ? static_cast<double>(ts.frames) / ts.wallSeconds
                : 0.0;
        bench::printRow(
            {ts.name, service::toString(tenants[t].session.priority),
             fmt(fps, 1), fmt(percentile(ts.latenciesMs, 50), 1),
             fmt(percentile(ts.latenciesMs, 95), 1),
             fmt(percentile(ts.latenciesMs, 99), 1),
             std::to_string(ts.rejects),
             std::to_string(ts.queueHighWater),
             std::to_string(ts.arenaBytesNewSteady)},
            widths);
        record.tenantFrameLatenciesMs[ts.name] = ts.latenciesMs;
        record.frameLatenciesMs.insert(record.frameLatenciesMs.end(),
                                       ts.latenciesMs.begin(),
                                       ts.latenciesMs.end());
        record.metrics["tenant_" + ts.name + "_fps"] = fps;
        record.metrics["stream_hash_match_" + ts.name] =
            per_tenant_match[t];
        record.addProfile(ts.profile);
    }

    std::printf("\naggregate: service %.2f fps vs sequential solo "
                "%.2f fps (%.2fx)  |  hashes %s  |  rejects %llu  |  "
                "lanes %d, at most %llu frames in stages at once\n",
                service_fps, solo_fps, service_fps / solo_fps,
                all_hashes_match ? "identical" : "MISMATCH",
                static_cast<unsigned long long>(stats.rejects),
                stats.lanes,
                static_cast<unsigned long long>(stats.concurrentFramesMax));

    record.metrics["tenants"] = static_cast<double>(tenants.size());
    record.metrics["frames"] = static_cast<double>(stats.frames);
    record.metrics["solo_fps"] = solo_fps;
    record.metrics["service_fps"] = service_fps;
    record.metrics["service_speedup"] = service_fps / solo_fps;
    record.metrics["stream_hash_match"] = all_hashes_match ? 1.0 : 0.0;
    record.metrics["rejects"] = static_cast<double>(stats.rejects);
    record.write();

    if (!all_hashes_match) {
        std::fprintf(stderr,
                     "FAIL: a tenant's service output is not bitwise "
                     "identical to its solo StreamDenoiser run\n");
        return 1;
    }
    if (stats.rejects != submit_rejects ||
        stats.rejects !=
            static_cast<uint64_t>(frames - frames / 2)) {
        std::fprintf(stderr,
                     "FAIL: admission rejects not deterministic "
                     "(got %llu)\n",
                     static_cast<unsigned long long>(stats.rejects));
        return 1;
    }
    return 0;
}
