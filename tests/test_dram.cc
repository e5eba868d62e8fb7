/**
 * @file
 * Unit tests for the DDR3 timing model: configuration invariants,
 * latency components, row-buffer behaviour, bandwidth ceiling, and
 * in-flight limits.
 */

#include <gtest/gtest.h>

#include "dram/dram.h"

using namespace ideal;
using dram::DramConfig;
using dram::DramSystem;
using dram::Request;

namespace {

/** Drain the system, returning total cycles until idle. */
sim::Cycle
drain(DramSystem &mem, sim::Cycle start = 0)
{
    sim::Cycle cycle = start;
    while (!mem.idle() && cycle < 10'000'000) {
        ++cycle;
        mem.tick(cycle);
        mem.collectCompletions(cycle);
    }
    return cycle;
}

} // namespace

TEST(DramConfig, Defaults)
{
    DramConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NEAR(cfg.peakGBs(), 21.3, 0.2); // dual-channel DDR3-1333
    EXPECT_EQ(cfg.tRcd(), 14u);
    EXPECT_GE(cfg.tBurst(), 6u);
}

TEST(DramConfig, RejectsBadValues)
{
    DramConfig cfg;
    cfg.channels = 3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = DramConfig{};
    cfg.rowBytes = 32;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = DramConfig{};
    cfg.maxInFlight = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Dram, SingleReadLatency)
{
    DramConfig cfg;
    DramSystem mem(cfg);
    ASSERT_TRUE(mem.enqueue(Request{0, false, 1}, 0));
    sim::Cycle cycle = 0;
    std::vector<dram::Completion> done;
    while (done.empty() && cycle < 1000) {
        ++cycle;
        mem.tick(cycle);
        done = mem.collectCompletions(cycle);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].id, 1u);
    // Closed-bank read: tRCD + tCL + tBURST = 14 + 14 + 7 (+1 issue).
    sim::Cycle expected = cfg.tRcd() + cfg.tCl() + cfg.tBurst();
    EXPECT_GE(done[0].finishedAt, expected);
    EXPECT_LE(done[0].finishedAt, expected + 2);
}

TEST(Dram, RowHitFasterThanConflict)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.frfcfs = false;
    DramSystem mem(cfg);
    // Same row twice, then a different row in the same bank.
    mem.enqueue(Request{0, false, 1}, 0);
    drain(mem);
    mem.enqueue(Request{static_cast<sim::Addr>(64 * cfg.channels), false, 2},
                0); // same row
    drain(mem);
    EXPECT_EQ(mem.stats().get("dram.rowHits"), 1.0);
    // A different row of the same bank forces a conflict.
    sim::Addr far = static_cast<sim::Addr>(cfg.rowBytes) *
                    cfg.banksPerChannel * cfg.channels * 2;
    mem.enqueue(Request{far, false, 3}, 0);
    drain(mem);
    EXPECT_EQ(mem.stats().get("dram.rowConflicts") +
                  mem.stats().get("dram.rowClosed"),
              2.0);
}

TEST(Dram, InFlightLimitEnforced)
{
    DramConfig cfg;
    cfg.maxInFlight = 4;
    cfg.queueDepth = 16;
    DramSystem mem(cfg);
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        if (mem.enqueue(Request{static_cast<sim::Addr>(i) * 64, false,
                                static_cast<uint64_t>(i)},
                        0))
            ++accepted;
    EXPECT_EQ(accepted, 4);
    EXPECT_FALSE(mem.canAccept(0));
    drain(mem);
    EXPECT_TRUE(mem.canAccept(0));
}

TEST(Dram, StreamingBandwidthNearPeak)
{
    DramConfig cfg;
    DramSystem mem(cfg);
    // Stream 4096 sequential blocks (256 KB), refilling as accepted.
    const int blocks = 4096;
    int issued = 0;
    sim::Cycle cycle = 0;
    while ((issued < blocks || !mem.idle()) && cycle < 1'000'000) {
        ++cycle;
        while (issued < blocks &&
               mem.enqueue(Request{static_cast<sim::Addr>(issued) * 64,
                                   false,
                                   static_cast<uint64_t>(issued)},
                           cycle)) {
            ++issued;
        }
        mem.tick(cycle);
        mem.collectCompletions(cycle);
    }
    double gbps = static_cast<double>(mem.bytesTransferred()) /
                  (static_cast<double>(cycle) * 1e-9) / 1e9;
    // Sequential streams should achieve a large fraction of the
    // 21.3 GB/s dual-channel peak.
    EXPECT_GT(gbps, 0.6 * cfg.peakGBs());
    EXPECT_LE(gbps, cfg.peakGBs() * 1.01);
    // Mostly row hits.
    EXPECT_GT(mem.stats().get("dram.rowHits"),
              0.9 * static_cast<double>(blocks));
}

TEST(Dram, IdealModeSingleCycle)
{
    DramConfig cfg;
    cfg.idealSingleCycle = true;
    DramSystem mem(cfg);
    mem.enqueue(Request{0, false, 1}, 0);
    mem.tick(1);
    auto done = mem.collectCompletions(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_LE(done[0].finishedAt, 2u);
}

TEST(Dram, WritesCounted)
{
    DramConfig cfg;
    DramSystem mem(cfg);
    mem.enqueue(Request{0, true, 1}, 0);
    drain(mem);
    EXPECT_EQ(mem.stats().get("dram.writes"), 1.0);
    EXPECT_EQ(mem.stats().get("dram.reads"), 0.0);
    EXPECT_EQ(mem.bytesTransferred(), 64u);
}

TEST(Dram, AverageLatencyPositive)
{
    DramConfig cfg;
    DramSystem mem(cfg);
    for (int i = 0; i < 8; ++i)
        mem.enqueue(Request{static_cast<sim::Addr>(i) * 4096, false,
                            static_cast<uint64_t>(i)},
                    0);
    drain(mem);
    EXPECT_GT(mem.averageLatency(), cfg.tCl());
}

TEST(Dram, ChannelsBalanceSequentialStream)
{
    DramConfig cfg;
    cfg.channels = 2;
    DramSystem mem(cfg);
    // Blocks alternate channels; both should accept without filling
    // one queue first.
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(mem.enqueue(Request{static_cast<sim::Addr>(i) * 64,
                                        false,
                                        static_cast<uint64_t>(i)},
                                0));
    drain(mem);
    EXPECT_EQ(mem.stats().get("dram.reads"), 8.0);
}
