/**
 * @file
 * Bitwise parity suite for the runtime-dispatched SIMD kernel layer:
 * every kernel, at every level the CPU supports, must reproduce the
 * scalar reference bit for bit — on random inputs, on adversarial
 * saturating/overflow inputs, and on sign-of-zero / NaN / infinity
 * edge cases. Also covers the dispatch mechanics (setLevel clamping,
 * kernelsFor addressing) and cross-checks the integrated Dct2D across
 * levels and the fused denoise kernels against per-column Haar1D.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "bm3d/matchlist.h"
#include "simd/simd.h"
#include "transforms/dct.h"
#include "transforms/distance.h"
#include "transforms/haar.h"

using namespace ideal;

namespace {

/** Deterministic xorshift64* generator (seeds fixed per test). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 1) {}

    uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    float
    uniform(float lo, float hi)
    {
        const double u =
            static_cast<double>(next() >> 11) / 9007199254740992.0;
        return lo + static_cast<float>(u * (hi - lo));
    }

  private:
    uint64_t state_;
};

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> levels;
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l)
        levels.push_back(static_cast<simd::Level>(l));
    return levels;
}

/** EXPECT bit equality of two floats (distinguishes -0.0, NaN bits). */
void
expectBitEqual(float a, float b, const char *what, int index)
{
    uint32_t ba, bb;
    std::memcpy(&ba, &a, 4);
    std::memcpy(&bb, &b, 4);
    EXPECT_EQ(ba, bb) << what << " [" << index << "]: " << a << " vs "
                      << b;
}

void
expectBitEqual(const float *a, const float *b, int count, const char *what)
{
    for (int i = 0; i < count; ++i)
        expectBitEqual(a[i], b[i], what, i);
}

/**
 * Input families for the parity sweeps. "Saturating" stresses the
 * reduction order: values large enough that partial sums round
 * differently under any reassociation, plus cancellation pairs.
 */
std::vector<std::vector<float>>
inputFamilies(Rng &rng, int len)
{
    std::vector<std::vector<float>> families;

    std::vector<float> plain(len);
    for (float &v : plain)
        v = rng.uniform(-255.0f, 255.0f);
    families.push_back(plain);

    std::vector<float> tiny(len);
    for (float &v : tiny)
        v = rng.uniform(-1e-5f, 1e-5f);
    families.push_back(tiny);

    std::vector<float> huge(len);
    for (float &v : huge)
        v = rng.uniform(-1e18f, 1e18f); // squares near FLT_MAX
    families.push_back(huge);

    std::vector<float> mixed(len);
    for (int i = 0; i < len; ++i)
        mixed[i] = (i % 2 == 0) ? rng.uniform(1e15f, 1e18f)
                                : rng.uniform(-1e-3f, 1e-3f);
    families.push_back(mixed);

    std::vector<float> zeros(len, 0.0f);
    for (int i = 0; i < len; i += 3)
        zeros[i] = -0.0f;
    families.push_back(zeros);

    return families;
}

class SimdParity : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

} // namespace

// ---------------------------------------------------------------------
// Dispatch mechanics.
// ---------------------------------------------------------------------

// Declared first so it runs before any test calls setLevel: the level
// it sees is the one resolved from IDEAL_SIMD on first use. ctest runs
// it unset, with IDEAL_SIMD=scalar and with IDEAL_SIMD=sse; "sse" names
// no level of this build, so it must warn and keep the best level.
TEST(SimdDispatch, EnvOverrideResolvesOnFirstUse)
{
    const char *env = std::getenv("IDEAL_SIMD");
    const bool scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
    EXPECT_EQ(simd::activeLevel(),
              scalar ? simd::Level::Scalar : simd::bestSupported())
        << "IDEAL_SIMD=" << (env != nullptr ? env : "(unset)");
}

TEST_F(SimdParity, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::toString(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::toString(simd::Level::Avx2), "avx2");
}

TEST_F(SimdParity, SetLevelRoundTripsAndClamps)
{
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(simd::activeLevel(), level);
    }
    // A request above what the CPU supports clamps down.
    simd::setLevel(simd::Level::Avx2);
    EXPECT_LE(simd::activeLevel(), simd::bestSupported());
}

TEST_F(SimdParity, KernelsForMatchesActiveTable)
{
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        EXPECT_EQ(&simd::kernels(), &simd::kernelsFor(level));
    }
}

TEST_F(SimdParity, KernelTablesAreFullyPopulated)
{
    for (simd::Level level : availableLevels()) {
        const simd::KernelTable &k = simd::kernelsFor(level);
        EXPECT_NE(k.ssd, nullptr);
        EXPECT_NE(k.ssdSoa, nullptr);
        EXPECT_NE(k.ssdSoaBatch, nullptr);
        EXPECT_NE(k.selectMatches, nullptr);
        EXPECT_NE(k.dct4Forward, nullptr);
        EXPECT_NE(k.dct4Inverse, nullptr);
        EXPECT_NE(k.aggregateAdd, nullptr);
        EXPECT_NE(k.mergeAdd, nullptr);
        EXPECT_NE(k.ssdSoaI16, nullptr);
        EXPECT_NE(k.ssdSoaBatchI16, nullptr);
        EXPECT_NE(k.ssdPairBatchI16, nullptr);
        EXPECT_NE(k.dct4ForwardI16, nullptr);
        EXPECT_NE(k.hardThresholdI16, nullptr);
        EXPECT_NE(k.haarShrinkFused, nullptr);
        EXPECT_NE(k.wienerShrinkFused, nullptr);
        EXPECT_NE(k.aggregateGroup, nullptr);
        EXPECT_NE(k.haarShrinkFusedI16, nullptr);
    }
}

// ---------------------------------------------------------------------
// SSD kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, SsdMatchesScalarBitwise)
{
    Rng rng(101);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : {1, 3, 7, 8, 9, 15, 16, 17, 24, 33, 64, 100}) {
        for (const auto &a : inputFamilies(rng, len)) {
            std::vector<float> b(len);
            for (float &v : b)
                v = rng.uniform(-255.0f, 255.0f);
            const float expected = ref.ssd(a.data(), b.data(), len);
            for (simd::Level level : availableLevels()) {
                const float got = simd::kernelsFor(level).ssd(
                    a.data(), b.data(), len);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len);
                expectBitEqual(expected, got, "ssd", 0);
            }
        }
    }
}

namespace {

/**
 * Coefficient-major (SoA) fixture: @p len planes of @p positions
 * candidates each, plus the pointer array the kernels take. slot(k, i)
 * is coefficient k of candidate i.
 */
struct SoaPlanes
{
    SoaPlanes(int len, int count)
        : positions(count), store(static_cast<size_t>(len) * count),
          planes(len)
    {
        for (int k = 0; k < len; ++k)
            planes[k] = store.data() + static_cast<size_t>(k) * count;
    }

    float &
    slot(int k, int i)
    {
        return store[static_cast<size_t>(k) * positions + i];
    }

    int positions;
    std::vector<float> store;
    std::vector<const float *> planes;
};

/**
 * The SoA distance contract written out over contiguous descriptors:
 * per 16-element block, lane j accumulates elements j then 8 + j, the
 * lanes fold as ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), and blocks,
 * then the tail, add sequentially.
 */
float
blockTreeSsd(const float *a, const float *b, int len)
{
    float acc = 0.0f;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        float s[8];
        for (int j = 0; j < 8; ++j) {
            const float d = a[k + j] - b[k + j];
            s[j] = d * d;
        }
        for (int j = 0; j < 8; ++j) {
            const float d = a[k + 8 + j] - b[k + 8 + j];
            s[j] += d * d;
        }
        acc += ((s[0] + s[4]) + (s[2] + s[6])) +
               ((s[1] + s[5]) + (s[3] + s[7]));
    }
    for (; k < len; ++k) {
        const float d = a[k] - b[k];
        acc += d * d;
    }
    return acc;
}

} // namespace

TEST_F(SimdParity, SsdSoaMatchesScalarBitwiseIncludingEarlyExit)
{
    Rng rng(1414);
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int len : {1, 7, 9, 16, 25, 33, 64}) {
        for (const auto &a : inputFamilies(rng, len)) {
            SoaPlanes pa(len, 3), pb(len, 3);
            const size_t off_a = 1, off_b = 2;
            for (int k = 0; k < len; ++k) {
                for (int i = 0; i < 3; ++i) {
                    pa.slot(k, i) = rng.uniform(-255.0f, 255.0f);
                    pb.slot(k, i) = rng.uniform(-255.0f, 255.0f);
                }
                pa.slot(k, static_cast<int>(off_a)) = a[k];
            }
            const float full = ref.ssdSoa(
                pa.planes.data(), off_a, pb.planes.data(), off_b, len,
                std::numeric_limits<float>::infinity());
            for (float bound : {std::numeric_limits<float>::infinity(),
                                full * 2.0f, full, full * 0.5f, 0.0f}) {
                const float expected =
                    ref.ssdSoa(pa.planes.data(), off_a, pb.planes.data(),
                               off_b, len, bound);
                for (simd::Level level : availableLevels()) {
                    const float got = simd::kernelsFor(level).ssdSoa(
                        pa.planes.data(), off_a, pb.planes.data(), off_b,
                        len, bound);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " bound=" << bound);
                    expectBitEqual(expected, got, "ssdSoa", 0);
                }
            }
        }
    }
}

TEST_F(SimdParity, SsdSoaAgreesWithSsdFullOnGatheredDescriptors)
{
    // The layout-independence contract: the SoA distance equals the
    // per-16-block tree over the gathered descriptors bit for bit, at
    // every level.
    Rng rng(1515);
    for (int len : {4, 9, 16, 32, 48}) {
        SoaPlanes pa(len, 4), pb(len, 4);
        std::vector<float> a(len), b(len);
        for (int k = 0; k < len; ++k) {
            for (int i = 0; i < 4; ++i) {
                pa.slot(k, i) = rng.uniform(-1e4f, 1e4f);
                pb.slot(k, i) = rng.uniform(-1e4f, 1e4f);
            }
            a[k] = pa.slot(k, 3);
            b[k] = pb.slot(k, 0);
        }
        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            const float soa =
                k.ssdSoa(pa.planes.data(), 3, pb.planes.data(), 0, len,
                         std::numeric_limits<float>::infinity());
            const float aos = blockTreeSsd(a.data(), b.data(), len);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " len=" << len);
            expectBitEqual(aos, soa, "ssdSoa vs block tree", 0);
        }
    }
}

TEST_F(SimdParity, SsdSoaBatchMatchesSsdSoaPerCandidate)
{
    // Every run length from 1 to 40: runs under 8 score per candidate,
    // longer ones end in an overlapped vector group. The planes hold
    // exactly the run, so a read past it leaves the last plane's
    // storage (caught under AddressSanitizer).
    Rng rng(1616);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<int> counts;
    for (int count = 1; count <= 40; ++count)
        counts.push_back(count);
    counts.push_back(49);
    for (int len : {9, 16, 33}) {
        for (int count : counts) {
            SoaPlanes planes(len, count);
            std::vector<float> ref_desc(len);
            for (int k = 0; k < len; ++k) {
                ref_desc[k] = rng.uniform(-255.0f, 255.0f);
                for (int i = 0; i < count; ++i)
                    planes.slot(k, i) = rng.uniform(-255.0f, 255.0f);
            }
            // Edge-case candidates: signed zeros and NaN lanes must
            // propagate identically through the vector and the scalar
            // tail paths.
            planes.slot(0, 0) = -0.0f;
            if (count > 1)
                planes.slot(len - 1, 1) = nan;
            const simd::KernelTable &ref =
                simd::kernelsFor(simd::Level::Scalar);
            std::vector<float> expected(count);
            ref.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0, len,
                            count, expected.data());
            for (simd::Level level : availableLevels()) {
                const simd::KernelTable &k = simd::kernelsFor(level);
                std::vector<float> out(count, -1.0f);
                k.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0,
                              len, count, out.data());
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len << " count=" << count);
                expectBitEqual(expected.data(), out.data(), count,
                               "ssdSoaBatch vs scalar");
            }
        }
    }
}

TEST_F(SimdParity, SsdSoaBatchEqualsSingleCandidateSsdSoa)
{
    // batch[i] must be bitwise the single-pair ssdSoa of candidate i:
    // build a reference that itself lives in a plane set so both
    // kernels see identical operands.
    Rng rng(1717);
    const float inf = std::numeric_limits<float>::infinity();
    for (int len : {16, 25}) {
        const int count = 13;
        SoaPlanes planes(len, count);
        SoaPlanes refp(len, 1);
        std::vector<float> ref_desc(len);
        for (int k = 0; k < len; ++k) {
            for (int i = 0; i < count; ++i)
                planes.slot(k, i) = rng.uniform(-1e3f, 1e3f);
            ref_desc[k] = rng.uniform(-1e3f, 1e3f);
            refp.slot(k, 0) = ref_desc[k];
        }
        for (simd::Level level : availableLevels()) {
            const simd::KernelTable &k = simd::kernelsFor(level);
            float out[16];
            k.ssdSoaBatch(ref_desc.data(), planes.planes.data(), 0, len,
                          count, out);
            for (int i = 0; i < count; ++i) {
                const float single =
                    k.ssdSoa(refp.planes.data(), 0, planes.planes.data(),
                             static_cast<size_t>(i), len, inf);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " len=" << len << " i=" << i);
                expectBitEqual(single, out[i], "batch vs single", i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Window-scan selection.
// ---------------------------------------------------------------------

namespace {

/**
 * The matcher's window-scan loop before the selection kernel, written
 * out over a bm3d::MatchList (x = candidate slot): below the running
 * cut, insert and tighten the cut to the worst kept distance; else
 * below tau, count as pruned.
 */
int
referenceSelect(const std::vector<float> &d, float tau, float cut,
                bm3d::MatchList &list)
{
    int pruned = 0;
    for (size_t i = 0; i < d.size(); ++i) {
        if (d[i] < cut) {
            list.insert(bm3d::Match{static_cast<int32_t>(i), 0, d[i]});
            cut = std::min(cut, list.worstDistance());
        } else if (d[i] < tau) {
            ++pruned;
        }
    }
    return pruned;
}

/** Scored-window families: ties, infinities, NaN, signed zeros. */
std::vector<std::vector<float>>
selectFamilies(Rng &rng, int count)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::vector<float>> families;

    std::vector<float> plain(count);
    for (float &v : plain)
        v = rng.uniform(0.0f, 100.0f);
    families.push_back(plain);

    std::vector<float> ties(count);
    for (float &v : ties)
        v = static_cast<float>(static_cast<int>(rng.uniform(0.0f, 4.0f)));
    families.push_back(ties);

    std::vector<float> special(count);
    for (float &v : special) {
        const int pick = static_cast<int>(rng.uniform(0.0f, 6.0f));
        v = pick == 0   ? inf
            : pick == 1 ? -inf
            : pick == 2 ? nan
            : pick == 3 ? -0.0f
            : pick == 4 ? 0.0f
                        : rng.uniform(-10.0f, 60.0f);
    }
    families.push_back(special);

    families.emplace_back(count, 7.0f);

    std::vector<float> falling(count);
    for (int i = 0; i < count; ++i)
        falling[i] = 1000.0f - static_cast<float>(i);
    families.push_back(falling);

    return families;
}

} // namespace

TEST_F(SimdParity, SelectMatchesReproducesTheRunningCutLoop)
{
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(1919);
    for (int count : {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 168,
                      401}) {
        for (const std::vector<float> &d : selectFamilies(rng, count)) {
            for (int capacity : {1, 2, 4, 8, 16}) {
                for (float tau : {50.0f, 3.5f, inf}) {
                    // Bounds below, at and above tau; a cut above tau
                    // is outside the matcher's use but in the contract.
                    for (float cut :
                         {tau, std::min(tau, 20.0f), 7.0f, 0.0f, inf}) {
                        for (int prefill : {0, 1}) {
                            bm3d::MatchList want(capacity);
                            simd::BestList start{};
                            start.capacity = capacity;
                            start.size = prefill;
                            if (prefill == 1) {
                                want.insert(bm3d::Match{-1, 0, 0.0f});
                                start.dist[0] = 0.0f;
                                start.idx[0] = -1;
                            }
                            const int want_pruned =
                                referenceSelect(d, tau, cut, want);
                            for (simd::Level level : availableLevels()) {
                                simd::BestList got = start;
                                const int pruned =
                                    simd::kernelsFor(level).selectMatches(
                                        d.data(), count, tau, cut, &got);
                                SCOPED_TRACE(testing::Message()
                                             << "level="
                                             << simd::toString(level)
                                             << " count=" << count
                                             << " capacity=" << capacity
                                             << " tau=" << tau
                                             << " cut=" << cut
                                             << " prefill=" << prefill);
                                EXPECT_EQ(pruned, want_pruned);
                                ASSERT_EQ(got.size, want.size());
                                for (int i = 0; i < want.size(); ++i) {
                                    EXPECT_EQ(got.idx[i], want[i].x)
                                        << "entry " << i;
                                    expectBitEqual(want[i].distance,
                                                   got.dist[i], "dist", i);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST_F(SimdParity, MergeAddMatchesScalarBitwise)
{
    Rng rng(1818);
    for (int count : {1, 3, 4, 7, 8, 16, 21, 64}) {
        std::vector<float> num0(count), den0(count), onum(count),
            oden(count);
        for (int i = 0; i < count; ++i) {
            num0[i] = rng.uniform(-1e4f, 1e4f);
            den0[i] = rng.uniform(0.0f, 1e4f);
            onum[i] = rng.uniform(-1e4f, 1e4f);
            oden[i] = rng.uniform(0.0f, 1e4f);
        }
        num0[0] = -0.0f;
        onum[0] = 0.0f;

        std::vector<float> num_ref = num0, den_ref = den0;
        simd::kernelsFor(simd::Level::Scalar)
            .mergeAdd(num_ref.data(), den_ref.data(), onum.data(),
                      oden.data(), count);
        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).mergeAdd(num.data(), den.data(),
                                             onum.data(), oden.data(),
                                             count);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " count=" << count);
            expectBitEqual(num_ref.data(), num.data(), count, "num");
            expectBitEqual(den_ref.data(), den.data(), count, "den");
        }
    }
}

// ---------------------------------------------------------------------
// DCT kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, Dct4KernelsMatchScalarBitwise)
{
    Rng rng(505);
    // The real folded half-matrices for n = 4 (values only matter for
    // realism; parity must hold for any coefficients).
    const float even[4] = {0.5f, 0.5f, 0.65328148f, -0.27059805f};
    const float odd[4] = {0.65328148f, 0.27059805f, 0.27059805f,
                          -0.65328148f};
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<std::vector<float>> families = inputFamilies(rng, 16);
        for (const auto &in : families) {
            float expected[16], got[16];
            ref.dct4Forward(in.data(), expected, even, odd);
            for (simd::Level level : availableLevels()) {
                simd::kernelsFor(level).dct4Forward(in.data(), got, even,
                                                    odd);
                SCOPED_TRACE(simd::toString(level));
                expectBitEqual(expected, got, 16, "dct4Forward");
            }
            ref.dct4Inverse(in.data(), expected, even, odd);
            for (simd::Level level : availableLevels()) {
                simd::kernelsFor(level).dct4Inverse(in.data(), got, even,
                                                    odd);
                SCOPED_TRACE(simd::toString(level));
                expectBitEqual(expected, got, 16, "dct4Inverse");
            }
        }
    }
}

TEST_F(SimdParity, Dct2DTransformIdenticalAcrossLevels)
{
    // Integration: the real Dct2D(4) must produce identical bits at
    // every dispatch level (forward and inverse).
    Rng rng(606);
    transforms::Dct2D dct(4);
    float in[16];
    for (float &v : in)
        v = rng.uniform(-255.0f, 255.0f);

    simd::setLevel(simd::Level::Scalar);
    float fwd_ref[16], inv_ref[16];
    dct.forward(in, fwd_ref);
    dct.inverse(fwd_ref, inv_ref);

    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        float fwd[16], inv[16];
        dct.forward(in, fwd);
        dct.inverse(fwd, inv);
        SCOPED_TRACE(simd::toString(level));
        expectBitEqual(fwd_ref, fwd, 16, "Dct2D::forward");
        expectBitEqual(inv_ref, inv, 16, "Dct2D::inverse");
    }
}

// ---------------------------------------------------------------------
// Aggregation kernels.
// ---------------------------------------------------------------------

TEST_F(SimdParity, AggregateAddMatchesScalarBitwise)
{
    Rng rng(1212);
    for (int count : {1, 3, 4, 8, 16, 21}) {
        std::vector<float> num0(count), den0(count), pix(count);
        for (int i = 0; i < count; ++i) {
            num0[i] = rng.uniform(-1e4f, 1e4f);
            den0[i] = rng.uniform(0.0f, 1e4f);
            pix[i] = rng.uniform(-255.0f, 255.0f);
        }
        const float weight = rng.uniform(0.01f, 1.0f);

        std::vector<float> num_ref = num0, den_ref = den0;
        simd::kernelsFor(simd::Level::Scalar)
            .aggregateAdd(num_ref.data(), den_ref.data(), pix.data(),
                          weight, count);
        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).aggregateAdd(
                num.data(), den.data(), pix.data(), weight, count);
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " count=" << count);
            expectBitEqual(num_ref.data(), num.data(), count, "num");
            expectBitEqual(den_ref.data(), den.data(), count, "den");
        }
    }
}

// ---------------------------------------------------------------------
// distance.h wrappers follow the active level.
// ---------------------------------------------------------------------

TEST_F(SimdParity, DistanceWrappersDispatchOnActiveLevel)
{
    Rng rng(1313);
    float a[33], b[33];
    for (int i = 0; i < 33; ++i) {
        a[i] = rng.uniform(-255.0f, 255.0f);
        b[i] = rng.uniform(-255.0f, 255.0f);
    }
    simd::setLevel(simd::Level::Scalar);
    const float d_ref = transforms::squaredDistance(a, b, 33);
    for (simd::Level level : availableLevels()) {
        simd::setLevel(level);
        SCOPED_TRACE(simd::toString(level));
        expectBitEqual(d_ref, transforms::squaredDistance(a, b, 33),
                       "squaredDistance", 0);
    }
}

// ---------------------------------------------------------------------
// Fused group-major denoise kernels (DESIGN §12): bitwise parity
// across levels AND bitwise equality with the discrete composition
// they replace (per-column Haar1D + the shrink expression +
// dct4Inverse + aggregateAdd).
// ---------------------------------------------------------------------

namespace {

/**
 * Per-column Haar1D forward (or, with @p inverse, inverse) of the
 * stack x width tile @p g in place: column c holds g[c], g[width + c],
 * ... A one-deep stack is its own transform.
 */
void
haarColumns(float *g, int stack, int width, bool inverse)
{
    if (stack == 1)
        return;
    const transforms::Haar1D haar(stack);
    std::vector<float> in(stack), out(stack);
    for (int c = 0; c < width; ++c) {
        for (int i = 0; i < stack; ++i)
            in[i] = g[static_cast<size_t>(i) * width + c];
        if (inverse)
            haar.inverse(in.data(), out.data());
        else
            haar.forward(in.data(), out.data());
        for (int i = 0; i < stack; ++i)
            g[static_cast<size_t>(i) * width + c] = out[i];
    }
}

/** Discrete reference for haarShrinkFused: per-column forward Haar,
    |v| < threshold zeroed to +0.0f (NaN survives), inverse Haar. */
int
haarShrinkDiscrete(float *g, int stack, int width, float threshold)
{
    haarColumns(g, stack, width, false);
    int kept = 0;
    for (int k = 0; k < stack * width; ++k) {
        if (std::abs(g[k]) < threshold)
            g[k] = 0.0f;
        else
            ++kept;
    }
    haarColumns(g, stack, width, true);
    return kept;
}

/** Discrete reference for wienerShrinkFused; like the fused kernel it
    leaves bg in the transform domain and fills the weight tile. */
int
wienerShrinkDiscrete(float *g, float *bg, float *w, int stack, int width,
                     float sigma2)
{
    haarColumns(g, stack, width, false);
    haarColumns(bg, stack, width, false);
    int strong = 0;
    for (int k = 0; k < stack * width; ++k) {
        const float b2 = bg[k] * bg[k];
        w[k] = b2 / (b2 + sigma2);
        g[k] *= w[k];
        if (w[k] > 0.5f)
            ++strong;
    }
    haarColumns(g, stack, width, true);
    return strong;
}

} // namespace

TEST_F(SimdParity, HaarShrinkFusedMatchesScalarBitwise)
{
    Rng rng(1414);
    const float thr = 100.0f;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 4, 7, 13, 16}) {
            for (const auto &tile : inputFamilies(rng, stack * width)) {
                std::vector<float> g_ref = tile;
                const int kept_ref = ref.haarShrinkFused(
                    g_ref.data(), stack, width, thr);
                for (simd::Level level : availableLevels()) {
                    std::vector<float> g = tile;
                    const int kept = simd::kernelsFor(level).haarShrinkFused(
                        g.data(), stack, width, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    expectBitEqual(g_ref.data(), g.data(), stack * width,
                                   "haarShrinkFused tile");
                }
            }
        }
    }
}

TEST_F(SimdParity, HaarShrinkFusedMatchesDiscreteComposition)
{
    // The fused kernel replays Haar1D's exact butterfly schedule with
    // the hard threshold's element semantics in between, so it must
    // equal the three-step discrete sequence bit for bit — at every
    // level.
    Rng rng(1515);
    const float thr = 100.0f;
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {7, 16}) {
            for (const auto &tile : inputFamilies(rng, stack * width)) {
                std::vector<float> g_ref = tile;
                const int kept_ref = haarShrinkDiscrete(
                    g_ref.data(), stack, width, thr);
                for (simd::Level level : availableLevels()) {
                    std::vector<float> g = tile;
                    const int kept = simd::kernelsFor(level).haarShrinkFused(
                        g.data(), stack, width, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    expectBitEqual(g_ref.data(), g.data(), stack * width,
                                   "fused vs discrete");
                }
            }
        }
    }
}

TEST_F(SimdParity, WienerShrinkFusedMatchesScalarBitwise)
{
    Rng rng(1616);
    const float s2 = 625.0f;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 5, 8, 16}) {
            const int n = stack * width;
            for (const auto &tile : inputFamilies(rng, n)) {
                std::vector<float> basic(n);
                for (float &v : basic)
                    v = rng.uniform(-255.0f, 255.0f);

                std::vector<float> g_ref = tile, bg_ref = basic, w_ref(n);
                const int strong_ref = ref.wienerShrinkFused(
                    g_ref.data(), bg_ref.data(), w_ref.data(), stack,
                    width, s2);
                for (simd::Level level : availableLevels()) {
                    std::vector<float> g = tile, bg = basic, w(n);
                    const int strong =
                        simd::kernelsFor(level).wienerShrinkFused(
                            g.data(), bg.data(), w.data(), stack, width,
                            s2);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(strong_ref, strong);
                    expectBitEqual(g_ref.data(), g.data(), n, "g");
                    expectBitEqual(bg_ref.data(), bg.data(), n, "bg");
                    expectBitEqual(w_ref.data(), w.data(), n, "w");
                }
            }
        }
    }
}

TEST_F(SimdParity, WienerShrinkFusedMatchesDiscreteComposition)
{
    Rng rng(1717);
    const float s2 = 625.0f;
    for (int stack : {1, 2, 4, 8, 16}) {
        const int width = 16;
        const int n = stack * width;
        for (const auto &tile : inputFamilies(rng, n)) {
            std::vector<float> basic(n);
            for (float &v : basic)
                v = rng.uniform(-255.0f, 255.0f);

            std::vector<float> g_ref = tile, bg_ref = basic, w_ref(n);
            const int strong_ref = wienerShrinkDiscrete(
                g_ref.data(), bg_ref.data(), w_ref.data(), stack, width,
                s2);
            for (simd::Level level : availableLevels()) {
                std::vector<float> g = tile, bg = basic, w(n);
                const int strong = simd::kernelsFor(level).wienerShrinkFused(
                    g.data(), bg.data(), w.data(), stack, width, s2);
                SCOPED_TRACE(testing::Message()
                             << "level=" << simd::toString(level)
                             << " stack=" << stack);
                EXPECT_EQ(strong_ref, strong);
                expectBitEqual(g_ref.data(), g.data(), n, "g");
                expectBitEqual(bg_ref.data(), bg.data(), n,
                               "bg (transform domain)");
                expectBitEqual(w_ref.data(), w.data(), n, "w");
            }
        }
    }
}

TEST_F(SimdParity, AggregateGroupMatchesDiscreteSequence)
{
    // aggregateGroup == for each patch i ascending: dct4Inverse, then
    // four 4-wide aggregateAdd rows — bitwise, including overlapping
    // patches (the in-order contract is what makes tile merges and the
    // fused path deterministic).
    Rng rng(1818);
    transforms::Dct2D dct(4);
    const int plane_w = 16, plane_h = 16;
    const int n = plane_w * plane_h;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        std::vector<float> coefs(static_cast<size_t>(stack) * 16);
        for (float &v : coefs)
            v = rng.uniform(-255.0f, 255.0f);
        std::vector<int> lx(stack), ly(stack);
        for (int i = 0; i < stack; ++i) {
            // Deliberately overlapping corners (range keeps 4x4 inside).
            lx[i] = static_cast<int>(rng.next() % (plane_w - 3));
            ly[i] = static_cast<int>(rng.next() % (plane_h - 3));
        }
        const float weight = rng.uniform(0.01f, 1.0f);

        std::vector<float> num0(n), den0(n);
        for (int i = 0; i < n; ++i) {
            num0[i] = rng.uniform(-1e3f, 1e3f);
            den0[i] = rng.uniform(0.0f, 1e3f);
        }

        // Discrete reference, scalar kernels throughout.
        std::vector<float> num_ref = num0, den_ref = den0;
        for (int i = 0; i < stack; ++i) {
            float px[16];
            ref.dct4Inverse(&coefs[16 * i], px, dct.invEvenHalf(),
                            dct.invOddHalf());
            for (int r = 0; r < 4; ++r) {
                const int off = (ly[i] + r) * plane_w + lx[i];
                ref.aggregateAdd(&num_ref[off], &den_ref[off], px + 4 * r,
                                 weight, 4);
            }
        }

        for (simd::Level level : availableLevels()) {
            std::vector<float> num = num0, den = den0;
            simd::kernelsFor(level).aggregateGroup(
                num.data(), den.data(), plane_w, coefs.data(), lx.data(),
                ly.data(), stack, weight, dct.invEvenHalf(),
                dct.invOddHalf());
            SCOPED_TRACE(testing::Message()
                         << "level=" << simd::toString(level)
                         << " stack=" << stack);
            expectBitEqual(num_ref.data(), num.data(), n, "num");
            expectBitEqual(den_ref.data(), den.data(), n, "den");
        }
    }
}
