/**
 * @file
 * Differential suite for the int16 quantized kernel path.
 *
 * Two properties are enforced for every *I16 kernel:
 *
 *  - bitwise parity: every dispatch level (scalar, AVX2) must
 *    reproduce the scalar reference bit for bit, on random inputs and
 *    on adversarial saturating inputs (±32767, -32768, alternating
 *    signs) that stress the wrap/saturation contract;
 *  - quantization tolerance: each int16 kernel must land within the
 *    tolerance.h bound of its float twin on in-range inputs (the bound
 *    derived from the Int16DctPlan's Q formats).
 *
 * Plus the end-to-end fig09-style gate: a full denoise run under
 * Config::precision = Int16, int16 DE1 included, must stay within
 * 0.05 dB SNR of the float pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bm3d/bm3d.h"
#include "fixed/format.h"
#include "fixed/int16plan.h"
#include "image/image.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "tolerance.h"
#include "transforms/dct.h"

using namespace ideal;
using testing_tol::expectNearQuant;
using testing_tol::snrDeltaDb;

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

    /** Uniform int in [lo, hi]. */
    int
    uniform(int lo, int hi)
    {
        return lo + static_cast<int>(next() %
                                     (static_cast<uint64_t>(hi - lo) + 1));
    }

    int16_t
    i16(int lo, int hi)
    {
        return static_cast<int16_t>(uniform(lo, hi));
    }

    float
    uniformF(float lo, float hi)
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

/**
 * Int16 input families for the parity sweeps: random in-range raws,
 * full-scale saturating raws (including INT16_MIN, whose square wraps
 * under _mm256_madd_epi16 when paired with itself), all-zero, and
 * alternating-sign full-scale.
 */
std::vector<std::vector<int16_t>>
int16Families(Rng &rng, int len)
{
    std::vector<std::vector<int16_t>> families;

    std::vector<int16_t> plain(len);
    for (int16_t &v : plain)
        v = rng.i16(-4096, 4096);
    families.push_back(plain);

    std::vector<int16_t> sat(len);
    for (int i = 0; i < len; ++i) {
        const int pick = rng.uniform(0, 3);
        sat[i] = pick == 0   ? INT16_MAX
                 : pick == 1 ? INT16_MIN
                 : pick == 2 ? static_cast<int16_t>(INT16_MIN + 1)
                             : static_cast<int16_t>(INT16_MAX - 1);
    }
    families.push_back(sat);

    families.emplace_back(len, static_cast<int16_t>(0));

    std::vector<int16_t> alt(len);
    for (int i = 0; i < len; ++i)
        alt[i] = (i % 2 == 0) ? INT16_MAX : INT16_MIN;
    families.push_back(alt);

    return families;
}

const int kLens[] = {1, 3, 7, 8, 15, 16, 17, 24, 33, 64, 100};

/**
 * Batch-kernel run lengths: every length from 1 to 40 (per-candidate
 * runs under 8, 8- and 16-candidate blocks, overlapped tails), plus a
 * long run.
 */
std::vector<int>
runLengths()
{
    std::vector<int> counts;
    for (int count = 1; count <= 40; ++count)
        counts.push_back(count);
    counts.push_back(100);
    return counts;
}

class SimdInt16 : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

/** SoA plane set: coefs planes of n positions each. */
struct SoaPlanes
{
    std::vector<std::vector<int16_t>> store;
    std::vector<const int16_t *> ptrs;

    SoaPlanes(Rng &rng, int coefs, size_t n, int lo, int hi)
    {
        store.resize(coefs);
        ptrs.resize(coefs);
        for (int k = 0; k < coefs; ++k) {
            store[k].resize(n);
            for (int16_t &v : store[k])
                v = rng.i16(lo, hi);
            ptrs[k] = store[k].data();
        }
    }

    void
    gather(size_t off, int coefs, int16_t *out) const
    {
        for (int k = 0; k < coefs; ++k)
            out[k] = store[k][off];
    }
};

/**
 * The int16 SSD contract written out: differences wrap in int16,
 * squares accumulate mod 2^32.
 */
int32_t
wrappedSsdI16(const int16_t *a, const int16_t *b, int len)
{
    uint32_t acc = 0;
    for (int i = 0; i < len; ++i) {
        const int16_t d = static_cast<int16_t>(static_cast<uint16_t>(a[i]) -
                                               static_cast<uint16_t>(b[i]));
        acc += static_cast<uint32_t>(static_cast<int32_t>(d) * d);
    }
    return static_cast<int32_t>(acc);
}

} // namespace

// ---------------------------------------------------------------------
// SSD kernels: bitwise parity across levels, wrap semantics included.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, SsdI16MatchesWideReference)
{
    // In-range inputs: the int32 result must equal an exact int64
    // reference (no wrap below the ssdSafeMagnitudeBits bound), over a
    // full 16-candidate vector pass of the batch kernel.
    Rng rng(602);
    const int m = fixed::ssdSafeMagnitudeBits(16);
    const int lim = (1 << m) - 1;
    for (int len : {8, 16}) {
        SoaPlanes planes(rng, len, 16, -lim, lim);
        const std::vector<int16_t> ref(len, 0);
        for (simd::Level level : availableLevels()) {
            int32_t out[16];
            simd::kernelsFor(level).ssdSoaBatchI16(
                ref.data(), planes.ptrs.data(), 0, len, 16, out);
            for (int i = 0; i < 16; ++i) {
                int64_t wide = 0;
                for (int k = 0; k < len; ++k)
                    wide += int64_t{planes.store[k][i]} * planes.store[k][i];
                EXPECT_EQ(wide, out[i])
                    << "level=" << simd::toString(level) << " len=" << len
                    << " candidate=" << i;
            }
        }
    }
}

TEST_F(SimdInt16, SsdSoaI16MatchesGatheredSsd)
{
    Rng rng(604);
    const int coefs = 16;
    const size_t n = 64;
    SoaPlanes planes(rng, coefs, n, -8192, 8192);
    int16_t pa[16], pb[16];
    for (size_t off_a : {size_t{0}, size_t{17}, size_t{63}}) {
        for (size_t off_b : {size_t{5}, size_t{40}}) {
            planes.gather(off_a, coefs, pa);
            planes.gather(off_b, coefs, pb);
            const int32_t expected = wrappedSsdI16(pa, pb, coefs);
            for (simd::Level level : availableLevels()) {
                EXPECT_EQ(expected, simd::kernelsFor(level).ssdSoaI16(
                                        planes.ptrs.data(), off_a,
                                        planes.ptrs.data(), off_b, coefs,
                                        INT32_MAX));
            }
        }
    }
}

TEST_F(SimdInt16, SsdSoaBatchI16MatchesSingleCandidateCalls)
{
    Rng rng(605);
    const int coefs = 16;
    const size_t n = 256;
    SoaPlanes planes(rng, coefs, n, -32768, 32767);
    int16_t ref[16], cand[16];
    for (const auto &ref_family : int16Families(rng, coefs)) {
        std::memcpy(ref, ref_family.data(), sizeof(ref));
        for (int count : runLengths()) {
            const size_t off = 11;
            std::vector<int32_t> scalar_out(count);
            simd::kernelsFor(simd::Level::Scalar)
                .ssdSoaBatchI16(ref, planes.ptrs.data(), off, coefs, count,
                                scalar_out.data());
            // Single-candidate reference: batch position i is the
            // plain SSD against the gathered candidate at off + i.
            for (int i = 0; i < count; ++i) {
                planes.gather(off + i, coefs, cand);
                EXPECT_EQ(scalar_out[i], wrappedSsdI16(ref, cand, coefs))
                    << "candidate " << i;
            }
            for (simd::Level level : availableLevels()) {
                std::vector<int32_t> out(count, -1);
                simd::kernelsFor(level).ssdSoaBatchI16(
                    ref, planes.ptrs.data(), off, coefs, count,
                    out.data());
                for (int i = 0; i < count; ++i) {
                    EXPECT_EQ(scalar_out[i], out[i])
                        << "level=" << simd::toString(level)
                        << " count=" << count << " candidate=" << i;
                }
            }
        }
    }
}

TEST_F(SimdInt16, SsdPairBatchI16MatchesSoaBatchAcrossLevels)
{
    Rng rng(606);
    const int coefs = 16;
    const size_t n = 256;
    SoaPlanes planes(rng, coefs, n, -32768, 32767);
    // Pair-interleaved twin of the SoA planes: plane p holds
    // coefficients (2p, 2p+1) adjacent per position.
    std::vector<std::vector<int16_t>> pair_store(coefs / 2);
    std::vector<const int16_t *> pair_ptrs(coefs / 2);
    for (int p = 0; p < coefs / 2; ++p) {
        pair_store[p].resize(2 * n);
        for (size_t i = 0; i < n; ++i) {
            pair_store[p][2 * i] = planes.store[2 * p][i];
            pair_store[p][2 * i + 1] = planes.store[2 * p + 1][i];
        }
        pair_ptrs[p] = pair_store[p].data();
    }
    int16_t ref[16];
    for (const auto &ref_family : int16Families(rng, coefs)) {
        std::memcpy(ref, ref_family.data(), sizeof(ref));
        for (int count : runLengths()) {
            const size_t off = 11;
            // The plain SoA batch kernel is the semantic reference:
            // both layouts must produce identical raw SSDs.
            std::vector<int32_t> expected(count);
            simd::kernelsFor(simd::Level::Scalar)
                .ssdSoaBatchI16(ref, planes.ptrs.data(), off, coefs,
                                count, expected.data());
            for (simd::Level level : availableLevels()) {
                std::vector<int32_t> out(count, -1);
                simd::kernelsFor(level).ssdPairBatchI16(
                    ref, pair_ptrs.data(), off, coefs, count, out.data());
                for (int i = 0; i < count; ++i) {
                    EXPECT_EQ(expected[i], out[i])
                        << "level=" << simd::toString(level)
                        << " count=" << count << " candidate=" << i;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Int16 folded DCT: bitwise parity + tolerance against the float twin.
// ---------------------------------------------------------------------

namespace {

void
quantizedBasis(const transforms::Dct2D &dct, const fixed::Int16DctPlan &plan,
               int16_t *even_q, int16_t *odd_q)
{
    const float even_f[4] = {dct.coefficient(0, 0), dct.coefficient(0, 1),
                             dct.coefficient(2, 0), dct.coefficient(2, 1)};
    const float odd_f[4] = {dct.coefficient(1, 0), dct.coefficient(1, 1),
                            dct.coefficient(3, 0), dct.coefficient(3, 1)};
    fixed::quantizeBasisQ(even_f, 4, plan.coefFracBits, even_q);
    fixed::quantizeBasisQ(odd_f, 4, plan.coefFracBits, odd_q);
}

} // namespace

TEST_F(SimdInt16, Dct4ForwardI16MatchesScalarBitwise)
{
    Rng rng(606);
    const fixed::Int16DctPlan plan;
    transforms::Dct2D dct(4);
    int16_t even_q[4], odd_q[4];
    quantizedBasis(dct, plan, even_q, odd_q);

    for (const auto &in : int16Families(rng, 16)) {
        int16_t expected[16];
        simd::kernelsFor(simd::Level::Scalar)
            .dct4ForwardI16(in.data(), expected, even_q, odd_q, plan.shift1,
                            plan.shift2);
        for (simd::Level level : availableLevels()) {
            int16_t out[16];
            simd::kernelsFor(level).dct4ForwardI16(
                in.data(), out, even_q, odd_q, plan.shift1, plan.shift2);
            for (int i = 0; i < 16; ++i) {
                EXPECT_EQ(expected[i], out[i])
                    << "level=" << simd::toString(level) << " coef " << i;
            }
        }
    }
}

TEST_F(SimdInt16, Dct4ForwardI16WithinToleranceOfFloat)
{
    Rng rng(607);
    const fixed::Int16DctPlan plan;
    transforms::Dct2D dct(4);
    int16_t even_q[4], odd_q[4];
    quantizedBasis(dct, plan, even_q, odd_q);

    for (int trial = 0; trial < 64; ++trial) {
        float pixels[16];
        for (float &p : pixels)
            p = rng.uniformF(-255.0f, 255.0f);

        int16_t pixq[16], coefq[16];
        fixed::quantizeToI16(pixels, 16, plan.pixel, pixq);
        simd::kernels().dct4ForwardI16(pixq, coefq, even_q, odd_q,
                                       plan.shift1, plan.shift2);

        // Float reference on the *roundtripped* pixels: the tolerance
        // covers the transform's own rounding stages, not the input
        // quantization (which is exact by construction here).
        float rtrip[16], ref[16];
        for (int i = 0; i < 16; ++i)
            rtrip[i] =
                static_cast<float>(plan.pixel.toDouble(pixq[i]));
        dct.forward(rtrip, ref);

        // Two renormalizing shifts plus the Q13 basis error across a
        // 4-term fold: comfortably inside one Q11.1 step.
        for (int i = 0; i < 16; ++i) {
            expectNearQuant(ref[i], plan.match.toDouble(coefq[i]),
                            plan.match, 1.0, "dct4 coef", i);
        }
    }
}

// ---------------------------------------------------------------------
// Int16 hard threshold.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, HardThresholdI16MatchesScalarBitwise)
{
    Rng rng(610);
    for (int len : kLens) {
        for (const auto &base : int16Families(rng, len)) {
            for (int16_t thr : {int16_t{1}, int16_t{100}, int16_t{5000},
                                int16_t{INT16_MAX}}) {
                std::vector<int16_t> expected(base);
                const int expected_kept =
                    simd::kernelsFor(simd::Level::Scalar)
                        .hardThresholdI16(expected.data(), len, thr);
                for (simd::Level level : availableLevels()) {
                    std::vector<int16_t> v(base);
                    const int kept =
                        simd::kernelsFor(level).hardThresholdI16(
                            v.data(), len, thr);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " len=" << len << " thr=" << thr);
                    EXPECT_EQ(expected_kept, kept);
                    EXPECT_EQ(expected, v);
                }
            }
        }
    }
}

TEST_F(SimdInt16, HardThresholdI16AlwaysZeroesInt16Min)
{
    // abs_epi16(-32768) == -32768, which compares below any positive
    // threshold: INT16_MIN never survives. The scalar reference must
    // reproduce the intrinsic's quirk exactly.
    for (simd::Level level : availableLevels()) {
        int16_t v[4] = {INT16_MIN, 100, -100, INT16_MAX};
        const int kept =
            simd::kernelsFor(level).hardThresholdI16(v, 4, 50);
        EXPECT_EQ(v[0], 0) << simd::toString(level);
        EXPECT_EQ(kept, 3) << simd::toString(level);
        EXPECT_EQ(v[1], 100);
        EXPECT_EQ(v[2], -100);
        EXPECT_EQ(v[3], INT16_MAX);
    }
}

// ---------------------------------------------------------------------
// End-to-end fig09-style gate: |delta SNR| <= 0.05 dB, the int16
// datapath (BM1, BM2 and the fused int16 DE1) vs the float one.
// ---------------------------------------------------------------------

TEST_F(SimdInt16, DenoiseInt16WithinSnrToleranceOfFloat)
{
    const image::ImageF clean =
        image::makeScene(image::SceneKind::Street, 96, 96, 1, 77);
    const image::ImageF noisy = image::addGaussianNoise(clean, 25.0f, 78);

    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;

    cfg.precision = bm3d::Precision::Float32;
    const image::ImageF base = bm3d::Bm3d(cfg).denoise(noisy).output;

    // The gate must cover the int16 DE1, which only the fused path has.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();
    cfg.precision = bm3d::Precision::Int16;
    const image::ImageF quant = bm3d::Bm3d(cfg).denoise(noisy).output;
    EXPECT_GT(reg.snapshot().value("bm3d.group.fusedStacksI16"), 0.0);
    reg.reset();

    const double delta = snrDeltaDb(clean, base, quant);
    EXPECT_LE(std::abs(delta), 0.05)
        << "int16 matching moved SNR by " << delta << " dB";
}

// ---------------------------------------------------------------------
// Fused int16 DE1 spectrum kernel (DESIGN §12): parity across levels
// and bitwise equality with the discrete butterfly + threshold
// composition, on the same saturating / all-zero / alternating-sign
// differential families as the element kernels.
// ---------------------------------------------------------------------

namespace {

/**
 * One int16 Haar butterfly row, written out from the kernel contract:
 * saturating add/sub (adds/subs_epi16), then a Q15 rounded multiply
 * (mulhrs_epi16, including the -32768 * -32768 wrap). Each lane is read
 * before it is written, so @p sum may alias @p x.
 */
void
butterflyRowI16(const int16_t *x, const int16_t *y, int16_t *sum,
                int16_t *diff, int16_t factor, int width)
{
    const auto sat = [](int32_t v) {
        return static_cast<int16_t>(std::clamp(v, -32768, 32767));
    };
    const auto mulhrs = [factor](int16_t v) {
        return static_cast<int16_t>(
            (static_cast<int32_t>(v) * factor + 0x4000) >> 15);
    };
    for (int c = 0; c < width; ++c) {
        const int32_t a = x[c], b = y[c];
        sum[c] = mulhrs(sat(a + b));
        diff[c] = mulhrs(sat(a - b));
    }
}

/**
 * Discrete reference for haarShrinkFusedI16: replay the Haar1D
 * forward/inverse butterfly schedule a row at a time with
 * butterflyRowI16, hardThresholdI16 over the transform-domain tile in
 * between.
 */
int
haarShrinkDiscreteI16(int16_t *g, int stack, int width, int16_t threshold,
                      int16_t factor)
{
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    if (stack == 1)
        return ref.hardThresholdI16(g, width, threshold);

    const size_t n = static_cast<size_t>(stack) * width;
    std::vector<int16_t> buf(g, g + n), dom(n);
    int len = stack;
    while (len > 1) {
        const int half = len / 2;
        for (int i = 0; i < half; ++i)
            butterflyRowI16(&buf[2 * i * width], &buf[(2 * i + 1) * width],
                            &buf[static_cast<size_t>(i) * width],
                            &dom[static_cast<size_t>(half + i) * width],
                            factor, width);
        len = half;
    }
    std::memcpy(dom.data(), buf.data(), sizeof(int16_t) * width);

    const int kept =
        ref.hardThresholdI16(dom.data(), stack * width, threshold);

    std::memcpy(buf.data(), dom.data(), sizeof(int16_t) * width);
    len = 1;
    std::vector<int16_t> tmp(n);
    while (len < stack) {
        for (int i = 0; i < len; ++i)
            butterflyRowI16(&buf[static_cast<size_t>(i) * width],
                            &dom[static_cast<size_t>(len + i) * width],
                            &tmp[2 * i * width], &tmp[(2 * i + 1) * width],
                            factor, width);
        len *= 2;
        std::memcpy(buf.data(), tmp.data(),
                    sizeof(int16_t) * static_cast<size_t>(len) * width);
    }
    std::memcpy(g, buf.data(), sizeof(int16_t) * n);
    return kept;
}

} // namespace

TEST_F(SimdInt16, HaarShrinkFusedI16MatchesScalarBitwise)
{
    Rng rng(612);
    const int16_t factor = 23170;
    const simd::KernelTable &ref = simd::kernelsFor(simd::Level::Scalar);
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {1, 7, 8, 15, 16, 20}) {
            for (const auto &tile : int16Families(rng, stack * width)) {
                for (int16_t thr : {int16_t{135}, int16_t{5000}}) {
                    std::vector<int16_t> g_ref = tile;
                    const int kept_ref = ref.haarShrinkFusedI16(
                        g_ref.data(), stack, width, thr, factor);
                    for (simd::Level level : availableLevels()) {
                        std::vector<int16_t> g = tile;
                        const int kept =
                            simd::kernelsFor(level).haarShrinkFusedI16(
                                g.data(), stack, width, thr, factor);
                        SCOPED_TRACE(testing::Message()
                                     << "level=" << simd::toString(level)
                                     << " stack=" << stack
                                     << " width=" << width
                                     << " thr=" << thr);
                        EXPECT_EQ(kept_ref, kept);
                        EXPECT_EQ(g_ref, g);
                    }
                }
            }
        }
    }
}

TEST_F(SimdInt16, HaarShrinkFusedI16MatchesDiscreteComposition)
{
    // The fused kernel must equal the row butterfly schedule plus
    // hardThresholdI16, including the saturating-add and
    // mulhrs rounding at every level of the transform — verified on
    // the saturating and alternating-sign families where adds/subs
    // clamp and abs(-32768) stays negative.
    Rng rng(613);
    const int16_t factor = 23170;
    const int16_t thr = 135; // the production Q11.1 DE1 threshold
    for (int stack : {1, 2, 4, 8, 16}) {
        for (int width : {7, 16}) {
            for (const auto &tile : int16Families(rng, stack * width)) {
                std::vector<int16_t> g_ref = tile;
                const int kept_ref = haarShrinkDiscreteI16(
                    g_ref.data(), stack, width, thr, factor);
                for (simd::Level level : availableLevels()) {
                    std::vector<int16_t> g = tile;
                    const int kept =
                        simd::kernelsFor(level).haarShrinkFusedI16(
                            g.data(), stack, width, thr, factor);
                    SCOPED_TRACE(testing::Message()
                                 << "level=" << simd::toString(level)
                                 << " stack=" << stack
                                 << " width=" << width);
                    EXPECT_EQ(kept_ref, kept);
                    EXPECT_EQ(g_ref, g);
                }
            }
        }
    }
}

TEST_F(SimdInt16, HaarShrinkFusedI16DifferentialEdgeCases)
{
    const int16_t factor = 23170;
    for (simd::Level level : availableLevels()) {
        const simd::KernelTable &k = simd::kernelsFor(level);
        SCOPED_TRACE(simd::toString(level));

        // All-zero tile: the transform is exactly zero, nothing
        // survives, and the tile comes back all zero.
        std::vector<int16_t> zeros(16 * 16, 0);
        EXPECT_EQ(k.haarShrinkFusedI16(zeros.data(), 16, 16, 135, factor),
                  0);
        for (int16_t v : zeros)
            EXPECT_EQ(v, 0);

        // Full-scale same-sign tile: every butterfly's saturating add
        // clamps to INT16_MAX before the mulhrs scales it back down,
        // details cancel to zero; with a full-scale threshold
        // everything is zeroed, so the inverse maps the tile to zero.
        std::vector<int16_t> sat(16 * 16, INT16_MAX);
        EXPECT_EQ(k.haarShrinkFusedI16(sat.data(), 16, 16, INT16_MAX,
                                       factor),
                  0);
        for (int16_t v : sat)
            EXPECT_EQ(v, 0);

        // Alternating-sign full-scale rows: the first butterfly's
        // detail is (32767 - (-32768)) saturated to 32767; parity with
        // scalar pins the clamp behaviour.
        std::vector<int16_t> alt(16 * 16);
        for (int i = 0; i < 16 * 16; ++i)
            alt[i] = (i / 16) % 2 == 0 ? INT16_MAX : INT16_MIN;
        std::vector<int16_t> alt_ref = alt;
        const int kept_ref = simd::kernelsFor(simd::Level::Scalar)
                                 .haarShrinkFusedI16(alt_ref.data(), 16,
                                                     16, 135, factor);
        const int kept =
            k.haarShrinkFusedI16(alt.data(), 16, 16, 135, factor);
        EXPECT_EQ(kept_ref, kept);
        EXPECT_EQ(alt_ref, alt);
    }
}
