/**
 * @file
 * Unit and property tests for the transform substrate: DCT-II,
 * Haar, and the l2-norm distance block.
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "image/synthetic.h"
#include "transforms/dct.h"
#include "transforms/distance.h"
#include "transforms/haar.h"

using ideal::image::SplitMix64;
using ideal::transforms::Dct2D;
using ideal::transforms::Haar1D;

namespace {

std::vector<float>
randomVector(int n, uint64_t seed, float lo = -100.0f, float hi = 100.0f)
{
    SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

/** SoA view of one contiguous descriptor: plane k points at v[k]. */
std::vector<const float *>
soaPlanes(const std::vector<float> &v)
{
    std::vector<const float *> planes(v.size());
    for (size_t k = 0; k < v.size(); ++k)
        planes[k] = &v[k];
    return planes;
}

} // namespace

TEST(Dct, InvalidSizeThrows)
{
    EXPECT_THROW(Dct2D(1), std::invalid_argument);
    EXPECT_THROW(Dct2D(17), std::invalid_argument);
}

TEST(Dct, CoefficientMatrixIsOrthonormal)
{
    Dct2D dct(4);
    for (int r1 = 0; r1 < 4; ++r1)
        for (int r2 = 0; r2 < 4; ++r2) {
            double dot = 0.0;
            for (int c = 0; c < 4; ++c)
                dot += static_cast<double>(dct.coefficient(r1, c)) *
                       dct.coefficient(r2, c);
            EXPECT_NEAR(dot, r1 == r2 ? 1.0 : 0.0, 1e-6)
                << "rows " << r1 << "," << r2;
        }
}

TEST(Dct, ConstantPatchHasOnlyDc)
{
    Dct2D dct(4);
    float in[16], out[16];
    std::fill(std::begin(in), std::end(in), 3.0f);
    dct.forward(in, out);
    // Orthonormal DCT: DC = mean * N = 3 * 4 = 12.
    EXPECT_NEAR(out[0], 12.0f, 1e-5f);
    for (int i = 1; i < 16; ++i)
        EXPECT_NEAR(out[i], 0.0f, 1e-5f) << i;
}

class DctRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(DctRoundTrip, ForwardInverseIsIdentity)
{
    const int n = GetParam();
    Dct2D dct(n);
    auto in = randomVector(n * n, 100 + n, 0.0f, 255.0f);
    std::vector<float> freq(n * n), back(n * n);
    dct.forward(in.data(), freq.data());
    dct.inverse(freq.data(), back.data());
    for (int i = 0; i < n * n; ++i)
        EXPECT_NEAR(back[i], in[i], 1e-3f) << "n=" << n << " i=" << i;
}

TEST_P(DctRoundTrip, PreservesEnergy)
{
    const int n = GetParam();
    Dct2D dct(n);
    auto in = randomVector(n * n, 200 + n);
    std::vector<float> freq(n * n);
    dct.forward(in.data(), freq.data());
    auto energy = [](const std::vector<float> &v) {
        double acc = 0;
        for (float x : v)
            acc += static_cast<double>(x) * x;
        return acc;
    };
    EXPECT_NEAR(energy(freq) / energy(in), 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctRoundTrip,
                         ::testing::Values(2, 3, 4, 5, 8, 16));

TEST(Dct, FixedPathApproximatesFloat)
{
    Dct2D dct(4);
    auto formats = ideal::fixed::PipelineFormats::forFraction(12);
    auto in = randomVector(16, 42, 0.0f, 255.0f);
    float f_out[16], q_out[16];
    dct.forward(in.data(), f_out);
    dct.forwardFixed(in.data(), q_out, formats);
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(q_out[i], f_out[i], 0.05f) << i;
}

TEST(Dct, FixedRoundTripErrorGrowsAtLowPrecision)
{
    Dct2D dct(4);
    auto in = randomVector(16, 43, 0.0f, 255.0f);
    auto round_trip_err = [&](int frac) {
        auto formats = ideal::fixed::PipelineFormats::forFraction(frac);
        float freq[16], back[16];
        dct.forwardFixed(in.data(), freq, formats);
        dct.inverseFixed(freq, back, formats);
        double err = 0;
        for (int i = 0; i < 16; ++i)
            err += std::abs(back[i] - in[i]);
        return err;
    };
    EXPECT_LT(round_trip_err(12), round_trip_err(5));
}

TEST(Haar, InvalidLengthThrows)
{
    EXPECT_THROW(Haar1D(3), std::invalid_argument);
    EXPECT_THROW(Haar1D(0), std::invalid_argument);
    EXPECT_THROW(Haar1D(128), std::invalid_argument);
}

TEST(Haar, MatrixIsOrthonormal)
{
    Haar1D haar(16);
    for (int r1 = 0; r1 < 16; ++r1)
        for (int r2 = 0; r2 < 16; ++r2) {
            double dot = 0.0;
            for (int c = 0; c < 16; ++c)
                dot += static_cast<double>(haar.coefficient(r1, c)) *
                       haar.coefficient(r2, c);
            EXPECT_NEAR(dot, r1 == r2 ? 1.0 : 0.0, 1e-6);
        }
}

TEST(Haar, ConstantVectorConcentratesInDc)
{
    Haar1D haar(16);
    float in[16], out[16];
    std::fill(std::begin(in), std::end(in), 2.0f);
    haar.forward(in, out);
    EXPECT_NEAR(out[0], 2.0f * 4.0f, 1e-5f); // mean * sqrt(16)
    for (int i = 1; i < 16; ++i)
        EXPECT_NEAR(out[i], 0.0f, 1e-5f);
}

class HaarRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(HaarRoundTrip, ButterflyMatchesMatrix)
{
    const int n = GetParam();
    Haar1D haar(n);
    auto in = randomVector(n, 300 + n);
    std::vector<float> fast(n), direct(n);
    haar.forward(in.data(), fast.data());
    haar.forwardMatrix(in.data(), direct.data());
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(fast[i], direct[i], 1e-3f) << "n=" << n << " i=" << i;
}

TEST_P(HaarRoundTrip, ForwardInverseIsIdentity)
{
    const int n = GetParam();
    Haar1D haar(n);
    auto in = randomVector(n, 400 + n);
    std::vector<float> freq(n), back(n);
    haar.forward(in.data(), freq.data());
    haar.inverse(freq.data(), back.data());
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], in[i], 1e-3f);
}

TEST_P(HaarRoundTrip, InverseMatrixMatchesButterfly)
{
    const int n = GetParam();
    Haar1D haar(n);
    auto in = randomVector(n, 500 + n);
    std::vector<float> a(n), b(n);
    haar.inverse(in.data(), a.data());
    haar.inverseMatrix(in.data(), b.data());
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(a[i], b[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Lengths, HaarRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(Dct, FoldedPassMatchesMatrixProduct)
{
    // forward() uses the even/odd folded factorization; check it
    // against the plain C (C P)^T definition built from the exposed
    // coefficient matrix.
    const int n = 8;
    Dct2D dct(n);
    auto in = randomVector(n * n, 4242);
    std::vector<float> fast(n * n), t(n * n), direct(n * n);
    dct.forward(in.data(), fast.data());
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            double acc = 0.0;
            for (int k = 0; k < n; ++k)
                acc += dct.coefficient(r, k) * in[k * n + c];
            t[r * n + c] = static_cast<float>(acc);
        }
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            double acc = 0.0;
            for (int k = 0; k < n; ++k)
                acc += dct.coefficient(r, k) * t[c * n + k];
            direct[r * n + c] = static_cast<float>(acc);
        }
    for (int i = 0; i < n * n; ++i)
        EXPECT_NEAR(fast[i], direct[i], 1e-3f) << i;
}

TEST(Haar, FixedPathApproximatesFloat)
{
    Haar1D haar(16);
    auto formats = ideal::fixed::PipelineFormats::forFraction(12);
    auto in = randomVector(16, 77, -500.0f, 500.0f);
    float f_out[16], q_out[16];
    haar.forward(in.data(), f_out);
    haar.forwardFixed(in.data(), q_out, formats);
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(q_out[i], f_out[i], 0.1f);
}

TEST(Distance, MatchesDefinition)
{
    float a[4] = {1, 2, 3, 4};
    float b[4] = {2, 2, 1, 0};
    // (1)^2 + 0 + (2)^2 + (4)^2 = 21
    EXPECT_FLOAT_EQ(ideal::transforms::squaredDistance(a, b, 4), 21.0f);
}

TEST(Distance, ZeroForIdentical)
{
    auto v = randomVector(16, 88);
    EXPECT_FLOAT_EQ(
        ideal::transforms::squaredDistance(v.data(), v.data(), 16), 0.0f);
}

TEST(Distance, BoundedMatchesExactWhenUnderBound)
{
    auto a = randomVector(32, 89);
    auto b = randomVector(32, 90);
    const auto pa = soaPlanes(a), pb = soaPlanes(b);
    const float exact = ideal::transforms::squaredDistanceSoa(
        pa.data(), 0, pb.data(), 0, 32);
    const float bounded = ideal::transforms::squaredDistanceSoaBounded(
        pa.data(), 0, pb.data(), 0, 32, exact + 1.0f);
    EXPECT_EQ(bounded, exact);
}

TEST(Distance, BoundedEarlyExitsOverBound)
{
    // Two 16-element blocks: a bound below the first block's sum
    // returns that partial sum, which still compares above the bound
    // and falls short of the full distance.
    auto a = randomVector(32, 91);
    auto b = randomVector(32, 92);
    const auto pa = soaPlanes(a), pb = soaPlanes(b);
    const float exact = ideal::transforms::squaredDistanceSoa(
        pa.data(), 0, pb.data(), 0, 32);
    const float bounded = ideal::transforms::squaredDistanceSoaBounded(
        pa.data(), 0, pb.data(), 0, 32, exact / 4.0f);
    EXPECT_GT(bounded, exact / 4.0f);
    EXPECT_LT(bounded, exact);
}
