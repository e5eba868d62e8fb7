#include "transforms/haar.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fixed/fixed.h"

namespace ideal {
namespace transforms {

namespace {

constexpr int kMaxLen = 64;

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

Haar1D::Haar1D(int n)
    : n_(n), levels_(0), matrix_(static_cast<size_t>(n) * n, 0.0f)
{
    if (!isPowerOfTwo(n) || n < 2 || n > kMaxLen)
        throw std::invalid_argument("Haar1D: length must be 2..64 pow2");
    for (int v = n; v > 1; v >>= 1)
        ++levels_;

    // Build H recursively: start from H_1 = [1]; at each doubling,
    //   H_2m = (1/sqrt 2) [ H_m kron (1  1) ; I_m kron (1 -1) ].
    std::vector<double> h(1, 1.0);
    int m = 1;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    while (m < n) {
        std::vector<double> next(static_cast<size_t>(2 * m) * (2 * m), 0.0);
        // Top half: averages.
        for (int r = 0; r < m; ++r)
            for (int c = 0; c < m; ++c) {
                double v = h[static_cast<size_t>(r) * m + c] * inv_sqrt2;
                next[static_cast<size_t>(r) * 2 * m + 2 * c] = v;
                next[static_cast<size_t>(r) * 2 * m + 2 * c + 1] = v;
            }
        // Bottom half: details.
        for (int r = 0; r < m; ++r) {
            next[static_cast<size_t>(m + r) * 2 * m + 2 * r] = inv_sqrt2;
            next[static_cast<size_t>(m + r) * 2 * m + 2 * r + 1] =
                -inv_sqrt2;
        }
        h.swap(next);
        m *= 2;
    }
    for (size_t i = 0; i < h.size(); ++i)
        matrix_[i] = static_cast<float>(h[i]);
}

void
Haar1D::forwardMatrix(const float *in, float *out) const
{
    for (int r = 0; r < n_; ++r) {
        float acc = 0.0f;
        const float *row = matrix_.data() + static_cast<size_t>(r) * n_;
        for (int c = 0; c < n_; ++c)
            acc += row[c] * in[c];
        out[r] = acc;
    }
}

void
Haar1D::inverseMatrix(const float *in, float *out) const
{
    for (int c = 0; c < n_; ++c)
        out[c] = 0.0f;
    for (int r = 0; r < n_; ++r) {
        const float *row = matrix_.data() + static_cast<size_t>(r) * n_;
        for (int c = 0; c < n_; ++c)
            out[c] += row[c] * in[r];
    }
}

void
Haar1D::forward(const float *in, float *out) const
{
    // Multi-level averaging/differencing with the ordering that matches
    // the recursive matrix: approximations first, then details of each
    // level from coarsest to finest.
    float buf[kMaxLen];
    std::memcpy(buf, in, sizeof(float) * n_);
    const float inv_sqrt2 = 1.0f / std::sqrt(2.0f);
    int len = n_;
    // Details of level l (len/2 entries) land at out[len/2 .. len).
    while (len > 1) {
        int half = len / 2;
        float tmp[kMaxLen];
        for (int i = 0; i < half; ++i) {
            tmp[i] = (buf[2 * i] + buf[2 * i + 1]) * inv_sqrt2;
            out[half + i] = (buf[2 * i] - buf[2 * i + 1]) * inv_sqrt2;
        }
        std::memcpy(buf, tmp, sizeof(float) * half);
        len = half;
    }
    out[0] = buf[0];
}

void
Haar1D::inverse(const float *in, float *out) const
{
    float buf[kMaxLen];
    buf[0] = in[0];
    const float inv_sqrt2 = 1.0f / std::sqrt(2.0f);
    int len = 1;
    while (len < n_) {
        float tmp[kMaxLen];
        for (int i = 0; i < len; ++i) {
            float a = buf[i];
            float d = in[len + i];
            tmp[2 * i] = (a + d) * inv_sqrt2;
            tmp[2 * i + 1] = (a - d) * inv_sqrt2;
        }
        len *= 2;
        std::memcpy(buf, tmp, sizeof(float) * len);
    }
    std::memcpy(out, buf, sizeof(float) * n_);
}

namespace {

/**
 * One fixed-point MAC step, bit-identical to
 * fixed::Fixed::mul followed by Fixed::add at the same format:
 * double-width product, round to nearest, saturate, accumulate,
 * saturate.
 */
int64_t
fixedMacStep(int64_t acc, int64_t a_raw, int64_t b_raw,
             const fixed::Format &fmt)
{
    const int shift = fmt.fracBits;
    __int128 wide = static_cast<__int128>(a_raw) * b_raw;
    __int128 rounded;
    if (shift == 0) {
        rounded = wide;
    } else {
        __int128 half = __int128{1} << (shift - 1);
        rounded = (wide >= 0 ? wide + half : wide - half) >> shift;
    }
    return fmt.saturate(
        acc + fmt.saturate(static_cast<int64_t>(rounded)));
}

} // namespace

void
Haar1D::forwardFixed(const float *in, float *out,
                     const fixed::PipelineFormats &formats) const
{
    const fixed::Format &fmt = formats.haar;
    int64_t in_raw[kMaxLen];
    for (int c = 0; c < n_; ++c)
        in_raw[c] = fmt.quantize(in[c]);
    for (int r = 0; r < n_; ++r) {
        const float *row = matrix_.data() + static_cast<size_t>(r) * n_;
        int64_t acc = 0;
        for (int c = 0; c < n_; ++c)
            acc = fixedMacStep(acc, fmt.quantize(row[c]), in_raw[c], fmt);
        out[r] = static_cast<float>(fmt.toDouble(acc));
    }
}

void
Haar1D::inverseFixed(const float *in, float *out,
                     const fixed::PipelineFormats &formats) const
{
    const fixed::Format &fmt = formats.invHaar;
    int64_t in_raw[kMaxLen];
    for (int r = 0; r < n_; ++r)
        in_raw[r] = fmt.quantize(in[r]);
    for (int c = 0; c < n_; ++c) {
        int64_t acc = 0;
        for (int r = 0; r < n_; ++r)
            acc = fixedMacStep(acc, fmt.quantize(coefficient(r, c)),
                               in_raw[r], fmt);
        out[c] = static_cast<float>(fmt.toDouble(acc));
    }
}

} // namespace transforms
} // namespace ideal
