#include "bm3d/denoise.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fixed/int16plan.h"
#include "runtime/arena.h"
#include "simd/simd.h"

namespace ideal {
namespace bm3d {

namespace {

int
log2OfPow2(int v)
{
    int l = 0;
    while ((1 << l) < v)
        ++l;
    return l;
}

} // namespace

Aggregator::Aggregator(int width, int height, int channels,
                       runtime::BufferArena *arena)
    : Aggregator(0, 0, width, height, channels, arena)
{
}

Aggregator::Aggregator(int x0, int y0, int width, int height, int channels,
                       runtime::BufferArena *arena)
    : x0_(x0), y0_(y0), arena_(arena)
{
    if (arena_ != nullptr) {
        const size_t n =
            static_cast<size_t>(width) * height * channels;
        num_.adopt(width, height, channels, arena_->acquire(n));
        den_.adopt(width, height, channels, arena_->acquire(n));
        num_.fill(0.0f);
        den_.fill(0.0f);
    } else {
        num_ = image::ImageF(width, height, channels);
        den_ = image::ImageF(width, height, channels);
    }
}

Aggregator::Aggregator(Aggregator &&other) noexcept
    : x0_(other.x0_), y0_(other.y0_), num_(std::move(other.num_)),
      den_(std::move(other.den_)), arena_(other.arena_)
{
    other.arena_ = nullptr;
}

Aggregator &
Aggregator::operator=(Aggregator &&other) noexcept
{
    if (this == &other)
        return *this;
    if (arena_ != nullptr) {
        arena_->release(num_.takeStorage());
        arena_->release(den_.takeStorage());
    }
    x0_ = other.x0_;
    y0_ = other.y0_;
    num_ = std::move(other.num_);
    den_ = std::move(other.den_);
    arena_ = other.arena_;
    other.arena_ = nullptr;
    return *this;
}

Aggregator::~Aggregator()
{
    if (arena_ != nullptr) {
        arena_->release(num_.takeStorage());
        arena_->release(den_.takeStorage());
    }
}

void
Aggregator::addPatch(int x, int y, int c, int patch_size,
                     const float *pixels, float w)
{
    const int lx = x - x0_;
    const int ly = y - y0_;
    const simd::KernelTable &k = simd::kernels();
    for (int r = 0; r < patch_size; ++r) {
        float *nrow = num_.plane(c) +
                      static_cast<size_t>(ly + r) * num_.width() + lx;
        float *drow = den_.plane(c) +
                      static_cast<size_t>(ly + r) * den_.width() + lx;
        k.aggregateAdd(nrow, drow, pixels + r * patch_size, w,
                       patch_size);
    }
}

void
Aggregator::addGroup(const int *xs, const int *ys, int c, int stack,
                     const float *coefs, float w, const float *inv_even,
                     const float *inv_odd)
{
    int lx[MatchList::kCapacity];
    int ly[MatchList::kCapacity];
    for (int i = 0; i < stack; ++i) {
        lx[i] = xs[i] - x0_;
        ly[i] = ys[i] - y0_;
    }
    simd::kernels().aggregateGroup(num_.plane(c), den_.plane(c),
                                   num_.width(), coefs, lx, ly, stack, w,
                                   inv_even, inv_odd);
}

image::ImageF
Aggregator::finalize(const image::ImageF &fallback,
                     runtime::BufferArena *out_arena) const
{
    if (x0_ != 0 || y0_ != 0)
        throw std::logic_error(
            "Aggregator::finalize: region aggregators cannot finalize");
    image::ImageF out;
    if (out_arena != nullptr) {
        out.adopt(num_.width(), num_.height(), num_.channels(),
                  out_arena->acquire(num_.size()));
    } else {
        out = image::ImageF(num_.width(), num_.height(), num_.channels());
    }
    // Every sample is written, so the arena buffer's unspecified
    // contents never leak through.
    for (size_t i = 0; i < out.size(); ++i) {
        float d = den_.raw()[i];
        out.raw()[i] = d > 0.0f ? num_.raw()[i] / d : fallback.raw()[i];
    }
    return out;
}

void
Aggregator::finalizeRowsInto(int y0, int y1, const image::ImageF &fallback,
                             image::ImageF &out) const
{
    if (x0_ != 0 || y0_ != 0)
        throw std::logic_error(
            "Aggregator::finalizeRowsInto: region aggregators cannot "
            "finalize");
    if (out.width() != num_.width() || out.height() != num_.height() ||
        out.channels() != num_.channels())
        throw std::invalid_argument(
            "Aggregator::finalizeRowsInto: shape mismatch");
    y0 = std::max(y0, 0);
    y1 = std::min(y1, num_.height());
    if (y0 >= y1)
        return;
    const int w = num_.width();
    for (int c = 0; c < num_.channels(); ++c) {
        const size_t base = static_cast<size_t>(y0) * w;
        const size_t end = static_cast<size_t>(y1) * w;
        const float *nplane = num_.plane(c);
        const float *dplane = den_.plane(c);
        const float *fplane = fallback.plane(c);
        float *oplane = out.plane(c);
        for (size_t i = base; i < end; ++i) {
            const float d = dplane[i];
            oplane[i] = d > 0.0f ? nplane[i] / d : fplane[i];
        }
    }
}

void
Aggregator::merge(const Aggregator &other)
{
    if (num_.channels() != other.num_.channels())
        throw std::invalid_argument("Aggregator::merge: channel mismatch");
    const int off_x = other.x0_ - x0_;
    const int off_y = other.y0_ - y0_;
    const int ow = other.num_.width();
    const int oh = other.num_.height();
    if (off_x < 0 || off_y < 0 || off_x + ow > num_.width() ||
        off_y + oh > num_.height()) {
        throw std::invalid_argument(
            "Aggregator::merge: region not contained");
    }
    const simd::KernelTable &k = simd::kernels();
    for (int c = 0; c < num_.channels(); ++c) {
        for (int r = 0; r < oh; ++r) {
            float *nrow = num_.plane(c) +
                          static_cast<size_t>(off_y + r) * num_.width() +
                          off_x;
            float *drow = den_.plane(c) +
                          static_cast<size_t>(off_y + r) * den_.width() +
                          off_x;
            const float *onrow =
                other.num_.plane(c) + static_cast<size_t>(r) * ow;
            const float *odrow =
                other.den_.plane(c) + static_cast<size_t>(r) * ow;
            k.mergeAdd(nrow, drow, onrow, odrow, ow);
        }
    }
}

DenoiseEngine::DenoiseEngine(const Bm3dConfig &config, Stage stage,
                             const image::ImageF &noisy,
                             const image::ImageF *basic,
                             const DctPatchField *dctField, Profile *profile,
                             runtime::BufferArena *arena)
    : config_(config), stage_(stage), noisy_(noisy), basic_(basic),
      dctField_(dctField), profile_(profile), arena_(arena),
      dct_(config.patchSize),
      threshold3d_(config.lambda3d * config.sigma)
{
    if (stage == Stage::Wiener && basic_ == nullptr)
        throw std::invalid_argument("Wiener stage requires basic estimate");
    for (int s = 2; s <= config.maxMatches; s *= 2)
        haars_.emplace_back(s);

    fusedEligible_ = config_.fusedDenoisePath();
    if (fusedEligible_) {
        const size_t slice = static_cast<size_t>(kMaxStack) * 16;
        if (arena_ != nullptr)
            groupTile_ = arena_->acquire(slice * 3);
        else
            groupTile_.resize(slice * 3);
        gNoisy_ = groupTile_.data();
        gBasic_ = gNoisy_ + slice;
        wTile_ = gBasic_ + slice;
        const fixed::Int16DctPlan plan;
        thresholdI16_ =
            static_cast<int16_t>(plan.haar3d.quantize(threshold3d_));
    }
}

DenoiseEngine::~DenoiseEngine()
{
    if (arena_ != nullptr && !groupTile_.empty())
        arena_->release(std::move(groupTile_));
}

uint64_t
DenoiseEngine::gatherStack(const image::ImageF &src,
                           const MatchList &matches, int stack_size, int c,
                           bool reuse_field, const TileDctField *tile,
                           float *coefs, int stride)
{
    const int pp = config_.patchSize * config_.patchSize;
    float pixels[kMaxCoefs];
    uint64_t executed = 0;
    for (int i = 0; i < stack_size; ++i) {
        const Match &m = matches[i];
        float *dst = coefs + static_cast<size_t>(i) * stride;
        if (reuse_field && dctField_ != nullptr) {
            const float *p = dctField_->patch(m.x, m.y);
            std::copy(p, p + pp, dst);
            continue;
        }
        if (tile != nullptr && tile->covers(m.x, m.y)) {
            const float *p = tile->patch(m.x, m.y);
            std::copy(p, p + pp, dst);
            continue;
        }
        const float *base = src.plane(c);
        for (int r = 0; r < config_.patchSize; ++r) {
            const float *row =
                base + static_cast<size_t>(m.y + r) * src.width() + m.x;
            for (int col = 0; col < config_.patchSize; ++col)
                pixels[r * config_.patchSize + col] = row[col];
        }
        if (config_.fixedPoint)
            dct_.forwardFixed(pixels, dst, *config_.fixedPoint);
        else
            dct_.forward(pixels, dst);
        ++executed;
    }
    return executed;
}

void
DenoiseEngine::prepareTile(int x0, int y0, int x1, int y1)
{
    tilesValid_ = false;
    const int chans = noisy_.channels();
    const bool wiener = stage_ == Stage::Wiener;
    // Stage 1 keeps channel 0 on the global Path-C field; only the
    // color channels profit from a tile cache there.
    const int c0 = (!wiener && dctField_ != nullptr) ? 1 : 0;
    if (!wiener && c0 >= chans)
        return;

    const Step step = wiener ? Step::Dct2 : Step::De1;
    std::optional<ScopedTimer> timer;
    if (profile_)
        timer.emplace(*profile_, step);

    noisyTiles_.resize(chans);
    if (wiener)
        basicTiles_.resize(chans);
    uint64_t dcts = 0;
    for (int c = c0; c < chans; ++c)
        dcts += noisyTiles_[c].build(noisy_, c, dct_, config_.fixedPoint,
                                     x0, y0, x1, y1, arena_);
    if (wiener) {
        for (int c = 0; c < chans; ++c)
            dcts += basicTiles_[c].build(*basic_, c, dct_,
                                         config_.fixedPoint, x0, y0, x1,
                                         y1, arena_);
    }
    tilesValid_ = true;

    if (profile_) {
        OpCounters ops;
        const uint64_t n = config_.patchSize;
        ops.multiplies += dcts * 2 * n * n * n;
        ops.additions += dcts * 2 * n * n * (n - 1);
        ops.memoryReads += dcts * n * n;
        ops.memoryWrites += dcts * n * n;
        profile_->addOps(step, ops);
    }
}

int
DenoiseEngine::shrinkVector(float *vec, const float *wiener_ref,
                            int stack_size)
{
    int non_zero = 0;
    if (stage_ == Stage::HardThreshold) {
        for (int i = 0; i < stack_size; ++i) {
            if (std::abs(vec[i]) < threshold3d_) {
                vec[i] = 0.0f;
            } else {
                ++non_zero;
            }
        }
    } else {
        const float s2 = config_.sigma * config_.sigma;
        for (int i = 0; i < stack_size; ++i) {
            float b = wiener_ref[i];
            float w = (b * b) / (b * b + s2);
            vec[i] *= w;
            // Hardware-countable analogue of "non-zero": the filter
            // passes more than half of the coefficient.
            if (w > 0.5f)
                ++non_zero;
        }
    }
    return non_zero;
}

void
DenoiseEngine::chargeStackOps(uint64_t forward_dcts, int stack_size)
{
    OpCounters &ops = rowOps_;
    const uint64_t chans = noisy_.channels();
    const uint64_t n = config_.patchSize;
    const uint64_t pp = n * n;
    const uint64_t s = stack_size;
    // Forward-DCT gathers: only the transforms actually executed —
    // stack members served by the Path-C field or a transform-once
    // tile cache cost a coefficient copy, not a DCT. The Wiener
    // stage charges those DCTs to DCT2 (the gathers themselves are
    // timed with the rest of the row under DE2); stage 1's belong to
    // DE1.
    if (stage_ == Stage::Wiener) {
        rowDctOps_.multiplies += forward_dcts * 2 * n * n * n;
        rowDctOps_.additions += forward_dcts * 2 * n * n * (n - 1);
    } else {
        ops.multiplies += forward_dcts * 2 * n * n * n;
        ops.additions += forward_dcts * 2 * n * n * (n - 1);
    }
    // Haar forward + inverse in matrix form (256 + 256 for s = 16).
    ops.multiplies += chans * pp * 2 * s * s;
    ops.additions += chans * pp * 2 * s * s;
    // Shrinkage.
    if (stage_ == Stage::HardThreshold)
        ops.comparisons += chans * pp * s;
    else
        ops.multiplies += chans * pp * s * 3;
    // Inverse DCT + aggregation.
    ops.multiplies += chans * s * 2 * n * n * n + chans * s * pp;
    ops.additions += chans * s * 2 * n * n * (n - 1) + chans * s * pp;
    ops.memoryReads += chans * s * pp * 2;
    ops.memoryWrites += chans * s * pp * 2;
}

void
DenoiseEngine::processRow(const MatchList *lists, int count,
                          Aggregator &agg)
{
    const Step de_step =
        stage_ == Stage::HardThreshold ? Step::De1 : Step::De2;
    std::optional<ScopedTimer> timer;
    if (profile_)
        timer.emplace(*profile_, de_step);
    for (int i = 0; i < count; ++i) {
        if (lists[i].stackSize() == 0)
            continue;
        if (fusedEligible_)
            processStackFused(lists[i], agg);
        else
            processStackDiscrete(lists[i], agg);
    }
    if (profile_) {
        profile_->addOps(de_step, rowOps_);
        profile_->addOps(Step::Dct2, rowDctOps_);
    }
    rowOps_ = OpCounters{};
    rowDctOps_ = OpCounters{};
}

void
DenoiseEngine::processStackDiscrete(const MatchList &matches,
                                    Aggregator &agg)
{
    const int stack_size = matches.stackSize();
    ++groupStats_.legacyStacks;
    const int p = config_.patchSize;
    const int pp = p * p;

    const transforms::Haar1D *haar =
        stack_size >= 2 ? &haars_[log2OfPow2(stack_size) - 1] : nullptr;

    float noisy_coefs[kMaxStack][kMaxCoefs];
    float basic_coefs[kMaxStack][kMaxCoefs];
    float tdom[kMaxCoefs][kMaxStack];
    float bdom[kMaxStack];
    uint64_t forward_dcts = 0; // actually executed (not served by a cache)

    for (int c = 0; c < noisy_.channels(); ++c) {
        // Stage 1 reuses the channel-0 DCT field (Path C); everything
        // else resolves through the transform-once tile caches and
        // falls back to on-the-fly transforms.
        const bool reuse =
            stage_ == Stage::HardThreshold && c == 0 && dctField_;
        const TileDctField *ntile =
            tilesValid_ ? &noisyTiles_[c] : nullptr;
        const TileDctField *btile =
            tilesValid_ && stage_ == Stage::Wiener ? &basicTiles_[c]
                                                   : nullptr;
        forward_dcts += gatherStack(noisy_, matches, stack_size, c, reuse,
                                    ntile, &noisy_coefs[0][0], kMaxCoefs);
        if (stage_ == Stage::Wiener)
            forward_dcts +=
                gatherStack(*basic_, matches, stack_size, c, false, btile,
                            &basic_coefs[0][0], kMaxCoefs);

        int non_zero = 0;
        for (int pos = 0; pos < pp; ++pos) {
            float zvec[kMaxStack];
            for (int i = 0; i < stack_size; ++i)
                zvec[i] = noisy_coefs[i][pos];
            if (haar) {
                if (config_.fixedPoint)
                    haar->forwardFixed(zvec, tdom[pos],
                                       *config_.fixedPoint);
                else
                    haar->forward(zvec, tdom[pos]);
            } else {
                tdom[pos][0] = zvec[0];
            }
            const float *wref = nullptr;
            if (stage_ == Stage::Wiener) {
                for (int i = 0; i < stack_size; ++i)
                    zvec[i] = basic_coefs[i][pos];
                if (haar)
                    haar->forward(zvec, bdom);
                else
                    bdom[0] = zvec[0];
                wref = bdom;
            }
            non_zero += shrinkVector(tdom[pos], wref, stack_size);
        }

        // Joint sharpening (paper Sec. 7): alpha-root the shrunk 3-D
        // spectrum magnitudes relative to the block's largest
        // coefficient, which is left unchanged.
        if (config_.sharpenAlpha > 1.0f) {
            float ref = 0.0f;
            for (int pos = 0; pos < pp; ++pos)
                for (int i = 0; i < stack_size; ++i)
                    ref = std::max(ref, std::abs(tdom[pos][i]));
            if (ref > 0.0f) {
                const float inv_alpha = 1.0f / config_.sharpenAlpha;
                for (int pos = 0; pos < pp; ++pos)
                    for (int i = 0; i < stack_size; ++i) {
                        float v = tdom[pos][i];
                        // Boost only coefficients that survived
                        // shrinkage as significant: rooting the
                        // sub-threshold residue (present after the
                        // Wiener stage, which attenuates rather than
                        // zeroes) would amplify noise.
                        if (std::abs(v) < threshold3d_)
                            continue;
                        float mag =
                            ref * std::pow(std::abs(v) / ref, inv_alpha);
                        mag = std::min(
                            mag, std::abs(v) * config_.sharpenMaxBoost);
                        tdom[pos][i] = std::copysign(mag, v);
                    }
            }
        }

        for (int pos = 0; pos < pp; ++pos) {
            float zvec[kMaxStack];
            if (haar) {
                if (config_.fixedPoint)
                    haar->inverseFixed(tdom[pos], zvec,
                                       *config_.fixedPoint);
                else
                    haar->inverse(tdom[pos], zvec);
            } else {
                zvec[0] = tdom[pos][0];
            }
            for (int i = 0; i < stack_size; ++i)
                noisy_coefs[i][pos] = zvec[i];
        }

        const float weight =
            1.0f / static_cast<float>(std::max(non_zero, 1));

        float pixels[kMaxCoefs];
        for (int i = 0; i < stack_size; ++i) {
            if (config_.fixedPoint)
                dct_.inverseFixed(noisy_coefs[i], pixels,
                                  *config_.fixedPoint);
            else
                dct_.inverse(noisy_coefs[i], pixels);
            agg.addPatch(matches[i].x, matches[i].y, c, p, pixels, weight);
        }
    }

    chargeStackOps(forward_dcts, stack_size);
}

void
DenoiseEngine::processStackFused(const MatchList &matches, Aggregator &agg)
{
    const int stack_size = matches.stackSize();
    const int pp = 16; // fusedEligible_ implies patchSize == 4

    const simd::KernelTable &kt = simd::kernels();
    const float *inv_even = dct_.invEvenHalf();
    const float *inv_odd = dct_.invOddHalf();
    int mx[kMaxStack];
    int my[kMaxStack];
    for (int i = 0; i < stack_size; ++i) {
        mx[i] = matches[i].x;
        my[i] = matches[i].y;
    }
    // DE1 under Precision::Int16 shrinks quantized Q11.1 raws — the
    // paper's stage-3 datapath (Sec. 4.2). DE2's rational Wiener
    // attenuation stays float: its weights span the whole [0, 1)
    // range and the division has no int16 analogue of useful range.
    const bool i16 = stage_ == Stage::HardThreshold &&
                     config_.precision == Precision::Int16;
    const fixed::Int16DctPlan plan;
    uint64_t forward_dcts = 0;

    for (int c = 0; c < noisy_.channels(); ++c) {
        const bool reuse =
            stage_ == Stage::HardThreshold && c == 0 && dctField_;
        const TileDctField *ntile =
            tilesValid_ ? &noisyTiles_[c] : nullptr;
        float weight;
        if (stage_ == Stage::Wiener) {
            const TileDctField *btile =
                tilesValid_ ? &basicTiles_[c] : nullptr;
            forward_dcts += gatherStack(noisy_, matches, stack_size, c,
                                        false, ntile, gNoisy_, pp);
            forward_dcts += gatherStack(*basic_, matches, stack_size, c,
                                        false, btile, gBasic_, pp);
            const float s2 = config_.sigma * config_.sigma;
            const int strong = kt.wienerShrinkFused(
                gNoisy_, gBasic_, wTile_, stack_size, pp, s2);
            weight = 1.0f / static_cast<float>(std::max(strong, 1));
        } else {
            forward_dcts += gatherStack(noisy_, matches, stack_size, c,
                                        reuse, ntile, gNoisy_, pp);
            int kept;
            if (i16) {
                const int count = stack_size * pp;
                fixed::quantizeToI16(gNoisy_, count, plan.haar3d,
                                     gi16_.data());
                kept = kt.haarShrinkFusedI16(gi16_.data(), stack_size, pp,
                                             thresholdI16_,
                                             fixed::haarFactorQ15());
                const float inv = fixed::invScale(plan.haar3d);
                for (int k = 0; k < count; ++k)
                    gNoisy_[k] = static_cast<float>(gi16_[k]) * inv;
            } else {
                kept = kt.haarShrinkFused(gNoisy_, stack_size, pp,
                                          threshold3d_);
            }
            weight = 1.0f / static_cast<float>(std::max(kept, 1));
        }
        agg.addGroup(mx, my, c, stack_size, gNoisy_, weight, inv_even,
                     inv_odd);
    }

    ++groupStats_.fusedStacks;
    groupStats_.fusedPatches +=
        static_cast<uint64_t>(stack_size) * noisy_.channels();
    if (i16)
        ++groupStats_.fusedStacksI16;
    chargeStackOps(forward_dcts, stack_size);
}

} // namespace bm3d
} // namespace ideal
