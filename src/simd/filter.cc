#include "simd/filter.hh"

#include <algorithm>
#include <cmath>

#include "common/contract.hh"
#include "simd/kernels.hh"

// This TU is compiled at the base x86-64 ISA, which includes SSE2: the
// RGBA accumulator below rides one 4-wide register per sample with no
// dispatch needed. Each channel's lane runs the exact scalar chain
// (separate mulps/addps in slot order — no FMA at this ISA level), so
// the colors are bit-identical to the scalar fallback and independent
// of the PARGPU_SIMD tier.
#if defined(__SSE2__)
#define PARGPU_FILTER_SSE 1
#include <emmintrin.h>
#else
#define PARGPU_FILTER_SSE 0
#endif

namespace pargpu::simd
{

template <bool kFull>
void
QuadFilter::gather(const TextureSampler &sampler, const Vec2 *uvs, int n,
                   const LodSelect &sel, FootprintMemo &memo,
                   TrilinearSample *out, TexelAddrSet *addrs,
                   Color4f *colors)
{
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "batch lane count");
    const TextureMap &tex = sampler.texture();

    // The level selection is batch-wide: hoist the per-level constants out
    // of the sample loop. (Manually — the stores below could alias the
    // texture's arrays for all the compiler knows, blocking the hoist.)
    struct LevelCtx
    {
        int level;
        float w, h;     ///< Level dimensions, as the UV scale factors.
        float level_w;  ///< Trilinear blend weight of this level.
    };
    const LevelCtx lctx[2] = {
        {sel.level0, static_cast<float>(tex.level(sel.level0).width),
         static_cast<float>(tex.level(sel.level0).height), 1.0f - sel.frac},
        {sel.level1, static_cast<float>(tex.level(sel.level1).width),
         static_cast<float>(tex.level(sel.level1).height), sel.frac},
    };

    // Gather + accumulate in one pass: per sample, the same footprint
    // walk as trilinearInto() — identical address math, blend weights
    // and memo probe order — with the RGBA accumulation riding one
    // 4-wide register (one lane per channel, broadcast weight). A
    // sample's channels are independent, so vectorizing ACROSS channels
    // leaves each channel's slot-order multiply-add chain untouched:
    // the color is bit-identical to the scalar fallback below, on every
    // dispatch tier.
    for (int i = 0; i < n; ++i) {
#if PARGPU_FILTER_SSE
        __m128 acc = _mm_setzero_ps();
#else
        float acc_r = 0.0f, acc_g = 0.0f, acc_b = 0.0f, acc_a = 0.0f;
#endif
        if constexpr (kFull) {
            TrilinearSample &s = out[i];
            s.uv = uvs[i];
            s.level0 = sel.level0;
            s.level1 = sel.level1;
            s.frac = sel.frac;
        }
        int slot = 0;
        for (int li = 0; li < 2; ++li) {
            const int level = lctx[li].level;
            const float level_w = lctx[li].level_w;
            float tu = uvs[i].x * lctx[li].w - 0.5f;
            float tv = uvs[i].y * lctx[li].h - 0.5f;
            int x0 = static_cast<int>(std::floor(tu));
            int y0 = static_cast<int>(std::floor(tv));
            float fu = tu - x0;
            float fv = tv - y0;
            const float bw[4] = {
                (1.0f - fu) * (1.0f - fv),
                fu * (1.0f - fv),
                (1.0f - fu) * fv,
                fu * fv,
            };
            // Footprint by reference: a hit reads straight from the memo
            // slot, a miss fetches into the slot and reads it back — no
            // 2x2 copy either way, one hash probe total, and the
            // lookup/store counter sequence equals the sampler path's.
            bool hit = false;
            FootprintMemo::Entry &e = memo.acquire(level, x0, y0, hit);
            if (!hit)
                tex.fetchFootprint(level, x0, y0, e.color, e.addr);
            const int dx[4] = {0, 1, 0, 1};
            const int dy[4] = {0, 0, 1, 1};
            for (int k = 0; k < 4; ++k, ++slot) {
                const float w = bw[k] * level_w;
                if constexpr (kFull) {
                    TexelRef &t = out[i].texels[slot];
                    t.level = level;
                    t.x = x0 + dx[k];
                    t.y = y0 + dy[k];
                    t.weight = w;
                    t.addr = e.addr[k];
                } else {
                    addrs[i][slot] = e.addr[k];
                }
#if PARGPU_FILTER_SSE
                acc = _mm_add_ps(
                    acc, _mm_mul_ps(_mm_loadu_ps(&e.color[k].r),
                                    _mm_set1_ps(w)));
#else
                acc_r += e.color[k].r * w;
                acc_g += e.color[k].g * w;
                acc_b += e.color[k].b * w;
                acc_a += e.color[k].a * w;
#endif
            }
        }
#if PARGPU_FILTER_SSE
        if constexpr (kFull)
            _mm_storeu_ps(&out[i].color.r, acc);
        else
            _mm_storeu_ps(&colors[i].r, acc);
#else
        const Color4f c{acc_r, acc_g, acc_b, acc_a};
        if constexpr (kFull)
            out[i].color = c;
        else
            colors[i] = c;
#endif
    }
    ++batches_;
}

void
QuadFilter::filterSamples(const TextureSampler &sampler, const Vec2 *uvs,
                          int n, const LodSelect &sel, FootprintMemo &memo,
                          TrilinearSample *out)
{
    gather<true>(sampler, uvs, n, sel, memo, out, nullptr, nullptr);
}

void
QuadFilter::filterSamplesAddrs(const TextureSampler &sampler,
                               const Vec2 *uvs, int n, const LodSelect &sel,
                               FootprintMemo &memo, TexelAddrSet *addrs,
                               Color4f *colors)
{
    gather<false>(sampler, uvs, n, sel, memo, nullptr, addrs, colors);
}

Color4f
QuadFilter::filterTrilinear(const TextureSampler &sampler, const Vec2 &uv,
                            float lod, FootprintMemo &memo,
                            TrilinearSample &out)
{
    filterSamples(sampler, &uv, 1, sampler.selectLod(lod), memo, &out);
    return out.color;
}

int
QuadFilter::anisoUvs(const Vec2 &uv, const AnisotropyInfo &info, Vec2 *out)
{
    const int n = info.sampleSize;
    // Sample placement identical to filterAnisotropicInto(): centers
    // confined to the ellipse interior along the major axis.
    float span = info.pMax > 0.0f
        ? std::max(0.0f, 1.0f - info.pMin / info.pMax) : 0.0f;
    for (int i = 0; i < n; ++i) {
        float t = span * (2.0f * i - n + 1.0f) / (2.0f * n);
        out[i] = Vec2{uv.x + info.majorUv.x * t,
                      uv.y + info.majorUv.y * t};
    }
    return n;
}

Color4f
QuadFilter::averageColors(const TrilinearSample *samples, int n)
{
    // Same across-channel vectorization as the gather accumulator: each
    // channel's lane performs the scalar sequence (mul by 1/n, add in
    // sample order), so the mean is bit-identical to the scalar loop.
#if PARGPU_FILTER_SSE
    const __m128 inv_n = _mm_set1_ps(1.0f / static_cast<float>(n));
    __m128 acc = _mm_setzero_ps();
    for (int i = 0; i < n; ++i)
        acc = _mm_add_ps(
            acc, _mm_mul_ps(_mm_loadu_ps(&samples[i].color.r), inv_n));
    Color4f out;
    _mm_storeu_ps(&out.r, acc);
    return out;
#else
    Color4f acc{0, 0, 0, 0};
    for (int i = 0; i < n; ++i)
        acc += samples[i].color * (1.0f / static_cast<float>(n));
    return acc;
#endif
}

Color4f
QuadFilter::averageColors(const Color4f *colors, int n)
{
#if PARGPU_FILTER_SSE
    const __m128 inv_n = _mm_set1_ps(1.0f / static_cast<float>(n));
    __m128 acc = _mm_setzero_ps();
    for (int i = 0; i < n; ++i)
        acc = _mm_add_ps(acc,
                         _mm_mul_ps(_mm_loadu_ps(&colors[i].r), inv_n));
    Color4f out;
    _mm_storeu_ps(&out.r, acc);
    return out;
#else
    Color4f acc{0, 0, 0, 0};
    for (int i = 0; i < n; ++i)
        acc += colors[i] * (1.0f / static_cast<float>(n));
    return acc;
#endif
}

Color4f
QuadFilter::filterAnisotropic(const TextureSampler &sampler, const Vec2 &uv,
                              const AnisotropyInfo &info,
                              FootprintMemo &memo, TrilinearSample *out)
{
    const int n = info.sampleSize;
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "anisotropic sample count");
    const LodSelect sel = sampler.selectLod(info.lodAF);
    Vec2 *uvs = uvs_;
    anisoUvs(uv, info, uvs);
    filterSamples(sampler, uvs, n, sel, memo, out);
    return averageColors(out, n);
}

Color4f
QuadFilter::filterTrilinearAddrs(const TextureSampler &sampler,
                                 const Vec2 &uv, float lod,
                                 FootprintMemo &memo, TexelAddrSet &addrs)
{
    Color4f color;
    filterSamplesAddrs(sampler, &uv, 1, sampler.selectLod(lod), memo,
                       &addrs, &color);
    return color;
}

Color4f
QuadFilter::filterAnisotropicAddrs(const TextureSampler &sampler,
                                   const Vec2 &uv,
                                   const AnisotropyInfo &info,
                                   FootprintMemo &memo, TexelAddrSet *addrs,
                                   Color4f *colors)
{
    const int n = info.sampleSize;
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "anisotropic sample count");
    const LodSelect sel = sampler.selectLod(info.lodAF);
    Vec2 *uvs = uvs_;
    anisoUvs(uv, info, uvs);
    filterSamplesAddrs(sampler, uvs, n, sel, memo, addrs, colors);
    return averageColors(colors, n);
}

} // namespace pargpu::simd
