/**
 * @file
 * Batched quad filtering on top of the SoA kernels.
 *
 * QuadFilter is the texture unit's replacement for the per-texel blend
 * loops in TextureSampler: it walks the texels of up to kMaxLanes
 * trilinear samples — footprints served by reference from the per-quad
 * FootprintMemo, misses fetched block-at-a-time through
 * TextureMap::fetchFootprint — and accumulates each sample's RGBA in a
 * single 4-wide register (one lane per channel), fused into the gather
 * loop.
 *
 * Everything observable is bit-identical to the scalar sampler paths:
 * the per-sample FP accumulation chain (filter.cc), the TexelRef
 * streams, and the memo lookup/store sequence (which drives the
 * texunit.memo_* counters) are all preserved exactly.
 */

#ifndef PARGPU_SIMD_FILTER_HH
#define PARGPU_SIMD_FILTER_HH

#include <cstdint>

#include "common/color.hh"
#include "common/types.hh"
#include "common/vec.hh"
#include "texture/sampler.hh"

namespace pargpu::simd
{

/**
 * Widest batch: a whole quad's anisotropic samples in one filterSamples()
 * call (4 pixels x 16x max anisotropy).
 */
inline constexpr int kMaxLanes = 64;

/**
 * Per-texture-unit batch filter; allocation-free. Not thread-safe —
 * each texture unit owns one, like its FootprintMemo.
 */
class QuadFilter
{
  public:
    /**
     * Filter @p n trilinear samples centered at @p uvs[0..n) under the
     * shared level selection @p sel, through @p memo. Fills @p out[i]
     * exactly as TextureSampler::trilinearInto would (uv, levels, the
     * 8 TexelRefs, color) and issues the same memo lookup/store sequence
     * in sample order. One kernel call per invocation.
     */
    void filterSamples(const TextureSampler &sampler, const Vec2 *uvs,
                       int n, const LodSelect &sel, FootprintMemo &memo,
                       TrilinearSample *out);

    /** Batched equivalent of TextureSampler::filterTrilinearInto(). */
    Color4f filterTrilinear(const TextureSampler &sampler, const Vec2 &uv,
                            float lod, FootprintMemo &memo,
                            TrilinearSample &out);

    /** Batched equivalent of TextureSampler::filterAnisotropicInto(). */
    Color4f filterAnisotropic(const TextureSampler &sampler,
                              const Vec2 &uv, const AnisotropyInfo &info,
                              FootprintMemo &memo, TrilinearSample *out);

    /**
     * The AF sample placement of filterAnisotropic(): writes the
     * info.sampleSize sample centers for a pixel at @p uv into @p out
     * and returns the count. Lets a caller concatenate several pixels'
     * samples into one filterSamples() batch.
     */
    static int anisoUvs(const Vec2 &uv, const AnisotropyInfo &info,
                        Vec2 *out);

    /**
     * The AF sample average of filterAnisotropic(): mean of @p n sample
     * colors in sample order, with the same FP operation sequence.
     */
    static Color4f averageColors(const TrilinearSample *samples, int n);

    /** averageColors() over a plain color array (compact path). */
    static Color4f averageColors(const Color4f *colors, int n);

    // --- Compact path -------------------------------------------------
    // The simulator consumes only each sample's 8 texel addresses (fetch
    // bookkeeping, the PATU hash table) and its filtered color; the
    // compact variants skip materializing full TrilinearSample records
    // (~230 B/sample of stores) and emit exactly those two outputs. Same
    // gather loop (one template), so colors, addresses and the memo
    // probe sequence are bit-identical to the full variants.

    /** filterSamples() emitting only addresses and colors. */
    void filterSamplesAddrs(const TextureSampler &sampler, const Vec2 *uvs,
                            int n, const LodSelect &sel,
                            FootprintMemo &memo, TexelAddrSet *addrs,
                            Color4f *colors);

    /** filterTrilinear() emitting only the address set. */
    Color4f filterTrilinearAddrs(const TextureSampler &sampler,
                                 const Vec2 &uv, float lod,
                                 FootprintMemo &memo, TexelAddrSet &addrs);

    /**
     * filterAnisotropic() emitting addresses and per-sample colors
     * (info.sampleSize of each); returns the averaged pixel color.
     */
    Color4f filterAnisotropicAddrs(const TextureSampler &sampler,
                                   const Vec2 &uv,
                                   const AnisotropyInfo &info,
                                   FootprintMemo &memo, TexelAddrSet *addrs,
                                   Color4f *colors);

    /** Batched filter invocations since the last call; drains to zero. */
    std::uint64_t
    takeBatches()
    {
        std::uint64_t b = batches_;
        batches_ = 0;
        return b;
    }

  private:
    /**
     * The one gather-accumulate-scatter loop behind both variants:
     * kFull writes TrilinearSample records to @p out, compact writes
     * address sets and colors to @p addrs / @p colors.
     */
    template <bool kFull>
    void gather(const TextureSampler &sampler, const Vec2 *uvs, int n,
                const LodSelect &sel, FootprintMemo &memo,
                TrilinearSample *out, TexelAddrSet *addrs,
                Color4f *colors);

    std::uint64_t batches_ = 0;
    /**
     * Reusable AF sample-center scratch: Vec2's default member
     * initializers would zero-fill a kMaxLanes local on every
     * filterAnisotropic*() call. Dead between calls.
     */
    Vec2 uvs_[kMaxLanes];
};

} // namespace pargpu::simd

#endif // PARGPU_SIMD_FILTER_HH
