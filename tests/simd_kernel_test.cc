/**
 * @file
 * Bit-identity tests for the SoA kernel layer (src/simd/): every
 * runnable dispatch tier must produce exactly the scalar reference
 * results — same color bits, same texel streams, same memo counter
 * sequence — on the edge cases most likely to diverge: integer-boundary
 * LODs, UV wrap/clamp at texture edges, and max-anisotropy clamping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "simd/dispatch.hh"
#include "simd/filter.hh"
#include "simd/kernels.hh"
#include "texture/procedural.hh"
#include "texture/sampler.hh"

using namespace pargpu;

namespace
{

/** Every tier this build and CPU can run (scalar always included). */
std::vector<simd::SimdTier>
runnableTiers()
{
    std::vector<simd::SimdTier> tiers{simd::SimdTier::Scalar};
    if (simd::detectTier() == simd::SimdTier::Avx2)
        tiers.push_back(simd::SimdTier::Avx2);
    return tiers;
}

/** Save/restore the process-wide active tier around a test body. */
class TierGuard
{
  public:
    TierGuard() : saved_(simd::activeTier()) {}
    ~TierGuard() { simd::setActiveTier(saved_); }

  private:
    simd::SimdTier saved_;
};

TextureMap
makeTex(WrapMode wrap = WrapMode::Repeat, int size = 64)
{
    return TextureMap(size, size, generateTexture(TextureKind::Noise,
                                                  size, 7),
                      wrap);
}

/** Exact bit equality for floats (0.0f == -0.0f would hide a diff). */
void
expectBitEqual(float a, float b, const char *what)
{
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void
expectColorEqual(const Color4f &a, const Color4f &b, const char *what)
{
    expectBitEqual(a.r, b.r, what);
    expectBitEqual(a.g, b.g, what);
    expectBitEqual(a.b, b.b, what);
    expectBitEqual(a.a, b.a, what);
}

void
expectSampleEqual(const TrilinearSample &a, const TrilinearSample &b)
{
    expectBitEqual(a.uv.x, b.uv.x, "uv.x");
    expectBitEqual(a.uv.y, b.uv.y, "uv.y");
    EXPECT_EQ(a.level0, b.level0);
    EXPECT_EQ(a.level1, b.level1);
    expectBitEqual(a.frac, b.frac, "frac");
    expectColorEqual(a.color, b.color, "sample color");
    for (int k = 0; k < 8; ++k) {
        const TexelRef &ta = a.texels[k];
        const TexelRef &tb = b.texels[k];
        EXPECT_EQ(ta.level, tb.level) << "texel " << k;
        EXPECT_EQ(ta.x, tb.x) << "texel " << k;
        EXPECT_EQ(ta.y, tb.y) << "texel " << k;
        expectBitEqual(ta.weight, tb.weight, "texel weight");
        EXPECT_EQ(ta.addr, tb.addr) << "texel " << k;
    }
}

} // namespace

// LODs exactly on integer boundaries select frac == 0 (and the clamped
// ends of the mip chain); the batched filter must reproduce the scalar
// sampler's choice bit-for-bit under every tier.
TEST(SimdKernelTest, IntegerBoundaryLodMatchesSampler)
{
    TierGuard guard;
    TextureMap tex = makeTex();
    TextureSampler s(tex);

    const float lods[] = {-1.0f, 0.0f, 1.0f, 2.0f, 5.0f, 6.0f, 9.0f};
    const Vec2 uvs[] = {{0.13f, 0.77f}, {0.5f, 0.5f}, {0.99f, 0.01f}};

    for (simd::SimdTier tier : runnableTiers()) {
        simd::setActiveTier(tier);
        simd::QuadFilter qf;
        for (float lod : lods) {
            for (const Vec2 &uv : uvs) {
                SCOPED_TRACE(std::string(simd::tierName(tier)) +
                             " lod=" + std::to_string(lod));
                TrilinearSample want = s.trilinear(uv, lod);
                TrilinearSample got;
                FootprintMemo memo;
                Color4f c = qf.filterTrilinear(s, uv, lod, memo, got);
                expectSampleEqual(want, got);
                expectColorEqual(want.color, c, "returned color");
            }
        }
    }
}

// Footprints straddling the texture border exercise the wrap/clamp
// address math; both wrap modes must match the scalar sampler and issue
// the identical memo probe sequence.
TEST(SimdKernelTest, WrapAndClampEdgesMatchSampler)
{
    TierGuard guard;
    const WrapMode modes[] = {WrapMode::Repeat, WrapMode::ClampToEdge};
    // Sample centers on and around the [0,1) seam, including coordinates
    // outside the unit square.
    const float coords[] = {-0.3f,    -0.01f, 0.0f,  0.004f, 0.5f,
                            0.996f, 0.999f, 1.0f, 1.25f};

    for (WrapMode mode : modes) {
        TextureMap tex = makeTex(mode);
        TextureSampler s(tex);
        std::vector<Vec2> uvs;
        for (float u : coords)
            for (float v : coords)
                uvs.push_back({u, v});

        const float lod = 1.3f;
        const LodSelect sel = s.selectLod(lod);

        // Scalar sampler reference, with its own memo so the probe
        // sequence is comparable.
        std::vector<TrilinearSample> want(uvs.size());
        FootprintMemo ref_memo;
        for (std::size_t i = 0; i < uvs.size(); ++i)
            s.trilinearInto(uvs[i], sel, want[i], &ref_memo);

        for (simd::SimdTier tier : runnableTiers()) {
            SCOPED_TRACE(std::string(simd::tierName(tier)) + " wrap=" +
                         (mode == WrapMode::Repeat ? "repeat" : "clamp"));
            simd::setActiveTier(tier);
            simd::QuadFilter qf;
            std::vector<TrilinearSample> got(uvs.size());
            FootprintMemo memo;
            // A batch holds at most kMaxLanes samples; feed the grid in
            // chunks like the texture unit does.
            for (std::size_t base = 0; base < uvs.size();
                 base += simd::kMaxLanes) {
                const int chunk = static_cast<int>(
                    std::min<std::size_t>(simd::kMaxLanes,
                                          uvs.size() - base));
                qf.filterSamples(s, uvs.data() + base, chunk, sel, memo,
                                 got.data() + base);
            }
            for (std::size_t i = 0; i < uvs.size(); ++i) {
                SCOPED_TRACE("sample " + std::to_string(i));
                expectSampleEqual(want[i], got[i]);
            }
            EXPECT_EQ(memo.lookups(), ref_memo.lookups());
            EXPECT_EQ(memo.hits(), ref_memo.hits());
        }
    }
}

// A pathologically elongated footprint clamps to kMaxAniso; the batched
// AF path must place, filter and average all 16 samples exactly as the
// scalar sampler does.
TEST(SimdKernelTest, MaxAnisoClampMatchesSampler)
{
    TierGuard guard;
    TextureMap tex = makeTex();
    TextureSampler s(tex);

    // 64 texels across x, 1 texel across y: anisotropy 64, clamped.
    AnisotropyInfo info =
        s.computeAnisotropy({1.0f, 0.0f}, {0.0f, 1.0f / 64});
    ASSERT_EQ(info.anisoDegree, TextureSampler::kMaxAniso);
    ASSERT_EQ(info.sampleSize, TextureSampler::kMaxAniso);

    const Vec2 uvs[] = {{0.42f, 0.63f}, {0.01f, 0.98f}};
    for (simd::SimdTier tier : runnableTiers()) {
        simd::setActiveTier(tier);
        simd::QuadFilter qf;
        for (const Vec2 &uv : uvs) {
            SCOPED_TRACE(simd::tierName(tier));
            std::vector<TrilinearSample> want(info.sampleSize);
            FootprintMemo ref_memo;
            Color4f want_c = s.filterAnisotropicInto(uv, info,
                                                     want.data(),
                                                     &ref_memo);
            std::vector<TrilinearSample> got(info.sampleSize);
            FootprintMemo memo;
            Color4f got_c = qf.filterAnisotropic(s, uv, info, memo,
                                                 got.data());
            expectColorEqual(want_c, got_c, "averaged color");
            for (int i = 0; i < info.sampleSize; ++i) {
                SCOPED_TRACE("sample " + std::to_string(i));
                expectSampleEqual(want[i], got[i]);
            }
            EXPECT_EQ(memo.lookups(), ref_memo.lookups());
            EXPECT_EQ(memo.hits(), ref_memo.hits());
        }
    }
}

// The compact (addresses + colors only) variants must emit exactly the
// addresses and colors of the full TrilinearSample path and issue the
// same memo probes.
TEST(SimdKernelTest, CompactPathMatchesFullPath)
{
    TierGuard guard;
    TextureMap tex = makeTex(WrapMode::ClampToEdge);
    TextureSampler s(tex);

    SplitMix64 rng(23);
    std::vector<Vec2> uvs;
    for (int i = 0; i < 37; ++i)
        uvs.push_back({rng.nextFloat(-0.2f, 1.2f),
                       rng.nextFloat(-0.2f, 1.2f)});
    const LodSelect sel = s.selectLod(0.7f);
    const int n = static_cast<int>(uvs.size());

    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);
        simd::QuadFilter qf;

        std::vector<TrilinearSample> full(uvs.size());
        FootprintMemo full_memo;
        qf.filterSamples(s, uvs.data(), n, sel, full_memo, full.data());

        std::vector<TexelAddrSet> addrs(uvs.size());
        std::vector<Color4f> colors(uvs.size());
        FootprintMemo compact_memo;
        qf.filterSamplesAddrs(s, uvs.data(), n, sel, compact_memo,
                              addrs.data(), colors.data());

        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE("sample " + std::to_string(i));
            expectColorEqual(full[i].color, colors[i], "color");
            for (int k = 0; k < 8; ++k)
                EXPECT_EQ(full[i].texels[k].addr, addrs[i][k])
                    << "texel " << k;
        }
        EXPECT_EQ(compact_memo.lookups(), full_memo.lookups());
        EXPECT_EQ(compact_memo.hits(), full_memo.hits());
    }
}

namespace
{

/** A deterministic on-screen triangle with non-trivial w variation. */
simd::EdgeTri
makeTri(SplitMix64 &rng, int w, int h)
{
    float x[3], y[3];
    for (int v = 0; v < 3; ++v) {
        x[v] = rng.nextFloat(0.0f, static_cast<float>(w));
        y[v] = rng.nextFloat(0.0f, static_cast<float>(h));
    }
    // Twice the signed area; regenerate via the caller on degenerates.
    float area2 = (x[1] - x[0]) * (y[2] - y[0]) -
        (y[1] - y[0]) * (x[2] - x[0]);
    simd::EdgeTri tri{};
    tri.ax = x[0]; tri.ay = y[0];
    tri.bx = x[1]; tri.by = y[1];
    tri.cx = x[2]; tri.cy = y[2];
    tri.inv_area = area2 != 0.0f ? 1.0f / area2 : 0.0f;
    tri.z0 = rng.nextFloat(0.05f, 0.95f);
    tri.z1 = rng.nextFloat(0.05f, 0.95f);
    tri.z2 = rng.nextFloat(0.05f, 0.95f);
    float w0 = rng.nextFloat(0.5f, 4.0f);
    float w1 = rng.nextFloat(0.5f, 4.0f);
    float w2 = rng.nextFloat(0.5f, 4.0f);
    tri.iw0 = 1.0f / w0; tri.iw1 = 1.0f / w1; tri.iw2 = 1.0f / w2;
    tri.uw0 = rng.nextFloat() * tri.iw0;
    tri.uw1 = rng.nextFloat() * tri.iw1;
    tri.uw2 = rng.nextFloat() * tri.iw2;
    tri.vw0 = rng.nextFloat() * tri.iw0;
    tri.vw1 = rng.nextFloat() * tri.iw1;
    tri.vw2 = rng.nextFloat() * tri.iw2;
    return tri;
}

} // namespace

// edge_quad: every tier must reproduce the scalar kernel's uv/depth
// bits and coverage mask on full quads, window-clipped quads (the
// right/bottom edge of an odd-sized walk window) and quads entirely
// outside the triangle.
TEST(SimdKernelTest, EdgeQuadMatchesScalarAllTiers)
{
    TierGuard guard;
    constexpr int kW = 33, kH = 17; // odd: exercises clipped quads
    SplitMix64 rng(41);
    std::vector<simd::EdgeTri> tris;
    for (int t = 0; t < 8; ++t)
        tris.push_back(makeTri(rng, kW, kH));

    for (const simd::EdgeTri &tri : tris) {
        // Scalar reference over the whole window.
        std::vector<simd::EdgeQuadOut> want;
        simd::setActiveTier(simd::SimdTier::Scalar);
        const simd::KernelOps &ref = simd::activeKernels();
        for (int qy = 0; qy < kH; qy += 2)
            for (int qx = 0; qx < kW; qx += 2) {
                simd::EdgeQuadOut o{};
                ref.edge_quad(tri, qx, qy, 0, 0, kW - 1, kH - 1, o);
                want.push_back(o);
            }

        for (simd::SimdTier tier : runnableTiers()) {
            SCOPED_TRACE(simd::tierName(tier));
            simd::setActiveTier(tier);
            const simd::KernelOps &ops = simd::activeKernels();
            std::size_t qi = 0;
            for (int qy = 0; qy < kH; qy += 2)
                for (int qx = 0; qx < kW; qx += 2, ++qi) {
                    SCOPED_TRACE("quad (" + std::to_string(qx) + ", " +
                                 std::to_string(qy) + ")");
                    simd::EdgeQuadOut got{};
                    ops.edge_quad(tri, qx, qy, 0, 0, kW - 1, kH - 1,
                                  got);
                    EXPECT_EQ(got.coverage, want[qi].coverage);
                    for (int i = 0; i < 4; ++i) {
                        expectBitEqual(got.u[i], want[qi].u[i], "u");
                        expectBitEqual(got.v[i], want[qi].v[i], "v");
                        expectBitEqual(got.depth[i], want[qi].depth[i],
                                       "depth");
                    }
                }
        }
    }
}

// fill_color / fill_depth: byte-exact fills for counts around and far
// from the vector width, with untouched bytes beyond the fill verified
// via sentinel values.
TEST(SimdKernelTest, FillKernelsMatchScalarAllTiers)
{
    TierGuard guard;
    const float rgba[4] = {0.125f, 0.25f, -0.0f, 1.0f};
    const int counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 129};

    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);
        const simd::KernelOps &ops = simd::activeKernels();
        for (int n : counts) {
            SCOPED_TRACE("count " + std::to_string(n));
            std::vector<float> color(static_cast<std::size_t>(n) * 4 + 8,
                                     -99.0f);
            ops.fill_color(color.data(), n, rgba);
            for (int i = 0; i < n; ++i)
                for (int c = 0; c < 4; ++c)
                    expectBitEqual(color[static_cast<std::size_t>(i) * 4 +
                                         static_cast<std::size_t>(c)],
                                   rgba[c], "fill_color");
            for (std::size_t i = static_cast<std::size_t>(n) * 4;
                 i < color.size(); ++i)
                expectBitEqual(color[i], -99.0f, "fill_color overrun");

            std::vector<float> depth(static_cast<std::size_t>(n) + 8,
                                     -99.0f);
            ops.fill_depth(depth.data(), n, 1.0f);
            for (int i = 0; i < n; ++i)
                expectBitEqual(depth[static_cast<std::size_t>(i)], 1.0f,
                               "fill_depth");
            for (std::size_t i = static_cast<std::size_t>(n);
                 i < depth.size(); ++i)
                expectBitEqual(depth[i], -99.0f, "fill_depth overrun");
        }
    }
}

// depth_quad + scatter_quad: the pass mask, the stored depths and the
// scattered colors must match the scalar kernel for every incoming
// mask shape, including exact-tie depths (which must fail the strict
// less-than test) and negative zeros.
TEST(SimdKernelTest, DepthScatterQuadMatchScalarAllTiers)
{
    TierGuard guard;
    SplitMix64 rng(43);

    for (int trial = 0; trial < 64; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        float stored[4], incoming[4], rgba[16];
        for (int i = 0; i < 4; ++i) {
            stored[i] = rng.nextFloat();
            // Mix strictly-less, equal (must fail) and greater lanes.
            int kind = static_cast<int>(rng.next() % 3);
            incoming[i] = kind == 0 ? stored[i] * 0.5f
                : kind == 1 ? stored[i]
                            : stored[i] + 0.25f;
        }
        for (float &c : rgba)
            c = rng.nextFloat();

        // Scalar reference.
        simd::setActiveTier(simd::SimdTier::Scalar);
        float ref_d0[2] = {stored[0], stored[1]};
        float ref_d1[2] = {stored[2], stored[3]};
        unsigned want_mask = simd::activeKernels().depth_quad(
            ref_d0, ref_d1, incoming);
        float ref_c0[8], ref_c1[8];
        std::fill(ref_c0, ref_c0 + 8, -1.0f);
        std::fill(ref_c1, ref_c1 + 8, -1.0f);
        simd::activeKernels().scatter_quad(ref_c0, ref_c1, rgba,
                                           want_mask);

        for (simd::SimdTier tier : runnableTiers()) {
            SCOPED_TRACE(simd::tierName(tier));
            simd::setActiveTier(tier);
            const simd::KernelOps &ops = simd::activeKernels();
            float d0[2] = {stored[0], stored[1]};
            float d1[2] = {stored[2], stored[3]};
            unsigned mask = ops.depth_quad(d0, d1, incoming);
            EXPECT_EQ(mask, want_mask);
            expectBitEqual(d0[0], ref_d0[0], "depth row0");
            expectBitEqual(d0[1], ref_d0[1], "depth row0");
            expectBitEqual(d1[0], ref_d1[0], "depth row1");
            expectBitEqual(d1[1], ref_d1[1], "depth row1");

            float c0[8], c1[8];
            std::fill(c0, c0 + 8, -1.0f);
            std::fill(c1, c1 + 8, -1.0f);
            ops.scatter_quad(c0, c1, rgba, mask);
            for (int i = 0; i < 8; ++i) {
                expectBitEqual(c0[i], ref_c0[i], "scatter row0");
                expectBitEqual(c1[i], ref_c1[i], "scatter row1");
            }
        }

        // Every one of the 16 masks must scatter exactly its lanes.
        for (unsigned mask = 0; mask < 16; ++mask) {
            simd::setActiveTier(simd::SimdTier::Scalar);
            float w0[8], w1[8];
            std::fill(w0, w0 + 8, -1.0f);
            std::fill(w1, w1 + 8, -1.0f);
            simd::activeKernels().scatter_quad(w0, w1, rgba, mask);
            for (simd::SimdTier tier : runnableTiers()) {
                SCOPED_TRACE(simd::tierName(tier));
                simd::setActiveTier(tier);
                float g0[8], g1[8];
                std::fill(g0, g0 + 8, -1.0f);
                std::fill(g1, g1 + 8, -1.0f);
                simd::activeKernels().scatter_quad(g0, g1, rgba, mask);
                for (int i = 0; i < 8; ++i) {
                    expectBitEqual(g0[i], w0[i], "mask scatter row0");
                    expectBitEqual(g1[i], w1[i], "mask scatter row1");
                }
            }
        }
    }
}

// ssim_row: bit identity across tiers for the horizontal (stride 1)
// and vertical (stride = width) shapes, full and edge-sliced kernels,
// and row lengths off the vector width.
TEST(SimdKernelTest, SsimRowMatchesScalarAllTiers)
{
    TierGuard guard;
    constexpr int kWidth = 37, kRows = 16, kTaps = 11;
    SplitMix64 rng(47);
    std::vector<float> src(static_cast<std::size_t>(kWidth) * kRows);
    for (float &v : src)
        v = rng.nextFloat();
    float k[kTaps];
    float wsum_full = 0.0f;
    for (int t = 0; t < kTaps; ++t) {
        k[t] = rng.nextFloat(0.01f, 1.0f);
        wsum_full += k[t];
    }

    struct Shape { int n, stride, taps; };
    const Shape shapes[] = {
        {kWidth - kTaps + 1, 1, kTaps}, // horizontal interior
        {kWidth, kWidth, kTaps},        // vertical, full kernel
        {kWidth, kWidth, 5},            // vertical, edge-sliced kernel
        {3, 1, kTaps},                  // shorter than any vector width
        {1, 1, 2},                      // single output
    };

    for (const Shape &sh : shapes) {
        SCOPED_TRACE("n=" + std::to_string(sh.n) + " stride=" +
                     std::to_string(sh.stride) + " taps=" +
                     std::to_string(sh.taps));
        float wsum = sh.taps == kTaps ? wsum_full : wsum_full * 0.5f;
        std::vector<float> want(static_cast<std::size_t>(sh.n));
        simd::setActiveTier(simd::SimdTier::Scalar);
        simd::activeKernels().ssim_row(src.data(), want.data(), sh.n,
                                       sh.stride, k, sh.taps, wsum);
        for (simd::SimdTier tier : runnableTiers()) {
            SCOPED_TRACE(simd::tierName(tier));
            simd::setActiveTier(tier);
            std::vector<float> got(static_cast<std::size_t>(sh.n),
                                   -5.0f);
            simd::activeKernels().ssim_row(src.data(), got.data(), sh.n,
                                           sh.stride, k, sh.taps, wsum);
            for (int i = 0; i < sh.n; ++i)
                expectBitEqual(got[static_cast<std::size_t>(i)],
                               want[static_cast<std::size_t>(i)],
                               "ssim_row");
        }
    }
}
