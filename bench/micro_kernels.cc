/**
 * @file
 * google-benchmark microbenchmarks for the hot kernels: texture
 * filtering, the PATU hash table, the cache model and SSIM.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pargpu/analysis.hh"
#include "pargpu/random.hh"
#include "pargpu/mem.hh"
#include "pargpu/quality.hh"
#include "pargpu/simd.hh"
#include "pargpu/texture.hh"

using namespace pargpu;

namespace
{

const TextureMap &
benchTexture()
{
    static TextureMap tex(512, 512,
                          generateTexture(TextureKind::Noise, 512, 1));
    return tex;
}

void
BM_TrilinearSample(benchmark::State &state)
{
    TextureSampler s(benchTexture());
    SplitMix64 rng(1);
    for (auto _ : state) {
        Vec2 uv{rng.nextFloat(), rng.nextFloat()};
        benchmark::DoNotOptimize(s.trilinear(uv, 2.3f));
    }
}
BENCHMARK(BM_TrilinearSample);

void
BM_AnisotropicFilter(benchmark::State &state)
{
    TextureSampler s(benchTexture());
    float px = static_cast<float>(state.range(0));
    AnisotropyInfo info =
        s.computeAnisotropy({px / 512.0f, 0.0f}, {0.0f, 1.0f / 512.0f});
    SplitMix64 rng(2);
    for (auto _ : state) {
        Vec2 uv{rng.nextFloat(), rng.nextFloat()};
        benchmark::DoNotOptimize(s.filterAnisotropic(uv, info));
    }
    state.SetLabel("N=" + std::to_string(info.sampleSize));
}
BENCHMARK(BM_AnisotropicFilter)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void
BM_HashTableInsert(benchmark::State &state)
{
    SplitMix64 rng(3);
    TexelAddressTable table;
    for (auto _ : state) {
        table.reset();
        for (int i = 0; i < 16; ++i) {
            TexelAddrSet set;
            Addr base = 0x100 * (1 + rng.nextBounded(4));
            for (int k = 0; k < 8; ++k)
                set[k] = base + k * 4;
            benchmark::DoNotOptimize(table.insert(set));
        }
    }
}
BENCHMARK(BM_HashTableInsert);

void
BM_AfSsimPrediction(benchmark::State &state)
{
    std::vector<float> p = {0.6f, 0.2f, 0.2f};
    for (auto _ : state) {
        benchmark::DoNotOptimize(afSsimFromSampleSize(8));
        benchmark::DoNotOptimize(afSsimFromTxds(txds(p, 5)));
    }
}
BENCHMARK(BM_AfSsimPrediction);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.assoc = 4;
    SetAssocCache cache(cfg);
    SplitMix64 rng(4);
    for (auto _ : state) {
        Addr a = rng.nextBounded(1 << 20) * 64;
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_SsimMap(benchmark::State &state)
{
    int dim = static_cast<int>(state.range(0));
    Image a(dim, dim), b(dim, dim);
    SplitMix64 rng(5);
    for (int y = 0; y < dim; ++y) {
        for (int x = 0; x < dim; ++x) {
            float v = rng.nextFloat();
            a.at(x, y) = Color4f{v, v, v, 1};
            float w = std::min(1.0f, v + 0.05f * rng.nextFloat());
            b.at(x, y) = Color4f{w, w, w, 1};
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(ssimMap(a, b));
    state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_SsimMap)->Arg(64)->Arg(256);

/**
 * Tier head-to-head for the 2x2 edge-function kernel: one full
 * triangle's worth of quads per iteration, the per-quad work of the
 * rasterizer inner loop. Arg is the tier, as in every tier benchmark
 * below (0 scalar, 2 AVX2); a tier this build or CPU cannot run reports
 * an "unavailable" label instead of numbers.
 */
void
BM_EdgeQuad(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kW = 64, kH = 64;
    simd::EdgeTri tri{};
    tri.ax = 2.0f;
    tri.ay = 3.0f;
    tri.bx = 61.0f;
    tri.by = 9.0f;
    tri.cx = 24.0f;
    tri.cy = 60.0f;
    float area2 = (tri.bx - tri.ax) * (tri.cy - tri.ay) -
        (tri.by - tri.ay) * (tri.cx - tri.ax);
    tri.inv_area = 1.0f / area2;
    tri.z0 = 0.25f;
    tri.z1 = 0.5f;
    tri.z2 = 0.75f;
    tri.iw0 = 1.0f;
    tri.iw1 = 0.5f;
    tri.iw2 = 0.25f;
    tri.uw0 = 0.0f;
    tri.uw1 = 0.5f;
    tri.uw2 = 0.0f;
    tri.vw0 = 0.0f;
    tri.vw1 = 0.0f;
    tri.vw2 = 0.25f;

    std::uint64_t quads = 0;
    for (auto _ : state) {
        unsigned covered = 0;
        for (int qy = 0; qy < kH; qy += 2)
            for (int qx = 0; qx < kW; qx += 2) {
                simd::EdgeQuadOut out;
                ops.edge_quad(tri, qx, qy, 0, 0, kW - 1, kH - 1, out);
                covered += out.coverage;
            }
        benchmark::DoNotOptimize(covered);
        quads += (kW / 2) * (kH / 2);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(quads));
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_EdgeQuad)->Arg(0)->Arg(2);

/**
 * Framebuffer fill kernels: clear one 256x256 color plane and its depth
 * plane per iteration.
 */
void
BM_FbClear(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kPixels = 256 * 256;
    static std::vector<float> color(static_cast<std::size_t>(kPixels) *
                                    4);
    static std::vector<float> depth(kPixels);
    const float rgba[4] = {0.1f, 0.2f, 0.3f, 1.0f};

    for (auto _ : state) {
        ops.fill_color(color.data(), kPixels, rgba);
        ops.fill_depth(depth.data(), kPixels, 1.0f);
        benchmark::DoNotOptimize(color.data());
        benchmark::DoNotOptimize(depth.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kPixels);
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
// Scalar only: every tier dispatches the scalar fills (avx2Kernels()).
BENCHMARK(BM_FbClear)->Arg(0);

/**
 * Tier head-to-head for the SSIM separable-blur row kernel: one
 * 256-wide horizontal pass (the shape the quality gate runs per image
 * row, twice per SSIM map).
 */
void
BM_SsimRow(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kWidth = 256, kTaps = 11;
    static std::vector<float> src(kWidth + kTaps);
    static std::vector<float> out(kWidth);
    SplitMix64 rng(29);
    for (float &v : src)
        v = rng.nextFloat();
    float k[kTaps];
    float wsum = 0.0f;
    for (int t = 0; t < kTaps; ++t) {
        k[t] = 1.0f + 0.1f * t;
        wsum += k[t];
    }

    for (auto _ : state) {
        ops.ssim_row(src.data(), out.data(), kWidth, 1, k, kTaps, wsum);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWidth);
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_SsimRow)->Arg(0)->Arg(2);

} // namespace

BENCHMARK_MAIN();
