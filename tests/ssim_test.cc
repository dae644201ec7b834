/**
 * @file
 * Unit tests for the SSIM quality layer (Eq. 1-2 of the paper).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "harness/session.hh"
#include "quality/ssim.hh"

using namespace pargpu;

namespace
{

Image
noiseImage(int w, int h, std::uint64_t seed)
{
    Image img(w, h);
    SplitMix64 rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            float v = rng.nextFloat();
            img.at(x, y) = Color4f{v, v, v, 1.0f};
        }
    }
    return img;
}

Image
gradientImage(int w, int h)
{
    Image img(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.at(x, y) = Color4f{x / static_cast<float>(w),
                                   y / static_cast<float>(h), 0.5f, 1.0f};
    return img;
}

/** 64-bit FNV-1a over the bit patterns of an SSIM map. */
std::uint64_t
mapHash(const std::vector<float> &map)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (float v : map) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
        for (int i = 0; i < 4; ++i) {
            h ^= (bits >> (8 * i)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    }
    return h;
}

/** Frame 0 of a small HL2 trace rendered under @p scenario. */
Image
renderedFrame(DesignScenario scenario)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = scenario;
    cfg.threads = 1;
    return session.run(buildGameTrace(GameId::HL2, 96, 80, 1), cfg)
        .images.at(0);
}

/**
 * Pins mssim() to an exact bit pattern and ssimMap() to an exact hash,
 * and checks mssim() is mssimOfMap() of the map bit for bit.
 */
void
expectPinned(const Image &x, const Image &y, std::uint64_t mssim_bits,
             std::uint64_t map_hash)
{
    const std::vector<float> map = ssimMap(x, y);
    const double m = mssim(x, y);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m),
              std::bit_cast<std::uint64_t>(mssimOfMap(map)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m), mssim_bits) << m;
    EXPECT_EQ(mapHash(map), map_hash);
}

} // namespace

TEST(SsimPinned, RenderedBaselineVsPatu)
{
    expectPinned(renderedFrame(DesignScenario::Baseline),
                 renderedFrame(DesignScenario::Patu),
                 0x3FEFFC4413C77777ull, 0x8AF9962D2B99FF5Aull);
}

TEST(SsimPinned, NoisePairOddSize)
{
    expectPinned(noiseImage(97, 61, 31), noiseImage(97, 61, 32),
                 0x3F99727F7D96D3EAull, 0x96FE185673E9F4E6ull);
}

TEST(SsimPinned, PairSmallerThanWindow)
{
    // 5x3 truncates the 11-tap window on both axes at every pixel.
    expectPinned(noiseImage(5, 3, 41), gradientImage(5, 3),
                 0xBF81D52442222222ull, 0x2823E0E7AED734FFull);
}

TEST(SsimPinned, TallAndWidePairs)
{
    // One row and one column: the vertical (resp. horizontal) window
    // holds a single tap.
    expectPinned(noiseImage(40, 1, 51), noiseImage(40, 1, 52),
                 0xBFD076B1F2C66666ull, 0x9DB146BB84C2FFB5ull);
    expectPinned(noiseImage(1, 40, 53), noiseImage(1, 40, 54),
                 0x3FC44D8D87B33333ull, 0xE4105BAA2362DFE4ull);
}

TEST(SsimTest, IdenticalImagesScoreOne)
{
    Image a = noiseImage(64, 48, 1);
    EXPECT_NEAR(mssim(a, a), 1.0, 1e-6);
}

TEST(SsimTest, SymmetricInArguments)
{
    Image a = noiseImage(48, 48, 1);
    Image b = noiseImage(48, 48, 2);
    EXPECT_NEAR(mssim(a, b), mssim(b, a), 1e-9);
}

TEST(SsimTest, BoundedAboveByOne)
{
    Image a = gradientImage(64, 64);
    Image b = noiseImage(64, 64, 3);
    double v = mssim(a, b);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, -1.0);
}

TEST(SsimTest, IndependentNoiseScoresLow)
{
    Image a = noiseImage(96, 96, 10);
    Image b = noiseImage(96, 96, 20);
    EXPECT_LT(mssim(a, b), 0.2);
}

TEST(SsimTest, SmallDistortionScoresHigherThanLarge)
{
    Image ref = gradientImage(64, 64);
    Image small_d = ref, large_d = ref;
    SplitMix64 rng(5);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            float n = rng.nextFloat() - 0.5f;
            Color4f &s = small_d.at(x, y);
            s.r = std::clamp(s.r + 0.02f * n, 0.0f, 1.0f);
            Color4f &l = large_d.at(x, y);
            l.r = std::clamp(l.r + 0.4f * n, 0.0f, 1.0f);
        }
    }
    EXPECT_GT(mssim(ref, small_d), mssim(ref, large_d));
}

TEST(SsimTest, BlurredImageScoresBelowIdentical)
{
    // Blurring is exactly the artifact disabling AF introduces; SSIM must
    // see it.
    Image ref = noiseImage(64, 64, 7);
    Image blur(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            Color4f acc{0, 0, 0, 0};
            int cnt = 0;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    int sx = std::clamp(x + dx, 0, 63);
                    int sy = std::clamp(y + dy, 0, 63);
                    acc += ref.at(sx, sy);
                    ++cnt;
                }
            }
            blur.at(x, y) = acc * (1.0f / cnt);
        }
    }
    double v = mssim(ref, blur);
    EXPECT_LT(v, 0.9);
    EXPECT_GT(v, 0.0);
}

TEST(SsimTest, MapHasOneValuePerPixel)
{
    Image a = noiseImage(32, 24, 1);
    Image b = noiseImage(32, 24, 2);
    std::vector<float> map = ssimMap(a, b);
    EXPECT_EQ(map.size(), 32u * 24u);
}

TEST(SsimTest, MapLocalizesDistortion)
{
    // Distort only the right half; the left half's SSIM stays near 1.
    Image a = gradientImage(64, 64);
    Image b = a;
    SplitMix64 rng(9);
    for (int y = 0; y < 64; ++y) {
        for (int x = 32; x < 64; ++x) {
            b.at(x, y).r =
                std::clamp(b.at(x, y).r + rng.nextFloat() - 0.5f,
                           0.0f, 1.0f);
        }
    }
    std::vector<float> map = ssimMap(a, b);
    double left = 0.0, right = 0.0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 20; ++x)
            left += map[y * 64 + x];
        for (int x = 44; x < 64; ++x)
            right += map[y * 64 + x];
    }
    EXPECT_GT(left / (64 * 20), right / (64 * 20) + 0.2);
}

TEST(SsimTest, MssimOfMapAveragesCorrectly)
{
    EXPECT_DOUBLE_EQ(mssimOfMap({1.0f, 0.5f, 0.0f}),
                     0.5);
    EXPECT_DOUBLE_EQ(mssimOfMap({}), 0.0);
}

TEST(SsimTest, MapImageIsLighterWhereSimilar)
{
    std::vector<float> map = {1.0f, 0.0f};
    Image vis = ssimMapImage(map, 2, 1);
    EXPECT_GT(vis.at(0, 0).r, vis.at(1, 0).r);
}

TEST(SsimDeathTest, MismatchedDimensionsFatal)
{
    Image a(8, 8), b(8, 4);
    EXPECT_EXIT(mssim(a, b), testing::ExitedWithCode(1), "differ");
}

TEST(SsimDeathTest, EvenWindowRejected)
{
    Image a(8, 8), b(8, 8);
    SsimParams p;
    p.window = 10;
    EXPECT_EXIT(ssimMap(a, b, p), testing::ExitedWithCode(1), "odd");
}

TEST(MseTest, ZeroForIdentical)
{
    Image a = noiseImage(16, 16, 1);
    EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

TEST(MseTest, KnownDifference)
{
    Image a(4, 4, Color4f{0, 0, 0, 1});
    Image b(4, 4, Color4f{1, 1, 1, 1});
    // Luma difference is 1 everywhere.
    EXPECT_NEAR(mse(a, b), 1.0, 1e-6);
}

TEST(PsnrTest, InfiniteForIdentical)
{
    Image a = gradientImage(16, 16);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(PsnrTest, HigherForSmallerError)
{
    Image ref(16, 16, Color4f{0.5f, 0.5f, 0.5f, 1});
    Image near_img = ref;
    Image far_img = ref;
    near_img.at(0, 0).r = 0.6f;
    far_img.at(0, 0).r = 1.0f;
    EXPECT_GT(psnr(ref, near_img), psnr(ref, far_img));
}
