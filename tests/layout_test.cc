/**
 * @file
 * Layout-equivalence guarantee of the texel hot path: host-side Morton
 * texel storage must fetch exactly what the row-major reference fetches,
 * texel for texel and footprint for footprint, because storage only
 * reorders the host array — simulated texel addresses come from
 * TexelLayout, which is part of the modeled machine. Rendering always
 * uses Morton storage, so per-fetch equivalence is the whole guarantee.
 */

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "texture/texture.hh"

using namespace pargpu;

namespace
{

std::vector<RGBA8>
ramp(int w, int h)
{
    std::vector<RGBA8> t;
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            t.push_back({static_cast<std::uint8_t>((x * 13 + y) & 0xff),
                         static_cast<std::uint8_t>((y * 7 + x) & 0xff),
                         static_cast<std::uint8_t>((x ^ y) & 0xff), 255});
    return t;
}

} // namespace

TEST(MortonLayoutTest, IndexIsAPermutation)
{
    MipLevel lv;
    lv.width = 8;
    lv.height = 8;
    lv.storage = TexelStorage::Morton;
    std::set<std::size_t> seen;
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            seen.insert(lv.index(x, y));
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 63u);
}

TEST(MortonLayoutTest, InTileOrderInterleavesBits)
{
    // Z-order within a 4x4 tile: index = x0 y0 x1 y1 bit-interleaved.
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) {
            int expect = (x & 1) | ((y & 1) << 1) | ((x & 2) << 1) |
                ((y & 2) << 2);
            EXPECT_EQ(kMortonInTile4x4[(y << 2) | x], expect)
                << "x=" << x << " y=" << y;
        }
}

TEST(MortonLayoutTest, SubTileLevelsFallBackToRowMajor)
{
    MipLevel lv;
    lv.width = 2;
    lv.height = 2;
    lv.storage = TexelStorage::Morton;
    EXPECT_EQ(lv.index(0, 0), 0u);
    EXPECT_EQ(lv.index(1, 0), 1u);
    EXPECT_EQ(lv.index(0, 1), 2u);
    EXPECT_EQ(lv.index(1, 1), 3u);
}

TEST(MortonLayoutTest, TileContiguousInHostMemory)
{
    // All 16 texels of a 4x4 tile land in one contiguous 16-entry span.
    MipLevel lv;
    lv.width = 16;
    lv.height = 16;
    lv.storage = TexelStorage::Morton;
    for (int ty = 0; ty < 4; ++ty)
        for (int tx = 0; tx < 4; ++tx) {
            std::size_t lo = lv.index(tx * 4, ty * 4);
            for (int y = 0; y < 4; ++y)
                for (int x = 0; x < 4; ++x) {
                    std::size_t i = lv.index(tx * 4 + x, ty * 4 + y);
                    EXPECT_GE(i, lo);
                    EXPECT_LT(i, lo + 16);
                }
        }
}

TEST(LayoutEquivalenceTest, FetchesMatchAcrossStorageModes)
{
    const int w = 32, h = 16;
    TextureMap lin(w, h, ramp(w, h), WrapMode::Repeat, TexelLayout::Tiled4x4,
                   StorageFormat::RGBA8, TexelStorage::Linear);
    TextureMap mor(w, h, ramp(w, h), WrapMode::Repeat, TexelLayout::Tiled4x4,
                   StorageFormat::RGBA8, TexelStorage::Morton);
    ASSERT_EQ(lin.numLevels(), mor.numLevels());
    for (int l = 0; l < lin.numLevels(); ++l) {
        const int lw = lin.level(l).width, lh = lin.level(l).height;
        // Out-of-range coordinates included: wrapping must agree too.
        for (int y = -2; y < lh + 2; ++y)
            for (int x = -2; x < lw + 2; ++x) {
                EXPECT_EQ(lin.texelAddr(l, x, y), mor.texelAddr(l, x, y));
                Color4f a = lin.fetchTexel(l, x, y);
                Color4f b = mor.fetchTexel(l, x, y);
                EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
            }
    }
}

TEST(LayoutEquivalenceTest, FootprintMatchesScalarFetches)
{
    const int w = 16, h = 16;
    TextureMap tex(w, h, ramp(w, h), WrapMode::Repeat, TexelLayout::Tiled4x4,
                   StorageFormat::RGBA8, TexelStorage::Morton);
    for (int l = 0; l < tex.numLevels(); ++l) {
        const int lw = tex.level(l).width, lh = tex.level(l).height;
        for (int y0 = -1; y0 < lh; ++y0)
            for (int x0 = -1; x0 < lw; ++x0) {
                Color4f color[4];
                Addr addr[4];
                tex.fetchFootprint(l, x0, y0, color, addr);
                const int dx[4] = {0, 1, 0, 1};
                const int dy[4] = {0, 0, 1, 1};
                for (int i = 0; i < 4; ++i) {
                    Color4f want = tex.fetchTexel(l, x0 + dx[i], y0 + dy[i]);
                    EXPECT_EQ(addr[i], tex.texelAddr(l, x0 + dx[i],
                                                     y0 + dy[i]));
                    EXPECT_EQ(std::memcmp(&color[i], &want, sizeof want), 0);
                }
            }
    }
}
