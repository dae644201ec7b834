/**
 * @file
 * Unit tests for the color/depth framebuffer.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/framebuffer.hh"

using namespace pargpu;

TEST(FramebufferTest, ClearSetsColorEverywhere)
{
    Framebuffer fb(8, 6);
    fb.clear({0.1f, 0.2f, 0.3f, 1.0f});
    for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 8; ++x) {
            EXPECT_FLOAT_EQ(fb.colorAt(x, y).r, 0.1f);
            EXPECT_FLOAT_EQ(fb.colorAt(x, y).b, 0.3f);
        }
    }
}

TEST(FramebufferTest, DepthTestPassesNearerFragment)
{
    Framebuffer fb(4, 4);
    fb.clear({0, 0, 0, 1});
    EXPECT_TRUE(fb.depthTest(1, 1, 0.5f));
    EXPECT_TRUE(fb.depthTest(1, 1, 0.3f));  // Nearer: passes.
    EXPECT_FALSE(fb.depthTest(1, 1, 0.4f)); // Farther: fails.
    EXPECT_FLOAT_EQ(fb.depthAt(1, 1), 0.3f);
}

TEST(FramebufferTest, DepthTestIndependentPerPixel)
{
    Framebuffer fb(4, 4);
    fb.clear({0, 0, 0, 1});
    EXPECT_TRUE(fb.depthTest(0, 0, 0.1f));
    EXPECT_TRUE(fb.depthTest(3, 3, 0.9f));
    EXPECT_FLOAT_EQ(fb.depthAt(0, 0), 0.1f);
    EXPECT_FLOAT_EQ(fb.depthAt(3, 3), 0.9f);
}

TEST(FramebufferTest, ClearResetsDepth)
{
    Framebuffer fb(2, 2);
    fb.clear({0, 0, 0, 1});
    fb.depthTest(0, 0, 0.2f);
    fb.clear({0, 0, 0, 1});
    // After clear, even a far fragment passes again.
    EXPECT_TRUE(fb.depthTest(0, 0, 0.99f));
}

TEST(FramebufferTest, WriteColorSticks)
{
    Framebuffer fb(4, 4);
    fb.clear({0, 0, 0, 1});
    fb.writeColor(2, 3, {1, 0.5f, 0.25f, 1});
    EXPECT_FLOAT_EQ(fb.colorAt(2, 3).r, 1.0f);
    EXPECT_FLOAT_EQ(fb.colorAt(2, 3).g, 0.5f);
}

TEST(FramebufferTest, ArenaBackedBehavesLikeOwning)
{
    BumpArena arena;
    Framebuffer fb(8, 6, arena);
    fb.clear({0.25f, 0, 0, 1});
    EXPECT_TRUE(fb.depthTest(3, 2, 0.5f));
    EXPECT_FALSE(fb.depthTest(3, 2, 0.6f));
    fb.writeColor(3, 2, {1, 1, 1, 1});
    EXPECT_FLOAT_EQ(fb.colorAt(3, 2).r, 1.0f);
    EXPECT_FLOAT_EQ(fb.colorAt(0, 0).r, 0.25f);
    Image img = fb.toImage();
    EXPECT_FLOAT_EQ(img.at(3, 2).r, 1.0f);
    EXPECT_FLOAT_EQ(img.at(7, 5).r, 0.25f);
}

TEST(FramebufferTest, ToImageCopiesEveryPixelBitwise)
{
    BumpArena arena;
    Framebuffer fb(7, 5, arena);
    fb.clear({0.25f, 0.5f, 0.75f, 1.0f});
    for (int y = 0; y < 5; y += 2)
        for (int x = 0; x < 7; x += 3)
            fb.writeColor(x, y, {x / 7.0f, y / 5.0f, 0.125f, 0.5f});
    const Image img = fb.toImage();
    ASSERT_EQ(img.width(), 7);
    ASSERT_EQ(img.height(), 5);
    ASSERT_EQ(img.pixels().size(), 35u);
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 7; ++x) {
            const Color4f a = img.at(x, y), b = fb.colorAt(x, y);
            EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << x << "," << y;
        }
    }
}

TEST(FramebufferTest, PixelAddressesAreDistinctAndOrdered)
{
    Framebuffer fb(16, 16);
    Addr a = fb.pixelAddr(0, 0);
    Addr b = fb.pixelAddr(1, 0);
    Addr c = fb.pixelAddr(0, 1);
    EXPECT_EQ(b - a, 4u);
    EXPECT_EQ(c - a, 16u * 4);
}
