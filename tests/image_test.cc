/**
 * @file
 * Unit tests for the Image class and PPM I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/image.hh"

using namespace pargpu;

TEST(ImageTest, ConstructionFillsWithColor)
{
    Image img(4, 3, Color4f{0.5f, 0.25f, 0.75f, 1.0f});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_FALSE(img.empty());
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 4; ++x) {
            EXPECT_FLOAT_EQ(img.at(x, y).r, 0.5f);
            EXPECT_FLOAT_EQ(img.at(x, y).g, 0.25f);
        }
    }
}

TEST(ImageTest, AdoptsPixelVector)
{
    std::vector<Color4f> px;
    for (int i = 0; i < 6; ++i)
        px.push_back(Color4f{0.1f * i, 0.5f, 0.25f, 1.0f});
    Image img(3, 2, px);
    EXPECT_EQ(img.width(), 3);
    EXPECT_EQ(img.height(), 2);
    ASSERT_EQ(img.pixels().size(), px.size());
    for (std::size_t i = 0; i < px.size(); ++i)
        EXPECT_EQ(img.pixels()[i].r, px[i].r);
    EXPECT_EQ(img.at(2, 1).r, px[5].r);
}

TEST(ImageDeathTest, AdoptRejectsWrongPixelCount)
{
    EXPECT_EXIT(Image(3, 2, std::vector<Color4f>(5)),
                testing::ExitedWithCode(1), "does not match");
}

TEST(ImageTest, DefaultImageIsEmpty)
{
    Image img;
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.width(), 0);
}

TEST(ImageTest, PixelWritesStick)
{
    Image img(2, 2);
    img.at(1, 0) = Color4f{1, 0, 0, 1};
    EXPECT_FLOAT_EQ(img.at(1, 0).r, 1.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0).r, 0.0f);
}

TEST(ImageTest, LumaPlaneMatchesPerPixelLuma)
{
    Image img(2, 1);
    img.at(0, 0) = Color4f{1, 0, 0, 1};
    img.at(1, 0) = Color4f{0, 1, 0, 1};
    std::vector<float> luma = img.lumaPlane();
    ASSERT_EQ(luma.size(), 2u);
    EXPECT_NEAR(luma[0], 0.299f, 1e-6f);
    EXPECT_NEAR(luma[1], 0.587f, 1e-6f);
}

TEST(ImageTest, PpmRoundTrip)
{
    Image img(8, 5);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 8; ++x)
            img.at(x, y) = Color4f{x / 8.0f, y / 5.0f, 0.5f, 1.0f};

    const std::string path = "image_test_roundtrip.ppm";
    ASSERT_TRUE(img.writePPM(path));
    Image back = Image::readPPM(path);
    std::remove(path.c_str());

    ASSERT_FALSE(back.empty());
    ASSERT_EQ(back.width(), 8);
    ASSERT_EQ(back.height(), 5);
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 8; ++x) {
            // 8-bit quantization error bound.
            EXPECT_NEAR(back.at(x, y).r, img.at(x, y).r, 1.0f / 255.0f);
            EXPECT_NEAR(back.at(x, y).g, img.at(x, y).g, 1.0f / 255.0f);
            EXPECT_NEAR(back.at(x, y).b, img.at(x, y).b, 1.0f / 255.0f);
        }
    }
}

TEST(ImageTest, ReadMissingFileReturnsEmpty)
{
    Image img = Image::readPPM("/definitely/not/a/file.ppm");
    EXPECT_TRUE(img.empty());
}

TEST(ImageTest, ReadRejectsNonPpm)
{
    const std::string path = "image_test_garbage.ppm";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a ppm at all", f);
    std::fclose(f);
    Image img = Image::readPPM(path);
    std::remove(path.c_str());
    EXPECT_TRUE(img.empty());
}

namespace
{

/** Write @p bytes to @p path and read it back as a PPM. */
Image
readPpmBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr)
        return {};
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    Image img = Image::readPPM(path);
    std::remove(path.c_str());
    return img;
}

} // namespace

// A header claiming more pixels than the file holds is rejected before
// anything is allocated (2e9 x 2e9 would not fit in memory).
TEST(ImageTest, ReadRejectsHeaderLargerThanFile)
{
    Image img = readPpmBytes("image_test_huge.ppm",
                             "P6\n2000000000 2000000000\n255\n");
    EXPECT_TRUE(img.empty());
}

// Header numbers must be whole tokens: "4x" is not a width of 4, even
// when the file carries exactly the pixel bytes a 4x2 image needs.
TEST(ImageTest, ReadRejectsTrailingJunkInHeaderNumber)
{
    Image img = readPpmBytes("image_test_junk.ppm",
                             "P6\n4x 2\n255\n" + std::string(4 * 2 * 3, 'a'));
    EXPECT_TRUE(img.empty());
}
