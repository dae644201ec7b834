/**
 * @file
 * Unit tests for trace serialization (capture/replay round trip).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/trace.hh"

using namespace pargpu;

namespace
{

class TraceRoundTrip : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::remove(path.c_str());
    }

    std::string path = "trace_test.pgtrace";
};

} // namespace

TEST_F(TraceRoundTrip, PreservesStructure)
{
    GameTrace original = buildGameTrace(GameId::Wolf, 320, 240, 2);
    ASSERT_TRUE(writeTrace(original, path));

    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.id, original.id);
    EXPECT_EQ(loaded.width, original.width);
    EXPECT_EQ(loaded.height, original.height);
    EXPECT_EQ(loaded.scene.draws.size(), original.scene.draws.size());
    EXPECT_EQ(loaded.scene.textures.size(),
              original.scene.textures.size());
    EXPECT_EQ(loaded.cameras.size(), original.cameras.size());
    EXPECT_EQ(loaded.recipes.size(), original.recipes.size());
}

TEST_F(TraceRoundTrip, PreservesVertexData)
{
    GameTrace original = buildGameTrace(GameId::Ut3, 320, 240, 1);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    for (std::size_t d = 0; d < original.scene.draws.size(); ++d) {
        const Mesh &om = original.scene.draws[d].mesh;
        const Mesh &lm = loaded.scene.draws[d].mesh;
        ASSERT_EQ(om.vertices.size(), lm.vertices.size());
        ASSERT_EQ(om.indices.size(), lm.indices.size());
        for (std::size_t v = 0; v < om.vertices.size(); ++v) {
            EXPECT_FLOAT_EQ(om.vertices[v].pos.x, lm.vertices[v].pos.x);
            EXPECT_FLOAT_EQ(om.vertices[v].pos.z, lm.vertices[v].pos.z);
            EXPECT_FLOAT_EQ(om.vertices[v].uv.x, lm.vertices[v].uv.x);
        }
        EXPECT_EQ(om.texture_id, lm.texture_id);
        EXPECT_EQ(original.scene.draws[d].filter,
                  loaded.scene.draws[d].filter);
        EXPECT_EQ(original.scene.draws[d].backface_cull,
                  loaded.scene.draws[d].backface_cull);
        EXPECT_EQ(original.scene.draws[d].specular,
                  loaded.scene.draws[d].specular);
    }
}

TEST_F(TraceRoundTrip, RegeneratesIdenticalTextures)
{
    GameTrace original = buildGameTrace(GameId::Doom3, 320, 240, 1);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);

    for (std::size_t t = 0; t < original.scene.textures.size(); ++t) {
        const TextureMap &ot = *original.scene.textures[t];
        const TextureMap &lt = *loaded.scene.textures[t];
        ASSERT_EQ(ot.width(), lt.width());
        EXPECT_EQ(ot.baseAddr(), lt.baseAddr());
        // Spot-check texel content equality.
        const MipLevel &ol = ot.level(0);
        const MipLevel &ll = lt.level(0);
        for (int i = 0; i < ol.width; i += 7) {
            EXPECT_EQ(ol.at(i, i).r, ll.at(i, i).r);
            EXPECT_EQ(ol.at(i, i).g, ll.at(i, i).g);
        }
    }
}

TEST_F(TraceRoundTrip, PreservesCameras)
{
    GameTrace original = buildGameTrace(GameId::Grid, 320, 240, 3);
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    ASSERT_TRUE(ok);
    for (std::size_t i = 0; i < original.cameras.size(); ++i) {
        EXPECT_FLOAT_EQ(original.cameras[i].eye.x, loaded.cameras[i].eye.x);
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r) {
                EXPECT_FLOAT_EQ(original.cameras[i].view.m[c][r],
                                loaded.cameras[i].view.m[c][r]);
                EXPECT_FLOAT_EQ(original.cameras[i].proj.m[c][r],
                                loaded.cameras[i].proj.m[c][r]);
            }
        }
    }
}

TEST(TraceErrorTest, MissingFileFails)
{
    bool ok = true;
    readTrace("/no/such/file.pgtrace", ok);
    EXPECT_FALSE(ok);
}

TEST(TraceErrorTest, OutOfRangeViewportFails)
{
    const std::string path = "trace_test_viewport.pgtrace";
    GameTrace original = buildGameTrace(GameId::Wolf, 64, 48, 1);
    original.width = 100000;
    ASSERT_TRUE(writeTrace(original, path));
    bool ok = true;
    readTrace(path, ok);
    std::remove(path.c_str());
    EXPECT_FALSE(ok);
}

TEST(TraceErrorTest, GarbageFileFails)
{
    const std::string path = "trace_test_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    bool ok = true;
    readTrace(path, ok);
    std::remove(path.c_str());
    EXPECT_FALSE(ok);
}

TEST(TraceErrorTest, TruncatedFileFails)
{
    GameTrace original = buildGameTrace(GameId::Wolf, 320, 240, 1);
    const std::string full = "trace_test_full.pgtrace";
    const std::string cut = "trace_test_cut.pgtrace";
    ASSERT_TRUE(writeTrace(original, full));

    // Copy the first 100 bytes only.
    std::FILE *in = std::fopen(full.c_str(), "rb");
    std::FILE *out = std::fopen(cut.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    char buf[100];
    std::size_t n = std::fread(buf, 1, sizeof(buf), in);
    std::fwrite(buf, 1, n, out);
    std::fclose(in);
    std::fclose(out);

    bool ok = true;
    readTrace(cut, ok);
    EXPECT_FALSE(ok);
    std::remove(full.c_str());
    std::remove(cut.c_str());
}
