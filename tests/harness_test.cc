/**
 * @file
 * Unit tests for the experiment runner (src/harness).
 */

#include <gtest/gtest.h>

#include "harness/session.hh"

using namespace pargpu;

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 160, 120, 2);
    return t;
}

} // namespace

TEST(HarnessTest, MakeGpuConfigTransfersKnobs)
{
    RunConfig cfg;
    cfg.scenario = DesignScenario::AfSsimNTxds;
    cfg.threshold = 0.7f;
    cfg.tc_scale = 2;
    cfg.llc_scale = 4;
    cfg.max_aniso = 8;
    GpuConfig g = makeGpuConfig(cfg);
    EXPECT_EQ(g.patu.scenario, DesignScenario::AfSsimNTxds);
    EXPECT_FLOAT_EQ(g.patu.threshold, 0.7f);
    EXPECT_EQ(g.mem.tc_scale, 2u);
    EXPECT_EQ(g.mem.llc_scale, 4u);
    EXPECT_EQ(g.max_aniso, 8);
    EXPECT_EQ(g.patu.max_aniso, 8);
}

TEST(HarnessTest, RunProducesOneResultPerFrame)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    RunResult r = session.run(tinyTrace(), cfg);
    EXPECT_EQ(r.frames.size(), 2u);
    EXPECT_EQ(r.images.size(), 2u);
    EXPECT_GT(r.avg_cycles, 0.0);
    EXPECT_GT(r.total_energy_nj, 0.0);
    EXPECT_GT(r.avg_power_w, 0.0);
}

TEST(HarnessTest, KeepImagesFalseSkipsImages)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    cfg.keep_images = false;
    RunResult r = session.run(tinyTrace(), cfg);
    EXPECT_TRUE(r.images.empty());
    EXPECT_EQ(r.frames.size(), 2u);
}

TEST(HarnessTest, FrameCyclesMatchesStats)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    RunResult r = session.run(tinyTrace(), cfg);
    std::vector<Cycle> c = frameCycles(r);
    ASSERT_EQ(c.size(), r.frames.size());
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c[i], r.frames[i].total_cycles);
}

TEST(HarnessTest, SumOverAccumulatesField)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    RunResult r = session.run(tinyTrace(), cfg);
    double total = sumOver(r.frames, &FrameStats::pixels_shaded);
    double manual = 0.0;
    for (const FrameStats &f : r.frames)
        manual += static_cast<double>(f.pixels_shaded);
    EXPECT_DOUBLE_EQ(total, manual);
    EXPECT_GT(total, 0.0);
}

TEST(HarnessTest, MssimAgainstSelfIsOne)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    RunResult r = session.run(tinyTrace(), cfg);
    EXPECT_NEAR(r.mssimAgainst(r.images), 1.0, 1e-9);
}

TEST(HarnessDeathTest, MssimWithoutImagesFatal)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    cfg.keep_images = false;
    RunResult r = session.run(tinyTrace(), cfg);
    RunResult ref = session.run(tinyTrace(), RunConfig{});
    EXPECT_EXIT(r.mssimAgainst(ref.images), testing::ExitedWithCode(1),
                "unavailable");
}

TEST(HarnessTest, RunsAreReproducible)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    RunResult a = session.run(tinyTrace(), cfg);
    RunResult b = session.run(tinyTrace(), cfg);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        EXPECT_EQ(a.frames[i].total_cycles, b.frames[i].total_cycles);
        EXPECT_EQ(a.frames[i].texels, b.frames[i].texels);
    }
    EXPECT_DOUBLE_EQ(a.total_energy_nj, b.total_energy_nj);
}
