/**
 * @file
 * Timing-model invariant tests: the structural relations every experiment
 * relies on, checked on a small controlled workload so they run fast.
 */

#include <gtest/gtest.h>

#include "harness/session.hh"

using namespace pargpu;

namespace
{

const GameTrace &
trace()
{
    static GameTrace t = buildGameTrace(GameId::Grid, 320, 256, 1);
    return t;
}

double
cyclesAt(DesignScenario s, float threshold)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = s;
    cfg.threshold = threshold;
    cfg.keep_images = false;
    return session.run(trace(), cfg).avg_cycles;
}

FrameStats
statsAt(DesignScenario s, float threshold = 0.4f)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = s;
    cfg.threshold = threshold;
    cfg.keep_images = false;
    return session.run(trace(), cfg).frames[0];
}

} // namespace

TEST(TimingInvariantsTest, ScenarioOrderingOnCycles)
{
    double base = cyclesAt(DesignScenario::Baseline, 0.4f);
    double n_only = cyclesAt(DesignScenario::AfSsimN, 0.4f);
    double n_txds = cyclesAt(DesignScenario::AfSsimNTxds, 0.4f);
    double noaf = cyclesAt(DesignScenario::NoAF, 0.4f);
    // Each added mechanism may only remove work.
    EXPECT_LE(n_only, base * 1.001);
    EXPECT_LE(n_txds, n_only * 1.001);
    EXPECT_LE(noaf, n_txds * 1.001);
}

TEST(TimingInvariantsTest, ThresholdMonotoneInCycles)
{
    // More aggressive thresholds can only reduce frame time (modulo the
    // small stage-2 addressing overhead; allow 2 % slack).
    double prev = 0.0;
    for (float t : {0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 1.0f}) {
        double c = cyclesAt(DesignScenario::Patu, t);
        if (prev > 0.0) {
            EXPECT_GE(c, prev * 0.98) << "threshold " << t;
        }
        prev = c;
    }
}

TEST(TimingInvariantsTest, ThresholdEndpointsMatchForcedScenarios)
{
    // Threshold 0 approximates everything (work == NoAF modulo the
    // prediction flow's bookkeeping); threshold 1 keeps all AF samples.
    FrameStats patu0 = statsAt(DesignScenario::Patu, 0.0f);
    FrameStats noaf = statsAt(DesignScenario::NoAF);
    EXPECT_EQ(patu0.trilinear_samples, noaf.trilinear_samples);

    FrameStats patu1 = statsAt(DesignScenario::Patu, 1.0f);
    FrameStats base = statsAt(DesignScenario::Baseline);
    EXPECT_EQ(patu1.trilinear_samples, base.trilinear_samples);
}

TEST(TimingInvariantsTest, FilterCyclesAreWithinFragmentPhaseScale)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    // Texture busy time is distributed over 4 TUs; the fragment phase is
    // the max cluster, so per-cluster texture time must not exceed it.
    EXPECT_LE(f.texture_filter_cycles / 4, f.fragment_cycles);
    EXPECT_GT(f.texture_filter_cycles, 0u);
}

TEST(TimingInvariantsTest, TotalIsGeometryPlusFragment)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    EXPECT_EQ(f.total_cycles, f.geometry_cycles + f.fragment_cycles);
}

TEST(TimingInvariantsTest, DecisionCountsPartitionAfCandidates)
{
    FrameStats f = statsAt(DesignScenario::Patu);
    // Every anisotropic-path pixel lands in exactly one decision bucket.
    EXPECT_EQ(f.trivial_tf + f.approx_stage1 + f.approx_stage2 +
                  f.full_af,
              f.pixels_shaded);
}

TEST(TimingInvariantsTest, TexelsAreEightPerTrilinearSample)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    EXPECT_EQ(f.texels, f.trilinear_samples * 8);
}

TEST(TimingInvariantsTest, NoAfFetchesExactlyOneSamplePerPixel)
{
    FrameStats f = statsAt(DesignScenario::NoAF);
    EXPECT_EQ(f.trilinear_samples, f.pixels_shaded);
}

TEST(TimingInvariantsTest, BaselineSamplesMatchAnisotropyDegrees)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    // Baseline AF fetches >= 1 sample per pixel, more where anisotropic.
    EXPECT_GE(f.trilinear_samples, f.pixels_shaded);
    EXPECT_GT(f.af_candidate_pixels, 0u);
}

TEST(TimingInvariantsTest, MemStallNeverExceedsFilterBusy)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    EXPECT_LE(f.texture_mem_stall, f.texture_filter_cycles);
}

TEST(TimingInvariantsTest, CacheAccountingConsistent)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    // Every LLC access originates from an L1 texture miss or a non-
    // texture read; with this trace (textures dominate) the LLC access
    // count can never exceed L1 misses plus geometry reads.
    std::uint64_t geometry_reads = f.traffic_geometry / 64 + 64;
    EXPECT_LE(f.llc_hits + f.llc_misses, f.l1_misses + geometry_reads);
    // DRAM reads == LLC misses.
    EXPECT_EQ(f.dram_reads, f.llc_misses);
}

TEST(TimingInvariantsTest, TrafficMatchesDramLineReadsPlusWrites)
{
    FrameStats f = statsAt(DesignScenario::Baseline);
    Bytes read_bytes = static_cast<Bytes>(f.dram_reads) * 64;
    EXPECT_LE(read_bytes, f.totalTraffic());
}
