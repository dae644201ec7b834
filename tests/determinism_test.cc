/**
 * @file
 * Determinism guarantee of the parallel execution engine: Session::run()
 * with N threads must produce bit-identical FrameStats, images and
 * aggregates to the 1-thread run, Session::sweep() must equal per-config
 * Session::run(), the parallel SSIM path must match the serial one
 * exactly, and small frames must reproduce golden hashes recorded from an
 * earlier engine.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/threadpool.hh"
#include "harness/metrics.hh"
#include "harness/session.hh"
#include "sim/pipeline.hh"
#include "simd/dispatch.hh"

using namespace pargpu;

namespace
{

/** Every scalar FrameStats field, in declaration order. */
#define PARGPU_FRAME_STATS_FIELDS(X) \
    X(total_cycles) X(geometry_cycles) X(fragment_cycles) \
    X(texture_filter_cycles) X(texture_mem_stall) X(shader_busy_cycles) \
    X(triangles_in) X(triangles_setup) X(earlyz_tested) X(earlyz_killed) \
    X(quads) X(pixels_shaded) X(trilinear_samples) X(texels) X(addr_ops) \
    X(table_accesses) X(tex_lines) X(memo_lookups) X(memo_hits) \
    X(simd_batches) X(raster_simd_quads) X(fb_simd_fills) \
    X(arena_frame_bytes) X(arena_high_water) X(af_candidate_pixels) \
    X(approx_stage1) X(approx_stage2) X(full_af) X(trivial_tf) \
    X(af_input_samples) X(shared_samples) X(divergent_quads) X(af_quads) \
    X(filter_policy) X(stf_samples) X(fas_quads) X(traffic_texture) \
    X(traffic_colordepth) X(traffic_geometry) X(l1_hits) X(l1_misses) \
    X(llc_hits) X(llc_misses) X(dram_reads) X(dram_row_hits)

/** Every ClusterStats field, in declaration order. */
#define PARGPU_CLUSTER_STATS_FIELDS(X) \
    X(tiles) X(quads) X(pixels) X(texels) X(cycles) X(filter_busy) \
    X(mem_stall)

/** Field-by-field FrameStats equality, cluster shards included. */
void
expectStatsEqual(const FrameStats &a, const FrameStats &b)
{
#define PARGPU_EQ(field) EXPECT_EQ(a.field, b.field) << #field;
    PARGPU_FRAME_STATS_FIELDS(PARGPU_EQ)
#undef PARGPU_EQ
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t c = 0; c < a.clusters.size(); ++c) {
#define PARGPU_CEQ(field) \
    EXPECT_EQ(a.clusters[c].field, b.clusters[c].field) \
        << "cluster " << c << " " << #field;
        PARGPU_CLUSTER_STATS_FIELDS(PARGPU_CEQ)
#undef PARGPU_CEQ
    }
}

void
expectImagesEqual(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    const std::vector<Color4f> &pa = a.pixels();
    const std::vector<Color4f> &pb = b.pixels();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        // Bitwise float equality on purpose: the parallel path must do
        // the exact same arithmetic.
        ASSERT_EQ(pa[i].r, pb[i].r) << "pixel " << i;
        ASSERT_EQ(pa[i].g, pb[i].g) << "pixel " << i;
        ASSERT_EQ(pa[i].b, pb[i].b) << "pixel " << i;
        ASSERT_EQ(pa[i].a, pb[i].a) << "pixel " << i;
    }
}

void
expectRunsEqual(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f)
        expectStatsEqual(a.frames[f], b.frames[f]);
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::size_t f = 0; f < a.images.size(); ++f)
        expectImagesEqual(a.images[f], b.images[f]);
    EXPECT_EQ(a.avg_cycles, b.avg_cycles);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
}

GameTrace
smallTrace()
{
    return buildGameTrace(GameId::HL2, 96, 80, 3);
}

} // namespace

TEST(Determinism, RunTraceSerialVsParallelBaseline)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.threads = 1;
    RunConfig parallel_cfg;
    parallel_cfg.threads = 4;
    expectRunsEqual(session.run(trace, serial_cfg),
                    session.run(trace, parallel_cfg));
}

TEST(Determinism, RunTraceSerialVsParallelPatu)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.threads = 1;
    RunConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = 4;
    expectRunsEqual(session.run(trace, serial_cfg),
                    session.run(trace, parallel_cfg));
}

TEST(Determinism, ThreadCountDoesNotMatter)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 2;
    RunResult two = session.run(trace, cfg);
    cfg.threads = 3;
    RunResult three = session.run(trace, cfg);
    expectRunsEqual(two, three);
}

TEST(Determinism, RunSweepMatchesRunTrace)
{
    Session session;
    GameTrace trace = smallTrace();
    std::vector<RunConfig> configs(3);
    configs[0].scenario = DesignScenario::Baseline;
    configs[1].scenario = DesignScenario::Patu;
    configs[1].threshold = 0.4f;
    configs[2].scenario = DesignScenario::NoAF;

    std::vector<RunResult> sweep = session.sweep(trace, configs, 4);
    ASSERT_EQ(sweep.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        RunConfig serial = configs[i];
        serial.threads = 1;
        expectRunsEqual(session.run(trace, serial), sweep[i]);
    }
}

// --- Intra-frame tile parallelism ------------------------------------
// The tile-parallel fragment phase must be bit-identical to the serial
// one: same frames, same FrameStats (including the per-cluster shards),
// same aggregates — at every worker count, alone and composed with
// frame-level parallelism.

TEST(Determinism, TileParallelMatchesSerialPatu)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.threads = 1;
    RunResult ref = session.run(trace, serial_cfg);

    RunConfig tile_cfg = serial_cfg;
    tile_cfg.tile_parallel = true;
    for (unsigned workers : {1u, 3u, 8u}) {
        ThreadPool::setDefaultThreads(workers);
        expectRunsEqual(ref, session.run(trace, tile_cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, TileParallelMatchesSerialBaseline)
{
    Session session;
    // Baseline 16xAF: the texel-bound extreme, every pixel through the
    // full AF path (maximum memory-system pressure on the commit pass).
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Baseline;
    serial_cfg.threads = 1;
    RunResult ref = session.run(trace, serial_cfg);

    RunConfig tile_cfg = serial_cfg;
    tile_cfg.tile_parallel = true;
    for (unsigned workers : {1u, 3u, 8u}) {
        ThreadPool::setDefaultThreads(workers);
        expectRunsEqual(ref, session.run(trace, tile_cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, FrameParallelTimesTileParallel)
{
    Session session;
    // Both levels on at once: frames partitioned across the pool, each
    // frame's tiles fanned out again (the nested submit runs inline on
    // the worker — one shared pool, no oversubscription).
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.threads = 1;
    RunResult ref = session.run(trace, serial_cfg);

    RunConfig both_cfg = serial_cfg;
    both_cfg.tile_parallel = true;
    for (int threads : {2, 3, 8}) {
        both_cfg.threads = threads;
        ThreadPool::setDefaultThreads(8);
        expectRunsEqual(ref, session.run(trace, both_cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, TileParallelOddClusterCount)
{
    Session session;
    // A cluster count that does not divide the tile count exercises the
    // tail of the static % clusters assignment.
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threads = 1;
    serial_cfg.clusters = 3;
    RunResult ref = session.run(trace, serial_cfg);

    RunConfig tile_cfg = serial_cfg;
    tile_cfg.tile_parallel = true;
    ThreadPool::setDefaultThreads(3);
    expectRunsEqual(ref, session.run(trace, tile_cfg));
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, TileParallelRegistryIdentical)
{
    Session session;
    // "Every exported counter": the whole StatRegistry snapshot —
    // counters, scalars (hit rates, imbalance) and histograms — must
    // serialize identically for serial and tile-parallel runs.
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.threads = 1;
    serial_cfg.keep_images = false;
    RunConfig tile_cfg = serial_cfg;
    tile_cfg.tile_parallel = true;

    ThreadPool::setDefaultThreads(4);
    RunResult a = session.run(trace, serial_cfg);
    RunResult b = session.run(trace, tile_cfg);
    ThreadPool::setDefaultThreads(0);

    StatRegistry ra, rb;
    buildRunRegistry(a, ra);
    buildRunRegistry(b, rb);
    EXPECT_EQ(ra.snapshot().toJson().dump(1),
              rb.snapshot().toJson().dump(1));
}

TEST(Determinism, FilterPoliciesAcrossModes)
{
    Session session;
    // The stochastic policies draw noise only from (pixel, sample,
    // camera-hash) counters, so every execution mode must reproduce the
    // serial run bit-for-bit: thread counts, tile parallelism, and both
    // composed (docs/FILTERING.md, determinism strategy).
    GameTrace trace = smallTrace();
    for (FilterPolicyId policy :
         {FilterPolicyId::StfUniform, FilterPolicyId::StfBlue,
          FilterPolicyId::StfWeighted,
          FilterPolicyId::FilterAfterShading}) {
        SCOPED_TRACE(filterPolicyName(policy));
        RunConfig serial_cfg;
        serial_cfg.filter_policy = policy;
        serial_cfg.threads = 1;
        RunResult ref = session.run(trace, serial_cfg);

        RunConfig frame_cfg = serial_cfg;
        for (int threads : {3, 8}) {
            frame_cfg.threads = threads;
            expectRunsEqual(ref, session.run(trace, frame_cfg));
        }

        RunConfig tile_cfg = serial_cfg;
        tile_cfg.tile_parallel = true;
        for (unsigned workers : {1u, 3u, 8u}) {
            ThreadPool::setDefaultThreads(workers);
            expectRunsEqual(ref, session.run(trace, tile_cfg));
        }

        RunConfig both_cfg = serial_cfg;
        both_cfg.tile_parallel = true;
        both_cfg.threads = 3;
        ThreadPool::setDefaultThreads(8);
        expectRunsEqual(ref, session.run(trace, both_cfg));
        ThreadPool::setDefaultThreads(0);
    }
}

TEST(Determinism, ParallelSsimMatchesSerial)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig base_cfg;
    RunConfig patu_cfg;
    patu_cfg.scenario = DesignScenario::Patu;
    RunResult base = session.run(trace, base_cfg);
    RunResult patu = session.run(trace, patu_cfg);

    ThreadPool::setDefaultThreads(1);
    std::vector<float> serial_map =
        ssimMap(base.images[0], patu.images[0]);
    double serial_mssim = patu.mssimAgainst(base.images);

    ThreadPool::setDefaultThreads(4);
    std::vector<float> parallel_map =
        ssimMap(base.images[0], patu.images[0]);
    double parallel_mssim = patu.mssimAgainst(base.images);
    ThreadPool::setDefaultThreads(0);

    ASSERT_EQ(serial_map.size(), parallel_map.size());
    for (std::size_t i = 0; i < serial_map.size(); ++i)
        ASSERT_EQ(serial_map[i], parallel_map[i]) << "map index " << i;
    EXPECT_EQ(serial_mssim, parallel_mssim);
}

// --- Golden outputs -------------------------------------------------
// Every comparison above is serial against parallel within one build, so
// a change to the fragment engine that moves both modes alike would pass
// them all. These hashes pin small frames to values recorded before the
// fragment phase was reduced to a single record->commit engine: each
// FrameStats field (cluster shards included) and every image pixel, for
// HL2 and UT3 under Baseline, PATU, NoAF and stf_blue, in both execution
// modes. The policy is set explicitly, so PARGPU_FILTER_POLICY does not
// move them.

namespace
{

/** 64-bit FNV-1a over the little-endian bytes of each added word. */
struct Fnv1a
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    }
};

/** Hash of a run's per-frame stats and images (bitwise floats). */
std::uint64_t
goldenHash(const RunResult &r)
{
    Fnv1a fnv;
    for (const FrameStats &fs : r.frames) {
#define PARGPU_HASH(field) fnv.add(static_cast<std::uint64_t>(fs.field));
        PARGPU_FRAME_STATS_FIELDS(PARGPU_HASH)
#undef PARGPU_HASH
        fnv.add(fs.clusters.size());
        for (const ClusterStats &cs : fs.clusters) {
#define PARGPU_HASH(field) fnv.add(static_cast<std::uint64_t>(cs.field));
            PARGPU_CLUSTER_STATS_FIELDS(PARGPU_HASH)
#undef PARGPU_HASH
        }
    }
    for (const Image &img : r.images) {
        fnv.add(static_cast<std::uint64_t>(img.width()));
        fnv.add(static_cast<std::uint64_t>(img.height()));
        for (const Color4f &p : img.pixels())
            for (float v : {p.r, p.g, p.b, p.a})
                fnv.add(std::bit_cast<std::uint32_t>(v));
    }
    return fnv.h;
}

} // namespace

TEST(Determinism, GoldenOutputsSerialAndTileParallel)
{
    Session session;
    struct Golden
    {
        GameId game;
        DesignScenario scenario;
        FilterPolicyId policy;
        std::uint64_t hash;
    };
    const Golden cases[] = {
        {GameId::HL2, DesignScenario::Baseline, FilterPolicyId::Patu,
         0x85C2EC5908AA56F0ull},
        {GameId::HL2, DesignScenario::Patu, FilterPolicyId::Patu,
         0xE994F8C9DB5C3580ull},
        {GameId::HL2, DesignScenario::NoAF, FilterPolicyId::Patu,
         0x66FAA90E7DA23245ull},
        {GameId::HL2, DesignScenario::Baseline, FilterPolicyId::StfBlue,
         0x17975D0BF746732Aull},
        {GameId::Ut3, DesignScenario::Baseline, FilterPolicyId::Patu,
         0x4ECE6B6EF8385B40ull},
        {GameId::Ut3, DesignScenario::Patu, FilterPolicyId::Patu,
         0x52FA97D9F0EBCE3Aull},
        {GameId::Ut3, DesignScenario::NoAF, FilterPolicyId::Patu,
         0x57E390A4FFEC0C23ull},
        {GameId::Ut3, DesignScenario::Baseline, FilterPolicyId::StfBlue,
         0x48FB323188CDC0AFull},
    };
    const GameTrace hl2 = buildGameTrace(GameId::HL2, 96, 80, 2);
    const GameTrace ut3 = buildGameTrace(GameId::Ut3, 96, 80, 2);
    for (const Golden &g : cases) {
        SCOPED_TRACE(testing::Message()
                     << gameAbbr(g.game) << " "
                     << scenarioName(g.scenario) << " "
                     << filterPolicyName(g.policy));
        RunConfig cfg;
        cfg.scenario = g.scenario;
        cfg.threshold = 0.4f;
        cfg.filter_policy = g.policy;
        cfg.threads = 1;
        const GameTrace &trace = g.game == GameId::HL2 ? hl2 : ut3;
        const std::uint64_t serial = goldenHash(session.run(trace, cfg));
        EXPECT_EQ(serial, g.hash) << "serial: 0x" << std::hex << serial;
        cfg.tile_parallel = true;
        ThreadPool::setDefaultThreads(3);
        const std::uint64_t tiled = goldenHash(session.run(trace, cfg));
        ThreadPool::setDefaultThreads(0);
        EXPECT_EQ(tiled, g.hash) << "tile-parallel: 0x" << std::hex << tiled;
    }
}

// --- SIMD tier x execution mode --------------------------------------
// The full hot-path matrix: every runnable kernel tier under serial,
// tile-parallel and frame-parallel execution must render the exact
// frames of the scalar / serial reference.

namespace
{

/** Runnable dispatch tiers on this build and CPU (scalar always). */
std::vector<simd::SimdTier>
runnableTiers()
{
    std::vector<simd::SimdTier> tiers{simd::SimdTier::Scalar};
    if (simd::detectTier() == simd::SimdTier::Avx2)
        tiers.push_back(simd::SimdTier::Avx2);
    return tiers;
}

} // namespace

TEST(Determinism, SimdTierTimesExecutionMode)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.threads = 1;

    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(simd::SimdTier::Scalar);
    RunResult ref = session.run(trace, serial_cfg);

    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);

        expectRunsEqual(ref, session.run(trace, serial_cfg));

        RunConfig tile_cfg = serial_cfg;
        tile_cfg.tile_parallel = true;
        ThreadPool::setDefaultThreads(3);
        expectRunsEqual(ref, session.run(trace, tile_cfg));
        ThreadPool::setDefaultThreads(0);

        RunConfig frame_cfg = serial_cfg;
        frame_cfg.threads = 3;
        expectRunsEqual(ref, session.run(trace, frame_cfg));
    }
    simd::setActiveTier(saved);
}

TEST(Determinism, SimdTierTimesTileParallelBaseline)
{
    Session session;
    // The diagonal stress on Baseline 16xAF: a non-default tier on top
    // of tile parallelism.
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.threads = 1;

    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(simd::SimdTier::Scalar);
    RunResult ref = session.run(trace, cfg);

    RunConfig tile_cfg = cfg;
    tile_cfg.tile_parallel = true;
    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);
        ThreadPool::setDefaultThreads(3);
        expectRunsEqual(ref, session.run(trace, tile_cfg));
        ThreadPool::setDefaultThreads(0);
        expectRunsEqual(ref, session.run(trace, cfg));
    }
    simd::setActiveTier(saved);
}
