/**
 * @file
 * Unit tests for the Session facade (src/harness/session.hh): typed
 * Status reporting, immutable shared assets, concurrent jobs
 * bit-identical to the borrowed-trace sweep, snapshot streaming, job
 * handles surviving Session teardown, and the warm simulator matching
 * fresh ones under any sequence of configs, viewports and callers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>

#include "harness/metrics.hh"
#include "harness/session.hh"

using namespace pargpu;

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 96, 72, 3);
    return t;
}

/**
 * A fresh trace identical to tinyTrace(), movable into Session::load()
 * (GameTrace is move-only). Workload construction is deterministic, so
 * runs on the two instances are bit-identical.
 */
GameTrace
makeTiny()
{
    return buildGameTrace(GameId::Wolf, 96, 72, 3);
}

/** The sweep conditions the concurrency tests compare across paths. */
std::vector<RunConfig>
sweepConfigs()
{
    std::vector<RunConfig> configs;
    for (DesignScenario s :
         {DesignScenario::Baseline, DesignScenario::Patu,
          DesignScenario::AfSsimNTxds}) {
        RunConfig c;
        c.scenario = s;
        configs.push_back(c);
    }
    RunConfig tweaked;
    tweaked.scenario = DesignScenario::Patu;
    tweaked.threshold = 0.8f;
    tweaked.tc_scale = 2;
    configs.push_back(tweaked);
    return configs;
}

/** The full metrics document (registry included) for one run. */
std::string
metricsDump(const RunConfig &config, const RunResult &run)
{
    RunMetadata meta;
    meta.tool = "session_test";
    meta.workload = tinyTrace().name;
    meta.width = tinyTrace().width;
    meta.height = tinyTrace().height;
    meta.frames = static_cast<int>(tinyTrace().cameras.size());
    return metricsJson(meta, config, run).dump();
}

/**
 * Byte-level equality of two runs under @p config: every per-frame
 * counter, the aggregates and the full stat registry (compared through
 * the exporter, the document a server ships), plus raw image bytes.
 */
void
expectRunsIdentical(const RunConfig &config, const RunResult &a,
                    const RunResult &b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    EXPECT_EQ(a.avg_cycles, b.avg_cycles);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(metricsDump(config, a), metricsDump(config, b));
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::size_t i = 0; i < a.images.size(); ++i) {
        ASSERT_EQ(a.images[i].pixels().size(), b.images[i].pixels().size());
        EXPECT_EQ(std::memcmp(a.images[i].pixels().data(),
                              b.images[i].pixels().data(),
                              a.images[i].pixels().size() *
                                  sizeof(Color4f)),
                  0)
            << "image " << i;
    }
}

} // namespace

TEST(StatusTest, CodesHaveStableWireNames)
{
    EXPECT_STREQ(statusCodeName(StatusCode::Ok), "ok");
    EXPECT_STREQ(statusCodeName(StatusCode::InvalidConfig),
                 "invalid_config");
    EXPECT_STREQ(statusCodeName(StatusCode::UnknownTrace),
                 "unknown_trace");
    EXPECT_STREQ(statusCodeName(StatusCode::DuplicateKey),
                 "duplicate_key");
    EXPECT_STREQ(statusCodeName(StatusCode::InvalidRequest),
                 "invalid_request");
    EXPECT_STREQ(statusCodeName(StatusCode::ShuttingDown),
                 "shutting_down");
    EXPECT_STREQ(statusCodeName(StatusCode::IoError), "io_error");
}

TEST(StatusTest, ValidateRunConfigJoinsEveryViolation)
{
    EXPECT_TRUE(validateRunConfig(RunConfig{}).ok());

    RunConfig bad;
    bad.threshold = 1.5f;
    bad.tc_scale = 3;
    Status st = validateRunConfig(bad);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    // Both violations appear, joined, with the configErrorMessage() text.
    EXPECT_NE(st.message.find(configErrorMessage(ConfigError::BadThreshold)),
              std::string::npos);
    EXPECT_NE(st.message.find(configErrorMessage(ConfigError::BadTcScale)),
              std::string::npos);
    EXPECT_NE(st.message.find("; "), std::string::npos);
}

TEST(SessionTest, EnvSnapshotIsProcessWideAndConsistent)
{
    Session session;
    const EnvOverrides &env = session.env();
    EXPECT_EQ(&env, &envOverrides());
    EXPECT_GE(env.default_threads, 1u);
    EXPECT_TRUE(isKnownFilterPolicy(env.filter_policy));
}

TEST(SessionTest, LoadRejectsBadAndDuplicateKeys)
{
    Session session;
    EXPECT_EQ(session.load("", GameTrace{}).code,
              StatusCode::InvalidRequest);
    EXPECT_EQ(session.load("w", GameId::Wolf, 0, 48, 1).code,
              StatusCode::InvalidRequest);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    Status dup = session.load("w", makeTiny());
    EXPECT_EQ(dup.code, StatusCode::DuplicateKey);
    EXPECT_NE(dup.message.find("'w'"), std::string::npos);
    EXPECT_EQ(session.traceKeys(), std::vector<std::string>{"w"});
}

TEST(SessionTest, AssetsAreSharedReadOnlyAcrossJobs)
{
    Session session;
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    std::shared_ptr<const GameTrace> asset = session.trace("w");
    ASSERT_NE(asset, nullptr);
    // Every lookup and every job references the same immutable object —
    // no copies, no reloads.
    EXPECT_EQ(session.trace("w").get(), asset.get());
    RunConfig cfg;
    cfg.keep_images = false;
    JobHandle a = session.submit("w", cfg);
    JobHandle b = session.submit("w", cfg);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    a->wait();
    b->wait();
    EXPECT_EQ(session.trace("w").get(), asset.get());
    expectRunsIdentical(cfg, a->result(), b->result());
}

TEST(SessionTest, SubmitReportsTypedFailures)
{
    Session session;
    Status st;
    EXPECT_EQ(session.submit("missing", RunConfig{}, &st), nullptr);
    EXPECT_EQ(st.code, StatusCode::UnknownTrace);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    RunConfig bad;
    bad.threshold = 2.0f;
    EXPECT_EQ(session.submit("w", bad, &st), nullptr);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);

    // submitSweep is all-or-nothing and labels the offending index.
    std::vector<RunConfig> configs(3);
    configs[2].tc_scale = 5;
    EXPECT_TRUE(session.submitSweep("w", configs, &st).empty());
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    EXPECT_NE(st.message.find("configs[2]"), std::string::npos);
    EXPECT_EQ(session.jobsSubmitted(), 0u);
}

TEST(SessionTest, KeyedSweepMatchesBorrowedSweepExactly)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    Session session;
    // The borrowed-trace sweep, forced serial: the reference ordering.
    std::vector<RunResult> borrowed =
        session.sweep(tinyTrace(), configs, 1);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    std::vector<RunResult> keyed;
    Status st = session.sweep("w", configs, &keyed);
    ASSERT_TRUE(st.ok()) << st.message;
    ASSERT_EQ(keyed.size(), borrowed.size());
    // Byte-identical through the exporter: metrics JSON, counters and
    // aggregates, plus raw images (the acceptance criterion).
    for (std::size_t i = 0; i < keyed.size(); ++i)
        expectRunsIdentical(configs[i], keyed[i], borrowed[i]);

    Status missing = session.sweep("missing", configs, nullptr);
    EXPECT_EQ(missing.code, StatusCode::UnknownTrace);
}

TEST(SessionTest, ConcurrentSubmitBitIdenticalToSerialSweep)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    // Four dispatchers so jobs genuinely overlap (each additionally
    // fans frames onto the shared pool).
    Session session(SessionOptions{4});
    std::vector<RunResult> borrowed =
        session.sweep(tinyTrace(), configs, 1);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    Status st;
    std::vector<JobHandle> jobs = session.submitSweep("w", configs, &st);
    ASSERT_TRUE(st.ok()) << st.message;
    ASSERT_EQ(jobs.size(), configs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i]->wait();
        EXPECT_EQ(jobs[i]->state(), Job::State::Done);
        EXPECT_EQ(jobs[i]->framesCompleted(), jobs[i]->framesTotal());
        expectRunsIdentical(configs[i], jobs[i]->result(), borrowed[i]);
    }
    EXPECT_EQ(session.jobsSubmitted(), configs.size());
    EXPECT_EQ(session.jobsCompleted(), configs.size());
}

TEST(SessionTest, SnapshotAfterDoneMatchesFinalRegistry)
{
    Session session;
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    RunConfig cfg;
    cfg.keep_images = false;
    JobHandle job = session.submit("w", cfg);
    ASSERT_NE(job, nullptr);
    job->wait();

    Json snap = job->snapshot();
    EXPECT_EQ(snap["state"].str(), "done");
    EXPECT_EQ(snap["trace"].str(), "w");
    EXPECT_EQ(static_cast<std::size_t>(snap["frames_total"].number()),
              job->framesTotal());
    EXPECT_EQ(snap["frames_completed"].number(),
              snap["frames_total"].number());
    EXPECT_EQ(snap["aggregate"]["avg_cycles"].number(),
              job->result().avg_cycles);

    // The snapshot registry is the same document metricsJson() derives
    // from the final result.
    StatRegistry reg;
    buildRunRegistry(job->result(), reg);
    EXPECT_EQ(snap["registry"].dump(), reg.snapshot().toJson().dump());
}

TEST(SessionTest, JobHandlesSurviveSessionTeardown)
{
    std::vector<JobHandle> jobs;
    {
        Session session(SessionOptions{2});
        ASSERT_TRUE(session.load("w", makeTiny()).ok());
        RunConfig cfg;
        cfg.keep_images = false;
        for (int i = 0; i < 4; ++i) {
            JobHandle j = session.submit("w", cfg);
            ASSERT_NE(j, nullptr);
            jobs.push_back(j);
        }
        // Session destroyed here with jobs possibly still queued:
        // teardown drains the queue, so every accepted job completes.
    }
    for (const JobHandle &job : jobs) {
        EXPECT_EQ(job->state(), Job::State::Done);
        // The handle keeps the shared asset alive past the Session.
        EXPECT_EQ(job->framesCompleted(), job->framesTotal());
        EXPECT_FALSE(job->result().frames.empty());
    }
    RunConfig cfg;
    cfg.keep_images = false;
    expectRunsIdentical(cfg, jobs.front()->result(),
                        jobs.back()->result());
}

namespace
{

/** run() of @p trace under @p config in a Session of its own. */
RunResult
freshRun(const GameTrace &trace, const RunConfig &config)
{
    Session fresh;
    return fresh.run(trace, config);
}

} // namespace

TEST(WarmSimulatorTest, SlotHandsBackOnlyAnEqualConfig)
{
    GpuConfig a;
    GpuConfig b = a;
    b.mem.llc_scale = 2;
    EXPECT_FALSE(a == b);

    detail::WarmSimulator warm;
    std::unique_ptr<GpuSimulator> sim = warm.checkOut(a);
    const GpuSimulator *parked = sim.get();
    warm.checkIn(std::move(sim));
    // A different config misses and leaves the parked simulator alone.
    EXPECT_NE(warm.checkOut(b).get(), parked);
    sim = warm.checkOut(a);
    EXPECT_EQ(sim.get(), parked);
    // Checked out: the slot is empty until it comes back.
    EXPECT_NE(warm.checkOut(a).get(), parked);
}

TEST(WarmSimulatorTest, SingleSimulatorRendersUseTheSlotFannedOutOnesDoNot)
{
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    const GpuConfig gpu = makeGpuConfig(cfg);

    detail::WarmSimulator warm;
    auto sim = std::make_unique<GpuSimulator>(gpu);
    const GpuSimulator *parked = sim.get();
    warm.checkIn(std::move(sim));

    // Three frames over two partitions: fresh per-partition simulators,
    // the slot is untouched.
    cfg.threads = 2;
    detail::renderTrace(tinyTrace(), cfg, nullptr, &warm);
    sim = warm.checkOut(gpu);
    EXPECT_EQ(sim.get(), parked);
    warm.checkIn(std::move(sim));

    // One thread: the frames render on the parked simulator, which goes
    // back into the slot.
    cfg.threads = 1;
    const RunResult warm_run =
        detail::renderTrace(tinyTrace(), cfg, nullptr, &warm);
    EXPECT_EQ(warm.checkOut(gpu).get(), parked);
    expectRunsIdentical(cfg, warm_run, freshRun(tinyTrace(), cfg));
}

TEST(WarmSimulatorTest, RunsMatchFreshSessionsAcrossConfigsAndViewports)
{
    const GameTrace wolf = buildGameTrace(GameId::Wolf, 160, 120, 2);
    const GameTrace ut3 = buildGameTrace(GameId::Ut3, 128, 96, 1);
    RunConfig a;
    a.scenario = DesignScenario::Patu;
    a.threads = 1; // Both frames on one (warm) simulator.
    RunConfig b;
    b.scenario = DesignScenario::NoAF;
    b.tile_parallel = true;
    RunConfig a_llc = a;
    a_llc.llc_scale = 2;

    // Each step reuses, replaces or reconfigures the warm simulator:
    // A, A again (reused), B on another viewport (replaced), B's config
    // on A's viewport (reused across viewports), A, and A with one
    // memory-system field changed.
    const std::vector<std::pair<const GameTrace *, RunConfig>> steps = {
        {&wolf, a}, {&wolf, a}, {&ut3, b}, {&wolf, b}, {&wolf, a},
        {&wolf, a_llc},
    };
    Session session;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE(i);
        const auto &[trace, config] = steps[i];
        // Every FrameStats field is in the metrics document.
        expectRunsIdentical(config, session.run(*trace, config),
                            freshRun(*trace, config));
    }
}

TEST(WarmSimulatorTest, ConcurrentRunsAndJobsMatchSerialRuns)
{
    const GameTrace trace = buildGameTrace(GameId::Wolf, 96, 72, 1);
    std::vector<RunConfig> configs(2);
    configs[0].scenario = DesignScenario::Patu;
    configs[1].scenario = DesignScenario::Baseline;
    configs[1].tile_parallel = true;
    std::vector<RunResult> serial;
    for (const RunConfig &c : configs)
        serial.push_back(freshRun(trace, c));

    Session session(SessionOptions{2});
    ASSERT_TRUE(session.load(
        "w", buildGameTrace(GameId::Wolf, 96, 72, 1)).ok());
    constexpr int kRounds = 4;
    // Two threads call run() and one submit()s, alternating configs out
    // of phase, so the warm slot is hit, missed and replaced under
    // contention.
    std::vector<std::vector<RunResult>> got(3);
    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
        callers.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                const RunConfig &c = configs[(r + t) % 2];
                if (t < 2) {
                    got[t].push_back(session.run(trace, c));
                } else {
                    JobHandle job = session.submit("w", c);
                    got[t].push_back(job->result());
                }
            }
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (int t = 0; t < 3; ++t) {
        ASSERT_EQ(got[t].size(), static_cast<std::size_t>(kRounds));
        for (int r = 0; r < kRounds; ++r) {
            SCOPED_TRACE(testing::Message() << "caller " << t << " round "
                                            << r);
            const std::size_t k = static_cast<std::size_t>((r + t) % 2);
            expectRunsIdentical(configs[k], got[t][r], serial[k]);
        }
    }
}
