/**
 * @file
 * Tests for the chrome-trace profiling hooks (common/tracing.hh): the
 * emitted JSON is structurally a chrome://tracing document, recording is
 * gated by Tracing::enable(), compiled-out macros record nothing, and —
 * the determinism contract — tracing never changes simulated results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/tracing.hh"
#include "harness/session.hh"

using namespace pargpu;
using pargpu::trace::Tracing;

namespace pargpu_test
{
void disabledTracingBody(); // tracing_disabled_tu.cc
}

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 128, 96, 2);
    return t;
}

/** RAII guard: leave the global collector off and empty after each test. */
struct TracingGuard
{
    ~TracingGuard()
    {
        Tracing::disable();
        Tracing::clear();
    }
};

} // namespace

TEST(TracingTest, DisabledByDefaultAndRecordsNothing)
{
    TracingGuard guard;
    ASSERT_FALSE(Tracing::enabled());
    {
        PARGPU_TRACE_SCOPE("test", "ignored");
        PARGPU_TRACE_COUNTER("test", "ignored.counter", 1);
        PARGPU_TRACE_INSTANT("test", "ignored_instant");
    }
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

// Everything below the #ifndef exercises the compiled-in macro path and
// the pipeline's instrumentation; in a -DPARGPU_TRACING=OFF build those
// sites are no-ops by design, so the expectations only hold here.
#ifndef PARGPU_TRACING_DISABLED

TEST(TracingTest, SpanMacrosRecordWhenEnabled)
{
    TracingGuard guard;
    Tracing::enable();
    {
        PARGPU_TRACE_SCOPE("test", "outer");
        PARGPU_TRACE_SCOPE_F("test", "inner", 3);
    }
    PARGPU_TRACE_COUNTER("test", "count", 5);
    PARGPU_TRACE_INSTANT("test", "mark");
    EXPECT_EQ(Tracing::eventCount(), 4u);

    Tracing::clear();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

#endif // PARGPU_TRACING_DISABLED

TEST(TracingTest, EnableClearsPreviousBuffer)
{
    TracingGuard guard;
    Tracing::enable();
    Tracing::recordInstant("test", "stale");
    ASSERT_EQ(Tracing::eventCount(), 1u);
    Tracing::enable();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

TEST(TracingTest, CompiledOutMacrosRecordNothing)
{
    TracingGuard guard;
    Tracing::enable();
    pargpu_test::disabledTracingBody();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

#ifndef PARGPU_TRACING_DISABLED

TEST(TracingTest, JsonIsStructurallyAChromeTrace)
{
    Session session;
    TracingGuard guard;
    Tracing::enable();

    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 1;
    session.run(tinyTrace(), cfg);

    Tracing::disable();
    std::ostringstream os;
    Tracing::writeJson(os);

    std::string error;
    Json doc = Json::parse(os.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    ASSERT_TRUE(doc["traceEvents"].isArray());
    const auto &events = doc["traceEvents"].items();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(doc["displayTimeUnit"].str(), "ms");

    double prev_ts = -1.0;
    bool saw_frame_span = false, saw_dram_counter = false;
    for (const Json &e : events) {
        ASSERT_TRUE(e.isObject());
        EXPECT_TRUE(e["name"].isString());
        EXPECT_TRUE(e["cat"].isString());
        ASSERT_TRUE(e["ph"].isString());
        const std::string &ph = e["ph"].str();
        EXPECT_TRUE(ph == "X" || ph == "C" || ph == "i") << ph;
        ASSERT_TRUE(e["ts"].isNumber());
        EXPECT_GE(e["ts"].number(), prev_ts); // writeJson sorts by ts.
        prev_ts = e["ts"].number();
        EXPECT_TRUE(e["pid"].isNumber());
        EXPECT_TRUE(e["tid"].isNumber());
        if (ph == "X") {
            ASSERT_TRUE(e["dur"].isNumber());
            EXPECT_GE(e["dur"].number(), 0.0);
        }
        if (ph == "C") {
            ASSERT_TRUE(e["args"].isObject());
            EXPECT_TRUE(e["args"]["value"].isNumber());
        }
        if (ph == "i") {
            EXPECT_EQ(e["s"].str(), "t");
        }
        if (e["cat"].str() == "sim" && e["name"].str() == "frame")
            saw_frame_span = true;
        if (e["cat"].str() == "mem" && e["name"].str() == "dram.bytes")
            saw_dram_counter = true;
    }
    EXPECT_TRUE(saw_frame_span);
    EXPECT_TRUE(saw_dram_counter);
}

TEST(TracingTest, SpanArgsCarryTheValue)
{
    TracingGuard guard;
    Tracing::enable();
    {
        PARGPU_TRACE_SCOPE_F("test", "with_arg", 11);
    }
    Tracing::disable();
    std::ostringstream os;
    Tracing::writeJson(os);
    Json doc = Json::parse(os.str());
    ASSERT_EQ(doc["traceEvents"].items().size(), 1u);
    const Json &e = doc["traceEvents"][0];
    EXPECT_EQ(e["name"].str(), "with_arg");
    EXPECT_DOUBLE_EQ(e["args"]["value"].number(), 11.0);
}

#endif // PARGPU_TRACING_DISABLED

TEST(TracingTest, WriteFileRoundTrips)
{
    TracingGuard guard;
    Tracing::enable();
    Tracing::recordInstant("test", "filed");
    Tracing::disable();

    const std::string path = "tracing_test_out.json";
    ASSERT_TRUE(Tracing::writeFile(path));
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    std::string error;
    Json doc = Json::parse(ss.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_EQ(doc["traceEvents"].items().size(), 1u);
    std::remove(path.c_str());
}

// The determinism contract doubles as the overhead guard from the issue:
// the acceptance bound is a <= 1% simulated-cycle delta with tracing on,
// and because tracing observes host time only, the delta is exactly zero.
TEST(TracingTest, SimulatedResultsBitIdenticalWithTracingOn)
{
    Session session;
    TracingGuard guard;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 1;

    ASSERT_FALSE(Tracing::enabled());
    RunResult off = session.run(tinyTrace(), cfg);

    Tracing::enable();
    RunResult on = session.run(tinyTrace(), cfg);
    Tracing::disable();
#ifndef PARGPU_TRACING_DISABLED
    EXPECT_GT(Tracing::eventCount(), 0u);
#endif

    ASSERT_EQ(off.frames.size(), on.frames.size());
    for (std::size_t i = 0; i < off.frames.size(); ++i) {
        EXPECT_EQ(off.frames[i].total_cycles, on.frames[i].total_cycles);
        EXPECT_EQ(off.frames[i].texels, on.frames[i].texels);
        EXPECT_EQ(off.frames[i].dram_reads, on.frames[i].dram_reads);
        EXPECT_EQ(off.frames[i].totalTraffic(), on.frames[i].totalTraffic());
    }
    EXPECT_DOUBLE_EQ(off.avg_cycles, on.avg_cycles);
    EXPECT_DOUBLE_EQ(off.total_energy_nj, on.total_energy_nj);
}
