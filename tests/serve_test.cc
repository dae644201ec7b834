/**
 * @file
 * End-to-end tests for the pargpu_serve request loop (ServeLoop over
 * string streams): framing, every protocol op, typed error responses,
 * the streamed sweep event sequence, and byte-identical replays of a
 * full request stream.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/serve.hh"

using namespace pargpu;

namespace
{

/** Frame a sequence of JSON payloads into one request stream. */
std::string
frameAll(const std::vector<std::string> &payloads)
{
    std::ostringstream out;
    for (const std::string &p : payloads)
        ServeLoop::writeFrame(out, p);
    return out.str();
}

/** Run one server over @p requests; returns (exit code, responses). */
std::pair<int, std::vector<Json>>
serve(const std::vector<std::string> &requests,
      unsigned job_workers = 0)
{
    std::istringstream in(frameAll(requests));
    std::ostringstream out;
    ServeLoop loop(in, out, ServeOptions{job_workers});
    int rc = loop.run();

    std::vector<Json> responses;
    std::istringstream replies(out.str());
    std::string payload;
    std::string error;
    while (ServeLoop::readFrame(replies, payload, &error)) {
        Json r = Json::parse(payload, &error);
        EXPECT_TRUE(r.isObject()) << error;
        responses.push_back(std::move(r));
    }
    EXPECT_TRUE(error.empty()) << error;
    return {rc, std::move(responses)};
}

/** The standard tiny-workload load request the tests share. */
std::string
loadRequest()
{
    return R"({"op":"load","key":"w","game":"wolf",)"
           R"("width":64,"height":48,"frames":2})";
}

} // namespace

TEST(ServeFramingTest, FramesRoundTripThroughReadAndWrite)
{
    std::ostringstream out;
    ServeLoop::writeFrame(out, "hello");
    ServeLoop::writeFrame(out, "");
    ServeLoop::writeFrame(out, "{\"op\":\"ping\"}");
    EXPECT_EQ(out.str().substr(0, 7), "5\nhello");

    std::istringstream in(out.str());
    std::string payload;
    std::string error;
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "hello");
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "");
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "{\"op\":\"ping\"}");
    // Clean EOF: false with no error text.
    EXPECT_FALSE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_TRUE(error.empty());
}

TEST(ServeFramingTest, MalformedHeaderIsAnIoErrorAndStopsTheLoop)
{
    std::istringstream in("not-a-length\n{}");
    std::ostringstream out;
    ServeLoop loop(in, out);
    EXPECT_EQ(loop.run(), 1);

    std::istringstream replies(out.str());
    std::string payload;
    std::string error;
    ASSERT_TRUE(ServeLoop::readFrame(replies, payload, &error));
    Json r = Json::parse(payload, &error);
    EXPECT_EQ(r["status"].str(), "io_error");
    EXPECT_NE(r["message"].str().find("malformed frame header"),
              std::string::npos);
}

TEST(ServeFramingTest, TruncatedPayloadIsAnIoError)
{
    std::istringstream in("100\n{\"op\":\"ping\"}");
    std::ostringstream out;
    ServeLoop loop(in, out);
    EXPECT_EQ(loop.run(), 1);
    EXPECT_NE(out.str().find("truncated frame payload"),
              std::string::npos);
}

TEST(ServeProtocolTest, PingEchoesIdAndReportsSchema)
{
    auto [rc, responses] =
        serve({R"({"op":"ping","id":"client-1"})"});
    EXPECT_EQ(rc, 0); // Clean EOF after the last request.
    ASSERT_EQ(responses.size(), 1u);
    const Json &r = responses[0];
    EXPECT_EQ(r["status"].str(), "ok");
    EXPECT_EQ(r["type"].str(), "pong");
    EXPECT_EQ(r["schema"].str(), "pargpu-serve");
    EXPECT_EQ(r["schema_version"].number(), 1.0);
    EXPECT_EQ(r["id"].str(), "client-1");
}

TEST(ServeProtocolTest, BadJsonAndUnknownOpsAreTypedNotFatal)
{
    auto [rc, responses] = serve({
        "this is not json",
        R"({"op":"frobnicate"})",
        R"({"op":"ping"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_NE(responses[0]["message"].str().find("bad JSON"),
              std::string::npos);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find("unknown op"),
              std::string::npos);
    // The loop keeps serving after request-level errors.
    EXPECT_EQ(responses[2]["type"].str(), "pong");
}

TEST(ServeProtocolTest, LoadThenTracesListsTheAsset)
{
    auto [rc, responses] = serve({
        loadRequest(),
        loadRequest(), // Duplicate key is a typed rejection.
        R"({"op":"traces"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0]["status"].str(), "ok");
    EXPECT_EQ(responses[1]["status"].str(), "duplicate_key");
    const Json &traces = responses[2]["traces"];
    ASSERT_TRUE(traces.isArray());
    ASSERT_EQ(traces.items().size(), 1u);
    EXPECT_EQ(traces[0]["key"].str(), "w");
    EXPECT_EQ(traces[0]["width"].number(), 64.0);
    EXPECT_EQ(traces[0]["height"].number(), 48.0);
    EXPECT_EQ(traces[0]["frames"].number(), 2.0);
}

TEST(ServeProtocolTest, LoadRejectsOutOfRangeViewports)
{
    // Refused before any trace is built, so no run can ever allocate
    // the framebuffer; 3e9 is outside int and must not reach a cast.
    auto [rc, responses] = serve({
        R"({"op":"load","key":"huge","game":"wolf",)"
        R"("width":100000,"height":100000,"frames":1})",
        R"({"op":"load","key":"wide","game":"wolf",)"
        R"("width":3e9,"height":48,"frames":1})",
        R"({"op":"traces"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_NE(responses[0]["message"].str().find("[1, 8192]"),
              std::string::npos);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find("(integers)"),
              std::string::npos);
    ASSERT_TRUE(responses[2]["traces"].isArray());
    EXPECT_TRUE(responses[2]["traces"].items().empty());
}

TEST(ServeProtocolTest, LoadRejectsTooManyFrames)
{
    // Above the 2^20 camera cap readTrace enforces: refused before the
    // trace (and its camera vector) is built, and never listed.
    auto [rc, responses] = serve({
        R"({"op":"load","key":"long","game":"wolf",)"
        R"("width":64,"height":48,"frames":1100000})",
        R"({"op":"traces"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_NE(responses[0]["message"].str().find("[1, 1048576]"),
              std::string::npos);
    ASSERT_TRUE(responses[1]["traces"].isArray());
    EXPECT_TRUE(responses[1]["traces"].items().empty());
}

TEST(ServeProtocolTest, RunValidatesConfigWithTypedReasons)
{
    auto [rc, responses] = serve({
        loadRequest(),
        // Unknown config member: the server never guesses.
        R"({"op":"run","trace":"w","config":{"treshold":0.5}})",
        // Known member, out-of-range value: InvalidConfig with the
        // configErrorMessage() text.
        R"({"op":"run","trace":"w","config":{"threshold":1.5}})",
        // Unknown trace key.
        R"({"op":"run","trace":"nope"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find(
                  "config.treshold: unknown member"),
              std::string::npos);
    EXPECT_EQ(responses[2]["status"].str(), "invalid_config");
    EXPECT_NE(responses[2]["message"].str().find(
                  configErrorMessage(ConfigError::BadThreshold)),
              std::string::npos);
    EXPECT_EQ(responses[3]["status"].str(), "unknown_trace");
}

TEST(ServeProtocolTest, RunReturnsTheVersionedMetricsDocument)
{
    auto [rc, responses] = serve({
        loadRequest(),
        R"({"op":"run","trace":"w",)"
        R"("config":{"scenario":"patu","keep_images":false}})",
        R"({"op":"status"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    const Json &metrics = responses[1]["metrics"];
    ASSERT_TRUE(metrics.isObject());
    EXPECT_EQ(metrics["schema"].str(), "pargpu-metrics");
    EXPECT_EQ(metrics["run"]["workload"].str(), "w");
    EXPECT_EQ(metrics["run"]["scenario"].str(), "patu");
    EXPECT_TRUE(metrics["aggregate"].has("avg_cycles"));
    EXPECT_EQ(metrics["frames"].items().size(), 2u);
    EXPECT_EQ(responses[2]["jobs_submitted"].number(), 1.0);
    EXPECT_EQ(responses[2]["jobs_completed"].number(), 1.0);
}

TEST(ServeProtocolTest, SweepStreamsJobEventsThenResults)
{
    auto [rc, responses] = serve(
        {
            loadRequest(),
            R"({"op":"sweep","trace":"w","id":"s1","configs":[)"
            R"({"scenario":"baseline","keep_images":false},)"
            R"({"scenario":"patu","keep_images":false},)"
            R"({"scenario":"ntxds","keep_images":false}]})",
        },
        /*job_workers=*/3);
    EXPECT_EQ(rc, 0);
    // load ack + 3 job_done events + 1 final results frame.
    ASSERT_EQ(responses.size(), 5u);
    for (std::size_t i = 0; i < 3; ++i) {
        const Json &event = responses[1 + i];
        EXPECT_EQ(event["status"].str(), "ok");
        EXPECT_EQ(event["event"].str(), "job_done");
        EXPECT_EQ(event["index"].number(), static_cast<double>(i));
        EXPECT_EQ(event["id"].str(), "s1");
        EXPECT_EQ(event["snapshot"]["state"].str(), "done");
        EXPECT_EQ(event["snapshot"]["frames_completed"].number(),
                  event["snapshot"]["frames_total"].number());
    }
    const Json &done = responses[4];
    EXPECT_EQ(done["event"].str(), "done");
    EXPECT_EQ(done["id"].str(), "s1");
    ASSERT_EQ(done["results"].items().size(), 3u);
    EXPECT_EQ(done["results"][0]["run"]["scenario"].str(), "baseline");
    EXPECT_EQ(done["results"][1]["run"]["scenario"].str(), "patu");
    EXPECT_EQ(done["results"][2]["run"]["scenario"].str(), "ntxds");
}

TEST(ServeProtocolTest, SweepRejectionsNameTheOffendingConfig)
{
    auto [rc, responses] = serve({
        loadRequest(),
        R"({"op":"sweep","trace":"w","configs":[)"
        R"({"scenario":"baseline"},{"threshold":"high"}]})",
        R"({"op":"sweep","trace":"w","configs":[)"
        R"({"scenario":"baseline"},{"tc_scale":7}]})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find("configs[1]"),
              std::string::npos);
    // Range failures surface at submission, still indexed.
    EXPECT_EQ(responses[2]["status"].str(), "invalid_config");
    EXPECT_NE(responses[2]["message"].str().find("configs[1]"),
              std::string::npos);
}

TEST(ServeProtocolTest, ShutdownStopsBeforeLaterRequests)
{
    auto [rc, responses] = serve({
        R"({"op":"shutdown","id":"bye-now"})",
        R"({"op":"ping"})", // Never served.
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0]["type"].str(), "bye");
    EXPECT_EQ(responses[0]["id"].str(), "bye-now");
}

TEST(ServeDeterminismTest, IdenticalRequestStreamsYieldIdenticalBytes)
{
    // The acceptance property behind the protocol: with a deterministic
    // simulator, the full response stream — including the concurrently
    // executed sweep — is a pure function of the request stream.
    const std::string requests = frameAll({
        loadRequest(),
        R"({"op":"sweep","trace":"w","id":"rep","configs":[)"
        R"({"scenario":"baseline","keep_images":false},)"
        R"({"scenario":"patu","threshold":0.8,"keep_images":false}]})",
        R"({"op":"status"})",
        R"({"op":"shutdown"})",
    });

    std::string first;
    for (int round = 0; round < 2; ++round) {
        std::istringstream in(requests);
        std::ostringstream out;
        ServeLoop loop(in, out, ServeOptions{2});
        ASSERT_EQ(loop.run(), 0);
        if (round == 0)
            first = out.str();
        else
            EXPECT_EQ(out.str(), first);
    }
    EXPECT_FALSE(first.empty());
}
