/**
 * @file
 * Tests for the metrics exporter (harness/metrics.hh): the JSON document
 * carries the documented schema, the registry names match
 * docs/METRICS.md, and the CSV form is one row per frame.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/metrics.hh"
#include "harness/session.hh"

using namespace pargpu;

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 128, 96, 2);
    return t;
}

RunConfig
tinyConfig()
{
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 1;
    return cfg;
}

RunMetadata
tinyMeta()
{
    RunMetadata meta;
    meta.tool = "metrics_test";
    meta.workload = "Wolf-128x96";
    meta.width = 128;
    meta.height = 96;
    meta.frames = 2;
    return meta;
}

} // namespace

TEST(MetricsTest, ScenarioNamesAreStable)
{
    EXPECT_STREQ(scenarioMetricName(DesignScenario::Baseline), "baseline");
    EXPECT_STREQ(scenarioMetricName(DesignScenario::NoAF), "noaf");
    EXPECT_STREQ(scenarioMetricName(DesignScenario::AfSsimN), "n");
    EXPECT_STREQ(scenarioMetricName(DesignScenario::AfSsimNTxds), "ntxds");
    EXPECT_STREQ(scenarioMetricName(DesignScenario::Patu), "patu");
}

TEST(MetricsTest, JsonDocumentMatchesSchema)
{
    Session session;
    RunConfig cfg = tinyConfig();
    RunResult run = session.run(tinyTrace(), cfg);
    Json doc = metricsJson(tinyMeta(), cfg, run, 0.99);

    EXPECT_EQ(doc["schema"].str(), kMetricsSchemaName);
    EXPECT_EQ(static_cast<int>(doc["schema_version"].number()),
              kMetricsSchemaVersion);

    const Json &rj = doc["run"];
    EXPECT_EQ(rj["tool"].str(), "metrics_test");
    EXPECT_EQ(rj["workload"].str(), "Wolf-128x96");
    EXPECT_EQ(rj["scenario"].str(), "patu");
    EXPECT_EQ(static_cast<int>(rj["frames"].number()), 2);

    const Json &agg = doc["aggregate"];
    EXPECT_DOUBLE_EQ(agg["avg_cycles"].number(), run.avg_cycles);
    EXPECT_DOUBLE_EQ(agg["total_energy_nj"].number(), run.total_energy_nj);
    EXPECT_DOUBLE_EQ(agg["mssim"].number(), 0.99);

    ASSERT_TRUE(doc["frames"].isArray());
    ASSERT_EQ(doc["frames"].items().size(), run.frames.size());
    const Json &f0 = doc["frames"][0];
    EXPECT_DOUBLE_EQ(f0["total_cycles"].number(),
                     static_cast<double>(run.frames[0].total_cycles));
    EXPECT_TRUE(f0.has("texels"));
    EXPECT_TRUE(f0.has("earlyz_tested"));

    const Json &reg = doc["registry"];
    ASSERT_TRUE(reg["counters"].isObject());
    EXPECT_TRUE(reg["counters"].has("texunit.texels"));
    EXPECT_TRUE(reg["counters"].has("mem.traffic.total_bytes"));
    EXPECT_TRUE(reg["scalars"].has("mem.l1.hit_rate"));
    EXPECT_TRUE(reg["scalars"].has("run.mssim"));
    ASSERT_TRUE(reg["histograms"].has("frame.cycles"));
    EXPECT_EQ(reg["histograms"]["frame.cycles"]["count"].number(), 2.0);
}

TEST(MetricsTest, MssimOmittedWhenNegative)
{
    Session session;
    RunConfig cfg = tinyConfig();
    RunResult run = session.run(tinyTrace(), cfg);
    Json doc = metricsJson(tinyMeta(), cfg, run, -1.0);
    EXPECT_FALSE(doc["aggregate"].has("mssim"));
    EXPECT_FALSE(doc["registry"]["scalars"].has("run.mssim"));
}

TEST(MetricsTest, RegistryCountersMatchFrameTotals)
{
    Session session;
    RunConfig cfg = tinyConfig();
    RunResult run = session.run(tinyTrace(), cfg);
    StatRegistry reg;
    buildRunRegistry(run, reg);

    std::uint64_t texels = 0, dram_reads = 0;
    for (const FrameStats &f : run.frames) {
        texels += f.texels;
        dram_reads += f.dram_reads;
    }
    EXPECT_EQ(reg.counter("texunit.texels"), texels);
    EXPECT_EQ(reg.counter("mem.dram.reads"), dram_reads);
    EXPECT_EQ(reg.histogram("frame.cycles").count, run.frames.size());
}

TEST(MetricsTest, WrittenJsonParsesBack)
{
    Session session;
    RunConfig cfg = tinyConfig();
    RunResult run = session.run(tinyTrace(), cfg);
    const std::string path = "metrics_test_out.json";
    ASSERT_TRUE(writeMetricsJson(path, tinyMeta(), cfg, run));

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    std::string error;
    Json doc = Json::parse(ss.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_EQ(doc["schema"].str(), kMetricsSchemaName);
    std::remove(path.c_str());
}

TEST(MetricsTest, CsvHasHeaderAndOneRowPerFrame)
{
    Session session;
    RunConfig cfg = tinyConfig();
    RunResult run = session.run(tinyTrace(), cfg);
    const std::string path = "metrics_test_out.csv";
    ASSERT_TRUE(writeMetricsCsv(path, tinyMeta(), cfg, run));

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_EQ(line.rfind("# pargpu-metrics-csv v1", 0), 0u) << line;
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_EQ(line.rfind("frame,total_cycles,", 0), 0u) << line;
    std::size_t rows = 0;
    while (std::getline(f, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, run.frames.size());
    std::remove(path.c_str());
}
