// Observability-through-the-simulator tests: registry counters must agree
// exactly with SimResult fields, time-series sampling must produce a
// predictable row grid, and exported traces must be valid Chrome
// trace_event JSON.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/artifacts.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

Result<SimResult> RunLinear(double duration_s, double interval_s,
                            obs::Tracer* tracer = nullptr) {
  auto plan = testing::LinearPlan(2000.0, 2);
  if (!plan.ok()) return plan.status();
  ExecutionOptions opt;
  opt.sim.duration_s = duration_s;
  opt.sim.warmup_s = 0.25;
  opt.sim.seed = 7;
  opt.sim.metrics_interval_s = interval_s;
  opt.sim.tracer = tracer;
  return ExecutePlan(*plan, Cluster::M510(4), opt);
}

TEST(SimObsTest, RegistryCountersMatchSimResult) {
  auto r = RunLinear(2.0, 0.25);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->metrics, nullptr);
  const obs::MetricsRegistry& reg = *r->metrics;
  EXPECT_GT(r->source_tuples, 0);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.source_tuples"), r->source_tuples);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.sink_tuples"), r->sink_tuples);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.backpressure_skipped"),
            r->backpressure_skipped);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.late_drops"), r->late_drops);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.events_processed"),
            r->events_processed);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("pdsp.sim.throughput_tps"),
                   r->throughput_tps);
}

TEST(SimObsTest, SimulatedTimeSeriesCsvRoundTrips) {
  auto r = RunLinear(2.0, 0.25);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->timeseries.empty());
  const std::string csv = r->timeseries.ToCsv();
  auto parsed = obs::TimeSeries::FromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->NumRows(), r->timeseries.NumRows());
  EXPECT_EQ(parsed->ToCsv(), csv);
}

TEST(SimObsTest, TimeSeriesRowGridAndMonotonicity) {
  const double duration = 2.0;
  const double interval = 0.25;
  auto r = RunLinear(duration, interval);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::TimeSeries& ts = r->timeseries;
  ASSERT_FALSE(ts.empty());

  const std::vector<double> times = ts.SampleTimes();
  const auto expected =
      static_cast<int64_t>(std::floor(duration / interval));
  EXPECT_GE(static_cast<int64_t>(times.size()), expected - 1);
  EXPECT_LE(static_cast<int64_t>(times.size()), expected + 1);

  double prev = -1.0;
  for (const obs::TimeSeriesRow& row : ts.rows()) {
    EXPECT_GE(row.time_s, prev);  // non-decreasing across the whole series
    prev = row.time_s;
    EXPECT_GE(row.queue_tuples, 0);
    EXPECT_GE(row.utilization, 0.0);
    EXPECT_LE(row.utilization, 1.0);
    EXPECT_GE(row.watermark_lag_s, 0.0);
    EXPECT_FALSE(row.op.empty());
  }
  // Every sample covers every task exactly once.
  const size_t tasks_per_sample = ts.NumRows() / times.size();
  EXPECT_EQ(ts.NumRows(), tasks_per_sample * times.size());
}

TEST(SimObsTest, SamplingDisabledProducesNoRows) {
  auto r = RunLinear(1.0, 0.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->timeseries.empty());
  // The registry stays populated even with sampling off.
  EXPECT_EQ(r->metrics->CounterValue("pdsp.sim.source_tuples"),
            r->source_tuples);
}

TEST(SimObsTest, TimeSeriesCsvHasHeaderAndAllRows) {
  auto r = RunLinear(1.0, 0.25);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string csv = r->timeseries.ToCsv();
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, r->timeseries.NumRows() + 1);
  EXPECT_EQ(csv.find("time_s,task,op,instance"), 0u);
}

// Trace export: every event the simulator emits must be complete ("X" with
// ts+dur), instant, counter or metadata — parsed back via the JSON parser.
TEST(SimObsTest, TraceExportsValidChromeTraceJson) {
  obs::Tracer tracer;
  tracer.set_verbose(true);
  auto r = RunLinear(1.0, 0.25, &tracer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(tracer.NumEvents(), 0u);

  auto parsed = Json::Parse(tracer.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = *parsed;
  ASSERT_TRUE(doc["traceEvents"].is_array());
  ASSERT_GT(doc["traceEvents"].size(), 0u);

  std::set<std::string> names;
  for (size_t i = 0; i < doc["traceEvents"].size(); ++i) {
    const Json& e = doc["traceEvents"].at(i);
    ASSERT_TRUE(e["name"].is_string());
    ASSERT_TRUE(e["ph"].is_string());
    const std::string ph = e["ph"].AsString();
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M") << ph;
    if (ph == "X") {
      // Complete events carry both endpoints — the balanced analogue of
      // B/E pairs.
      ASSERT_TRUE(e["ts"].is_number());
      ASSERT_TRUE(e["dur"].is_number());
      EXPECT_GE(e["dur"].AsNumber(), 0.0);
    }
    names.insert(e["name"].AsString());
  }
  // Phase spans from ExecutePlan and the engine.
  EXPECT_TRUE(names.count("expand"));
  EXPECT_TRUE(names.count("place"));
  EXPECT_TRUE(names.count("simulate"));
  EXPECT_TRUE(names.count("aggregate"));
  // Verbose mode records operator firings on the virtual timeline.
  EXPECT_TRUE(names.count("src"));
  EXPECT_TRUE(names.count("sink"));
}

TEST(SimObsTest, ArtifactBundleWritesAllThreeFiles) {
  obs::Tracer tracer;
  auto r = RunLinear(1.0, 0.25, &tracer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::string dir =
      ::testing::TempDir() + "/pdsp_obs_bundle_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  obs::ArtifactOptions artifacts;
  artifacts.tracer = &tracer;
  Status st = obs::WriteRunArtifacts(dir, *r, artifacts);
  ASSERT_TRUE(st.ok()) << st.ToString();

  for (const char* file : {"metrics.json", "timeseries.csv", "trace.json"}) {
    SCOPED_TRACE(file);
    std::ifstream in(dir + "/" + file);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_FALSE(buf.str().empty());
    if (std::string(file).find(".json") != std::string::npos) {
      auto doc = Json::Parse(buf.str());
      EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    }
  }

  auto metrics = Json::Parse([&] {
    std::ifstream in(dir + "/metrics.json");
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }());
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ((*metrics)["summary"]["sink_tuples"].AsInt(), r->sink_tuples);
  EXPECT_EQ(
      (*metrics)["metrics"]["counters"]["pdsp.sim.source_tuples"].AsInt(),
      r->source_tuples);
}

}  // namespace
}  // namespace pdsp
