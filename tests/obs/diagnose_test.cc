// pdsp::obs::diagnose tests: the latency breakdown must telescope to the
// recorded end-to-end latency, the critical path must follow the DAG, the
// rule engine must classify provisioning regimes with stable PDSP-R codes,
// and diagnosis.json must land atomically in the artifact bundle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/artifacts.h"
#include "src/obs/diagnose.h"
#include "src/sim/simulation.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

Result<SimResult> RunSim(const LogicalPlan& plan, const Cluster& cluster,
                      double duration_s = 2.0, double interval_s = 0.25) {
  ExecutionOptions opt;
  opt.sim.duration_s = duration_s;
  opt.sim.warmup_s = 0.25;
  opt.sim.seed = 11;
  opt.sim.metrics_interval_s = interval_s;
  opt.sim.attribute_latency = true;
  return ExecutePlan(plan, cluster, opt);
}

// --- latency attribution -------------------------------------------------

TEST(LatencyBreakdownTest, ComponentsTelescopeToMeanLatencyLinear) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LatencyBreakdown& b = r->breakdown;
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.samples, r->latency.Count());
  EXPECT_GT(b.total_s, 0.0);
  // The engine charges every interval of an element's life to exactly one
  // component, so the sum matches the recorded mean to rounding error —
  // far inside the 5% the acceptance criterion allows.
  EXPECT_NEAR(b.ComponentSum(), b.total_s, 1e-9 + 1e-6 * b.total_s);
  EXPECT_NEAR(b.total_s, r->mean_latency_s, 1e-9 + 1e-6 * b.total_s);
  // A windowed aggregate dominates this plan's latency.
  EXPECT_GT(b.window_s, 0.0);
}

TEST(LatencyBreakdownTest, ComponentsTelescopeOnJoinPlan) {
  auto plan = testing::TwoWayJoinPlan(1500.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LatencyBreakdown& b = r->breakdown;
  ASSERT_FALSE(b.empty());
  EXPECT_NEAR(b.ComponentSum(), b.total_s, 1e-9 + 1e-6 * b.total_s);
  // Join buffering shows up as window residency of the earlier partner.
  EXPECT_GT(b.window_s, 0.0);
  EXPECT_GT(b.source_batch_s, 0.0);
}

TEST(LatencyBreakdownTest, PerOperatorComponentsArePopulated) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool some_service = false;
  bool some_source_batch = false;
  for (size_t i = 0; i < r->op_stats.size(); ++i) {
    const OperatorLatencyStats& l = r->op_stats[i].latency;
    some_service |= l.service_n > 0;
    some_source_batch |= l.source_batch_n > 0;
    EXPECT_GE(l.MeanPathCost(), 0.0);
  }
  EXPECT_TRUE(some_service);
  EXPECT_TRUE(some_source_batch);
  // Sources charge source-batching, never queue wait.
  const auto src = plan->FindOperator("src");
  ASSERT_TRUE(src.ok());
  EXPECT_GT(r->op_stats[*src].latency.source_batch_n, 0);
  EXPECT_EQ(r->op_stats[*src].latency.queue_wait_n, 0);
}

// --- critical path -------------------------------------------------------

TEST(CriticalPathTest, FollowsDagFromSourceToSink) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::CriticalPath path = obs::ComputeCriticalPath(*plan, *r);
  // Linear plan: the path is the whole chain.
  ASSERT_EQ(path.hops.size(), plan->NumOperators());
  EXPECT_EQ(plan->op(path.hops.front().op).type, OperatorType::kSource);
  EXPECT_EQ(path.hops.back().op, plan->SinkId());
  EXPECT_GT(path.total_s, 0.0);
  double share_sum = 0.0;
  double cost_sum = 0.0;
  for (const obs::CriticalPathHop& hop : path.hops) {
    share_sum += hop.share;
    cost_sum += hop.cost_s;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_NEAR(cost_sum, path.total_s, 1e-9 + 1e-9 * path.total_s);
}

TEST(CriticalPathTest, JoinPlanPicksOneBranch) {
  auto plan = testing::TwoWayJoinPlan(1500.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::CriticalPath path = obs::ComputeCriticalPath(*plan, *r);
  // src -> filter -> join -> sink: one branch of the diamond, not both.
  ASSERT_EQ(path.hops.size(), 4u);
  EXPECT_EQ(plan->op(path.hops.front().op).type, OperatorType::kSource);
  EXPECT_EQ(path.hops.back().op, plan->SinkId());
  // Consecutive hops must be connected in the DAG.
  for (size_t i = 1; i < path.hops.size(); ++i) {
    const auto inputs = plan->Inputs(path.hops[i].op);
    EXPECT_NE(std::find(inputs.begin(), inputs.end(), path.hops[i - 1].op),
              inputs.end());
  }
}

// --- rule engine ---------------------------------------------------------

TEST(DiagnoseTest, SaturatedJoinGetsR101WithParallelismHint) {
  // Under-provisioned: join at parallelism 1 under a rate it cannot absorb.
  auto plan = testing::TwoWayJoinPlan(30000.0, 1);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  ASSERT_TRUE(diag->HasCode("PDSP-R101")) << diag->ToString();
  // The saturated operator matches the analytic model's bottleneck.
  const auto join = plan->FindOperator("join");
  ASSERT_TRUE(join.ok());
  bool join_flagged = false;
  for (const analysis::Diagnostic& d : diag->report.diagnostics()) {
    if (d.code != "PDSP-R101") continue;
    EXPECT_EQ(d.severity, analysis::Severity::kError);
    if (d.op == *join) {
      join_flagged = true;
      EXPECT_NE(d.hint.find("raise parallelism"), std::string::npos);
      EXPECT_NE(d.hint.find("`join`"), std::string::npos);
    }
  }
  EXPECT_TRUE(join_flagged) << diag->ToString();
  EXPECT_EQ(diag->analytic_bottleneck_op, *join);
  EXPECT_GT(diag->analytic_max_utilization, 1.0);
}

TEST(DiagnoseTest, WellProvisionedPlanHasNoErrors) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  EXPECT_FALSE(diag->report.HasErrors()) << diag->ToString();
}

TEST(DiagnoseTest, OverProvisionedOperatorGetsR105) {
  // 16 instances for a trickle of tuples.
  auto plan = testing::LinearPlan(500.0, 16);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(8);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  ASSERT_TRUE(diag->HasCode("PDSP-R105")) << diag->ToString();
  for (const analysis::Diagnostic& d : diag->report.diagnostics()) {
    if (d.code == "PDSP-R105") {
      EXPECT_EQ(d.severity, analysis::Severity::kInfo);
      EXPECT_NE(d.hint.find("reduce parallelism"), std::string::npos);
    }
  }
}

TEST(DiagnoseTest, SourceLimitedRunGetsR104) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Synthesize the signal: generation was throttled although nothing is
  // saturated (the in-flight cap bit, not an operator).
  r->backpressure_skipped = 1234;
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  ASSERT_TRUE(diag->HasCode("PDSP-R104")) << diag->ToString();
}

TEST(DiagnoseTest, ShuffleBoundBreakdownGetsR103) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  r->breakdown.samples = 100;
  r->breakdown.network_s = 0.08;
  r->breakdown.queue_s = 0.01;
  r->breakdown.service_s = 0.01;
  r->breakdown.total_s = 0.1;
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  ASSERT_TRUE(diag->HasCode("PDSP-R103")) << diag->ToString();
}

TEST(DiagnoseTest, MonotoneGrowingWatermarkLagGetsR106) {
  auto plan = testing::LinearPlan(2000.0, 1);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(2);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Synthesize a stalled watermark at the aggregate: lag grows by the full
  // sample interval every sample.
  obs::TimeSeries stalled;
  for (int k = 1; k <= 8; ++k) {
    obs::TimeSeriesRow row;
    row.time_s = 0.25 * k;
    row.op = "agg";
    row.watermark_lag_s = 0.25 * k;
    stalled.Append(row);
  }
  r->timeseries = stalled;
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  ASSERT_TRUE(diag->HasCode("PDSP-R106")) << diag->ToString();
}

// --- serialization & artifacts -------------------------------------------

TEST(DiagnoseTest, ToJsonRoundTripsThroughParser) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();
  auto parsed = Json::Parse(diag->ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE((*parsed)["breakdown"].is_object());
  EXPECT_TRUE((*parsed)["critical_path"]["hops"].is_array());
  EXPECT_TRUE((*parsed)["report"].is_object());
  EXPECT_TRUE((*parsed)["analytic"].is_object());
  EXPECT_NEAR((*parsed)["breakdown"]["total_s"].AsNumber(),
              r->breakdown.total_s, 1e-9);
}

TEST(DiagnoseTest, ArtifactBundleIncludesDiagnosisJsonAtomically) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  const Cluster cluster = Cluster::M510(4);
  auto r = RunSim(*plan, cluster);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto diag = obs::DiagnoseRun(*plan, cluster, *r);
  ASSERT_TRUE(diag.ok()) << diag.status().ToString();

  const std::string dir =
      ::testing::TempDir() + "/pdsp_diagnosis_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  obs::ArtifactOptions artifacts;
  artifacts.diagnosis = &*diag;
  Status st = obs::WriteRunArtifacts(dir, *r, artifacts);
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::ifstream in(dir + "/diagnosis.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = Json::Parse(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE((*doc)["critical_path"].is_object());
  // Atomic writes leave no .tmp files behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << entry.path() << " (no .tmp residue expected)";
  }
}

// --- satellite regressions ----------------------------------------------

TEST(RunMetricsJsonTest, HistogramsCarryPercentilesAlongsideBuckets) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = RunSim(*plan, Cluster::M510(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Json doc = obs::RunMetricsJson(*r);
  const Json& hist =
      doc["metrics"]["histograms"]["pdsp.sim.sink_latency_seconds"];
  ASSERT_TRUE(hist.is_object());
  EXPECT_TRUE(hist["buckets"].is_array());
  EXPECT_GT(hist["buckets"].size(), 0u);
  for (const char* pct : {"p50", "p95", "p99"}) {
    SCOPED_TRACE(pct);
    ASSERT_TRUE(hist[pct].is_number());
    EXPECT_GT(hist[pct].AsNumber(), 0.0);
  }
  // Percentiles must be ordered and bracket the recorded median loosely
  // (the histogram is exponential-bucketed, so allow bucket-width slack).
  EXPECT_LE(hist["p50"].AsNumber(), hist["p95"].AsNumber());
  EXPECT_LE(hist["p95"].AsNumber(), hist["p99"].AsNumber());
  // Per-operator latency components ride along in "operators".
  ASSERT_TRUE(doc["operators"].is_array());
  EXPECT_TRUE(doc["operators"].at(0)["latency"].is_object());
  // The run-level breakdown lands in the summary.
  EXPECT_TRUE(doc["summary"]["latency_breakdown"].is_object());
}

TEST(TimeSeriesFinalSampleTest, IntervalLongerThanDurationStillSamples) {
  // Regression: metrics_interval_s > duration_s used to produce zero rows.
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt;
  opt.sim.duration_s = 1.0;
  opt.sim.warmup_s = 0.25;
  opt.sim.metrics_interval_s = 5.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->timeseries.empty());
  const std::vector<double> times = r->timeseries.SampleTimes();
  ASSERT_EQ(times.size(), 1u);
  // The single sample covers the whole run (duration or drain end).
  EXPECT_GE(times[0], 1.0);
  for (const obs::TimeSeriesRow& row : r->timeseries.rows()) {
    EXPECT_GE(row.utilization, 0.0);
    EXPECT_LE(row.utilization, 1.0);
  }
}

TEST(TimeSeriesFinalSampleTest, FinalSampleCoversDrainTail) {
  auto plan = testing::LinearPlan(2000.0, 2);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt;
  opt.sim.duration_s = 2.0;
  opt.sim.warmup_s = 0.25;
  opt.sim.metrics_interval_s = 0.25;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<double> times = r->timeseries.SampleTimes();
  ASSERT_FALSE(times.empty());
  // Last sample sits at the end of the run, past or at duration_s.
  EXPECT_GE(times.back(), 2.0);
  EXPECT_NEAR(times.back(), std::max(2.0, r->virtual_time_end), 1e-9);
}

}  // namespace
}  // namespace pdsp
