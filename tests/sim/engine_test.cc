// Engine regressions. The per-kind event counters must split
// events_processed exactly, and results are pinned bit for bit for the plan
// shapes whose routing and watermark channels the engine maps through flat
// per-edge tables. The pinned values are simulated (virtual-time) results,
// so a change that only makes events cheaper leaves every one unchanged.

#include <gtest/gtest.h>

#include <string>

#include "src/apps/apps.h"
#include "src/harness/synthetic_suite.h"
#include "src/query/builder.h"
#include "src/sim/simulation.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::KeyValueStream;
using testing::PoissonArrival;

// The linear cell of the fanout-p64 benchmark workload: every operator at
// p=64, so most sub-batches carry one row or none.
TEST(EngineTest, EventCountsSplitEventsProcessedByKind) {
  CanonicalOptions plan_options;
  plan_options.event_rate = 200e3;
  plan_options.parallelism = 64;
  auto plan =
      MakeCanonicalSynthetic(SyntheticStructure::kLinear, plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 1.5;
  opt.sim.warmup_s = 0.375;
  opt.sim.seed = 42;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const SimEventCounts& c = r->event_counts;
  EXPECT_EQ(c.source_batch + c.delivery + c.wm_delivery + c.ready,
            r->events_processed);
  EXPECT_EQ(r->events_processed, 1356412);
  EXPECT_EQ(c.source_batch, 19264);
  EXPECT_EQ(c.delivery, 451039);
  EXPECT_EQ(c.wm_delivery, 217471);
  EXPECT_EQ(c.ready, 668638);

  const obs::MetricsRegistry& reg = *r->metrics;
  EXPECT_EQ(reg.CounterValue("pdsp.sim.events.source_batch"), c.source_batch);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.events.delivery"), c.delivery);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.events.wm_delivery"), c.wm_delivery);
  EXPECT_EQ(reg.CounterValue("pdsp.sim.events.ready"), c.ready);
}

// The same linear plan at p=16 with attribution on: a wide hash fan-out
// whose deliveries carry about two rows each, plus watermark-only ones, so
// every charge point runs on the tiny sub-batches of the fanout cell.
TEST(EngineTest, AttributedFanOutResultsArePinned) {
  CanonicalOptions plan_options;
  plan_options.event_rate = 200e3;
  plan_options.parallelism = 16;
  auto plan =
      MakeCanonicalSynthetic(SyntheticStructure::kLinear, plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 1.0;
  opt.sim.warmup_s = 0.25;
  opt.sim.seed = 42;
  opt.sim.attribute_latency = true;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const SimEventCounts& c = r->event_counts;
  EXPECT_EQ(c.source_batch, 3200);
  EXPECT_EQ(c.delivery, 146555);
  EXPECT_EQ(c.wm_delivery, 4995);
  EXPECT_EQ(c.ready, 151566);
  EXPECT_EQ(r->sink_tuples, 1000);
  EXPECT_EQ(r->median_latency_s, 0.99550027293333465);
  EXPECT_EQ(r->p95_latency_s, 1.0028604340444456);
  EXPECT_EQ(r->p99_latency_s, 1.0037575009207564);
  EXPECT_EQ(r->mean_latency_s, 0.99110816132445156);
  const LatencyBreakdown& bd = r->breakdown;
  EXPECT_EQ(bd.source_batch_s, 0.0031767801324504501);
  EXPECT_EQ(bd.network_s, 0.00041310899520001466);
  EXPECT_EQ(bd.queue_s, 0.0010683163776005005);
  EXPECT_EQ(bd.service_s, 0.00075926096400006369);
  EXPECT_EQ(bd.window_s, 0.98569069485519911);
}

// WC at p=64 and 100k ev/s with attribution on: tokenize's words fan out
// to 64 word_counts instances in deliveries of one to three string rows,
// and the hottest word's instance queues over 20,000 of those rows at once,
// so every charge point and every text row runs on deliveries that share
// their receiver's pooled batches.
TEST(EngineTest, BackloggedWordCountFanOutIsPinned) {
  AppOptions app;
  app.event_rate = 100e3;
  app.parallelism = 64;
  auto plan = MakeApp(AppId::kWordCount, app);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 0.2;
  opt.sim.warmup_s = 0.05;
  opt.sim.seed = 42;
  opt.sim.attribute_latency = true;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const SimEventCounts& c = r->event_counts;
  EXPECT_EQ(r->events_processed, 435568);
  EXPECT_EQ(c.source_batch, 2560);
  EXPECT_EQ(c.delivery, 178286);
  EXPECT_EQ(c.wm_delivery, 38186);
  EXPECT_EQ(c.ready, 216536);
  EXPECT_EQ(r->sink_tuples, 15093);
  EXPECT_EQ(r->median_latency_s, 0.39432690082143507);
  EXPECT_EQ(r->p95_latency_s, 1.3304601342324203);
  EXPECT_EQ(r->p99_latency_s, 3.129585394460273);
  EXPECT_EQ(r->mean_latency_s, 0.51729729985054662);
  const LatencyBreakdown& bd = r->breakdown;
  EXPECT_EQ(bd.source_batch_s, 0.0030860839145379479);
  EXPECT_EQ(bd.network_s, 0.00055983948423112451);
  EXPECT_EQ(bd.queue_s, 0.23411259505270193);
  EXPECT_EQ(bd.service_s, 0.009852111800533447);
  EXPECT_EQ(bd.window_s, 0.26968666959854243);
  const OperatorRunStats* counts = nullptr;
  for (const OperatorRunStats& s : r->op_stats) {
    if (s.name == "word_counts") counts = &s;
  }
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->max_queue_tuples, 21378u);
  EXPECT_EQ(counts->tuples_in, 179566);
}

struct Pinned {
  int64_t source_tuples;
  int64_t sink_tuples;
  int64_t events_processed;
  double p50;
  double p95;
  double p99;
  double mean;
  // watermark_lag_s summed over the fan-in operator's time-series rows: its
  // input watermark is the min over its channel slots at every sample.
  double lag_sum;
};

void ExpectPinned(const Result<LogicalPlan>& plan,
                  const std::string& fan_in_op, const Pinned& want) {
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 2.0;
  opt.sim.warmup_s = 0.5;
  opt.sim.seed = 7;
  opt.sim.attribute_latency = true;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->source_tuples, want.source_tuples);
  EXPECT_EQ(r->sink_tuples, want.sink_tuples);
  EXPECT_EQ(r->events_processed, want.events_processed);
  EXPECT_EQ(r->median_latency_s, want.p50);
  EXPECT_EQ(r->p95_latency_s, want.p95);
  EXPECT_EQ(r->p99_latency_s, want.p99);
  EXPECT_EQ(r->mean_latency_s, want.mean);
  double lag_sum = 0.0;
  for (const obs::TimeSeriesRow& row : r->timeseries.rows()) {
    if (row.op == fan_in_op) lag_sum += row.watermark_lag_s;
  }
  EXPECT_EQ(lag_sum, want.lag_sum);
}

// Both join ports trace back to one source operator: a forward filter at
// the source's parallelism feeds the left port, a rebalanced filter at half
// of it the right one, and the join runs at a third degree. (A join fed on
// both ports by literally one operator cannot be built: a plan rejects a
// duplicate edge.)
TEST(EngineTest, DiamondJoinResultsArePinned) {
  PlanBuilder b;
  auto src = b.Source("src", KeyValueStream(50), PoissonArrival(4000.0), 4);
  auto lo = b.Filter("lo", src, 1, FilterOp::kLt, Value(60.0), 4);
  b.WithPartitioning(lo, Partitioning::kForward);
  auto hi = b.Filter("hi", src, 1, FilterOp::kGt, Value(40.0), 2);
  WindowSpec win;
  win.duration_ms = 200.0;
  auto join = b.WindowJoin("join", lo, hi, 0, 0, win, 3);
  b.Sink("sink", join);
  ExpectPinned(b.Build(), "join",
               {8017, 219478, 39264, 0.10304270240000002, 0.19322179139999929,
                0.20146609224190493, 0.10300430114737075,
                0.32000000000014295});
}

// One receiver mixes a forward edge (a single slot: its partner instance)
// with a rebalance edge from an operator at half its degree (one slot per
// sender; forward degrades to rebalance when the degrees differ).
TEST(EngineTest, MixedForwardRebalanceFanInResultsArePinned) {
  PlanBuilder b;
  auto s1 = b.Source("s1", KeyValueStream(), PoissonArrival(3000.0), 4);
  auto m1 = b.Map("m1", s1, 4);
  b.WithPartitioning(m1, Partitioning::kForward);
  auto s2 = b.Source("s2", KeyValueStream(), PoissonArrival(2000.0), 2);
  auto m2 = b.Map("m2", s2, 2);
  auto sink = b.Sink("sink", m1, 4);
  b.WithPartitioning(sink, Partitioning::kForward);
  b.ConnectExtra(m2, sink);
  ExpectPinned(b.Build(), "sink",
               {10161, 10161, 19922, 0.002575000000000105,
                0.0048372520000000471, 0.0051778743999999488,
                0.0027255109930634613, 0.20000000000019347});
}

}  // namespace
}  // namespace pdsp
