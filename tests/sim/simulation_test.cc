#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/query/cardinality.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::KeyValueStream;
using testing::PoissonArrival;

// source -> filter(val>50) -> sink, no windows: latency should be tiny.
Result<LogicalPlan> FilterOnlyPlan(double rate, int parallelism) {
  PlanBuilder b;
  auto s = b.Source("src", KeyValueStream(), PoissonArrival(rate),
                    parallelism);
  auto f = b.Filter("filter", s, 1, FilterOp::kGt, Value(50.0), parallelism);
  b.Sink("sink", f, 1);
  return b.Build();
}

ExecutionOptions FastOptions(uint64_t seed = 42) {
  ExecutionOptions opt;
  opt.sim.duration_s = 4.0;
  opt.sim.warmup_s = 1.0;
  opt.sim.seed = seed;
  return opt;
}

TEST(SimulationTest, FilterOnlyThroughputMatchesSelectivity) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sink sees ~rate * 0.5 tuples/s.
  EXPECT_NEAR(r->throughput_tps, 5000.0, 500.0);
  EXPECT_GT(r->sink_tuples, 0);
  EXPECT_EQ(r->late_drops, 0);
}

TEST(SimulationTest, FilterOnlyLatencyIsSubSecond) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->median_latency_s, 0.0);
  EXPECT_LT(r->median_latency_s, 0.2);
  EXPECT_LE(r->median_latency_s, r->p95_latency_s);
}

TEST(SimulationTest, DeterministicForSameSeed) {
  auto plan = FilterOnlyPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto a = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  auto b = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->sink_tuples, b->sink_tuples);
  EXPECT_DOUBLE_EQ(a->median_latency_s, b->median_latency_s);
  EXPECT_EQ(a->events_processed, b->events_processed);
}

TEST(SimulationTest, DifferentSeedsDiffer) {
  auto plan = FilterOnlyPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto a = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  auto b = ExecutePlan(*plan, Cluster::M510(4), FastOptions(8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->sink_tuples, b->sink_tuples);
}

TEST(SimulationTest, WindowedPlanLatencyIncludesWindowTime) {
  // 1s tumbling window: median end-to-end latency must exceed ~0.5s (mean
  // residence) and be below a few seconds when unsaturated.
  auto plan = testing::LinearPlan(/*rate=*/5000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 6.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->median_latency_s, 0.4);
  EXPECT_LT(r->median_latency_s, 3.0);
}

TEST(SimulationTest, WindowedAggregateOutputRateMatchesKeys) {
  // 100 keys, 1s tumbling window -> ~100 results/s at the sink.
  auto plan = testing::LinearPlan(/*rate=*/20000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 6.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->throughput_tps, 100.0, 30.0);
}

TEST(SimulationTest, SaturationRaisesLatency) {
  // One source instance at 150k/s runs at ~75% utilization on an m510 core
  // (5us/tuple); eight instances are far from saturation. Parallelism must
  // cut latency materially.
  auto slow = FilterOnlyPlan(150000.0, 1);
  auto fast = FilterOnlyPlan(150000.0, 8);
  ASSERT_TRUE(slow.ok() && fast.ok());
  auto r_slow = ExecutePlan(*slow, Cluster::M510(4), FastOptions());
  auto r_fast = ExecutePlan(*fast, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r_slow.ok() && r_fast.ok());
  EXPECT_GT(r_slow->median_latency_s, r_fast->median_latency_s * 2);
}

TEST(SimulationTest, JoinPlanProducesJoinedTuples) {
  auto plan = testing::TwoWayJoinPlan(/*rate=*/2000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 5.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The skew-aware cardinality model and the DES must agree within ~2x.
  auto cards = CardinalityModel::Compute(*plan);
  ASSERT_TRUE(cards.ok());
  const double predicted = (*cards)[plan->SinkId()].output_rate;
  EXPECT_GT(r->throughput_tps, predicted / 2.0);
  EXPECT_LT(r->throughput_tps, predicted * 2.0);
}

TEST(SimulationTest, OperatorStatsAreCoherent) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->op_stats.size(), 3u);  // src, filter, sink
  const auto& src = r->op_stats[0];
  const auto& filter = r->op_stats[1];
  const auto& sink = r->op_stats[2];
  EXPECT_EQ(src.name, "src");
  EXPECT_GT(src.tuples_out, 0);
  // Filter passes ~50%.
  EXPECT_NEAR(static_cast<double>(filter.tuples_out) / filter.tuples_in, 0.5,
              0.05);
  EXPECT_EQ(sink.tuples_in, r->sink_tuples);
  for (const auto& s : r->op_stats) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.2);
    EXPECT_GE(s.max_instance_util, s.utilization - 1e-9);
  }
}

TEST(SimulationTest, BadOptionsRejected) {
  auto plan = FilterOnlyPlan(100.0, 1);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt;
  opt.sim.duration_s = 0.0;
  EXPECT_FALSE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());
  opt.sim.duration_s = 1.0;
  opt.sim.warmup_s = 2.0;
  EXPECT_FALSE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());
  opt.sim.warmup_s = 0.5;
  ASSERT_TRUE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());

  // Inputs under which virtual time would stand still or run backwards.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto rejected = [&](const ExecutionOptions& o, const Cluster& cluster) {
    return ExecutePlan(*plan, cluster, o).status().IsInvalidArgument();
  };
  for (const double bad : {-2.5e-6, nan, inf}) {
    ExecutionOptions o = opt;
    o.costs.filter_cost = bad;
    EXPECT_TRUE(rejected(o, Cluster::M510(2))) << "filter_cost " << bad;
    o = opt;
    o.costs.local_handoff_latency = bad;
    EXPECT_TRUE(rejected(o, Cluster::M510(2)))
        << "local_handoff_latency " << bad;
  }
  for (const double bad : {0.0, -0.005, nan, inf}) {
    ExecutionOptions o = opt;
    o.sim.source_batch_interval_s = bad;
    EXPECT_TRUE(rejected(o, Cluster::M510(2))) << "interval " << bad;
  }
  for (const double bad : {-150e-6, nan, inf}) {
    Cluster::Options cluster_options;
    cluster_options.link_latency_s = bad;
    Cluster cluster(cluster_options);
    cluster.AddNodes(M510Spec(), 2);
    EXPECT_TRUE(rejected(opt, cluster)) << "link latency " << bad;
  }
  for (const double bad : {0.0, -10.0, nan, inf}) {
    NodeSpec spec = M510Spec();
    spec.nic_gbps = bad;
    Cluster cluster;
    cluster.AddNodes(spec, 2);
    EXPECT_TRUE(rejected(opt, cluster)) << "nic_gbps " << bad;
  }
}

TEST(SimulationTest, PlacementSizeMismatchRejected) {
  auto plan = FilterOnlyPlan(100.0, 1);
  ASSERT_TRUE(plan.ok());
  auto phys = PhysicalPlan::FromLogical(&*plan);
  ASSERT_TRUE(phys.ok());
  Placement bad;
  bad.node_of_task = {0};  // wrong size
  bad.tasks_per_node = {1};
  CostModel costs;
  SimOptions sim;
  EXPECT_TRUE(Simulation::Run(*phys, Cluster::M510(2), bad, costs, sim)
                  .status()
                  .IsInvalidArgument());
}

TEST(SimulationTest, BackpressureSkipsWhenSaturated) {
  // A heavy UDO (20us/tuple ~ 50k/s capacity) fed at 100k/s saturates; with
  // a low in-flight cap the sources must start skipping generation.
  PlanBuilder b;
  auto s = b.Source("src", KeyValueStream(), PoissonArrival(100000.0), 4);
  auto u = b.Udo("udo", s, "heavy", /*cost_factor=*/4.0, 1.0, false, 1);
  b.Sink("sink", u, 1);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 3.0;
  opt.sim.warmup_s = 0.5;
  opt.sim.max_in_flight_tuples = 20000;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->backpressure_skipped, 0);
}

TEST(SimulationTest, SummaryMentionsLatency) {
  auto plan = FilterOnlyPlan(1000.0, 1);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(2), FastOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->Summary().find("latency"), std::string::npos);
}

TEST(SimulationTest, HeterogeneousClusterRunsClean) {
  auto plan = testing::LinearPlan(10000.0, 8);
  ASSERT_TRUE(plan.ok());
  for (const Cluster& cluster :
       {Cluster::C6525(4), Cluster::C6320(4), Cluster::Mixed(6)}) {
    auto r = ExecutePlan(*plan, cluster, FastOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->sink_tuples, 0);
  }
}

TEST(SimulationTest, FasterClusterGivesLowerOrEqualLatencyUnderLoad) {
  // Near-saturating a single m510 core; the faster EPYC cluster should cut
  // queueing delay.
  auto plan = FilterOnlyPlan(80000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto slow = ExecutePlan(*plan, Cluster::M510(2), FastOptions());
  auto fast = ExecutePlan(*plan, Cluster::C6525(2), FastOptions());
  ASSERT_TRUE(slow.ok() && fast.ok());
  EXPECT_LT(fast->median_latency_s, slow->median_latency_s);
}

}  // namespace
}  // namespace pdsp
