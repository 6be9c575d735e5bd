// One deliberately broken plan per lint pass, asserting the expected stable
// diagnostic code fires (and, for the error codes, that the analyzer's
// CheckPlan gate rejects the plan). Plans that LogicalPlan::Validate() would
// itself refuse are hand-assembled and analyzed unvalidated — the analyzer
// must tolerate structurally broken plans by contract.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.h"
#include "src/cluster/cluster.h"
#include "src/query/builder.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace analysis {
namespace {

using pdsp::testing::KeyValueStream;
using pdsp::testing::PoissonArrival;

AnalyzeOptions Quiet() {
  AnalyzeOptions options;
  options.record_metrics = false;
  return options;
}

// Raw descriptor helpers for hand-assembled (unvalidated) plans.
OperatorDescriptor Op(OperatorType type, const std::string& name) {
  OperatorDescriptor op;
  op.type = type;
  op.name = name;
  return op;
}

LogicalPlan::OpId MustAdd(LogicalPlan* plan, OperatorDescriptor op) {
  auto id = plan->AddOperator(std::move(op));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return *id;
}

// src -> window_agg -> sink with a caller-tweaked window, built through the
// builder with the analysis gate off.
LogicalPlan AggPlanWithWindow(const WindowSpec& window) {
  PlanBuilder b;
  auto src = b.Source("src", KeyValueStream(), PoissonArrival(100.0));
  auto agg = b.WindowAggregate("agg", src, window, AggregateFn::kSum, 1, 0);
  b.Sink("sink", agg);
  b.SkipAnalysis();
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *std::move(plan);
}

TEST(DeadOperatorPassTest, CycleYieldsE101) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  auto m1 = MustAdd(&plan, Op(OperatorType::kMap, "m1"));
  auto m2 = MustAdd(&plan, Op(OperatorType::kMap, "m2"));
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, m1).ok());
  ASSERT_TRUE(plan.Connect(m1, m2).ok());
  ASSERT_TRUE(plan.Connect(m2, m1).ok());  // back edge
  ASSERT_TRUE(plan.Connect(m2, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E101")) << report.ToString();
  EXPECT_FALSE(CheckPlan(plan).ok());
}

TEST(DeadOperatorPassTest, MissingSinkYieldsE102) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  auto m = MustAdd(&plan, Op(OperatorType::kMap, "m"));
  ASSERT_TRUE(plan.Connect(s, m).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E102")) << report.ToString();
}

TEST(DeadOperatorPassTest, SecondSinkYieldsE103) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  auto k1 = MustAdd(&plan, Op(OperatorType::kSink, "k1"));
  auto k2 = MustAdd(&plan, Op(OperatorType::kSink, "k2"));
  ASSERT_TRUE(plan.Connect(s, k1).ok());
  ASSERT_TRUE(plan.Connect(s, k2).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E103")) << report.ToString();
}

TEST(DeadOperatorPassTest, UnreachableOperatorYieldsE104) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  auto orphan = MustAdd(&plan, Op(OperatorType::kMap, "orphan"));
  ASSERT_TRUE(plan.Connect(s, k).ok());
  ASSERT_TRUE(plan.Connect(orphan, k).ok());  // no input: not source-fed
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E104")) << report.ToString();
}

TEST(DeadOperatorPassTest, DeadEndOperatorYieldsE105) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  auto dead = MustAdd(&plan, Op(OperatorType::kMap, "dead"));
  ASSERT_TRUE(plan.Connect(s, k).ok());
  ASSERT_TRUE(plan.Connect(s, dead).ok());  // output goes nowhere
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E105")) << report.ToString();
}

TEST(WindowLegalityPassTest, NonPositiveDurationYieldsE201) {
  WindowSpec w;
  w.policy = WindowPolicy::kTime;
  w.duration_ms = 0.0;
  const AnalysisReport report = AnalyzePlan(AggPlanWithWindow(w), Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E201")) << report.ToString();
}

TEST(WindowLegalityPassTest, NonPositiveLengthYieldsE202) {
  WindowSpec w;
  w.policy = WindowPolicy::kCount;
  w.length_tuples = 0;
  const AnalysisReport report = AnalyzePlan(AggPlanWithWindow(w), Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E202")) << report.ToString();
}

TEST(WindowLegalityPassTest, SlideBeyondSizeYieldsE203) {
  WindowSpec w;
  w.type = WindowType::kSliding;
  w.slide_ratio = 1.5;
  const AnalysisReport report = AnalyzePlan(AggPlanWithWindow(w), Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E203")) << report.ToString();
}

TEST(WindowLegalityPassTest, NonPositiveSlideYieldsE204) {
  WindowSpec w;
  w.type = WindowType::kSliding;
  w.slide_ratio = 0.0;
  const AnalysisReport report = AnalyzePlan(AggPlanWithWindow(w), Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E204")) << report.ToString();
}

TEST(WindowLegalityPassTest, DegenerateSlideYieldsW205) {
  WindowSpec w;
  w.type = WindowType::kSliding;
  w.slide_ratio = 1.0;
  const AnalysisReport report = AnalyzePlan(AggPlanWithWindow(w), Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W205")) << report.ToString();
  EXPECT_FALSE(report.HasErrors()) << report.ToString();  // warn, not error
}

TEST(JoinKeyTypesPassTest, MismatchedKeyTypesYieldE301) {
  PlanBuilder b;
  auto s1 = b.Source("s1", KeyValueStream(), PoissonArrival(100.0));
  auto s2 = b.Source("s2", KeyValueStream(), PoissonArrival(100.0));
  WindowSpec w;
  // left key: field 0 (int); right key: field 1 (double).
  auto j = b.WindowJoin("join", s1, s2, 0, 1, w);
  b.Sink("sink", j);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E301")) << report.ToString();
  EXPECT_FALSE(CheckPlan(*plan).ok());
}

TEST(JoinKeyTypesPassTest, DoubleKeysYieldW302) {
  PlanBuilder b;
  auto s1 = b.Source("s1", KeyValueStream(), PoissonArrival(100.0));
  auto s2 = b.Source("s2", KeyValueStream(), PoissonArrival(100.0));
  WindowSpec w;
  auto j = b.WindowJoin("join", s1, s2, 1, 1, w);  // both keys double
  b.Sink("sink", j);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W302")) << report.ToString();
}

TEST(FieldRefsPassTest, FilterFieldOutOfRangeYieldsE401) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  OperatorDescriptor filter = Op(OperatorType::kFilter, "f");
  filter.filter_field = 99;  // schema has 2 fields
  auto f = MustAdd(&plan, filter);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, f).ok());
  ASSERT_TRUE(plan.Connect(f, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E401")) << report.ToString();
}

TEST(FieldRefsPassTest, AggFieldAndKeyOutOfRangeYieldE402E403) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  OperatorDescriptor agg = Op(OperatorType::kWindowAggregate, "agg");
  agg.input_partitioning = Partitioning::kHash;
  agg.agg_field = 7;
  agg.key_field = 9;
  auto a = MustAdd(&plan, agg);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, a).ok());
  ASSERT_TRUE(plan.Connect(a, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E402")) << report.ToString();
  EXPECT_TRUE(report.HasCode("PDSP-E403")) << report.ToString();
}

TEST(FieldRefsPassTest, JoinKeyOutOfRangeYieldsE404) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s1 = MustAdd(&plan, Op(OperatorType::kSource, "s1"));
  auto s2 = MustAdd(&plan, Op(OperatorType::kSource, "s2"));
  OperatorDescriptor join = Op(OperatorType::kWindowJoin, "j");
  join.input_partitioning = Partitioning::kHash;
  join.join_left_key = 11;
  auto j = MustAdd(&plan, join);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s1, j).ok());
  ASSERT_TRUE(plan.Connect(s2, j).ok());
  ASSERT_TRUE(plan.Connect(j, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E404")) << report.ToString();
}

TEST(FieldRefsPassTest, SourceIndexOutOfRangeYieldsE405) {
  LogicalPlan plan;  // no sources bound at all
  OperatorDescriptor src = Op(OperatorType::kSource, "s");
  src.source_index = 3;
  auto s = MustAdd(&plan, src);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E405")) << report.ToString();
}

TEST(FilterLiteralPassTest, StringLiteralOnNumericFieldYieldsW501) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value("fifty"));
  b.Sink("sink", f);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W501")) << report.ToString();
}

TEST(FilterLiteralPassTest, NonFiniteLiteralYieldsE502) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto f = b.Filter("f", s, 1, FilterOp::kGt,
                    Value(std::numeric_limits<double>::quiet_NaN()));
  b.Sink("sink", f);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E502")) << report.ToString();
  // The NaN literal makes the proven input rate NaN, which is no bound:
  // no over-saturation warning with a NaN rate and a wrapped degree.
  EXPECT_FALSE(report.HasCode("PDSP-W605")) << report.ToString();
}

TEST(SelectivityRangePassTest, FilterHintAboveOneYieldsW601) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value(50.0));
  b.WithSelectivityHint(f, 2.5);
  b.Sink("sink", f);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W601")) << report.ToString();
}

TEST(SelectivityRangePassTest, NaNFilterHintYieldsE602) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value(50.0));
  b.WithSelectivityHint(f, std::numeric_limits<double>::quiet_NaN());
  b.Sink("sink", f);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E602")) << report.ToString();
}

TEST(SelectivityRangePassTest, NegativeHintIsUnknownNotError) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value(50.0));
  b.WithSelectivityHint(f, -1.0);  // documented "unknown" sentinel
  b.Sink("sink", f);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_FALSE(report.HasCode("PDSP-E602")) << report.ToString();
  EXPECT_FALSE(report.HasCode("PDSP-W601")) << report.ToString();
}

TEST(SelectivityRangePassTest, NegativeFlatMapFanoutYieldsE603) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto fm = b.FlatMap("fm", s, -2.0);
  b.Sink("sink", fm);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E603")) << report.ToString();
}

TEST(SelectivityRangePassTest, JoinHintAboveOneYieldsW604) {
  auto plan = pdsp::testing::TwoWayJoinPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto join = plan->FindOperator("join");
  ASSERT_TRUE(join.ok());
  plan->mutable_op(*join)->join_selectivity_hint = 3.0;
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W604")) << report.ToString();
}

TEST(SelectivityRangePassTest, InfiniteJoinHintYieldsE605) {
  auto plan = pdsp::testing::TwoWayJoinPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto join = plan->FindOperator("join");
  ASSERT_TRUE(join.ok());
  plan->mutable_op(*join)->join_selectivity_hint =
      std::numeric_limits<double>::infinity();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E605")) << report.ToString();
}

TEST(SelectivityRangePassTest, BadUdoNumbersYieldE606E607) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto u = b.Udo("u", s, "some_kind", /*cost_factor=*/-1.0,
                 /*selectivity=*/-0.5);
  b.Sink("sink", u);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E606")) << report.ToString();
  EXPECT_TRUE(report.HasCode("PDSP-E607")) << report.ToString();
}

TEST(RepartitionPassTest, KeyedOperatorWithoutHashInputYieldsE701) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  OperatorDescriptor agg = Op(OperatorType::kWindowAggregate, "agg");
  agg.key_field = 0;
  agg.agg_field = 1;
  agg.input_partitioning = Partitioning::kRebalance;  // must be hash
  auto a = MustAdd(&plan, agg);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, a).ok());
  ASSERT_TRUE(plan.Connect(a, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E701")) << report.ToString();
}

TEST(RepartitionPassTest, ShuffleIntoRekeyedMapYieldsW702) {
  // src -> map (rebalance shuffle) -> keyed agg (hash): the map's shuffle
  // is redundant because its only consumer re-keys immediately.
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto m = b.Map("m", s);
  WindowSpec w;
  auto agg = b.WindowAggregate("agg", m, w, AggregateFn::kSum, 1, 0);
  b.Sink("sink", agg);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W702")) << report.ToString();
}

TEST(RepartitionPassTest, ForwardAcrossUnequalParallelismYieldsW703) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0), 4);
  auto m = b.Map("m", s, 2);
  b.WithPartitioning(m, Partitioning::kForward);
  b.Sink("sink", m);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W703")) << report.ToString();
}

TEST(UdoChecksPassTest, EmptyKindYieldsE801) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto u = b.Udo("u", s, "");
  b.Sink("sink", u);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E801")) << report.ToString();
}

TEST(UdoChecksPassTest, UnregisteredKindYieldsW802) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  auto u = b.Udo("u", s, "definitely_not_registered_kind");
  b.Sink("sink", u);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W802")) << report.ToString();
}

TEST(UdoChecksPassTest, StatefulUdoOnGlobalAggregateYieldsW803) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  WindowSpec w;
  auto agg = b.WindowAggregate("agg", s, w, AggregateFn::kSum, 1,
                               OperatorDescriptor::kNoKey);
  auto u = b.Udo("u", agg, "some_kind", 1.0, 1.0, /*stateful=*/true);
  b.Sink("sink", u);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W803")) << report.ToString();
}

TEST(ParallelismFeasibilityPassTest, NeedsClusterToRun) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0), 4096);
  b.Sink("sink", s);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport without = AnalyzePlan(*plan, Quiet());
  EXPECT_FALSE(without.HasCode("PDSP-W901")) << without.ToString();

  const Cluster cluster = Cluster::M510(2);
  AnalyzeOptions options = Quiet();
  options.cluster = &cluster;
  const AnalysisReport with = AnalyzePlan(*plan, options);
  EXPECT_TRUE(with.HasCode("PDSP-W901")) << with.ToString();
  EXPECT_TRUE(with.HasCode("PDSP-W902")) << with.ToString();
}

TEST(ParallelismFeasibilityPassTest, MildOversubscriptionYieldsI903) {
  const Cluster cluster = Cluster::M510(1);
  const int slots = cluster.TotalCores();
  PlanBuilder b;
  // Total parallelism in (slots, 2*slots]: info, not warning.
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0), slots);
  b.Sink("sink", s, 1);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  AnalyzeOptions options = Quiet();
  options.cluster = &cluster;
  const AnalysisReport report = AnalyzePlan(*plan, options);
  EXPECT_TRUE(report.HasCode("PDSP-I903")) << report.ToString();
  EXPECT_FALSE(report.HasCode("PDSP-W902")) << report.ToString();
}

TEST(SinkIoPassTest, MismatchedSinkInputsYieldE010) {
  LogicalPlan plan;
  plan.AddSource({KeyValueStream(), PoissonArrival(10)});
  auto s = MustAdd(&plan, Op(OperatorType::kSource, "s"));
  OperatorDescriptor agg = Op(OperatorType::kWindowAggregate, "agg");
  agg.input_partitioning = Partitioning::kHash;
  agg.key_field = 0;
  agg.agg_field = 1;
  auto a = MustAdd(&plan, agg);
  auto k = MustAdd(&plan, Op(OperatorType::kSink, "k"));
  ASSERT_TRUE(plan.Connect(s, a).ok());
  // Sink merges the raw stream (key:int, val:double) with the aggregate
  // output (key:int, agg:double) — different schemas.
  ASSERT_TRUE(plan.Connect(s, k).ok());
  ASSERT_TRUE(plan.Connect(a, k).ok());
  const AnalysisReport report = AnalyzePlan(plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-E010")) << report.ToString();
}

TEST(SinkIoPassTest, WideSinkYieldsW011) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100.0));
  b.Sink("sink", s, /*parallelism=*/4);
  b.SkipAnalysis();
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AnalysisReport report = AnalyzePlan(*plan, Quiet());
  EXPECT_TRUE(report.HasCode("PDSP-W011")) << report.ToString();
}

}  // namespace
}  // namespace analysis
}  // namespace pdsp
