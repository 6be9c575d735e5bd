// Property tests over the operator runtime: semantic invariants that hold
// for arbitrary inputs — aggregate totals match processed tuples, joins are
// symmetric in their inputs, filters partition their input, window panes
// never double-count.

#include <gtest/gtest.h>

#include <cmath>

#include "src/runtime/operators.h"
#include "tests/testing/operator_driver.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::DriveOperator;
using testing::KeyValueStream;
using testing::PoissonArrival;
using testing::Row;

Row Elem(int64_t key, double val, double t) {
  return testing::MakeRow({Value(key), Value(val)}, t);
}

LogicalPlan* AggPlan(WindowSpec win, AggregateFn fn) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto a = b.WindowAggregate("agg", s, win, fn, 1, 0);
  b.Sink("k", a);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok());
  static LogicalPlan kept;
  kept = std::move(*plan);
  return &kept;
}

// Tumbling SUM over all keys equals the sum of all processed values.
TEST(AggConservationTest, TumblingSumIsLossless) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  LogicalPlan* plan = AggPlan(win, AggregateFn::kSum);
  auto inst = DriveOperator(*plan, "agg");
  ASSERT_TRUE(inst.ok());
  Rng rng(5);
  double total_in = 0.0;
  const auto& out = inst->out();
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.Uniform(0.0, 10.0);
    const double t = rng.Uniform(0.0, 10.0);
    total_in += v;
    ASSERT_TRUE(inst->Push(Elem(rng.UniformInt(1, 50), v, t), 0, t).ok());
  }
  inst->Flush();
  double total_out = 0.0;
  for (const Row& e : out) {
    total_out += e.tuple.values[1].AsDouble();
  }
  EXPECT_NEAR(total_out, total_in, 1e-6);
  EXPECT_EQ(inst->op()->LateDrops(), 0);
}

// Sliding windows with slide ratio r count every element 1/r times.
TEST(AggConservationTest, SlidingOverlapMultiplicity) {
  WindowSpec win;
  win.type = WindowType::kSliding;
  win.duration_ms = 1000.0;
  win.slide_ratio = 0.5;  // every element in exactly 2 panes
  LogicalPlan* plan = AggPlan(win, AggregateFn::kSum);
  auto inst = DriveOperator(*plan, "agg");
  ASSERT_TRUE(inst.ok());
  Rng rng(7);
  double total_in = 0.0;
  const auto& out = inst->out();
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.Uniform(0.0, 10.0);
    // Keep away from t=0 so every element has both panes available.
    const double t = rng.Uniform(1.0, 9.0);
    total_in += v;
    ASSERT_TRUE(inst->Push(Elem(rng.UniformInt(1, 20), v, t), 0, t).ok());
  }
  inst->Flush();
  double total_out = 0.0;
  for (const Row& e : out) {
    total_out += e.tuple.values[1].AsDouble();
  }
  EXPECT_NEAR(total_out, 2.0 * total_in, 1e-6);
}

// min <= avg <= max for any window contents.
TEST(AggOrderingTest, MinAvgMaxOrdered) {
  WindowSpec win;
  win.duration_ms = 500.0;
  Rng rng(11);
  std::vector<Row> inputs;
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(Elem(rng.UniformInt(1, 10), rng.Uniform(-5.0, 5.0),
                          rng.Uniform(0.0, 4.0)));
  }
  std::map<std::pair<int64_t, double>, std::map<AggregateFn, double>> results;
  for (AggregateFn fn :
       {AggregateFn::kMin, AggregateFn::kAvg, AggregateFn::kMax}) {
    LogicalPlan* plan = AggPlan(win, fn);
    auto inst = DriveOperator(*plan, "agg");
    ASSERT_TRUE(inst.ok());
    for (const Row& e : inputs) {
      ASSERT_TRUE(inst->Push(e, 0, e.tuple.event_time).ok());
    }
    inst->Flush();
    for (const Row& e : inst->out()) {
      results[{e.tuple.values[0].AsInt(), e.tuple.event_time}][fn] =
          e.tuple.values[1].AsDouble();
    }
  }
  ASSERT_FALSE(results.empty());
  for (const auto& [key, by_fn] : results) {
    ASSERT_EQ(by_fn.size(), 3u);
    EXPECT_LE(by_fn.at(AggregateFn::kMin), by_fn.at(AggregateFn::kAvg) + 1e-9);
    EXPECT_LE(by_fn.at(AggregateFn::kAvg), by_fn.at(AggregateFn::kMax) + 1e-9);
  }
}

// Join symmetry: feeding (L, R) produces the same number of matches as
// feeding (R, L) with swapped ports.
TEST(JoinSymmetryTest, PortSwapPreservesMatchCount) {
  WindowSpec win;
  win.duration_ms = 800.0;
  PlanBuilder b;
  auto s1 = b.Source("s1", KeyValueStream(), PoissonArrival(100));
  auto s2 = b.Source("s2", KeyValueStream(), PoissonArrival(100));
  auto j = b.WindowJoin("j", s1, s2, 0, 0, win);
  b.Sink("k", j);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  static LogicalPlan kept;
  kept = std::move(*plan);

  Rng rng(13);
  struct Input {
    Row e;
    int port;
  };
  std::vector<Input> inputs;
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    t += rng.Exponential(1000.0);
    inputs.push_back(
        {Elem(rng.UniformInt(1, 200), rng.Uniform(0.0, 1.0), t),
         static_cast<int>(rng.UniformInt(0, 1))});
  }
  size_t matches[2] = {0, 0};
  for (int swap : {0, 1}) {
    auto inst = DriveOperator(kept, "j");
    ASSERT_TRUE(inst.ok());
    const auto& out = inst->out();
    for (const Input& in : inputs) {
      ASSERT_TRUE(inst->Push(in.e, swap ? 1 - in.port : in.port,
                             in.e.tuple.event_time)
                      .ok());
    }
    matches[swap] = out.size();
    EXPECT_GT(out.size(), 0u);
  }
  EXPECT_EQ(matches[0], matches[1]);
}

// A filter partitions its input: pass-count(pred) + pass-count(!pred) == n.
TEST(FilterPartitionTest, ComplementaryPredicatesCoverInput) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto f1 = b.Filter("lt", s, 1, FilterOp::kLt, Value(30.0));
  b.Sink("k1", f1);
  auto plan_lt = b.Build();
  ASSERT_TRUE(plan_lt.ok());
  PlanBuilder b2;
  auto s2 = b2.Source("s", KeyValueStream(), PoissonArrival(100));
  auto f2 = b2.Filter("ge", s2, 1, FilterOp::kGe, Value(30.0));
  b2.Sink("k2", f2);
  auto plan_ge = b2.Build();
  ASSERT_TRUE(plan_ge.ok());

  auto lt = DriveOperator(*plan_lt, "lt");
  auto ge = DriveOperator(*plan_ge, "ge");
  ASSERT_TRUE(lt.ok() && ge.ok());
  Rng rng(17);
  const auto& out_lt = lt->out();
  const auto& out_ge = ge->out();
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const Row e = Elem(1, rng.Uniform(0.0, 100.0), 0.0);
    ASSERT_TRUE(lt->Push(e, 0, 0.0).ok());
    ASSERT_TRUE(ge->Push(e, 0, 0.0).ok());
  }
  EXPECT_EQ(out_lt.size() + out_ge.size(), static_cast<size_t>(n));
}

// Count windows: every processed tuple lands in at most one firing for
// tumbling policy, and fires are evenly spaced.
TEST(CountWindowTest, TumblingFiresEveryLength) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.length_tuples = 7;
  LogicalPlan* plan = AggPlan(win, AggregateFn::kSum);
  auto inst = DriveOperator(*plan, "agg");
  ASSERT_TRUE(inst.ok());
  const auto& out = inst->out();
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(inst->Push(Elem(1, 1.0, i * 0.01), 0, i * 0.01).ok());
  }
  ASSERT_EQ(out.size(), 10u);
  for (const Row& e : out) {
    EXPECT_DOUBLE_EQ(e.tuple.values[1].AsDouble(), 7.0);
  }
}

}  // namespace
}  // namespace pdsp
