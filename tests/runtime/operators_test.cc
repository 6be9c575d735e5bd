#include "src/runtime/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tests/testing/operator_driver.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::DriveOperator;
using testing::KeyValueStream;
using testing::MakeRow;
using testing::OperatorDriver;
using testing::PoissonArrival;

// Builds a plan with one operator of interest and returns its driver.
OperatorDriver MakeAggInstance(WindowSpec win, AggregateFn fn,
                               size_t agg_field, size_t key_field) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto a = b.WindowAggregate("agg", s, win, fn, agg_field, key_field);
  b.Sink("k", a);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto inst = DriveOperator(*plan, "agg");
  EXPECT_TRUE(inst.ok()) << inst.status().ToString();
  return std::move(*inst);
}

TEST(EvaluateFilterTest, AllOps) {
  EXPECT_TRUE(EvaluateFilter(Value(3), FilterOp::kLt, Value(5)));
  EXPECT_TRUE(EvaluateFilter(Value(5), FilterOp::kLe, Value(5)));
  EXPECT_TRUE(EvaluateFilter(Value(7), FilterOp::kGt, Value(5)));
  EXPECT_TRUE(EvaluateFilter(Value(5), FilterOp::kGe, Value(5)));
  EXPECT_TRUE(EvaluateFilter(Value(5), FilterOp::kEq, Value(5)));
  EXPECT_TRUE(EvaluateFilter(Value(4), FilterOp::kNe, Value(5)));
  EXPECT_FALSE(EvaluateFilter(Value(6), FilterOp::kLt, Value(5)));
}

TEST(FilterExecTest, PassesAndDrops) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value(50.0));
  b.Sink("k", f);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  auto inst = DriveOperator(*plan, "f");
  ASSERT_TRUE(inst.ok());

  auto& out = inst->out();
  ASSERT_TRUE(inst->Push(MakeRow({Value(1), Value(60.0)}, 0.0), 0, 0.0).ok());
  EXPECT_EQ(out.size(), 1u);
  ASSERT_TRUE(inst->Push(MakeRow({Value(1), Value(40.0)}, 0.0), 0, 0.0).ok());
  EXPECT_EQ(out.size(), 1u);  // dropped
}

TEST(FilterExecTest, FieldBeyondArityIsError) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto f = b.Filter("f", s, 1, FilterOp::kGt, Value(50.0));
  b.Sink("k", f);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  auto inst = DriveOperator(*plan, "f");
  ASSERT_TRUE(inst.ok());
  // Tuple with only one value: filter field 1 is out of range.
  EXPECT_TRUE(inst->Push(MakeRow({Value(1)}, 0.0), 0, 0.0).IsOutOfRange());
}

TEST(SourceInstanceIsInvalid, CreateFails) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto sid = plan->FindOperator("src");
  EXPECT_TRUE(CreateOperatorInstance(*plan, *sid, 0, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(TimeWindowAggTest, TumblingSumPerKey) {
  WindowSpec win;
  win.type = WindowType::kTumbling;
  win.policy = WindowPolicy::kTime;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);

  auto& out = inst.out();
  // Window [0,1): key 1 gets 10+20, key 2 gets 5.
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(10.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(20.0)}, 0.5), 0, 0.5).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(2), Value(5.0)}, 0.9), 0, 0.9).ok());
  EXPECT_TRUE(out.empty());  // nothing fires before the pane ends
  EXPECT_EQ(inst.op()->NextTimerTime(), 1.0);
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 2u);
  // Results: (key, agg), event_time = pane end.
  double sum_key1 = -1, sum_key2 = -1;
  for (const auto& e : out) {
    EXPECT_DOUBLE_EQ(e.tuple.event_time, 1.0);
    if (e.tuple.values[0].AsInt() == 1) sum_key1 = e.tuple.values[1].AsDouble();
    if (e.tuple.values[0].AsInt() == 2) sum_key2 = e.tuple.values[1].AsDouble();
  }
  EXPECT_DOUBLE_EQ(sum_key1, 30.0);
  EXPECT_DOUBLE_EQ(sum_key2, 5.0);
}

TEST(TimeWindowAggTest, BirthIsEarliestContributor) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  testing::Row early = MakeRow({Value(1), Value(1.0)}, 0.2);
  early.birth = 0.05;  // produced earlier upstream
  ASSERT_TRUE(inst.Push(early, 0, 0.2).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(2.0)}, 0.8), 0, 0.8).ok());
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].birth, 0.05);
}

TEST(TimeWindowAggTest, SlidingElementInMultiplePanes) {
  WindowSpec win;
  win.type = WindowType::kSliding;
  win.duration_ms = 1000.0;
  win.slide_ratio = 0.5;  // slide 0.5s -> each element in 2 panes
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(10.0)}, 0.75), 0, 0.75).ok());
  // Element at 0.75 belongs to panes [0.0,1.0) and [0.5,1.5).
  inst.Fire(2.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(out[1].tuple.values[1].AsDouble(), 10.0);
}

TEST(TimeWindowAggTest, GlobalWindowHasNoKeyColumn) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kAvg, 1,
                              OperatorDescriptor::kNoKey);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(10.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(2), Value(20.0)}, 0.2), 0, 0.2).ok());
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].tuple.values.size(), 1u);  // only the aggregate
  EXPECT_DOUBLE_EQ(out[0].tuple.values[0].AsDouble(), 15.0);
}

TEST(TimeWindowAggTest, MinMaxFns) {
  for (auto [fn, expected] : std::vector<std::pair<AggregateFn, double>>{
           {AggregateFn::kMin, 3.0}, {AggregateFn::kMax, 9.0}}) {
    WindowSpec win;
    win.duration_ms = 1000.0;
    auto inst = MakeAggInstance(win, fn, 1, 0);
    auto& out = inst.out();
    for (double v : {5.0, 3.0, 9.0}) {
      ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(v)}, 0.5), 0, 0.5).ok());
    }
    inst.Fire(1.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), expected);
  }
}

TEST(TimeWindowAggTest, FlushEmitsPendingPanes) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(1.0)}, 0.2), 0, 0.2).ok());
  EXPECT_GT(inst.op()->StateSize(), 0u);
  inst.Flush();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(inst.op()->StateSize(), 0u);
}

TEST(CountWindowAggTest, FiresEveryLengthTuples) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.type = WindowType::kTumbling;
  win.length_tuples = 3;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  for (int i = 1; i <= 9; ++i) {
    ASSERT_TRUE(inst.Push(
        MakeRow({Value(1), Value(static_cast<double>(i))}, i * 0.1), 0,
        i * 0.1).ok());
  }
  // Tumbling count window of 3: fires at tuples 3, 6, 9 with sums 6, 15, 24.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(out[1].tuple.values[1].AsDouble(), 15.0);
  EXPECT_DOUBLE_EQ(out[2].tuple.values[1].AsDouble(), 24.0);
}

TEST(CountWindowAggTest, SlidingKeepsOverlap) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.type = WindowType::kSliding;
  win.length_tuples = 4;
  win.slide_ratio = 0.5;  // slide 2
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(inst.Push(
        MakeRow({Value(1), Value(static_cast<double>(i))}, i * 0.1), 0,
        i * 0.1).ok());
  }
  // Window [1..4] fires sum=10; slide 2 -> [3..6] fires sum=18.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(out[1].tuple.values[1].AsDouble(), 18.0);
}

TEST(CountWindowAggTest, PerKeyCountsAreIndependent) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.length_tuples = 2;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(2), Value(2.0)}, 0.2), 0, 0.2).ok());
  EXPECT_TRUE(out.empty());  // each key has only 1 element
  ASSERT_TRUE(inst.Push(MakeRow({Value(1), Value(3.0)}, 0.3), 0, 0.3).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 4.0);
}

TEST(TimeWindowAggTest, KeysFireInAscendingOrder) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  for (int key = 9; key >= 1; --key) {
    ASSERT_TRUE(inst.Push(MakeRow({Value(key), Value(1.0)}, 0.5), 0, 0.5).ok());
  }
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(out[i].tuple.values[0].AsInt(), i + 1);
}

TEST(TimeWindowAggTest, IntAndIntegralDoubleKeysAreOneGroup) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(3), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(3.0), Value(2.0)}, 0.2), 0, 0.2).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(4), Value(4.0)}, 0.3), 0, 0.3).ok());
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 3);  // the group's first key
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 3.0);
  EXPECT_EQ(out[1].tuple.values[0].AsInt(), 4);
}

// NaN keys (a double key column) are one group, fired after every number.
TEST(TimeWindowAggTest, NaNKeysAreOneGroupFiredLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(nan), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(5.0), Value(2.0)}, 0.2), 0, 0.2).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(-nan), Value(4.0)}, 0.3), 0, 0.3).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(1e300), Value(8.0)}, 0.4), 0, 0.4).ok());
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[0].AsNumeric(), 5.0);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(out[1].tuple.values[0].AsNumeric(), 1e300);
  EXPECT_TRUE(std::isnan(out[2].tuple.values[0].AsNumeric()));
  EXPECT_DOUBLE_EQ(out[2].tuple.values[1].AsDouble(), 5.0);
}

// Rows (key, 1.0) at event time `t` whose key column is promoted to the
// dynamically typed fallback, so strings and numbers share it.
data::Batch PromotedKeyBatch(const std::vector<Value>& keys, double t) {
  data::Batch batch{data::BatchLayout({DataType::kInt, DataType::kDouble})};
  for (const Value& key : keys) {
    batch.AppendValue(0, key);
    batch.AppendDouble(1, 1.0);
    batch.FinishRow(t, t, kNoAttr);
  }
  return batch;
}

// In a promoted key column a string is never the number of its length, and
// strings group after numbers.
TEST(TimeWindowAggTest, PromotedStringKeysNeverEqualNumbers) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  const data::Batch in =
      PromotedKeyBatch({Value("abc"), Value(3), Value("abc"), Value(7)}, 0.5);
  ASSERT_TRUE(in.column_promoted(0));
  ASSERT_TRUE(inst.Push(in, 0, 0.5).ok());
  inst.Fire(1.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 3);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 1.0);
  EXPECT_EQ(out[1].tuple.values[0].AsInt(), 7);
  EXPECT_EQ(out[2].tuple.values[0].AsString(), "abc");
  EXPECT_DOUBLE_EQ(out[2].tuple.values[1].AsDouble(), 2.0);
}

TEST(CountWindowAggTest, IntAndIntegralDoubleKeysShareOneBuffer) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.length_tuples = 2;
  auto inst = MakeAggInstance(win, AggregateFn::kSum, 1, 0);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(3), Value(1.0)}, 0.1), 0, 0.1).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(inst.Push(MakeRow({Value(3.0), Value(2.0)}, 0.2), 0, 0.2).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 3.0);
  EXPECT_EQ(inst.op()->StateSize(), 0u);
}

OperatorDriver MakeJoinInstance(WindowSpec win) {
  PlanBuilder b;
  auto s1 = b.Source("s1", KeyValueStream(), PoissonArrival(100));
  auto s2 = b.Source("s2", KeyValueStream(), PoissonArrival(100));
  auto j = b.WindowJoin("j", s1, s2, 0, 0, win);
  b.Sink("k", j);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto inst = DriveOperator(*plan, "j");
  EXPECT_TRUE(inst.ok());
  return std::move(*inst);
}

TEST(WindowJoinTest, MatchesEqualKeysWithinWindow) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  // Left key=7 at t=0.1; right key=7 at t=0.5 -> match.
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(1.0)}, 0.1), 0, 0.1).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(2.0)}, 0.5), 1, 0.5).ok());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].tuple.values.size(), 4u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 7);       // l_key
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 1.0);  // l_val
  EXPECT_DOUBLE_EQ(out[0].tuple.values[3].AsDouble(), 2.0);  // r_val
  EXPECT_DOUBLE_EQ(out[0].tuple.event_time, 0.5);
  EXPECT_DOUBLE_EQ(out[0].birth, 0.1);
}

TEST(WindowJoinTest, DifferentKeysDoNotMatch) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(8), Value(2.0)}, 0.2), 1, 0.2).ok());
  EXPECT_TRUE(out.empty());
}

TEST(WindowJoinTest, ExpiredTuplesDoNotMatch) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(1.0)}, 0.1), 0, 0.1).ok());
  // Right arrives 2 seconds later: left tuple fell out of the window.
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(2.0)}, 2.1), 1, 2.1).ok());
  EXPECT_TRUE(out.empty());
}

TEST(WindowJoinTest, MultipleMatchesEmitCrossProduct) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  for (double v : {1.0, 2.0, 3.0}) {
    ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(v)}, 0.1), 0, 0.1).ok());
  }
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(9.0)}, 0.5), 1, 0.5).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST(WindowJoinTest, CountPolicyBoundsBuffer) {
  WindowSpec win;
  win.policy = WindowPolicy::kCount;
  win.length_tuples = 2;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(inst.Push(
        MakeRow({Value(7), Value(static_cast<double>(i))}, i * 0.1), 0,
        i * 0.1).ok());
  }
  // Only the last 2 left tuples remain buffered.
  EXPECT_EQ(inst.op()->StateSize(), 2u);
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(99.0)}, 1.5), 1, 1.5).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(WindowJoinTest, IntAndIntegralDoubleKeysMatch) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(3), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(3.0), Value(2.0)}, 0.2), 1, 0.2).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(3), Value(4.0)}, 0.3), 0, 0.3).ok());
  EXPECT_EQ(out.size(), 2u);
}

// NaN keys match each other and nothing else.
TEST(WindowJoinTest, NaNKeysMatchOnlyEachOther) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  ASSERT_TRUE(inst.Push(MakeRow({Value(7.0), Value(1.0)}, 0.1), 0, 0.1).ok());
  ASSERT_TRUE(inst.Push(MakeRow({Value(nan), Value(2.0)}, 0.2), 1, 0.2).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(inst.Push(MakeRow({Value(-nan), Value(3.0)}, 0.3), 0, 0.3).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].tuple.values[1].AsDouble(), 3.0);  // l_val
  EXPECT_DOUBLE_EQ(out[0].tuple.values[3].AsDouble(), 2.0);  // r_val
}

TEST(WindowJoinTest, PromotedStringKeysNeverMatchNumbers) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  auto& out = inst.out();
  const data::Batch left = PromotedKeyBatch({Value("abc"), Value(3)}, 0.1);
  ASSERT_TRUE(left.column_promoted(0));
  ASSERT_TRUE(inst.Push(left, 0, 0.1).ok());
  // "abc" has length 3, yet only the left 3 matches the right 3.0 ...
  ASSERT_TRUE(inst.Push(MakeRow({Value(3.0), Value(2.0)}, 0.2), 1, 0.2).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 3);
  // ... and only the left "abc" matches a right "abc".
  ASSERT_TRUE(
      inst.Push(PromotedKeyBatch({Value("abc")}, 0.3), 1, 0.3).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].tuple.values[0].AsString(), "abc");
}

// A port's buffered rows share one column count: a batch of another arity
// on a port that still buffers rows fails the firing.
TEST(WindowJoinTest, ArityChangeOnAPortIsAnError) {
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto inst = MakeJoinInstance(win);
  ASSERT_TRUE(inst.Push(MakeRow({Value(7), Value(1.0)}, 0.1), 0, 0.1).ok());
  const Status status =
      inst.Push(MakeRow({Value(7), Value(1.0), Value(2.0)}, 0.2), 0, 0.2);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(inst.op()->StateSize(), 1u);
}

TEST(WindowJoinTest, BadPortRejected) {
  WindowSpec win;
  auto inst = MakeJoinInstance(win);
  EXPECT_TRUE(
      inst.Push(MakeRow({Value(1), Value(1.0)}, 0.1), 2, 0.1).IsOutOfRange());
}

TEST(FlatMapTest, MeanFanoutRespected) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto fm = b.FlatMap("fm", s, 2.5);
  b.Sink("k", fm);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  auto inst = DriveOperator(*plan, "fm", 5);
  ASSERT_TRUE(inst.ok());
  auto& out = inst->out();
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(inst->Push(MakeRow({Value(1), Value(1.0)}, 0.0), 0, 0.0).ok());
  }
  EXPECT_NEAR(static_cast<double>(out.size()) / n, 2.5, 0.05);
}

TEST(UdoExecTest, SampleKindDropsFraction) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto u = b.Udo("u", s, "sample", 1.0, 0.3, false);
  b.Sink("k", u);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  auto inst = DriveOperator(*plan, "u", 5);
  ASSERT_TRUE(inst.ok());
  auto& out = inst->out();
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(inst->Push(MakeRow({Value(1), Value(1.0)}, 0.0), 0, 0.0).ok());
  }
  EXPECT_NEAR(static_cast<double>(out.size()) / n, 0.3, 0.03);
}

TEST(UdoExecTest, UnknownKindFailsAtCreation) {
  PlanBuilder b;
  auto s = b.Source("s", KeyValueStream(), PoissonArrival(100));
  auto u = b.Udo("u", s, "no_such_kind");
  b.Sink("k", u);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(CreateOperatorInstance(*plan, *plan->FindOperator("u"), 0, 1)
                  .status()
                  .IsNotFound());
}

TEST(SinkExecTest, PassesThrough) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto inst = DriveOperator(*plan, "sink");
  ASSERT_TRUE(inst.ok());
  auto& out = inst->out();
  ASSERT_TRUE(inst->Push(MakeRow({Value(1), Value(1.0)}, 0.3), 0, 0.3).ok());
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace pdsp
