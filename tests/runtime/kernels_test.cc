#include "src/runtime/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/data/arrival.h"
#include "src/data/generator.h"
#include "src/query/builder.h"
#include "src/runtime/operators.h"

namespace pdsp {
namespace {

constexpr FilterOp kAllOps[] = {FilterOp::kLt, FilterOp::kLe, FilterOp::kGt,
                                FilterOp::kGe, FilterOp::kEq, FilterOp::kNe};

// A batch with one column of each type plus some repeated values so kEq/kNe
// select non-trivially: (int, double, string).
data::Batch MixedBatch(size_t rows, uint64_t seed) {
  data::Batch b(data::BatchLayout(
      {DataType::kInt, DataType::kDouble, DataType::kString}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendInt(0, rng.UniformInt(0, 20));
    b.AppendDouble(1, i % 3 == 0 ? 10.0 : rng.Uniform(0.0, 20.0));
    b.AppendString(2, DictionaryWord(rng.UniformInt(0, 30)));
    b.FinishRow(i * 0.001, i * 0.001, kNoAttr);
  }
  return b;
}

TEST(FilterSelectTest, MatchesScalarEvaluateFilterEveryOpAndType) {
  const data::Batch b = MixedBatch(200, 11);
  const std::vector<Value> literals = {Value(10), Value(10.0), Value("fa"),
                                       Value(static_cast<int64_t>(2))};
  for (size_t field = 0; field < b.NumColumns(); ++field) {
    for (const Value& lit : literals) {
      for (FilterOp op : kAllOps) {
        data::SelectionVector sel;
        ASSERT_TRUE(
            kernels::FilterSelect(b, 0, b.NumRows(), field, op, lit, &sel)
                .ok());
        data::SelectionVector expected;
        for (size_t r = 0; r < b.NumRows(); ++r) {
          if (EvaluateFilter(b.ValueAt(r, field), op, lit)) {
            expected.push_back(static_cast<uint32_t>(r));
          }
        }
        EXPECT_EQ(sel, expected)
            << "field " << field << " op " << static_cast<int>(op)
            << " literal " << lit.ToString();
      }
    }
  }
}

TEST(FilterSelectTest, SubRangeAndOutOfRangeField) {
  const data::Batch b = MixedBatch(50, 3);
  data::SelectionVector sel;
  ASSERT_TRUE(kernels::FilterSelect(b, 10, 20, 0, FilterOp::kGe, Value(0),
                                    &sel)
                  .ok());
  for (uint32_t idx : sel) {
    EXPECT_GE(idx, 10u);
    EXPECT_LT(idx, 20u);
  }
  EXPECT_TRUE(kernels::FilterSelect(b, 0, b.NumRows(), 99, FilterOp::kGt,
                                    Value(0), &sel)
                  .IsOutOfRange());
}

TEST(FilterSelectTest, PromotedColumnFallsBackToScalarSemantics) {
  data::Batch b(data::BatchLayout({DataType::kInt}));
  b.AppendInt(0, 5);
  b.FinishRow(0, 0, kNoAttr);
  b.AppendValue(0, Value("xx"));  // promotes: AsNumeric view = length 2
  b.FinishRow(0, 0, kNoAttr);
  b.AppendValue(0, Value(1));
  b.FinishRow(0, 0, kNoAttr);
  ASSERT_TRUE(b.column_promoted(0));
  data::SelectionVector sel;
  ASSERT_TRUE(
      kernels::FilterSelect(b, 0, 3, 0, FilterOp::kGt, Value(1.5), &sel)
          .ok());
  EXPECT_EQ(sel, (data::SelectionVector{0, 1}));
}

TEST(AggregateKernelTest, MatchesScalarAccumulationEveryFn) {
  const data::Batch b = MixedBatch(300, 21);
  for (size_t field = 0; field < b.NumColumns(); ++field) {
    kernels::AggPartial agg;
    ASSERT_TRUE(kernels::Aggregate(b, 0, b.NumRows(), field, &agg).ok());
    double sum = 0.0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -mn;
    for (size_t r = 0; r < b.NumRows(); ++r) {
      const double v = b.NumericAt(r, field);
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(agg.count, static_cast<int64_t>(b.NumRows()));
    EXPECT_DOUBLE_EQ(agg.Finish(AggregateFn::kSum), sum);
    EXPECT_DOUBLE_EQ(agg.Finish(AggregateFn::kMin), mn);
    EXPECT_DOUBLE_EQ(agg.Finish(AggregateFn::kMax), mx);
    EXPECT_DOUBLE_EQ(agg.Finish(AggregateFn::kAvg),
                     sum / static_cast<double>(b.NumRows()));
    EXPECT_DOUBLE_EQ(agg.Finish(AggregateFn::kMean),
                     agg.Finish(AggregateFn::kAvg));
  }
  kernels::AggPartial bad;
  EXPECT_TRUE(kernels::Aggregate(b, 0, 1, 99, &bad).IsOutOfRange());
  kernels::AggPartial empty;
  EXPECT_DOUBLE_EQ(empty.Finish(AggregateFn::kAvg), 0.0);
}

TEST(PartitionKernelTest, MatchesScalarHashRouting) {
  const data::Batch b = MixedBatch(400, 31);
  for (size_t field = 0; field < b.NumColumns(); ++field) {
    for (int p : {1, 2, 7}) {
      std::vector<data::SelectionVector> parts;
      kernels::Partition(b, 0, b.NumRows(), field, p, &parts);
      ASSERT_EQ(parts.size(), static_cast<size_t>(p));
      std::vector<data::SelectionVector> expected(p);
      for (size_t r = 0; r < b.NumRows(); ++r) {
        const uint64_t h = b.ValueAt(r, field).Hash();
        expected[h % static_cast<uint64_t>(p)].push_back(
            static_cast<uint32_t>(r));
      }
      EXPECT_EQ(parts, expected) << "field " << field << " p " << p;
    }
  }
}

// The engine reuses one bucket vector for every routing call, so leftover
// rows or buckets from an earlier call (with more or fewer destinations,
// or a longer row range) must never leak into the next result.
TEST(PartitionKernelTest, ReusedBucketsMatchFreshOnes) {
  const data::Batch b = MixedBatch(700, 17);
  std::vector<data::SelectionVector> reused;
  const struct {
    size_t field, begin, end;
    int p;
  } calls[] = {{0, 0, 700, 7},   {1, 3, 40, 2}, {2, 0, 700, 64},
               {0, 100, 101, 1}, {1, 0, 0, 5},  {0, 9, 650, 3},
               {99, 0, 30, 4},   {2, 1, 699, 7}};
  for (const auto& c : calls) {
    std::vector<data::SelectionVector> fresh;
    kernels::Partition(b, c.begin, c.end, c.field, c.p, &fresh);
    kernels::Partition(b, c.begin, c.end, c.field, c.p, &reused);
    EXPECT_EQ(reused, fresh) << "field " << c.field << " rows [" << c.begin
                             << ", " << c.end << ") p " << c.p;
  }
}

TEST(PartitionKernelTest, KeyBeyondArityRoutesEverythingToZero) {
  const data::Batch b = MixedBatch(16, 1);
  std::vector<data::SelectionVector> parts;
  kernels::Partition(b, 0, b.NumRows(), 99, 4, &parts);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), b.NumRows());
  EXPECT_TRUE(parts[1].empty() && parts[2].empty() && parts[3].empty());
}

TEST(NumericColumnTest, MatchesValueAsNumeric) {
  const data::Batch b = MixedBatch(100, 41);
  std::vector<double> out(b.NumRows());
  for (size_t field = 0; field < b.NumColumns(); ++field) {
    kernels::NumericColumn(b, 0, b.NumRows(), field, out.data());
    for (size_t r = 0; r < b.NumRows(); ++r) {
      EXPECT_DOUBLE_EQ(out[r], b.ValueAt(r, field).AsNumeric());
    }
  }
}

// The filter operator's batch path must keep exactly the rows, in order,
// that a per-row EvaluateFilter twin over materialized rows keeps.
TEST(ProcessBatchTest, FilterBatchMatchesScalarProcess) {
  auto plan = [] {
    PlanBuilder b;
    StreamSpec spec;
    (void)spec.schema.AddField({"key", DataType::kInt});
    (void)spec.schema.AddField({"val", DataType::kDouble});
    FieldGeneratorSpec kg;
    kg.dist = FieldDistribution::kUniformKey;
    kg.cardinality = 50;
    FieldGeneratorSpec vg;
    vg.dist = FieldDistribution::kUniformDouble;
    vg.min = 0.0;
    vg.max = 100.0;
    spec.specs = {kg, vg};
    ArrivalProcess::Options arr;
    arr.rate = 100.0;
    auto s = b.Source("src", spec, arr, 1);
    auto f = b.Filter("filter", s, 1, FilterOp::kGt, Value(50.0), 1);
    b.Sink("sink", f, 1);
    return b.Build();
  }();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const LogicalPlan::OpId op = *plan->FindOperator("filter");

  auto batch_inst = CreateOperatorInstance(*plan, op, 0, 1);
  ASSERT_TRUE(batch_inst.ok());

  data::BatchLayout layout({DataType::kInt, DataType::kDouble});
  data::Batch in(layout);
  Rng rng(5);
  for (int i = 0; i < 128; ++i) {
    in.AppendInt(0, rng.UniformInt(0, 50));
    in.AppendDouble(1, rng.Uniform(0.0, 100.0));
    in.FinishRow(i * 0.01, i * 0.01, static_cast<uint32_t>(i));
  }
  std::vector<size_t> scalar_out;  // rows the per-row twin keeps
  for (size_t r = 0; r < in.NumRows(); ++r) {
    if (EvaluateFilter(in.RowTuple(r).values[1], FilterOp::kGt, Value(50.0))) {
      scalar_out.push_back(r);
    }
  }
  data::Batch batch_out(layout);
  ASSERT_TRUE(
      (*batch_inst)
          ->ProcessBatch(in, 0, in.NumRows(), 0, 1.0, &batch_out)
          .ok());
  ASSERT_EQ(batch_out.NumRows(), scalar_out.size());
  for (size_t r = 0; r < scalar_out.size(); ++r) {
    EXPECT_EQ(batch_out.RowTuple(r).values,
              in.RowTuple(scalar_out[r]).values);
    EXPECT_DOUBLE_EQ(batch_out.birth(r), in.birth(scalar_out[r]));
    EXPECT_EQ(batch_out.attr_id(r), in.attr_id(scalar_out[r]));
  }
}

}  // namespace
}  // namespace pdsp
