// Microbenchmarks for the operator runtime: per-tuple costs of filters,
// window aggregation, joins and representative UDOs. These measure the real
// compute the simulator's cost model abstracts, and document the relative
// expense of operator families (filters cheapest, joins and map-matching
// UDOs heaviest).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/apps/apps.h"
#include "src/data/batch.h"
#include "src/query/batch_layout.h"
#include "src/runtime/kernels.h"
#include "src/runtime/operators.h"
#include "src/runtime/udo.h"
#include "tests/testing/operator_driver.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

// Instance 0 of operator `name` with an empty batch of its output layout.
struct OperatorUnderTest {
  std::unique_ptr<OperatorInstance> inst;
  data::Batch out;
};

OperatorUnderTest Instantiate(const LogicalPlan& plan, const char* name) {
  const LogicalPlan::OpId id = *plan.FindOperator(name);
  return {CreateOperatorInstance(plan, id, 0, 1).value(),
          data::Batch(LayoutForSchema(plan.OutputSchema(id)))};
}

// Rewrites `row` to one (key, val) row at event time t.
void KeyValueRow(Rng* rng, double t, data::Batch* row) {
  row->Clear();
  row->AppendInt(0, rng->UniformInt(1, 100));
  row->AppendDouble(1, rng->Uniform(0.0, 100.0));
  row->FinishRow(t, t, kNoAttr);
}

const data::BatchLayout kKeyValueLayout({DataType::kInt, DataType::kDouble});

void BM_FilterProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto op = Instantiate(*plan, "filter");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  for (auto _ : state) {
    KeyValueRow(&rng, t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, t, &op.out));
    t += 1e-5;
  }
}
BENCHMARK(BM_FilterProcess);

void BM_WindowAggProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto op = Instantiate(*plan, "agg");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  for (auto _ : state) {
    KeyValueRow(&rng, t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, t, &op.out));
    op.inst->OnTimer(t, &op.out);
    t += 1e-5;
  }
}
BENCHMARK(BM_WindowAggProcess);

void BM_WindowJoinProcess(benchmark::State& state) {
  auto plan = testing::TwoWayJoinPlan();
  auto op = Instantiate(*plan, "join");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  int port = 0;
  for (auto _ : state) {
    KeyValueRow(&rng, t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(
        op.inst->ProcessBatch(in, 0, 1, port, t, &op.out));
    port ^= 1;
    t += 1e-5;
  }
}
BENCHMARK(BM_WindowJoinProcess);

// Runs one app UDO over the same single input row every iteration.
void RunUdo(benchmark::State& state, AppId app, const char* name,
            std::vector<Value> values) {
  RegisterAppUdos();
  AppOptions opt;
  auto plan = MakeApp(app, opt);
  auto op = Instantiate(*plan, name);
  const data::Batch in =
      testing::OneRowBatch(testing::MakeRow(std::move(values)));
  for (auto _ : state) {
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, 0.0, &op.out));
  }
}

void BM_UdoSentimentScore(benchmark::State& state) {
  RunUdo(state, AppId::kSentimentAnalysis, "sentiment",
         {Value(1), Value("ba ce di fo gu ha ba ce di fo gu ha ba ce")});
}
BENCHMARK(BM_UdoSentimentScore);

void BM_UdoMapMatch(benchmark::State& state) {
  RunUdo(state, AppId::kTrafficMonitoring, "map_match",
         {Value(1), Value(48.51), Value(8.52), Value(88.0)});
}
BENCHMARK(BM_UdoMapMatch);

void BM_ValueHash(benchmark::State& state) {
  Rng rng(1);
  Value v(rng.UniformInt(0, 1 << 30));
  for (auto _ : state) benchmark::DoNotOptimize(v.Hash());
}
BENCHMARK(BM_ValueHash);

// --- columnar batch kernels ------------------------------------------------
// Each batch benchmark reports elements/s (items_per_second) at batch sizes
// 1 / 64 / 1024, next to a scalar per-element twin at the same sizes, so the
// vectorization speedup is a pair of adjacent counters. The throughput gate
// (tools/bench_gate.sh, bench/baselines/throughput_budget.json) enforces a
// minimum vectorized/scalar ratio on the filter and aggregate kernels.

constexpr int kBatchSizes[] = {1, 64, 1024};

data::Batch KeyValueBatch(size_t rows, uint64_t seed) {
  data::Batch b(kKeyValueLayout);
  b.Reserve(rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendInt(0, rng.UniformInt(1, 100));
    b.AppendDouble(1, rng.Uniform(0.0, 100.0));
    b.FinishRow(i * 1e-5, i * 1e-5, kNoAttr);
  }
  return b;
}

void BM_BatchFilterKernel(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto op = Instantiate(*plan, "filter");
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 1);
  for (auto _ : state) {
    op.out.Clear();
    benchmark::DoNotOptimize(
        op.inst->ProcessBatch(in, 0, rows, 0, 0.0, &op.out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchFilterKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarFilter(benchmark::State& state) {
  // The per-element twin: materialize each row with its birth and
  // attribution handle, check the arity, evaluate the predicate on the
  // dynamically typed Value and copy the survivor out.
  auto plan = testing::LinearPlan();
  const OperatorDescriptor& op = plan->op(*plan->FindOperator("filter"));
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 1);
  struct Element {
    Tuple tuple;
    double birth;
    uint32_t attr_id;
  };
  std::vector<Element> out;
  for (auto _ : state) {
    out.clear();
    for (size_t r = 0; r < rows; ++r) {
      const Element e{in.RowTuple(r), in.birth(r), in.attr_id(r)};
      if (op.filter_field >= e.tuple.values.size()) {
        state.SkipWithError("filter field beyond tuple arity");
        break;
      }
      if (EvaluateFilter(e.tuple.values[op.filter_field], op.filter_op,
                         op.filter_literal)) {
        out.push_back(e);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarFilter)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchMapKernel(benchmark::State& state) {
  // Map/project is a pure column copy on the batch path.
  const auto rows = static_cast<size_t>(state.range(0));
  data::Batch in = KeyValueBatch(rows, 2);
  data::Batch out(in.layout());
  for (auto _ : state) {
    out.Clear();
    out.AppendRange(in, 0, rows);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchMapKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchAggregateKernel(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 3);
  for (auto _ : state) {
    kernels::AggPartial agg;
    benchmark::DoNotOptimize(kernels::Aggregate(in, 0, rows, 1, &agg));
    benchmark::DoNotOptimize(agg.Finish(AggregateFn::kSum));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchAggregateKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarAggregate(benchmark::State& state) {
  // The per-element twin: materialize the Value and accumulate through the
  // dynamically typed AsNumeric view, as a tuple-at-a-time window does.
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 3);
  for (auto _ : state) {
    kernels::AggPartial agg;
    for (size_t r = 0; r < rows; ++r) {
      agg.Add(in.RowTuple(r).values[1].AsNumeric());
    }
    benchmark::DoNotOptimize(agg.Finish(AggregateFn::kSum));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarAggregate)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchPartitionKernel(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 4);
  std::vector<data::SelectionVector> parts;
  for (auto _ : state) {
    kernels::Partition(in, 0, rows, 0, 8, &parts);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchPartitionKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarPartition(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 4);
  std::vector<data::SelectionVector> parts(8);
  for (auto _ : state) {
    for (auto& p : parts) p.clear();
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t h = in.RowTuple(r).values[0].Hash();
      parts[h % 8].push_back(static_cast<uint32_t>(r));
    }
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarPartition)->Arg(1)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace pdsp
