// Microbenchmarks for the operator runtime: per-tuple costs of filters,
// window aggregation, joins and representative UDOs. These measure the real
// compute the simulator's cost model abstracts, and document the relative
// expense of operator families (filters cheapest, joins and map-matching
// UDOs heaviest).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/data/batch.h"
#include "src/data/generator.h"
#include "src/harness/synthetic_suite.h"
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

// Rewrites `row` to one (key, val) row at event time t, the key uniform in
// [1, keys].
void KeyValueRow(Rng* rng, int64_t keys, double t, data::Batch* row) {
  row->Clear();
  row->AppendInt(0, rng->UniformInt(1, keys));
  row->AppendDouble(1, rng->Uniform(0.0, 100.0));
  row->FinishRow(t, t, kNoAttr);
}

const data::BatchLayout kKeyValueLayout({DataType::kInt, DataType::kDouble});
const data::BatchLayout kWordValueLayout({DataType::kString,
                                          DataType::kDouble});

// source(word:string, val:double) -> window_agg(sum val by word, 1 s
// tumbling) -> sink: the string-keyed twin of LinearPlan's aggregate.
Result<LogicalPlan> WordAggPlan() {
  StreamSpec stream;
  (void)stream.schema.AddField({"word", DataType::kString});
  (void)stream.schema.AddField({"val", DataType::kDouble});
  FieldGeneratorSpec word;
  word.dist = FieldDistribution::kWordString;
  FieldGeneratorSpec val;
  val.dist = FieldDistribution::kUniformDouble;
  stream.specs = {word, val};
  PlanBuilder b;
  auto src = b.Source("src", stream, testing::PoissonArrival(1000.0));
  WindowSpec win;
  win.duration_ms = 1000.0;
  auto agg = b.WindowAggregate("agg", src, win, AggregateFn::kSum, 1, 0);
  b.Sink("sink", agg);
  return b.Build();
}

void BM_FilterProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto op = Instantiate(*plan, "filter");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  for (auto _ : state) {
    KeyValueRow(&rng, 100, t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, t, &op.out));
    t += 1e-5;
  }
}
BENCHMARK(BM_FilterProcess);

// The window-state benchmarks take the key count as their argument: 100
// keys stay cache-resident, 100,000 keys (about as many as a 1 s pane or
// join window holds rows here) make every row a fresh or a cold key.
void BM_WindowAggProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto op = Instantiate(*plan, "agg");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  for (auto _ : state) {
    KeyValueRow(&rng, state.range(0), t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, t, &op.out));
    op.inst->OnTimer(t, &op.out);
    t += 1e-5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowAggProcess)->Arg(100)->Arg(100000);

// BM_WindowAggProcess over string keys "word-<n>" (at most 10 bytes: short
// words, as WC's).
void BM_WindowAggStringKeyProcess(benchmark::State& state) {
  auto plan = WordAggPlan();
  auto op = Instantiate(*plan, "agg");
  std::vector<std::string> words;
  for (int64_t i = 0; i < state.range(0); ++i) {
    // Appended piecewise: GCC 12 at -O3 misreports `"lit" + std::string&&`
    // as an overlapping memcpy (-Werror=restrict).
    words.emplace_back("word-");
    words.back().append(std::to_string(i));
  }
  Rng rng(1);
  data::Batch in(kWordValueLayout);
  double t = 0.0;
  for (auto _ : state) {
    in.Clear();
    in.AppendString(0, rng.Choice(words));
    in.AppendDouble(1, rng.Uniform(0.0, 100.0));
    in.FinishRow(t, t, kNoAttr);
    op.out.Clear();
    benchmark::DoNotOptimize(op.inst->ProcessBatch(in, 0, 1, 0, t, &op.out));
    op.inst->OnTimer(t, &op.out);
    t += 1e-5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowAggStringKeyProcess)->Arg(100)->Arg(100000);

void BM_WindowJoinProcess(benchmark::State& state) {
  auto plan = testing::TwoWayJoinPlan();
  auto op = Instantiate(*plan, "join");
  Rng rng(1);
  data::Batch in(kKeyValueLayout);
  double t = 0.0;
  int port = 0;
  for (auto _ : state) {
    KeyValueRow(&rng, state.range(0), t, &in);
    op.out.Clear();
    benchmark::DoNotOptimize(
        op.inst->ProcessBatch(in, 0, 1, port, t, &op.out));
    port ^= 1;
    t += 1e-5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowJoinProcess)->Arg(100)->Arg(100000);

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

// WC's tokenize UDO over a 64-row batch of 9-word sentences; items are
// sentences.
void BM_UdoTokenize(benchmark::State& state) {
  RegisterAppUdos();
  AppOptions opt;
  auto plan = MakeApp(AppId::kWordCount, opt);
  auto op = Instantiate(*plan, "tokenize");
  constexpr size_t kRows = 64;
  data::Batch in(data::BatchLayout({DataType::kString}));
  Rng rng(1);
  for (size_t r = 0; r < kRows; ++r) {
    std::string sentence;
    for (int w = 0; w < 9; ++w) {
      if (w > 0) sentence.push_back(' ');
      sentence.append(DictionaryWord(rng.Zipf(5000, 1.0)));
    }
    in.AppendString(0, sentence);
    in.FinishRow(0.0, 0.0, kNoAttr);
  }
  for (auto _ : state) {
    op.out.Clear();
    benchmark::DoNotOptimize(
        op.inst->ProcessBatch(in, 0, kRows, 0, 0.0, &op.out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_UdoTokenize);

void BM_UdoMapMatch(benchmark::State& state) {
  RunUdo(state, AppId::kTrafficMonitoring, "map_match",
         {Value(1), Value(48.51), Value(8.52), Value(88.0)});
}
BENCHMARK(BM_UdoMapMatch);

// The source layer's per-tuple cost: TupleGenerator::AppendNext on three
// benchmark streams; items are tuples.
//   0: the canonical aggregate stream, Zipf(1000, 0.4) keys
//   1: WC's sentences, 6-12 words of Zipf(20000, 1.05)
//   2: the 800k-key join stream, Zipf(800000, 0.4) keys, most of them past
//      the Zipf table's 2^16 ranks
StreamSpec GeneratorStream(int64_t which) {
  if (which == 1) {
    return MakeApp(AppId::kWordCount, AppOptions{})->sources()[0].stream;
  }
  CanonicalOptions opt;
  opt.event_rate = 200e3;  // 800k join keys over the 1 s window
  const SyntheticStructure structure = which == 0
                                           ? SyntheticStructure::kAggregation
                                           : SyntheticStructure::kTwoWayJoin;
  return MakeCanonicalSynthetic(structure, opt)->sources()[0].stream;
}

void BM_GeneratorAppendNext(benchmark::State& state) {
  const StreamSpec stream = GeneratorStream(state.range(0));
  TupleGenerator gen =
      TupleGenerator::Create(stream.schema, stream.specs, 42).value();
  data::Batch out(LayoutForSchema(stream.schema));
  benchmark::DoNotOptimize(&out);
  double t = 0.0;
  for (auto _ : state) {
    gen.AppendNext(t, t, kNoAttr, &out);
    benchmark::ClobberMemory();
    t += 1e-6;
    if (out.NumRows() == 1024) out.Clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneratorAppendNext)->Arg(0)->Arg(1)->Arg(2);

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

// An engine-style reused output batch: one firing of 10^5 distinct short
// strings, then firings of 64 short strings, each appended and cleared;
// items are strings.
void BM_InternAfterLargeBatch(benchmark::State& state) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  for (int64_t i = 0; i < 100000; ++i) {
    b.AppendString(0, DictionaryWord(i));
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  b.Clear();
  std::vector<std::string> words;
  for (int64_t i = 0; i < 64; ++i) words.push_back(DictionaryWord(i % 40));
  for (auto _ : state) {
    for (const std::string& word : words) {
      b.AppendString(0, word);
      b.FinishRow(0.0, 0.0, kNoAttr);
    }
    benchmark::DoNotOptimize(b.NumRows());
    b.Clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(words.size()));
}
BENCHMARK(BM_InternAfterLargeBatch);

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
  kernels::Partitions parts;
  for (auto _ : state) {
    kernels::Partition(in, 0, rows, 0, 8, &parts);
    benchmark::DoNotOptimize(parts.buckets.data());
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
