#include "src/data/batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/runtime/element.h"
#include "src/runtime/kernels.h"

namespace pdsp {
namespace {

data::BatchLayout KeyValueLayout() {
  return data::BatchLayout({DataType::kInt, DataType::kDouble});
}

Tuple MakeTuple(std::vector<Value> values, double event_time) {
  Tuple t;
  t.values = std::move(values);
  t.event_time = event_time;
  return t;
}

TEST(BatchTest, AppendTupleRoundTripsRows) {
  data::Batch b(KeyValueLayout());
  b.AppendTuple(MakeTuple({Value(7), Value(1.5)}, 0.25), 0.125, 3);
  b.AppendTuple(MakeTuple({Value(-2), Value(0.0)}, 0.5), 0.375, 4);
  ASSERT_EQ(b.NumRows(), 2u);
  EXPECT_EQ(b.promotions(), 0u);

  Tuple t0 = b.RowTuple(0);
  EXPECT_EQ(t0.values[0], Value(7));
  EXPECT_EQ(t0.values[1], Value(1.5));
  EXPECT_DOUBLE_EQ(t0.event_time, 0.25);
  EXPECT_DOUBLE_EQ(b.birth(0), 0.125);
  EXPECT_EQ(b.attr_id(0), 3u);
  EXPECT_EQ(b.RowTuple(1).values[0], Value(-2));
  EXPECT_EQ(b.attr_id(1), 4u);
}

TEST(BatchTest, TypeMismatchPromotesColumnExactly) {
  data::Batch b(KeyValueLayout());
  b.AppendTuple(MakeTuple({Value(1), Value(2.0)}, 0.0), 0.0, kNoAttr);
  // A string where the layout says int: the column must fall back rather
  // than coerce, preserving the value bit-for-bit.
  b.AppendTuple(MakeTuple({Value("oops"), Value(3.0)}, 1.0), 1.0, kNoAttr);
  EXPECT_EQ(b.promotions(), 1u);
  EXPECT_TRUE(b.column_promoted(0));
  EXPECT_FALSE(b.column_promoted(1));
  EXPECT_EQ(b.IntData(0), nullptr);
  EXPECT_EQ(b.ValueAt(0, 0), Value(1));
  EXPECT_EQ(b.ValueAt(1, 0), Value("oops"));
  EXPECT_EQ(b.ValueAt(1, 1), Value(3.0));
}

TEST(BatchTest, ShortStringsInternLongStringsDoNot) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  const std::string repeated = "hello";
  const std::string long_payload(data::Batch::kInternMaxBytes + 1, 'x');
  for (int i = 0; i < 100; ++i) {
    b.AppendString(0, repeated);
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  const size_t interned_bytes = b.ArenaBytes();
  EXPECT_EQ(interned_bytes, repeated.size());  // one arena copy
  const std::string_view* d = b.StringData(0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d[0].data(), d[99].data());  // all views share the copy
  b.AppendString(0, long_payload);
  b.FinishRow(0.0, 0.0, kNoAttr);
  b.AppendString(0, long_payload);
  b.FinishRow(0.0, 0.0, kNoAttr);
  // Long payloads are appended as-is, once per row.
  EXPECT_EQ(b.ArenaBytes(), interned_bytes + 2 * long_payload.size());
}

// Equal short strings share one arena copy however they interleave: the
// arena grows at a string's first append only.
TEST(BatchTest, EqualShortStringsShareOneArenaCopy) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  size_t distinct_bytes = 0;
  for (int i = 0; i < 50; ++i) distinct_bytes += DictionaryWord(i).size();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      b.AppendString(0, DictionaryWord(i));
      b.FinishRow(0.0, 0.0, kNoAttr);
    }
    EXPECT_EQ(b.ArenaBytes(), distinct_bytes) << "round " << round;
  }
  const std::string_view* d = b.StringData(0);
  for (size_t r = 0; r < b.NumRows(); ++r) {
    ASSERT_EQ(d[r], DictionaryWord(static_cast<int64_t>(r % 50)));
    EXPECT_EQ(d[r].data(), d[r % 50].data()) << "row " << r;
  }
}

// Empty strings and strings at, just over and far over kInternMaxBytes
// round-trip; only the interned ones share storage.
TEST(BatchTest, EmptyAndLongStringsRoundTrip) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  const size_t max = data::Batch::kInternMaxBytes;
  const std::vector<std::string> strings = {
      "", std::string(max, 'a'), std::string(max + 1, 'b'),
      std::string(10 * max, 'c'), "", std::string(max, 'a'),
      std::string(max + 1, 'b')};
  for (const std::string& s : strings) {
    b.AppendString(0, s);
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  for (size_t r = 0; r < strings.size(); ++r) {
    EXPECT_EQ(b.ValueAt(r, 0), Value(strings[r])) << "row " << r;
    EXPECT_EQ(b.StringData(0)[r], strings[r]) << "row " << r;
  }
  // One copy of the interned 32-byte string, two of the 33-byte one.
  EXPECT_EQ(b.ArenaBytes(), max + 2 * (max + 1) + 10 * max);
  EXPECT_EQ(b.StringData(0)[1].data(), b.StringData(0)[5].data());
  EXPECT_NE(b.StringData(0)[2].data(), b.StringData(0)[6].data());
}

// One batch reused through Clear, as the engine reuses its output batches:
// small firings after four table growths, then after one 10^5-string
// batch, still intern every string exactly once.
TEST(BatchTest, ReusedBatchInternsAcrossGrowthsAndAfterALargeBatch) {
  data::Batch b(data::BatchLayout({DataType::kString, DataType::kInt}));
  auto fill = [&b](int64_t distinct, int64_t rows, int64_t offset) {
    b.Clear();
    size_t bytes = 0;
    for (int64_t i = 0; i < distinct; ++i) {
      bytes += DictionaryWord(offset + i).size();
    }
    for (int64_t r = 0; r < rows; ++r) {
      b.AppendString(0, DictionaryWord(offset + r % distinct));
      b.AppendInt(1, r);
      b.FinishRow(0.0, 0.0, kNoAttr);
    }
    ASSERT_EQ(b.ArenaBytes(), bytes) << distinct << " distinct strings";
    const std::string_view* d = b.StringData(0);
    for (int64_t r = 0; r < rows; ++r) {
      ASSERT_EQ(d[r], DictionaryWord(offset + r % distinct)) << "row " << r;
      ASSERT_EQ(d[r].data(), d[r % distinct].data()) << "row " << r;
    }
  };
  // 8 slots hold 4 strings; 70 distinct need 256: four growths.
  for (const int64_t distinct : {1, 4, 5, 9, 17, 33, 70}) {
    fill(distinct, 3 * distinct, distinct);
  }
  fill(100000, 100000, 0);
  fill(100000, 100000, 7);
  for (int round = 0; round < 4; ++round) fill(64, 64, round);
  fill(3, 9, 0);
  fill(0, 0, 0);
  fill(200, 400, 11);
}

// A batch moved from is empty and can be cleared; the batch moved to keeps
// interning into the table it took over.
TEST(BatchTest, MovesHandOverTheInternTable) {
  data::Batch a(data::BatchLayout({DataType::kString}));
  for (int64_t i = 0; i < 100; ++i) {
    a.AppendString(0, DictionaryWord(i));
    a.FinishRow(0.0, 0.0, kNoAttr);
  }
  data::Batch b = std::move(a);
  a.Clear();
  EXPECT_EQ(a.NumRows(), 0u);
  b.AppendString(0, DictionaryWord(7));
  b.FinishRow(0.0, 0.0, kNoAttr);
  EXPECT_EQ(b.StringData(0)[100].data(), b.StringData(0)[7].data());
  a = std::move(b);
  b.Clear();
  a.Clear();
  for (int64_t i = 0; i < 200; ++i) {
    a.AppendString(0, DictionaryWord(i % 20));
    a.FinishRow(0.0, 0.0, kNoAttr);
  }
  EXPECT_EQ(a.StringData(0)[199].data(), a.StringData(0)[19].data());
  EXPECT_EQ(a.StringData(0)[199], DictionaryWord(19));
}

// Clear keeps the arena's storage for reuse: in a batch whose strings fit
// in its first chunk, the first string after Clear lands where the first
// string before it did. A block of the first chunk's size is allocated in
// between: had Clear freed the chunk, the allocator would typically hand it
// to that block, and the arena's next chunk would land elsewhere.
TEST(BatchTest, ClearKeepsTheArenaChunk) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  for (const char* word : {"alpha", "beta", "alpha"}) {
    b.AppendString(0, word);
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  const char* first = b.StringData(0)[0].data();
  b.Clear();
  EXPECT_EQ(b.ArenaBytes(), 0u);
  const auto other = std::make_unique<char[]>(256);
  EXPECT_NE(other.get(), first);
  for (const char* word : {"gamma", "alpha", "gamma"}) {
    b.AppendString(0, word);
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  EXPECT_EQ(b.StringData(0)[0].data(), first);
  EXPECT_EQ(b.StringData(0)[0], "gamma");
  EXPECT_EQ(b.StringData(0)[1], "alpha");
  EXPECT_EQ(b.StringData(0)[2].data(), first);
  EXPECT_EQ(b.ArenaBytes(), 10u);
}

TEST(BatchTest, StringAtReadsTypedAndPromotedCellsInPlace) {
  data::Batch b(data::BatchLayout(
      {DataType::kString, DataType::kInt, DataType::kDouble}));
  b.AppendTuple(MakeTuple({Value("alpha"), Value(1), Value(0.5)}, 0.0), 0.0,
                kNoAttr);
  b.AppendTuple(MakeTuple({Value(""), Value(2), Value(1.5)}, 0.0), 0.0,
                kNoAttr);
  // Typed string cells come back in place; numeric cells are nullopt.
  EXPECT_EQ(b.StringAt(0, 0), std::optional<std::string_view>("alpha"));
  EXPECT_EQ(b.StringAt(0, 0)->data(), b.StringData(0)[0].data());
  EXPECT_EQ(b.StringAt(1, 0), std::optional<std::string_view>(""));
  EXPECT_EQ(b.StringAt(0, 1), std::nullopt);
  EXPECT_EQ(b.StringAt(1, 2), std::nullopt);
  // A string in the int column promotes it: its string cell reads as the
  // string, its numbers still as nullopt.
  b.AppendTuple(MakeTuple({Value("gamma"), Value("beta"), Value(2.5)}, 0.0),
                0.0, kNoAttr);
  ASSERT_TRUE(b.column_promoted(1));
  EXPECT_EQ(b.StringAt(2, 1), std::optional<std::string_view>("beta"));
  EXPECT_EQ(b.StringAt(0, 1), std::nullopt);
  EXPECT_EQ(b.StringAt(2, 0), std::optional<std::string_view>("gamma"));
  // A number in the string column promotes it the other way.
  b.AppendTuple(MakeTuple({Value(7), Value(3), Value(3.5)}, 0.0), 0.0,
                kNoAttr);
  ASSERT_TRUE(b.column_promoted(0));
  EXPECT_EQ(b.StringAt(0, 0), std::optional<std::string_view>("alpha"));
  EXPECT_EQ(b.StringAt(3, 0), std::nullopt);
  const data::RowView view(b, 2);
  EXPECT_EQ(view.Text(1), std::optional<std::string_view>("beta"));
  EXPECT_EQ(view.Text(2), std::nullopt);
}

// Copies between batches whose column types disagree append value by
// value: exact, and promoting the destination only where a value does not
// fit its column.
TEST(BatchTest, AppendRangeAndGatherAreTotalAcrossLayouts) {
  // int -> double: the ints stay ints, in a promoted destination column.
  data::Batch ints(data::BatchLayout({DataType::kInt, DataType::kString}));
  ints.AppendTuple(MakeTuple({Value(3), Value("x")}, 1.0), 0.5, 7);
  ints.AppendTuple(MakeTuple({Value(-4), Value("y")}, 2.0), 1.5, 8);
  const data::BatchLayout double_string({DataType::kDouble, DataType::kString});
  data::Batch range(double_string);
  range.AppendRange(ints, 0, 2);
  data::Batch gather(double_string);
  gather.AppendGather(ints, {1, 0, 1});
  for (const data::Batch* b : {&range, &gather}) {
    EXPECT_TRUE(b->column_promoted(0));
    EXPECT_FALSE(b->column_promoted(1));
    EXPECT_EQ(b->ValueAt(0, 0).type(), DataType::kInt);
  }
  EXPECT_EQ(range.ValueAt(1, 0), Value(-4));
  EXPECT_EQ(range.ValueAt(1, 1), Value("y"));
  EXPECT_DOUBLE_EQ(range.event_time(1), 2.0);
  EXPECT_DOUBLE_EQ(range.birth(1), 1.5);
  EXPECT_EQ(range.attr_id(1), 8u);
  ASSERT_EQ(gather.NumRows(), 3u);
  EXPECT_EQ(gather.ValueAt(0, 0), Value(-4));
  EXPECT_EQ(gather.ValueAt(1, 0), Value(3));
  EXPECT_EQ(gather.attr_id(2), 8u);

  // typed -> promoted: an already promoted destination takes typed rows.
  data::Batch promoted(data::BatchLayout({DataType::kInt, DataType::kString}));
  promoted.AppendTuple(MakeTuple({Value("s"), Value("z")}, 0.0), 0.0, 1);
  ASSERT_TRUE(promoted.column_promoted(0));
  promoted.AppendRange(ints, 1, 2);
  promoted.AppendGather(ints, {0});
  EXPECT_EQ(promoted.ValueAt(0, 0), Value("s"));
  EXPECT_EQ(promoted.ValueAt(1, 0), Value(-4));
  EXPECT_EQ(promoted.ValueAt(2, 0), Value(3));
  EXPECT_EQ(promoted.ValueAt(2, 1), Value("x"));
  EXPECT_FALSE(promoted.column_promoted(1));

  // promoted -> typed: values that fit the destination's type stay typed,
  // the first that does not promotes it.
  data::Batch mixed(data::BatchLayout({DataType::kInt, DataType::kString}));
  mixed.AppendTuple(MakeTuple({Value(1), Value("p")}, 0.0), 0.0, 1);
  mixed.AppendTuple(MakeTuple({Value(2.5), Value("q")}, 0.0), 0.0, 2);
  mixed.AppendTuple(MakeTuple({Value(3), Value("r")}, 0.0), 0.0, 3);
  ASSERT_TRUE(mixed.column_promoted(0));
  data::Batch doubles(double_string);
  doubles.AppendRange(mixed, 1, 2);
  EXPECT_FALSE(doubles.column_promoted(0));
  EXPECT_DOUBLE_EQ(doubles.DoubleData(0)[0], 2.5);
  doubles.AppendGather(mixed, {2, 1});
  EXPECT_TRUE(doubles.column_promoted(0));
  EXPECT_EQ(doubles.ValueAt(1, 0), Value(3));
  EXPECT_EQ(doubles.ValueAt(1, 0).type(), DataType::kInt);
  EXPECT_EQ(doubles.ValueAt(2, 0), Value(2.5));
  EXPECT_EQ(doubles.ValueAt(2, 1), Value("q"));
  data::Batch same(mixed.layout());
  same.AppendRange(mixed, 0, 3);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(same.RowTuple(r).values, mixed.RowTuple(r).values);
  }

  // A string where the destination holds numbers, and AppendCell alone.
  data::Batch numbers(data::BatchLayout({DataType::kInt, DataType::kInt}));
  numbers.AppendRange(ints, 0, 1);
  EXPECT_FALSE(numbers.column_promoted(0));
  EXPECT_TRUE(numbers.column_promoted(1));
  EXPECT_EQ(numbers.ValueAt(0, 1), Value("x"));
  data::Batch cells(double_string);
  cells.AppendCell(1, ints, 1, 1);
  cells.AppendCell(0, mixed, 1, 0);
  cells.FinishRow(0.0, 0.0, kNoAttr);
  EXPECT_EQ(cells.promotions(), 0u);
  EXPECT_EQ(cells.RowTuple(0).values, (std::vector<Value>{2.5, "y"}));
}

TEST(BatchTest, AppendGatherSelectsRepeatsAndHandlesEdgeCases) {
  data::Batch src(KeyValueLayout());
  for (int i = 0; i < 4; ++i) {
    src.AppendTuple(MakeTuple({Value(i), Value(i * 0.5)}, i), i, kNoAttr);
  }
  // Empty selection.
  data::Batch none(KeyValueLayout());
  none.AppendGather(src, {});
  EXPECT_EQ(none.NumRows(), 0u);
  // Full selection preserves order.
  data::Batch all(KeyValueLayout());
  all.AppendGather(src, {0, 1, 2, 3});
  ASSERT_EQ(all.NumRows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(all.RowTuple(r).values[0], src.RowTuple(r).values[0]);
  }
  // Single survivor.
  data::Batch one(KeyValueLayout());
  one.AppendGather(src, {2});
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.RowTuple(0).values[0], Value(2));
  // Repeated indices (FlatMap replication).
  data::Batch twice(KeyValueLayout());
  twice.AppendGather(src, {1, 1, 3});
  ASSERT_EQ(twice.NumRows(), 3u);
  EXPECT_EQ(twice.RowTuple(0).values[0], Value(1));
  EXPECT_EQ(twice.RowTuple(1).values[0], Value(1));
  EXPECT_EQ(twice.RowTuple(2).values[0], Value(3));
}

TEST(BatchTest, WireSizeMatchesTupleWireSize) {
  data::Batch b(data::BatchLayout(
      {DataType::kInt, DataType::kDouble, DataType::kString}));
  b.AppendTuple(MakeTuple({Value(1), Value(2.0), Value("abc")}, 0.0), 0.0,
                kNoAttr);
  b.AppendTuple(MakeTuple({Value(2), Value(3.0), Value("defghij")}, 1.0), 1.0,
                kNoAttr);
  size_t expected = 0;
  for (size_t r = 0; r < b.NumRows(); ++r) {
    expected += b.RowTuple(r).WireSize();
  }
  EXPECT_EQ(b.WireSize(0, b.NumRows()), expected);
  EXPECT_EQ(b.WireSize(1, 2), b.RowTuple(1).WireSize());
  EXPECT_EQ(b.WireSize(0, 0), 0u);
}

// The property test of the tentpole contract: any tuple a randomized
// Table-3 stream can produce (1-15 columns, every type mix) survives a trip
// through a batch — including through gather and range copies — unchanged.
TEST(BatchPropertyTest, RoundTripOverRandomizedSchemas) {
  Rng rng(20240808);
  for (int trial = 0; trial < 50; ++trial) {
    SchemaRandomizerOptions opt;
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    auto gen = TupleGenerator::Create(spec.schema, spec.specs,
                                      1000 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    data::Batch b{data::BatchLayout(spec.schema)};
    std::vector<Tuple> originals;
    for (int i = 0; i < 64; ++i) {
      Tuple t = gen->Next(i * 0.001);
      b.AppendTuple(t, i * 0.001, static_cast<uint32_t>(i));
      originals.push_back(std::move(t));
    }
    ASSERT_EQ(b.NumRows(), originals.size());
    EXPECT_EQ(b.promotions(), 0u) << "trial " << trial;
    // Direct round trip.
    for (size_t r = 0; r < originals.size(); ++r) {
      const Tuple back = b.RowTuple(r);
      ASSERT_EQ(back.values.size(), originals[r].values.size());
      for (size_t c = 0; c < back.values.size(); ++c) {
        EXPECT_EQ(back.values[c], originals[r].values[c])
            << "trial " << trial << " row " << r << " col " << c;
        EXPECT_EQ(back.values[c].type(), originals[r].values[c].type());
      }
      EXPECT_DOUBLE_EQ(back.event_time, originals[r].event_time);
      EXPECT_EQ(b.attr_id(r), static_cast<uint32_t>(r));
    }
    // Through a range copy and a reversing gather.
    data::Batch range{data::BatchLayout(spec.schema)};
    range.AppendRange(b, 16, 48);
    ASSERT_EQ(range.NumRows(), 32u);
    for (size_t r = 0; r < 32; ++r) {
      EXPECT_EQ(range.RowTuple(r).values, originals[16 + r].values);
    }
    data::SelectionVector reversed;
    for (size_t r = originals.size(); r > 0; --r) {
      reversed.push_back(static_cast<uint32_t>(r - 1));
    }
    data::Batch gathered{data::BatchLayout(spec.schema)};
    gathered.AppendGather(b, reversed);
    for (size_t r = 0; r < originals.size(); ++r) {
      EXPECT_EQ(gathered.RowTuple(r).values,
                originals[originals.size() - 1 - r].values);
    }
  }
}

// Generator equivalence: the columnar append path must draw the identical
// RNG sequence as the row path, so sources produce bit-identical streams
// whichever path the engine uses.
TEST(BatchPropertyTest, GeneratorAppendNextMatchesNext) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    SchemaRandomizerOptions opt;
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    const uint64_t seed = 5000 + static_cast<uint64_t>(trial);
    auto row_gen = TupleGenerator::Create(spec.schema, spec.specs, seed);
    auto col_gen = TupleGenerator::Create(spec.schema, spec.specs, seed);
    ASSERT_TRUE(row_gen.ok() && col_gen.ok());
    data::Batch b{data::BatchLayout(spec.schema)};
    std::vector<Tuple> rows;
    for (int i = 0; i < 256; ++i) {
      rows.push_back(row_gen->Next(i * 0.01));
      col_gen->AppendNext(i * 0.01, i * 0.01, kNoAttr, &b);
    }
    ASSERT_EQ(b.NumRows(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const Tuple back = b.RowTuple(r);
      ASSERT_EQ(back.values.size(), rows[r].values.size());
      for (size_t c = 0; c < back.values.size(); ++c) {
        EXPECT_EQ(back.values[c], rows[r].values[c])
            << "trial " << trial << " row " << r << " col " << c;
      }
    }
  }
}

// Regression for the keying contract (satellite of the columnar refactor):
// Value::Hash must treat 1 and 1.0 as the same key, and the columnar hash
// kernel must agree with the scalar hash for every key type, or hash
// partitioning would route the same key to different instances depending on
// the data plane in use.
TEST(ValueHashRegressionTest, IntAndIntegralDoubleHashAlike) {
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
  EXPECT_EQ(Value(-3).Hash(), Value(-3.0).Hash());
  EXPECT_EQ(Value(0).Hash(), Value(0.0).Hash());
  EXPECT_NE(Value(1.5).Hash(), Value(1).Hash());
  EXPECT_EQ(HashInt64Value(1), Value(1).Hash());
  EXPECT_EQ(HashDoubleValue(1.0), Value(1.0).Hash());
  EXPECT_EQ(HashStringValue("key"), Value("key").Hash());
}

TEST(ValueHashRegressionTest, ColumnarHashKernelMatchesScalarHash) {
  data::Batch b(data::BatchLayout(
      {DataType::kInt, DataType::kDouble, DataType::kString}));
  Rng rng(9);
  for (int i = 0; i < 128; ++i) {
    b.AppendInt(0, rng.UniformInt(-1000, 1000));
    // Mix integral and fractional doubles so the integral-double folding
    // path is exercised.
    b.AppendDouble(1, i % 2 == 0 ? static_cast<double>(i)
                                 : rng.Uniform(0.0, 100.0));
    b.AppendString(2, DictionaryWord(rng.UniformInt(0, 500)));
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  std::vector<uint64_t> hashes(b.NumRows());
  for (size_t col = 0; col < b.NumColumns(); ++col) {
    kernels::HashColumn(b, 0, b.NumRows(), col, hashes.data());
    for (size_t r = 0; r < b.NumRows(); ++r) {
      EXPECT_EQ(hashes[r], b.ValueAt(r, col).Hash())
          << "col " << col << " row " << r;
    }
  }
}

}  // namespace
}  // namespace pdsp
