#include "src/data/generator.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <utility>

namespace pdsp {
namespace {

Schema TwoFieldSchema() {
  return Schema({{"a", DataType::kInt}, {"b", DataType::kDouble}});
}

TEST(TupleGeneratorTest, RejectsArityMismatch) {
  auto gen = TupleGenerator::Create(TwoFieldSchema(),
                                    {FieldGeneratorSpec{}}, 1);
  EXPECT_TRUE(gen.status().IsInvalidArgument());
}

TEST(TupleGeneratorTest, RejectsTypeMismatch) {
  FieldGeneratorSpec int_spec;  // kUniformInt -> int
  FieldGeneratorSpec also_int = int_spec;
  auto gen = TupleGenerator::Create(TwoFieldSchema(), {int_spec, also_int}, 1);
  EXPECT_TRUE(gen.status().IsInvalidArgument());
}

TEST(TupleGeneratorTest, RejectsBadRanges) {
  FieldGeneratorSpec bad;
  bad.min = 10;
  bad.max = 1;
  auto gen = TupleGenerator::Create(Schema({{"a", DataType::kInt}}), {bad}, 1);
  EXPECT_TRUE(gen.status().IsInvalidArgument());

  FieldGeneratorSpec zero_card;
  zero_card.dist = FieldDistribution::kZipfKey;
  zero_card.cardinality = 0;
  auto gen2 =
      TupleGenerator::Create(Schema({{"a", DataType::kInt}}), {zero_card}, 1);
  EXPECT_TRUE(gen2.status().IsInvalidArgument());
}

// A NaN or infinite exponent used to hang the first Zipf draw; bounds
// would be cast to integers. All are rejected up front.
TEST(TupleGeneratorTest, RejectsNonFiniteBoundsAndExponent) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {kInf, -kInf, kNaN}) {
    for (FieldDistribution dist :
         {FieldDistribution::kZipfKey, FieldDistribution::kSentence}) {
      FieldGeneratorSpec spec;
      spec.dist = dist;
      spec.min = 1;
      spec.max = 3;
      spec.zipf_s = bad;
      auto gen = TupleGenerator::Create(
          Schema({{"a", spec.OutputType()}}), {spec}, 1);
      EXPECT_TRUE(gen.status().IsInvalidArgument())
          << FieldDistributionToString(dist) << " zipf_s=" << bad;
    }
    FieldGeneratorSpec low;
    low.dist = FieldDistribution::kUniformDouble;
    low.min = bad;
    FieldGeneratorSpec high;
    high.dist = FieldDistribution::kUniformDouble;
    high.max = bad;
    for (const FieldGeneratorSpec& spec : {low, high}) {
      auto gen = TupleGenerator::Create(
          Schema({{"a", DataType::kDouble}}), {spec}, 1);
      EXPECT_TRUE(gen.status().IsInvalidArgument())
          << "min=" << spec.min << " max=" << spec.max;
    }
  }
}

// Integer draws convert the bounds to int64_t: a finite bound outside
// [-2^63, 2^63) used to convert to INT64_MIN, so {0, 1e300} drew 0 forever.
TEST(TupleGeneratorTest, RejectsIntegerBoundsOutsideInt64) {
  for (FieldDistribution dist :
       {FieldDistribution::kUniformInt, FieldDistribution::kSentence}) {
    for (const auto& [min, max] : {std::pair{0.0, 1e300},
                                   std::pair{-1e300, 0.0},
                                   std::pair{0.0, 0x1p63}}) {
      FieldGeneratorSpec spec;
      spec.dist = dist;
      spec.min = min;
      spec.max = max;
      auto gen = TupleGenerator::Create(
          Schema({{"a", spec.OutputType()}}), {spec}, 1);
      EXPECT_TRUE(gen.status().IsInvalidArgument())
          << FieldDistributionToString(dist) << " [" << min << ", " << max
          << "]";
    }
  }
  // The extremes that do fit are accepted; a double bound keeps any range.
  FieldGeneratorSpec widest;
  widest.min = -0x1p63;
  widest.max = 0x1p62;
  EXPECT_TRUE(
      TupleGenerator::Create(Schema({{"a", DataType::kInt}}), {widest}, 1)
          .ok());
  FieldGeneratorSpec wide_double;
  wide_double.dist = FieldDistribution::kUniformDouble;
  wide_double.max = 1e300;
  EXPECT_TRUE(TupleGenerator::Create(Schema({{"a", DataType::kDouble}}),
                                     {wide_double}, 1)
                  .ok());
}

TEST(TupleGeneratorTest, ZipfKeysAreTheRngZipfDraws) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 800000;
  spec.zipf_s = 0.4;
  auto gen =
      TupleGenerator::Create(Schema({{"k", DataType::kInt}}), {spec}, 42);
  ASSERT_TRUE(gen.ok());
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(gen->Next(0).values[0].AsInt(), rng.Zipf(800000, 0.4)) << i;
  }
}

// All holders of one (cardinality, zipf_s) share one table, and it is
// freed once the last of them is gone.
TEST(TupleGeneratorTest, ZipfFieldsShareOneTableFreedWithTheLastHolder) {
  constexpr int64_t kKeys = 4321;
  constexpr double kSkew = 0.77;
  std::shared_ptr<const ZipfTable> table = ZipfTable::Acquire(kKeys, kSkew);
  EXPECT_EQ(ZipfTable::Acquire(kKeys, kSkew), table);
  EXPECT_NE(ZipfTable::Acquire(kKeys, 0.78), table);
  const std::weak_ptr<const ZipfTable> weak = table;

  FieldGeneratorSpec key;
  key.dist = FieldDistribution::kZipfKey;
  key.cardinality = kKeys;
  key.zipf_s = kSkew;
  FieldGeneratorSpec word = key;
  word.dist = FieldDistribution::kWordString;
  auto keys = std::make_unique<TupleGenerator>(
      TupleGenerator::Create(Schema({{"k", DataType::kInt}}), {key}, 1)
          .value());
  auto words = std::make_unique<TupleGenerator>(
      TupleGenerator::Create(Schema({{"w", DataType::kString}}), {word}, 2)
          .value());
  table.reset();
  EXPECT_FALSE(weak.expired());
  keys.reset();
  EXPECT_FALSE(weak.expired()) << "the word generator still holds it";
  words.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(TupleGeneratorTest, GeneratesConformingTuples) {
  FieldGeneratorSpec int_spec;
  int_spec.min = 0;
  int_spec.max = 9;
  FieldGeneratorSpec dbl_spec;
  dbl_spec.dist = FieldDistribution::kUniformDouble;
  dbl_spec.min = -1.0;
  dbl_spec.max = 1.0;
  auto gen = TupleGenerator::Create(TwoFieldSchema(), {int_spec, dbl_spec}, 7);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 1000; ++i) {
    Tuple t = gen->Next(static_cast<double>(i));
    ASSERT_EQ(t.values.size(), 2u);
    EXPECT_TRUE(t.values[0].is_int());
    EXPECT_GE(t.values[0].AsInt(), 0);
    EXPECT_LE(t.values[0].AsInt(), 9);
    EXPECT_TRUE(t.values[1].is_double());
    EXPECT_GE(t.values[1].AsDouble(), -1.0);
    EXPECT_LT(t.values[1].AsDouble(), 1.0);
    EXPECT_EQ(t.event_time, static_cast<double>(i));
  }
}

TEST(TupleGeneratorTest, NormalDoubleStaysClamped) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kNormalDouble;
  spec.min = 0.0;
  spec.max = 10.0;
  auto gen =
      TupleGenerator::Create(Schema({{"a", DataType::kDouble}}), {spec}, 3);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 5000; ++i) {
    double v = gen->Next(0).values[0].AsDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(TupleGeneratorTest, SequenceFieldIncrements) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kSequence;
  auto gen =
      TupleGenerator::Create(Schema({{"id", DataType::kInt}}), {spec}, 3);
  ASSERT_TRUE(gen.ok());
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gen->Next(0).values[0].AsInt(), i);
  }
}

TEST(TupleGeneratorTest, ZipfKeySkew) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 1000;
  spec.zipf_s = 1.1;
  auto gen =
      TupleGenerator::Create(Schema({{"k", DataType::kInt}}), {spec}, 3);
  ASSERT_TRUE(gen.ok());
  int64_t rank1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) rank1 += (gen->Next(0).values[0].AsInt() == 1);
  EXPECT_GT(rank1, n / 100);  // far above the uniform 1/1000 share
}

TEST(TupleGeneratorTest, WordStringsComeFromDictionary) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kWordString;
  spec.cardinality = 50;
  auto gen =
      TupleGenerator::Create(Schema({{"w", DataType::kString}}), {spec}, 3);
  ASSERT_TRUE(gen.ok());
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(gen->Next(0).values[0].AsString());
  EXPECT_LE(seen.size(), 50u);
  EXPECT_GT(seen.size(), 10u);
}

TEST(TupleGeneratorTest, DeterministicAcrossRuns) {
  FieldGeneratorSpec spec;
  spec.min = 0;
  spec.max = 1000000;
  auto a = TupleGenerator::Create(Schema({{"a", DataType::kInt}}), {spec}, 99);
  auto b = TupleGenerator::Create(Schema({{"a", DataType::kInt}}), {spec}, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a->Next(0).values[0].AsInt(), b->Next(0).values[0].AsInt());
  }
}

TEST(DictionaryWordTest, DeterministicAndDistinct) {
  EXPECT_EQ(DictionaryWord(0), DictionaryWord(0));
  std::set<std::string> words;
  for (int64_t i = 0; i < 500; ++i) words.insert(DictionaryWord(i));
  EXPECT_EQ(words.size(), 500u);
}

TEST(DictionaryWordTest, NegativeIndexIsSafe) {
  EXPECT_FALSE(DictionaryWord(-5).empty());
}

TEST(RandomStreamSpecTest, RespectsWidthBounds) {
  SchemaRandomizerOptions opt;
  opt.min_tuple_width = 2;
  opt.max_tuple_width = 6;
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    EXPECT_GE(spec.schema.NumFields(), 2u);
    EXPECT_LE(spec.schema.NumFields(), 6u);
    EXPECT_EQ(spec.schema.NumFields(), spec.specs.size());
  }
}

TEST(RandomStreamSpecTest, SpecsMatchSchemaTypes) {
  SchemaRandomizerOptions opt;
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    for (size_t f = 0; f < spec.specs.size(); ++f) {
      EXPECT_EQ(spec.specs[f].OutputType(), spec.schema.field(f).type);
    }
    // A generated spec must be usable by TupleGenerator.
    auto gen = TupleGenerator::Create(spec.schema, spec.specs, 1);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
  }
}

TEST(RandomStreamSpecTest, NoStringsWhenDisallowed) {
  SchemaRandomizerOptions opt;
  opt.allow_strings = false;
  Rng rng(44);
  for (int i = 0; i < 30; ++i) {
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    for (size_t f = 0; f < spec.schema.NumFields(); ++f) {
      EXPECT_NE(spec.schema.field(f).type, DataType::kString);
    }
  }
}

TEST(FieldGeneratorSpecTest, OutputTypes) {
  FieldGeneratorSpec s;
  s.dist = FieldDistribution::kUniformInt;
  EXPECT_EQ(s.OutputType(), DataType::kInt);
  s.dist = FieldDistribution::kNormalDouble;
  EXPECT_EQ(s.OutputType(), DataType::kDouble);
  s.dist = FieldDistribution::kWordString;
  EXPECT_EQ(s.OutputType(), DataType::kString);
  s.dist = FieldDistribution::kSequence;
  EXPECT_EQ(s.OutputType(), DataType::kInt);
}

}  // namespace
}  // namespace pdsp
