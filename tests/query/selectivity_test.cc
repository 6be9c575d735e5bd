#include "src/query/selectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

FieldGeneratorSpec UniformIntSpec(double lo, double hi) {
  FieldGeneratorSpec s;
  s.dist = FieldDistribution::kUniformInt;
  s.min = lo;
  s.max = hi;
  return s;
}

FieldGeneratorSpec UniformDoubleSpec(double lo, double hi) {
  FieldGeneratorSpec s;
  s.dist = FieldDistribution::kUniformDouble;
  s.min = lo;
  s.max = hi;
  return s;
}

TEST(SelectivityTest, UniformIntComparisons) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(50)),
              0.50, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value(51)),
              0.50, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kGt, Value(75)),
              0.25, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value(7)),
              0.01, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kNe, Value(7)),
              0.99, 1e-9);
}

TEST(SelectivityTest, LiteralOutsideRangeClampsToZeroOrOne) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kGt, Value(1000)),
                   0.0);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(1000)),
                   1.0);
}

TEST(SelectivityTest, UniformDoubleComparisons) {
  auto spec = UniformDoubleSpec(0.0, 10.0);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value(2.5)),
              0.25, 1e-9);
  // Equality on a continuous field has zero mass.
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value(5.0)),
                   0.0);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kNe, Value(5.0)),
                   1.0);
}

TEST(SelectivityTest, NormalDoubleMedianAtMean) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kNormalDouble;
  spec.min = 0.0;
  spec.max = 10.0;  // mean 5, sd 10/6
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(5.0)),
              0.5, 1e-6);
  EXPECT_GT(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(7.0)), 0.7);
}

TEST(SelectivityTest, ZipfEqualityOnTopRankDominates) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 1000;
  spec.zipf_s = 1.0;
  const double top = *EstimateFilterSelectivity(spec, FilterOp::kEq, Value(1));
  const double mid =
      *EstimateFilterSelectivity(spec, FilterOp::kEq, Value(500));
  EXPECT_GT(top, 0.05);
  EXPECT_GT(top, mid * 50);
}

TEST(SelectivityTest, StringLiteralAgainstNumericFieldIsError) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_TRUE(EstimateFilterSelectivity(spec, FilterOp::kGt, Value("x"))
                  .status()
                  .IsInvalidArgument());
}

TEST(SelectivityTest, WordStringEqualityUsesDictionaryShare) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kWordString;
  spec.cardinality = 200;
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value("x")),
              1.0 / 200, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value("x")), 0.5,
              1e-9);
}

// The core property of Section 3.1: generated literals must give the
// requested selectivity, and empirical pass rates must match it.
class LiteralInversionTest
    : public ::testing::TestWithParam<std::tuple<FilterOp, double>> {};

TEST_P(LiteralInversionTest, EmpiricalSelectivityMatchesTarget) {
  const auto [op, target] = GetParam();
  Rng rng(1234);
  const std::vector<FieldGeneratorSpec> field_specs = {
      UniformIntSpec(0, 10000),
      UniformDoubleSpec(-50.0, 50.0),
  };
  for (const auto& spec : field_specs) {
    auto literal = LiteralForSelectivity(spec, op, target, &rng);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    // Empirical check: generate values and measure the pass rate.
    Schema schema({{"a", spec.OutputType()}});
    auto gen = TupleGenerator::Create(schema, {spec}, 77);
    ASSERT_TRUE(gen.ok());
    int64_t pass = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const Value v = gen->Next(0).values[0];
      bool hit = false;
      switch (op) {
        case FilterOp::kLt:
          hit = v < *literal;
          break;
        case FilterOp::kLe:
          hit = v <= *literal;
          break;
        case FilterOp::kGt:
          hit = v > *literal;
          break;
        case FilterOp::kGe:
          hit = v >= *literal;
          break;
        default:
          hit = false;
      }
      pass += hit;
    }
    EXPECT_NEAR(static_cast<double>(pass) / n, target, 0.03)
        << "op=" << FilterOpToString(op) << " target=" << target;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndTargets, LiteralInversionTest,
    ::testing::Combine(::testing::Values(FilterOp::kLt, FilterOp::kLe,
                                         FilterOp::kGt, FilterOp::kGe),
                       ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9)));

TEST(LiteralForSelectivityTest, EqualityOnZipfKeyApproximatesTarget) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 10000;
  spec.zipf_s = 1.0;
  Rng rng(5);
  auto lit = LiteralForSelectivity(spec, FilterOp::kEq, 0.05, &rng);
  ASSERT_TRUE(lit.ok());
  const double est =
      *EstimateFilterSelectivity(spec, FilterOp::kEq, *lit);
  EXPECT_GT(est, 0.005);
  EXPECT_LT(est, 0.25);
}

TEST(LiteralForSelectivityTest, EqualityOnContinuousFieldIsError) {
  Rng rng(5);
  auto r = LiteralForSelectivity(UniformDoubleSpec(0, 1), FilterOp::kEq, 0.5,
                                 &rng);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(LiteralForSelectivityTest, SequenceFieldIsError) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kSequence;
  Rng rng(5);
  EXPECT_FALSE(LiteralForSelectivity(spec, FilterOp::kGt, 0.5, &rng).ok());
}

TEST(GeneralizedHarmonicTest, MatchesDirectSum) {
  double direct = 0.0;
  for (int k = 1; k <= 1000; ++k) direct += std::pow(k, -1.2);
  EXPECT_NEAR(GeneralizedHarmonic(1000, 1.2), direct, 1e-9);
}

TEST(GeneralizedHarmonicTest, LargeNUsesIntegralTail) {
  // H_{10^7, 1.0} ~ ln(10^7) + gamma ~ 16.695.
  EXPECT_NEAR(GeneralizedHarmonic(10000000, 1.0), 16.695, 0.01);
}

// GeneralizedHarmonic and KeyMatchProbability as they were before the
// memo, kept verbatim as the reference the memoized values must equal bit
// for bit.
double ReferenceHarmonic(int64_t n, double s) {
  if (n <= 0) return 0.0;
  const int64_t exact_terms = std::min<int64_t>(n, 100000);
  double sum = 0.0;
  for (int64_t k = 1; k <= exact_terms; ++k) {
    sum += std::pow(static_cast<double>(k), -s);
  }
  if (n > exact_terms) {
    const double a = static_cast<double>(exact_terms) + 0.5;
    const double b = static_cast<double>(n) + 0.5;
    if (s == 1.0) {
      sum += std::log(b / a);
    } else {
      sum += (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
    }
  }
  return sum;
}

double ReferenceKeyMass(const FieldGeneratorSpec& spec, int64_t k,
                        double harmonic) {
  switch (spec.dist) {
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kWordString:
      if (k > spec.cardinality) return 0.0;
      return std::pow(static_cast<double>(k), -spec.zipf_s) / harmonic;
    case FieldDistribution::kUniformKey:
      return k <= spec.cardinality
                 ? 1.0 / static_cast<double>(spec.cardinality)
                 : 0.0;
    case FieldDistribution::kUniformInt: {
      const double n = spec.max - spec.min + 1.0;
      return k <= static_cast<int64_t>(n) ? 1.0 / n : 0.0;
    }
    default:
      return -1.0;
  }
}

int64_t ReferenceKeyCardinality(const FieldGeneratorSpec& spec) {
  switch (spec.dist) {
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kWordString:
    case FieldDistribution::kUniformKey:
      return spec.cardinality;
    case FieldDistribution::kUniformInt:
      return static_cast<int64_t>(spec.max - spec.min + 1.0);
    default:
      return -1;
  }
}

double ReferenceKeyMatch(const FieldGeneratorSpec& left,
                         const FieldGeneratorSpec& right) {
  const int64_t n_l = ReferenceKeyCardinality(left);
  const int64_t n_r = ReferenceKeyCardinality(right);
  if (n_l < 1 || n_r < 1) {
    const auto fallback = static_cast<double>(std::max<int64_t>(
        1, std::max(n_l, n_r)));
    return 1.0 / std::max(1.0, fallback);
  }
  const double h_l =
      (left.dist == FieldDistribution::kZipfKey ||
       left.dist == FieldDistribution::kWordString)
          ? ReferenceHarmonic(n_l, left.zipf_s)
          : 1.0;
  const double h_r =
      (right.dist == FieldDistribution::kZipfKey ||
       right.dist == FieldDistribution::kWordString)
          ? ReferenceHarmonic(n_r, right.zipf_s)
          : 1.0;
  const int64_t n = std::min(n_l, n_r);
  const int64_t exact = std::min<int64_t>(n, 100000);
  double prob = 0.0;
  for (int64_t k = 1; k <= exact; ++k) {
    prob += ReferenceKeyMass(left, k, h_l) * ReferenceKeyMass(right, k, h_r);
  }
  if (n > exact) {
    prob += static_cast<double>(n - exact) *
            ReferenceKeyMass(left, exact, h_l) *
            ReferenceKeyMass(right, exact, h_r);
  }
  return std::clamp(prob, 0.0, 1.0);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Equal bits, or both NaN: a NaN's sign is not fixed across two
// compilations of one sum, since the compiler may swap the operands of +
// (at n > 100,000 a NaN s reads 0x7ff8... in one copy, 0xfff8... in the
// other).
bool SameResult(double got, double want) {
  return Bits(got) == Bits(want) || (std::isnan(got) && std::isnan(want));
}

struct HarmonicCase {
  int64_t n;
  double s;
};

// n below, at and above the 100,000 exact terms; s == 1, s != 1, NaN and
// both zeros (equal values, distinct keys).
std::vector<HarmonicCase> HarmonicCases(double unique_s) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<HarmonicCase> cases;
  for (int64_t n : {int64_t{1000}, int64_t{99999}, int64_t{100000},
                    int64_t{100001}, int64_t{800000}}) {
    for (double s : {1.0, 0.4, 1.05, nan, 0.0, -0.0, unique_s}) {
      cases.push_back({n, s});
    }
  }
  return cases;
}

struct KeyMatchCase {
  FieldGeneratorSpec left, right;
};

std::vector<KeyMatchCase> KeyMatchCases(double unique_s) {
  const auto zipf = [](int64_t n, double s) {
    return testing::KeyValueStream(n, s).specs[0];
  };
  FieldGeneratorSpec uniform_key;
  uniform_key.dist = FieldDistribution::kUniformKey;
  uniform_key.cardinality = 300000;
  FieldGeneratorSpec small_uniform_key = uniform_key;
  small_uniform_key.cardinality = 1000;
  FieldGeneratorSpec words = zipf(20000, 1.05);
  words.dist = FieldDistribution::kWordString;
  return {
      {zipf(800000, 0.4), zipf(800000, 0.4)},       // the join streams
      {zipf(1000, 1.1), zipf(5000, unique_s)},      // Zipf x Zipf
      {zipf(800000, 0.4), small_uniform_key},       // Zipf x uniform key
      {zipf(1000, 0.8), UniformIntSpec(0, 999)},    // Zipf x uniform int
      {uniform_key, uniform_key},                   // uniform, past 100k
      {UniformIntSpec(1, 500), small_uniform_key},  // uniform x uniform
      {words, words},                               // dictionary words
      {zipf(1000, 0.8), UniformDoubleSpec(0, 1)},   // not discrete
  };
}

TEST(SetupMemoTest, HarmonicEqualsTheSummationBitForBit) {
  for (const HarmonicCase& c : HarmonicCases(0.3183)) {
    const double want = ReferenceHarmonic(c.n, c.s);
    // The first call computes, the second reads the memo.
    const double computed = GeneralizedHarmonic(c.n, c.s);
    EXPECT_TRUE(SameResult(computed, want))
        << "n=" << c.n << " s=" << c.s << ": " << computed << " vs " << want;
    EXPECT_EQ(Bits(GeneralizedHarmonic(c.n, c.s)), Bits(computed))
        << "n=" << c.n << " s=" << c.s;
  }
  EXPECT_EQ(GeneralizedHarmonic(0, 0.4), 0.0);
}

TEST(SetupMemoTest, KeyMatchEqualsTheSummationBitForBit) {
  for (const KeyMatchCase& c : KeyMatchCases(0.3183)) {
    const uint64_t want = Bits(ReferenceKeyMatch(c.left, c.right));
    // The first call computes, the second reads the memo.
    EXPECT_EQ(Bits(KeyMatchProbability(c.left, c.right)), want)
        << FieldDistributionToString(c.left.dist) << " x "
        << FieldDistributionToString(c.right.dist);
    EXPECT_EQ(Bits(KeyMatchProbability(c.left, c.right)), want)
        << FieldDistributionToString(c.left.dist) << " x "
        << FieldDistributionToString(c.right.dist);
  }
}

// Concurrent callers on fresh keys race to compute and insert, and a walk
// over more keys than the memo holds clears it under them; every caller
// still gets the summation's bits (for a NaN sum, the bits the memo's own
// summation gives).
TEST(SetupMemoTest, ConcurrentCallersGetTheSameBits) {
  constexpr double kFreshS = 0.6180339;
  const std::vector<HarmonicCase> harmonic = HarmonicCases(kFreshS);
  const std::vector<KeyMatchCase> key_match = KeyMatchCases(kFreshS);
  std::vector<uint64_t> harmonic_want, key_match_want, walk_want;
  for (const HarmonicCase& c : harmonic) {
    const double want = ReferenceHarmonic(c.n, c.s);
    harmonic_want.push_back(
        Bits(std::isnan(want) ? GeneralizedHarmonic(c.n, c.s) : want));
  }
  for (const KeyMatchCase& c : key_match) {
    key_match_want.push_back(Bits(ReferenceKeyMatch(c.left, c.right)));
  }
  constexpr int kWalk = 5000;  // more keys than the memo's capacity
  for (int i = 0; i < kWalk; ++i) {
    walk_want.push_back(Bits(ReferenceHarmonic(3, 2.0 + 1e-3 * i)));
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = 0; j < harmonic.size(); ++j) {
        const size_t i = (j + static_cast<size_t>(t)) % harmonic.size();
        mismatches[t] += Bits(GeneralizedHarmonic(
                             harmonic[i].n, harmonic[i].s)) != harmonic_want[i];
      }
      for (size_t j = 0; j < key_match.size(); ++j) {
        const size_t i = (j + static_cast<size_t>(t)) % key_match.size();
        mismatches[t] += Bits(KeyMatchProbability(
                             key_match[i].left, key_match[i].right)) !=
                         key_match_want[i];
      }
      for (int i = 0; i < kWalk; ++i) {
        mismatches[t] +=
            Bits(GeneralizedHarmonic(3, 2.0 + 1e-3 * i)) != walk_want[i];
      }
      for (size_t i = 0; i < key_match.size(); ++i) {
        mismatches[t] += Bits(KeyMatchProbability(
                             key_match[i].left, key_match[i].right)) !=
                         key_match_want[i];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(ZipfCdfTest, Monotone) {
  double prev = 0.0;
  for (int k = 1; k <= 100; k += 7) {
    const double c = ZipfCdf(k, 100, 0.9);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(ZipfCdf(100, 100, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(ZipfCdf(0, 100, 0.9), 0.0);
}

TEST(ResolveFieldSpecTest, WalksThroughFiltersAndMaps) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto agg = plan->FindOperator("agg");
  ASSERT_TRUE(agg.ok());
  // Field 0 (key) upstream of agg resolves to the zipf key spec.
  auto spec = ResolveFieldSpec(*plan, plan->Inputs(*agg)[0], 0);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->dist, FieldDistribution::kZipfKey);
}

TEST(ResolveFieldSpecTest, StopsAtAggregates) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  // The sink's input is the aggregate: provenance must fail.
  auto spec = ResolveFieldSpec(*plan, plan->SinkId(), 0);
  EXPECT_TRUE(spec.status().IsFailedPrecondition());
}

TEST(AnnotateFilterSelectivitiesTest, FillsHints) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto f = plan->FindOperator("filter");
  ASSERT_TRUE(f.ok());
  EXPECT_LT(plan->op(*f).selectivity_hint, 0.0);
  ASSERT_TRUE(AnnotateFilterSelectivities(&*plan).ok());
  // filter: val > 50 on uniform[0,100) => sel 0.5.
  EXPECT_NEAR(plan->op(*f).selectivity_hint, 0.5, 1e-6);
  EXPECT_TRUE(plan->validated());
}

}  // namespace
}  // namespace pdsp
