#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace pdsp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 6000; ++i) ++counts[rng.UniformInt(0, 5)];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [v, c] : counts) {
    EXPECT_GT(c, 700) << "value " << v;  // expected 1000 each
    EXPECT_LT(c, 1300) << "value " << v;
  }
}

/// Rng::UniformInt as it was before it computed in uint64_t, verbatim
/// except for drawing through `rng`; defined only where hi - lo and the
/// result fit in int64_t.
int64_t ReferenceUniformInt(Rng* rng, int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  // Debiased modulo (Lemire-style rejection).
  const uint64_t threshold = (0 - range) % range;
  for (;;) {
    const uint64_t r = rng->NextUint64();
    if (r >= threshold) return lo + static_cast<int64_t>(r % range);
  }
}

void ExpectUniformIntMatchesReference(uint64_t seed) {
  Rng params(seed);
  Rng got(seed + 1), want(seed + 1);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 20000; ++i) {
    // Bounds of every magnitude, kept to ranges narrower than 2^63 so the
    // reference stays defined; a third of them reach an int64 end.
    const int bits = static_cast<int>(params.UniformInt(1, 62));
    const int64_t width = static_cast<int64_t>(params.NextUint64() >>
                                               (64 - bits));  // < 2^bits
    int64_t lo;
    switch (params.UniformInt(0, 2)) {
      case 0:
        lo = std::numeric_limits<int64_t>::min() +
             static_cast<int64_t>(params.NextUint64() >> (64 - bits));
        break;
      case 1:
        lo = kMax - width;
        break;
      default:
        lo = static_cast<int64_t>(params.NextUint64() >> 2) -
             (int64_t{1} << 61);
        break;
    }
    const int64_t hi = lo + width;
    ASSERT_EQ(got.UniformInt(lo, hi), ReferenceUniformInt(&want, lo, hi))
        << "draw " << i << " [" << lo << ", " << hi << "]";
  }
  EXPECT_EQ(got.NextUint64(), want.NextUint64());
}

TEST(RngTest, UniformIntMatchesPreviousDrawsSeed42) {
  ExpectUniformIntMatchesReference(42);
}

TEST(RngTest, UniformIntMatchesPreviousDrawsSeed1009) {
  ExpectUniformIntMatchesReference(1009);
}

TEST(RngTest, UniformIntWiderThanHalfTheInt64Range) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const struct {
    int64_t lo, hi;
  } ranges[] = {{kMin, int64_t{1} << 62},
                {-(int64_t{1} << 62), kMax},
                {kMin, kMax - 1},
                {kMin + 1, kMax}};
  for (const auto& range : ranges) {
    Rng rng(42);
    bool below_zero = false, above_zero = false;
    for (int i = 0; i < 4000; ++i) {
      const int64_t v = rng.UniformInt(range.lo, range.hi);
      ASSERT_GE(v, range.lo);
      ASSERT_LE(v, range.hi);
      below_zero |= v < 0;
      above_zero |= v > 0;
    }
    EXPECT_TRUE(below_zero && above_zero)
        << "[" << range.lo << ", " << range.hi << "]";
  }
}

TEST(RngTest, UniformIntOverAllOfInt64IsTheRawDraw) {
  Rng rng(1009), raw(1009);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()),
              static_cast<int64_t>(raw.NextUint64()));
  }
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(9);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialIsPositive) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.Exponential(0.001), 0.0);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto v = static_cast<double>(rng.Poisson(200.0));
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  EXPECT_NEAR(mean, 200.0, 1.0);
  EXPECT_NEAR(sq / n - mean * mean, 200.0, 15.0);  // var == mean for Poisson
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, ZipfWithinRange) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Zipf(100, 1.2);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(RngTest, ZipfIsSkewedTowardsLowRanks) {
  Rng rng(17);
  int64_t ones = 0, total = 20000;
  for (int64_t i = 0; i < total; ++i) ones += (rng.Zipf(1000, 1.1) == 1);
  // Rank 1 should carry far more than the uniform share of 1/1000.
  EXPECT_GT(static_cast<double>(ones) / static_cast<double>(total), 0.05);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(19);
  std::vector<int64_t> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 0.0) - 1];
  for (int64_t c : counts) {
    EXPECT_GT(c, 1600);
    EXPECT_LT(c, 2400);
  }
}

TEST(RngTest, ZipfHandlesExponentOne) {
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.Zipf(50, 1.0);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
  }
}

TEST(RngTest, ZipfDegenerateN) {
  Rng rng(1);
  EXPECT_EQ(rng.Zipf(1, 1.5), 1);
  EXPECT_EQ(rng.Zipf(0, 1.5), 1);
}

// Rng::Zipf as it was before tables existed, kept verbatim as the
// reference (its per-Rng cache only ever held these constants).
double ReferenceZipfH(double x, double ss, double s) {
  if (s == 1.0) return std::log(x);
  return std::exp(ss * std::log(x)) / ss;
}

double ReferenceZipfHInv(double x, double ss, double s) {
  if (s == 1.0) return std::exp(x);
  return std::exp(std::log(ss * x) / ss);
}

int64_t ReferenceZipf(Rng* rng, int64_t n, double s) {
  if (n <= 1) return 1;
  if (s <= 0.0) return rng->UniformInt(1, n);
  const double ss = (s == 1.0) ? 0.0 : 1.0 - s;
  const double h_x1 = ReferenceZipfH(1.5, ss, s) - 1.0;
  const double hx0 = ReferenceZipfH(static_cast<double>(n) + 0.5, ss, s);
  for (;;) {
    const double u = h_x1 + rng->NextDouble() * (hx0 - h_x1);
    const double x = ReferenceZipfHInv(u, ss, s);
    int64_t k = static_cast<int64_t>(x + 0.5);
    k = std::clamp<int64_t>(k, 1, n);
    const double kd = static_cast<double>(k);
    if (u >= ReferenceZipfH(kd + 0.5, ss, s) - std::exp(-s * std::log(kd))) {
      return k;
    }
  }
}

// Table draws and untabled draws both return the reference's rank from the
// same NextDouble() calls, below and above the table's rank bound.
TEST(ZipfTableTest, DrawsEqualReferenceDrawForDraw) {
  const std::vector<int64_t> ns = {0,     1,     2,
                                   10,    1000,  20000,
                                   50000, ZipfTable::kMaxRanks,
                                   ZipfTable::kMaxRanks + 1, 800000};
  const std::vector<double> exponents = {-0.5, 0.0, 0.4, 0.9, 1.0, 1.05, 1.5};
  // 2 seeds x 70 distributions x 8,000 draws: 1.12M draws each way.
  constexpr int kDraws = 8000;
  int64_t past_bound = 0;
  for (uint64_t seed : {uint64_t{42}, uint64_t{1009}}) {
    for (int64_t n : ns) {
      for (double s : exponents) {
        const auto table = ZipfTable::Acquire(n, s);
        Rng reference(seed), untabled(seed), tabled(seed);
        for (int i = 0; i < kDraws; ++i) {
          const int64_t want = ReferenceZipf(&reference, n, s);
          ASSERT_EQ(untabled.Zipf(n, s), want)
              << "n=" << n << " s=" << s << " seed=" << seed << " draw " << i;
          const int64_t got = tabled.Zipf(*table);
          ASSERT_EQ(got, want)
              << "n=" << n << " s=" << s << " seed=" << seed << " draw " << i;
          past_bound += got > ZipfTable::kMaxRanks;
        }
        const uint64_t next = reference.NextUint64();
        EXPECT_EQ(untabled.NextUint64(), next) << "n=" << n << " s=" << s;
        EXPECT_EQ(tabled.NextUint64(), next) << "n=" << n << " s=" << s;
      }
    }
  }
  EXPECT_GT(past_bound, 0) << "no draw exercised a rank past the table";
}

TEST(ZipfTableTest, TabulatesRanksUpToTheBound) {
  EXPECT_EQ(ZipfTable(1000, 0.4).ranks(), 1000u);
  EXPECT_EQ(ZipfTable(800000, 0.4).ranks(),
            static_cast<size_t>(ZipfTable::kMaxRanks));
  EXPECT_EQ(ZipfTable(1000, 0.0).ranks(), 0u);   // uniform
  EXPECT_EQ(ZipfTable(1000, -0.5).ranks(), 0u);  // uniform
  EXPECT_EQ(ZipfTable(1, 1.5).ranks(), 0u);      // single rank
}

// Concurrent acquirers of one (n, s) share the live table, while tables
// of other distributions are built, dropped and swept around them.
TEST(ZipfTableTest, ConcurrentAcquirersShareOneTable) {
  const std::shared_ptr<const ZipfTable> held = ZipfTable::Acquire(30000, 0.85);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        mismatches[t] += ZipfTable::Acquire(30000, 0.85) != held;
        const auto brief = ZipfTable::Acquire(100 + i % 7, 0.5 + 0.01 * t);
        const int64_t k = rng.Zipf(*brief);
        mismatches[t] += k < 1 || k > 100 + i % 7;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, WeightedIndexAllZeroReturnsZero) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(weights), 0u);
}

TEST(RngTest, ChoicePicksExistingElements) {
  Rng rng(31);
  std::vector<int> items = {10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    int v = rng.Choice(items);
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

TEST(RngTest, ForkProducesDecorrelatedStream) {
  Rng base(42);
  Rng forked = base.Fork(1);
  Rng forked2 = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (forked.NextUint64() == forked2.NextUint64());
  }
  EXPECT_LT(same, 2);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace pdsp
