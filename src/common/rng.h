// Deterministic pseudo-random number generation and the distributions used by
// the workload generator: uniform, normal, exponential, Poisson (arrival
// processes, Section 4 "data is modelled as poisson distributed") and Zipf
// (skewed key distributions, Section 4 "we can also model other common data
// distributions such as zipf").

#ifndef PDSP_COMMON_RNG_H_
#define PDSP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pdsp {

/// \brief SplitMix64: used to seed the main generator and as a cheap
/// stateless mixer for deriving per-stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// \brief The rejection-inversion constants (Hörmann) of one Zipf(n, s)
/// distribution, where H is the integral of x^-s: x^(1-s)/(1-s), or log(x)
/// at s == 1. Only meaningful for n > 1 and s > 0; other (n, s) draw
/// without them.
struct ZipfConstants {
  int64_t n = -1;
  double s = -1.0;
  double ss = 0.0;    ///< 1 - s, or 0 at s == 1
  double h_x1 = 0.0;  ///< H(1.5) - 1
  double hx0 = 0.0;   ///< H(n + 0.5)

  static ZipfConstants For(int64_t n, double s);
};

class ZipfTable;

/// \brief xoshiro256**: the library-wide PRNG. Fast, high quality, and
/// deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box–Muller (cached pair).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with rate lambda (> 0); mean 1/lambda.
  double Exponential(double lambda);

  /// Poisson-distributed count with the given mean (>= 0). Uses Knuth's
  /// method for small means and a normal approximation above 64 (adequate
  /// for arrival batching; exact tails are irrelevant there).
  int64_t Poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent s, which must be finite
  /// (a NaN or +inf s never accepts a draw). s <= 0 is uniform. Uses
  /// rejection-inversion (Hörmann) so it is O(1) per draw: each attempt
  /// inverts H at a uniform point and accepts rank k when the point is at
  /// least k's threshold H(k + 0.5) - k^-s.
  int64_t Zipf(int64_t n, double s);

  /// The same draw as Zipf(n, s) for the table's (n, s), reading the
  /// accepted rank's threshold from the table when the rank is tabulated:
  /// the same ranks from the same NextDouble() calls, without the two logs
  /// and up to two exps that computing a threshold costs.
  int64_t Zipf(const ZipfTable& table);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Returns 0 for empty or all-zero weights.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Uniformly picks one element of a non-empty vector (by const reference).
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[static_cast<size_t>(UniformInt(
        0, static_cast<int64_t>(items.size()) - 1))];
  }

  /// Derives an independent generator; streams are decorrelated by mixing
  /// the given stream id into fresh state.
  Rng Fork(uint64_t stream_id);

 private:
  // The one rejection-inversion loop: thresholds[k - 1] is rank k's
  // acceptance threshold for the ranks it covers; other ranks compute it.
  int64_t ZipfDraw(const ZipfConstants& z, std::span<const double> thresholds);

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
  // Constants of the last Zipf(n, s) (recomputed when n or s change).
  ZipfConstants zipf_;
};

/// \brief An immutable Zipf(n, s) sampler table: the distribution's
/// ZipfConstants plus the acceptance threshold of each rank k up to
/// min(n, kMaxRanks), each computed by the expression Rng::Zipf(n, s)
/// evaluates per draw, so a table draw returns bit-identical ranks. The
/// bound keeps a table at 512 KB; past it a draw computes the threshold as
/// Rng::Zipf(n, s) does. Uniform (s <= 0) and single-rank (n <= 1) tables
/// hold no thresholds.
class ZipfTable {
 public:
  /// Ranks with a stored threshold at most: 2^16 doubles, 512 KB.
  static constexpr int64_t kMaxRanks = int64_t{1} << 16;

  ZipfTable(int64_t n, double s);

  /// The process-wide table for (n, s), keyed by the bits of both: every
  /// caller gets the same table while any holder keeps it alive, and it is
  /// freed with its last holder, so distinct distributions do not pile up.
  /// Thread-safe; the table is built outside the registry lock.
  static std::shared_ptr<const ZipfTable> Acquire(int64_t n, double s);

  /// Ranks 1..ranks() have a stored threshold.
  size_t ranks() const { return thresholds_.size(); }

 private:
  friend class Rng;

  ZipfConstants constants_;
  std::vector<double> thresholds_;  // [k - 1] is rank k's threshold
};

}  // namespace pdsp

#endif  // PDSP_COMMON_RNG_H_
