#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "src/common/thread_annotations.h"

namespace pdsp {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  // Unsigned arithmetic: hi - lo and lo + offset can exceed int64_t, but
  // both are exact modulo 2^64.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  // All of int64_t: every 64-bit draw is a value of the range.
  if (span == std::numeric_limits<uint64_t>::max()) {
    return static_cast<int64_t>(NextUint64());
  }
  const uint64_t range = span + 1;
  // Debiased modulo (Lemire-style rejection).
  const uint64_t threshold = (0 - range) % range;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return static_cast<int64_t>(static_cast<uint64_t>(lo) + r % range);
    }
  }
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Exponential(double lambda) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

int64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth: multiply uniforms until below e^-mean.
    const double limit = std::exp(-mean);
    int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  const double draw = Normal(mean, std::sqrt(mean));
  return std::max<int64_t>(0, static_cast<int64_t>(std::lround(draw)));
}

namespace {

// Helpers for Hörmann's rejection-inversion Zipf sampler.
double ZipfH(double x, double ss, double s) {
  // Integral of x^-s: x^(1-s)/(1-s) for s != 1, log(x) otherwise.
  if (s == 1.0) return std::log(x);
  return std::exp(ss * std::log(x)) / ss;  // ss = 1 - s
}

double ZipfHInv(double x, double ss, double s) {
  if (s == 1.0) return std::exp(x);
  return std::exp(std::log(ss * x) / ss);
}

// Rank k's acceptance threshold H(k + 0.5) - k^-s. Tables store exactly
// this double, so a stored threshold equals the computed one bit for bit.
double ZipfThreshold(int64_t k, const ZipfConstants& z) {
  const double kd = static_cast<double>(k);
  return ZipfH(kd + 0.5, z.ss, z.s) - std::exp(-z.s * std::log(kd));
}

bool ZipfIsUniform(const ZipfConstants& z) { return z.n <= 1 || z.s <= 0.0; }

}  // namespace

ZipfConstants ZipfConstants::For(int64_t n, double s) {
  ZipfConstants z;
  z.n = n;
  z.s = s;
  if (ZipfIsUniform(z)) return z;
  z.ss = (s == 1.0) ? 0.0 : 1.0 - s;
  z.h_x1 = ZipfH(1.5, z.ss, s) - 1.0;
  z.hx0 = ZipfH(static_cast<double>(n) + 0.5, z.ss, s);
  return z;
}

int64_t Rng::Zipf(int64_t n, double s) {
  if (n != zipf_.n || s != zipf_.s) zipf_ = ZipfConstants::For(n, s);
  return ZipfDraw(zipf_, {});
}

int64_t Rng::Zipf(const ZipfTable& table) {
  return ZipfDraw(table.constants_, table.thresholds_);
}

int64_t Rng::ZipfDraw(const ZipfConstants& z,
                      std::span<const double> thresholds) {
  if (z.n <= 1) return 1;
  if (z.s <= 0.0) return UniformInt(1, z.n);
  for (;;) {
    const double u = z.h_x1 + NextDouble() * (z.hx0 - z.h_x1);
    const double x = ZipfHInv(u, z.ss, z.s);
    int64_t k = static_cast<int64_t>(x + 0.5);
    k = std::clamp<int64_t>(k, 1, z.n);
    const double threshold = static_cast<size_t>(k) <= thresholds.size()
                                 ? thresholds[static_cast<size_t>(k - 1)]
                                 : ZipfThreshold(k, z);
    if (u >= threshold) return k;
  }
}

ZipfTable::ZipfTable(int64_t n, double s)
    : constants_(ZipfConstants::For(n, s)) {
  if (ZipfIsUniform(constants_)) return;
  thresholds_.resize(static_cast<size_t>(std::min(n, kMaxRanks)));
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    thresholds_[i] = ZipfThreshold(static_cast<int64_t>(i) + 1, constants_);
  }
}

namespace {

// Live tables by the bits of (n, s). Entries are weak, so the registry
// never keeps a table alive; expired entries are swept at each insert.
struct ZipfRegistry {
  Mutex mu;
  std::map<std::pair<int64_t, uint64_t>, std::weak_ptr<const ZipfTable>>
      tables PDSP_GUARDED_BY(mu);
};

ZipfRegistry& GlobalZipfTables() {
  static ZipfRegistry* registry = new ZipfRegistry();
  return *registry;
}

}  // namespace

std::shared_ptr<const ZipfTable> ZipfTable::Acquire(int64_t n, double s) {
  ZipfRegistry& registry = GlobalZipfTables();
  const std::pair<int64_t, uint64_t> key(n, std::bit_cast<uint64_t>(s));
  {
    MutexLock lock(registry.mu);
    const auto it = registry.tables.find(key);
    if (it != registry.tables.end()) {
      if (auto table = it->second.lock()) return table;
    }
  }
  // Two threads that miss together both build; the first insert wins and
  // the other's table is dropped, so every holder shares one.
  std::shared_ptr<const ZipfTable> built = std::make_shared<ZipfTable>(n, s);
  MutexLock lock(registry.mu);
  std::erase_if(registry.tables,
                [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const ZipfTable>& slot = registry.tables[key];
  if (auto table = slot.lock()) return table;
  slot = built;
  return built;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0.0) return 0;
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(0.0, weights[i]);
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t stream_id) {
  // Mix current state with the stream id through SplitMix64 for a fresh,
  // decorrelated generator.
  SplitMix64 sm(s_[0] ^ Rotl(stream_id, 17) ^ 0xd1b54a32d192ed03ULL);
  return Rng(sm.Next());
}

}  // namespace pdsp
