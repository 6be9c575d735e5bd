#include "src/query/selectivity.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>

#include "src/common/string_util.h"
#include "src/common/thread_annotations.h"

namespace pdsp {

namespace {

constexpr double kMinTarget = 0.02;
constexpr double kMaxTarget = 0.98;

// P(X <= c) under the numeric distribution described by `spec`.
double NumericCdf(const FieldGeneratorSpec& spec, double c) {
  switch (spec.dist) {
    case FieldDistribution::kUniformInt: {
      // Discrete uniform over {min..max}.
      const double lo = spec.min;
      const double hi = spec.max;
      const double n = hi - lo + 1.0;
      const double below = std::floor(c) - lo + 1.0;
      return std::clamp(below / n, 0.0, 1.0);
    }
    case FieldDistribution::kUniformDouble:
      return std::clamp((c - spec.min) / (spec.max - spec.min), 0.0, 1.0);
    case FieldDistribution::kNormalDouble: {
      const double mean = (spec.min + spec.max) / 2.0;
      const double sd = (spec.max - spec.min) / 6.0;
      if (sd <= 0.0) return c >= mean ? 1.0 : 0.0;
      return 0.5 * (1.0 + std::erf((c - mean) / (sd * std::sqrt(2.0))));
    }
    case FieldDistribution::kZipfKey:
      return ZipfCdf(static_cast<int64_t>(std::floor(c)), spec.cardinality,
                     spec.zipf_s);
    case FieldDistribution::kUniformKey: {
      const double below = std::floor(c);
      return std::clamp(below / static_cast<double>(spec.cardinality), 0.0,
                        1.0);
    }
    default:
      return 0.5;
  }
}

// P(X == c) under `spec` (only meaningful for discrete distributions).
double PointMass(const FieldGeneratorSpec& spec, double c) {
  if (c != std::floor(c)) return 0.0;
  switch (spec.dist) {
    case FieldDistribution::kUniformInt: {
      if (c < spec.min || c > spec.max) return 0.0;
      return 1.0 / (spec.max - spec.min + 1.0);
    }
    case FieldDistribution::kZipfKey: {
      const auto k = static_cast<int64_t>(c);
      if (k < 1 || k > spec.cardinality) return 0.0;
      return std::pow(static_cast<double>(k), -spec.zipf_s) /
             GeneralizedHarmonic(spec.cardinality, spec.zipf_s);
    }
    case FieldDistribution::kUniformKey: {
      const auto k = static_cast<int64_t>(c);
      if (k < 1 || k > spec.cardinality) return 0.0;
      return 1.0 / static_cast<double>(spec.cardinality);
    }
    default:
      return 0.0;  // continuous
  }
}

bool IsDiscrete(const FieldGeneratorSpec& spec) {
  switch (spec.dist) {
    case FieldDistribution::kUniformInt:
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kUniformKey:
    case FieldDistribution::kSequence:
      return true;
    default:
      return false;
  }
}

// A process-wide memo of one set-up sum, keyed by the exact bits of its
// inputs so NaN and -0.0 keys are well defined. The lock guards only the
// map: two threads that miss one key both compute it, which is harmless
// because both get the same double. Cleared when full.
template <size_t N>
class SumMemo {
 public:
  using Key = std::array<uint64_t, N>;

  template <typename Compute>
  double Get(const Key& key, Compute compute) PDSP_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      const auto it = sums_.find(key);
      if (it != sums_.end()) return it->second;
    }
    const double sum = compute();
    MutexLock lock(mu_);
    if (sums_.size() >= kCapacity) sums_.clear();
    sums_.emplace(key, sum);
    return sum;
  }

 private:
  static constexpr size_t kCapacity = 4096;

  Mutex mu_;
  std::map<Key, double> sums_ PDSP_GUARDED_BY(mu_);
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }
uint64_t Bits(int64_t v) { return static_cast<uint64_t>(v); }

double HarmonicSum(int64_t n, double s) {
  const int64_t exact_terms = std::min<int64_t>(n, 100000);
  double sum = 0.0;
  for (int64_t k = 1; k <= exact_terms; ++k) {
    sum += std::pow(static_cast<double>(k), -s);
  }
  if (n > exact_terms) {
    // Integral tail: ∫_{m+0.5}^{n+0.5} x^-s dx.
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

}  // namespace

double GeneralizedHarmonic(int64_t n, double s) {
  if (n <= 0) return 0.0;
  static SumMemo<2>* memo = new SumMemo<2>();
  return memo->Get({Bits(n), Bits(s)}, [&] { return HarmonicSum(n, s); });
}

double ZipfCdf(int64_t k, int64_t n, double s) {
  if (k < 1) return 0.0;
  if (k >= n) return 1.0;
  return GeneralizedHarmonic(k, s) / GeneralizedHarmonic(n, s);
}

namespace {

// Point mass of rank k under a key-like spec, or -1 if not discrete-keyed.
double KeyMass(const FieldGeneratorSpec& spec, int64_t k, double harmonic) {
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

int64_t KeyCardinality(const FieldGeneratorSpec& spec) {
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

double KeyMatchSum(const FieldGeneratorSpec& left,
                   const FieldGeneratorSpec& right) {
  const int64_t n_l = KeyCardinality(left);
  const int64_t n_r = KeyCardinality(right);
  if (n_l < 1 || n_r < 1) {
    const auto fallback = static_cast<double>(std::max<int64_t>(
        1, std::max(n_l, n_r)));
    return 1.0 / std::max(1.0, fallback);
  }
  const double h_l =
      (left.dist == FieldDistribution::kZipfKey ||
       left.dist == FieldDistribution::kWordString)
          ? GeneralizedHarmonic(n_l, left.zipf_s)
          : 1.0;
  const double h_r =
      (right.dist == FieldDistribution::kZipfKey ||
       right.dist == FieldDistribution::kWordString)
          ? GeneralizedHarmonic(n_r, right.zipf_s)
          : 1.0;
  const int64_t n = std::min(n_l, n_r);
  const int64_t exact = std::min<int64_t>(n, 100000);
  double prob = 0.0;
  for (int64_t k = 1; k <= exact; ++k) {
    prob += KeyMass(left, k, h_l) * KeyMass(right, k, h_r);
  }
  // Tail beyond 100k ranks contributes at most (n - exact) * mass(exact)^2,
  // which is negligible for skewed keys and tiny for uniform; approximate it
  // for the uniform-uniform case where it is exact.
  if (n > exact) {
    prob += static_cast<double>(n - exact) * KeyMass(left, exact, h_l) *
            KeyMass(right, exact, h_r);
  }
  return std::clamp(prob, 0.0, 1.0);
}

}  // namespace

double KeyMatchProbability(const FieldGeneratorSpec& left,
                           const FieldGeneratorSpec& right) {
  static SumMemo<10>* memo = new SumMemo<10>();
  const SumMemo<10>::Key key = {
      static_cast<uint64_t>(left.dist),  Bits(left.cardinality),
      Bits(left.zipf_s),                 Bits(left.min),
      Bits(left.max),                    static_cast<uint64_t>(right.dist),
      Bits(right.cardinality),           Bits(right.zipf_s),
      Bits(right.min),                   Bits(right.max)};
  return memo->Get(key, [&] { return KeyMatchSum(left, right); });
}

Result<double> EstimateFilterSelectivity(const FieldGeneratorSpec& spec,
                                         FilterOp op, const Value& literal) {
  // Strings and unbounded sequences: documented approximations.
  if (spec.dist == FieldDistribution::kWordString) {
    if (op == FilterOp::kEq) {
      // Average point mass of a dictionary word ~ uniform share; skew means
      // common words are higher, but the generator picks literals by rank,
      // handled in LiteralForSelectivity.
      return 1.0 / static_cast<double>(spec.cardinality);
    }
    if (op == FilterOp::kNe) {
      return 1.0 - 1.0 / static_cast<double>(spec.cardinality);
    }
    return 0.5;
  }
  if (spec.dist == FieldDistribution::kSequence) return 0.5;

  if (literal.is_string()) {
    return Status::InvalidArgument(
        "string literal against a numeric field");
  }
  const double c = literal.AsNumeric();
  const double cdf_le = NumericCdf(spec, c);
  const double point = PointMass(spec, c);
  double sel = 0.5;
  switch (op) {
    case FilterOp::kLe:
      sel = cdf_le;
      break;
    case FilterOp::kLt:
      sel = cdf_le - point;
      break;
    case FilterOp::kGt:
      sel = 1.0 - cdf_le;
      break;
    case FilterOp::kGe:
      sel = 1.0 - cdf_le + point;
      break;
    case FilterOp::kEq:
      sel = IsDiscrete(spec) ? point : 0.0;
      break;
    case FilterOp::kNe:
      sel = IsDiscrete(spec) ? 1.0 - point : 1.0;
      break;
  }
  return std::clamp(sel, 0.0, 1.0);
}

Result<Value> LiteralForSelectivity(const FieldGeneratorSpec& spec,
                                    FilterOp op, double target, Rng* rng) {
  target = std::clamp(target, kMinTarget, kMaxTarget);

  // Dictionary strings: pick the word whose Zipf rank CDF brackets the
  // target for equality; ordered comparisons aren't meaningfully invertible.
  if (spec.dist == FieldDistribution::kWordString) {
    if (op == FilterOp::kEq || op == FilterOp::kNe) {
      // Low ranks carry the most mass; rank 1 has the largest equality
      // selectivity we can achieve.
      const int64_t rank = std::max<int64_t>(
          1, static_cast<int64_t>(std::round(1.0 / std::max(target, 1e-6))));
      return Value(DictionaryWord(std::min(rank, spec.cardinality) - 1));
    }
    return Status::InvalidArgument(
        "ordered comparison on dictionary strings is not invertible");
  }
  if (spec.dist == FieldDistribution::kSequence) {
    return Status::InvalidArgument(
        "sequence fields have no stationary selectivity");
  }

  // Map the requested op to a target CDF position.
  double cdf_target = target;
  switch (op) {
    case FilterOp::kLt:
    case FilterOp::kLe:
      cdf_target = target;
      break;
    case FilterOp::kGt:
    case FilterOp::kGe:
      cdf_target = 1.0 - target;
      break;
    case FilterOp::kEq:
    case FilterOp::kNe: {
      if (!IsDiscrete(spec)) {
        return Status::InvalidArgument(
            "equality on a continuous field has zero selectivity");
      }
      const double eq_target = (op == FilterOp::kEq) ? target : 1.0 - target;
      // Find the discrete value whose point mass is closest to eq_target.
      if (spec.dist == FieldDistribution::kZipfKey) {
        int64_t best_k = 1;
        double best_err = 1e9;
        const double h = GeneralizedHarmonic(spec.cardinality, spec.zipf_s);
        for (int64_t k = 1;
             k <= std::min<int64_t>(spec.cardinality, 4096); ++k) {
          const double mass = std::pow(static_cast<double>(k), -spec.zipf_s) / h;
          const double err = std::abs(mass - eq_target);
          if (err < best_err) {
            best_err = err;
            best_k = k;
          }
          if (mass < eq_target / 8.0) break;  // masses only shrink
        }
        return Value(best_k);
      }
      // Uniform discrete: every value has the same mass; pick any.
      const auto lo = (spec.dist == FieldDistribution::kUniformKey)
                          ? int64_t{1}
                          : static_cast<int64_t>(spec.min);
      const auto hi = (spec.dist == FieldDistribution::kUniformKey)
                          ? spec.cardinality
                          : static_cast<int64_t>(spec.max);
      return Value(rng->UniformInt(lo, hi));
    }
  }

  // Invert the CDF by bisection over the support.
  double lo, hi;
  switch (spec.dist) {
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kUniformKey:
      lo = 0.0;
      hi = static_cast<double>(spec.cardinality) + 1.0;
      break;
    default:
      lo = spec.min - 1.0;
      hi = spec.max + 1.0;
      break;
  }
  for (int iter = 0; iter < 96; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (NumericCdf(spec, mid) < cdf_target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double c = (lo + hi) / 2.0;
  if (IsDiscrete(spec) || spec.OutputType() == DataType::kInt) {
    return Value(static_cast<int64_t>(std::llround(c)));
  }
  return Value(c);
}

Result<FieldGeneratorSpec> ResolveFieldSpec(const LogicalPlan& plan,
                                            LogicalPlan::OpId op_id,
                                            size_t field) {
  LogicalPlan::OpId cur = op_id;
  for (int hops = 0; hops < 1000; ++hops) {
    const OperatorDescriptor& op = plan.op(cur);
    if (op.type == OperatorType::kSource) {
      const auto& specs = plan.sources()[op.source_index].stream.specs;
      if (field >= specs.size()) {
        return Status::OutOfRange("field beyond source arity");
      }
      return specs[field];
    }
    switch (op.type) {
      case OperatorType::kFilter:
      case OperatorType::kMap:
      case OperatorType::kFlatMap:
      case OperatorType::kUdo:
      case OperatorType::kSink: {
        const auto in = plan.Inputs(cur);
        if (in.empty()) return Status::Internal("unary op without input");
        cur = in[0];
        break;
      }
      default:
        return Status::FailedPrecondition(
            StrFormat("field provenance stops at %s (%s)", op.name.c_str(),
                      OperatorTypeToString(op.type)));
    }
  }
  return Status::Internal("provenance walk did not terminate");
}

Status AnnotateFilterSelectivities(LogicalPlan* plan) {
  if (!plan->validated()) {
    return Status::FailedPrecondition("plan must be validated first");
  }
  for (size_t i = 0; i < plan->NumOperators(); ++i) {
    const auto id = static_cast<LogicalPlan::OpId>(i);
    if (plan->op(id).type != OperatorType::kFilter) continue;
    if (plan->op(id).selectivity_hint >= 0.0) continue;
    double sel = 0.5;
    auto spec = ResolveFieldSpec(*plan, plan->Inputs(id)[0],
                                 plan->op(id).filter_field);
    if (spec.ok()) {
      auto est = EstimateFilterSelectivity(*spec, plan->op(id).filter_op,
                                           plan->op(id).filter_literal);
      if (est.ok()) sel = *est;
    }
    plan->mutable_op(id)->selectivity_hint = sel;
  }
  // mutable_op clears the validated bit; re-validate (no structural change).
  return plan->Validate();
}

}  // namespace pdsp
