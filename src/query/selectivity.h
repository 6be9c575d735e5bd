// Selectivity estimation for generated filters. Random literal selection can
// produce filters that pass nothing (or everything); the paper (Section 3.1)
// uses selectivity estimation so that generated queries only carry literals
// with 0 < selectivity < 1. We invert the generator distributions' CDFs:
// given a field's FieldGeneratorSpec we can (a) estimate the pass fraction of
// any (op, literal) predicate and (b) synthesize a literal that hits a target
// selectivity.

#ifndef PDSP_QUERY_SELECTIVITY_H_
#define PDSP_QUERY_SELECTIVITY_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/data/generator.h"
#include "src/query/plan.h"

namespace pdsp {

/// Estimated pass fraction of `value <op> literal` where value follows
/// `spec`. Ordered comparisons on dictionary strings are approximated at 0.5
/// and kSequence fields (unbounded ids) likewise; both are documented
/// approximations, not errors.
Result<double> EstimateFilterSelectivity(const FieldGeneratorSpec& spec,
                                         FilterOp op, const Value& literal);

/// Synthesizes a literal such that `value <op> literal` passes roughly
/// `target` of the stream (target clamped to [0.02, 0.98]). For equality
/// predicates on key fields the closest achievable point mass is used.
Result<Value> LiteralForSelectivity(const FieldGeneratorSpec& spec,
                                    FilterOp op, double target, Rng* rng);

/// Walks upstream from (op_id, field) through schema-preserving operators
/// (filter/map/sink; UDOs and flatMaps conservatively preserve) to the source
/// field that produces it. Fails beyond aggregates/joins, whose outputs are
/// derived columns.
Result<FieldGeneratorSpec> ResolveFieldSpec(const LogicalPlan& plan,
                                            LogicalPlan::OpId op_id,
                                            size_t field);

/// Fills selectivity_hint on every filter in the plan whose hint is unset,
/// using ResolveFieldSpec + EstimateFilterSelectivity; filters whose
/// provenance cannot be resolved get the neutral default 0.5.
Status AnnotateFilterSelectivities(LogicalPlan* plan);

/// Harmonic-like normalizer sum_{k=1..n} k^-s (used for Zipf point masses):
/// the first 100,000 terms summed exactly, the rest by the integral tail
/// ∫_{100000.5}^{n+0.5} x^-s dx. Memoized for the process by the bits of
/// (n, s); the memo returns the double the summation gives.
double GeneralizedHarmonic(int64_t n, double s);

/// P(K_l == K_r) for two independent key draws — the per-pair equi-join
/// match probability. Skew matters: for Zipf keys this is sum_k p(k)^2,
/// far above the uniform 1/n. Falls back to 1/max(distinct) when a spec's
/// key distribution is not recognizably discrete. Memoized for the process
/// by the bits of each spec's dist, cardinality, zipf_s, min and max.
double KeyMatchProbability(const FieldGeneratorSpec& left,
                           const FieldGeneratorSpec& right);

/// P(X <= k) for X ~ Zipf(n, s).
double ZipfCdf(int64_t k, int64_t n, double s);

}  // namespace pdsp

#endif  // PDSP_QUERY_SELECTIVITY_H_
