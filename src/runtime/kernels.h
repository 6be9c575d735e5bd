// Vectorized columnar kernels over data::Batch. Each kernel must give
// exactly what the same per-value computation on materialized Values gives:
// FilterSelect replicates EvaluateFilter (string-vs-string lexical,
// otherwise the AsNumeric() double view), HashColumn replicates
// Value::Hash() (via the exported per-type hash primitives in
// src/data/value.h), Aggregate adds in row order exactly like the window
// AggState. Promoted (dynamically typed) columns take a per-row
// Value fallback inside each kernel, so callers never branch on layout.

#ifndef PDSP_RUNTIME_KERNELS_H_
#define PDSP_RUNTIME_KERNELS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/status.h"
#include "src/data/batch.h"
#include "src/query/plan.h"

namespace pdsp {
namespace kernels {

/// Appends to *sel the indices of rows in [begin, end) whose `field` value
/// satisfies `value <op> literal`, with Value comparison semantics.
/// Fails with OutOfRange when `field` is beyond the batch arity.
Status FilterSelect(const data::Batch& in, size_t begin, size_t end,
                    size_t field, FilterOp op, const Value& literal,
                    data::SelectionVector* sel);

/// Writes the Value::AsNumeric() view of rows [begin, end) of `field` into
/// out[0 .. end-begin): ints and doubles as double, strings by length.
void NumericColumn(const data::Batch& in, size_t begin, size_t end,
                   size_t field, double* out);

/// Writes Value::Hash() of rows [begin, end) of `field` into
/// out[0 .. end-begin), bit-identical to hashing the materialized Value.
void HashColumn(const data::Batch& in, size_t begin, size_t end, size_t field,
                uint64_t* out);

/// \brief Running aggregate over a numeric column view (the value half of
/// the window AggState; accumulation order is row order).
struct AggPartial {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  double Finish(AggregateFn fn) const;
};

/// Aggregates the AsNumeric() view of rows [begin, end) of `field` into
/// *out (row order). Fails with OutOfRange when `field` is beyond the
/// batch arity.
Status Aggregate(const data::Batch& in, size_t begin, size_t end,
                 size_t field, AggPartial* out);

/// \brief Per-destination row selections reused across routing calls.
/// `filled` lists, ascending, the destinations whose bucket is non-empty;
/// every other bucket is empty, so emptying them all costs O(filled) rather
/// than O(buckets). Buckets keep their storage and are never dropped, so a
/// caller that reuses one Partitions stops allocating once it has grown.
struct Partitions {
  std::vector<data::SelectionVector> buckets;
  std::vector<uint32_t> filled;

  /// Empties the filled buckets and makes sure there are at least `n`.
  void Reset(size_t n);
};

/// Hash-partitions rows [begin, end) by `key_field` into out->buckets:
/// bucket d lists the rows whose key hash maps to destination d in
/// [0, num_partitions) (row order preserved within each destination — the
/// gather-once half of a radix partition), and out->filled lists the
/// destinations that received rows, ascending. A `key_field` beyond the
/// batch arity sends every row to destination 0 (keyless rows have nothing
/// to hash). The call first empties the buckets the previous call filled
/// (Reset). Up to 64 destinations it visits no empty bucket, so it costs
/// O(rows + buckets filled); above 64 it also checks, per 64 destinations,
/// those that share a residue mod 64 with a filled one.
void Partition(const data::Batch& in, size_t begin, size_t end,
               size_t key_field, int num_partitions, Partitions* out);

}  // namespace kernels
}  // namespace pdsp

#endif  // PDSP_RUNTIME_KERNELS_H_
