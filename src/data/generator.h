// Tuple/field value generation and schema randomization — the "data stream"
// half of the workload generator (Section 3.1): random tuple widths (1-15),
// per-item data types over {string, double, int}, and per-field value
// distributions including Zipf-skewed keys.

#ifndef PDSP_DATA_GENERATOR_H_
#define PDSP_DATA_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/data/batch.h"
#include "src/data/value.h"

namespace pdsp {

/// Value distribution families for one field.
enum class FieldDistribution {
  kUniformInt = 0,   ///< uniform integer in [min, max]
  kUniformDouble,    ///< uniform double in [min, max)
  kNormalDouble,     ///< normal(mean=(min+max)/2, sd=(max-min)/6), clamped
  kZipfKey,          ///< integer key in [1, cardinality], Zipf(zipf_s)
  kUniformKey,       ///< integer key in [1, cardinality], uniform
  kWordString,       ///< word drawn from a synthetic dictionary
  kSequence,         ///< monotonically increasing integer (ids)
  kSentence,         ///< [min,max] dictionary words joined by spaces
};

const char* FieldDistributionToString(FieldDistribution dist);

/// \brief How to generate one field's values.
struct FieldGeneratorSpec {
  FieldDistribution dist = FieldDistribution::kUniformInt;
  double min = 0.0;
  double max = 100.0;
  int64_t cardinality = 1000;  ///< distinct keys / dictionary size
  double zipf_s = 0.8;         ///< skew for kZipfKey

  /// The DataType this spec produces.
  DataType OutputType() const;
};

/// \brief Generates tuples conforming to a schema, one field spec per field.
/// Zipf-drawn fields (keys, words, sentence words) draw through the shared
/// ZipfTable of their (cardinality, zipf_s), which the generator holds.
class TupleGenerator {
 public:
  /// Validates that specs match the schema's arity and types and that every
  /// min, max and zipf_s is finite, then acquires the Zipf tables.
  static Result<TupleGenerator> Create(Schema schema,
                                       std::vector<FieldGeneratorSpec> specs,
                                       uint64_t seed);

  /// Next tuple stamped with the given event time.
  Tuple Next(double event_time);

  /// Columnar counterpart of Next(): appends the next tuple directly to
  /// *out (whose layout must match this generator's schema) without
  /// materializing a Tuple. Draws the same RNG sequence as Next(), field by
  /// field in order, so a batch built this way is bit-identical to the
  /// row-at-a-time stream.
  void AppendNext(double event_time, double birth, uint32_t attr_id,
                  data::Batch* out);

  const Schema& schema() const { return schema_; }
  const std::vector<FieldGeneratorSpec>& specs() const { return specs_; }

 private:
  TupleGenerator(Schema schema, std::vector<FieldGeneratorSpec> specs,
                 uint64_t seed);

  Value GenerateField(const FieldGeneratorSpec& spec, size_t field_idx);

  Schema schema_;
  std::vector<FieldGeneratorSpec> specs_;
  Rng rng_;
  /// Per field: its Zipf table, or null for fields that draw no Zipf ranks.
  std::vector<std::shared_ptr<const ZipfTable>> zipf_;
  std::vector<int64_t> sequence_counters_ = std::vector<int64_t>(32, 0);
};

/// \brief Options for random stream-schema generation (Table 3 ranges).
struct SchemaRandomizerOptions {
  int min_tuple_width = 1;
  int max_tuple_width = 15;
  bool allow_strings = true;
  /// Fraction of numeric fields that are skewed (Zipf) key fields.
  double key_field_fraction = 0.3;
};

/// \brief A randomly drawn stream definition: schema plus field specs.
struct StreamSpec {
  Schema schema;
  std::vector<FieldGeneratorSpec> specs;

  /// Mean tuple wire size implied by the schema.
  size_t EstimatedTupleBytes() const { return schema.EstimatedTupleBytes(); }
};

/// Draws a random stream definition per the options. Field i is named "f<i>".
StreamSpec RandomStreamSpec(const SchemaRandomizerOptions& options, Rng* rng);

/// Deterministic synthetic dictionary word for (dictionary index).
std::string DictionaryWord(int64_t index);

}  // namespace pdsp

#endif  // PDSP_DATA_GENERATOR_H_
