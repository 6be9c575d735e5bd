#include "src/data/generator.h"

#include <algorithm>
#include <cmath>

#include "src/common/string_util.h"

namespace pdsp {

const char* FieldDistributionToString(FieldDistribution dist) {
  switch (dist) {
    case FieldDistribution::kUniformInt:
      return "uniform_int";
    case FieldDistribution::kUniformDouble:
      return "uniform_double";
    case FieldDistribution::kNormalDouble:
      return "normal_double";
    case FieldDistribution::kZipfKey:
      return "zipf_key";
    case FieldDistribution::kUniformKey:
      return "uniform_key";
    case FieldDistribution::kWordString:
      return "word_string";
    case FieldDistribution::kSequence:
      return "sequence";
    case FieldDistribution::kSentence:
      return "sentence";
  }
  return "?";
}

DataType FieldGeneratorSpec::OutputType() const {
  switch (dist) {
    case FieldDistribution::kUniformInt:
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kUniformKey:
    case FieldDistribution::kSequence:
      return DataType::kInt;
    case FieldDistribution::kUniformDouble:
    case FieldDistribution::kNormalDouble:
      return DataType::kDouble;
    case FieldDistribution::kWordString:
    case FieldDistribution::kSentence:
      return DataType::kString;
  }
  return DataType::kInt;
}

Result<TupleGenerator> TupleGenerator::Create(
    Schema schema, std::vector<FieldGeneratorSpec> specs, uint64_t seed) {
  if (schema.NumFields() != specs.size()) {
    return Status::InvalidArgument(StrFormat(
        "schema has %zu fields but %zu generator specs were given",
        schema.NumFields(), specs.size()));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].OutputType() != schema.field(i).type) {
      return Status::InvalidArgument(StrFormat(
          "field %zu ('%s') is %s but generator produces %s", i,
          schema.field(i).name.c_str(),
          DataTypeToString(schema.field(i).type),
          DataTypeToString(specs[i].OutputType())));
    }
    // A non-finite bound or exponent has no meaningful draw: a NaN or
    // +inf zipf_s makes the Zipf sampler reject forever.
    if (!std::isfinite(specs[i].min) || !std::isfinite(specs[i].max) ||
        !std::isfinite(specs[i].zipf_s)) {
      return Status::InvalidArgument(
          StrFormat("field %zu: min, max and zipf_s must be finite", i));
    }
    if (specs[i].min > specs[i].max) {
      return Status::InvalidArgument(
          StrFormat("field %zu: min > max", i));
    }
    // Integer draws convert the bounds to int64_t; outside [-2^63, 2^63)
    // that conversion is undefined and in practice pins every draw to one
    // value.
    const bool integer_bounds =
        specs[i].dist == FieldDistribution::kUniformInt ||
        specs[i].dist == FieldDistribution::kSentence;
    if (integer_bounds && (specs[i].min < -0x1p63 || specs[i].max >= 0x1p63)) {
      return Status::InvalidArgument(
          StrFormat("field %zu: min and max must lie in [-2^63, 2^63)", i));
    }
    if (specs[i].cardinality < 1) {
      return Status::InvalidArgument(
          StrFormat("field %zu: cardinality < 1", i));
    }
  }
  return TupleGenerator(std::move(schema), std::move(specs), seed);
}

TupleGenerator::TupleGenerator(Schema schema,
                               std::vector<FieldGeneratorSpec> specs,
                               uint64_t seed)
    : schema_(std::move(schema)),
      specs_(std::move(specs)),
      rng_(seed),
      zipf_(specs_.size()) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    switch (specs_[i].dist) {
      case FieldDistribution::kZipfKey:
      case FieldDistribution::kWordString:
      case FieldDistribution::kSentence:
        zipf_[i] = ZipfTable::Acquire(specs_[i].cardinality, specs_[i].zipf_s);
        break;
      default:
        break;
    }
  }
}

Value TupleGenerator::GenerateField(const FieldGeneratorSpec& spec,
                                    size_t field_idx) {
  switch (spec.dist) {
    case FieldDistribution::kUniformInt:
      return rng_.UniformInt(static_cast<int64_t>(spec.min),
                             static_cast<int64_t>(spec.max));
    case FieldDistribution::kUniformDouble:
      return rng_.Uniform(spec.min, spec.max);
    case FieldDistribution::kNormalDouble: {
      const double mean = (spec.min + spec.max) / 2.0;
      const double sd = (spec.max - spec.min) / 6.0;
      return std::clamp(rng_.Normal(mean, sd), spec.min, spec.max);
    }
    case FieldDistribution::kZipfKey:
      return rng_.Zipf(*zipf_[field_idx]);
    case FieldDistribution::kUniformKey:
      return rng_.UniformInt(1, spec.cardinality);
    case FieldDistribution::kWordString:
      return DictionaryWord(rng_.Zipf(*zipf_[field_idx]) - 1);
    case FieldDistribution::kSentence: {
      const auto words = rng_.UniformInt(
          std::max<int64_t>(1, static_cast<int64_t>(spec.min)),
          std::max<int64_t>(1, static_cast<int64_t>(spec.max)));
      std::string sentence;
      for (int64_t w = 0; w < words; ++w) {
        if (w > 0) sentence += ' ';
        sentence += DictionaryWord(rng_.Zipf(*zipf_[field_idx]) - 1);
      }
      return sentence;
    }
    case FieldDistribution::kSequence: {
      if (field_idx >= sequence_counters_.size()) {
        sequence_counters_.resize(field_idx + 1, 0);
      }
      return sequence_counters_[field_idx]++;
    }
  }
  return Value();
}

void TupleGenerator::AppendNext(double event_time, double birth,
                                uint32_t attr_id, data::Batch* out) {
  // Field order and RNG draw order must match Next() exactly. Numeric
  // distributions append straight into the typed columns; the string
  // distributions build a Value (they allocate anyway) and let the batch
  // intern it.
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FieldGeneratorSpec& spec = specs_[i];
    switch (spec.dist) {
      case FieldDistribution::kUniformInt:
        out->AppendInt(i, rng_.UniformInt(static_cast<int64_t>(spec.min),
                                          static_cast<int64_t>(spec.max)));
        break;
      case FieldDistribution::kUniformDouble:
        out->AppendDouble(i, rng_.Uniform(spec.min, spec.max));
        break;
      case FieldDistribution::kNormalDouble: {
        const double mean = (spec.min + spec.max) / 2.0;
        const double sd = (spec.max - spec.min) / 6.0;
        out->AppendDouble(
            i, std::clamp(rng_.Normal(mean, sd), spec.min, spec.max));
        break;
      }
      case FieldDistribution::kZipfKey:
        out->AppendInt(i, rng_.Zipf(*zipf_[i]));
        break;
      case FieldDistribution::kUniformKey:
        out->AppendInt(i, rng_.UniformInt(1, spec.cardinality));
        break;
      case FieldDistribution::kSequence: {
        if (i >= sequence_counters_.size()) {
          sequence_counters_.resize(i + 1, 0);
        }
        out->AppendInt(i, sequence_counters_[i]++);
        break;
      }
      case FieldDistribution::kWordString:
      case FieldDistribution::kSentence:
        out->AppendValue(i, GenerateField(spec, i));
        break;
    }
  }
  out->FinishRow(event_time, birth, attr_id);
}

Tuple TupleGenerator::Next(double event_time) {
  Tuple t;
  t.event_time = event_time;
  t.values.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    t.values.push_back(GenerateField(specs_[i], i));
  }
  return t;
}

std::string DictionaryWord(int64_t index) {
  // Base-20 consonant-vowel pairs give pronounceable, unique, deterministic
  // words: 0 -> "baba"-style stems, stable across platforms.
  static const char* kConsonants = "bcdfghjklmnpqrstvwxz";
  static const char* kVowels = "aeiou";
  std::string word;
  int64_t v = index < 0 ? 0 : index;
  do {
    word += kConsonants[v % 20];
    word += kVowels[(v / 20) % 5];
    v /= 100;
  } while (v > 0);
  return word;
}

StreamSpec RandomStreamSpec(const SchemaRandomizerOptions& options, Rng* rng) {
  StreamSpec spec;
  const int width = static_cast<int>(rng->UniformInt(
      options.min_tuple_width, options.max_tuple_width));
  for (int i = 0; i < width; ++i) {
    FieldGeneratorSpec g;
    const double roll = rng->NextDouble();
    if (options.allow_strings && roll < 0.25) {
      g.dist = FieldDistribution::kWordString;
      g.cardinality = rng->UniformInt(100, 10000);
      g.zipf_s = rng->Uniform(0.5, 1.2);
    } else if (roll < 0.25 + options.key_field_fraction) {
      g.dist = FieldDistribution::kZipfKey;
      g.cardinality = rng->UniformInt(10, 100000);
      g.zipf_s = rng->Uniform(0.0, 1.5);
    } else if (roll < 0.75) {
      g.dist = FieldDistribution::kUniformInt;
      g.min = 0;
      g.max = static_cast<double>(rng->UniformInt(10, 1000000));
    } else {
      g.dist = rng->Bernoulli(0.5) ? FieldDistribution::kUniformDouble
                                   : FieldDistribution::kNormalDouble;
      g.min = 0;
      g.max = rng->Uniform(1.0, 1e6);
    }
    Field f;
    f.name = StrFormat("f%d", i);
    f.type = g.OutputType();
    Status st = spec.schema.AddField(f);
    (void)st;  // names are unique by construction
    spec.specs.push_back(g);
  }
  return spec;
}

}  // namespace pdsp
