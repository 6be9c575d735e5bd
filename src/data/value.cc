#include "src/data/value.h"

#include <cmath>

#include "src/common/string_util.h"

namespace pdsp {

namespace {

// FNV-1a over raw bytes.
uint64_t FnvHash(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t HashInt64Value(int64_t v) { return FnvHash(&v, sizeof(v), 0x11); }

uint64_t HashDoubleValue(double d) {
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return HashInt64Value(static_cast<int64_t>(d));
  }
  return FnvHash(&d, sizeof(d), 0x11);
}

uint64_t HashStringValue(std::string_view s) {
  return FnvHash(s.data(), s.size(), 0x22);
}

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "?";
}

double Value::AsNumeric() const {
  switch (type()) {
    case DataType::kInt:
      return static_cast<double>(AsInt());
    case DataType::kDouble:
      return AsDouble();
    case DataType::kString:
      return static_cast<double>(AsString().size());
  }
  return 0.0;
}

size_t Value::WireSize() const {
  switch (type()) {
    case DataType::kInt:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return AsString().size() + 4;  // length prefix
  }
  return 8;
}

bool Value::operator<(const Value& other) const {
  if (is_string() && other.is_string()) return AsString() < other.AsString();
  return AsNumeric() < other.AsNumeric();
}

bool Value::operator==(const Value& other) const {
  if (is_string() != other.is_string()) return AsNumeric() == other.AsNumeric();
  if (is_string()) return AsString() == other.AsString();
  return AsNumeric() == other.AsNumeric();
}

uint64_t Value::Hash() const {
  switch (type()) {
    case DataType::kInt:
      return HashInt64Value(AsInt());
    case DataType::kDouble:
      // Integral doubles hash identically to kInt so that 3 and 3.0 land in
      // the same partition (see HashDoubleValue).
      return HashDoubleValue(AsDouble());
    case DataType::kString:
      return HashStringValue(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kInt:
      return StrFormat("%lld", static_cast<long long>(AsInt()));
    case DataType::kDouble:
      return StrFormat("%g", AsDouble());
    case DataType::kString:
      return AsString();
  }
  return "?";
}

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("no field named '" + name + "'");
}

Status Schema::AddField(Field field) {
  for (const Field& f : fields_) {
    if (f.name == field.name) {
      return Status::AlreadyExists("duplicate field '" + field.name + "'");
    }
  }
  fields_.push_back(std::move(field));
  return Status::OK();
}

size_t Schema::EstimatedTupleBytes() const {
  size_t bytes = 8;  // timestamp
  for (const Field& f : fields_) {
    bytes += (f.type == DataType::kString) ? 16 : 8;
  }
  return bytes;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + DataTypeToString(f.type));
  }
  return Join(parts, ", ");
}

size_t Tuple::WireSize() const {
  size_t bytes = 8;  // timestamp
  for (const Value& v : values) bytes += v.WireSize();
  return bytes;
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const Value& v : values) parts.push_back(v.ToString());
  // Appended piecewise: `"(" + std::string&&` inserts at the front, which
  // GCC 12 at -O3 misreports as an overlapping memcpy (-Werror=restrict).
  const std::string body = Join(parts, ", ");
  const std::string stamp = StrFormat(") @%.6f", event_time);
  std::string out;
  out.reserve(1 + body.size() + stamp.size());
  out.append("(").append(body).append(stamp);
  return out;
}

}  // namespace pdsp
