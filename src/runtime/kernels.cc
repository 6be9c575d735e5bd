#include "src/runtime/kernels.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "src/common/string_util.h"
#include "src/runtime/operators.h"

namespace pdsp {
namespace kernels {

namespace {

// Runs `pred` over the AsNumeric() view of a typed column. The per-type
// loops keep the inner body a load + compare (no Value construction).
template <typename Pred>
void SelectNumeric(const data::Batch& in, size_t begin, size_t end,
                   size_t field, double rhs, Pred pred,
                   data::SelectionVector* sel) {
  switch (in.column_type(field)) {
    case DataType::kInt: {
      const int64_t* d = in.IntData(field);
      for (size_t i = begin; i < end; ++i) {
        if (pred(static_cast<double>(d[i]), rhs)) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
      return;
    }
    case DataType::kDouble: {
      const double* d = in.DoubleData(field);
      for (size_t i = begin; i < end; ++i) {
        if (pred(d[i], rhs)) sel->push_back(static_cast<uint32_t>(i));
      }
      return;
    }
    case DataType::kString: {
      const std::string_view* d = in.StringData(field);
      for (size_t i = begin; i < end; ++i) {
        if (pred(static_cast<double>(d[i].size()), rhs)) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
      return;
    }
  }
}

template <typename Pred>
void SelectString(const std::string_view* d, size_t begin, size_t end,
                  std::string_view rhs, Pred pred,
                  data::SelectionVector* sel) {
  for (size_t i = begin; i < end; ++i) {
    if (pred(d[i], rhs)) sel->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace

Status FilterSelect(const data::Batch& in, size_t begin, size_t end,
                    size_t field, FilterOp op, const Value& literal,
                    data::SelectionVector* sel) {
  if (field >= in.NumColumns()) {
    return Status::OutOfRange(
        StrFormat("filter field %zu beyond tuple arity %zu", field,
                  in.NumColumns()));
  }
  if (in.column_promoted(field)) {
    // Dynamically typed fallback: EvaluateFilter per row.
    for (size_t i = begin; i < end; ++i) {
      if (EvaluateFilter(in.ValueAt(i, field), op, literal)) {
        sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return Status::OK();
  }
  if (literal.is_string() && in.column_type(field) == DataType::kString) {
    // String-vs-string comparisons are lexical (Value semantics).
    const std::string_view* d = in.StringData(field);
    const std::string_view rhs = literal.AsString();
    switch (op) {
      case FilterOp::kLt:
        SelectString(d, begin, end, rhs, std::less<>(), sel);
        break;
      case FilterOp::kLe:
        SelectString(d, begin, end, rhs, std::less_equal<>(), sel);
        break;
      case FilterOp::kGt:
        SelectString(d, begin, end, rhs, std::greater<>(), sel);
        break;
      case FilterOp::kGe:
        SelectString(d, begin, end, rhs, std::greater_equal<>(), sel);
        break;
      case FilterOp::kEq:
        SelectString(d, begin, end, rhs, std::equal_to<>(), sel);
        break;
      case FilterOp::kNe:
        SelectString(d, begin, end, rhs, std::not_equal_to<>(), sel);
        break;
    }
    return Status::OK();
  }
  // Every other type pairing compares through the AsNumeric() double view
  // (strings by length), exactly like Value's operators.
  const double rhs = literal.AsNumeric();
  switch (op) {
    case FilterOp::kLt:
      SelectNumeric(in, begin, end, field, rhs, std::less<>(), sel);
      break;
    case FilterOp::kLe:
      SelectNumeric(in, begin, end, field, rhs, std::less_equal<>(), sel);
      break;
    case FilterOp::kGt:
      SelectNumeric(in, begin, end, field, rhs, std::greater<>(), sel);
      break;
    case FilterOp::kGe:
      SelectNumeric(in, begin, end, field, rhs, std::greater_equal<>(), sel);
      break;
    case FilterOp::kEq:
      SelectNumeric(in, begin, end, field, rhs, std::equal_to<>(), sel);
      break;
    case FilterOp::kNe:
      SelectNumeric(in, begin, end, field, rhs, std::not_equal_to<>(), sel);
      break;
  }
  return Status::OK();
}

void NumericColumn(const data::Batch& in, size_t begin, size_t end,
                   size_t field, double* out) {
  if (in.column_promoted(field)) {
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = in.NumericAt(i, field);
    }
    return;
  }
  switch (in.column_type(field)) {
    case DataType::kInt: {
      const int64_t* d = in.IntData(field);
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = static_cast<double>(d[i]);
      }
      return;
    }
    case DataType::kDouble: {
      const double* d = in.DoubleData(field);
      for (size_t i = begin; i < end; ++i) out[i - begin] = d[i];
      return;
    }
    case DataType::kString: {
      const std::string_view* d = in.StringData(field);
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = static_cast<double>(d[i].size());
      }
      return;
    }
  }
}

void HashColumn(const data::Batch& in, size_t begin, size_t end, size_t field,
                uint64_t* out) {
  if (in.column_promoted(field)) {
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = in.ValueAt(i, field).Hash();
    }
    return;
  }
  switch (in.column_type(field)) {
    case DataType::kInt: {
      const int64_t* d = in.IntData(field);
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = HashInt64Value(d[i]);
      }
      return;
    }
    case DataType::kDouble: {
      const double* d = in.DoubleData(field);
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = HashDoubleValue(d[i]);
      }
      return;
    }
    case DataType::kString: {
      const std::string_view* d = in.StringData(field);
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = HashStringValue(d[i]);
      }
      return;
    }
  }
}

double AggPartial::Finish(AggregateFn fn) const {
  switch (fn) {
    case AggregateFn::kSum:
      return sum;
    case AggregateFn::kMin:
      return min;
    case AggregateFn::kMax:
      return max;
    case AggregateFn::kAvg:
    case AggregateFn::kMean:
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  return 0.0;
}

Status Aggregate(const data::Batch& in, size_t begin, size_t end,
                 size_t field, AggPartial* out) {
  if (field >= in.NumColumns()) {
    return Status::OutOfRange("aggregate field beyond tuple arity");
  }
  if (in.column_promoted(field)) {
    for (size_t i = begin; i < end; ++i) out->Add(in.NumericAt(i, field));
    return Status::OK();
  }
  switch (in.column_type(field)) {
    case DataType::kInt: {
      const int64_t* d = in.IntData(field);
      for (size_t i = begin; i < end; ++i) {
        out->Add(static_cast<double>(d[i]));
      }
      break;
    }
    case DataType::kDouble: {
      const double* d = in.DoubleData(field);
      for (size_t i = begin; i < end; ++i) out->Add(d[i]);
      break;
    }
    case DataType::kString: {
      const std::string_view* d = in.StringData(field);
      for (size_t i = begin; i < end; ++i) {
        out->Add(static_cast<double>(d[i].size()));
      }
      break;
    }
  }
  return Status::OK();
}

void Partition(const data::Batch& in, size_t begin, size_t end,
               size_t key_field, int num_partitions,
               std::vector<data::SelectionVector>* parts) {
  // Buckets keep their storage across calls: only their rows are dropped.
  parts->resize(static_cast<size_t>(std::max(1, num_partitions)));
  for (data::SelectionVector& part : *parts) part.clear();
  if (key_field >= in.NumColumns()) {
    // Keyless fallback: nothing to hash, everything goes to 0.
    data::SelectionVector& p0 = (*parts)[0];
    p0.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      p0.push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  const auto p = static_cast<uint64_t>(std::max(1, num_partitions));
  // Hash a block of the column (tight typed loop), then scatter its row
  // indices — the selection vectors are the "radix buckets"; payload moves
  // once, at gather time. The block buffer lives on the stack, so the call
  // allocates nothing once the buckets have grown.
  constexpr size_t kBlock = 256;
  uint64_t hashes[kBlock];
  for (size_t b = begin; b < end; b += kBlock) {
    const size_t e = std::min(end, b + kBlock);
    HashColumn(in, b, e, key_field, hashes);
    for (size_t i = b; i < e; ++i) {
      (*parts)[hashes[i - b] % p].push_back(static_cast<uint32_t>(i));
    }
  }
}

}  // namespace kernels
}  // namespace pdsp
