// Drives one operator instance through the entry points the simulator uses:
// every pushed row arrives as a columnar batch through ProcessBatch, timers
// fire through OnTimer, and end of stream is OnTimer(+inf). Output rows are
// read back into dynamically typed form for assertions.

#ifndef PDSP_TESTS_TESTING_OPERATOR_DRIVER_H_
#define PDSP_TESTS_TESTING_OPERATOR_DRIVER_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/batch.h"
#include "src/query/batch_layout.h"
#include "src/query/plan.h"
#include "src/runtime/operators.h"

namespace pdsp {
namespace testing {

/// \brief One row going into or coming out of an operator.
struct Row {
  Tuple tuple;
  double birth = 0.0;
  uint32_t attr_id = kNoAttr;
};

/// A row with event time `t`, born at `t` (a raw source tuple).
inline Row MakeRow(std::vector<Value> values, double t = 0.0) {
  Row row;
  row.tuple.values = std::move(values);
  row.tuple.event_time = t;
  row.birth = t;
  return row;
}

/// A one-row batch whose column types are the row's value types.
inline data::Batch OneRowBatch(const Row& row) {
  std::vector<DataType> types;
  for (const Value& v : row.tuple.values) types.push_back(v.type());
  data::Batch batch{data::BatchLayout(std::move(types))};
  batch.AppendTuple(row.tuple, row.birth, row.attr_id);
  return batch;
}

/// \brief Feeds rows to one operator instance and collects what it emits.
class OperatorDriver {
 public:
  OperatorDriver(std::unique_ptr<OperatorInstance> op,
                 data::BatchLayout out_layout)
      : op_(std::move(op)), out_batch_(std::move(out_layout)) {}

  OperatorInstance* op() { return op_.get(); }
  /// Every row emitted so far, in emission order.
  std::vector<Row>& out() { return out_; }

  /// Feeds rows [0, n) of `in` on `port` at virtual time `now`.
  Status Push(const data::Batch& in, int port, double now) {
    const Status status =
        op_->ProcessBatch(in, 0, in.NumRows(), port, now, &out_batch_);
    Drain();
    return status;
  }

  /// Feeds one row (see OneRowBatch).
  Status Push(const Row& row, int port, double now) {
    return Push(OneRowBatch(row), port, now);
  }

  /// Fires the timers due at or before `now`.
  void Fire(double now) {
    op_->OnTimer(now, &out_batch_);
    Drain();
  }

  /// End of stream: fires every pending timer.
  void Flush() { Fire(std::numeric_limits<double>::infinity()); }

 private:
  void Drain() {
    for (size_t r = 0; r < out_batch_.NumRows(); ++r) {
      out_.push_back({out_batch_.RowTuple(r), out_batch_.birth(r),
                      out_batch_.attr_id(r)});
    }
    out_batch_.Clear();
  }

  std::unique_ptr<OperatorInstance> op_;
  data::Batch out_batch_;
  std::vector<Row> out_;
};

/// Instance 0 of operator `name` of a validated plan, created with `seed`,
/// emitting batches of the operator's output layout.
inline Result<OperatorDriver> DriveOperator(const LogicalPlan& plan,
                                            const std::string& name,
                                            uint64_t seed = 1) {
  PDSP_ASSIGN_OR_RETURN(LogicalPlan::OpId id, plan.FindOperator(name));
  PDSP_ASSIGN_OR_RETURN(auto op, CreateOperatorInstance(plan, id, 0, seed));
  return OperatorDriver(std::move(op), LayoutForSchema(plan.OutputSchema(id)));
}

}  // namespace testing
}  // namespace pdsp

#endif  // PDSP_TESTS_TESTING_OPERATOR_DRIVER_H_
