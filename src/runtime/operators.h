// Executable operator instances. Each physical task owns one
// OperatorInstance that really processes tuples — filters compare values,
// windows maintain keyed panes, joins probe keyed buffers — so simulated
// runs produce functionally correct results while the simulator supplies
// the timing.

#ifndef PDSP_RUNTIME_OPERATORS_H_
#define PDSP_RUNTIME_OPERATORS_H_

#include <limits>
#include <memory>

#include "src/common/status.h"
#include "src/data/batch.h"
#include "src/query/plan.h"
#include "src/runtime/element.h"

namespace pdsp {

/// \brief One parallel instance of a non-source operator.
class OperatorInstance {
 public:
  virtual ~OperatorInstance() = default;

  /// Processes rows [row_begin, row_end) of a columnar batch arriving on
  /// `input_port` (joins: 0 = left, 1 = right) at virtual time `now`,
  /// appending output rows to *out (whose layout is this operator's output
  /// layout). Filter, map, flatMap, window aggregation and sink run
  /// columnar kernels (src/runtime/kernels.h); joins and UDOs read the
  /// batch row by row. Results are independent of how a firing's rows are
  /// split across calls: same outputs, same order, same RNG draw sequence.
  virtual Status ProcessBatch(const data::Batch& in, size_t row_begin,
                              size_t row_end, int input_port, double now,
                              data::Batch* out) = 0;

  /// Fires any timers due at or before `now` (window pane emission),
  /// appending the fired rows to *out. OnTimer(+infinity) fires everything
  /// pending, which is what the end-of-stream watermark does.
  virtual void OnTimer(double now, data::Batch* out) {
    (void)now;
    (void)out;
  }

  /// Earliest pending timer; +infinity when none.
  virtual double NextTimerTime() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Rows currently buffered in operator state (windows/joins); read by
  /// tests, not by the simulator.
  virtual size_t StateSize() const { return 0; }

  /// Elements dropped because they arrived after their window had already
  /// fired (late data under queueing delay, as in Flink's default policy).
  virtual int64_t LateDrops() const { return 0; }
};

/// Instantiates the runtime for (op, instance) of a validated plan.
/// Sources are driven by the simulator itself and are invalid here.
Result<std::unique_ptr<OperatorInstance>> CreateOperatorInstance(
    const LogicalPlan& plan, LogicalPlan::OpId op, int instance,
    uint64_t seed);

/// Evaluates `value <op> literal` exactly as FilterExec does (shared with
/// tests and selectivity checks).
bool EvaluateFilter(const Value& value, FilterOp op, const Value& literal);

}  // namespace pdsp

#endif  // PDSP_RUNTIME_OPERATORS_H_
