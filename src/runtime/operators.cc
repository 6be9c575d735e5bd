#include "src/runtime/operators.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <queue>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/obs/prof.h"
#include "src/runtime/kernels.h"
#include "src/runtime/udo.h"

namespace pdsp {

bool EvaluateFilter(const Value& value, FilterOp op, const Value& literal) {
  switch (op) {
    case FilterOp::kLt:
      return value < literal;
    case FilterOp::kLe:
      return value <= literal;
    case FilterOp::kGt:
      return value > literal;
    case FilterOp::kGe:
      return value >= literal;
    case FilterOp::kEq:
      return value == literal;
    case FilterOp::kNe:
      return value != literal;
  }
  return false;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Kernel-level CPU-profiler marker, interned once per instance and only
// when a profiling session is active (id 0 makes every ProfScope a no-op).
uint32_t KernelMarker(const char* name) {
  return obs::prof::ProfilingActive() ? obs::prof::InternName(name) : 0u;
}

// The guard on row-at-a-time output (joins, UDOs): a row must have one value
// per column of the operator's output schema.
Status ArityMismatch(size_t emitted, const data::Batch& out) {
  return Status::Internal(StrFormat(
      "operator emitted arity %zu but its output schema has %zu fields",
      emitted, out.NumColumns()));
}

class FilterExec : public OperatorInstance {
 public:
  explicit FilterExec(const OperatorDescriptor& op) : op_(op) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    sel_.clear();
    PDSP_RETURN_NOT_OK(kernels::FilterSelect(in, row_begin, row_end,
                                             op_.filter_field, op_.filter_op,
                                             op_.filter_literal, &sel_));
    out->AppendGather(in, sel_);
    return Status::OK();
  }

 private:
  OperatorDescriptor op_;
  data::SelectionVector sel_;  // scratch, reused across firings
  uint32_t kernel_id_ = KernelMarker("filter-kernel");
};

class MapExec : public OperatorInstance {
 public:
  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    out->AppendRange(in, row_begin, row_end);
    return Status::OK();
  }
};

class FlatMapExec : public OperatorInstance {
 public:
  FlatMapExec(const OperatorDescriptor& op, uint64_t seed)
      : fanout_(std::max(0.0, op.flatmap_fanout)), rng_(seed) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    // Replication as a selection vector with repeated indices; the RNG is
    // drawn once per row in row order, so chunking never changes the draws.
    sel_.clear();
    for (size_t row = row_begin; row < row_end; ++row) {
      const int64_t copies = DrawCopies();
      for (int64_t i = 0; i < copies; ++i) {
        sel_.push_back(static_cast<uint32_t>(row));
      }
    }
    out->AppendGather(in, sel_);
    return Status::OK();
  }

 private:
  int64_t DrawCopies() {
    const auto whole = static_cast<int64_t>(fanout_);
    return whole +
           (rng_.Bernoulli(fanout_ - static_cast<double>(whole)) ? 1 : 0);
  }

  double fanout_;
  Rng rng_;
  data::SelectionVector sel_;
  uint32_t kernel_id_ = KernelMarker("flatmap-kernel");
};

// Incremental aggregate over one pane/buffer.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;
  double first_birth = kInf;
  // Attribution handle of the earliest contributor: the fired result's
  // latency is measured against its birth, so its handle travels with it.
  uint32_t first_attr_id = kNoAttr;

  void Add(double v, double birth, uint32_t attr_id) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    if (birth < first_birth) {
      first_birth = birth;
      first_attr_id = attr_id;
    }
  }

  double Finish(AggregateFn fn) const {
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
};

// Time-policy window aggregation with sliding panes aligned to the slide.
class TimeWindowAggExec : public OperatorInstance {
 public:
  explicit TimeWindowAggExec(const OperatorDescriptor& op)
      : op_(op),
        duration_(op.window.DurationSeconds()),
        slide_(std::max(1e-9, op.window.SlideSeconds())) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    (void)out;  // time windows emit on timers, not on input
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    if (op_.agg_field >= in.NumColumns()) {
      return Status::OutOfRange("aggregate field beyond tuple arity");
    }
    const bool keyed = op_.key_field != OperatorDescriptor::kNoKey;
    if (keyed && op_.key_field >= in.NumColumns()) {
      return Status::OutOfRange("key field beyond tuple arity");
    }
    // Columnar pre-pass: one tight loop extracts the aggregate column's
    // numeric view; only the key column is materialized per row.
    vals_.resize(row_end - row_begin);
    kernels::NumericColumn(in, row_begin, row_end, op_.agg_field,
                           vals_.data());
    for (size_t row = row_begin; row < row_end; ++row) {
      const Value key = keyed ? in.ValueAt(row, op_.key_field) : Value(0);
      AddRow(in.event_time(row), key, vals_[row - row_begin], in.birth(row),
             in.attr_id(row));
    }
    return Status::OK();
  }

  void OnTimer(double now, data::Batch* out) override {
    while (!panes_.empty()) {
      const int64_t pane = panes_.begin()->first;
      const double pane_end = static_cast<double>(pane) * slide_ + duration_;
      if (pane_end > now) break;
      const bool keyed = op_.key_field != OperatorDescriptor::kNoKey;
      for (const auto& [key, state] : panes_.begin()->second) {
        if (keyed) out->AppendValue(0, key);
        out->AppendDouble(keyed ? 1 : 0, state.Finish(op_.agg_fn));
        out->FinishRow(pane_end, state.first_birth, state.first_attr_id);
      }
      panes_.erase(panes_.begin());
      watermark_ = std::max(watermark_, pane_end);
    }
    while (!timer_heap_.empty() && timer_heap_.top() <= now) {
      timer_heap_.pop();
    }
  }

  double NextTimerTime() const override {
    return timer_heap_.empty() ? kInf : timer_heap_.top();
  }

  size_t StateSize() const override {
    size_t total = 0;
    for (const auto& [pane, keys] : panes_) total += keys.size();
    return total;
  }

  int64_t LateDrops() const override { return late_drops_; }

 private:
  void AddRow(double t, const Value& key, double v, double birth,
              uint32_t attr_id) {
    // Panes containing t: starts in (t - duration, t], aligned to slide.
    const auto last_pane = static_cast<int64_t>(std::floor(t / slide_));
    bool contributed = false;
    for (int64_t pane = last_pane; pane >= 0; --pane) {
      const double start = static_cast<double>(pane) * slide_;
      if (start + duration_ <= t) break;  // pane closed before t
      if (start + duration_ <= watermark_) continue;  // pane already fired
      auto [it, inserted] = panes_.try_emplace(pane);
      if (inserted) timer_heap_.push(start + duration_);
      it->second[key].Add(v, birth, attr_id);
      contributed = true;
    }
    if (!contributed) ++late_drops_;
  }

  OperatorDescriptor op_;
  double duration_;
  double slide_;
  double watermark_ = -kInf;  // end of the latest fired pane
  int64_t late_drops_ = 0;
  std::vector<double> vals_;  // scratch for the columnar numeric pre-pass
  uint32_t kernel_id_ = KernelMarker("aggregate-kernel");
  // pane index -> key -> aggregate state; ordered so firing pops from front.
  std::map<int64_t, std::map<Value, AggState>> panes_;
  std::priority_queue<double, std::vector<double>, std::greater<>> timer_heap_;
};

// Count-policy window aggregation: per key, fire every SlideTuples() once
// the buffer holds length_tuples elements.
class CountWindowAggExec : public OperatorInstance {
 public:
  explicit CountWindowAggExec(const OperatorDescriptor& op)
      : op_(op),
        length_(std::max<int64_t>(1, op.window.length_tuples)),
        slide_(std::max<int64_t>(1, op.window.SlideTuples())) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    if (op_.agg_field >= in.NumColumns()) {
      return Status::OutOfRange("aggregate field beyond tuple arity");
    }
    const bool keyed = op_.key_field != OperatorDescriptor::kNoKey;
    if (keyed && op_.key_field >= in.NumColumns()) {
      return Status::OutOfRange("key field beyond tuple arity");
    }
    vals_.resize(row_end - row_begin);
    kernels::NumericColumn(in, row_begin, row_end, op_.agg_field,
                           vals_.data());
    for (size_t row = row_begin; row < row_end; ++row) {
      const Value key = keyed ? in.ValueAt(row, op_.key_field) : Value(0);
      AddRow(key, keyed, vals_[row - row_begin], in.event_time(row),
             in.birth(row), in.attr_id(row), out);
    }
    return Status::OK();
  }

  size_t StateSize() const override {
    size_t total = 0;
    for (const auto& [key, buf] : buffers_) total += buf.size();
    return total;
  }

 private:
  struct Entry {
    double value;
    double birth;
    uint32_t attr_id;
  };

  /// Buffers one row; appends the key's window result to *out once the
  /// buffer reaches the window length.
  void AddRow(const Value& key, bool keyed, double v, double event_time,
              double birth, uint32_t attr_id, data::Batch* out) {
    auto& buf = buffers_[key];
    buf.push_back({v, birth, attr_id});
    if (static_cast<int64_t>(buf.size()) < length_) return;
    AggState state;
    for (const Entry& entry : buf) {
      state.Add(entry.value, entry.birth, entry.attr_id);
    }
    if (keyed) out->AppendValue(0, key);
    out->AppendDouble(keyed ? 1 : 0, state.Finish(op_.agg_fn));
    out->FinishRow(event_time, state.first_birth, state.first_attr_id);
    for (int64_t i = 0; i < slide_ && !buf.empty(); ++i) buf.pop_front();
  }

  OperatorDescriptor op_;
  int64_t length_;
  int64_t slide_;
  std::map<Value, std::deque<Entry>> buffers_;
  std::vector<double> vals_;
  uint32_t kernel_id_ = KernelMarker("aggregate-kernel");
};

// Windowed equi-join. Time policy: per-side keyed buffers holding the last
// `duration` seconds of rows (by event time); every arrival probes the
// opposite side. Count policy: per-side per-key buffers of the last
// length_tuples rows.
class WindowJoinExec : public OperatorInstance {
 public:
  explicit WindowJoinExec(const OperatorDescriptor& op)
      : op_(op), duration_(op.window.DurationSeconds()) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int input_port, double, data::Batch* out) override {
    if (input_port < 0 || input_port > 1) {
      return Status::OutOfRange("join input port must be 0 or 1");
    }
    const size_t key_field =
        input_port == 0 ? op_.join_left_key : op_.join_right_key;
    if (key_field >= in.NumColumns()) {
      return Status::OutOfRange("join key beyond tuple arity");
    }
    Side& mine = sides_[input_port];
    Side& other = sides_[1 - input_port];
    for (size_t row = row_begin; row < row_end; ++row) {
      const Value key = in.ValueAt(row, key_field);
      const double t = in.event_time(row);
      // Materialized once: the row probes the other side, then is buffered.
      Entry e{in.RowTuple(row), in.birth(row), in.attr_id(row)};

      // Evict expired entries from the probed key bucket (time policy).
      auto other_it = other.buffers.find(key);
      if (other_it != other.buffers.end()) {
        auto& buf = other_it->second;
        if (op_.window.policy == WindowPolicy::kTime) {
          size_t expired = 0;
          while (expired < buf.size() &&
                 buf[expired].tuple.event_time < t - duration_) {
            ++expired;
          }
          if (expired > 0) {
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<int64_t>(expired));
            other.total -= expired;
          }
        }
        for (const Entry& match : buf) {
          const std::vector<Value>& left =
              (input_port == 0 ? e : match).tuple.values;
          const std::vector<Value>& right =
              (input_port == 0 ? match : e).tuple.values;
          if (left.size() + right.size() != out->NumColumns()) {
            return ArityMismatch(left.size() + right.size(), *out);
          }
          size_t col = 0;
          for (const Value& v : left) out->AppendValue(col++, v);
          for (const Value& v : right) out->AppendValue(col++, v);
          // Attribution follows the earliest contributor (the side latency
          // is measured against); the buffered partner's residency in the
          // join window is charged by the simulator when it sees the stale
          // cursor.
          out->FinishRow(std::max(t, match.tuple.event_time),
                         std::min(e.birth, match.birth),
                         e.birth <= match.birth ? e.attr_id : match.attr_id);
        }
        if (buf.empty()) other.buffers.erase(other_it);
      }

      // Insert into own buffer and evict.
      auto& own = mine.buffers[key];
      own.push_back(std::move(e));
      ++mine.total;
      if (op_.window.policy == WindowPolicy::kTime) {
        size_t expired = 0;
        while (expired < own.size() &&
               own[expired].tuple.event_time < t - duration_) {
          ++expired;
        }
        if (expired > 0) {
          own.erase(own.begin(), own.begin() + static_cast<int64_t>(expired));
          mine.total -= expired;
        }
      } else {
        const auto cap = static_cast<size_t>(
            std::max<int64_t>(1, op_.window.length_tuples));
        while (own.size() > cap) {
          --mine.total;
          own.erase(own.begin());
        }
      }
    }
    return Status::OK();
  }

  size_t StateSize() const override {
    return sides_[0].total + sides_[1].total;
  }

 private:
  struct Entry {
    Tuple tuple;
    double birth;
    uint32_t attr_id;
  };
  struct Side {
    // Per-key buckets hold only a handful of in-window rows each, so a
    // small vector beats a deque (whose minimum allocation is ~512B — with
    // ID-like join keys that caused hundreds of MB of allocator churn).
    std::map<Value, std::vector<Entry>> buffers;
    size_t total = 0;
  };

  OperatorDescriptor op_;
  double duration_;
  Side sides_[2];
};

// Runs a UDO row by row in batch order; its outputs go through
// UdoContext::Emit, and the per-instance RNG carries across calls.
class UdoExec : public OperatorInstance {
 public:
  UdoExec(std::unique_ptr<Udo> udo, int instance, uint64_t seed)
      : udo_(std::move(udo)), instance_(instance), rng_(seed) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double now, data::Batch* out) override {
    UdoContext ctx;
    ctx.now = now;
    ctx.instance = instance_;
    ctx.rng = &rng_;
    ctx.out = out;
    for (size_t row = row_begin; row < row_end && ctx.status.ok(); ++row) {
      const data::RowView view(in, row);
      ctx.input = &view;
      udo_->Process(view, &ctx);
    }
    return ctx.status;
  }

 private:
  std::unique_ptr<Udo> udo_;
  int instance_;
  Rng rng_;
};

class SinkExec : public OperatorInstance {
 public:
  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    out->AppendRange(in, row_begin, row_end);
    return Status::OK();
  }
};

}  // namespace

void UdoContext::Append(const Value* values, size_t n) {
  if (!status.ok()) return;
  if (n != out->NumColumns()) {
    status = ArityMismatch(n, *out);
    return;
  }
  for (size_t col = 0; col < n; ++col) out->AppendValue(col, values[col]);
  out->FinishRow(input->event_time(), input->birth(), input->attr_id());
}

Result<std::unique_ptr<OperatorInstance>> CreateOperatorInstance(
    const LogicalPlan& plan, LogicalPlan::OpId op_id, int instance,
    uint64_t seed) {
  const OperatorDescriptor& op = plan.op(op_id);
  switch (op.type) {
    case OperatorType::kSource:
      return Status::InvalidArgument(
          "sources are driven by the simulator, not OperatorInstance");
    case OperatorType::kFilter:
      return {std::make_unique<FilterExec>(op)};
    case OperatorType::kMap:
      return {std::make_unique<MapExec>()};
    case OperatorType::kFlatMap:
      return {std::make_unique<FlatMapExec>(op, seed)};
    case OperatorType::kWindowAggregate:
      if (op.window.policy == WindowPolicy::kTime) {
        return {std::make_unique<TimeWindowAggExec>(op)};
      }
      return {std::make_unique<CountWindowAggExec>(op)};
    case OperatorType::kWindowJoin:
      return {std::make_unique<WindowJoinExec>(op)};
    case OperatorType::kUdo: {
      PDSP_ASSIGN_OR_RETURN(auto udo, UdoRegistry::Global().Create(op));
      return {std::make_unique<UdoExec>(std::move(udo), instance, seed)};
    }
    case OperatorType::kSink:
      return {std::make_unique<SinkExec>()};
  }
  return Status::Internal("unknown operator type");
}

}  // namespace pdsp
