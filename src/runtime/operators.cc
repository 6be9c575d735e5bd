#include "src/runtime/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/obs/prof.h"
#include "src/runtime/kernels.h"
#include "src/runtime/keyed_state.h"
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
      KeyedTable<AggState>& keys = panes_.begin()->second;
      // Keys fire in key order, sorted once per pane.
      const auto& entries = keys.entries();
      order_.resize(entries.size());
      std::iota(order_.begin(), order_.end(), 0u);
      std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
        return KeyLess(entries[a].first, entries[b].first);
      });
      for (const uint32_t i : order_) {
        const auto& [key, state] = entries[i];
        if (keyed) out->AppendValue(0, key);
        out->AppendDouble(keyed ? 1 : 0, state.Finish(op_.agg_fn));
        out->FinishRow(pane_end, state.first_birth, state.first_attr_id);
      }
      keys.Clear();
      spare_ = std::move(keys);
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
      if (inserted) {
        timer_heap_.push(start + duration_);
        it->second = std::exchange(spare_, {});
      }
      it->second.FindOrInsert(key).Add(v, birth, attr_id);
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
  std::map<int64_t, KeyedTable<AggState>> panes_;
  // The last fired pane's emptied table, reused for the next new pane.
  KeyedTable<AggState> spare_;
  std::vector<uint32_t> order_;  // scratch: a firing pane's key order
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
    for (const auto& [key, buf] : buffers_.entries()) total += buf.size();
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
    std::vector<Entry>& buf = buffers_.FindOrInsert(key);
    buf.push_back({v, birth, attr_id});
    if (static_cast<int64_t>(buf.size()) < length_) return;
    AggState state;
    for (const Entry& entry : buf) {
      state.Add(entry.value, entry.birth, entry.attr_id);
    }
    if (keyed) out->AppendValue(0, key);
    out->AppendDouble(keyed ? 1 : 0, state.Finish(op_.agg_fn));
    out->FinishRow(event_time, state.first_birth, state.first_attr_id);
    // Firing already walked the whole buffer, so sliding it is no dearer.
    buf.erase(buf.begin(),
              buf.begin() + std::min<int64_t>(
                                slide_, static_cast<int64_t>(buf.size())));
  }

  OperatorDescriptor op_;
  int64_t length_;
  int64_t slide_;
  // Vectors, not deques: entries move when the table grows, and a vector
  // moves without allocating.
  KeyedTable<std::vector<Entry>> buffers_;
  std::vector<double> vals_;
  uint32_t kernel_id_ = KernelMarker("aggregate-kernel");
};

// Windowed equi-join. Time policy: per-side keyed buffers holding the last
// `duration` seconds of rows (by event time); every arrival probes the
// opposite side. Count policy: per-side per-key buffers of the last
// length_tuples rows.
//
// Each side keeps its buffered rows in one Batch, appended once per input
// batch, and each key a chain of row indices through it, oldest first.
// Eviction pops chain heads and leaves the row behind, dead; once dead rows
// outnumber live ones (past a small floor) the live rows are gathered into
// a fresh batch, chain by chain, so compaction is amortized O(1) per row.
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
    if (row_begin == row_end) return Status::OK();
    Side& mine = sides_[input_port];
    Side& other = sides_[1 - input_port];
    if (mine.live == 0 && !(mine.rows.layout() == in.layout())) {
      mine.rows = data::Batch(in.layout());
      mine.next.clear();
    } else if (mine.rows.NumColumns() != in.NumColumns()) {
      return Status::Internal(StrFormat(
          "join port %d received arity %zu after arity %zu", input_port,
          in.NumColumns(), mine.rows.NumColumns()));
    }
    auto index = static_cast<uint32_t>(mine.rows.NumRows());
    mine.rows.AppendRange(in, row_begin, row_end);
    mine.next.resize(mine.rows.NumRows(), kNone);
    const bool time_policy = op_.window.policy == WindowPolicy::kTime;
    const auto cap = static_cast<size_t>(
        std::max<int64_t>(1, op_.window.length_tuples));
    for (size_t row = row_begin; row < row_end; ++row, ++index) {
      const Value key = in.ValueAt(row, key_field);
      const double t = in.event_time(row);

      // Evict expired rows from the probed key's chain (time policy), then
      // join the arrival with every row left in it.
      if (Chain* probed = other.chains.Find(key)) {
        if (time_policy) other.EvictBefore(t - duration_, probed);
        if (probed->size > 0) {
          const size_t arity = in.NumColumns() + other.rows.NumColumns();
          if (arity != out->NumColumns()) return ArityMismatch(arity, *out);
          const double birth = in.birth(row);
          const uint32_t attr_id = in.attr_id(row);
          for (uint32_t m = probed->head; m != kNone; m = other.next[m]) {
            if (input_port == 0) {
              AppendCells(in, row, 0, out);
              AppendCells(other.rows, m, in.NumColumns(), out);
            } else {
              AppendCells(other.rows, m, 0, out);
              AppendCells(in, row, other.rows.NumColumns(), out);
            }
            // Attribution follows the earliest contributor (the side
            // latency is measured against); the buffered partner's
            // residency in the join window is charged by the simulator
            // when it sees the stale cursor.
            const double match_birth = other.rows.birth(m);
            out->FinishRow(std::max(t, other.rows.event_time(m)),
                           std::min(birth, match_birth),
                           birth <= match_birth ? attr_id
                                                : other.rows.attr_id(m));
          }
        }
        if (probed->size == 0) other.chains.Erase(key);
      }

      // Buffer the arrival and evict from its own key's chain.
      Chain& own = mine.chains.FindOrInsert(key);
      mine.Link(index, &own);
      if (time_policy) {
        mine.EvictBefore(t - duration_, &own);
      } else {
        while (own.size > cap) mine.PopHead(&own);
      }
    }
    mine.MaybeCompact();
    other.MaybeCompact();
    return Status::OK();
  }

  size_t StateSize() const override {
    return sides_[0].live + sides_[1].live;
  }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  // Dead rows a side tolerates before compaction, however few are live.
  static constexpr size_t kCompactFloor = 64;

  // One key's buffered rows, oldest first, linked through Side::next.
  struct Chain {
    uint32_t head = kNone;
    uint32_t tail = kNone;
    uint32_t size = 0;
  };

  struct Side {
    data::Batch rows;            // every buffered row, live or dead
    std::vector<uint32_t> next;  // next[i]: the row after i in its chain
    KeyedTable<Chain> chains;
    size_t live = 0;             // rows reachable from a chain

    void Link(uint32_t index, Chain* chain) {
      if (chain->size == 0) {
        chain->head = index;
      } else {
        next[chain->tail] = index;
      }
      chain->tail = index;
      ++chain->size;
      ++live;
    }

    void PopHead(Chain* chain) {
      chain->head = next[chain->head];
      if (--chain->size == 0) chain->tail = kNone;
      --live;
    }

    // Pops the chain's prefix of rows with event time before `limit`.
    void EvictBefore(double limit, Chain* chain) {
      while (chain->size > 0 && rows.event_time(chain->head) < limit) {
        PopHead(chain);
      }
    }

    // Gathers the live rows into a fresh batch, each chain contiguous and
    // in order, once dead rows outnumber live ones past kCompactFloor.
    void MaybeCompact() {
      const size_t dead = rows.NumRows() - live;
      if (dead <= std::max(live, kCompactFloor)) return;
      data::SelectionVector sel;
      std::vector<uint32_t> renumbered;
      sel.reserve(live);
      renumbered.reserve(live);
      chains.ForEachValue([&](Chain& chain) {
        if (chain.size == 0) return;
        const auto head = static_cast<uint32_t>(sel.size());
        for (uint32_t m = chain.head; m != kNone; m = next[m]) {
          sel.push_back(m);
          renumbered.push_back(static_cast<uint32_t>(sel.size()));
        }
        renumbered.back() = kNone;
        chain.head = head;
        chain.tail = static_cast<uint32_t>(sel.size() - 1);
      });
      data::Batch fresh(rows.layout());
      fresh.Reserve(sel.size());
      fresh.AppendGather(rows, sel);
      rows = std::move(fresh);
      next = std::move(renumbered);
    }
  };

  // Appends every cell of row `row` of `src` to out's columns from `first`.
  static void AppendCells(const data::Batch& src, size_t row, size_t first,
                          data::Batch* out) {
    for (size_t col = 0; col < src.NumColumns(); ++col) {
      out->AppendCell(first + col, src, row, col);
    }
  }

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
