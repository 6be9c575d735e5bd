#include "src/sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/data/arrival.h"
#include "src/data/batch.h"
#include "src/data/generator.h"
#include "src/obs/mem.h"
#include "src/obs/prof.h"
#include "src/query/batch_layout.h"
#include "src/runtime/kernels.h"
#include "src/runtime/operators.h"

namespace pdsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class EventKind : uint8_t { kSourceBatch, kDelivery, kReady };

/// Index of a batch in the engine's BatchPool; kNoBatch for none.
constexpr uint32_t kNoBatch = std::numeric_limits<uint32_t>::max();

struct Batch {
  /// Payload rows in columnar form (schema-specialized per sending edge).
  data::Batch rows;
  int input_port = 0;
  /// Delivered over a chained forward channel: the receiver charges no
  /// framing overhead (same-thread call, as in Flink operator chains).
  bool chained = false;
  /// The sender's slot in the receiver's watermark table.
  uint32_t wm_slot = 0;
  /// Event-time watermark of the sender when this batch left it. Applied at
  /// processing time (after all earlier batches on the same channel).
  double watermark = -kInf;
  /// Free list (distinct output layout) this batch returns to.
  uint32_t layout_id = 0;
};

struct Event {
  double time = 0.0;
  int64_t seq = 0;
  int task = 0;
  EventKind kind = EventKind::kReady;
  uint32_t batch = kNoBatch;
};
static_assert(std::is_trivially_copyable_v<Event>);

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;  // FIFO tie-break for determinism
  }
};

/// \brief Engine-owned batch storage addressed by index, so events, queues
/// and planned deliveries carry a uint32_t instead of a shared pointer.
/// Released batches go on one free list per distinct layout (not per
/// operator: operators sharing a layout share storage). A released batch
/// keeps its column storage only if it held at most kKeepStorageRows rows;
/// larger ones drop it, so one saturated burst does not pin its peak
/// footprint in every pooled batch.
class BatchPool {
 public:
  static constexpr size_t kKeepStorageRows = 64;

  explicit BatchPool(std::vector<data::BatchLayout> layouts = {})
      : layouts_(std::move(layouts)), free_(layouts_.size()) {}

  Batch& operator[](uint32_t id) { return batches_[id]; }

  /// An empty batch of layout `layout_id`.
  uint32_t Acquire(uint32_t layout_id) {
    std::vector<uint32_t>& free = free_[layout_id];
    if (!free.empty()) {
      const uint32_t id = free.back();
      free.pop_back();
      return id;
    }
    Batch& b = batches_.emplace_back();
    b.rows = data::Batch(layouts_[layout_id]);
    b.layout_id = layout_id;
    return static_cast<uint32_t>(batches_.size() - 1);
  }

  void Release(uint32_t id) {
    Batch& b = batches_[id];
    if (b.rows.NumRows() <= kKeepStorageRows) {
      b.rows.Clear();
    } else {
      b.rows = data::Batch(layouts_[b.layout_id]);
    }
    free_[b.layout_id].push_back(id);
  }

 private:
  std::vector<data::BatchLayout> layouts_;
  // A deque: growing it never moves a live batch.
  std::deque<Batch> batches_;
  std::vector<std::vector<uint32_t>> free_;  // per layout id
};

// Simulator internals for one run.
class Engine {
 public:
  Engine(const PhysicalPlan& plan, const Cluster& cluster,
         const Placement& placement, const CostModel& costs,
         const SimOptions& options)
      : plan_(plan),
        cluster_(cluster),
        placement_(placement),
        costs_(costs),
        options_(options) {}

  Result<SimResult> Run();

 private:
  struct TaskState {
    std::unique_ptr<OperatorInstance> instance;  // null for sources
    std::deque<uint32_t> queue;                  // BatchPool ids
    size_t queued_tuples = 0;
    double busy_until = 0.0;
    // Event-time watermarks: one slot per upstream task (see WmRoute), the
    // min over them (this task's input watermark, which gates window
    // firing), how many slots sit at that min, and when we last broadcast
    // our own watermark downstream.
    std::vector<double> channel_wm;
    double input_wm = -kInf;
    size_t channels_at_min = 0;
    double last_wm_broadcast = -kInf;
    // Service-rate divisor: node speed times core contention.
    double speed = 1.0;
    // Per-outgoing-channel-group round-robin cursors (rebalance).
    std::vector<size_t> rr_cursor;
    // Source-only state.
    std::unique_ptr<TupleGenerator> generator;
    std::unique_ptr<ArrivalProcess> arrival;
    double batch_interval = 0.01;
    Rng rng{1};
    // Stats.
    double busy_time = 0.0;
    int64_t tuples_in = 0;
    int64_t tuples_out = 0;
    size_t max_queue_tuples = 0;
  };

  struct PlannedDelivery {
    double delay = 0.0;  // relative to sender completion
    int dest_task = 0;
    uint32_t batch = kNoBatch;
  };

  /// Where a sender on one outgoing channel group writes in the receiver's
  /// watermark table. A receiver holds one block of slots per input edge,
  /// and a plan has at most one edge per operator pair, so each upstream
  /// task owns exactly one slot. `base` is the block's first slot; a block
  /// holds one slot per upstream instance (`wide`), or, on a forward edge,
  /// only the slot of the receiver's own partner.
  struct WmRoute {
    uint32_t base = 0;
    bool wide = false;
  };

  Status SetUpTasks();
  /// Builds the per-receiver watermark tables and the senders' WmRoutes.
  void SetUpWatermarkChannels();
  void Push(double time, EventKind kind, int task, uint32_t batch = kNoBatch);

  /// Appends one time-series row per task at virtual time `t` (rates and
  /// utilization over the elapsed time since the previous sample — the last
  /// end-of-run sample may cover a partial interval).
  void SampleTimeSeries(double t);
  /// Verbose tracing: one virtual-time complete event for a firing of
  /// `task` spanning [start, start+duration).
  void TraceFiring(int task, double start, double duration, size_t tuples);

  /// Runs the instance on a batch or on due timers; routes outputs; returns
  /// the service time charged.
  Status ProcessOne(int task, double now);

  /// Starts work on `task` if it is idle and has something to do.
  void MaybeStart(int task, double now);

  /// Splits outputs into per-destination sub-batches, adds the send-side
  /// costs to *cost, and fills *deliveries with (delay, dest, batch).
  /// Hash partitioning runs the columnar partition kernel (hash the key
  /// column once, scatter row indices, gather each destination's rows in
  /// one pass); rebalance and forward reduce to index arithmetic plus a
  /// range copy. Destination order and per-destination row order are those
  /// of routing each row on its own, in row order. Every sub-batch carries
  /// `sender_wm`; when `broadcast_wm` is set, destinations that received no
  /// data still get a watermark-only batch (Flink's periodic watermark
  /// emission). Deliveries go to `deliveries_` in ascending destination
  /// order per group.
  void RouteOutputs(int task, const data::Batch& outputs, double sender_wm,
                    bool broadcast_wm, double* cost);

  /// Applies a processed batch's watermark to its channel and keeps the
  /// task's input watermark equal to the min over its channels.
  void ApplyWatermark(TaskState* state, const Batch& batch);
  /// Turns `deliveries_` into delivery events and clears it.
  void DispatchDeliveries(double completion);
  void EmitSourceBatch(int task, double now);
  /// The reusable output batch for `op`'s layout, emptied.
  data::Batch& OutputScratch(LogicalPlan::OpId op);

  // --- latency attribution -----------------------------------------------
  // Every virtual-time interval an element lives through is charged to
  // exactly one LatencyAttr component, so sink-side components telescope to
  // the recorded end-to-end latency. Gated behind
  // SimOptions::attribute_latency (charging walks every element several
  // times per hop). Charges happen at four points: batch
  // dispatch (source-batching at sources, service elsewhere), delivery
  // (network transit), dequeue (queue wait) and state emergence (window
  // residency, detected by a stale attribution cursor).

  /// Advances each outgoing element's cursor to `completion`, charging the
  /// gap to source-batching (sources) or service (operators).
  void ChargeDispatch(LogicalPlan::OpId op, double completion,
                      bool is_source);
  /// Charges `now - cursor` to network transit for a just-delivered batch.
  void ChargeNetwork(LogicalPlan::OpId op, double now, const Batch& batch);
  /// Charges `now - cursor` to queue wait for a just-dequeued batch.
  void ChargeQueueWait(LogicalPlan::OpId op, double now, const Batch& batch);
  /// Charges window/join-state residency for outputs whose cursor predates
  /// `now` (they emerged from operator state rather than this batch).
  void ChargeWindowResidency(LogicalPlan::OpId op, double now,
                             const data::Batch& outputs);
  /// Allocates an attribution record with its cursor at `birth`; returns
  /// kNoAttr once the pool cap is reached (the tail of an extreme run goes
  /// untracked rather than exhausting memory).
  uint32_t NewAttr(double birth);

  const PhysicalPlan& plan_;
  const Cluster& cluster_;
  const Placement& placement_;
  const CostModel& costs_;
  const SimOptions& options_;

  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  int64_t seq_ = 0;
  std::vector<TaskState> tasks_;
  std::vector<std::vector<ChannelGroup>> out_channels_;  // per op
  std::vector<std::vector<WmRoute>> out_wm_;  // per op, parallel to groups
  // Distinct output layout of each operator, indexed by op id (ids index
  // the pool's free lists and out_scratch_).
  std::vector<uint32_t> op_layout_id_;
  BatchPool pool_;
  // Per-firing scratch, reused across firings: one output batch per
  // layout (operators and fired timers append into it), the planned
  // deliveries, per-destination row selections, and each destination's
  // sub-batch in the group being routed (kNoBatch when untouched) with the
  // list of touched destinations.
  std::vector<data::Batch> out_scratch_;
  std::vector<PlannedDelivery> deliveries_;
  std::vector<data::SelectionVector> parts_;
  std::vector<uint32_t> dest_batch_;
  std::vector<int> touched_;
  int64_t pending_tuples_ = 0;
  int64_t events_processed_ = 0;
  SimEventCounts event_counts_;
  Status run_error_ = Status::OK();
  SimResult result_;
  // Observability. Counter handles are cached so hot-path updates are one
  // relaxed atomic add; time-series rates diff against the previous sample.
  obs::Counter* ctr_source_tuples_ = nullptr;
  obs::Counter* ctr_sink_tuples_ = nullptr;
  obs::Counter* ctr_bp_skipped_ = nullptr;
  obs::Counter* ctr_data_batches_ = nullptr;
  obs::Counter* ctr_data_rows_ = nullptr;
  obs::Counter* ctr_data_promotions_ = nullptr;
  obs::HistogramMetric* hist_sink_latency_ = nullptr;
  std::vector<double> prev_busy_time_;
  std::vector<int64_t> prev_tuples_in_;
  std::vector<int64_t> prev_tuples_out_;
  double prev_sample_time_ = 0.0;
  bool trace_verbose_ = false;
  bool attribute_ = false;
  bool bp_active_ = false;
  // CPU-profiler marker ids, pre-interned at Run() start and only when a
  // profiler is active (empty otherwise). A ProfScope with id 0 is a no-op,
  // so the per-firing cost with profiling off stays one relaxed load and a
  // branch per scope.
  std::vector<uint32_t> op_marker_ids_;
  uint32_t kernel_fire_id_ = 0;
  uint32_t kernel_process_id_ = 0;
  uint32_t kernel_partition_id_ = 0;

  uint32_t OpMarkerId(LogicalPlan::OpId op) const {
    const auto i = static_cast<size_t>(op);
    return i < op_marker_ids_.size() ? op_marker_ids_[i] : 0u;
  }
  // Per-logical-operator latency-component accumulators (moved into
  // OperatorRunStats::latency at aggregation time).
  std::vector<OperatorLatencyStats> op_latency_;
  // Attribution records, one per tracked source row; derived rows share
  // their earliest contributor's record (data::Batch::attr_id). Kept
  // engine-side so rows stay small when attribution is off.
  static constexpr size_t kAttrPoolCap = 4'000'000;
  std::vector<LatencyAttr> attr_pool_;
  // Sink-side breakdown sums over post-warm-up records.
  LatencyAttr bd_sum_;
  double bd_total_ = 0.0;
  int64_t bd_n_ = 0;
};

Status Engine::SetUpTasks() {
  tasks_.resize(plan_.NumTasks());
  out_channels_.resize(plan_.logical().NumOperators());
  for (size_t op = 0; op < plan_.logical().NumOperators(); ++op) {
    out_channels_[op] = plan_.ChannelsFrom(static_cast<LogicalPlan::OpId>(op));
  }
  PDSP_ASSIGN_OR_RETURN(std::vector<data::BatchLayout> out_layouts,
                        DeriveBatchLayouts(plan_.logical()));
  std::vector<data::BatchLayout> layouts;
  op_layout_id_.resize(out_layouts.size());
  int max_parallelism = 1;
  for (size_t op = 0; op < out_layouts.size(); ++op) {
    const auto it = std::find(layouts.begin(), layouts.end(), out_layouts[op]);
    op_layout_id_[op] = static_cast<uint32_t>(it - layouts.begin());
    if (it == layouts.end()) layouts.push_back(out_layouts[op]);
    max_parallelism =
        std::max(max_parallelism,
                 plan_.ParallelismOf(static_cast<LogicalPlan::OpId>(op)));
  }
  for (const data::BatchLayout& layout : layouts) {
    out_scratch_.emplace_back(layout);
  }
  pool_ = BatchPool(std::move(layouts));
  dest_batch_.assign(static_cast<size_t>(max_parallelism), kNoBatch);
  Rng master(options_.seed);
  for (size_t t = 0; t < plan_.NumTasks(); ++t) {
    const PhysicalTask& pt = plan_.task(static_cast<int>(t));
    const OperatorDescriptor& op = plan_.logical().op(pt.op);
    TaskState& state = tasks_[t];
    state.rr_cursor.assign(out_channels_[pt.op].size(), 0);
    state.rng = master.Fork(t + 1);
    const int node_id = placement_.node_of_task[t];
    const double contention =
        std::min(1.0, static_cast<double>(cluster_.node(node_id).spec.cores) /
                          std::max(1, placement_.tasks_per_node[node_id]));
    state.speed =
        std::max(1e-6, cluster_.node(node_id).effective_speed * contention);
    if (op.type == OperatorType::kSource) {
      const SourceBinding& binding =
          plan_.logical().sources()[op.source_index];
      ArrivalProcess::Options arr = binding.arrival;
      arr.rate = std::max(1e-9, arr.rate / op.parallelism);
      PDSP_ASSIGN_OR_RETURN(auto arrival, ArrivalProcess::Create(arr));
      state.arrival = std::make_unique<ArrivalProcess>(arrival);
      PDSP_ASSIGN_OR_RETURN(
          auto gen, TupleGenerator::Create(binding.stream.schema,
                                           binding.stream.specs,
                                           options_.seed * 977 + t));
      state.generator = std::make_unique<TupleGenerator>(std::move(gen));
      state.batch_interval = options_.source_batch_interval_s;
      Push(0.0, EventKind::kSourceBatch, static_cast<int>(t));
    } else {
      PDSP_ASSIGN_OR_RETURN(
          auto inst, CreateOperatorInstance(plan_.logical(), pt.op,
                                            pt.instance,
                                            options_.seed * 31 + t));
      state.instance = std::move(inst);
    }
  }
  if (trace_verbose_) {
    // Name virtual-timeline rows "op[instance]" so Perfetto shows per-task
    // lanes instead of bare tids.
    for (size_t t = 0; t < plan_.NumTasks(); ++t) {
      const PhysicalTask& pt = plan_.task(static_cast<int>(t));
      options_.tracer->SetThreadName(
          obs::kVirtualPid, static_cast<int>(t),
          StrFormat("%s[%d]", plan_.logical().op(pt.op).name.c_str(),
                    pt.instance));
    }
  }
  SetUpWatermarkChannels();
  return Status::OK();
}

void Engine::SetUpWatermarkChannels() {
  // Every task knows all upstream tasks so the input watermark is the min
  // over the full channel set from the start.
  const size_t num_ops = plan_.logical().NumOperators();
  std::vector<uint32_t> num_slots(num_ops, 0);  // per receiving op
  out_wm_.resize(num_ops);
  for (size_t op = 0; op < num_ops; ++op) {
    for (const ChannelGroup& g : out_channels_[op]) {
      const bool wide = g.mode != Partitioning::kForward;
      out_wm_[op].push_back({num_slots[g.to_op], wide});
      num_slots[g.to_op] +=
          wide ? static_cast<uint32_t>(plan_.ParallelismOf(g.from_op)) : 1;
    }
  }
  for (size_t t = 0; t < tasks_.size(); ++t) {
    TaskState& state = tasks_[t];
    if (state.instance == nullptr) continue;  // sources own their watermark
    state.channel_wm.assign(num_slots[plan_.task(static_cast<int>(t)).op],
                            -kInf);
    state.channels_at_min = state.channel_wm.size();
  }
}

void Engine::Push(double time, EventKind kind, int task, uint32_t batch) {
  Event e;
  e.time = time;
  e.seq = seq_++;
  e.kind = kind;
  e.task = task;
  e.batch = batch;
  heap_.push(e);
}

void Engine::ApplyWatermark(TaskState* state, const Batch& batch) {
  double& wm = state->channel_wm[batch.wm_slot];
  if (batch.watermark <= wm) return;
  // input_wm is the min over the channels, so only advancing the last
  // channel still at the min can raise it; then rescan.
  const bool was_at_min = wm == state->input_wm;
  wm = batch.watermark;
  if (!was_at_min || --state->channels_at_min > 0) return;
  double min_wm = kInf;
  size_t at_min = 0;
  for (const double w : state->channel_wm) {
    if (w < min_wm) {
      min_wm = w;
      at_min = 1;
    } else if (w == min_wm) {
      ++at_min;
    }
  }
  state->input_wm = min_wm;
  state->channels_at_min = at_min;
}

data::Batch& Engine::OutputScratch(LogicalPlan::OpId op) {
  data::Batch& outputs = out_scratch_[op_layout_id_[op]];
  outputs.Clear();
  return outputs;
}

void Engine::SampleTimeSeries(double t) {
  const double interval = t - prev_sample_time_;
  if (interval <= 0.0) return;
  prev_sample_time_ = t;
  const bool bp = pending_tuples_ > options_.max_in_flight_tuples;
  for (size_t task = 0; task < tasks_.size(); ++task) {
    const TaskState& state = tasks_[task];
    const PhysicalTask& pt = plan_.task(static_cast<int>(task));
    obs::TimeSeriesRow row;
    row.time_s = t;
    row.task = static_cast<int>(task);
    row.op = plan_.logical().op(pt.op).name;
    row.instance = pt.instance;
    row.queue_tuples = static_cast<int64_t>(state.queued_tuples);
    // Busy time is charged when service starts, so a long firing can exceed
    // the interval; clamp to a fraction.
    row.utilization = std::clamp(
        (state.busy_time - prev_busy_time_[task]) / interval, 0.0, 1.0);
    row.in_rate_tps =
        static_cast<double>(state.tuples_in - prev_tuples_in_[task]) /
        interval;
    row.out_rate_tps =
        static_cast<double>(state.tuples_out - prev_tuples_out_[task]) /
        interval;
    if (state.input_wm >= kInf) {
      row.watermark_lag_s = 0.0;  // end-of-stream watermark
    } else if (state.input_wm <= -kInf) {
      row.watermark_lag_s = t;  // no watermark received yet
    } else {
      row.watermark_lag_s = std::max(0.0, t - state.input_wm);
    }
    row.in_flight_tuples = pending_tuples_;
    row.backpressure = bp;
    prev_busy_time_[task] = state.busy_time;
    prev_tuples_in_[task] = state.tuples_in;
    prev_tuples_out_[task] = state.tuples_out;
    result_.timeseries.Append(std::move(row));
  }
  if (options_.tracer != nullptr) {
    options_.tracer->AddCounter("pdsp.sim.in_flight_tuples", t * 1e6,
                                static_cast<double>(pending_tuples_));
  }
}

void Engine::TraceFiring(int task, double start, double duration,
                         size_t tuples) {
  const PhysicalTask& pt = plan_.task(task);
  std::vector<obs::TraceEvent::Arg> args;
  args.push_back({"tuples", "", static_cast<double>(tuples), true});
  options_.tracer->AddComplete(plan_.logical().op(pt.op).name, "firing",
                               start * 1e6, duration * 1e6, obs::kVirtualPid,
                               task, std::move(args));
}

void Engine::RouteOutputs(int task, const data::Batch& outputs,
                          double sender_wm, bool broadcast_wm, double* cost) {
  const size_t n = outputs.NumRows();
  if (n == 0 && !broadcast_wm) return;
  TaskState& state = tasks_[task];
  const PhysicalTask& pt = plan_.task(task);
  const auto& groups = out_channels_[pt.op];
  const int src_node = placement_.node_of_task[task];
  const uint32_t layout_id = op_layout_id_[pt.op];

  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const ChannelGroup& g = groups[gi];
    const int p_dest = plan_.ParallelismOf(g.to_op);
    const size_t key_field = plan_.PartitionKeyField(g.to_op, g.input_port);
    auto sub_batch = [&](int d) -> Batch& {
      uint32_t& id = dest_batch_[d];
      if (id == kNoBatch) {
        id = pool_.Acquire(layout_id);
        pool_[id].input_port = g.input_port;
        touched_.push_back(d);
      }
      return pool_[id];
    };
    if (n > 0) {
      switch (g.mode) {
        case Partitioning::kForward:
          sub_batch(pt.instance).rows.AppendRange(outputs, 0, n);
          break;
        case Partitioning::kRebalance: {
          // Row i goes to (cursor + i) % p: per-row round robin, batched.
          const size_t cursor = state.rr_cursor[gi];
          state.rr_cursor[gi] += n;
          // Buckets keep their storage across calls (never shrunk here).
          if (parts_.size() < static_cast<size_t>(p_dest)) {
            parts_.resize(static_cast<size_t>(p_dest));
          }
          for (int d = 0; d < p_dest; ++d) parts_[d].clear();
          for (size_t i = 0; i < n; ++i) {
            parts_[(cursor + i) % static_cast<size_t>(p_dest)].push_back(
                static_cast<uint32_t>(i));
          }
          for (int d = 0; d < p_dest; ++d) {
            if (parts_[d].empty()) continue;
            sub_batch(d).rows.AppendGather(outputs, parts_[d]);
          }
          break;
        }
        case Partitioning::kHash: {
          obs::prof::ProfScope kernel_scope(obs::prof::FrameKind::kKernel,
                                            kernel_partition_id_);
          // The effective key field is batch-wide (fixed arity): fall back
          // to field 0 when the declared key is absent, and to destination
          // 0 for zero-arity tuples.
          const size_t arity = outputs.NumColumns();
          const size_t f =
              key_field != OperatorDescriptor::kNoKey && key_field < arity
                  ? key_field
                  : 0;
          kernels::Partition(outputs, 0, n, f, p_dest, &parts_);
          for (int d = 0; d < p_dest; ++d) {
            if (parts_[d].empty()) continue;
            sub_batch(d).rows.AppendGather(outputs, parts_[d]);
          }
          break;
        }
      }
    }
    if (broadcast_wm) {
      // Watermark-only batches for destinations with no data this round.
      for (int d = 0; d < p_dest; ++d) {
        if (g.mode == Partitioning::kForward && d != pt.instance) continue;
        sub_batch(d);
      }
      // Data destinations were touched first; restore ascending order.
      std::sort(touched_.begin(), touched_.end());
    }
    const bool chained =
        g.mode == Partitioning::kForward && costs_.chain_forward_channels;
    const WmRoute wm_route = out_wm_[pt.op][gi];
    const uint32_t wm_slot =
        wm_route.base +
        (wm_route.wide ? static_cast<uint32_t>(pt.instance) : 0u);
    for (const int d : touched_) {
      const uint32_t id = dest_batch_[d];
      dest_batch_[d] = kNoBatch;
      Batch& sub = pool_[id];
      sub.wm_slot = wm_slot;
      sub.watermark = sender_wm;
      sub.chained = chained;
      const size_t sub_rows = sub.rows.NumRows();
      const int dest_task = plan_.TaskId(g.to_op, d);
      const int dest_node = placement_.node_of_task[dest_task];
      state.tuples_out += static_cast<int64_t>(sub_rows);
      if (chained && dest_node == src_node) {
        // Same thread: no send cost, immediate delivery.
        deliveries_.push_back({0.0, dest_task, id});
        continue;
      }
      *cost += costs_.subbatch_send_overhead;
      double delay;
      if (dest_node == src_node) {
        delay = costs_.local_handoff_latency;
      } else {
        const size_t bytes = sub.rows.WireSize(0, sub_rows);
        *cost += static_cast<double>(bytes) *
                 costs_.serialization_cost_per_byte;
        delay = cluster_.LinkLatencySeconds(src_node, dest_node) +
                static_cast<double>(bytes) /
                    cluster_.LinkBandwidthBytesPerSec(src_node, dest_node);
      }
      deliveries_.push_back({delay, dest_task, id});
    }
    touched_.clear();
  }
}

void Engine::DispatchDeliveries(double completion) {
  for (const PlannedDelivery& d : deliveries_) {
    pending_tuples_ += static_cast<int64_t>(pool_[d.batch].rows.NumRows());
    Push(completion + d.delay, EventKind::kDelivery, d.dest_task, d.batch);
  }
  deliveries_.clear();
  // Source backpressure caps generation, but mid-pipeline amplification
  // (join cascades) can still outrun it; fail cleanly before memory does.
  if (pending_tuples_ > 4 * options_.max_in_flight_tuples &&
      run_error_.ok()) {
    run_error_ = Status::ResourceExhausted(
        "mid-pipeline amplification exceeded 4x the in-flight tuple cap "
        "(join explosion)");
  }
}

uint32_t Engine::NewAttr(double birth) {
  if (attr_pool_.size() >= kAttrPoolCap) return kNoAttr;
  LatencyAttr a;
  a.accounted_until = birth;
  attr_pool_.push_back(a);
  return static_cast<uint32_t>(attr_pool_.size() - 1);
}

void Engine::ChargeDispatch(LogicalPlan::OpId op, double completion,
                            bool is_source) {
  OperatorLatencyStats& acc = op_latency_[op];
  for (const PlannedDelivery& d : deliveries_) {
    for (uint32_t attr : pool_[d.batch].rows.attr_ids()) {
      if (attr == kNoAttr) continue;
      LatencyAttr& a = attr_pool_[attr];
      const double delta = completion - a.accounted_until;
      a.accounted_until = completion;
      if (is_source) {
        a.source_batch_s += delta;
        acc.source_batch_sum_s += delta;
        ++acc.source_batch_n;
      } else {
        a.service_s += delta;
        acc.service_sum_s += delta;
        ++acc.service_n;
      }
    }
  }
}

void Engine::ChargeNetwork(LogicalPlan::OpId op, double now,
                           const Batch& batch) {
  OperatorLatencyStats& acc = op_latency_[op];
  for (uint32_t attr : batch.rows.attr_ids()) {
    if (attr == kNoAttr) continue;
    LatencyAttr& a = attr_pool_[attr];
    const double delta = now - a.accounted_until;
    a.network_s += delta;
    a.accounted_until = now;
    acc.network_in_sum_s += delta;
    ++acc.network_in_n;
  }
}

void Engine::ChargeQueueWait(LogicalPlan::OpId op, double now,
                             const Batch& batch) {
  OperatorLatencyStats& acc = op_latency_[op];
  for (uint32_t attr : batch.rows.attr_ids()) {
    if (attr == kNoAttr) continue;
    LatencyAttr& a = attr_pool_[attr];
    const double delta = now - a.accounted_until;
    a.queue_s += delta;
    a.accounted_until = now;
    acc.queue_wait_sum_s += delta;
    ++acc.queue_wait_n;
  }
}

void Engine::ChargeWindowResidency(LogicalPlan::OpId op, double now,
                                   const data::Batch& outputs) {
  OperatorLatencyStats& acc = op_latency_[op];
  for (uint32_t attr : outputs.attr_ids()) {
    if (attr == kNoAttr) continue;
    LatencyAttr& a = attr_pool_[attr];
    const double delta = now - a.accounted_until;
    if (delta <= 0.0) continue;  // fresh output of this firing, not state
    a.window_s += delta;
    a.accounted_until = now;
    acc.window_sum_s += delta;
    ++acc.window_n;
  }
}

void Engine::EmitSourceBatch(int task, double now) {
  TaskState& state = tasks_[task];
  const PhysicalTask& pt = plan_.task(task);
  const OperatorDescriptor& op = plan_.logical().op(pt.op);
  obs::prof::ProfScope op_scope(obs::prof::FrameKind::kOperator,
                                OpMarkerId(pt.op));
  const double dt = state.batch_interval;

  int64_t n = state.arrival->EventsInWindow(now, dt, &state.rng);
  const bool bp = pending_tuples_ > options_.max_in_flight_tuples;
  if (bp != bp_active_) {
    bp_active_ = bp;
    if (options_.tracer != nullptr) {
      options_.tracer->AddInstant(bp ? "backpressure_on" : "backpressure_off",
                                  "sim", now * 1e6, obs::kVirtualPid, task);
    }
  }
  if (bp) {
    result_.backpressure_skipped += n;
    ctr_bp_skipped_->Add(n);
    n = 0;
  }
  data::Batch& outputs = OutputScratch(pt.op);
  outputs.Reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double t_event =
        now + (static_cast<double>(i) + 0.5) * dt / static_cast<double>(n);
    // Charging starts at birth (== event time for raw source tuples).
    const uint32_t attr = attribute_ ? NewAttr(t_event) : kNoAttr;
    state.generator->AppendNext(t_event, t_event, attr, &outputs);
  }
  if (n > 0) {
    ctr_data_batches_->Add(1);
    ctr_data_rows_->Add(n);
  }
  result_.source_tuples += n;
  ctr_source_tuples_->Add(n);
  state.tuples_in += n;

  double cost = costs_.BatchCost(op) +
                static_cast<double>(n) * costs_.InputTupleCost(op);
  // Sources advance their own watermark to the end of the emitted interval;
  // the final batch carries the end-of-stream watermark (Flink emits
  // Long.MAX_VALUE on shutdown) so tail windows flush during drain.
  const bool last_batch = now + dt >= options_.duration_s;
  state.input_wm = last_batch ? kInf : now + dt;
  const bool broadcast_wm =
      last_batch ||
      now + dt - state.last_wm_broadcast >= options_.watermark_interval_s;
  if (broadcast_wm) state.last_wm_broadcast = now + dt;
  RouteOutputs(task, outputs, state.input_wm, broadcast_wm, &cost);
  const double service = cost / state.speed;
  // The batch becomes visible downstream when the source finishes producing
  // it; a source that cannot keep up (busy_until > now+dt) lags behind.
  const double completion = std::max(now + dt, state.busy_until) + service;
  state.busy_until = completion;
  state.busy_time += service;
  if (trace_verbose_) {
    TraceFiring(task, completion - service, service,
                static_cast<size_t>(n));
  }
  // Everything between birth and the batch shipping out — interval fill,
  // source lag and the source's own service — is source-batching time.
  if (attribute_) ChargeDispatch(pt.op, completion, /*is_source=*/true);
  DispatchDeliveries(completion);

  const double next = now + dt;
  if (next < options_.duration_s) {
    Push(next, EventKind::kSourceBatch, task);
  }
}

Status Engine::ProcessOne(int task, double now) {
  TaskState& state = tasks_[task];
  const PhysicalTask& pt = plan_.task(task);
  const OperatorDescriptor& op = plan_.logical().op(pt.op);
  obs::prof::ProfScope op_scope(obs::prof::FrameKind::kOperator,
                                OpMarkerId(pt.op));

  data::Batch& outputs = OutputScratch(pt.op);
  double cost = 0.0;
  bool timer_fire = false;
  size_t in_tuples = 0;

  const double next_timer = state.instance->NextTimerTime();
  if (next_timer < kInf && next_timer <= state.input_wm) {
    // The input watermark passed a window boundary: fire panes. Event-time
    // semantics — queueing delay anywhere upstream holds the watermark back
    // and therefore delays firing (and raises end-to-end latency).
    timer_fire = true;
    obs::prof::ProfScope kernel_scope(obs::prof::FrameKind::kKernel,
                                      kernel_fire_id_);
    state.instance->OnTimer(state.input_wm, &outputs);
    cost = costs_.BatchCost(op);
  } else {
    obs::prof::ProfScope kernel_scope(obs::prof::FrameKind::kKernel,
                                      kernel_process_id_);
    const uint32_t id = state.queue.front();
    state.queue.pop_front();
    const Batch& batch = pool_[id];
    const size_t rows = batch.rows.NumRows();
    in_tuples = rows;
    state.queued_tuples -= rows;
    pending_tuples_ -= static_cast<int64_t>(rows);
    state.tuples_in += static_cast<int64_t>(rows);
    if (attribute_) ChargeQueueWait(pt.op, now, batch);
    if (rows == 0) {
      cost = costs_.wm_batch_cost;
    } else {
      cost = (batch.chained ? 0.0 : costs_.BatchCost(op)) +
             static_cast<double>(rows) * costs_.InputTupleCost(op);
      ctr_data_batches_->Add(1);
      ctr_data_rows_->Add(static_cast<int64_t>(rows));
    }
    // Vectorized kernels run over chunks of at most batch_rows rows; the
    // chunking is invisible in virtual time (same `now`, same cost model)
    // and in results (kernels preserve row order and RNG draw order).
    const auto chunk =
        static_cast<size_t>(std::max<int64_t>(1, options_.batch_rows));
    for (size_t begin = 0; begin < rows; begin += chunk) {
      PDSP_RETURN_NOT_OK(state.instance->ProcessBatch(
          batch.rows, begin, std::min(rows, begin + chunk), batch.input_port,
          now, &outputs));
    }
    ApplyWatermark(&state, batch);
    pool_.Release(id);
  }
  if (outputs.promotions() > 0) {
    ctr_data_promotions_->Add(static_cast<int64_t>(outputs.promotions()));
  }
  cost += static_cast<double>(outputs.NumRows()) *
          costs_.OutputTupleCost(op, timer_fire);
  // Outputs whose attribution cursor predates this firing emerged from
  // operator state (window panes, buffered join partners): charge the gap
  // as window residency.
  if (attribute_) ChargeWindowResidency(pt.op, now, outputs);

  if (op.type == OperatorType::kSink) {
    const double completion = now + cost / state.speed;
    OperatorLatencyStats& acc = op_latency_[pt.op];
    for (size_t r = 0; r < outputs.NumRows(); ++r) {
      const uint32_t attr = outputs.attr_id(r);
      if (attr != kNoAttr) {
        LatencyAttr& a = attr_pool_[attr];
        const double svc = completion - a.accounted_until;
        a.service_s += svc;
        a.accounted_until = completion;
        acc.service_sum_s += svc;
        ++acc.service_n;
      }
      ++result_.sink_tuples;
      if (completion >= options_.warmup_s) {
        const double latency = completion - outputs.birth(r);
        result_.latency.Record(latency);
        hist_sink_latency_->Observe(latency);
        if (attr != kNoAttr) {
          const LatencyAttr& a = attr_pool_[attr];
          bd_sum_.source_batch_s += a.source_batch_s;
          bd_sum_.network_s += a.network_s;
          bd_sum_.queue_s += a.queue_s;
          bd_sum_.service_s += a.service_s;
          bd_sum_.window_s += a.window_s;
          bd_total_ += latency;
          ++bd_n_;
        }
      }
    }
    ctr_sink_tuples_->Add(static_cast<int64_t>(outputs.NumRows()));
    state.busy_time += completion - now;
    state.busy_until = completion;
  } else {
    const bool broadcast_wm =
        state.input_wm - state.last_wm_broadcast >=
        options_.watermark_interval_s;
    if (broadcast_wm) state.last_wm_broadcast = state.input_wm;
    RouteOutputs(task, outputs, state.input_wm, broadcast_wm, &cost);
    const double service = cost / state.speed;
    state.busy_until = now + service;
    state.busy_time += service;
    if (attribute_) {
      ChargeDispatch(pt.op, state.busy_until, /*is_source=*/false);
    }
    DispatchDeliveries(state.busy_until);
  }

  if (trace_verbose_) {
    TraceFiring(task, now, state.busy_until - now,
                timer_fire ? outputs.NumRows() : in_tuples);
  }
  // Wake self at completion to pick up further work.
  Push(state.busy_until, EventKind::kReady, task);
  return Status::OK();
}

void Engine::MaybeStart(int task, double now) {
  TaskState& state = tasks_[task];
  if (state.instance == nullptr) return;  // sources self-drive
  if (state.busy_until > now) return;     // completion event will re-enter
  const double next_timer = state.instance->NextTimerTime();
  const bool timer_due = next_timer < kInf && next_timer <= state.input_wm;
  if (state.queue.empty() && !timer_due) return;
  // Errors here indicate plan/runtime inconsistencies; they are surfaced via
  // the run loop's status.
  Status st = ProcessOne(task, now);
  if (!st.ok()) {
    run_error_ = st;
  }
}

Result<SimResult> Engine::Run() {
  result_.latency = LatencyRecorder(options_.latency_reservoir);
  result_.metrics = options_.metrics != nullptr
                        ? options_.metrics
                        : std::make_shared<obs::MetricsRegistry>();
  ctr_source_tuples_ = result_.metrics->GetCounter("pdsp.sim.source_tuples");
  ctr_sink_tuples_ = result_.metrics->GetCounter("pdsp.sim.sink_tuples");
  ctr_bp_skipped_ =
      result_.metrics->GetCounter("pdsp.sim.backpressure_skipped");
  ctr_data_batches_ = result_.metrics->GetCounter("pdsp.data.batches");
  ctr_data_rows_ = result_.metrics->GetCounter("pdsp.data.rows");
  ctr_data_promotions_ =
      result_.metrics->GetCounter("pdsp.data.column_promotions");
  hist_sink_latency_ =
      result_.metrics->GetHistogram("pdsp.sim.sink_latency_seconds");
  trace_verbose_ =
      options_.tracer != nullptr && options_.tracer->verbose();
  attribute_ = options_.attribute_latency;
  if (obs::prof::ProfilingActive()) {
    // Pre-intern every marker name once so the per-firing scopes carry
    // plain ids and never touch the name table's mutex.
    op_marker_ids_.resize(plan_.logical().NumOperators());
    for (size_t op = 0; op < plan_.logical().NumOperators(); ++op) {
      op_marker_ids_[op] = obs::prof::InternName(
          plan_.logical().op(static_cast<LogicalPlan::OpId>(op)).name);
    }
    kernel_fire_id_ = obs::prof::InternName("fire-timers");
    kernel_process_id_ = obs::prof::InternName("process-batch");
    kernel_partition_id_ = obs::prof::InternName("partition-kernel");
  }
  PDSP_RETURN_NOT_OK(SetUpTasks());
  prev_busy_time_.assign(tasks_.size(), 0.0);
  prev_tuples_in_.assign(tasks_.size(), 0);
  prev_tuples_out_.assign(tasks_.size(), 0);
  op_latency_.assign(plan_.logical().NumOperators(), OperatorLatencyStats{});
  // Sample points sit at k*interval for k = 1..floor(duration/interval),
  // plus one final end-of-run sample covering the partial last interval
  // (so metrics_interval_s > duration_s still yields one row per task).
  const double interval = options_.metrics_interval_s;
  double next_sample = interval > 0.0 ? interval : kInf;

  {
    obs::Span span(options_.tracer, "simulate", "sim");
    while (!heap_.empty()) {
      if (++events_processed_ > options_.max_events) {
        return Status::ResourceExhausted(
            StrFormat("simulation exceeded %lld events",
                      static_cast<long long>(options_.max_events)));
      }
      Event e = heap_.top();
      heap_.pop();
      while (next_sample <= e.time && next_sample <= options_.duration_s) {
        SampleTimeSeries(next_sample);
        next_sample += interval;
      }
      result_.virtual_time_end = e.time;
      TaskState& state = tasks_[e.task];
      switch (e.kind) {
        case EventKind::kSourceBatch:
          ++event_counts_.source_batch;
          EmitSourceBatch(e.task, e.time);
          break;
        case EventKind::kDelivery: {
          const Batch& batch = pool_[e.batch];
          const size_t rows = batch.rows.NumRows();
          ++(rows == 0 ? event_counts_.wm_delivery : event_counts_.delivery);
          if (attribute_) ChargeNetwork(plan_.task(e.task).op, e.time, batch);
          state.queue.push_back(e.batch);
          state.queued_tuples += rows;
          state.max_queue_tuples =
              std::max(state.max_queue_tuples, state.queued_tuples);
          MaybeStart(e.task, e.time);
          break;
        }
        case EventKind::kReady:
          ++event_counts_.ready;
          MaybeStart(e.task, e.time);
          break;
      }
      if (!run_error_.ok()) return run_error_;
    }
    // If the heap drained before duration_s (tiny runs), emit the remaining
    // sample points from the final state so row counts stay predictable.
    while (next_sample <= options_.duration_s) {
      SampleTimeSeries(next_sample);
      next_sample += interval;
    }
    // End-of-run sample over the partial last interval, so short runs
    // (duration < interval) and the drain tail are still represented.
    if (interval > 0.0) {
      const double end =
          std::max(options_.duration_s, result_.virtual_time_end);
      if (prev_sample_time_ < end) SampleTimeSeries(end);
    }
  }

  // Aggregate per-operator statistics.
  obs::Span agg_span(options_.tracer, "aggregate", "sim");
  result_.events_processed = events_processed_;
  result_.event_counts = event_counts_;
  const double horizon =
      std::max(options_.duration_s, result_.virtual_time_end);
  for (size_t op = 0; op < plan_.logical().NumOperators(); ++op) {
    const auto id = static_cast<LogicalPlan::OpId>(op);
    OperatorRunStats s;
    s.name = plan_.logical().op(id).name;
    s.parallelism = plan_.ParallelismOf(id);
    double util_sum = 0.0;
    for (int j = 0; j < s.parallelism; ++j) {
      const TaskState& t = tasks_[plan_.TaskId(id, j)];
      s.tuples_in += t.tuples_in;
      s.tuples_out += t.tuples_out;
      s.busy_time_s += t.busy_time;
      s.max_queue_tuples = std::max(s.max_queue_tuples, t.max_queue_tuples);
      if (t.instance != nullptr) s.late_drops += t.instance->LateDrops();
      const double util = t.busy_time / horizon;
      util_sum += util;
      s.max_instance_util = std::max(s.max_instance_util, util);
    }
    s.utilization = util_sum / s.parallelism;
    s.latency = op_latency_[op];
    result_.late_drops += s.late_drops;
    // Credit this run's processed tuples to the memory profiler (bytes per
    // tuple). Once per run per operator — nothing on the firing hot path.
    if (obs::mem::MemProfilingActive()) {
      obs::mem::NoteTuplesProcessed(s.name, s.tuples_in);
    }
    result_.op_stats.push_back(std::move(s));
  }

  if (bd_n_ > 0) {
    const double inv = 1.0 / static_cast<double>(bd_n_);
    result_.breakdown.samples = bd_n_;
    result_.breakdown.source_batch_s = bd_sum_.source_batch_s * inv;
    result_.breakdown.network_s = bd_sum_.network_s * inv;
    result_.breakdown.queue_s = bd_sum_.queue_s * inv;
    result_.breakdown.service_s = bd_sum_.service_s * inv;
    result_.breakdown.window_s = bd_sum_.window_s * inv;
    result_.breakdown.total_s = bd_total_ * inv;
  }

  result_.median_latency_s = result_.latency.Percentile(50.0);
  result_.mean_latency_s = result_.latency.Mean();
  result_.p95_latency_s = result_.latency.Percentile(95.0);
  result_.p99_latency_s = result_.latency.Percentile(99.0);
  const double measured =
      std::max(1e-9, options_.duration_s - options_.warmup_s);
  // Throughput counts only post-warm-up sink results (latency.Count() tracks
  // every recorded sample even when the reservoir caps storage).
  result_.throughput_tps =
      static_cast<double>(result_.latency.Count()) / measured;

  // Snapshot the remaining run-level aggregates into the registry so the
  // metrics.json artifact is self-contained.
  obs::MetricsRegistry& reg = *result_.metrics;
  reg.GetCounter("pdsp.sim.late_drops")->Add(result_.late_drops);
  reg.GetCounter("pdsp.sim.events_processed")->Add(events_processed_);
  reg.GetCounter("pdsp.sim.events.source_batch")
      ->Add(event_counts_.source_batch);
  reg.GetCounter("pdsp.sim.events.delivery")->Add(event_counts_.delivery);
  reg.GetCounter("pdsp.sim.events.wm_delivery")
      ->Add(event_counts_.wm_delivery);
  reg.GetCounter("pdsp.sim.events.ready")->Add(event_counts_.ready);
  reg.GetGauge("pdsp.sim.throughput_tps")->Set(result_.throughput_tps);
  reg.GetGauge("pdsp.sim.virtual_time_end_s")->Set(result_.virtual_time_end);
  reg.GetGauge("pdsp.sim.median_latency_s")->Set(result_.median_latency_s);
  reg.GetGauge("pdsp.sim.p95_latency_s")->Set(result_.p95_latency_s);
  reg.GetGauge("pdsp.sim.p99_latency_s")->Set(result_.p99_latency_s);
  return std::move(result_);
}

}  // namespace

std::string SimResult::Summary() const {
  return StrFormat(
      "latency p50=%.3fms mean=%.3fms p95=%.3fms | throughput=%.0f/s | "
      "src=%lld sink=%lld late=%lld bp_skipped=%lld events=%lld",
      median_latency_s * 1e3, mean_latency_s * 1e3, p95_latency_s * 1e3,
      throughput_tps, static_cast<long long>(source_tuples),
      static_cast<long long>(sink_tuples), static_cast<long long>(late_drops),
      static_cast<long long>(backpressure_skipped),
      static_cast<long long>(events_processed));
}

Result<SimResult> Simulation::Run(const PhysicalPlan& plan,
                                  const Cluster& cluster,
                                  const Placement& placement,
                                  const CostModel& costs,
                                  const SimOptions& options) {
  if (placement.node_of_task.size() != plan.NumTasks()) {
    return Status::InvalidArgument(
        "placement size does not match task count");
  }
  if (options.duration_s <= 0.0 || options.warmup_s < 0.0 ||
      options.warmup_s >= options.duration_s) {
    return Status::InvalidArgument("bad duration/warmup");
  }
  if (options.batch_rows < 1) {
    return Status::InvalidArgument("batch_rows must be >= 1");
  }
  Engine engine(plan, cluster, placement, costs, options);
  return engine.Run();
}

Result<SimResult> ExecutePlan(const LogicalPlan& plan, const Cluster& cluster,
                              const ExecutionOptions& options) {
  obs::Span expand_span(options.sim.tracer, "expand", "sim");
  PDSP_ASSIGN_OR_RETURN(PhysicalPlan phys, PhysicalPlan::FromLogical(&plan));
  expand_span.End();
  obs::Span place_span(options.sim.tracer, "place", "sim");
  PDSP_ASSIGN_OR_RETURN(
      Placement placement,
      PlaceTasks(cluster, phys.InstancesPerOp(), options.placement,
                 options.sim.seed));
  place_span.End();
  return Simulation::Run(phys, cluster, placement, options.costs,
                         options.sim);
}

Result<double> MeanMedianLatency(const LogicalPlan& plan,
                                 const Cluster& cluster,
                                 const ExecutionOptions& options,
                                 int repeats) {
  if (repeats < 1) return Status::InvalidArgument("repeats < 1");
  double sum = 0.0;
  for (int r = 0; r < repeats; ++r) {
    ExecutionOptions opt = options;
    opt.sim.seed = options.sim.seed + static_cast<uint64_t>(r) * 1299709ULL;
    PDSP_ASSIGN_OR_RETURN(SimResult result, ExecutePlan(plan, cluster, opt));
    if (std::isnan(result.median_latency_s)) {
      return Status::Internal("run produced no sink results");
    }
    sum += result.median_latency_s;
  }
  return sum / repeats;
}

}  // namespace pdsp
