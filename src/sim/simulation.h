// The discrete-event simulator: executes a physical plan on a modelled
// cluster in virtual time. Operators really process tuples (runtime module);
// the simulator supplies arrivals, per-instance FIFO queueing, service times
// (cost model × node speed × core contention), partitioned routing and
// network delays, and collects the end-to-end latency distribution at the
// sink — the paper's headline metric.

#ifndef PDSP_SIM_SIMULATION_H_
#define PDSP_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/runtime/physical_plan.h"
#include "src/sim/cost_model.h"

namespace pdsp {

/// \brief Simulation parameters.
struct SimOptions {
  /// Virtual seconds during which sources generate data.
  double duration_s = 10.0;
  /// Sink records before this virtual time are discarded (warm-up).
  double warmup_s = 1.0;
  /// Source emission interval (seconds): each source instance emits the
  /// tuples that arrived in the last interval as one batch, mirroring
  /// Flink's network buffer timeout. Fixed (not rate-adaptive) so the
  /// batching latency artifact is identical across parallelism degrees.
  double source_batch_interval_s = 0.005;
  /// How often (virtual seconds of event time) each task re-broadcasts its
  /// watermark to all downstream instances, mirroring Flink's periodic
  /// watermark emission. Smaller = tighter window firing, more overhead.
  double watermark_interval_s = 0.05;
  /// Rows per vectorized kernel invocation on the columnar data plane:
  /// each task firing processes its input batch in chunks of at most this
  /// many rows through OperatorInstance::ProcessBatch. Purely an execution
  /// granularity — event scheduling, cost accounting and RNG draw order are
  /// per-firing/per-tuple, so results are bit-identical at any value
  /// (batch_rows=1 degenerates to tuple-at-a-time). Must be >= 1.
  int64_t batch_rows = 1024;
  /// Source backpressure: generation pauses while more than this many
  /// elements are queued anywhere in the pipeline.
  int64_t max_in_flight_tuples = 600'000;
  /// Hard stop on processed events (runaway guard).
  int64_t max_events = 200'000'000;
  /// Cap on recorded latency samples (reservoir; 0 = keep all).
  size_t latency_reservoir = 65536;
  /// Virtual-time interval between per-operator time-series samples
  /// (queue depth, utilization, rates, watermark lag). 0 disables sampling;
  /// the default is cheap enough to stay on (a few hundred rows per run).
  double metrics_interval_s = 0.25;
  /// Per-tuple latency attribution (queue wait / service / network /
  /// source batching / window residency telescoping to the end-to-end
  /// latency; see LatencyAttr). Fills SimResult::breakdown and
  /// OperatorRunStats::latency, which obs::DiagnoseRun's shuffle rule and
  /// critical path consume. Off by default: charging touches every element
  /// several times per hop (~15% wall-clock on join-heavy plans), and it
  /// never changes virtual-time results — every diagnosis path turns it on.
  bool attribute_latency = false;
  /// Optional span/event tracer (non-owning). When set, the run records
  /// simulate/aggregate phase spans and in-flight counter samples; with
  /// `tracer->verbose()` also every operator firing in virtual time.
  obs::Tracer* tracer = nullptr;
  /// Registry the run's pdsp.sim.* metrics are recorded into. When null
  /// (the default) the engine creates a private registry; a run context
  /// (pdsp::exec::RunContext) passes its own so SimResult::metrics aliases
  /// the per-run registry instead of hidden fresh state. Must not be
  /// shared between concurrently running simulations of the same context.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  uint64_t seed = 42;
};

/// \brief Where tuples passing through one operator spent their time,
/// accumulated by the engine as it charges each latency component (see
/// LatencyAttr in src/runtime/element.h). Sums are over charged elements;
/// the Mean* accessors are safe on empty accumulators (0.0).
struct OperatorLatencyStats {
  double queue_wait_sum_s = 0.0;    ///< input-queue wait, per input tuple
  int64_t queue_wait_n = 0;
  double network_in_sum_s = 0.0;    ///< channel transit into this operator
  int64_t network_in_n = 0;
  double service_sum_s = 0.0;       ///< service as experienced per output
  int64_t service_n = 0;
  double window_sum_s = 0.0;        ///< state residency, per emerging result
  int64_t window_n = 0;
  double source_batch_sum_s = 0.0;  ///< sources only: batching + source lag
  int64_t source_batch_n = 0;

  double MeanQueueWait() const {
    return queue_wait_n > 0 ? queue_wait_sum_s / queue_wait_n : 0.0;
  }
  double MeanNetworkIn() const {
    return network_in_n > 0 ? network_in_sum_s / network_in_n : 0.0;
  }
  double MeanService() const {
    return service_n > 0 ? service_sum_s / service_n : 0.0;
  }
  double MeanWindowResidency() const {
    return window_n > 0 ? window_sum_s / window_n : 0.0;
  }
  double MeanSourceBatch() const {
    return source_batch_n > 0 ? source_batch_sum_s / source_batch_n : 0.0;
  }
  /// Mean per-tuple cost a result pays for traversing this operator — the
  /// edge weight for critical-path extraction (pdsp::obs::ComputeCriticalPath).
  double MeanPathCost() const {
    return MeanQueueWait() + MeanNetworkIn() + MeanService() +
           MeanWindowResidency() + MeanSourceBatch();
  }
};

/// \brief Per-operator execution statistics (summed over instances).
struct OperatorRunStats {
  std::string name;
  int parallelism = 1;
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  int64_t late_drops = 0;
  double busy_time_s = 0.0;      ///< summed over instances
  double utilization = 0.0;      ///< mean per-instance busy fraction
  double max_instance_util = 0.0;///< hottest instance (imbalance indicator)
  size_t max_queue_tuples = 0;
  /// Latency components charged at this operator (queue wait, service,
  /// network-in, window residency, source batching).
  OperatorLatencyStats latency;
};

/// \brief Mean end-to-end latency decomposition recorded at the sink over
/// the same post-warm-up records as `SimResult::latency`. The components
/// telescope: their sum equals `total_s` up to floating-point rounding,
/// because the engine charges every virtual-time interval of an element's
/// life to exactly one component.
struct LatencyBreakdown {
  int64_t samples = 0;
  double source_batch_s = 0.0;  ///< mean source batching + source lag
  double network_s = 0.0;       ///< mean network transit (all hops)
  double queue_s = 0.0;         ///< mean queueing delay (all operators)
  double service_s = 0.0;       ///< mean service time (all operators)
  double window_s = 0.0;        ///< mean window/join state residency
  double total_s = 0.0;         ///< mean recorded end-to-end latency

  double ComponentSum() const {
    return source_batch_s + network_s + queue_s + service_s + window_s;
  }
  bool empty() const { return samples == 0; }
};

/// \brief Processed events by kind; the four counts sum to
/// SimResult::events_processed.
struct SimEventCounts {
  int64_t source_batch = 0;  ///< a source emitting one interval's batch
  int64_t delivery = 0;      ///< a delivery with rows reaching its receiver
  int64_t wm_delivery = 0;   ///< a watermark-only delivery (no rows)
  int64_t ready = 0;         ///< a task finishing a firing
};

/// \brief Result of one simulated run.
struct SimResult {
  /// End-to-end latency distribution (seconds), recorded at the sink.
  LatencyRecorder latency{0};
  double median_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Sink results per second of post-warm-up virtual time.
  double throughput_tps = 0.0;
  int64_t source_tuples = 0;
  int64_t sink_tuples = 0;
  /// Tuples never generated because of source backpressure.
  int64_t backpressure_skipped = 0;
  int64_t late_drops = 0;
  int64_t events_processed = 0;
  /// events_processed by kind (also the pdsp.sim.events.* counters).
  SimEventCounts event_counts;
  double virtual_time_end = 0.0;
  std::vector<OperatorRunStats> op_stats;
  /// End-to-end latency attribution recorded at the sink (empty when no
  /// post-warm-up sink records were produced).
  LatencyBreakdown breakdown;
  /// Named counters/gauges/histograms recorded during the run
  /// (pdsp.sim.* namespace); always populated, never null after a
  /// successful run.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Per-operator-instance samples every SimOptions::metrics_interval_s of
  /// virtual time; empty when sampling is disabled.
  obs::TimeSeries timeseries;

  std::string Summary() const;
};

/// \brief Runs one simulation of a physical plan on a placed cluster.
class Simulation {
 public:
  static Result<SimResult> Run(const PhysicalPlan& plan,
                               const Cluster& cluster,
                               const Placement& placement,
                               const CostModel& costs,
                               const SimOptions& options);
};

/// \brief Convenience facade: validates, expands, places and simulates a
/// logical plan in one call.
struct ExecutionOptions {
  PlacementKind placement = PlacementKind::kLeastLoaded;
  CostModel costs;
  SimOptions sim;
};

Result<SimResult> ExecutePlan(const LogicalPlan& plan, const Cluster& cluster,
                              const ExecutionOptions& options);

}  // namespace pdsp

#endif  // PDSP_SIM_SIMULATION_H_
