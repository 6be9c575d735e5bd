// Experiment harness: the parallelism categories of Figures 3/4, shared
// run protocols (mean of three runs of median latency) and table/CSV
// reporting used by the per-figure benchmark drivers.

#ifndef PDSP_HARNESS_HARNESS_H_
#define PDSP_HARNESS_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/exec/run_context.h"
#include "src/obs/diagnose.h"
#include "src/obs/ledger.h"
#include "src/query/plan.h"
#include "src/sim/simulation.h"

namespace pdsp {

/// \brief One parallelism category (Figure 3/4 x-axis).
struct ParallelismCategory {
  const char* name;
  int degree;
};

/// XS=1, S=4, M=16, L=32, XL=64, XXL=128 — spanning under-provisioned to
/// heavily oversubscribed on the 10-node clusters.
const std::vector<ParallelismCategory>& StandardCategories();

/// \brief Per-cell observability artifacts: when enabled, the first repeat
/// of MeasureCell runs with a tracer attached and writes metrics.json,
/// timeseries.csv and trace.json under `dir` (conventionally
/// results/<driver>/<cell>/). Failures to write are logged, not fatal.
struct ObsOptions {
  bool enabled = false;
  std::string dir;
  /// Also trace every operator firing in virtual time (large traces).
  bool trace_verbose = false;
  /// Time-series sample interval forwarded to SimOptions.
  double metrics_interval_s = 0.25;
};

/// \brief Run-ledger options for one experiment cell: when enabled,
/// MeasureCell appends the cell's RunRecord (see src/obs/ledger.h) to the
/// JSONL ledger at `path`. The record is built either way and returned on
/// CellResult::ledger_record, so callers (baseline write) can persist it
/// themselves.
struct LedgerOptions {
  bool enabled = false;
  std::string path = "results/ledger.jsonl";
  /// Cluster profile name recorded in the ledger ("custom" when empty —
  /// the Cluster object itself does not know which preset built it).
  std::string cluster_name;
};

/// \brief Measurement protocol for one experiment cell.
struct RunProtocol {
  int repeats = 3;             ///< paper: mean of three runs
  double duration_s = 3.0;
  double warmup_s = 0.75;
  uint64_t seed = 2024;
  PlacementKind placement = PlacementKind::kLeastLoaded;
  /// Simulator cost model for every repeat. Defaults reproduce the paper
  /// protocol; ablations override single knobs (e.g. chaining) without
  /// bypassing the harness.
  CostModel costs;
  /// Cell name for provenance: names the harness-level `cell:<label>/<p>`
  /// span in trace.json and the ledger record. Empty = "plan".
  std::string label;
  ObsOptions obs;
  LedgerOptions ledger;
  /// Sampling CPU profiler for the cell (--profile[=HZ]): when enabled,
  /// MeasureCell registers its thread, starts the context-owned profiler
  /// around the repeats and attaches the CpuProfile to the cell, the
  /// artifact bundle (profile.json) and the ledger record's summary. Only
  /// wall-clock/host state is touched, so virtual-time results stay
  /// bit-identical with profiling on.
  obs::prof::ProfOptions profile;
  /// Sampling allocation profiler for the cell (--mem-profile[=KiB]): when
  /// enabled, MeasureCell starts the context-owned memory profiler around
  /// the repeats and attaches the MemProfile to the cell, the artifact
  /// bundle (memory.json), the ledger record's nested "memory" summary and
  /// — when diagnosis ran — PDSP-M301..M303 findings. Samples only observe
  /// host-side state, so virtual-time results stay bit-identical.
  obs::mem::MemOptions mem;
  /// Simulate even when static analysis (pdsp::analysis) finds
  /// error-severity diagnostics. By default such plans are refused with
  /// FailedPrecondition: a malformed plan that silently simulates corrupts
  /// a whole sweep. Warnings never block; they are counted in the
  /// pdsp.analysis.* metrics and logged at debug level.
  bool allow_invalid = false;
  /// Run bottleneck diagnosis (pdsp::obs::DiagnoseRun) on the first repeat
  /// and attach it to the cell; with obs enabled it is also written as
  /// diagnosis.json. Cheap (rule evaluation over already-collected stats).
  bool diagnose = true;
  /// Thresholds for the diagnosis rules.
  obs::DiagnoseOptions diagnose_options;
};

/// \brief One measured experiment cell.
struct CellResult {
  double mean_median_latency_s = 0.0;
  double mean_throughput_tps = 0.0;
  /// p95/p99 of the first (representative) repeat.
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Per-repeat median-latency / throughput samples — the repeat-run
  /// variance the comparison engine gates regressions on.
  RunningStats median_latency_stats;
  RunningStats throughput_stats;
  int64_t late_drops = 0;
  int64_t backpressure_skipped = 0;
  /// Per-operator stats of the first (representative) repeat — utilization
  /// and imbalance columns without re-running outside the harness.
  std::vector<OperatorRunStats> op_stats;
  /// Diagnosis of the first repeat (RunProtocol::diagnose); check
  /// `has_diagnosis` before reading.
  bool has_diagnosis = false;
  obs::Diagnosis diagnosis;
  /// Provenance record for the cell (appended to the ledger when
  /// RunProtocol::ledger.enabled; always populated on success).
  obs::RunRecord ledger_record;
  /// Sampled CPU profile of the cell (RunProtocol::profile.enabled); check
  /// `has_profile` before reading.
  bool has_profile = false;
  obs::prof::CpuProfile profile;
  /// Sampled allocation profile of the cell (RunProtocol::mem.enabled);
  /// check `has_mem_profile` before reading. Stays false when allocation
  /// interposition is compiled out (PDSP_SANITIZE=address).
  bool has_mem_profile = false;
  obs::mem::MemProfile mem_profile;
};

/// Builds the provenance RunRecord for a measured cell: plan hash and
/// protocol parameters, the cell's virtual-time metrics with repeat
/// variance, diagnosis codes, artifact dir, `wall_s` (the cell's own wall
/// clock) and the process's CPU and peak RSS at record time.
obs::RunRecord MakeLedgerRecord(const LogicalPlan& plan,
                                const Cluster& cluster,
                                const RunProtocol& protocol,
                                const CellResult& cell, double wall_s);

/// Runs a validated plan `repeats` times with distinct seeds and aggregates
/// per the paper's protocol. All mutable run state (tracer, metrics, phase
/// timers) lives in `context`, which must be private to this call — the
/// sweep scheduler hands every concurrent cell its own context; null
/// measures with a private one. Repeat seeds derive only from
/// protocol.seed, so results are bit-identical regardless of which
/// worker/context executes the cell.
Result<CellResult> MeasureCell(const LogicalPlan& plan,
                               const Cluster& cluster,
                               const RunProtocol& protocol,
                               exec::RunContext* context = nullptr);

/// Applies a uniform parallelism degree (sink stays 1) and measures.
Result<CellResult> MeasureAtDegree(LogicalPlan plan, int degree,
                                   const Cluster& cluster,
                                   const RunProtocol& protocol,
                                   exec::RunContext* context = nullptr);

/// \brief Fixed-width text table accumulated row by row; also serializable
/// to CSV for downstream plotting.
class TableReporter {
 public:
  TableReporter(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);

  /// Renders the aligned table to stdout.
  void Print() const;

  /// Writes CSV into `path` (creating parent directories). Returns the
  /// status so drivers can warn without aborting.
  Status WriteCsv(const std::string& path) const;

  size_t NumRows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// "123.456" style cell helpers.
std::string LatencyCell(double seconds);
std::string ThroughputCell(double tps);

}  // namespace pdsp

#endif  // PDSP_HARNESS_HARNESS_H_
