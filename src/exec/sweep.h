// The parallel sweep scheduler. A figure/table reproduction is a grid of
// independent cells — (app × structure × parallelism × rate × cluster)
// combinations, each a deterministic virtual-time simulation — so RunSweep
// fans them across --jobs workers and merges the observability state back
// deterministically:
//
//   * every cell runs under its own RunContext (tracer, metrics registry,
//     host profiler, seed state), so a cell's artifact bundle holds only
//     that cell's phases;
//   * cell seeds derive only from each cell's protocol, never from worker
//     identity or execution order, so --jobs=1 and --jobs=N produce
//     bit-identical per-cell virtual-time results;
//   * results, merged metrics and ledger appends are canonicalized by cell
//     index (submission order), not completion order;
//   * each cell's phases are folded into its worker's map after the cell
//     runs; SweepResult::host reports those maps as worker phases — kept
//     separate from single-threaded wall-clock phases so concurrent
//     busy-seconds are never double-counted as wall seconds.

#ifndef PDSP_EXEC_SWEEP_H_
#define PDSP_EXEC_SWEEP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/harness.h"
#include "src/obs/monitor.h"

namespace pdsp {
namespace exec {

/// \brief One sweep cell: a plan factory plus the protocol to measure it
/// under. The factory runs on the worker (plan construction is pure and
/// cheap); `cluster` is copied in so the cell owns everything it touches.
struct SweepCell {
  /// Display/row identifier. Also used as protocol.label when that is
  /// empty, so ledger records and trace spans are named per cell.
  std::string label;
  std::function<Result<LogicalPlan>()> make_plan;
  Cluster cluster;
  RunProtocol protocol;
};

/// \brief Scheduler knobs for one sweep.
struct SweepOptions {
  /// Worker count; <= 0 means one per hardware thread.
  int jobs = 1;
  /// Sweep name: prefixes worker-phase names ("<name>:worker0") and labels
  /// the optional summary ledger record.
  std::string name = "sweep";
  /// When enabled, RunSweep appends one summary RunRecord (label = `name`,
  /// host_wall_s = sweep wall seconds, parallelism = jobs, repeats = cell
  /// count) after the per-cell records — the hook bench_gate.sh uses to
  /// compare jobs=1 vs jobs=N wall clock.
  LedgerOptions summary_ledger;
  /// Live monitoring (obs::SnapshotSampler); off by default. The monitor
  /// only observes — per-cell virtual-time results stay bit-identical with
  /// it on or off, at any jobs count.
  obs::MonitorOptions monitor;
  /// Install a scoped SIGINT handler for the duration of the sweep: on
  /// Ctrl-C, workers drain their in-flight cells but claim no new ones,
  /// completed cells still append to the ledger in canonical order, the
  /// monitor flushes a final progress.jsonl snapshot, and
  /// SweepResult::interrupted is set (CLI drivers then exit 130). The
  /// previous handler is restored when RunSweep returns.
  bool install_sigint = false;
};

/// \brief Outcome of one cell, in canonical (submission) order.
struct SweepCellOutcome {
  std::string label;
  Result<CellResult> result;
};

/// \brief A completed sweep.
struct SweepResult {
  std::vector<SweepCellOutcome> cells;  ///< canonical submission order
  int jobs = 1;                         ///< resolved worker count
  double wall_s = 0.0;                  ///< sweep wall-clock seconds
  /// Per-cell registries merged in canonical order, plus the sweep's
  /// worker-phase host gauges (pdsp.host.workers, worker_phase.*).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Host usage at join + per-worker phase timers.
  obs::HostProfile host;
  /// True when a SIGINT arrived while install_sigint was set; cells that
  /// never ran carry a non-ok "sweep interrupted" result.
  bool interrupted = false;
  /// Final monitor state (meaningful when options.monitor.enabled). Its
  /// codes are folded into the summary ledger record's diagnosis_codes and
  /// exported as pdsp.monitor.* gauges on `metrics`.
  obs::MonitorSummary monitor;

  /// Count of cells whose result is ok().
  size_t NumOk() const;
};

/// Runs every cell across `options.jobs` workers. Per-cell ledger appends
/// (cells with protocol.ledger.enabled) happen at join in canonical order —
/// never from workers — so ledger record order is independent of jobs.
SweepResult RunSweep(const std::vector<SweepCell>& cells,
                     const SweepOptions& options);

}  // namespace exec
}  // namespace pdsp

#endif  // PDSP_EXEC_SWEEP_H_
