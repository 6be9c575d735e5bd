#include "src/exec/sweep.h"

#include <csignal>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/exec/thread_pool.h"

namespace pdsp {
namespace exec {

namespace {

// SIGINT drain support. The handler only flips a flag (async-signal-safe);
// workers poll it before claiming each cell. Process-global because signal
// disposition is — RunSweep never nests.
std::atomic<bool> g_sigint{false};

void SigintFlagHandler(int) { g_sigint.store(true, std::memory_order_relaxed); }

/// Installs the drain handler on construction, restores the previous
/// disposition on destruction. A no-op unless `enable`.
class ScopedSigintHandler {
 public:
  explicit ScopedSigintHandler(bool enable) : enabled_(enable) {
    if (!enabled_) return;
    g_sigint.store(false, std::memory_order_relaxed);
    struct sigaction action = {};
    action.sa_handler = SigintFlagHandler;
    sigemptyset(&action.sa_mask);
    enabled_ = sigaction(SIGINT, &action, &previous_) == 0;
  }
  ~ScopedSigintHandler() {
    if (enabled_) sigaction(SIGINT, &previous_, nullptr);
  }
  ScopedSigintHandler(const ScopedSigintHandler&) = delete;
  ScopedSigintHandler& operator=(const ScopedSigintHandler&) = delete;

  bool Interrupted() const {
    return enabled_ && g_sigint.load(std::memory_order_relaxed);
  }

 private:
  bool enabled_;
  struct sigaction previous_ = {};
};

/// Summary provenance record for the whole sweep (label = sweep name).
/// Virtual-time fields stay zero — the per-cell records carry those — but
/// the host-footprint fields record what the sweep cost wall-clock-wise,
/// which is what the jobs=1-vs-jobs=N speedup comparison reads.
obs::RunRecord MakeSweepSummaryRecord(const SweepOptions& options,
                                      const SweepResult& sweep) {
  obs::RunRecord rec;
  rec.label = options.name.empty() ? "sweep" : options.name;
  rec.run_id = obs::MakeRunId(rec.label);
  rec.timestamp_utc = obs::NowUtcIso8601();
  rec.parallelism = sweep.jobs;
  rec.repeats = static_cast<int>(sweep.cells.size());
  rec.cluster = options.summary_ledger.cluster_name.empty()
                    ? "sweep"
                    : options.summary_ledger.cluster_name;
  rec.build_info = obs::BuildInfoString();
  rec.host_wall_s = sweep.wall_s;
  rec.host_cpu_user_s = sweep.host.usage.cpu_user_s;
  rec.host_cpu_sys_s = sweep.host.usage.cpu_sys_s;
  rec.host_peak_rss_kb = sweep.host.usage.peak_rss_kb;
  // Monitor findings (PDSP-M###) ride on the summary record only — the
  // per-cell records must stay bit-identical with monitoring on or off.
  rec.diagnosis_codes = sweep.monitor.codes;
  return rec;
}

}  // namespace

size_t SweepResult::NumOk() const {
  size_t n = 0;
  for (const SweepCellOutcome& cell : cells) {
    if (cell.result.ok()) ++n;
  }
  return n;
}

SweepResult RunSweep(const std::vector<SweepCell>& cells,
                     const SweepOptions& options) {
  SweepResult sweep;
  sweep.jobs = ResolveJobs(options.jobs);
  sweep.metrics = std::make_shared<obs::MetricsRegistry>();
  if (cells.empty()) return sweep;
  // Never spin up more workers than there are cells.
  if (static_cast<size_t>(sweep.jobs) > cells.size()) {
    sweep.jobs = static_cast<int>(cells.size());
  }

  const std::string prefix = options.name.empty() ? "sweep" : options.name;
  ScopedSigintHandler sigint(options.install_sigint);

  std::unique_ptr<obs::SweepProgress> progress;
  std::unique_ptr<obs::SnapshotSampler> sampler;
  if (options.monitor.enabled) {
    progress = std::make_unique<obs::SweepProgress>(prefix, cells.size(),
                                                    sweep.jobs);
    sampler = std::make_unique<obs::SnapshotSampler>(progress.get(),
                                                     options.monitor);
    sampler->Start();
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Per-cell slots, written by exactly one worker each; per-worker phase
  // maps, written by exactly one worker each. The futures' get() below
  // publishes every write to this thread before the merge phase reads it.
  std::vector<std::optional<Result<CellResult>>> results(cells.size());
  std::vector<std::shared_ptr<obs::MetricsRegistry>> cell_metrics(
      cells.size());
  std::vector<obs::WorkerPhaseMap> worker_phases(
      static_cast<size_t>(sweep.jobs));
  std::atomic<size_t> next_cell{0};

  {
    ThreadPool pool(sweep.jobs);
    std::vector<std::future<void>> workers;
    workers.reserve(static_cast<size_t>(sweep.jobs));
    for (int w = 0; w < sweep.jobs; ++w) {
      workers.push_back(pool.Submit([&, w]() {
        obs::WorkerPhaseMap& phases = worker_phases[static_cast<size_t>(w)];
        for (size_t i = next_cell.fetch_add(1, std::memory_order_relaxed);
             i < cells.size();
             i = next_cell.fetch_add(1, std::memory_order_relaxed)) {
          // Drain on Ctrl-C: the in-flight cell (previous iteration) ran to
          // completion; claimed-but-unstarted cells are left unfilled and
          // reported as interrupted at merge.
          if (sigint.Interrupted()) break;
          const SweepCell& cell = cells[i];
          RunProtocol protocol = cell.protocol;
          if (protocol.label.empty()) protocol.label = cell.label;
          // Ledger appends are canonicalized at join; a worker-side append
          // would interleave records in completion order.
          protocol.ledger.enabled = false;
          if (!cell.make_plan) {
            results[i].emplace(
                Status::InvalidArgument("sweep cell without make_plan"));
            continue;
          }
          Result<LogicalPlan> plan = cell.make_plan();
          if (!plan.ok()) {
            results[i].emplace(plan.status());
            continue;
          }
          // Every cell gets its own context, so its bundle's
          // host_profile.json holds only its own phases at any --jobs.
          RunContext context;
          if (progress != nullptr) {
            progress->StartCell(w, i, cell.label, context.metrics());
          }
          results[i].emplace(
              MeasureCell(*plan, cell.cluster, protocol, &context));
          cell_metrics[i] = context.metrics();
          obs::FoldPhases(context.profiler()->Snapshot().phases, &phases);
          if (progress != nullptr) {
            progress->FinishCell(w, i, results[i]->ok());
          }
        }
      }));
    }
    for (std::future<void>& worker : workers) {
      try {
        worker.get();
      } catch (const std::exception& e) {
        // A worker died outside MeasureCell's Status paths (e.g. a plan
        // factory threw). Unfilled cells are reported below; the sweep
        // itself survives.
        PDSP_LOG(Error) << "sweep worker failed: " << e.what();
      }
    }
  }

  sweep.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  sweep.interrupted = sigint.Interrupted();
  if (sampler != nullptr) {
    sweep.monitor = sampler->Stop();
    sweep.monitor.ExportTo(sweep.metrics.get());
  }

  // Everything below is single-threaded merge work in canonical order.
  sweep.cells.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    Result<CellResult> result =
        results[i].has_value()
            ? std::move(*results[i])
            : Result<CellResult>(Status::Internal(
                  sweep.interrupted
                      ? "sweep interrupted before cell ran"
                      : "sweep cell not executed (worker died)"));
    sweep.cells.push_back(SweepCellOutcome{cells[i].label, std::move(result)});
    if (cell_metrics[i] != nullptr) {
      sweep.metrics->MergeFrom(*cell_metrics[i]);
    }
  }

  obs::HostProfiler host_merger;
  for (int w = 0; w < sweep.jobs; ++w) {
    host_merger.MergeWorkerPhases(StrFormat("%s:worker%d", prefix.c_str(), w),
                                  worker_phases[static_cast<size_t>(w)]);
  }
  sweep.host = host_merger.Snapshot();
  host_merger.ExportTo(sweep.metrics.get());
  sweep.metrics->GetGauge("pdsp.exec.sweep_wall_s")->Set(sweep.wall_s);
  sweep.metrics->GetGauge("pdsp.exec.jobs")
      ->Set(static_cast<double>(sweep.jobs));
  sweep.metrics->GetCounter("pdsp.exec.cells_total")
      ->Add(static_cast<int64_t>(cells.size()));
  sweep.metrics->GetCounter("pdsp.exec.cells_failed")
      ->Add(static_cast<int64_t>(cells.size() - sweep.NumOk()));

  // Ledger appends in canonical cell order, exactly as a sequential sweep
  // would have written them (modulo host-footprint fields).
  for (size_t i = 0; i < cells.size(); ++i) {
    const LedgerOptions& ledger = cells[i].protocol.ledger;
    if (!ledger.enabled || !sweep.cells[i].result.ok()) continue;
    Status st =
        obs::RunLedger(ledger.path).Append(sweep.cells[i].result->ledger_record);
    if (!st.ok()) {
      PDSP_LOG(Warn) << "sweep ledger append to " << ledger.path << ": "
                     << st.ToString();
    }
  }
  if (options.summary_ledger.enabled) {
    Status st = obs::RunLedger(options.summary_ledger.path)
                    .Append(MakeSweepSummaryRecord(options, sweep));
    if (!st.ok()) {
      PDSP_LOG(Warn) << "sweep summary ledger append: " << st.ToString();
    }
  }
  return sweep;
}

}  // namespace exec
}  // namespace pdsp
