// pdsp::obs host-side self-profiling: what the *benchmarking system itself*
// costs, as opposed to what the simulated system reports in virtual time.
// Two ingredients:
//
//  1. Resource sampling — RSS / peak RSS from /proc/self/status (graceful
//     zeros off-Linux) and user/sys CPU time from getrusage(2).
//  2. Wall-clock phase timers — per-phase totals (simulate / diagnose /
//     export) recorded by PhaseScope, the one scope behind every host
//     phase: on one name it feeds the phase timer, the CPU profiler's
//     marker stack and the trace, so all three outputs agree.
//
// Snapshots export as `pdsp.host.*` gauges into a MetricsRegistry and as
// the host_profile.json member of every artifact bundle. The profiler is
// deliberately sample-on-demand (no background thread) and has no
// process-wide instance: each exec::RunContext owns one.

#ifndef PDSP_OBS_HOST_PROFILE_H_
#define PDSP_OBS_HOST_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"
#include "src/store/json.h"

namespace pdsp {
namespace obs {

/// \brief One point-in-time host resource reading.
struct HostUsage {
  double wall_s = 0.0;       ///< seconds since profiler construction
  double cpu_user_s = 0.0;   ///< process user CPU (getrusage, cumulative)
  double cpu_sys_s = 0.0;    ///< process system CPU (cumulative)
  int64_t rss_kb = 0;        ///< current VmRSS (0 when /proc unavailable)
  int64_t peak_rss_kb = 0;   ///< peak_rss_bytes / 1024 (back-compat)
  /// Peak RSS in bytes: max(VmHWM, ru_maxrss) with ru_maxrss converted
  /// per platform (Linux reports kB, macOS reports bytes — the raw value
  /// must not be used as one fixed unit). Cross-checked against
  /// MemProfile::peak_heap_bytes in tests: sampled heap never exceeds it.
  int64_t peak_rss_bytes = 0;
};

/// \brief Accumulated wall-clock time of one named phase.
struct HostPhaseStats {
  int64_t count = 0;   ///< completed scopes
  double total_s = 0.0;
  double max_s = 0.0;  ///< longest single scope
};

/// \brief Per-phase timers of one named sweep worker, merged into the
/// parent profiler at join (HostProfiler::MergeWorkerPhases).
using WorkerPhaseMap = std::map<std::string, HostPhaseStats>;

/// Adds every phase of `from` into `into`: counts and totals sum, max_s
/// keeps the larger.
void FoldPhases(const WorkerPhaseMap& from, WorkerPhaseMap* into);

/// \brief Snapshot of the profiler: resource usage + per-phase timers.
///
/// `phases` holds scopes recorded directly on this profiler (the
/// single-threaded wall-clock story). `worker_phases` holds scopes that
/// ran concurrently on sweep workers, keyed by worker name — kept separate
/// precisely so parallel busy-seconds are never summed into the profiler's
/// own wall-clock phases (N workers × t seconds each is N·t CPU-seconds,
/// not N·t wall seconds). `AggregateWorkerPhases()` sums across workers
/// when the cross-worker CPU-second total is wanted explicitly.
struct HostProfile {
  HostUsage usage;
  std::map<std::string, HostPhaseStats> phases;
  std::map<std::string, WorkerPhaseMap> worker_phases;

  /// Per-phase sums across all workers (CPU-seconds, not wall).
  WorkerPhaseMap AggregateWorkerPhases() const;

  /// {"usage": {...}, "phases": {name: {count, total_s, max_s}},
  ///  "workers": {worker: {phase: {...}}},
  ///  "worker_aggregate": {phase: {...}}} — the worker sections are
  /// omitted when no worker phases were merged.
  Json ToJson() const;
};

/// \brief Self-profiler of one run context. All members are thread-safe.
class HostProfiler {
 public:
  HostProfiler();

  /// Adds one completed scope of `name` lasting `seconds`.
  void RecordPhase(const std::string& name, double seconds);

  /// Adopts a sweep worker's phase accumulators under `worker` (e.g.
  /// "worker0"). Re-merging the same worker name folds the maps together.
  /// Worker phases stay separate from this profiler's own phases — see
  /// HostProfile for the double-counting rationale.
  void MergeWorkerPhases(const std::string& worker,
                         const WorkerPhaseMap& phases);

  /// Reads /proc/self/status + getrusage now.
  HostUsage SampleUsage() const;

  /// Usage + copy of all phase accumulators.
  HostProfile Snapshot() const;

  /// Sets pdsp.host.{wall_s, cpu_user_s, cpu_sys_s, rss_kb, peak_rss_kb}
  /// and pdsp.host.phase.<name>.{total_s, count} gauges; with merged
  /// worker phases also pdsp.host.workers and the aggregate
  /// pdsp.host.worker_phase.<name>.{total_s, count} (CPU-seconds summed
  /// across workers; per-worker detail lives in host_profile.json).
  void ExportTo(MetricsRegistry* registry) const;

 private:
  std::chrono::steady_clock::time_point start_;
  mutable Mutex mu_;
  std::map<std::string, HostPhaseStats> phases_ PDSP_GUARDED_BY(mu_);
  std::map<std::string, WorkerPhaseMap> worker_phases_ PDSP_GUARDED_BY(mu_);
};

/// \brief The one RAII scope for a host-side phase. On its one name it
/// records the phase's wall-clock time on `sink`, pushes a
/// prof::FrameKind::kPhase marker frame (seen only while a sampling profiler
/// runs on a registered thread) and emits a "phase"-category span into
/// `tracer`. A null sink or tracer skips that output.
class PhaseScope {
 public:
  PhaseScope(HostProfiler* sink, Tracer* tracer, const std::string& name)
      : sink_(sink),
        name_(name),
        start_(std::chrono::steady_clock::now()),
        span_(tracer, name, "phase"),
        marker_(prof::FrameKind::kPhase, name) {}
  ~PhaseScope() {
    if (sink_ == nullptr) return;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    sink_->RecordPhase(name_, elapsed.count());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  HostProfiler* sink_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  Span span_;
  prof::ProfScope marker_;
};

}  // namespace obs
}  // namespace pdsp

#endif  // PDSP_OBS_HOST_PROFILE_H_
