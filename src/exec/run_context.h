// Per-run execution context: the explicit bundle of everything one measured
// run is allowed to mutate. A RunContext owns
//
//   * the MetricsRegistry the representative repeat records into,
//   * the Tracer the cell's spans/firings go to,
//   * the HostProfiler its wall-clock phases accumulate in, and
//   * the seed state repeat seeds derive from.
//
// Thread-safety contract (see DESIGN.md "Execution model"): a RunContext is
// confined to one thread at a time; cross-context aggregation happens by
// merging (MetricsRegistry::MergeFrom, obs::FoldPhases) after the owning
// thread is done, in deterministic (cell-index) order.

#ifndef PDSP_EXEC_RUN_CONTEXT_H_
#define PDSP_EXEC_RUN_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "src/common/status.h"
#include "src/obs/host_profile.h"
#include "src/obs/mem.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"

namespace pdsp {
namespace exec {

/// \brief Owns the mutable observability state of one measured run.
class RunContext {
 public:
  RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// The run's metric registry; also handed to the simulator for the
  /// representative repeat so SimResult::metrics aliases it.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

  obs::Tracer* tracer() { return &tracer_; }

  /// Phase sink for this run's wall-clock scopes (simulate / diagnose /
  /// export).
  obs::HostProfiler* profiler() { return &profiler_; }

  uint64_t base_seed() const { return base_seed_; }
  void set_base_seed(uint64_t seed) { base_seed_ = seed; }

  /// Seed of repeat `r`: base + r * 7919 (prime stride). A pure function of
  /// (base_seed, r) — independent of worker identity and execution order,
  /// which is what makes --jobs=1 and --jobs=N bit-identical.
  uint64_t SeedForRepeat(int repeat) const {
    return base_seed_ + static_cast<uint64_t>(repeat) * 7919ULL;
  }

  /// splitmix64 of (base ^ index): a well-spread per-cell seed for callers
  /// that fan one base seed across many cells.
  static uint64_t MixSeed(uint64_t base, uint64_t index);

  /// Creates (replacing any previous one) and starts the context-owned
  /// sampling CPU profiler. With options.all_threads=false the calling
  /// thread must already hold a prof::ThreadRegistration.
  Status StartCpuProfiler(const obs::prof::ProfOptions& options);

  /// Stops the owned profiler and returns its aggregate; an empty profile
  /// when none was started. The profiler is destroyed afterwards, so a
  /// context can be reused for an unprofiled run.
  obs::prof::CpuProfile StopCpuProfiler();

  /// True while the owned sampling profiler is running.
  bool cpu_profiling() const;

  /// Creates (replacing any previous one) and starts the context-owned
  /// sampling allocation profiler. With options.all_threads=false the
  /// calling thread must already hold a prof::ThreadRegistration; Start and
  /// Stop must run on the same thread (the confinement contract above).
  Status StartMemProfiler(const obs::mem::MemOptions& options);

  /// Stops the owned allocation profiler and returns its aggregate; an
  /// empty profile when none was started.
  obs::mem::MemProfile StopMemProfiler();

  /// True while the owned allocation profiler is running.
  bool mem_profiling() const;

 private:
  obs::HostProfiler profiler_;
  std::unique_ptr<obs::prof::Profiler> cpu_profiler_;
  std::unique_ptr<obs::mem::MemProfiler> mem_profiler_;
  obs::Tracer tracer_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  uint64_t base_seed_ = 2024;
};

}  // namespace exec
}  // namespace pdsp

#endif  // PDSP_EXEC_RUN_CONTEXT_H_
