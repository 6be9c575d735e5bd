// Per-run observability artifact bundle: metrics.json (registry snapshot +
// run summary + the SimOptions/seed the run used), timeseries.csv
// (per-operator samples), trace.json (Chrome trace_event, open in Perfetto
// or chrome://tracing), diagnosis.json and host_profile.json, written under
// one directory — the layout the harness uses for results/<driver>/<cell>/.

#ifndef PDSP_OBS_ARTIFACTS_H_
#define PDSP_OBS_ARTIFACTS_H_

#include <string>

#include "src/common/status.h"
#include "src/obs/diagnose.h"
#include "src/obs/host_profile.h"
#include "src/obs/mem.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace pdsp {
namespace obs {

/// Serializes the SimOptions a run used — including the RNG seed — so any
/// bundle (and any ledger record pointing at it) can be re-executed
/// bit-identically. The seed is a decimal string: uint64 seeds do not
/// survive the JSON number (double) round-trip.
Json SimOptionsJson(const SimOptions& options);

/// Serializes the run's headline numbers + registry into the metrics.json
/// document: {"summary": {...}, "operators": [...], "metrics":
/// {counters/gauges/histograms — histograms carry p50/p95/p99}}; with a
/// non-null `sim_options` also {"options": SimOptionsJson(...)}.
Json RunMetricsJson(const SimResult& result,
                    const SimOptions* sim_options = nullptr);

/// \brief Optional members of an artifact bundle (all non-owning).
struct ArtifactOptions {
  const Tracer* tracer = nullptr;          ///< trace.json
  const Diagnosis* diagnosis = nullptr;    ///< diagnosis.json
  const SimOptions* sim_options = nullptr; ///< metrics.json "options" block
  const HostProfile* host_profile = nullptr;  ///< host_profile.json
  const prof::CpuProfile* cpu_profile = nullptr;  ///< profile.json
  const mem::MemProfile* mem_profile = nullptr;   ///< memory.json
};

/// Writes metrics.json and, when non-empty, timeseries.csv under `dir`
/// (created if needed); each non-null ArtifactOptions member adds its file.
/// Every file is written to `<name>.tmp` first and renamed into place
/// (src/common/file_util), so readers never observe a half-written
/// artifact. Partial failures abort with the first error; already-renamed
/// files remain.
Status WriteRunArtifacts(const std::string& dir, const SimResult& result,
                         const ArtifactOptions& options);

}  // namespace obs
}  // namespace pdsp

#endif  // PDSP_OBS_ARTIFACTS_H_
