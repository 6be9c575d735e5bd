// pdsp::obs run-provenance ledger: a schema-versioned, append-only JSONL
// file (one RunRecord per line, conventionally results/ledger.jsonl) in
// which every measured run/cell records what ran (plan hash, parallelism,
// rate, cluster, seed, build), what came out in virtual time (throughput,
// latency percentiles, breakdown components, diagnosis codes) and what the
// harness itself cost on the host (wall / CPU / peak RSS). This is the
// durable trajectory the comparison engine (src/obs/compare.h) and the
// `pdspbench history/compare/baseline` subcommands read — the layer every
// perf claim in later PRs is judged against.
//
// Appends are single O_APPEND writes (src/common/file_util.h), so
// concurrent drivers can share one ledger without interleaving lines.
// Records carry enough protocol state (seed, repeats, duration, warmup,
// rate, parallelism, cluster) to re-execute the run bit-identically.

#ifndef PDSP_OBS_LEDGER_H_
#define PDSP_OBS_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/query/plan.h"
#include "src/store/json.h"

namespace pdsp {
namespace obs {

/// Current RunRecord schema version; FromJson rejects anything else so a
/// reader never silently misinterprets fields from a future layout.
inline constexpr int kLedgerSchemaVersion = 1;

/// \brief One measured run (or harness cell) as persisted in the ledger.
struct RunRecord {
  int schema_version = kLedgerSchemaVersion;
  std::string run_id;         ///< unique id, e.g. "WC-189ab3f2c41-7f21"
  std::string timestamp_utc;  ///< ISO-8601 UTC, e.g. "2026-08-06T12:34:56Z"
  std::string label;          ///< app abbrev / structure / driver cell name

  // --- provenance: what exactly ran -------------------------------------
  std::string plan_hash;   ///< 16-hex FNV-1a of the canonical plan JSON
  int parallelism = 0;     ///< max operator parallelism in the plan
  double event_rate = 0.0; ///< per-source target rate (events/s)
  std::string cluster;     ///< profile name (m510/c6525/c6320/mixed/custom)
  int nodes = 0;
  std::string seed;        ///< decimal uint64 (string: exact round-trip)
  int repeats = 1;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  std::string build_info;  ///< compiler + build flavor

  // --- virtual-time results ---------------------------------------------
  double throughput_tps = 0.0;
  double median_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  /// Stddev across the protocol's repeats (0 with a single repeat) — the
  /// noise estimate the comparison engine gates verdicts on.
  double throughput_stddev = 0.0;
  double median_latency_stddev = 0.0;
  int64_t late_drops = 0;
  int64_t backpressure_skipped = 0;
  /// LatencyBreakdown components of the diagnosed repeat (0 when latency
  /// attribution was off).
  double breakdown_source_batch_s = 0.0;
  double breakdown_network_s = 0.0;
  double breakdown_queue_s = 0.0;
  double breakdown_service_s = 0.0;
  double breakdown_window_s = 0.0;
  /// PDSP-R### codes the runtime diagnosis emitted, sorted, deduplicated.
  std::vector<std::string> diagnosis_codes;
  /// Static determinism verdict of the plan ("deterministic" /
  /// "order-dependent" / "nondeterministic"), derived by the dataflow
  /// determinism analysis; empty on records written before the analysis
  /// existed. Scopes any bit-identity claim made about the run.
  std::string determinism;
  /// Artifact bundle directory (metrics.json / trace.json /
  /// host_profile.json ...) when the run wrote one; empty otherwise.
  std::string artifact_dir;

  // --- host-side footprint ----------------------------------------------
  /// Wall-clock seconds of the measured cell itself (of the whole sweep on
  /// a sweep summary record).
  double host_wall_s = 0.0;
  /// CPU and peak RSS are process-wide readings at record time, not the
  /// cell's own: earlier and concurrent cells of the process count too.
  double host_cpu_user_s = 0.0;
  double host_cpu_sys_s = 0.0;
  int64_t host_peak_rss_kb = 0;

  // --- sampling-CPU-profile summary (full data in artifact_dir/
  // profile.json). Serialized as one nested "profile" object and only when
  // profile_samples > 0, so unprofiled records are byte-identical to before
  // and bit-identity checks can treat the whole key as volatile (like
  // "host"). ---------------------------------------------------------------
  int64_t profile_samples = 0;
  double profile_cpu_s = 0.0;
  double profile_sampler_cpu_s = 0.0;
  std::string profile_top_operator;
  double profile_top_operator_cpu_s = 0.0;

  // --- allocation-profile summary (full data in artifact_dir/memory.json).
  // Same discipline as "profile": serialized as one nested "memory" object
  // and only when mem_samples > 0, so unprofiled records stay byte-identical
  // and bit-identity checks treat the key as volatile. -------------------
  int64_t mem_samples = 0;
  int64_t mem_total_bytes = 0;
  int64_t mem_live_bytes = 0;
  int64_t mem_peak_heap_bytes = 0;
  double mem_bytes_per_tuple = 0.0;
  std::string mem_top_operator;
  int64_t mem_top_operator_bytes = 0;

  Json ToJson() const;
  /// Parses a record; rejects unknown schema versions and missing
  /// mandatory fields (run_id, label).
  static Result<RunRecord> FromJson(const Json& json);
};

/// 16-hex-digit FNV-1a64 over the canonical plan serialization
/// (store/plan_serde). Stable across processes; "0" * 16 when the plan
/// cannot be serialized (e.g. not validated).
std::string PlanHashHex(const LogicalPlan& plan);

/// Compiler + build-flavor string, e.g. "g++ 13.2.0 (release)".
std::string BuildInfoString();

/// "<label>-<µs-since-epoch hex>-<pid hex>": unique within a machine,
/// sortable by creation time for equal labels.
std::string MakeRunId(const std::string& label);

/// Current UTC wall time as "YYYY-MM-DDTHH:MM:SSZ".
std::string NowUtcIso8601();

/// \brief Append-only JSONL ledger bound to one path.
class RunLedger {
 public:
  explicit RunLedger(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Serializes `record` onto one line and appends it atomically.
  Status Append(const RunRecord& record) const;

  /// Parses every line; an absent file yields an empty vector, a malformed
  /// or version-rejected line fails loudly with its line number.
  Result<std::vector<RunRecord>> Load() const;

 private:
  std::string path_;
};

/// Resolves a CLI record spec against loaded records (oldest-first order):
///   - an exact run_id, or a unique run_id prefix (>= 4 chars);
///   - "<label>" — the latest record with that label;
///   - "<label>~N" — the N-th latest record with that label (N >= 1).
/// Returns NotFound/InvalidArgument with an explanatory message otherwise.
Result<RunRecord> ResolveRecord(const std::vector<RunRecord>& records,
                                const std::string& spec);

}  // namespace obs
}  // namespace pdsp

#endif  // PDSP_OBS_LEDGER_H_
