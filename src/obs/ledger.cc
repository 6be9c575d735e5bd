#include "src/obs/ledger.h"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <ctime>
#include <string_view>

#include "src/common/file_util.h"
#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/store/plan_serde.h"

namespace pdsp {
namespace obs {

namespace {

uint64_t Fnv1a64(const std::string& data) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Json StrArray(const std::vector<std::string>& values) {
  Json arr = Json::Array();
  for (const std::string& v : values) arr.Append(Json::Str(v));
  return arr;
}

/// Missing keys read as 0/""/[] so old records stay loadable when optional
/// fields are added within one schema version.
double NumField(const Json& json, const std::string& key) {
  return json[key].is_number() ? json[key].AsNumber() : 0.0;
}
int64_t IntField(const Json& json, const std::string& key) {
  return json[key].is_number() ? json[key].AsInt() : 0;
}
std::string StrField(const Json& json, const std::string& key) {
  return json[key].is_string() ? json[key].AsString() : std::string();
}

}  // namespace

Json RunRecord::ToJson() const {
  Json j = Json::Object();
  j.Set("schema_version", Json::Int(schema_version));
  j.Set("run_id", Json::Str(run_id));
  j.Set("timestamp_utc", Json::Str(timestamp_utc));
  j.Set("label", Json::Str(label));
  j.Set("plan_hash", Json::Str(plan_hash));
  j.Set("parallelism", Json::Int(parallelism));
  j.Set("event_rate", Json::Number(event_rate));
  j.Set("cluster", Json::Str(cluster));
  j.Set("nodes", Json::Int(nodes));
  j.Set("seed", Json::Str(seed));
  j.Set("repeats", Json::Int(repeats));
  j.Set("duration_s", Json::Number(duration_s));
  j.Set("warmup_s", Json::Number(warmup_s));
  j.Set("build_info", Json::Str(build_info));
  j.Set("throughput_tps", Json::Number(throughput_tps));
  j.Set("median_latency_s", Json::Number(median_latency_s));
  j.Set("p95_latency_s", Json::Number(p95_latency_s));
  j.Set("p99_latency_s", Json::Number(p99_latency_s));
  j.Set("throughput_stddev", Json::Number(throughput_stddev));
  j.Set("median_latency_stddev", Json::Number(median_latency_stddev));
  j.Set("late_drops", Json::Int(late_drops));
  j.Set("backpressure_skipped", Json::Int(backpressure_skipped));
  Json breakdown = Json::Object();
  breakdown.Set("source_batch_s", Json::Number(breakdown_source_batch_s));
  breakdown.Set("network_s", Json::Number(breakdown_network_s));
  breakdown.Set("queue_s", Json::Number(breakdown_queue_s));
  breakdown.Set("service_s", Json::Number(breakdown_service_s));
  breakdown.Set("window_s", Json::Number(breakdown_window_s));
  j.Set("breakdown", std::move(breakdown));
  j.Set("diagnosis_codes", StrArray(diagnosis_codes));
  j.Set("determinism", Json::Str(determinism));
  j.Set("artifact_dir", Json::Str(artifact_dir));
  Json host = Json::Object();
  host.Set("wall_s", Json::Number(host_wall_s));
  host.Set("cpu_user_s", Json::Number(host_cpu_user_s));
  host.Set("cpu_sys_s", Json::Number(host_cpu_sys_s));
  host.Set("peak_rss_kb", Json::Int(host_peak_rss_kb));
  j.Set("host", std::move(host));
  if (profile_samples > 0) {
    // Only profiled runs carry the key: unprofiled records stay
    // byte-identical to earlier builds, and bit-identity checks can treat
    // the whole nested object as volatile (like "host").
    Json profile = Json::Object();
    profile.Set("samples", Json::Int(profile_samples));
    profile.Set("cpu_s", Json::Number(profile_cpu_s));
    profile.Set("sampler_cpu_s", Json::Number(profile_sampler_cpu_s));
    profile.Set("top_operator", Json::Str(profile_top_operator));
    profile.Set("top_operator_cpu_s",
                Json::Number(profile_top_operator_cpu_s));
    j.Set("profile", std::move(profile));
  }
  if (mem_samples > 0) {
    // Same discipline as "profile": only memory-profiled runs carry the
    // key, so unprofiled records stay byte-identical across builds.
    Json memory = Json::Object();
    memory.Set("samples", Json::Int(mem_samples));
    memory.Set("total_bytes", Json::Int(mem_total_bytes));
    memory.Set("live_bytes", Json::Int(mem_live_bytes));
    memory.Set("peak_heap_bytes", Json::Int(mem_peak_heap_bytes));
    memory.Set("bytes_per_tuple", Json::Number(mem_bytes_per_tuple));
    memory.Set("top_operator", Json::Str(mem_top_operator));
    memory.Set("top_operator_bytes", Json::Int(mem_top_operator_bytes));
    j.Set("memory", std::move(memory));
  }
  return j;
}

Result<RunRecord> RunRecord::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("ledger record is not a JSON object");
  }
  if (!json["schema_version"].is_number()) {
    return Status::InvalidArgument("ledger record missing schema_version");
  }
  const int version = static_cast<int>(json["schema_version"].AsInt());
  if (version != kLedgerSchemaVersion) {
    return Status::InvalidArgument(StrFormat(
        "unsupported ledger schema_version %d (this build reads %d)",
        version, kLedgerSchemaVersion));
  }
  RunRecord r;
  r.schema_version = version;
  r.run_id = StrField(json, "run_id");
  r.label = StrField(json, "label");
  if (r.run_id.empty() || r.label.empty()) {
    return Status::InvalidArgument(
        "ledger record missing run_id and/or label");
  }
  r.timestamp_utc = StrField(json, "timestamp_utc");
  r.plan_hash = StrField(json, "plan_hash");
  r.parallelism = static_cast<int>(IntField(json, "parallelism"));
  r.event_rate = NumField(json, "event_rate");
  r.cluster = StrField(json, "cluster");
  r.nodes = static_cast<int>(IntField(json, "nodes"));
  r.seed = StrField(json, "seed");
  r.repeats = static_cast<int>(IntField(json, "repeats"));
  r.duration_s = NumField(json, "duration_s");
  r.warmup_s = NumField(json, "warmup_s");
  r.build_info = StrField(json, "build_info");
  r.throughput_tps = NumField(json, "throughput_tps");
  r.median_latency_s = NumField(json, "median_latency_s");
  r.p95_latency_s = NumField(json, "p95_latency_s");
  r.p99_latency_s = NumField(json, "p99_latency_s");
  r.throughput_stddev = NumField(json, "throughput_stddev");
  r.median_latency_stddev = NumField(json, "median_latency_stddev");
  r.late_drops = IntField(json, "late_drops");
  r.backpressure_skipped = IntField(json, "backpressure_skipped");
  const Json& breakdown = json["breakdown"];
  r.breakdown_source_batch_s = NumField(breakdown, "source_batch_s");
  r.breakdown_network_s = NumField(breakdown, "network_s");
  r.breakdown_queue_s = NumField(breakdown, "queue_s");
  r.breakdown_service_s = NumField(breakdown, "service_s");
  r.breakdown_window_s = NumField(breakdown, "window_s");
  const Json& codes = json["diagnosis_codes"];
  if (codes.is_array()) {
    for (size_t i = 0; i < codes.size(); ++i) {
      if (codes.at(i).is_string()) {
        r.diagnosis_codes.push_back(codes.at(i).AsString());
      }
    }
  }
  r.determinism = StrField(json, "determinism");
  r.artifact_dir = StrField(json, "artifact_dir");
  const Json& host = json["host"];
  r.host_wall_s = NumField(host, "wall_s");
  r.host_cpu_user_s = NumField(host, "cpu_user_s");
  r.host_cpu_sys_s = NumField(host, "cpu_sys_s");
  r.host_peak_rss_kb = IntField(host, "peak_rss_kb");
  const Json& profile = json["profile"];  // null on unprofiled records
  r.profile_samples = IntField(profile, "samples");
  r.profile_cpu_s = NumField(profile, "cpu_s");
  r.profile_sampler_cpu_s = NumField(profile, "sampler_cpu_s");
  r.profile_top_operator = StrField(profile, "top_operator");
  r.profile_top_operator_cpu_s = NumField(profile, "top_operator_cpu_s");
  const Json& memory = json["memory"];  // null on non-mem-profiled records
  r.mem_samples = IntField(memory, "samples");
  r.mem_total_bytes = IntField(memory, "total_bytes");
  r.mem_live_bytes = IntField(memory, "live_bytes");
  r.mem_peak_heap_bytes = IntField(memory, "peak_heap_bytes");
  r.mem_bytes_per_tuple = NumField(memory, "bytes_per_tuple");
  r.mem_top_operator = StrField(memory, "top_operator");
  r.mem_top_operator_bytes = IntField(memory, "top_operator_bytes");
  return r;
}

std::string PlanHashHex(const LogicalPlan& plan) {
  Result<Json> json = PlanToJson(plan);
  if (!json.ok()) return std::string(16, '0');
  return StrFormat("%016" PRIx64, Fnv1a64(json->Dump(0)));
}

std::string BuildInfoString() {
#if defined(__clang__)
  const char* compiler = "clang++ " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown-compiler";
#endif
#if defined(NDEBUG)
  const char* flavor = "release";
#else
  const char* flavor = "debug";
#endif
  return StrFormat("%s (%s)", compiler, flavor);
}

std::string MakeRunId(const std::string& label) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  return StrFormat("%s-%" PRIx64 "-%x",
                   label.empty() ? "run" : label.c_str(), us,
                   static_cast<unsigned>(::getpid()));
}

std::string NowUtcIso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

Status RunLedger::Append(const RunRecord& record) const {
  return AppendLineAtomic(path_, record.ToJson().Dump(0));
}

Result<std::vector<RunRecord>> RunLedger::Load() const {
  Result<std::string> text = ReadTextFile(path_);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return std::vector<RunRecord>{};
    }
    return text.status();
  }
  std::vector<RunRecord> records;
  size_t line_no = 0;
  for (const std::string& line : Split(*text, '\n')) {
    ++line_no;
    if (Trim(line).empty()) continue;
    Result<Json> json = Json::Parse(line);
    if (!json.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path_.c_str(), line_no,
                    json.status().message().c_str()));
    }
    Result<RunRecord> record = RunRecord::FromJson(*json);
    if (!record.ok()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path_.c_str(), line_no,
                    record.status().message().c_str()));
    }
    records.push_back(std::move(*record));
  }
  return records;
}

Result<RunRecord> ResolveRecord(const std::vector<RunRecord>& records,
                                const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("empty record spec");

  // "<label>" / "<label>~N": N-th latest record with that label.
  std::string label = spec;
  size_t back = 0;
  const size_t tilde = spec.rfind('~');
  if (tilde != std::string::npos &&
      ParseNumber(std::string_view(spec).substr(tilde + 1), &back)) {
    label = spec.substr(0, tilde);
  }
  size_t remaining = back;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->label != label) continue;
    if (remaining == 0) return *it;
    --remaining;
  }

  // Exact run id, then unique prefix.
  const RunRecord* prefix_match = nullptr;
  bool ambiguous = false;
  for (const RunRecord& r : records) {
    if (r.run_id == spec) return r;
    if (spec.size() >= 4 && r.run_id.compare(0, spec.size(), spec) == 0) {
      if (prefix_match != nullptr) ambiguous = true;
      prefix_match = &r;
    }
  }
  if (ambiguous) {
    return Status::InvalidArgument("ambiguous run spec '" + spec +
                                   "' matches multiple run ids");
  }
  if (prefix_match != nullptr) return *prefix_match;
  return Status::NotFound("no ledger record matches '" + spec +
                          "' (label, label~N, run id or >=4-char prefix)");
}

}  // namespace obs
}  // namespace pdsp
