#include "src/obs/artifacts.h"

#include <cmath>
#include <filesystem>

#include "src/common/file_util.h"

namespace pdsp {
namespace obs {

namespace {

Json FiniteNumber(double v) {
  return std::isfinite(v) ? Json::Number(v) : Json::Null();
}

}  // namespace

Json SimOptionsJson(const SimOptions& options) {
  Json j = Json::Object();
  j.Set("duration_s", Json::Number(options.duration_s));
  j.Set("warmup_s", Json::Number(options.warmup_s));
  j.Set("source_batch_interval_s",
        Json::Number(options.source_batch_interval_s));
  j.Set("watermark_interval_s", Json::Number(options.watermark_interval_s));
  j.Set("batch_rows", Json::Int(options.batch_rows));
  j.Set("max_in_flight_tuples", Json::Int(options.max_in_flight_tuples));
  j.Set("max_events", Json::Int(options.max_events));
  j.Set("latency_reservoir",
        Json::Int(static_cast<int64_t>(options.latency_reservoir)));
  j.Set("metrics_interval_s", Json::Number(options.metrics_interval_s));
  j.Set("attribute_latency", Json::Bool(options.attribute_latency));
  j.Set("seed", Json::Str(std::to_string(options.seed)));
  return j;
}

Json RunMetricsJson(const SimResult& result, const SimOptions* sim_options) {
  Json summary = Json::Object();
  summary.Set("median_latency_s", FiniteNumber(result.median_latency_s));
  summary.Set("mean_latency_s", FiniteNumber(result.mean_latency_s));
  summary.Set("p95_latency_s", FiniteNumber(result.p95_latency_s));
  summary.Set("p99_latency_s", FiniteNumber(result.p99_latency_s));
  summary.Set("throughput_tps", FiniteNumber(result.throughput_tps));
  summary.Set("source_tuples", Json::Int(result.source_tuples));
  summary.Set("sink_tuples", Json::Int(result.sink_tuples));
  summary.Set("backpressure_skipped", Json::Int(result.backpressure_skipped));
  summary.Set("late_drops", Json::Int(result.late_drops));
  summary.Set("events_processed", Json::Int(result.events_processed));
  summary.Set("virtual_time_end_s", FiniteNumber(result.virtual_time_end));

  Json ops = Json::Array();
  for (const OperatorRunStats& s : result.op_stats) {
    Json op = Json::Object();
    op.Set("name", Json::Str(s.name));
    op.Set("parallelism", Json::Int(s.parallelism));
    op.Set("tuples_in", Json::Int(s.tuples_in));
    op.Set("tuples_out", Json::Int(s.tuples_out));
    op.Set("late_drops", Json::Int(s.late_drops));
    op.Set("busy_time_s", FiniteNumber(s.busy_time_s));
    op.Set("utilization", FiniteNumber(s.utilization));
    op.Set("max_instance_util", FiniteNumber(s.max_instance_util));
    op.Set("max_queue_tuples", Json::Int(static_cast<int64_t>(
        s.max_queue_tuples)));
    Json lat = Json::Object();
    lat.Set("queue_wait_s", FiniteNumber(s.latency.MeanQueueWait()));
    lat.Set("network_in_s", FiniteNumber(s.latency.MeanNetworkIn()));
    lat.Set("service_s", FiniteNumber(s.latency.MeanService()));
    lat.Set("window_s", FiniteNumber(s.latency.MeanWindowResidency()));
    lat.Set("source_batch_s", FiniteNumber(s.latency.MeanSourceBatch()));
    lat.Set("path_cost_s", FiniteNumber(s.latency.MeanPathCost()));
    op.Set("latency", std::move(lat));
    ops.Append(std::move(op));
  }

  if (!result.breakdown.empty()) {
    Json b = Json::Object();
    b.Set("samples", Json::Int(result.breakdown.samples));
    b.Set("total_s", FiniteNumber(result.breakdown.total_s));
    b.Set("source_batch_s", FiniteNumber(result.breakdown.source_batch_s));
    b.Set("network_s", FiniteNumber(result.breakdown.network_s));
    b.Set("queue_s", FiniteNumber(result.breakdown.queue_s));
    b.Set("service_s", FiniteNumber(result.breakdown.service_s));
    b.Set("window_s", FiniteNumber(result.breakdown.window_s));
    summary.Set("latency_breakdown", std::move(b));
  }

  Json root = Json::Object();
  root.Set("summary", std::move(summary));
  root.Set("operators", std::move(ops));
  root.Set("metrics", result.metrics != nullptr ? result.metrics->ToJson()
                                                : Json::Object());
  if (sim_options != nullptr) {
    root.Set("options", SimOptionsJson(*sim_options));
  }
  return root;
}

Status WriteRunArtifacts(const std::string& dir, const SimResult& result,
                         const ArtifactOptions& options) {
  const std::filesystem::path base(dir);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec && !std::filesystem::is_directory(base)) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }
  PDSP_RETURN_NOT_OK(WriteTextFileAtomic(
      (base / "metrics.json").string(),
      RunMetricsJson(result, options.sim_options).Dump(2) + "\n"));
  if (!result.timeseries.empty()) {
    const std::string ts = (base / "timeseries.csv").string();
    PDSP_RETURN_NOT_OK(result.timeseries.WriteCsv(ts + ".tmp"));
    PDSP_RETURN_NOT_OK(AtomicRename(ts + ".tmp", ts));
  }
  if (options.tracer != nullptr) {
    const std::string tr = (base / "trace.json").string();
    PDSP_RETURN_NOT_OK(options.tracer->WriteFile(tr + ".tmp"));
    PDSP_RETURN_NOT_OK(AtomicRename(tr + ".tmp", tr));
  }
  if (options.diagnosis != nullptr) {
    PDSP_RETURN_NOT_OK(
        WriteTextFileAtomic((base / "diagnosis.json").string(),
                            options.diagnosis->ToJson().Dump(2) + "\n"));
  }
  if (options.host_profile != nullptr) {
    PDSP_RETURN_NOT_OK(
        WriteTextFileAtomic((base / "host_profile.json").string(),
                            options.host_profile->ToJson().Dump(2) + "\n"));
  }
  if (options.cpu_profile != nullptr) {
    PDSP_RETURN_NOT_OK(
        WriteTextFileAtomic((base / "profile.json").string(),
                            options.cpu_profile->ToJson().Dump(2) + "\n"));
  }
  if (options.mem_profile != nullptr) {
    PDSP_RETURN_NOT_OK(
        WriteTextFileAtomic((base / "memory.json").string(),
                            options.mem_profile->ToJson().Dump(2) + "\n"));
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace pdsp
