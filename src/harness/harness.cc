#include "src/harness/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "src/analysis/analyzer.h"
#include "src/analysis/properties.h"
#include "src/common/file_util.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/artifacts.h"
#include "src/obs/host_profile.h"
#include "src/workload/enumerator.h"

namespace pdsp {

const std::vector<ParallelismCategory>& StandardCategories() {
  static const std::vector<ParallelismCategory> kCategories = {
      {"XS", 1}, {"S", 4}, {"M", 16}, {"L", 32}, {"XL", 64}, {"XXL", 128},
  };
  return kCategories;
}

namespace {

int MaxParallelism(const LogicalPlan& plan) {
  int max_p = 1;
  for (size_t i = 0; i < plan.NumOperators(); ++i) {
    max_p = std::max(max_p,
                     plan.op(static_cast<LogicalPlan::OpId>(i)).parallelism);
  }
  return max_p;
}

}  // namespace

obs::RunRecord MakeLedgerRecord(const LogicalPlan& plan,
                                const Cluster& cluster,
                                const RunProtocol& protocol,
                                const CellResult& cell, double wall_s) {
  obs::RunRecord rec;
  rec.label = protocol.label.empty() ? "plan" : protocol.label;
  rec.run_id = obs::MakeRunId(rec.label);
  rec.timestamp_utc = obs::NowUtcIso8601();
  rec.plan_hash = obs::PlanHashHex(plan);
  rec.parallelism = MaxParallelism(plan);
  // Per-source target rate: all plan factories apply one rate uniformly.
  if (!plan.sources().empty()) {
    rec.event_rate = plan.sources().front().arrival.rate;
  }
  rec.cluster = protocol.ledger.cluster_name.empty()
                    ? "custom"
                    : protocol.ledger.cluster_name;
  rec.nodes = static_cast<int>(cluster.NumNodes());
  rec.seed = std::to_string(protocol.seed);
  rec.repeats = protocol.repeats;
  rec.duration_s = protocol.duration_s;
  rec.warmup_s = protocol.warmup_s;
  rec.build_info = obs::BuildInfoString();
  rec.throughput_tps = cell.mean_throughput_tps;
  rec.median_latency_s = cell.mean_median_latency_s;
  rec.p95_latency_s = cell.p95_latency_s;
  rec.p99_latency_s = cell.p99_latency_s;
  rec.throughput_stddev = cell.throughput_stats.stddev();
  rec.median_latency_stddev = cell.median_latency_stats.stddev();
  rec.late_drops = cell.late_drops;
  rec.backpressure_skipped = cell.backpressure_skipped;
  if (cell.has_diagnosis) {
    rec.breakdown_source_batch_s = cell.diagnosis.breakdown.source_batch_s;
    rec.breakdown_network_s = cell.diagnosis.breakdown.network_s;
    rec.breakdown_queue_s = cell.diagnosis.breakdown.queue_s;
    rec.breakdown_service_s = cell.diagnosis.breakdown.service_s;
    rec.breakdown_window_s = cell.diagnosis.breakdown.window_s;
    for (const analysis::Diagnostic& d : cell.diagnosis.report.diagnostics()) {
      rec.diagnosis_codes.push_back(d.code);
    }
    std::sort(rec.diagnosis_codes.begin(), rec.diagnosis_codes.end());
    rec.diagnosis_codes.erase(
        std::unique(rec.diagnosis_codes.begin(), rec.diagnosis_codes.end()),
        rec.diagnosis_codes.end());
  }
  if (protocol.obs.enabled) rec.artifact_dir = protocol.obs.dir;
  if (cell.has_profile) {
    rec.profile_samples = cell.profile.samples;
    rec.profile_cpu_s = cell.profile.total_cpu_s;
    rec.profile_sampler_cpu_s = cell.profile.sampler_cpu_s;
    for (const obs::prof::FrameTotal& op : cell.profile.operators) {
      if (op.name == "(none)") continue;  // samples outside any operator
      rec.profile_top_operator = op.name;  // sorted by cpu_s desc
      rec.profile_top_operator_cpu_s = op.cpu_s;
      break;
    }
  }
  if (cell.has_mem_profile) {
    rec.mem_samples = cell.mem_profile.samples;
    rec.mem_total_bytes = cell.mem_profile.total_bytes;
    rec.mem_live_bytes = cell.mem_profile.live_bytes;
    rec.mem_peak_heap_bytes = cell.mem_profile.peak_heap_bytes;
    rec.mem_bytes_per_tuple = cell.mem_profile.bytes_per_tuple;
    for (const obs::mem::MemFrameTotal& op : cell.mem_profile.operators) {
      if (op.name == "(untracked)") continue;  // samples outside any op
      rec.mem_top_operator = op.name;  // sorted by total_bytes desc
      rec.mem_top_operator_bytes = op.total_bytes;
      break;
    }
  }
  // CPU and peak RSS are whole-process readings taken now; only the wall
  // clock is the cell's own.
  const obs::HostUsage usage = obs::HostProfiler().SampleUsage();
  rec.host_wall_s = wall_s;
  rec.host_cpu_user_s = usage.cpu_user_s;
  rec.host_cpu_sys_s = usage.cpu_sys_s;
  rec.host_peak_rss_kb = usage.peak_rss_kb;
  return rec;
}

Result<CellResult> MeasureCell(const LogicalPlan& plan,
                               const Cluster& cluster,
                               const RunProtocol& protocol,
                               exec::RunContext* context) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<exec::RunContext> private_context;
  if (context == nullptr) context = &private_context.emplace();
  if (protocol.repeats < 1) return Status::InvalidArgument("repeats < 1");
  context->set_base_seed(protocol.seed);

  // Static-analysis gate: never burn simulation time on a plan whose
  // results would be meaningless. Warning-only reports are recorded in the
  // pdsp.analysis.* counters; one debug line keeps sweeps quiet.
  const analysis::AnalysisReport report = analysis::AnalyzePlan(plan);
  if (report.HasErrors()) {
    if (!protocol.allow_invalid) return report.ToStatus();
    PDSP_LOG(Warn) << "simulating plan with " << report.NumErrors()
                   << " analysis error(s) (allow_invalid set)";
  } else if (!report.empty()) {
    PDSP_LOG(Debug) << "plan analysis: "
                    << report.CountAtLeast(analysis::Severity::kWarning)
                    << " warning(s)";
  }

  // Derived static properties: the determinism verdict lands in the ledger
  // record and the full property table rides along in diagnosis.json.
  const std::shared_ptr<const analysis::PlanProperties> props =
      analysis::AnalysisContext::Make(plan, &cluster).props;

  CellResult cell;
  // CPU profiling: register this thread (a no-op on pool workers, which
  // stay registered for the pool's lifetime) and start the context-owned
  // sampler before the first repeat. With the default single-thread scope
  // each concurrent sweep cell samples only its own worker, so parallel
  // cells never attribute each other's CPU. Start failure downgrades to a
  // warning — a sweep never dies on its observability.
  std::unique_ptr<obs::prof::ThreadRegistration> prof_registration;
  if (protocol.profile.enabled || protocol.mem.enabled) {
    prof_registration =
        std::make_unique<obs::prof::ThreadRegistration>("harness");
  }
  if (protocol.profile.enabled) {
    Status st = context->StartCpuProfiler(protocol.profile);
    if (!st.ok()) PDSP_LOG(Warn) << "cpu profiler: " << st.ToString();
  }
  // The memory profiler samples only this thread's allocations (default
  // scope), attributed to the same marker stack the CPU sampler reads;
  // starting it also keeps ProfScope markers live when --profile is off.
  if (protocol.mem.enabled) {
    Status st = context->StartMemProfiler(protocol.mem);
    if (!st.ok()) PDSP_LOG(Warn) << "memory profiler: " << st.ToString();
  }
  obs::Tracer& tracer = *context->tracer();
  tracer.set_verbose(protocol.obs.trace_verbose);
  // Harness-level span covering every repeat of the cell, so a sweep's
  // wall-time layout is visible in Perfetto next to the operator firings.
  const std::string cell_span_name =
      StrFormat("cell:%s/%d",
                protocol.label.empty() ? "plan" : protocol.label.c_str(),
                MaxParallelism(plan));
  obs::Span cell_span(protocol.obs.enabled ? &tracer : nullptr,
                      cell_span_name, "harness");
  // First-repeat state retained for the artifact bundle written after the
  // cell completes (so the cell span is closed by then).
  SimResult first_run;
  SimOptions first_options;
  bool have_first = false;
  int usable = 0;
  obs::prof::ProfScope app_scope(
      obs::prof::FrameKind::kApp,
      protocol.label.empty() ? std::string("plan") : protocol.label);
  for (int r = 0; r < protocol.repeats; ++r) {
    ExecutionOptions exec;
    exec.placement = protocol.placement;
    exec.costs = protocol.costs;
    exec.sim.duration_s = protocol.duration_s;
    exec.sim.warmup_s = protocol.warmup_s;
    // Pure function of (protocol.seed, r): bit-identical no matter which
    // worker or context executes the cell.
    exec.sim.seed = context->SeedForRepeat(r);
    // Artifacts come from the first repeat only: one representative run per
    // cell keeps the bundle small and the remaining repeats untraced.
    const bool emit_obs = protocol.obs.enabled && r == 0;
    // Attribution only costs wall clock — virtual-time results are
    // unaffected — so enabling it for the diagnosed repeat is safe.
    exec.sim.attribute_latency = r == 0 && protocol.diagnose;
    if (emit_obs) {
      exec.sim.tracer = &tracer;
      exec.sim.metrics_interval_s = protocol.obs.metrics_interval_s;
    }
    // The representative repeat records into the context's registry so
    // SimResult::metrics aliases per-run state the caller can merge.
    if (r == 0) exec.sim.metrics = context->metrics();
    // Phases trace into the run's tracer, i.e. on the artifact repeat only.
    SimResult run;
    {
      obs::PhaseScope phase(context->profiler(), exec.sim.tracer, "simulate");
      PDSP_ASSIGN_OR_RETURN(run, ExecutePlan(plan, cluster, exec));
    }
    if (r == 0 && protocol.diagnose) {
      // Diagnose the representative run; a diagnosis failure downgrades to
      // a warning so a sweep never dies on its observability.
      obs::PhaseScope phase(context->profiler(), exec.sim.tracer, "diagnose");
      Result<obs::Diagnosis> diag =
          obs::DiagnoseRun(plan, cluster, run, protocol.diagnose_options);
      if (diag.ok()) {
        cell.diagnosis = std::move(diag).value();
        cell.diagnosis.dataflow = props->ToJson(plan);
        cell.has_diagnosis = true;
      } else {
        PDSP_LOG(Warn) << "run diagnosis: " << diag.status().ToString();
      }
    }
    cell.late_drops += run.late_drops;
    cell.backpressure_skipped += run.backpressure_skipped;
    if (!std::isnan(run.median_latency_s)) {
      cell.mean_median_latency_s += run.median_latency_s;
      cell.mean_throughput_tps += run.throughput_tps;
      cell.median_latency_stats.Add(run.median_latency_s);
      cell.throughput_stats.Add(run.throughput_tps);
      ++usable;
    }
    if (r == 0) {
      cell.p95_latency_s = run.p95_latency_s;
      cell.p99_latency_s = run.p99_latency_s;
      first_options = exec.sim;
      first_run = std::move(run);
      have_first = true;
    }
  }
  cell_span.End();
  // Stop before the export phase: profile.json is part of the bundle, so
  // the profile cannot cover its own serialization.
  if (protocol.profile.enabled && context->cpu_profiling()) {
    cell.profile = context->StopCpuProfiler();
    cell.has_profile = true;
  }
  if (protocol.mem.enabled && context->mem_profiling()) {
    cell.mem_profile = context->StopMemProfiler();
    // Empty means interposition is compiled out (or nothing allocated
    // enough to sample): no memory.json, no nested ledger object.
    cell.has_mem_profile = !cell.mem_profile.empty();
  }
  if (cell.has_mem_profile && cell.has_diagnosis) {
    // Memory findings ride the existing rule-engine plumbing: codes land
    // in diagnosis.json and the ledger's diagnosis_codes like PDSP-R###.
    double node_memory_gb = 0.0;
    for (const Node& node : cluster.nodes()) {
      if (node_memory_gb == 0.0 || node.spec.memory_gb < node_memory_gb) {
        node_memory_gb = node.spec.memory_gb;
      }
    }
    obs::mem::DiagnoseMemProfile(cell.mem_profile, node_memory_gb,
                                 &cell.diagnosis.report);
    cell.diagnosis.report.Finalize();
  }
  if (have_first) cell.op_stats = first_run.op_stats;
  if (protocol.obs.enabled && have_first) {
    obs::PhaseScope phase(context->profiler(), &tracer, "export");
    obs::ArtifactOptions artifacts;
    artifacts.tracer = &tracer;
    artifacts.diagnosis = cell.has_diagnosis ? &cell.diagnosis : nullptr;
    artifacts.sim_options = &first_options;
    artifacts.cpu_profile = cell.has_profile ? &cell.profile : nullptr;
    artifacts.mem_profile = cell.has_mem_profile ? &cell.mem_profile : nullptr;
    const obs::HostProfile host_profile = context->profiler()->Snapshot();
    artifacts.host_profile = &host_profile;
    if (first_run.metrics != nullptr) {
      context->profiler()->ExportTo(first_run.metrics.get());
    }
    Status st = obs::WriteRunArtifacts(protocol.obs.dir, first_run, artifacts);
    if (!st.ok()) {
      PDSP_LOG(Warn) << "obs artifacts for " << protocol.obs.dir << ": "
                     << st.ToString();
    }
  }
  if (usable == 0) {
    return Status::Internal("no run produced sink results");
  }
  cell.mean_median_latency_s /= usable;
  cell.mean_throughput_tps /= usable;
  cell.ledger_record = MakeLedgerRecord(
      plan, cluster, protocol, cell,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  cell.ledger_record.determinism =
      analysis::DeterminismToString(props->verdict);
  if (protocol.ledger.enabled) {
    const obs::RunLedger ledger(protocol.ledger.path);
    Status st = ledger.Append(cell.ledger_record);
    if (!st.ok()) {
      PDSP_LOG(Warn) << "ledger append to " << protocol.ledger.path << ": "
                     << st.ToString();
    }
  }
  return cell;
}

Result<CellResult> MeasureAtDegree(LogicalPlan plan, int degree,
                                   const Cluster& cluster,
                                   const RunProtocol& protocol,
                                   exec::RunContext* context) {
  PDSP_RETURN_NOT_OK(ApplyUniformParallelism(&plan, degree));
  return MeasureCell(plan, cluster, protocol, context);
}

TableReporter::TableReporter(std::string title,
                             std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void TableReporter::AddRow(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

void TableReporter::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]),
                  c < cells.size() ? cells[c].c_str() : "");
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = columns_.size() * 2;
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
  std::printf("\n");
}

Status TableReporter::WriteCsv(const std::string& path) const {
  // Atomic replacement (tmp + rename): a concurrent reader of results/*.csv
  // never sees a torn or truncated table.
  std::string csv = Join(columns_, ",") + "\n";
  for (const auto& row : rows_) csv += Join(row, ",") + "\n";
  return WriteTextFileAtomic(path, csv);
}

std::string LatencyCell(double seconds) {
  return StrFormat("%.2f", seconds * 1e3);
}

std::string ThroughputCell(double tps) { return StrFormat("%.0f", tps); }

}  // namespace pdsp
