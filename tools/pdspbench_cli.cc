// pdspbench — command-line front end, the library's equivalent of the
// paper's web UI + controller: pick an application or synthetic structure,
// an event rate, a parallelism degree and a cluster, and get the measured
// performance.
//
//   pdspbench --app=SG --rate=200000 --parallelism=16 --cluster=c6525
//   pdspbench --structure=join2 --parallelism=2,8,32 --jobs=4
//   pdspbench --list
//   pdspbench analyze all
//   pdspbench diagnose WC --explain
//   pdspbench baseline check all
//
// Each command declares its flags once, in the FlagTable of its *Main
// function below (Main holds the plain run's and the parallelism sweep's);
// a usage error prints the usage text generated from that table and exits
// 2. Each *Main says when it exits 1.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/properties.h"
#include "src/apps/apps.h"
#include "src/common/file_util.h"
#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/exec/sweep.h"
#include "src/harness/harness.h"
#include "src/harness/synthetic_suite.h"
#include "src/obs/compare.h"
#include "src/obs/diagnose.h"
#include "src/obs/host_profile.h"
#include "src/obs/ledger.h"
#include "src/obs/artifacts.h"
#include "src/obs/mem.h"
#include "src/obs/monitor.h"
#include "src/obs/prof.h"
#include "src/obs/report.h"
#include "src/sim/analytic.h"
#include "src/sim/simulation.h"
#include "src/store/run_store.h"
#include "src/workload/enumerator.h"

namespace pdsp {

namespace {

constexpr char kDefaultLedgerPath[] = "results/ledger.jsonl";
constexpr char kDefaultBaselineDir[] = "bench/baselines";
constexpr char kClusterHelp[] = "m510 | c6525 | c6320 | mixed";

void PrintCatalog() {
  std::printf("applications (--app):\n");
  for (const AppInfo& info : AllApps()) {
    std::printf("  %-5s %-22s %s\n", info.abbrev, info.name,
                info.description);
  }
  std::printf("\nsynthetic structures (--structure):\n");
  for (SyntheticStructure s : AllSyntheticStructures()) {
    std::printf("  %s\n", SyntheticStructureToString(s));
  }
}

Result<Cluster> MakeCluster(const std::string& name, int nodes) {
  if (name == "m510") return Cluster::M510(nodes);
  if (name == "c6525") return Cluster::C6525(nodes);
  if (name == "c6320") return Cluster::C6320(nodes);
  if (name == "mixed") return Cluster::Mixed(nodes);
  return Status::InvalidArgument("unknown cluster '" + name + "'");
}

Result<PlacementKind> MakePlacement(const std::string& name) {
  if (name == "round_robin") return PlacementKind::kRoundRobin;
  if (name == "least_loaded") return PlacementKind::kLeastLoaded;
  if (name == "locality") return PlacementKind::kLocality;
  if (name == "random") return PlacementKind::kRandom;
  return Status::InvalidArgument("unknown placement '" + name + "'");
}

// --- the benchmark catalog -----------------------------------------------

/// \brief A selectable benchmark: a Table 2 application or a canonical
/// synthetic structure, with the factory of its plan.
struct Benchmark {
  std::string name;   ///< app abbreviation or structure name
  std::string title;  ///< app name or "synthetic <structure>"
  bool is_app = false;
  std::function<Result<LogicalPlan>(double rate, int parallelism)> make_plan;
};

/// The 14 Table 2 apps, then the synthetic structures.
const std::vector<Benchmark>& Catalog() {
  static const std::vector<Benchmark> catalog = [] {
    std::vector<Benchmark> out;
    for (const AppInfo& info : AllApps()) {
      const AppId id = info.id;
      out.push_back({info.abbrev, info.name, true,
                     [id](double rate, int parallelism) {
                       AppOptions opt;
                       opt.event_rate = rate;
                       opt.parallelism = parallelism;
                       return MakeApp(id, opt);
                     }});
    }
    for (SyntheticStructure s : AllSyntheticStructures()) {
      const char* name = SyntheticStructureToString(s);
      out.push_back({name, std::string("synthetic ") + name, false,
                     [s](double rate, int parallelism) {
                       CanonicalOptions opt;
                       opt.event_rate = rate;
                       opt.parallelism = parallelism;
                       return MakeCanonicalSynthetic(s, opt);
                     }});
    }
    return out;
  }();
  return catalog;
}

/// The catalog entry called `name` among the apps (when `apps`) and the
/// structures (when `structures`); null when there is none.
const Benchmark* FindBenchmark(const std::string& name, bool apps = true,
                               bool structures = true) {
  for (const Benchmark& b : Catalog()) {
    if (b.name == name && (b.is_app ? apps : structures)) return &b;
  }
  return nullptr;
}

/// The entries a command's target argument names: "all" is every app and,
/// with `all_structures`, every structure; any other name is one entry.
/// Prints an error and returns none when nothing matches.
std::vector<const Benchmark*> SelectBenchmarks(const std::string& target,
                                               bool all_structures,
                                               const char* command) {
  std::vector<const Benchmark*> out;
  if (target != "all") {
    if (const Benchmark* b = FindBenchmark(target)) out.push_back(b);
  } else {
    for (const Benchmark& b : Catalog()) {
      if (b.is_app || all_structures) out.push_back(&b);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "unknown %s target '%s' (use --list for the catalog)\n",
                 command, target.c_str());
  }
  return out;
}

// --- analyze and diagnose subcommands ------------------------------------

/// \brief Per-target output of analyze and diagnose: a JSON object or a
/// "== name (title) ==" block per target, then the totals.
class TargetReport {
 public:
  explicit TargetReport(bool json) : json_(json) {}

  /// Opens a target's entry: prints its header line (text) and returns its
  /// JSON object, which names the plan.
  Json Open(const Benchmark& b) {
    ++targets_;
    if (!json_) {
      std::printf("== %s (%s) ==\n", b.name.c_str(), b.title.c_str());
    }
    Json entry = Json::Object();
    entry.Set("plan", Json::Str(b.name));
    return entry;
  }

  /// Closes an entry whose `stage` (build, run, diagnosis) failed, as one
  /// error; JSON keeps the status under `json_key`.
  void Fail(Json entry, const char* json_key, const char* stage,
            const Status& status) {
    ++errors_;
    if (json_) {
      entry.Set(json_key, Json::Str(status.ToString()));
      plans_.Append(std::move(entry));
    } else {
      std::printf("%s failed: %s\n\n", stage, status.ToString().c_str());
    }
  }

  /// Closes an entry, counting the errors and warnings among `findings`.
  void Close(Json entry, const analysis::AnalysisReport& findings) {
    const size_t errors = findings.NumErrors();
    errors_ += errors;
    warnings_ += findings.CountAtLeast(analysis::Severity::kWarning) - errors;
    if (json_) plans_.Append(std::move(entry));
  }

  /// Prints the totals (the JSON document, or "<verb> N plans: ..." text)
  /// and returns the exit status: 1 on an error, or on a warning when
  /// `warnings_fail`.
  int Finish(const char* verb, bool warnings_fail) {
    if (json_) {
      Json out = Json::Object();
      out.Set("plans", std::move(plans_));
      out.Set("errors", Json::Int(static_cast<int64_t>(errors_)));
      out.Set("warnings", Json::Int(static_cast<int64_t>(warnings_)));
      std::printf("%s\n", out.Dump(2).c_str());
    } else {
      std::printf("%s %zu plan%s: %zu error%s, %zu warning%s\n", verb,
                  targets_, targets_ == 1 ? "" : "s", errors_,
                  errors_ == 1 ? "" : "s", warnings_,
                  warnings_ == 1 ? "" : "s");
    }
    return errors_ > 0 || (warnings_fail && warnings_ > 0) ? 1 : 0;
  }

 private:
  bool json_;
  size_t targets_ = 0;
  size_t errors_ = 0;
  size_t warnings_ = 0;
  Json plans_ = Json::Array();
};

/// `analyze`: the pdsp::analysis lint passes over registered plans, without
/// simulating. Exits 1 on an error-severity finding (with --strict, on a
/// warning too); CI runs `analyze all`.
int AnalyzeMain(int argc, char** argv) {
  std::string cluster_name = "m510";
  int nodes = 10;
  int parallelism = 1;
  double rate = 100000.0;
  bool json = false;
  bool strict = false;
  bool list_passes = false;
  bool dataflow = false;
  const FlagTable table{
      "pdspbench analyze (<abbrev>|<structure>|all) | analyze --list-passes",
      1,
      {{"json", &json, "print one JSON document"},
       {"strict", &strict, "exit 1 on warnings too"},
       {"dataflow", &dataflow,
        "print the derived property table (partitioning, rate intervals, "
        "determinism)"},
       {"list-passes", &list_passes, "list the registered analysis passes"},
       {"cluster", &cluster_name, "NAME", kClusterHelp},
       {"nodes", &nodes, "N", "cluster size"},
       {"parallelism", &parallelism, "N", "degree for all operators"},
       {"rate", &rate, "N", "per-source event rate (events/s)"}}};
  std::vector<std::string> positionals;
  if (!table.Parse(argc, argv, &positionals)) return 2;
  if (list_passes) {
    std::printf("registered analysis passes:\n");
    const analysis::PassRegistry& passes = analysis::DefaultPasses();
    for (const std::string& name : passes.Names()) {
      const analysis::AnalysisPass* pass = passes.Find(name);
      std::printf("  %-24s %s%s\n", name.c_str(), pass->description(),
                  pass->needs_cluster() ? " (needs cluster)" : "");
    }
    return 0;
  }
  if (positionals.empty() || nodes < 1 || parallelism < 1 || rate <= 0) {
    return table.Usage();
  }
  auto cluster = MakeCluster(cluster_name, nodes);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 2;
  }
  const std::vector<const Benchmark*> targets =
      SelectBenchmarks(positionals[0], /*all_structures=*/true, "analyze");
  if (targets.empty()) return 2;

  analysis::AnalyzeOptions options;
  options.cluster = &*cluster;
  TargetReport report(json);
  for (const Benchmark* b : targets) {
    Json entry = report.Open(*b);
    const Result<LogicalPlan> plan = b->make_plan(rate, parallelism);
    if (!plan.ok()) {
      // The plan factory itself refused (Build()'s error gate or a latched
      // builder error).
      report.Fail(std::move(entry), "build_error", "build", plan.status());
      continue;
    }
    const analysis::AnalysisReport findings =
        analysis::AnalyzePlan(*plan, options);
    if (json) {
      entry.Set("report", findings.ToJson());
    } else {
      std::printf("%s\n", findings.ToString().c_str());
    }
    if (dataflow) {
      const analysis::AnalysisContext ctx =
          analysis::AnalysisContext::Make(*plan, &*cluster);
      if (json) {
        entry.Set("properties", ctx.props->ToJson(*plan));
      } else {
        std::printf("derived properties:\n%s\n",
                    ctx.props->ToString(*plan).c_str());
      }
    }
    report.Close(std::move(entry), findings);
  }
  return report.Finish("analyzed", strict);
}

/// `diagnose`: simulates each plan, then runs the runtime bottleneck
/// diagnosis (pdsp::obs::DiagnoseRun): latency breakdown, weighted critical
/// path and PDSP-R### findings with fix hints. `all` is the 14 apps. Exits
/// 1 on an error-severity finding (saturation) or a failed target.
int DiagnoseMain(int argc, char** argv) {
  std::string cluster_name = "m510";
  int nodes = 10;
  int parallelism = 8;
  double rate = 100000.0;
  double duration = 3.0;
  uint64_t seed = 42;
  bool json = false;
  bool explain = false;
  const FlagTable table{
      "pdspbench diagnose (<abbrev>|<structure>|all)", 1,
      {{"json", &json, "print one JSON document"},
       {"explain", &explain, "add the per-operator component table"},
       {"cluster", &cluster_name, "NAME", kClusterHelp},
       {"nodes", &nodes, "N", "cluster size"},
       {"parallelism", &parallelism, "N", "degree for all operators"},
       {"rate", &rate, "N", "per-source event rate (events/s)"},
       {"duration", &duration, "S", "generation horizon in seconds (> 0.5)"},
       {"seed", &seed, "N", "simulation seed"}}};
  std::vector<std::string> positionals;
  if (!table.Parse(argc, argv, &positionals)) return 2;
  if (positionals.empty() || nodes < 1 || parallelism < 1 || rate <= 0 ||
      duration <= 0.5) {
    return table.Usage();
  }
  auto cluster = MakeCluster(cluster_name, nodes);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 2;
  }
  const std::vector<const Benchmark*> targets =
      SelectBenchmarks(positionals[0], /*all_structures=*/false, "diagnose");
  if (targets.empty()) return 2;

  ExecutionOptions exec;
  exec.sim.duration_s = duration;
  exec.sim.warmup_s = duration * 0.2;
  exec.sim.seed = seed;
  exec.sim.attribute_latency = true;
  TargetReport report(json);
  for (const Benchmark* b : targets) {
    Json entry = report.Open(*b);
    const Result<LogicalPlan> plan = b->make_plan(rate, parallelism);
    const Result<SimResult> run =
        plan.ok() ? ExecutePlan(*plan, *cluster, exec)
                  : Result<SimResult>(plan.status());
    const Result<obs::Diagnosis> diag =
        run.ok() ? obs::DiagnoseRun(*plan, *cluster, *run)
                 : Result<obs::Diagnosis>(run.status());
    if (!diag.ok()) {
      report.Fail(std::move(entry), "error",
                  !plan.ok() ? "build" : !run.ok() ? "run" : "diagnosis",
                  diag.status());
      continue;
    }
    if (json) {
      entry.Set("median_latency_s", Json::Number(run->median_latency_s));
      entry.Set("throughput_tps", Json::Number(run->throughput_tps));
      entry.Set("diagnosis", diag->ToJson());
    } else {
      std::printf("measured: %s\n%s\n", run->Summary().c_str(),
                  explain ? diag->Explain(*run).c_str()
                          : diag->ToString().c_str());
    }
    report.Close(std::move(entry), diag->report);
  }
  return report.Finish("diagnosed", /*warnings_fail=*/false);
}

// --- history / compare / baseline subcommands ----------------------------

/// RFC-4180 CSV field: quoted (with doubled inner quotes) only when the
/// value contains a delimiter, quote or newline, so plain numeric fields
/// stay byte-identical to their printf form.
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    out += c;
    if (c == '"') out += '"';  // RFC 4180: escape by doubling
  }
  out += '"';
  return out;
}

/// `history`: the newest run-ledger records (src/obs/ledger.h), as a
/// table, CSV or JSON.
int HistoryMain(int argc, char** argv) {
  std::string ledger_path = kDefaultLedgerPath;
  std::string app_filter;
  std::string format = "table";
  size_t limit = 20;
  bool json = false;
  const FlagTable table{
      "pdspbench history [<label>|all]", 1,
      {{"json", &json, "print the full records as JSON"},
       {"ledger", &ledger_path, "PATH", "run ledger to read"},
       {"app", &app_filter, "NAME",
        "keep labels whose app part (up to the first '/') is NAME: WC "
        "matches WC, WC/p4, ..."},
       {"limit", &limit, "N", "newest records to show"},
       {"format", &format, "table|csv",
        "csv: RFC-4180 with one header row, for spreadsheets and scripts"}}};
  std::vector<std::string> positionals;
  if (!table.Parse(argc, argv, &positionals)) return 2;
  // No label means all of them, so --app alone scopes a large ledger.
  const std::string target = positionals.empty() ? "all" : positionals[0];
  if (limit < 1 || (format != "table" && format != "csv")) {
    return table.Usage();
  }
  auto records = obs::RunLedger(ledger_path).Load();
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 2;
  }
  std::vector<const obs::RunRecord*> selected;
  for (const obs::RunRecord& r : *records) {
    if (target != "all" && r.label != target) continue;
    if (!app_filter.empty() && obs::AppOfLabel(r.label) != app_filter) {
      continue;
    }
    selected.push_back(&r);
  }
  if (selected.size() > limit) {
    selected.erase(selected.begin(),
                   selected.end() - static_cast<ptrdiff_t>(limit));
  }
  if (json) {
    Json arr = Json::Array();
    for (const obs::RunRecord* r : selected) arr.Append(r->ToJson());
    Json out = Json::Object();
    out.Set("ledger", Json::Str(ledger_path));
    out.Set("records", std::move(arr));
    std::printf("%s\n", out.Dump(2).c_str());
    return 0;
  }
  if (format == "csv") {
    // Header always prints so a filtered-to-empty selection still yields a
    // valid CSV document.
    std::printf(
        "run_id,timestamp_utc,label,plan_hash,parallelism,event_rate,"
        "cluster,nodes,seed,repeats,duration_s,throughput_tps,"
        "median_latency_s,p95_latency_s,p99_latency_s,late_drops,"
        "backpressure_skipped,diagnosis_codes,determinism,artifact_dir,"
        "profile_samples,profile_cpu_s,profile_top_operator,"
        "peak_heap_bytes,bytes_per_tuple,alloc_samples\n");
    for (const obs::RunRecord* r : selected) {
      const std::vector<std::string> fields = {
          r->run_id,
          r->timestamp_utc,
          r->label,
          r->plan_hash,
          StrFormat("%d", r->parallelism),
          StrFormat("%.17g", r->event_rate),
          r->cluster,
          StrFormat("%d", r->nodes),
          r->seed,
          StrFormat("%d", r->repeats),
          StrFormat("%.17g", r->duration_s),
          StrFormat("%.17g", r->throughput_tps),
          StrFormat("%.17g", r->median_latency_s),
          StrFormat("%.17g", r->p95_latency_s),
          StrFormat("%.17g", r->p99_latency_s),
          StrFormat("%lld", static_cast<long long>(r->late_drops)),
          StrFormat("%lld",
                    static_cast<long long>(r->backpressure_skipped)),
          Join(r->diagnosis_codes, ";"),
          r->determinism,
          r->artifact_dir,
          StrFormat("%lld", static_cast<long long>(r->profile_samples)),
          StrFormat("%.17g", r->profile_cpu_s),
          r->profile_top_operator,
          // Memory columns stay empty for records predating --mem-profile
          // (and for unprofiled runs) so old ledgers load cleanly.
          r->mem_samples > 0
              ? StrFormat("%lld",
                          static_cast<long long>(r->mem_peak_heap_bytes))
              : "",
          r->mem_samples > 0 ? StrFormat("%.17g", r->mem_bytes_per_tuple)
                             : "",
          r->mem_samples > 0
              ? StrFormat("%lld", static_cast<long long>(r->mem_samples))
              : "",
      };
      std::vector<std::string> quoted;
      quoted.reserve(fields.size());
      for (const std::string& f : fields) quoted.push_back(CsvField(f));
      std::printf("%s\n", Join(quoted, ",").c_str());
    }
    return 0;
  }
  if (selected.empty()) {
    std::printf("no ledger records for '%s' in %s\n", target.c_str(),
                ledger_path.c_str());
    return 0;
  }
  std::printf("%-34s %-20s %-14s %4s %9s %10s %10s %12s  %s\n", "run_id",
              "timestamp", "label", "p", "rate", "p50(ms)", "p95(ms)",
              "tput(t/s)", "codes");
  for (const obs::RunRecord* r : selected) {
    std::printf("%-34s %-20s %-14s %4d %9.0f %10.2f %10.2f %12.0f  %s\n",
                r->run_id.c_str(), r->timestamp_utc.c_str(),
                r->label.c_str(), r->parallelism, r->event_rate,
                r->median_latency_s * 1e3, r->p95_latency_s * 1e3,
                r->throughput_tps, Join(r->diagnosis_codes, ",").c_str());
  }
  return 0;
}

/// `compare`: the noise-aware comparison of two ledger records. Exits 1
/// when any metric regressed.
int CompareMain(int argc, char** argv) {
  std::string ledger_path = kDefaultLedgerPath;
  obs::CompareOptions options;
  bool json = false;
  const FlagTable table{
      "pdspbench compare <baseline> <candidate>\n"
      "  (a record is a label, label~N for the Nth-latest, a run id or a "
      "unique >=4-char run-id prefix)",
      2,
      {{"json", &json, "print the report as JSON"},
       {"ledger", &ledger_path, "PATH", "run ledger to read"},
       {"threshold", &options.threshold, "F",
        "minimum relative change that counts"},
       {"sigmas", &options.noise_sigmas, "F",
        "combined repeat stddevs a change must also exceed (<= 0: off)"}}};
  std::vector<std::string> specs;
  if (!table.Parse(argc, argv, &specs)) return 2;
  if (specs.size() != 2 || options.threshold <= 0) return table.Usage();
  auto records = obs::RunLedger(ledger_path).Load();
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 2;
  }
  auto baseline = obs::ResolveRecord(*records, specs[0]);
  auto candidate = obs::ResolveRecord(*records, specs[1]);
  if (!baseline.ok() || !candidate.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!baseline.ok() ? baseline.status() : candidate.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  const obs::ComparisonReport report =
      obs::CompareRecords(*baseline, *candidate, options);
  if (json) {
    std::printf("%s\n", report.ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  return report.HasRegressions() ? 1 : 0;
}

std::string BaselineFilePath(const std::string& dir,
                             const std::string& label) {
  std::string name = label;
  std::replace(name.begin(), name.end(), '/', '_');
  return dir + "/" + name + ".json";
}

/// Measures catalog entry `label` under `protocol`, appending the cell's
/// record to the ledger at `ledger_path`, and returns that record.
Result<obs::RunRecord> MeasureForLedger(const std::string& label, double rate,
                                        int parallelism,
                                        const std::string& cluster_name,
                                        int nodes, RunProtocol protocol,
                                        const std::string& ledger_path) {
  PDSP_ASSIGN_OR_RETURN(Cluster cluster, MakeCluster(cluster_name, nodes));
  const Benchmark* benchmark = FindBenchmark(label);
  if (benchmark == nullptr) {
    return Status::NotFound("unknown app/structure '" + label + "'");
  }
  PDSP_ASSIGN_OR_RETURN(LogicalPlan plan,
                        benchmark->make_plan(rate, parallelism));
  protocol.label = label;
  protocol.ledger.enabled = true;
  protocol.ledger.path = ledger_path;
  protocol.ledger.cluster_name = cluster_name;
  PDSP_ASSIGN_OR_RETURN(CellResult cell,
                        MeasureCell(plan, cluster, protocol));
  return cell.ledger_record;
}

/// `baseline write` measures the target(s) and stores each RunRecord as
/// <dir>/<label>.json (also appended to the ledger); `baseline check`
/// re-measures with each baseline's recorded protocol (seed, repeats,
/// rate, parallelism, cluster) and compares, the core of
/// tools/bench_gate.sh. Exits 2 when a target fails and, for check, 1 on a
/// regression beyond the threshold.
int BaselineMain(int argc, char** argv) {
  std::string dir = kDefaultBaselineDir;
  std::string ledger_path = kDefaultLedgerPath;
  std::string cluster_name = "m510";
  int nodes = 10;
  int parallelism = 8;
  double rate = 100000.0;
  int repeats = 3;
  double duration = 2.0;
  uint64_t seed = 2024;
  obs::CompareOptions options;
  bool json = false;
  const FlagTable table{
      "pdspbench baseline (write|check) (<abbrev>|<structure>|all)\n"
      "  (check all: every baseline under --dir)",
      2,
      {{"json", &json, "check: print one JSON document"},
       {"dir", &dir, "DIR", "baseline directory"},
       {"ledger", &ledger_path, "PATH", "run ledger to append to"},
       {"cluster", &cluster_name, "NAME",
        "write: m510 | c6525 | c6320 | mixed"},
       {"nodes", &nodes, "N", "write: cluster size"},
       {"parallelism", &parallelism, "N", "write: degree for all operators"},
       {"rate", &rate, "N", "write: per-source event rate (events/s)"},
       {"repeats", &repeats, "N", "write: runs per measurement"},
       {"duration", &duration, "S", "write: generation horizon (> 0.5)"},
       {"seed", &seed, "N", "write: simulation seed"},
       {"threshold", &options.threshold, "F",
        "check: minimum relative change that counts"},
       {"sigmas", &options.noise_sigmas, "F",
        "check: combined repeat stddevs a change must also exceed"}}};
  std::vector<std::string> positionals;
  if (!table.Parse(argc, argv, &positionals)) return 2;
  const std::string verb = positionals.empty() ? "" : positionals[0];
  if ((verb != "write" && verb != "check") || positionals.size() < 2 ||
      parallelism < 1 || nodes < 1 || rate <= 0 || repeats < 1 ||
      duration <= 0.5 || options.threshold <= 0) {
    return table.Usage();
  }
  const std::string& target = positionals[1];

  std::vector<std::string> labels;
  if (verb == "write") {
    for (const Benchmark* b : SelectBenchmarks(
             target, /*all_structures=*/true, "baseline write")) {
      labels.push_back(b->name);
    }
    if (labels.empty()) return 2;
  } else if (target == "all") {
    // check all = every stored baseline file.
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".json") {
        labels.push_back(entry.path().stem().string());
      }
    }
    std::sort(labels.begin(), labels.end());
    if (labels.empty()) {
      std::fprintf(stderr, "no baselines under %s\n", dir.c_str());
      return 2;
    }
  } else {
    labels.push_back(target);
  }

  int failures = 0;
  size_t regressed_metrics = 0;
  Json all = Json::Array();
  for (const std::string& label : labels) {
    const std::string path = BaselineFilePath(dir, label);
    const auto fail = [&](const Status& status) {
      std::fprintf(stderr, "baseline %s %s: %s\n", verb.c_str(),
                   label.c_str(), status.ToString().c_str());
      ++failures;
    };
    if (verb == "write") {
      RunProtocol protocol;
      protocol.repeats = repeats;
      protocol.duration_s = duration;
      protocol.warmup_s = duration * 0.25;
      protocol.seed = seed;
      auto record = MeasureForLedger(label, rate, parallelism, cluster_name,
                                     nodes, protocol, ledger_path);
      if (!record.ok()) {
        fail(record.status());
        continue;
      }
      Status st = WriteTextFileAtomic(path, record->ToJson().Dump(2) + "\n");
      if (!st.ok()) {
        fail(st);
        continue;
      }
      std::printf("baseline %s: p50 %.2f ms, tput %.0f t/s -> %s\n",
                  label.c_str(), record->median_latency_s * 1e3,
                  record->throughput_tps, path.c_str());
      continue;
    }

    auto text = ReadTextFile(path);
    if (!text.ok()) {
      fail(text.status());
      continue;
    }
    auto parsed = Json::Parse(*text);
    Result<obs::RunRecord> base = Status::Internal("unparsed");
    if (parsed.ok()) base = obs::RunRecord::FromJson(*parsed);
    if (!parsed.ok() || !base.ok()) {
      fail(!parsed.ok() ? parsed.status() : base.status());
      continue;
    }
    // Re-measure with the baseline's recorded protocol so the comparison is
    // bit-for-bit re-executable: same seed, repeats, rate, parallelism and
    // cluster preset.
    RunProtocol protocol;
    protocol.repeats = base->repeats;
    protocol.duration_s = base->duration_s;
    protocol.warmup_s = base->warmup_s;
    if (!ParseNumber(base->seed, &protocol.seed)) {
      fail(Status::InvalidArgument("invalid recorded seed '" + base->seed +
                                   "'"));
      continue;
    }
    auto record =
        MeasureForLedger(base->label, base->event_rate, base->parallelism,
                         base->cluster, base->nodes, protocol, ledger_path);
    if (!record.ok()) {
      fail(record.status());
      continue;
    }
    const obs::ComparisonReport report =
        obs::CompareRecords(*base, *record, options);
    regressed_metrics += report.CountVerdict(obs::MetricVerdict::kRegressed);
    if (json) {
      all.Append(report.ToJson());
    } else {
      std::printf("%s", report.ToString().c_str());
    }
  }
  if (verb == "check" && json) {
    Json out = Json::Object();
    out.Set("baselines", std::move(all));
    out.Set("regressed", Json::Int(static_cast<int64_t>(regressed_metrics)));
    out.Set("failures", Json::Int(failures));
    std::printf("%s\n", out.Dump(2).c_str());
  }
  if (failures > 0) return 2;
  if (verb == "check" && regressed_metrics > 0) return 1;
  return 0;
}

// --- report subcommand ---------------------------------------------------

/// `report`: one self-contained HTML file (inline SVG, no JS) with
/// throughput, latency-percentile and latency-breakdown charts per app, a
/// sweep heatmap, critical paths from diagnosis.json bundles and, with
/// --against, a noise-aware comparison against a baseline ledger.
int ReportMain(int argc, char** argv) {
  std::string out_path = "report.html";
  obs::ReportOptions options;
  const FlagTable table{
      "pdspbench report <ledger.jsonl|artifact-dir|record.json>", 1,
      {{"out", &out_path, "PATH", "HTML file to write"},
       {"against", &options.against_path, "PATH",
        "baseline ledger or record to compare against"},
       {"app", &options.app_filter, "NAME", "keep one app's records"},
       {"limit", &options.limit, "N", "newest records per app (0 = all)"},
       {"title", &options.title, "S", "report title"},
       {"threshold", &options.compare.threshold, "F",
        "--against: minimum relative change that counts"},
       {"sigmas", &options.compare.noise_sigmas, "F",
        "--against: combined repeat stddevs a change must also exceed"}}};
  std::vector<std::string> positionals;
  if (!table.Parse(argc, argv, &positionals)) return 2;
  if (positionals.empty() || options.compare.threshold <= 0) {
    return table.Usage();
  }
  auto stats = obs::WriteReportFile(positionals[0], out_path, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "report: %s\n", stats.status().ToString().c_str());
    return 2;
  }
  std::printf("report: %zu records, %zu apps, %zu charts%s -> %s\n",
              stats->records, stats->apps, stats->charts,
              options.against_path.empty()
                  ? ""
                  : StrFormat(" (%zu labels compared)", stats->compared)
                        .c_str(),
              out_path.c_str());
  return 0;
}

// --- plain run and parallelism sweep -------------------------------------

/// \brief The plain run's and the sweep's flags.
struct Args {
  std::string app;
  std::string structure;
  double rate = 100000.0;
  /// --parallelism; more than one degree switches to sweep mode.
  std::vector<int> degrees = {8};
  /// Sweep worker threads (--jobs; 0 = one per hardware thread).
  int jobs = 1;
  std::string cluster = "m510";
  int nodes = 10;
  double duration = 5.0;
  uint64_t seed = 42;
  std::string placement = "least_loaded";
  std::string save;
  std::string load;
  std::string store_dir = "runs";
  std::string ledger;  ///< when set, append this run's RunRecord here
  /// --profile[=HZ]: sampling CPU profiler (bare flag keeps the default
  /// cadence). Profiling never perturbs virtual-time results.
  bool profile_set = false;
  double profile_hz = 97.0;
  /// --mem-profile[=KiB]: sampling allocation profiler (bare flag keeps the
  /// default 512 KiB sampling interval). Like --profile, it only observes
  /// host-side state, so virtual-time results stay bit-identical.
  bool mem_profile_set = false;
  double mem_interval_kib = 512.0;
  /// --artifacts=DIR: write per-run artifact bundles (metrics.json,
  /// profile.json, ...) under DIR (sweeps: DIR/<cell-label>/).
  std::string artifacts;
  /// --progress[=plain|rich|off|auto]: live sweep monitoring; without the
  /// flag (and without --progress-file) the monitor is off.
  std::string progress;
  bool progress_set = false;
  /// --progress-file=PATH: append every monitor snapshot here (JSONL).
  std::string progress_file;
  bool list = false;
  bool allow_invalid = false;
};

/// The run flags as a one-repeat measurement protocol: the sweep's cells
/// measure under it, and the plain run records its ledger entry with it.
RunProtocol MakeRunProtocol(const Args& args, PlacementKind placement) {
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = args.duration;
  protocol.warmup_s = args.duration * 0.2;
  protocol.seed = args.seed;
  protocol.placement = placement;
  protocol.label = !args.app.empty()         ? args.app
                   : !args.structure.empty() ? args.structure
                                             : args.load;
  protocol.allow_invalid = args.allow_invalid;
  if (!args.artifacts.empty()) {
    protocol.obs.enabled = true;
    protocol.obs.dir = args.artifacts;
  }
  if (!args.ledger.empty()) {
    protocol.ledger.enabled = true;
    protocol.ledger.path = args.ledger;
    protocol.ledger.cluster_name = args.cluster;
  }
  protocol.profile.enabled = args.profile_set;
  protocol.profile.hz = args.profile_hz;
  protocol.mem.enabled = args.mem_profile_set;
  protocol.mem.sample_interval_bytes =
      static_cast<int64_t>(args.mem_interval_kib * 1024.0);
  return protocol;
}

// `--parallelism=2,8,32` fans one cell per degree across --jobs workers via
// the exec sweep scheduler; per-cell results are bit-identical to --jobs=1.
// `benchmark` is null for a --load sweep. Exits 1 when a cell fails, 130
// after Ctrl-C.
int RunParallelismSweep(const Args& args, const Benchmark* benchmark,
                        const Cluster& cluster, const RunProtocol& protocol) {
  const std::string& selection = protocol.label;
  std::vector<exec::SweepCell> cells;
  for (int degree : args.degrees) {
    exec::SweepCell cell;
    if (benchmark != nullptr) {
      const double rate = args.rate;
      cell.make_plan = [benchmark, rate, degree] {
        return benchmark->make_plan(rate, degree);
      };
    } else {
      const std::string store_dir = args.store_dir;
      const std::string load_id = args.load;
      cell.make_plan = [store_dir, load_id,
                        degree]() -> Result<LogicalPlan> {
        RunStore store(store_dir);
        PDSP_ASSIGN_OR_RETURN(LogicalPlan plan, store.LoadPlan(load_id));
        PDSP_RETURN_NOT_OK(ApplyUniformParallelism(&plan, degree));
        return plan;
      };
    }
    cell.cluster = cluster;
    cell.protocol = protocol;
    cell.label = StrFormat("%s/p%d", selection.c_str(), degree);
    if (protocol.obs.enabled) {
      cell.protocol.obs.dir = args.artifacts + "/" + cell.label;
    }
    cells.push_back(std::move(cell));
  }

  exec::SweepOptions options;
  options.jobs = args.jobs;
  options.name = StrFormat("sweep/%s", selection.c_str());
  // Ctrl-C drains in-flight cells and still flushes completed-cell ledger
  // records plus the final monitor snapshot; we exit 130 below.
  options.install_sigint = true;
  if (args.progress_set || !args.progress_file.empty()) {
    auto mode = obs::ParseRenderMode(args.progress,
                                     isatty(fileno(stderr)) != 0);
    if (!mode.ok()) {
      std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
      return 2;
    }
    options.monitor.enabled = true;
    options.monitor.render = args.progress_set
                                 ? *mode
                                 : obs::MonitorOptions::RenderMode::kOff;
    options.monitor.jsonl_path = args.progress_file;
  }
  if (!args.ledger.empty()) {
    // One summary record per sweep invocation: parallelism = worker count,
    // host_wall_s = sweep wall clock. bench_gate.sh reads consecutive
    // summary pairs (jobs=1 vs jobs=N) to report the parallel speedup.
    options.summary_ledger.enabled = true;
    options.summary_ledger.path = args.ledger;
    options.summary_ledger.cluster_name = args.cluster;
  }
  const exec::SweepResult sweep = exec::RunSweep(cells, options);

  TableReporter table(
      StrFormat("%s: parallelism sweep (%s x%d, %.0f ev/s)",
                selection.c_str(), args.cluster.c_str(), args.nodes,
                args.rate),
      {"parallelism", "p50(ms)", "p95(ms)", "results/s", "late", "bp"});
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const int degree = args.degrees[i];
    const exec::SweepCellOutcome& outcome = sweep.cells[i];
    if (!outcome.result.ok()) {
      std::fprintf(stderr, "p=%d: %s\n", degree,
                   outcome.result.status().ToString().c_str());
      table.AddRow({StrFormat("%d", degree), "n/a", "n/a", "n/a", "n/a",
                    "n/a"});
      continue;
    }
    const CellResult& cell = *outcome.result;
    table.AddRow({StrFormat("%d", degree),
                  LatencyCell(cell.mean_median_latency_s),
                  LatencyCell(cell.p95_latency_s),
                  ThroughputCell(cell.mean_throughput_tps),
                  StrFormat("%lld", static_cast<long long>(cell.late_drops)),
                  StrFormat("%lld",
                            static_cast<long long>(
                                cell.backpressure_skipped))});
  }
  table.Print();
  if (args.profile_set) {
    for (size_t i = 0; i < sweep.cells.size(); ++i) {
      const exec::SweepCellOutcome& outcome = sweep.cells[i];
      if (!outcome.result.ok() || !outcome.result->has_profile) continue;
      const obs::prof::CpuProfile& p = outcome.result->profile;
      const obs::RunRecord& rec = outcome.result->ledger_record;
      std::printf("profile p=%d: %lld samples @ %.0f Hz, %.4fs CPU, "
                  "top operator %s (%.4fs)\n",
                  args.degrees[i], static_cast<long long>(p.samples), p.hz,
                  p.total_cpu_s,
                  rec.profile_top_operator.empty()
                      ? "(none)"
                      : rec.profile_top_operator.c_str(),
                  rec.profile_top_operator_cpu_s);
    }
  }
  if (args.mem_profile_set) {
    for (size_t i = 0; i < sweep.cells.size(); ++i) {
      const exec::SweepCellOutcome& outcome = sweep.cells[i];
      if (!outcome.result.ok() || !outcome.result->has_mem_profile) {
        continue;
      }
      const obs::mem::MemProfile& m = outcome.result->mem_profile;
      const obs::RunRecord& rec = outcome.result->ledger_record;
      std::printf("memory p=%d: %lld samples, %.1f MiB allocated, peak "
                  "heap %.1f MiB, top operator %s (%.1f MiB)\n",
                  args.degrees[i], static_cast<long long>(m.samples),
                  static_cast<double>(m.total_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(m.peak_heap_bytes) / (1024.0 * 1024.0),
                  rec.mem_top_operator.empty()
                      ? "(none)"
                      : rec.mem_top_operator.c_str(),
                  static_cast<double>(rec.mem_top_operator_bytes) /
                      (1024.0 * 1024.0));
    }
  }
  std::printf("sweep: %zu/%zu cells ok, jobs=%d, wall %.2fs\n",
              sweep.NumOk(), sweep.cells.size(), sweep.jobs, sweep.wall_s);
  if (options.monitor.enabled && !sweep.monitor.codes.empty()) {
    std::printf("monitor: %s", Join(sweep.monitor.codes, ", ").c_str());
    if (!sweep.monitor.straggler_cells.empty()) {
      std::printf(" (stragglers: %s)",
                  Join(sweep.monitor.straggler_cells, ", ").c_str());
    }
    std::printf("\n");
  }
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "sweep: interrupted — %zu/%zu cells completed, partial "
                 "results flushed\n",
                 sweep.NumOk(), sweep.cells.size());
    return 130;
  }
  return sweep.NumOk() == sweep.cells.size() ? 0 : 1;
}

// One run at a single degree (a --load run keeps the stored plan's),
// printing the plan, the measurement and per-operator stats. Exits 1 when
// the plan cannot be loaded, built, validated or run.
int RunOnce(const Args& args, const Benchmark* benchmark,
            const Cluster& cluster, const RunProtocol& protocol) {
  const Result<LogicalPlan> plan =
      benchmark != nullptr
          ? benchmark->make_plan(args.rate, args.degrees.front())
          : RunStore(args.store_dir).LoadPlan(args.load);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s: %s\n", benchmark != nullptr ? "plan" : "load",
                 plan.status().ToString().c_str());
    return 1;
  }

  // Static-analysis gate (loaded plans bypass PlanBuilder::Build, so the
  // check runs here for every selection path).
  if (Status check = analysis::CheckPlan(*plan, &cluster); !check.ok()) {
    if (args.allow_invalid) {
      std::fprintf(stderr, "warning: %s (continuing: --allow-invalid)\n",
                   check.ToString().c_str());
    } else {
      std::fprintf(stderr,
                   "%s\nrun `pdspbench analyze` for the full report, or "
                   "pass --allow-invalid to simulate anyway\n",
                   check.ToString().c_str());
      return 1;
    }
  }

  std::printf("plan:\n%s\n", plan->ToString().c_str());
  auto analytic = EstimateLatencyAnalytically(*plan, cluster);
  if (analytic.ok()) {
    std::printf("analytic estimate: %.1f ms (max utilization %.2f%s)\n\n",
                analytic->latency_s * 1e3, analytic->max_utilization,
                analytic->saturated ? ", SATURATED" : "");
  }

  ExecutionOptions exec;
  exec.placement = protocol.placement;
  exec.sim.duration_s = protocol.duration_s;
  exec.sim.warmup_s = protocol.warmup_s;
  exec.sim.seed = protocol.seed;

  // --profile: register this thread, sample it across the simulate phase.
  // The profiler only reads wall/CPU clocks, so virtual-time results stay
  // bit-identical to an unprofiled run.
  std::unique_ptr<obs::prof::ThreadRegistration> prof_registration;
  obs::prof::Profiler profiler(protocol.profile);
  if (args.profile_set || args.mem_profile_set) {
    prof_registration =
        std::make_unique<obs::prof::ThreadRegistration>("main");
  }
  if (args.profile_set) {
    if (Status st = profiler.Start(); !st.ok()) {
      std::fprintf(stderr, "profiler: %s\n", st.ToString().c_str());
    }
  }
  // --mem-profile: sample this thread's allocations across the simulate
  // phase, attributed to the same marker stack the CPU profiler reads.
  obs::mem::MemProfiler mem_profiler(protocol.mem);
  if (args.mem_profile_set) {
    if (Status st = mem_profiler.Start(); !st.ok()) {
      std::fprintf(stderr, "mem-profiler: %s\n", st.ToString().c_str());
    }
  }
  Result<SimResult> result = Status::Internal("unreachable");
  const auto run_start = std::chrono::steady_clock::now();
  {
    obs::prof::ProfScope app_scope(obs::prof::FrameKind::kApp,
                                   protocol.label);
    obs::PhaseScope phase(nullptr, nullptr, "simulate");
    result = ExecutePlan(*plan, cluster, exec);
  }
  const double run_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - run_start)
                                .count();
  obs::prof::CpuProfile profile;
  if (profiler.running()) profile = profiler.Stop();
  obs::mem::MemProfile mem_profile;
  if (mem_profiler.running()) mem_profile = mem_profiler.Stop();
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("measured: %s\n\n", result->Summary().c_str());
  if (args.profile_set && !profile.empty()) {
    std::printf("cpu profile: %lld samples @ %.0f Hz, %.4fs CPU "
                "(sampler %.4fs, %lld dropped)\n",
                static_cast<long long>(profile.samples), profile.hz,
                profile.total_cpu_s, profile.sampler_cpu_s,
                static_cast<long long>(profile.dropped));
    for (const obs::prof::FrameTotal& op : profile.operators) {
      if (op.name == "(none)") continue;
      std::printf("  %-20s %9.4fs %6lld samples\n", op.name.c_str(),
                  op.cpu_s, static_cast<long long>(op.samples));
    }
    std::printf("\n");
  }
  if (args.mem_profile_set && !mem_profile.empty()) {
    std::printf("mem profile: %lld samples (1/%lld KiB), %.1f MiB "
                "allocated, %.1f MiB live, peak heap %.1f MiB\n",
                static_cast<long long>(mem_profile.samples),
                static_cast<long long>(
                    mem_profile.sample_interval_bytes / 1024),
                static_cast<double>(mem_profile.total_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(mem_profile.live_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(mem_profile.peak_heap_bytes) /
                    (1024.0 * 1024.0));
    for (const obs::mem::MemFrameTotal& op : mem_profile.operators) {
      std::printf("  %-20s %9.2f MiB %6lld samples%s\n", op.name.c_str(),
                  static_cast<double>(op.total_bytes) / (1024.0 * 1024.0),
                  static_cast<long long>(op.samples),
                  op.tuples > 0
                      ? StrFormat(" (%.1f B/tuple)", op.bytes_per_tuple)
                            .c_str()
                      : "");
    }
    std::printf("\n");
  }
  if (!args.artifacts.empty()) {
    obs::ArtifactOptions bundle;
    bundle.sim_options = &exec.sim;
    bundle.cpu_profile = profile.empty() ? nullptr : &profile;
    bundle.mem_profile = mem_profile.empty() ? nullptr : &mem_profile;
    Status st = obs::WriteRunArtifacts(args.artifacts, *result, bundle);
    if (st.ok()) {
      std::printf("artifacts: wrote bundle to %s/\n\n",
                  args.artifacts.c_str());
    } else {
      std::fprintf(stderr, "artifacts: %s\n", st.ToString().c_str());
    }
  }
  if (!args.ledger.empty()) {
    // Single ad-hoc run, so the "mean of repeats" collapses to one sample;
    // the record still carries full provenance (plan hash, seed, build)
    // and points at the bundle above.
    CellResult cell;
    cell.mean_median_latency_s = result->median_latency_s;
    cell.mean_throughput_tps = result->throughput_tps;
    cell.p95_latency_s = result->p95_latency_s;
    cell.p99_latency_s = result->p99_latency_s;
    cell.median_latency_stats.Add(result->median_latency_s);
    cell.throughput_stats.Add(result->throughput_tps);
    cell.late_drops = result->late_drops;
    cell.backpressure_skipped = result->backpressure_skipped;
    if (!profile.empty()) {
      cell.profile = profile;
      cell.has_profile = true;
    }
    if (!mem_profile.empty()) {
      cell.mem_profile = mem_profile;
      cell.has_mem_profile = true;
    }
    obs::RunRecord record =
        MakeLedgerRecord(*plan, cluster, protocol, cell, run_wall_s);
    Status appended = obs::RunLedger(args.ledger).Append(record);
    if (appended.ok()) {
      std::printf("ledger: appended %s to %s\n\n", record.run_id.c_str(),
                  args.ledger.c_str());
    } else {
      std::fprintf(stderr, "ledger: %s\n", appended.ToString().c_str());
    }
  }
  if (!args.save.empty()) {
    RunStore store(args.store_dir);
    Status saved = store.SaveRun(args.save, *plan, cluster, *result);
    if (saved.ok()) {
      std::printf("saved run '%s' to %s/\n\n", args.save.c_str(),
                  args.store_dir.c_str());
    } else {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    }
  }
  std::printf("%-16s %-5s %-10s %-10s %-7s %-7s %-9s\n", "operator", "p",
              "in", "out", "util", "max", "late");
  for (const OperatorRunStats& op : result->op_stats) {
    std::printf("%-16s %-5d %-10lld %-10lld %-7.2f %-7.2f %-9lld\n",
                op.name.c_str(), op.parallelism,
                static_cast<long long>(op.tuples_in),
                static_cast<long long>(op.tuples_out), op.utilization,
                op.max_instance_util,
                static_cast<long long>(op.late_drops));
  }
  return 0;
}

struct Subcommand {
  const char* name;
  int (*main)(int argc, char** argv);
};

constexpr Subcommand kSubcommands[] = {
    {"analyze", AnalyzeMain}, {"diagnose", DiagnoseMain},
    {"history", HistoryMain}, {"compare", CompareMain},
    {"baseline", BaselineMain}, {"report", ReportMain},
};

}  // namespace

int Main(int argc, char** argv) {
  // Stored plans may reference application UDO kinds; make them resolvable
  // regardless of how the plan is selected (and so the udo-checks analysis
  // pass sees the full kind registry).
  RegisterAppUdos();
  std::string commands;
  for (const Subcommand& sub : kSubcommands) {
    if (argc > 1 && std::string_view(argv[1]) == sub.name) {
      return sub.main(argc - 1, argv + 1);
    }
    commands += commands.empty() ? "" : "|";
    commands += sub.name;
  }
  Args args;
  const FlagTable table{
      StrFormat("pdspbench (%s) ...   (each prints its flags on a usage "
                "error)\n"
                "       pdspbench (--app=ABBREV | --structure=NAME | "
                "--load=ID | --list)",
                commands.c_str()),
      0,
      {{"app", &args.app, "ABBREV",
        "one of the Table 2 applications (WC, SG, ...)"},
       {"structure", &args.structure, "NAME",
        "one of the synthetic structures (linear, join2, ...)"},
       {"load", &args.load, "ID", "re-execute a plan stored under --store"},
       {"list", &args.list, "print the available apps and structures"},
       {"rate", &args.rate, "N", "per-source event rate (events/s)"},
       {"parallelism", &args.degrees, "N[,N...]",
        "degree for all operators; a comma list sweeps the degrees"},
       {"jobs", &args.jobs, "N",
        "sweep worker threads (0 = one per hardware thread)"},
       {"cluster", &args.cluster, "NAME", kClusterHelp},
       {"nodes", &args.nodes, "N", "cluster size"},
       {"duration", &args.duration, "S",
        "generation horizon in seconds (> 0.5)"},
       {"seed", &args.seed, "N", "simulation seed"},
       {"placement", &args.placement, "NAME",
        "round_robin | least_loaded | locality | random"},
       {"allow-invalid", &args.allow_invalid,
        "simulate even when static analysis finds errors"},
       {"save", &args.save, "ID",
        "store the plan and its metrics under --store"},
       {"store", &args.store_dir, "DIR", "run store directory"},
       {"ledger", &args.ledger, "PATH",
        "append a provenance record (sweeps: per cell, plus a summary)"},
       {"artifacts", &args.artifacts, "DIR",
        "write artifact bundles under DIR (sweeps: DIR/<cell>/)"},
       {"profile", &args.profile_hz, "HZ",
        "sample CPU per operator while simulating", &args.profile_set},
       {"mem-profile", &args.mem_interval_kib, "KiB",
        "sample allocations, one per KiB on average", &args.mem_profile_set},
       {"progress", &args.progress, "MODE",
        "sweeps: live monitoring, plain | rich | off | auto (bare: auto); "
        "emits PDSP-M### findings",
        &args.progress_set},
       {"progress-file", &args.progress_file, "PATH",
        "sweeps: append monitor snapshots to PATH (JSONL)"}}};
  if (!table.Parse(argc, argv)) return 2;
  if (args.list) {
    PrintCatalog();
    return 0;
  }
  const int selectors = (!args.app.empty() ? 1 : 0) +
                        (!args.structure.empty() ? 1 : 0) +
                        (!args.load.empty() ? 1 : 0);
  if (selectors != 1) {
    std::fprintf(stderr,
                 "pass exactly one of --app / --structure / --load\n");
    return table.Usage();
  }
  bool degrees_ok = true;
  for (int d : args.degrees) degrees_ok = degrees_ok && d >= 1;
  if (args.rate <= 0 || !degrees_ok || args.nodes < 1 ||
      args.duration <= 0.5 || (args.profile_set && args.profile_hz <= 0) ||
      (args.mem_profile_set && args.mem_interval_kib <= 0)) {
    std::fprintf(stderr, "bad numeric flags\n");
    return table.Usage();
  }
  // The sampling interval in bytes must fit int64_t (below 2^63); a wider
  // value would convert to a meaningless interval.
  if (args.mem_profile_set && args.mem_interval_kib * 1024.0 >= 0x1p63) {
    std::fprintf(stderr,
                 "invalid value %g for --mem-profile: the interval exceeds "
                 "2^63 bytes\n",
                 args.mem_interval_kib);
    return 2;
  }

  auto cluster = MakeCluster(args.cluster, args.nodes);
  auto placement = MakePlacement(args.placement);
  if (!cluster.ok() || !placement.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!cluster.ok() ? cluster.status() : placement.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  const Benchmark* benchmark = nullptr;  // null: a --load run
  if (args.load.empty()) {
    const bool app = !args.app.empty();
    const std::string& name = app ? args.app : args.structure;
    benchmark = FindBenchmark(name, /*apps=*/app, /*structures=*/!app);
    if (benchmark == nullptr) {
      std::fprintf(stderr, "unknown %s '%s' (use --list)\n",
                   app ? "app" : "structure", name.c_str());
      return 2;
    }
  }
  const RunProtocol protocol = MakeRunProtocol(args, *placement);
  if (args.degrees.size() > 1) {
    return RunParallelismSweep(args, benchmark, *cluster, protocol);
  }
  return RunOnce(args, benchmark, *cluster, protocol);
}

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }
