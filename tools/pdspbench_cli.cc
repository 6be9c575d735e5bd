// pdspbench — command-line front end, the library's equivalent of the
// paper's web UI + controller: pick an application or synthetic structure,
// an event rate, a parallelism degree and a cluster, and get the measured
// performance.
//
//   pdspbench --app=SG --rate=200000 --parallelism=16 --cluster=c6525
//   pdspbench --structure=join2 --rate=100000 --parallelism=8
//   pdspbench --list
//   pdspbench analyze all
//   pdspbench analyze SG --json
//
// Flags:
//   --app=<abbrev>        one of the Table 2 applications (WC, SG, ...)
//   --structure=<name>    one of the synthetic structures (linear, join2...)
//   --rate=<events/s>     per-source event rate          [default 100000]
//   --parallelism=<n>     degree for all operators       [default 8]
//                         a comma list (e.g. 2,8,32) sweeps the degrees
//   --jobs=<n>            sweep worker threads (0 = all cores) [default 1]
//   --progress[=mode]     live sweep monitoring: plain | rich | off | auto
//                         (bare --progress = auto: rich on a TTY, plain
//                         otherwise); emits PDSP-M### watchdog findings
//   --progress-file=<p>   append monitor snapshots to <p> (JSONL)
//   --profile[=HZ]        sample real CPU per operator while simulating
//                         (sampling profiler, default 97 Hz; results in
//                         profile.json + the ledger record; virtual-time
//                         outputs stay bit-identical)
//   --artifacts=<dir>     write per-run artifact bundles under <dir>
//                         (sweeps: <dir>/<cell-label>/)
//   --cluster=<name>      m510 | c6525 | c6320 | mixed   [default m510]
//   --nodes=<n>           cluster size                   [default 10]
//   --duration=<s>        generation horizon             [default 5]
//   --seed=<n>            simulation seed                [default 42]
//   --placement=<name>    round_robin|least_loaded|locality|random
//   --save=<id>           persist plan + metrics into --store
//   --load=<id>           re-execute a stored plan instead of --app/--structure
//   --store=<dir>         run store directory            [default ./runs]
//   --allow-invalid       simulate even when static analysis finds errors
//   --list                print available apps and structures
//
// The `analyze` subcommand runs the pdsp::analysis lint passes over
// registered benchmark plans without simulating them:
//   pdspbench analyze <abbrev|structure|all> [--json] [--strict]
//                     [--cluster=NAME] [--nodes=N] [--parallelism=N]
//                     [--rate=N] [--list-passes]
// Exit status: 0 when no error-severity diagnostics were found (with
// --strict: no warnings either), 1 otherwise — CI runs `analyze all`.
//
// The `diagnose` subcommand simulates a plan, then runs the runtime
// bottleneck diagnosis (pdsp::obs::DiagnoseRun): latency breakdown,
// weighted critical path and PDSP-R### findings with fix hints:
//   pdspbench diagnose <abbrev|structure|all> [--parallelism=N] [--rate=N]
//                      [--cluster=NAME] [--nodes=N] [--duration=S]
//                      [--seed=N] [--json] [--explain]
// Exit status: 0 when no error-severity runtime diagnostics (saturation)
// were found, 1 otherwise.
//
// Provenance / regression subcommands over the run ledger
// (results/ledger.jsonl by default; see src/obs/ledger.h):
//   pdspbench history [<label>|all] [--ledger=PATH] [--app=NAME]
//                     [--limit=N] [--json] [--format=table|csv]
//   pdspbench report <ledger|dir|record.json> [--out=PATH] [--against=PATH]
//                     [--app=NAME] [--limit=N] — self-contained HTML report
//   pdspbench compare <baseline> <candidate> [--ledger=PATH]
//                     [--threshold=F] [--sigmas=F] [--json]
//     Record specs: a label (latest run), label~N (N-back), a run id or a
//     unique >=4-char run-id prefix. Exit 1 when any metric regressed.
//   pdspbench baseline write (<abbrev>|<structure>|all) [--dir=DIR] ...
//   pdspbench baseline check (<abbrev>|<structure>|all) [--dir=DIR]
//                     [--threshold=F] [--json]
//     write: measures the target(s) and stores the RunRecord under
//     bench/baselines/<label>.json (also appended to the ledger).
//     check: re-measures with the baseline's recorded protocol (same seed,
//     repeats, rate, parallelism, cluster) and compares; exit 1 on
//     regression beyond threshold — tools/bench_gate.sh's core.
// The plain run mode accepts --ledger=PATH to append its own RunRecord.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/properties.h"
#include "src/apps/apps.h"
#include "src/common/file_util.h"
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

struct Args {
  std::string app;
  std::string structure;
  double rate = 100000.0;
  int parallelism = 8;
  /// All degrees from --parallelism; more than one switches to sweep mode.
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
  /// --progress[=plain|rich|off|auto]: live sweep monitoring. Empty means
  /// the flag was not given at all (monitor fully off).
  std::string progress;
  bool progress_set = false;
  /// --progress-file=PATH: append every monitor snapshot here (JSONL).
  std::string progress_file;
  bool list = false;
  bool allow_invalid = false;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

/// Reads the value of numeric flag --`name`: all of `value` must be one
/// number that fits T (and, for floating point, is finite). Otherwise
/// prints a message naming the flag and returns false; callers then exit
/// with the usage status 2.
template <typename T>
bool ParseNumber(const char* name, const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (!ok) {
    std::fprintf(stderr, "invalid value '%s' for --%s\n", value.c_str(),
                 name);
    return false;
  }
  *out = parsed;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pdspbench (--app=<abbrev> | --structure=<name>) "
               "[--rate=N] [--parallelism=N[,N...]]\n"
               "                 [--jobs=N] "
               "[--cluster=m510|c6525|c6320|mixed] "
               "[--nodes=N] [--duration=S] [--seed=N]\n"
               "                 [--placement=NAME] [--allow-invalid] | "
               "--list\n"
               "       pdspbench analyze (<abbrev>|<structure>|all) "
               "[--json] [--strict] | analyze --list-passes\n"
               "       pdspbench diagnose (<abbrev>|<structure>|all) "
               "[--parallelism=N] [--json] [--explain]\n"
               "       pdspbench history [<label>|all] [--ledger=PATH] "
               "[--app=NAME] [--limit=N] [--json]\n"
               "                 [--format=table|csv]\n"
               "       pdspbench report <ledger|dir|record.json> "
               "[--out=PATH] [--against=PATH] [--app=NAME]\n"
               "                 [--limit=N] [--title=S] [--threshold=F] "
               "[--sigmas=F]\n"
               "       pdspbench compare <runA> <runB> [--ledger=PATH] "
               "[--threshold=F] [--sigmas=F] [--json]\n"
               "       pdspbench baseline (write|check) "
               "(<abbrev>|<structure>|all) [--dir=PATH] [--threshold=F]\n"
               "  (plain runs accept --ledger=PATH to append a provenance "
               "record; sweeps accept\n"
               "   --progress[=plain|rich|off] and --progress-file=PATH for "
               "live monitoring;\n"
               "   both accept --profile[=HZ] for CPU sampling, "
               "--mem-profile[=KiB] for allocation\n"
               "   sampling and --artifacts=DIR for bundles)\n");
  return 2;
}

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

// --- analyze subcommand --------------------------------------------------

struct AnalyzeTarget {
  std::string name;   // abbrev or structure name
  std::string title;  // human description
  Result<LogicalPlan> plan = Status::Internal("not built");
};

Result<LogicalPlan> BuildAppPlan(AppId id, double rate, int parallelism) {
  AppOptions opt;
  opt.event_rate = rate;
  opt.parallelism = parallelism;
  return MakeApp(id, opt);
}

Result<LogicalPlan> BuildStructurePlan(SyntheticStructure s, double rate,
                                       int parallelism) {
  CanonicalOptions opt;
  opt.event_rate = rate;
  opt.parallelism = parallelism;
  return MakeCanonicalSynthetic(s, opt);
}

int AnalyzeUsage() {
  std::fprintf(stderr,
               "usage: pdspbench analyze (<app-abbrev>|<structure>|all) "
               "[--json] [--strict] [--dataflow]\n"
               "                 [--cluster=m510|c6525|c6320|mixed] "
               "[--nodes=N] [--parallelism=N]\n"
               "                 [--rate=N] | analyze --list-passes\n"
               "  --dataflow  print the derived property table "
               "(partitioning, rate intervals, determinism)\n");
  return 2;
}

int AnalyzeMain(int argc, char** argv) {
  std::string target;
  std::string cluster_name = "m510";
  int nodes = 10;
  int parallelism = 1;
  double rate = 100000.0;
  bool json = false;
  bool strict = false;
  bool list_passes = false;
  bool dataflow = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--list-passes") == 0) {
      list_passes = true;
    } else if (std::strcmp(argv[i], "--dataflow") == 0) {
      dataflow = true;
    } else if (ParseArg(argv[i], "cluster", &cluster_name)) {
    } else if (ParseArg(argv[i], "nodes", &value)) {
      if (!ParseNumber("nodes", value, &nodes)) return 2;
    } else if (ParseArg(argv[i], "parallelism", &value)) {
      if (!ParseNumber("parallelism", value, &parallelism)) return 2;
    } else if (ParseArg(argv[i], "rate", &value)) {
      if (!ParseNumber("rate", value, &rate)) return 2;
    } else if (argv[i][0] != '-' && target.empty()) {
      target = argv[i];
    } else {
      std::fprintf(stderr, "unknown analyze argument: %s\n", argv[i]);
      return AnalyzeUsage();
    }
  }
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
  if (target.empty() || nodes < 1 || parallelism < 1 || rate <= 0) {
    return AnalyzeUsage();
  }
  auto cluster = MakeCluster(cluster_name, nodes);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 2;
  }

  std::vector<AnalyzeTarget> targets;
  if (target == "all") {
    for (const AppInfo& info : AllApps()) {
      targets.push_back({info.abbrev, info.name,
                         BuildAppPlan(info.id, rate, parallelism)});
    }
    for (SyntheticStructure s : AllSyntheticStructures()) {
      targets.push_back({SyntheticStructureToString(s),
                         std::string("synthetic ") +
                             SyntheticStructureToString(s),
                         BuildStructurePlan(s, rate, parallelism)});
    }
  } else if (auto id = FindAppByAbbrev(target); id.ok()) {
    targets.push_back({target, GetAppInfo(*id).name,
                       BuildAppPlan(*id, rate, parallelism)});
  } else {
    bool found = false;
    for (SyntheticStructure s : AllSyntheticStructures()) {
      if (target == SyntheticStructureToString(s)) {
        targets.push_back({target,
                           std::string("synthetic ") + target,
                           BuildStructurePlan(s, rate, parallelism)});
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "unknown analyze target '%s' (use --list for the "
                   "catalog)\n",
                   target.c_str());
      return 2;
    }
  }

  analysis::AnalyzeOptions options;
  options.cluster = &*cluster;
  size_t total_errors = 0;
  size_t total_warnings = 0;
  Json all = Json::Array();
  for (AnalyzeTarget& t : targets) {
    if (!t.plan.ok()) {
      // The plan factory itself refused (Build()'s error gate or a latched
      // builder error) — report it as a failed target.
      ++total_errors;
      if (json) {
        Json j = Json::Object();
        j.Set("plan", Json::Str(t.name));
        j.Set("build_error", Json::Str(t.plan.status().ToString()));
        all.Append(std::move(j));
      } else {
        std::printf("== %s (%s) ==\nbuild failed: %s\n\n", t.name.c_str(),
                    t.title.c_str(), t.plan.status().ToString().c_str());
      }
      continue;
    }
    const analysis::AnalysisReport report =
        analysis::AnalyzePlan(*t.plan, options);
    const size_t errors = report.NumErrors();
    total_errors += errors;
    total_warnings +=
        report.CountAtLeast(analysis::Severity::kWarning) - errors;
    if (json) {
      Json j = Json::Object();
      j.Set("plan", Json::Str(t.name));
      j.Set("report", report.ToJson());
      if (dataflow) {
        const analysis::AnalysisContext ctx =
            analysis::AnalysisContext::Make(*t.plan, &*cluster);
        j.Set("properties", ctx.props->ToJson(*t.plan));
      }
      all.Append(std::move(j));
    } else {
      std::printf("== %s (%s) ==\n%s\n", t.name.c_str(), t.title.c_str(),
                  report.ToString().c_str());
      if (dataflow) {
        const analysis::AnalysisContext ctx =
            analysis::AnalysisContext::Make(*t.plan, &*cluster);
        std::printf("derived properties:\n%s\n",
                    ctx.props->ToString(*t.plan).c_str());
      }
    }
  }
  if (json) {
    Json out = Json::Object();
    out.Set("plans", std::move(all));
    out.Set("errors", Json::Int(static_cast<int64_t>(total_errors)));
    out.Set("warnings", Json::Int(static_cast<int64_t>(total_warnings)));
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    std::printf("analyzed %zu plan%s: %zu error%s, %zu warning%s\n",
                targets.size(), targets.size() == 1 ? "" : "s",
                total_errors, total_errors == 1 ? "" : "s", total_warnings,
                total_warnings == 1 ? "" : "s");
  }
  if (total_errors > 0) return 1;
  if (strict && total_warnings > 0) return 1;
  return 0;
}

// --- diagnose subcommand -------------------------------------------------

int DiagnoseUsage() {
  std::fprintf(stderr,
               "usage: pdspbench diagnose (<app-abbrev>|<structure>|all) "
               "[--parallelism=N] [--rate=N]\n"
               "                 [--cluster=m510|c6525|c6320|mixed] "
               "[--nodes=N] [--duration=S] [--seed=N]\n"
               "                 [--json] [--explain]\n");
  return 2;
}

int DiagnoseMain(int argc, char** argv) {
  std::string target;
  std::string cluster_name = "m510";
  int nodes = 10;
  int parallelism = 8;
  double rate = 100000.0;
  double duration = 3.0;
  uint64_t seed = 42;
  bool json = false;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (ParseArg(argv[i], "cluster", &cluster_name)) {
    } else if (ParseArg(argv[i], "nodes", &value)) {
      if (!ParseNumber("nodes", value, &nodes)) return 2;
    } else if (ParseArg(argv[i], "parallelism", &value)) {
      if (!ParseNumber("parallelism", value, &parallelism)) return 2;
    } else if (ParseArg(argv[i], "rate", &value)) {
      if (!ParseNumber("rate", value, &rate)) return 2;
    } else if (ParseArg(argv[i], "duration", &value)) {
      if (!ParseNumber("duration", value, &duration)) return 2;
    } else if (ParseArg(argv[i], "seed", &value)) {
      if (!ParseNumber("seed", value, &seed)) return 2;
    } else if (argv[i][0] != '-' && target.empty()) {
      target = argv[i];
    } else {
      std::fprintf(stderr, "unknown diagnose argument: %s\n", argv[i]);
      return DiagnoseUsage();
    }
  }
  if (target.empty() || nodes < 1 || parallelism < 1 || rate <= 0 ||
      duration <= 0.5) {
    return DiagnoseUsage();
  }
  auto cluster = MakeCluster(cluster_name, nodes);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 2;
  }

  std::vector<AnalyzeTarget> targets;
  if (target == "all") {
    for (const AppInfo& info : AllApps()) {
      targets.push_back({info.abbrev, info.name,
                         BuildAppPlan(info.id, rate, parallelism)});
    }
  } else if (auto id = FindAppByAbbrev(target); id.ok()) {
    targets.push_back({target, GetAppInfo(*id).name,
                       BuildAppPlan(*id, rate, parallelism)});
  } else {
    bool found = false;
    for (SyntheticStructure s : AllSyntheticStructures()) {
      if (target == SyntheticStructureToString(s)) {
        targets.push_back({target, std::string("synthetic ") + target,
                           BuildStructurePlan(s, rate, parallelism)});
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "unknown diagnose target '%s' (use --list for the "
                   "catalog)\n",
                   target.c_str());
      return 2;
    }
  }

  size_t total_errors = 0;
  size_t total_warnings = 0;
  Json all = Json::Array();
  for (AnalyzeTarget& t : targets) {
    if (!t.plan.ok()) {
      ++total_errors;
      if (json) {
        Json j = Json::Object();
        j.Set("plan", Json::Str(t.name));
        j.Set("error", Json::Str(t.plan.status().ToString()));
        all.Append(std::move(j));
      } else {
        std::printf("== %s (%s) ==\nbuild failed: %s\n\n", t.name.c_str(),
                    t.title.c_str(), t.plan.status().ToString().c_str());
      }
      continue;
    }
    ExecutionOptions exec;
    exec.sim.duration_s = duration;
    exec.sim.warmup_s = duration * 0.2;
    exec.sim.seed = seed;
    exec.sim.attribute_latency = true;
    auto run = ExecutePlan(*t.plan, *cluster, exec);
    if (!run.ok()) {
      ++total_errors;
      if (json) {
        Json j = Json::Object();
        j.Set("plan", Json::Str(t.name));
        j.Set("error", Json::Str(run.status().ToString()));
        all.Append(std::move(j));
      } else {
        std::printf("== %s (%s) ==\nrun failed: %s\n\n", t.name.c_str(),
                    t.title.c_str(), run.status().ToString().c_str());
      }
      continue;
    }
    auto diag = obs::DiagnoseRun(*t.plan, *cluster, *run);
    if (!diag.ok()) {
      ++total_errors;
      if (json) {
        Json j = Json::Object();
        j.Set("plan", Json::Str(t.name));
        j.Set("error", Json::Str(diag.status().ToString()));
        all.Append(std::move(j));
      } else {
        std::printf("== %s (%s) ==\ndiagnosis failed: %s\n\n",
                    t.name.c_str(), t.title.c_str(),
                    diag.status().ToString().c_str());
      }
      continue;
    }
    const size_t errors = diag->report.NumErrors();
    total_errors += errors;
    total_warnings +=
        diag->report.CountAtLeast(analysis::Severity::kWarning) - errors;
    if (json) {
      Json j = Json::Object();
      j.Set("plan", Json::Str(t.name));
      j.Set("median_latency_s", Json::Number(run->median_latency_s));
      j.Set("throughput_tps", Json::Number(run->throughput_tps));
      j.Set("diagnosis", diag->ToJson());
      all.Append(std::move(j));
    } else {
      std::printf("== %s (%s) ==\nmeasured: %s\n%s\n", t.name.c_str(),
                  t.title.c_str(), run->Summary().c_str(),
                  explain ? diag->Explain(*run).c_str()
                          : diag->ToString().c_str());
    }
  }
  if (json) {
    Json out = Json::Object();
    out.Set("plans", std::move(all));
    out.Set("errors", Json::Int(static_cast<int64_t>(total_errors)));
    out.Set("warnings", Json::Int(static_cast<int64_t>(total_warnings)));
    std::printf("%s\n", out.Dump(2).c_str());
  } else {
    std::printf("diagnosed %zu plan%s: %zu error%s, %zu warning%s\n",
                targets.size(), targets.size() == 1 ? "" : "s", total_errors,
                total_errors == 1 ? "" : "s", total_warnings,
                total_warnings == 1 ? "" : "s");
  }
  return total_errors > 0 ? 1 : 0;
}

// --- history / compare / baseline subcommands ----------------------------

constexpr char kDefaultLedgerPath[] = "results/ledger.jsonl";
constexpr char kDefaultBaselineDir[] = "bench/baselines";

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

int HistoryUsage() {
  std::fprintf(stderr,
               "usage: pdspbench history [<label>|all] [--ledger=PATH] "
               "[--app=NAME] [--limit=N]\n"
               "                 [--json] [--format=table|csv]\n"
               "  --app filters by the label's app part (label up to the "
               "first '/'),\n"
               "  so 'history --app=WC' matches WC, WC/p4, WC/p8, ...\n"
               "  --format=csv streams the selection as RFC-4180 CSV (one "
               "header row) for\n"
               "  spreadsheets and scripts; --json keeps the full records.\n");
  return 2;
}

int HistoryMain(int argc, char** argv) {
  std::string target;
  std::string ledger_path = kDefaultLedgerPath;
  std::string app_filter;
  std::string format = "table";
  size_t limit = 20;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (ParseArg(argv[i], "ledger", &ledger_path)) {
    } else if (ParseArg(argv[i], "app", &app_filter)) {
    } else if (ParseArg(argv[i], "format", &format)) {
    } else if (ParseArg(argv[i], "limit", &value)) {
      if (!ParseNumber("limit", value, &limit)) return 2;
    } else if (argv[i][0] != '-' && target.empty()) {
      target = argv[i];
    } else {
      std::fprintf(stderr, "unknown history argument: %s\n", argv[i]);
      return HistoryUsage();
    }
  }
  if (target.empty()) target = "all";  // --app alone scopes large ledgers
  if (limit < 1 || (format != "table" && format != "csv")) {
    return HistoryUsage();
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

int CompareUsage() {
  std::fprintf(stderr,
               "usage: pdspbench compare <baseline> <candidate> "
               "[--ledger=PATH] [--threshold=F]\n"
               "                 [--sigmas=F] [--json]\n"
               "  record specs: label | label~N | run id | unique >=4-char "
               "run-id prefix\n");
  return 2;
}

int CompareMain(int argc, char** argv) {
  std::vector<std::string> specs;
  std::string ledger_path = kDefaultLedgerPath;
  obs::CompareOptions options;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (ParseArg(argv[i], "ledger", &ledger_path)) {
    } else if (ParseArg(argv[i], "threshold", &value)) {
      if (!ParseNumber("threshold", value, &options.threshold)) return 2;
    } else if (ParseArg(argv[i], "sigmas", &value)) {
      if (!ParseNumber("sigmas", value, &options.noise_sigmas)) return 2;
    } else if (argv[i][0] != '-') {
      specs.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown compare argument: %s\n", argv[i]);
      return CompareUsage();
    }
  }
  if (specs.size() != 2 || options.threshold <= 0) return CompareUsage();
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

int BaselineUsage() {
  std::fprintf(stderr,
               "usage: pdspbench baseline write (<abbrev>|<structure>|all) "
               "[--dir=DIR] [--ledger=PATH]\n"
               "                 [--parallelism=N] [--rate=N] "
               "[--cluster=NAME] [--nodes=N] [--repeats=N]\n"
               "                 [--duration=S] [--seed=N]\n"
               "       pdspbench baseline check (<abbrev>|<structure>|all) "
               "[--dir=DIR] [--ledger=PATH]\n"
               "                 [--threshold=F] [--sigmas=F] [--json]\n");
  return 2;
}

Result<LogicalPlan> BuildPlanByLabel(const std::string& label, double rate,
                                     int parallelism) {
  if (auto id = FindAppByAbbrev(label); id.ok()) {
    return BuildAppPlan(*id, rate, parallelism);
  }
  for (SyntheticStructure s : AllSyntheticStructures()) {
    if (label == SyntheticStructureToString(s)) {
      return BuildStructurePlan(s, rate, parallelism);
    }
  }
  return Status::NotFound("unknown app/structure '" + label + "'");
}

std::string BaselineFilePath(const std::string& dir,
                             const std::string& label) {
  std::string name = label;
  std::replace(name.begin(), name.end(), '/', '_');
  return dir + "/" + name + ".json";
}

/// Measures `label` under `protocol` and returns the cell's ledger record.
Result<obs::RunRecord> MeasureForLedger(const std::string& label,
                                        double rate, int parallelism,
                                        const Cluster& cluster,
                                        RunProtocol protocol) {
  Result<LogicalPlan> plan = BuildPlanByLabel(label, rate, parallelism);
  PDSP_RETURN_NOT_OK(plan.status());
  protocol.label = label;
  PDSP_ASSIGN_OR_RETURN(CellResult cell,
                        MeasureCell(*plan, cluster, protocol));
  return cell.ledger_record;
}

int BaselineMain(int argc, char** argv) {
  std::string verb;
  std::string target;
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
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (ParseArg(argv[i], "dir", &dir) ||
               ParseArg(argv[i], "ledger", &ledger_path) ||
               ParseArg(argv[i], "cluster", &cluster_name)) {
    } else if (ParseArg(argv[i], "nodes", &value)) {
      if (!ParseNumber("nodes", value, &nodes)) return 2;
    } else if (ParseArg(argv[i], "parallelism", &value)) {
      if (!ParseNumber("parallelism", value, &parallelism)) return 2;
    } else if (ParseArg(argv[i], "rate", &value)) {
      if (!ParseNumber("rate", value, &rate)) return 2;
    } else if (ParseArg(argv[i], "repeats", &value)) {
      if (!ParseNumber("repeats", value, &repeats)) return 2;
    } else if (ParseArg(argv[i], "duration", &value)) {
      if (!ParseNumber("duration", value, &duration)) return 2;
    } else if (ParseArg(argv[i], "seed", &value)) {
      if (!ParseNumber("seed", value, &seed)) return 2;
    } else if (ParseArg(argv[i], "threshold", &value)) {
      if (!ParseNumber("threshold", value, &options.threshold)) return 2;
    } else if (ParseArg(argv[i], "sigmas", &value)) {
      if (!ParseNumber("sigmas", value, &options.noise_sigmas)) return 2;
    } else if (argv[i][0] != '-' && verb.empty()) {
      verb = argv[i];
    } else if (argv[i][0] != '-' && target.empty()) {
      target = argv[i];
    } else {
      std::fprintf(stderr, "unknown baseline argument: %s\n", argv[i]);
      return BaselineUsage();
    }
  }
  if ((verb != "write" && verb != "check") || target.empty() ||
      parallelism < 1 || nodes < 1 || rate <= 0 || repeats < 1 ||
      duration <= 0.5 || options.threshold <= 0) {
    return BaselineUsage();
  }

  std::vector<std::string> labels;
  if (target == "all") {
    if (verb == "write") {
      for (const AppInfo& info : AllApps()) labels.push_back(info.abbrev);
      for (SyntheticStructure s : AllSyntheticStructures()) {
        labels.push_back(SyntheticStructureToString(s));
      }
    } else {
      // check all = every stored baseline file.
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".json") {
          labels.push_back(entry.path().stem().string());
        }
      }
      std::sort(labels.begin(), labels.end());
      if (labels.empty()) {
        std::fprintf(stderr, "no baselines under %s\n", dir.c_str());
        return 2;
      }
    }
  } else {
    labels.push_back(target);
  }

  int failures = 0;
  size_t regressed_metrics = 0;
  Json all = Json::Array();
  for (const std::string& label : labels) {
    if (verb == "write") {
      auto cluster = MakeCluster(cluster_name, nodes);
      if (!cluster.ok()) {
        std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
        return 2;
      }
      RunProtocol protocol;
      protocol.repeats = repeats;
      protocol.duration_s = duration;
      protocol.warmup_s = duration * 0.25;
      protocol.seed = seed;
      protocol.ledger.enabled = true;
      protocol.ledger.path = ledger_path;
      protocol.ledger.cluster_name = cluster_name;
      auto record =
          MeasureForLedger(label, rate, parallelism, *cluster, protocol);
      if (!record.ok()) {
        std::fprintf(stderr, "baseline write %s: %s\n", label.c_str(),
                     record.status().ToString().c_str());
        ++failures;
        continue;
      }
      const std::string path = BaselineFilePath(dir, label);
      Status st = WriteTextFileAtomic(path, record->ToJson().Dump(2) + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "baseline write %s: %s\n", label.c_str(),
                     st.ToString().c_str());
        ++failures;
        continue;
      }
      std::printf("baseline %s: p50 %.2f ms, tput %.0f t/s -> %s\n",
                  label.c_str(), record->median_latency_s * 1e3,
                  record->throughput_tps, path.c_str());
      continue;
    }

    // check
    const std::string path = BaselineFilePath(dir, label);
    auto text = ReadTextFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "baseline check %s: %s\n", label.c_str(),
                   text.status().ToString().c_str());
      ++failures;
      continue;
    }
    auto parsed = Json::Parse(*text);
    Result<obs::RunRecord> base = Status::Internal("unparsed");
    if (parsed.ok()) base = obs::RunRecord::FromJson(*parsed);
    if (!parsed.ok() || !base.ok()) {
      std::fprintf(stderr, "baseline check %s: %s\n", label.c_str(),
                   (!parsed.ok() ? parsed.status() : base.status())
                       .ToString()
                       .c_str());
      ++failures;
      continue;
    }
    // Re-measure with the baseline's recorded protocol so the comparison is
    // bit-for-bit re-executable: same seed, repeats, rate, parallelism and
    // cluster preset.
    auto cluster = MakeCluster(base->cluster, base->nodes);
    if (!cluster.ok()) {
      std::fprintf(stderr, "baseline check %s: %s\n", label.c_str(),
                   cluster.status().ToString().c_str());
      ++failures;
      continue;
    }
    RunProtocol protocol;
    protocol.repeats = base->repeats;
    protocol.duration_s = base->duration_s;
    protocol.warmup_s = base->warmup_s;
    protocol.seed = std::strtoull(base->seed.c_str(), nullptr, 10);
    protocol.ledger.enabled = true;
    protocol.ledger.path = ledger_path;
    protocol.ledger.cluster_name = base->cluster;
    auto record = MeasureForLedger(base->label, base->event_rate,
                                   base->parallelism, *cluster, protocol);
    if (!record.ok()) {
      std::fprintf(stderr, "baseline check %s: %s\n", label.c_str(),
                   record.status().ToString().c_str());
      ++failures;
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

int ReportUsage() {
  std::fprintf(stderr,
               "usage: pdspbench report <ledger.jsonl|artifact-dir|"
               "record.json> [--out=PATH]\n"
               "                 [--against=PATH] [--app=NAME] [--limit=N] "
               "[--title=S]\n"
               "                 [--threshold=F] [--sigmas=F]\n"
               "  renders one self-contained HTML file (inline SVG, no JS) "
               "with throughput,\n"
               "  latency-percentile and latency-breakdown charts per app, "
               "a sweep heatmap,\n"
               "  critical paths from diagnosis.json bundles, and — with "
               "--against — a\n"
               "  noise-aware comparison against a baseline ledger.\n");
  return 2;
}

int ReportMain(int argc, char** argv) {
  std::string input;
  std::string out_path = "report.html";
  obs::ReportOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "out", &out_path) ||
        ParseArg(argv[i], "against", &options.against_path) ||
        ParseArg(argv[i], "app", &options.app_filter) ||
        ParseArg(argv[i], "title", &options.title)) {
    } else if (ParseArg(argv[i], "limit", &value)) {
      if (!ParseNumber("limit", value, &options.limit)) return 2;
    } else if (ParseArg(argv[i], "threshold", &value)) {
      if (!ParseNumber("threshold", value, &options.compare.threshold)) {
        return 2;
      }
    } else if (ParseArg(argv[i], "sigmas", &value)) {
      if (!ParseNumber("sigmas", value, &options.compare.noise_sigmas)) {
        return 2;
      }
    } else if (argv[i][0] != '-' && input.empty()) {
      input = argv[i];
    } else {
      std::fprintf(stderr, "unknown report argument: %s\n", argv[i]);
      return ReportUsage();
    }
  }
  if (input.empty() || options.compare.threshold <= 0) return ReportUsage();
  auto stats = obs::WriteReportFile(input, out_path, options);
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

// --- parallelism sweep mode ----------------------------------------------

// `--parallelism=2,8,32` fans one cell per degree across --jobs workers via
// the exec sweep scheduler; per-cell results are bit-identical to --jobs=1.
int RunParallelismSweep(const Args& args, const Cluster& cluster,
                        PlacementKind placement) {
  const std::string selection = !args.app.empty()
                                    ? args.app
                                    : (!args.structure.empty()
                                           ? args.structure
                                           : args.load);
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = args.duration;
  protocol.warmup_s = args.duration * 0.2;
  protocol.seed = args.seed;
  protocol.placement = placement;
  protocol.label = selection;
  protocol.allow_invalid = args.allow_invalid;
  if (!args.ledger.empty()) {
    protocol.ledger.enabled = true;
    protocol.ledger.path = args.ledger;
    protocol.ledger.cluster_name = args.cluster;
  }
  if (args.profile_set) {
    protocol.profile.enabled = true;
    protocol.profile.hz = args.profile_hz;
  }
  if (args.mem_profile_set) {
    protocol.mem.enabled = true;
    protocol.mem.sample_interval_bytes =
        static_cast<int64_t>(args.mem_interval_kib * 1024.0);
  }

  std::vector<exec::SweepCell> cells;
  for (int degree : args.degrees) {
    exec::SweepCell cell;
    if (!args.app.empty()) {
      auto id = FindAppByAbbrev(args.app);
      if (!id.ok()) {
        std::fprintf(stderr, "%s (use --list)\n",
                     id.status().ToString().c_str());
        return 2;
      }
      const AppId app = *id;
      AppOptions opt;
      opt.event_rate = args.rate;
      opt.parallelism = degree;
      cell.make_plan = [app, opt] { return MakeApp(app, opt); };
    } else if (!args.structure.empty()) {
      bool found = false;
      SyntheticStructure structure = SyntheticStructure::kLinear;
      for (SyntheticStructure s : AllSyntheticStructures()) {
        if (args.structure == SyntheticStructureToString(s)) {
          structure = s;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown structure '%s' (use --list)\n",
                     args.structure.c_str());
        return 2;
      }
      CanonicalOptions opt;
      opt.event_rate = args.rate;
      opt.parallelism = degree;
      cell.make_plan = [structure, opt] {
        return MakeCanonicalSynthetic(structure, opt);
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
    if (!args.artifacts.empty()) {
      cell.protocol.obs.enabled = true;
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

}  // namespace

int Main(int argc, char** argv) {
  // Stored plans may reference application UDO kinds; make them resolvable
  // regardless of how the plan is selected (and so the udo-checks analysis
  // pass sees the full kind registry).
  RegisterAppUdos();
  if (argc > 1 && std::strcmp(argv[1], "analyze") == 0) {
    return AnalyzeMain(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "diagnose") == 0) {
    return DiagnoseMain(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "history") == 0) {
    return HistoryMain(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
    return CompareMain(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "baseline") == 0) {
    return BaselineMain(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "report") == 0) {
    return ReportMain(argc - 1, argv + 1);
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--list") == 0) {
      args.list = true;
    } else if (std::strcmp(argv[i], "--allow-invalid") == 0) {
      args.allow_invalid = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      args.progress_set = true;  // bare flag: auto (rich on TTY, else plain)
    } else if (ParseArg(argv[i], "progress", &args.progress)) {
      args.progress_set = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      args.profile_set = true;  // bare flag keeps the default cadence
    } else if (ParseArg(argv[i], "profile", &value)) {
      args.profile_set = true;
      if (!ParseNumber("profile", value, &args.profile_hz)) return 2;
    } else if (std::strcmp(argv[i], "--mem-profile") == 0) {
      args.mem_profile_set = true;  // bare flag keeps the default interval
    } else if (ParseArg(argv[i], "mem-profile", &value)) {
      args.mem_profile_set = true;
      if (!ParseNumber("mem-profile", value, &args.mem_interval_kib)) {
        return 2;
      }
    } else if (ParseArg(argv[i], "artifacts", &args.artifacts)) {
    } else if (ParseArg(argv[i], "progress-file", &args.progress_file)) {
    } else if (ParseArg(argv[i], "app", &args.app) ||
               ParseArg(argv[i], "structure", &args.structure) ||
               ParseArg(argv[i], "cluster", &args.cluster) ||
               ParseArg(argv[i], "placement", &args.placement) ||
               ParseArg(argv[i], "save", &args.save) ||
               ParseArg(argv[i], "load", &args.load) ||
               ParseArg(argv[i], "store", &args.store_dir) ||
               ParseArg(argv[i], "ledger", &args.ledger)) {
      // parsed into the struct
    } else if (ParseArg(argv[i], "rate", &value)) {
      if (!ParseNumber("rate", value, &args.rate)) return 2;
    } else if (ParseArg(argv[i], "parallelism", &value)) {
      args.degrees.clear();
      for (const std::string& part : Split(value, ',')) {
        int degree = 0;
        if (!ParseNumber("parallelism", part, &degree)) return 2;
        args.degrees.push_back(degree);
      }
      args.parallelism = args.degrees.front();
    } else if (ParseArg(argv[i], "jobs", &value)) {
      if (!ParseNumber("jobs", value, &args.jobs)) return 2;
    } else if (ParseArg(argv[i], "nodes", &value)) {
      if (!ParseNumber("nodes", value, &args.nodes)) return 2;
    } else if (ParseArg(argv[i], "duration", &value)) {
      if (!ParseNumber("duration", value, &args.duration)) return 2;
    } else if (ParseArg(argv[i], "seed", &value)) {
      if (!ParseNumber("seed", value, &args.seed)) return 2;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
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
    return Usage();
  }
  bool degrees_ok = !args.degrees.empty();
  for (int d : args.degrees) degrees_ok = degrees_ok && d >= 1;
  if (args.rate <= 0 || !degrees_ok || args.nodes < 1 ||
      args.duration <= 0.5 || (args.profile_set && args.profile_hz <= 0) ||
      (args.mem_profile_set && args.mem_interval_kib <= 0)) {
    std::fprintf(stderr, "bad numeric flags\n");
    return Usage();
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

  if (args.degrees.size() > 1) {
    return RunParallelismSweep(args, *cluster, *placement);
  }

  Result<LogicalPlan> plan = Status::Internal("unreachable");
  if (!args.load.empty()) {
    RunStore store(args.store_dir);
    plan = store.LoadPlan(args.load);
    if (!plan.ok()) {
      std::fprintf(stderr, "load: %s\n", plan.status().ToString().c_str());
      return 1;
    }
  } else if (!args.app.empty()) {
    auto id = FindAppByAbbrev(args.app);
    if (!id.ok()) {
      std::fprintf(stderr, "%s (use --list)\n",
                   id.status().ToString().c_str());
      return 2;
    }
    AppOptions opt;
    opt.event_rate = args.rate;
    opt.parallelism = args.parallelism;
    plan = MakeApp(*id, opt);
  } else {
    SyntheticStructure structure = SyntheticStructure::kLinear;
    bool found = false;
    for (SyntheticStructure s : AllSyntheticStructures()) {
      if (args.structure == SyntheticStructureToString(s)) {
        structure = s;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown structure '%s' (use --list)\n",
                   args.structure.c_str());
      return 2;
    }
    CanonicalOptions opt;
    opt.event_rate = args.rate;
    opt.parallelism = args.parallelism;
    plan = MakeCanonicalSynthetic(structure, opt);
  }
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  // Static-analysis gate (loaded plans bypass PlanBuilder::Build, so the
  // check runs here for every selection path).
  if (Status check = analysis::CheckPlan(*plan, &*cluster); !check.ok()) {
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
  auto analytic = EstimateLatencyAnalytically(*plan, *cluster);
  if (analytic.ok()) {
    std::printf("analytic estimate: %.1f ms (max utilization %.2f%s)\n\n",
                analytic->latency_s * 1e3, analytic->max_utilization,
                analytic->saturated ? ", SATURATED" : "");
  }

  const std::string run_label =
      !args.app.empty() ? args.app
                        : (!args.structure.empty() ? args.structure
                                                   : args.load);

  ExecutionOptions exec;
  exec.placement = *placement;
  exec.sim.duration_s = args.duration;
  exec.sim.warmup_s = args.duration * 0.2;
  exec.sim.seed = args.seed;

  // --profile: register this thread, sample it across the simulate phase.
  // The profiler only reads wall/CPU clocks, so virtual-time results stay
  // bit-identical to an unprofiled run.
  obs::prof::ProfOptions prof_options;
  prof_options.enabled = args.profile_set;
  prof_options.hz = args.profile_hz;
  std::unique_ptr<obs::prof::ThreadRegistration> prof_registration;
  obs::prof::Profiler profiler(prof_options);
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
  obs::mem::MemOptions mem_options;
  mem_options.enabled = args.mem_profile_set;
  mem_options.sample_interval_bytes =
      static_cast<int64_t>(args.mem_interval_kib * 1024.0);
  obs::mem::MemProfiler mem_profiler(mem_options);
  if (args.mem_profile_set) {
    if (Status st = mem_profiler.Start(); !st.ok()) {
      std::fprintf(stderr, "mem-profiler: %s\n", st.ToString().c_str());
    }
  }
  Result<SimResult> result = Status::Internal("unreachable");
  const auto run_start = std::chrono::steady_clock::now();
  {
    obs::prof::ProfScope app_scope(obs::prof::FrameKind::kApp, run_label);
    obs::PhaseScope phase(nullptr, nullptr, "simulate");
    result = ExecutePlan(*plan, *cluster, exec);
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
    // the record still carries full provenance (plan hash, seed, build).
    RunProtocol protocol;
    protocol.repeats = 1;
    protocol.duration_s = args.duration;
    protocol.warmup_s = args.duration * 0.2;
    protocol.seed = args.seed;
    protocol.label = run_label;
    protocol.ledger.enabled = true;
    protocol.ledger.path = args.ledger;
    protocol.ledger.cluster_name = args.cluster;
    if (!args.artifacts.empty()) {
      protocol.obs.enabled = true;  // record points at the bundle above
      protocol.obs.dir = args.artifacts;
    }
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
        MakeLedgerRecord(*plan, *cluster, protocol, cell, run_wall_s);
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
    Status saved = store.SaveRun(args.save, *plan, *cluster, *result);
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

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }
