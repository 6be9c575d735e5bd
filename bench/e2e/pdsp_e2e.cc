// pdsp_e2e — end-to-end benchmark driver for the simulator itself.
//
// Runs one named workload per process. Every cell goes through each layer's
// public entry points in the order MeasureCell / ExecutePlan use them: the
// plan factory (MakeApp / MakeCanonicalSynthetic), analysis::AnalyzePlan,
// analysis::AnalysisContext::Make, PhysicalPlan::FromLogical, PlaceTasks and
// Simulation::Run. Each call is timed from outside, and each cell's
// virtual-time outcome is checked against reference_digests.json (or, for a
// seed without reference digests, against invariants).
//
//   pdsp_e2e --workload W [--seed N] [--reference F] [--out DIR]
//       One e2e repetition with tracing off: prints the end-to-end metrics.
//   pdsp_e2e --workload W --trace [--seed N] [--reference F] [--out DIR]
//       The traced pass: per-layer metrics, DIR/W/{layers.json,trace.json,
//       cells.csv}.
//   pdsp_e2e --smoke --benchmark BENCHMARK.json --reference F
//       First cell of each workload at 0.2 virtual s, both passes, asserted.
//   pdsp_e2e --write-reference F      Regenerates the reference digests.
//
// Every report ends with one JSON line on stdout; bench/e2e/run.py runs the
// repetitions (one fresh process each) and takes medians. See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/pass.h"
#include "src/apps/apps.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/data/batch.h"
#include "src/data/generator.h"
#include "src/exec/sweep.h"
#include "src/exec/thread_pool.h"
#include "src/harness/harness.h"
#include "src/harness/synthetic_suite.h"
#include "src/obs/diagnose.h"
#include "src/obs/mem.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"
#include "src/query/batch_layout.h"
#include "src/runtime/element.h"
#include "src/runtime/physical_plan.h"
#include "src/sim/simulation.h"
#include "src/store/json.h"

namespace pdsp {
namespace bench {
namespace {

// ---------------------------------------------------------------------------
// Workloads

struct CellSpec {
  std::string name;  ///< app abbreviation or structure name
  bool is_app = false;
  AppId app = AppId::kWordCount;
  SyntheticStructure structure = SyntheticStructure::kLinear;
  double rate = 0.0;  ///< events/s per source
  int parallelism = 1;
  double duration_s = 1.0;  ///< virtual seconds; warm-up is a quarter

  std::string label() const {
    return StrFormat("%s/p%d", name.c_str(), parallelism);
  }
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  /// The set-up chain runs this many times per cell; setup_s sums the
  /// cells' median pass, so a pass hit by preemption or a page-fault burst
  /// does not move it.
  int setup_reps = 1;
  /// Cells run through exec::RunSweep and MeasureCell (diagnosis on) on
  /// min(4, nproc) workers instead of calling Simulation::Run directly.
  bool sweep = false;
};

CellSpec AppCell(AppId id, double rate, int p, double duration_s) {
  CellSpec c;
  c.name = GetAppInfo(id).abbrev;
  c.is_app = true;
  c.app = id;
  c.rate = rate;
  c.parallelism = p;
  c.duration_s = duration_s;
  return c;
}

CellSpec StructureCell(SyntheticStructure s, double rate, int p,
                       double duration_s) {
  CellSpec c;
  c.name = SyntheticStructureToString(s);
  c.structure = s;
  c.rate = rate;
  c.parallelism = p;
  c.duration_s = duration_s;
  return c;
}

// README.md says why each workload is there.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    using S = SyntheticStructure;
    std::vector<Workload> w;
    w.push_back({"fanout-p64",
                 {StructureCell(S::kLinear, 200e3, 64, 1.5),
                  StructureCell(S::kFlatMapChain, 200e3, 64, 1.5)},
                 200,
                 false});
    w.push_back({"operator-p1",
                 {StructureCell(S::kTwoWayJoin, 200e3, 1, 1.5),
                  StructureCell(S::kThreeWayJoin, 200e3, 1, 1.5),
                  AppCell(AppId::kWordCount, 100e3, 1, 1.5),
                  AppCell(AppId::kTrendingTopics, 100e3, 1, 1.5)},
                 5,
                 false});
    w.push_back({"bulk-p4",
                 {StructureCell(S::kLinear, 2e6, 4, 10.0),
                  StructureCell(S::kAggregation, 2e6, 4, 10.0),
                  AppCell(AppId::kSmartGrid, 1e6, 4, 10.0),
                  AppCell(AppId::kWordCount, 200e3, 4, 2.5)},
                 100,
                 false});
    Workload suite{"suite-sweep", {}, 3, true};
    for (const AppInfo& app : AllApps()) {
      for (int p : {1, 8, 64}) {
        suite.cells.push_back(AppCell(app.id, 100e3, p, 1.0));
      }
    }
    for (S s : {S::kLinear, S::kFlatMapChain, S::kTwoWayJoin,
                S::kFilterJoinAgg}) {
      for (int p : {1, 8, 64}) {
        suite.cells.push_back(StructureCell(s, 200e3, p, 1.0));
      }
    }
    w.push_back(std::move(suite));
    return w;
  }();
  return kWorkloads;
}

/// The smoke variant: the workload's first cell at 0.2 virtual seconds.
Workload SmokeVariant(const Workload& w) {
  Workload s = w;
  s.name = w.name + ".smoke";
  s.cells.resize(1);
  s.cells[0].duration_s = 0.2;
  s.setup_reps = 1;
  return s;
}

int SweepJobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
  return std::clamp(n, 1, 4);
}

int JobsFor(const Workload& w) { return w.sweep ? SweepJobs() : 1; }

Result<LogicalPlan> MakePlan(const CellSpec& cell) {
  if (cell.is_app) {
    AppOptions o;
    o.event_rate = cell.rate;
    o.parallelism = cell.parallelism;
    return MakeApp(cell.app, o);
  }
  CanonicalOptions o;
  o.event_rate = cell.rate;
  o.parallelism = cell.parallelism;
  return MakeCanonicalSynthetic(cell.structure, o);
}

SimOptions SimOptionsFor(const CellSpec& cell, uint64_t seed) {
  SimOptions o;
  o.duration_s = cell.duration_s;
  o.warmup_s = cell.duration_s / 4;
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------------------
// Clocks

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process CPU seconds, all threads (getrusage).
double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Layer spans

/// The layer spans of one cell. Each call into a layer is timed from outside,
/// recorded as a span nested under the cell's span and summed by layer name;
/// the cell's self time is its duration minus the layer spans it covers.
class CellSpans {
 public:
  CellSpans(obs::Tracer* tracer, int tid, const std::string& cell)
      : tracer_(tracer), tid_(tid), cell_span_(tracer, cell, "cell", tid) {}

  template <typename F>
  auto Time(const char* layer, F&& fn) {
    obs::Span span(tracer_, layer, "layer", tid_);
    const double t0 = NowS();
    auto result = fn();
    const double dt = NowS() - t0;
    layer_s_[layer] += dt;
    covered_s_ += dt;
    return result;
  }

  const std::map<std::string, double>& layer_s() const { return layer_s_; }
  double SelfS() const { return NowS() - start_ - covered_s_; }

 private:
  obs::Tracer* tracer_;
  int tid_;
  obs::Span cell_span_;
  double start_ = NowS();
  double covered_s_ = 0.0;
  std::map<std::string, double> layer_s_;
};

// The five set-up layers, in call order, with the metric each feeds.
constexpr std::pair<const char*, const char*> kSetupLayers[] = {
    {"apps.make_plan", "apps.make_plan_s"},
    {"analysis.lint", "analysis.lint_s"},
    {"analysis.dataflow", "analysis.dataflow_s"},
    {"runtime.expand", "runtime.expand_s"},
    {"cluster.place", "cluster.place_s"},
};

struct Prepared {
  std::unique_ptr<LogicalPlan> plan;  // phys keeps a pointer to it
  std::unique_ptr<PhysicalPlan> phys;
  Placement placement;
};

/// One pass of the set-up chain for a cell.
Result<Prepared> Prepare(const CellSpec& cell, const Cluster& cluster,
                         uint64_t seed, CellSpans* spans) {
  Prepared p;
  PDSP_ASSIGN_OR_RETURN(LogicalPlan plan, spans->Time("apps.make_plan", [&] {
    return MakePlan(cell);
  }));
  p.plan = std::make_unique<LogicalPlan>(std::move(plan));
  const analysis::AnalysisReport report = spans->Time(
      "analysis.lint", [&] { return analysis::AnalyzePlan(*p.plan); });
  if (report.HasErrors()) return report.ToStatus();
  spans->Time("analysis.dataflow", [&] {
    return analysis::AnalysisContext::Make(*p.plan, &cluster);
  });
  PDSP_ASSIGN_OR_RETURN(PhysicalPlan phys, spans->Time("runtime.expand", [&] {
    return PhysicalPlan::FromLogical(p.plan.get());
  }));
  p.phys = std::make_unique<PhysicalPlan>(std::move(phys));
  PDSP_ASSIGN_OR_RETURN(p.placement, spans->Time("cluster.place", [&] {
    return PlaceTasks(cluster, p.phys->InstancesPerOp(),
                      PlacementKind::kLeastLoaded, seed);
  }));
  return p;
}

/// Seconds spent so far in the five set-up layers.
double SetupSeconds(const CellSpans& spans) {
  double s = 0.0;
  for (const auto& [layer, metric] : kSetupLayers) {
    auto it = spans.layer_s().find(layer);
    if (it != spans.layer_s().end()) s += it->second;
  }
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(mid)) +
          hi) / 2;
}

/// Runs the chain `reps` times and keeps the last result; `median_s`, when
/// given, receives the median duration of one pass.
Result<Prepared> PrepareRepeatedly(const CellSpec& cell, const Cluster& cluster,
                                   uint64_t seed, int reps, CellSpans* spans,
                                   double* median_s = nullptr) {
  Result<Prepared> p = Status::Internal("set-up never ran");
  std::vector<double> pass_s;
  for (int i = 0; i < reps; ++i) {
    const double before = SetupSeconds(*spans);
    p = Prepare(cell, cluster, seed, spans);
    pass_s.push_back(SetupSeconds(*spans) - before);
  }
  if (median_s != nullptr) *median_s = Median(std::move(pass_s));
  return p;
}

// ---------------------------------------------------------------------------
// Output oracle

/// The virtual-time outcome of one cell: what the digest covers. Host-side
/// counts (events_processed, pdsp.data.*) are deliberately absent, so engine
/// work that leaves every result unchanged leaves the digest unchanged.
struct Outcome {
  int64_t source_tuples = 0;
  int64_t sink_tuples = 0;
  int64_t late_drops = 0;
  int64_t backpressure_skipped = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double throughput = 0.0;
  std::optional<double> mean_latency;  // CellResult carries none
  std::vector<OperatorRunStats> ops;
  bool diagnosed = false;  // sweep cells: breakdown and PDSP-R codes too
  LatencyBreakdown breakdown;
  std::vector<std::string> codes;
};

Outcome BaseOutcome(const LogicalPlan& plan,
                    const std::vector<OperatorRunStats>& ops) {
  Outcome o;
  o.ops = ops;
  for (LogicalPlan::OpId id : plan.SourceIds()) {
    o.source_tuples += ops.at(static_cast<size_t>(id)).tuples_in;
  }
  o.sink_tuples = ops.at(static_cast<size_t>(plan.SinkId())).tuples_in;
  return o;
}

void AttachDiagnosis(const obs::Diagnosis& d, Outcome* o) {
  o->diagnosed = true;
  o->breakdown = d.breakdown;
  for (const analysis::Diagnostic& diag : d.report.diagnostics()) {
    o->codes.push_back(diag.code);
  }
  std::sort(o->codes.begin(), o->codes.end());
  o->codes.erase(std::unique(o->codes.begin(), o->codes.end()),
                 o->codes.end());
}

Outcome FromSim(const LogicalPlan& plan, const SimResult& r) {
  Outcome o = BaseOutcome(plan, r.op_stats);
  o.late_drops = r.late_drops;
  o.backpressure_skipped = r.backpressure_skipped;
  o.p50 = r.median_latency_s;
  o.p95 = r.p95_latency_s;
  o.p99 = r.p99_latency_s;
  o.throughput = r.throughput_tps;
  o.mean_latency = r.mean_latency_s;
  return o;
}

Outcome FromCell(const LogicalPlan& plan, const CellResult& c) {
  Outcome o = BaseOutcome(plan, c.op_stats);
  o.late_drops = c.late_drops;
  o.backpressure_skipped = c.backpressure_skipped;
  o.p50 = c.mean_median_latency_s;  // one repeat: the run's median
  o.p95 = c.p95_latency_s;
  o.p99 = c.p99_latency_s;
  o.throughput = c.mean_throughput_tps;
  if (c.has_diagnosis) AttachDiagnosis(c.diagnosis, &o);
  return o;
}

std::string OutcomeText(const Outcome& o) {
  std::string s = StrFormat(
      "src=%lld sink=%lld late=%lld bp=%lld p50=%a p95=%a p99=%a tput=%a",
      static_cast<long long>(o.source_tuples),
      static_cast<long long>(o.sink_tuples),
      static_cast<long long>(o.late_drops),
      static_cast<long long>(o.backpressure_skipped), o.p50, o.p95, o.p99,
      o.throughput);
  if (o.mean_latency) s += StrFormat(" mean=%a", *o.mean_latency);
  for (const OperatorRunStats& op : o.ops) {
    s += StrFormat("|%s in=%lld out=%lld busy=%a util=%a", op.name.c_str(),
                   static_cast<long long>(op.tuples_in),
                   static_cast<long long>(op.tuples_out), op.busy_time_s,
                   op.utilization);
  }
  if (o.diagnosed) {
    const LatencyBreakdown& b = o.breakdown;
    s += StrFormat("|breakdown=%a,%a,%a,%a,%a,%a codes=", b.source_batch_s,
                   b.network_s, b.queue_s, b.service_s, b.window_s, b.total_s);
    s += Join(o.codes, ",");
  }
  return s;
}

/// FNV-1a (64-bit) over the outcome's canonical text, floats as hex floats.
std::string Digest(const Outcome& o) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : OutcomeText(o)) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

/// Checks that hold for every seed; "" when all hold.
std::string CheckInvariants(const LogicalPlan& plan, const Outcome& o) {
  if (o.source_tuples <= 0) return "no source tuples";
  if (o.sink_tuples < 0 || o.late_drops < 0 || o.backpressure_skipped < 0) {
    return "negative run count";
  }
  for (const OperatorRunStats& op : o.ops) {
    if (op.tuples_in < 0 || op.tuples_out < 0 || op.busy_time_s < 0.0) {
      return "negative count at operator " + op.name;
    }
  }
  // Every generated tuple leaves a source once per outgoing edge.
  for (LogicalPlan::OpId id : plan.SourceIds()) {
    const OperatorRunStats& op = o.ops.at(static_cast<size_t>(id));
    const auto edges = static_cast<int64_t>(plan.Outputs(id).size());
    if (op.tuples_out != op.tuples_in * edges) {
      return "source " + op.name + " tuples_out != generated x out-edges";
    }
  }
  if (!(o.p50 <= o.p95 && o.p95 <= o.p99)) return "latency percentiles";
  return "";
}

/// Reference digests for (section, seed), or null when the file has none —
/// the invariants then stand alone.
const Json* ReferenceFor(const Json& ref, const std::string& section,
                         uint64_t seed) {
  if (!ref.is_object() || !ref.Has("digests")) return nullptr;
  const Json& digests = ref["digests"];
  if (!digests.Has(section)) return nullptr;
  const Json& by_seed = digests[section];
  const std::string key = std::to_string(seed);
  return by_seed.Has(key) ? &by_seed[key] : nullptr;
}

/// Invariants, then the reference digest when one exists; "" on success.
std::string CheckOutcome(const LogicalPlan& plan, const Outcome& o,
                         const std::string& label, const Json* ref) {
  std::string err = CheckInvariants(plan, o);
  if (!err.empty() || ref == nullptr) return err;
  if (!ref->Has(label)) return "no reference digest";
  const std::string want = (*ref)[label].AsString();
  const std::string got = Digest(o);
  return got == want ? "" : "digest " + got + " != reference " + want;
}

// ---------------------------------------------------------------------------
// Reports

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kMetricDefs[] = {
    // End to end (tracing off).
    {"sim_tuples_per_cpu_s", "tuples/CPU-s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"failed_share", "fraction"},
    // Per layer (traced pass).
    {"apps.make_plan_s", "s"},
    {"analysis.lint_s", "s"},
    {"analysis.dataflow_s", "s"},
    {"runtime.expand_s", "s"},
    {"cluster.place_s", "s"},
    {"sim.run_cpu_s", "s"},
    {"sim.events_per_src_tuple", "events/tuple"},
    {"sim.ns_per_event", "ns"},
    {"sim.rows_per_batch", "rows/batch"},
    {"sim.alloc_bytes_per_src_tuple", "B/tuple"},
    {"sim.peak_heap_mb", "MiB"},
    {"sim.event_loop_share", "fraction"},
    {"sim.route_share", "fraction"},
    {"sim.source_share", "fraction"},
    {"sim.process_batch_share", "fraction"},
    {"sim.partition_share", "fraction"},
    {"sim.fire_timers_share", "fraction"},
    {"sim.attribution_overhead", "ratio"},
    {"data.gen_ns_per_tuple", "ns"},
    {"obs.diagnose_share", "fraction"},
    {"exec.busy_fraction", "fraction"},
    {"prof.torn_share", "fraction"},
    {"prof.overhead", "ratio"},
};

const char* UnitOf(const std::string& name) {
  for (const MetricDef& m : kMetricDefs) {
    if (name == m.name) return m.unit;
  }
  std::fprintf(stderr, "pdsp_e2e: metric %s has no unit\n", name.c_str());
  std::abort();
}

struct Report {
  std::string workload;
  uint64_t seed = 0;
  std::string pass;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> digests;  // label, hex
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;

  void Add(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  /// Records one checked cell; `error` empty means it passed.
  void Cell(const std::string& label, const std::string& digest,
            const std::string& error) {
    ++attempted;
    digests.emplace_back(label, digest);
    if (!error.empty()) {
      ++failed;
      errors.push_back(label + ": " + error);
    }
  }
  double Value(const std::string& name) const {
    for (const auto& [n, v] : metrics) {
      if (n == name) return v;
    }
    return std::nan("");
  }
};

/// {name: {"value", "unit"}} for every metric of the report.
Json MetricsJson(const Report& r) {
  Json metrics = Json::Object();
  for (const auto& [name, value] : r.metrics) {
    Json m = Json::Object();
    m.Set("value", Json::Number(value));
    m.Set("unit", Json::Str(UnitOf(name)));
    metrics.Set(name, std::move(m));
  }
  return metrics;
}

void PrintReport(const Report& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "pdsp_e2e: %s: %s\n", r.workload.c_str(), e.c_str());
  }
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s %s %.6g %s\n", name.c_str(), r.workload.c_str(), value,
                UnitOf(name));
  }
  Json digests = Json::Object();
  for (const auto& [label, hex] : r.digests) digests.Set(label, Json::Str(hex));
  Json j = Json::Object();
  j.Set("workload", Json::Str(r.workload));
  j.Set("seed", Json::Str(std::to_string(r.seed)));
  j.Set("pass", Json::Str(r.pass));
  j.Set("correct", Json::Bool(r.failed == 0));
  j.Set("attempted", Json::Int(r.attempted));
  j.Set("failed", Json::Int(r.failed));
  j.Set("digests", std::move(digests));
  j.Set("metrics", MetricsJson(r));
  std::printf("%s\n", j.Dump().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// exec::RunSweep path

std::vector<exec::SweepCell> SweepCells(const Workload& w, uint64_t seed,
                                        const std::string& ledger_path) {
  std::vector<exec::SweepCell> cells;
  for (const CellSpec& cell : w.cells) {
    RunProtocol p;
    p.repeats = 1;
    p.duration_s = cell.duration_s;
    p.warmup_s = cell.duration_s / 4;
    p.seed = seed;
    p.placement = PlacementKind::kLeastLoaded;
    p.label = cell.label();
    p.diagnose = w.sweep;
    if (!ledger_path.empty()) {
      p.ledger.enabled = true;
      p.ledger.path = ledger_path;
      p.ledger.cluster_name = "M510";
    }
    cells.push_back(exec::SweepCell{cell.label(),
                                    [cell] { return MakePlan(cell); },
                                    Cluster::M510(10), std::move(p)});
  }
  return cells;
}

// ---------------------------------------------------------------------------
// The e2e pass: one repetition, tracing off

Report E2eRep(const Workload& w, uint64_t seed, const Json& ref,
              const std::string& out_dir) {
  Report r;
  r.workload = w.name;
  r.seed = seed;
  r.pass = "e2e";
  const Json* want = ReferenceFor(ref, w.name, seed);
  const Cluster cluster = Cluster::M510(10);
  const double wall0 = NowS();
  double setup_s = 0.0;
  int64_t source_tuples = 0;
  std::vector<std::unique_ptr<LogicalPlan>> plans(w.cells.size());

  for (size_t i = 0; i < w.cells.size(); ++i) {
    const CellSpec& cell = w.cells[i];
    CellSpans spans(nullptr, 0, "");
    double cell_setup_s = 0.0;
    Result<Prepared> prep = PrepareRepeatedly(cell, cluster, seed,
                                              w.setup_reps, &spans,
                                              &cell_setup_s);
    setup_s += cell_setup_s;
    if (!prep.ok()) {
      r.Cell(cell.label(), "", prep.status().ToString());
      continue;
    }
    plans[i] = std::move(prep->plan);
    if (w.sweep) continue;  // simulated below, through the sweep
    Result<SimResult> run =
        Simulation::Run(*prep->phys, cluster, prep->placement, CostModel{},
                        SimOptionsFor(cell, seed));
    if (!run.ok()) {
      r.Cell(cell.label(), "", run.status().ToString());
      continue;
    }
    const Outcome o = FromSim(*plans[i], *run);
    source_tuples += o.source_tuples;
    r.Cell(cell.label(), Digest(o),
           CheckOutcome(*plans[i], o, cell.label(), want));
  }

  if (w.sweep) {
    const std::string ledger =
        StrFormat("%s/%s.%d.ledger.jsonl", out_dir.c_str(), w.name.c_str(),
                  static_cast<int>(getpid()));
    exec::SweepOptions opts;
    opts.jobs = JobsFor(w);
    opts.name = w.name;
    const exec::SweepResult sweep =
        exec::RunSweep(SweepCells(w, seed, ledger), opts);
    std::error_code ec;
    std::filesystem::remove(ledger, ec);
    for (size_t i = 0; i < w.cells.size(); ++i) {
      if (plans[i] == nullptr) continue;  // set-up already failed
      const std::string label = w.cells[i].label();
      const Result<CellResult>& cell = sweep.cells[i].result;
      if (!cell.ok()) {
        r.Cell(label, "", cell.status().ToString());
        continue;
      }
      const Outcome o = FromCell(*plans[i], *cell);
      source_tuples += o.source_tuples;
      r.Cell(label, Digest(o), CheckOutcome(*plans[i], o, label, want));
    }
  }

  const double wall_s = NowS() - wall0;
  r.Add("sim_tuples_per_cpu_s",
        static_cast<double>(source_tuples) / ProcessCpuS());
  r.Add("wall_s", wall_s);
  r.Add("setup_s", setup_s);
  r.Add("peak_rss_mb", PeakRssMb());
  r.Add("failed_share", r.attempted > 0 ? static_cast<double>(r.failed) /
                                              static_cast<double>(r.attempted)
                                        : 1.0);
  return r;
}

// ---------------------------------------------------------------------------
// The traced pass

// CPU-profile classes of sim.*_share, in metric order.
enum ShareClass {
  kEventLoop = 0,  // simulate phase, no operator frame
  kRoute,          // non-source operator, outside the three engine kernels
  kSource,         // source operator frames: generator plus source routing
  kProcessBatch,   // kernel:process-batch
  kPartition,      // kernel:partition-kernel
  kFireTimers,     // kernel:fire-timers
  kNumShares,
};
constexpr const char* kShareMetrics[kNumShares] = {
    "sim.event_loop_share",    "sim.route_share",
    "sim.source_share",        "sim.process_batch_share",
    "sim.partition_share",     "sim.fire_timers_share",
};

/// Classifies one folded stack ("phase:simulate;op:src;kernel:...").
/// Torn stacks and stacks outside the simulate phase return kNumShares.
int ClassifyStack(const std::string& stack,
                  const std::set<std::string>& source_ops) {
  const std::vector<std::string> frames = Split(stack, ';');
  if (frames.empty() || frames[0] != "phase:simulate") return kNumShares;
  for (size_t i = 1; i < frames.size(); ++i) {
    if (frames[i].rfind("op:", 0) != 0) continue;
    if (source_ops.count(frames[i].substr(3)) != 0) return kSource;
    for (size_t k = i + 1; k < frames.size(); ++k) {
      if (frames[k] == "kernel:process-batch") return kProcessBatch;
      if (frames[k] == "kernel:partition-kernel") return kPartition;
      if (frames[k] == "kernel:fire-timers") return kFireTimers;
    }
    return kRoute;
  }
  return kEventLoop;
}

struct CellTrace {
  CellSpec cell;
  Prepared prepared;
  std::map<std::string, double> layer_s;  // summed over both passes
  double self_s = 0.0;
  double run_cpu_s = 0.0;
  double traced_cpu_s = 0.0;
  double attributed_cpu_s = 0.0;
  double diagnose_cpu_s = 0.0;
  double gen_cpu_s = 0.0;
  int64_t gen_tuples = 0;
  int64_t events = 0;
  int64_t source_tuples = 0;
  int64_t rows = 0;
  int64_t batches = 0;
  int64_t alloc_bytes = 0;
  int64_t peak_heap_bytes = 0;
  double share_cpu_s[kNumShares] = {};
  int64_t samples = 0;
  int64_t dropped = 0;
  std::string top_operator;
  std::string digest;     // of the outcome the e2e pass checks
  std::string base_text;  // outcome without diagnosis or mean, across paths
  std::string error;
};

/// Records a failed check on the cell; an empty message is a pass.
void Fail(CellTrace* t, const std::string& message) {
  if (message.empty()) return;
  t->error += (t->error.empty() ? "" : "; ") + message;
}

void MergeSpans(const CellSpans& spans, CellTrace* t) {
  for (const auto& [layer, s] : spans.layer_s()) t->layer_s[layer] += s;
  t->self_s += spans.SelfS();
}

int64_t CounterValue(const SimResult& r, const char* name) {
  return r.metrics->GetCounter(name)->value();
}

/// Regenerates every source's tuple stream for the count the run produced,
/// through TupleGenerator::AppendNext; returns thread CPU seconds.
double ReplayGenerators(const LogicalPlan& plan, const SimResult& run,
                        uint64_t seed, int64_t* tuples) {
  double cpu_s = 0.0;
  for (LogicalPlan::OpId id : plan.SourceIds()) {
    const SourceBinding& b = plan.sources()[plan.op(id).source_index];
    Result<TupleGenerator> gen =
        TupleGenerator::Create(b.stream.schema, b.stream.specs, seed);
    if (!gen.ok()) continue;
    data::Batch out(LayoutForSchema(b.stream.schema));
    const int64_t n = run.op_stats[static_cast<size_t>(id)].tuples_in;
    const double t0 = ThreadCpuS();
    for (int64_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) * 1e-6;
      gen->AppendNext(t, t, kNoAttr, &out);
      if (out.NumRows() == 1024) out.Clear();
    }
    cpu_s += ThreadCpuS() - t0;
    *tuples += n;
  }
  return cpu_s;
}

std::string BaseText(Outcome o) {
  o.mean_latency.reset();
  o.diagnosed = false;
  return OutcomeText(o);
}

/// Set-up chain, then Simulation::Run untraced and with attribution, then
/// DiagnoseRun and the generator replay — all without a profiler active.
void MeasureLayers(const Workload& w, uint64_t seed, const Json* want,
                   const Cluster& cluster, obs::Tracer* tracer, int tid,
                   CellTrace* t) {
  const CellSpec& cell = t->cell;
  CellSpans spans(tracer, tid, "cell:" + cell.label());
  Result<Prepared> prep =
      PrepareRepeatedly(cell, cluster, seed, w.setup_reps, &spans);
  if (!prep.ok()) {
    Fail(t, prep.status().ToString());
    MergeSpans(spans, t);
    return;
  }
  t->prepared = std::move(*prep);
  const Prepared& p = t->prepared;
  SimOptions opts = SimOptionsFor(cell, seed);

  double cpu0 = ThreadCpuS();
  Result<SimResult> run = spans.Time("sim.run", [&] {
    return Simulation::Run(*p.phys, cluster, p.placement, CostModel{}, opts);
  });
  t->run_cpu_s = ThreadCpuS() - cpu0;

  opts.attribute_latency = true;
  cpu0 = ThreadCpuS();
  Result<SimResult> attributed = spans.Time("sim.run_attributed", [&] {
    return Simulation::Run(*p.phys, cluster, p.placement, CostModel{}, opts);
  });
  t->attributed_cpu_s = ThreadCpuS() - cpu0;
  if (!run.ok() || !attributed.ok()) {
    Fail(t, (run.ok() ? attributed.status() : run.status()).ToString());
    MergeSpans(spans, t);
    return;
  }

  cpu0 = ThreadCpuS();
  Result<obs::Diagnosis> diag = spans.Time("obs.diagnose", [&] {
    return obs::DiagnoseRun(*p.plan, cluster, *attributed);
  });
  t->diagnose_cpu_s = ThreadCpuS() - cpu0;

  t->gen_cpu_s = spans.Time("data.gen_replay", [&] {
    return ReplayGenerators(*p.plan, *run, seed, &t->gen_tuples);
  });
  MergeSpans(spans, t);

  t->events = run->events_processed;
  t->source_tuples = run->source_tuples;
  t->rows = CounterValue(*run, "pdsp.data.rows");
  t->batches = CounterValue(*run, "pdsp.data.batches");

  t->base_text = BaseText(FromSim(*p.plan, *run));
  if (BaseText(FromSim(*p.plan, *attributed)) != t->base_text) {
    Fail(t, "attribution changed the virtual-time outcome");
  }
  // The e2e pass checks the run it makes: the direct run for direct
  // workloads, the attributed and diagnosed run for sweep workloads.
  Outcome o = FromSim(*p.plan, w.sweep ? *attributed : *run);
  if (w.sweep) {
    if (!diag.ok()) return Fail(t, diag.status().ToString());
    o.mean_latency.reset();
    AttachDiagnosis(*diag, &o);
  }
  t->digest = Digest(o);
  Fail(t, CheckOutcome(*p.plan, o, cell.label(), want));
}

/// Simulation::Run again under the CPU sampler (997 Hz) and the allocation
/// sampler, both scoped to this thread.
void ProfileCell(uint64_t seed, const Cluster& cluster, obs::Tracer* tracer,
                 int tid, CellTrace* t) {
  if (t->base_text.empty()) return;  // the unprofiled runs failed
  const Prepared& p = t->prepared;
  CellSpans spans(tracer, tid, "cell:" + t->cell.label() + "/profiled");
  obs::prof::ThreadRegistration registration("e2e");
  obs::prof::ProfOptions prof_opts;
  prof_opts.enabled = true;
  prof_opts.hz = 997.0;
  obs::prof::Profiler cpu(prof_opts);
  obs::mem::MemOptions mem_opts;
  mem_opts.enabled = true;
  obs::mem::MemProfiler mem(mem_opts);
  Status st = cpu.Start();
  if (st.ok()) st = mem.Start();
  if (!st.ok()) return Fail(t, "profiler: " + st.ToString());
  obs::prof::CpuProfile profile;
  obs::mem::MemProfile mem_profile;
  Result<SimResult> run = Status::Internal("not run");
  {
    // The phase frame stays pushed across Stop(), whose final sample then
    // still lands in the simulate phase.
    obs::prof::ProfScope phase(obs::prof::FrameKind::kPhase, "simulate");
    const double cpu0 = ThreadCpuS();
    run = spans.Time("sim.run_profiled", [&] {
      return Simulation::Run(*p.phys, cluster, p.placement, CostModel{},
                             SimOptionsFor(t->cell, seed));
    });
    t->traced_cpu_s = ThreadCpuS() - cpu0;
    mem_profile = mem.Stop();
    profile = cpu.Stop();
  }
  MergeSpans(spans, t);
  if (!run.ok()) return Fail(t, run.status().ToString());
  if (BaseText(FromSim(*p.plan, *run)) != t->base_text) {
    Fail(t, "profiling changed the virtual-time outcome");
  }

  std::set<std::string> source_ops;
  for (LogicalPlan::OpId id : p.plan->SourceIds()) {
    source_ops.insert(p.plan->op(id).name);
  }
  for (const obs::prof::FoldedSample& f : profile.folded) {
    const int c = ClassifyStack(f.stack, source_ops);
    if (c < kNumShares) t->share_cpu_s[c] += f.cpu_s;
  }
  t->samples = profile.samples;
  t->dropped = profile.dropped;
  for (const obs::prof::FrameTotal& op : profile.operators) {
    if (op.name == "(none)" || op.name == "(torn)") continue;
    t->top_operator = op.name;  // sorted by cpu_s desc
    break;
  }
  t->alloc_bytes = mem_profile.total_bytes;
  t->peak_heap_bytes = mem_profile.peak_heap_bytes;
}

/// Runs fn(i) for i in [0, n) on `jobs` workers and waits for all of them.
template <typename F>
void ForEachCell(int jobs, size_t n, F fn) {
  exec::ThreadPool pool(jobs);
  std::vector<std::future<void>> done;
  done.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    done.push_back(pool.Submit([&fn, i] { fn(i); }));
  }
  for (std::future<void>& f : done) f.get();
}

Status WriteCellsCsv(const std::string& path,
                     const std::vector<CellTrace>& traces) {
  std::string csv =
      "cell,parallelism,source_tuples,events_per_src_tuple,simulate_cpu_s,"
      "diagnose_cpu_s,tuples_per_cpu_s,top_operator\n";
  for (const CellTrace& t : traces) {
    const double src = static_cast<double>(t.source_tuples);
    csv += StrFormat(
        "%s,%d,%lld,%.6g,%.6g,%.6g,%.6g,%s\n", t.cell.name.c_str(),
        t.cell.parallelism, static_cast<long long>(t.source_tuples),
        src > 0 ? static_cast<double>(t.events) / src : 0.0,
        t.attributed_cpu_s, t.diagnose_cpu_s,
        t.attributed_cpu_s > 0 ? src / t.attributed_cpu_s : 0.0,
        t.top_operator.c_str());
  }
  return WriteTextFileAtomic(path, csv);
}

double Ratio(double num, double den) {
  return den > 0.0 ? num / den : std::nan("");
}

Report TracePass(const Workload& w, uint64_t seed, const Json& ref,
                 const std::string& out_dir) {
  Report r;
  r.workload = w.name;
  r.seed = seed;
  r.pass = "trace";
  const Json* want = ReferenceFor(ref, w.name, seed);
  const std::string dir = out_dir + "/" + w.name;
  const Cluster cluster = Cluster::M510(10);
  const int jobs = JobsFor(w);
  obs::Tracer tracer;

  std::vector<CellTrace> traces(w.cells.size());
  for (size_t i = 0; i < traces.size(); ++i) traces[i].cell = w.cells[i];
  // Two phases, so that no cell is measured while another cell's samplers
  // are armed: the profilers' hooks are process-wide switches.
  ForEachCell(jobs, traces.size(), [&](size_t i) {
    MeasureLayers(w, seed, want, cluster, &tracer, static_cast<int>(i),
                  &traces[i]);
  });
  ForEachCell(jobs, traces.size(), [&](size_t i) {
    ProfileCell(seed, cluster, &tracer, static_cast<int>(i), &traces[i]);
  });

  // The harness path: the same cells through exec::RunSweep / MeasureCell.
  exec::SweepOptions opts;
  opts.jobs = jobs;
  opts.name = w.name;
  exec::SweepResult sweep;
  {
    obs::Span span(&tracer, "exec.sweep", "layer",
                   static_cast<int>(traces.size()));
    sweep = exec::RunSweep(SweepCells(w, seed, ""), opts);
  }
  double busy_s = 0.0;
  for (const auto& [worker, phases] : sweep.host.worker_phases) {
    for (const auto& [phase, stats] : phases) busy_s += stats.total_s;
  }

  for (size_t i = 0; i < traces.size(); ++i) {
    CellTrace& t = traces[i];
    const Result<CellResult>& cell = sweep.cells[i].result;
    if (!cell.ok()) {
      Fail(&t, cell.status().ToString());
    } else if (!t.base_text.empty() &&
               BaseText(FromCell(*t.prepared.plan, *cell)) != t.base_text) {
      Fail(&t, "exec::RunSweep outcome differs from the direct layer calls");
    }
    r.Cell(t.cell.label(), t.digest, t.error);
  }

  // Workload sums.
  std::map<std::string, double> layer_s;
  double self_s = 0.0;
  double run = 0, traced = 0, attributed = 0, diagnose = 0, gen = 0;
  double events = 0, src = 0, rows = 0, batches = 0, alloc = 0;
  double gen_tuples = 0, samples = 0, dropped = 0, peak_heap = 0;
  double share[kNumShares] = {};
  for (const CellTrace& t : traces) {
    for (const auto& [layer, s] : t.layer_s) layer_s[layer] += s;
    self_s += t.self_s;
    run += t.run_cpu_s;
    traced += t.traced_cpu_s;
    attributed += t.attributed_cpu_s;
    diagnose += t.diagnose_cpu_s;
    gen += t.gen_cpu_s;
    gen_tuples += static_cast<double>(t.gen_tuples);
    events += static_cast<double>(t.events);
    src += static_cast<double>(t.source_tuples);
    rows += static_cast<double>(t.rows);
    batches += static_cast<double>(t.batches);
    alloc += static_cast<double>(t.alloc_bytes);
    samples += static_cast<double>(t.samples);
    dropped += static_cast<double>(t.dropped);
    peak_heap = std::max(peak_heap, static_cast<double>(t.peak_heap_bytes));
    for (int c = 0; c < kNumShares; ++c) share[c] += t.share_cpu_s[c];
  }
  double share_total = 0.0;
  for (double s : share) share_total += s;

  for (const auto& [layer, metric] : kSetupLayers) {
    r.Add(metric, layer_s[layer] / w.setup_reps);
  }
  r.Add("sim.run_cpu_s", run);
  r.Add("sim.events_per_src_tuple", Ratio(events, src));
  r.Add("sim.ns_per_event", Ratio(run * 1e9, events));
  r.Add("sim.rows_per_batch", Ratio(rows, batches));
  r.Add("sim.alloc_bytes_per_src_tuple", Ratio(alloc, src));
  r.Add("sim.peak_heap_mb", peak_heap / (1024.0 * 1024.0));
  for (int c = 0; c < kNumShares; ++c) {
    r.Add(kShareMetrics[c], Ratio(share[c], share_total));
  }
  r.Add("sim.attribution_overhead", Ratio(attributed, run) - 1.0);
  r.Add("data.gen_ns_per_tuple", Ratio(gen * 1e9, gen_tuples));
  r.Add("obs.diagnose_share", Ratio(diagnose, attributed + diagnose));
  r.Add("exec.busy_fraction", Ratio(busy_s, sweep.jobs * sweep.wall_s));
  r.Add("prof.torn_share", Ratio(dropped, samples));
  r.Add("prof.overhead", Ratio(traced, run) - 1.0);

  Json layers = Json::Object();
  layers.Set("workload", Json::Str(w.name));
  layers.Set("seed", Json::Str(std::to_string(seed)));
  layers.Set("cells", Json::Int(static_cast<int64_t>(traces.size())));
  layers.Set("jobs", Json::Int(jobs));
  layers.Set("metrics", MetricsJson(r));
  // Span totals; a layer span has no children, so its total is its self
  // time; "cell" is the cells' own time outside every layer span, and
  // "exec.sweep" the wall time of the harness pass, which has no spans.
  Json spans = Json::Object();
  for (const auto& [layer, s] : layer_s) spans.Set(layer, Json::Number(s));
  spans.Set("cell", Json::Number(self_s));
  spans.Set("exec.sweep", Json::Number(sweep.wall_s));
  layers.Set("self_s", std::move(spans));

  for (const Status& st :
       {WriteTextFileAtomic(dir + "/layers.json", layers.Dump(2) + "\n"),
        tracer.WriteFile(dir + "/trace.json"),
        WriteCellsCsv(dir + "/cells.csv", traces)}) {
    if (!st.ok()) r.errors.push_back("write: " + st.ToString());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Smoke test and reference regeneration

/// The smoke assertions for one workload; returns failures.
std::vector<std::string> SmokeChecks(const Json& benchmark,
                                     const Report& e2e, const Report& trace,
                                     bool have_reference) {
  std::vector<std::string> fails;
  auto check_printed = [&](const char* section, const Report& r) {
    if (!benchmark[section].is_array()) {
      fails.push_back(StrFormat("BENCHMARK.json has no %s list", section));
      return;
    }
    for (size_t i = 0; i < benchmark[section].size(); ++i) {
      const Json& m = benchmark[section].at(i);
      const std::string name = m["name"].AsString();
      if (std::isnan(r.Value(name))) {
        fails.push_back(r.workload + ": metric " + name + " not printed");
      } else if (m["unit"].AsString() != UnitOf(name)) {
        fails.push_back(r.workload + ": unit of " + name + " is " +
                        UnitOf(name) + ", BENCHMARK.json says " +
                        m["unit"].AsString());
      }
    }
  };
  check_printed("end_to_end", e2e);
  check_printed("per_layer", trace);
  if (!have_reference) fails.push_back(e2e.workload + ": no smoke digests");
  for (const Report* r : {&e2e, &trace}) {
    for (const std::string& e : r->errors) {
      fails.push_back(r->workload + " " + r->pass + ": " + e);
    }
  }
  double sum = 0.0;
  for (const char* share : kShareMetrics) sum += trace.Value(share);
  if (!(std::abs(sum - 1.0) <= 1e-9)) {
    fails.push_back(StrFormat("%s: sim.*_share sum to %.17g",
                              trace.workload.c_str(), sum));
  }
  return fails;
}

int RunSmoke(const std::string& benchmark_path, const Json& ref,
             const std::string& out_dir) {
  Result<std::string> text = ReadTextFile(benchmark_path);
  Result<Json> benchmark =
      text.ok() ? Json::Parse(*text) : Result<Json>(text.status());
  if (!benchmark.ok()) {
    std::fprintf(stderr, "pdsp_e2e: %s: %s\n", benchmark_path.c_str(),
                 benchmark.status().ToString().c_str());
    return 1;
  }
  const double t0 = NowS();
  std::vector<std::string> fails;
  for (const Workload& full : Workloads()) {
    const Workload w = SmokeVariant(full);
    const Report e2e = E2eRep(w, 42, ref, out_dir);
    const Report trace = TracePass(w, 42, ref, out_dir);
    PrintReport(e2e);
    PrintReport(trace);
    const bool have_reference = ReferenceFor(ref, w.name, 42) != nullptr;
    for (std::string& f : SmokeChecks(*benchmark, e2e, trace, have_reference)) {
      fails.push_back(std::move(f));
    }
  }
  for (const std::string& f : fails) {
    std::fprintf(stderr, "smoke FAILED: %s\n", f.c_str());
  }
  std::printf("smoke: %s in %.2f s\n", fails.empty() ? "ok" : "FAILED",
              NowS() - t0);
  return fails.empty() ? 0 : 1;
}

/// Seeds with reference digests: 42 is the default, 1009 is held out for
/// re-checking claims.
constexpr uint64_t kReferenceSeeds[] = {42, 1009};

int WriteReference(const std::string& path, const std::string& out_dir) {
  const Json none;
  Json digests = Json::Object();
  auto record = [&](const Workload& w, uint64_t seed) -> bool {
    const Report r = E2eRep(w, seed, none, out_dir);
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "pdsp_e2e: %s seed %llu: %s\n", w.name.c_str(),
                   static_cast<unsigned long long>(seed), e.c_str());
    }
    Json cells = Json::Object();
    for (const auto& [label, hex] : r.digests) cells.Set(label, Json::Str(hex));
    Json by_seed = digests.Has(w.name) ? digests[w.name] : Json::Object();
    by_seed.Set(std::to_string(seed), std::move(cells));
    digests.Set(w.name, std::move(by_seed));
    std::fprintf(stderr, "pdsp_e2e: %s seed %llu: %lld cells\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<long long>(r.attempted));
    return r.failed == 0;
  };
  bool ok = true;
  for (const Workload& w : Workloads()) {
    for (uint64_t seed : kReferenceSeeds) ok = record(w, seed) && ok;
    ok = record(SmokeVariant(w), 42) && ok;
  }
  if (!ok) return 1;
  Json root = Json::Object();
  root.Set("digest",
           Json::Str("FNV-1a 64 over source/sink/late-drop/backpressure "
                     "counts, latency p50/p95/p99, throughput, mean latency "
                     "(direct cells) and per-operator tuples in/out, busy "
                     "time and utilization as hex floats; sweep cells add "
                     "the latency breakdown and diagnosis codes"));
  root.Set("digests", std::move(digests));
  const Status st = WriteTextFileAtomic(path, root.Dump(2) + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "pdsp_e2e: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pdsp_e2e --workload W [--seed N] [--trace] "
               "[--reference FILE] [--out DIR]\n"
               "       pdsp_e2e --smoke --benchmark BENCHMARK.json "
               "--reference FILE [--out DIR]\n"
               "       pdsp_e2e --write-reference FILE [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return Usage();
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (a == "--trace" || a == "--smoke") {
      args[a.substr(2)] = "1";
    } else if (i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  auto arg = [&](const char* key, const char* fallback) {
    auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  const std::string out_dir = arg("out", "e2e-out");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (args.count("write-reference") != 0) {
    return WriteReference(args["write-reference"], out_dir);
  }
  Json ref;
  if (args.count("reference") != 0) {
    Result<std::string> text = ReadTextFile(args["reference"]);
    Result<Json> parsed =
        text.ok() ? Json::Parse(*text) : Result<Json>(text.status());
    if (!parsed.ok()) {
      std::fprintf(stderr, "pdsp_e2e: %s: %s\n", args["reference"].c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    ref = std::move(*parsed);
  }
  if (args.count("smoke") != 0) {
    return RunSmoke(arg("benchmark", "BENCHMARK.json"), ref, out_dir);
  }
  const std::string name = arg("workload", "");
  const std::string seed_text = arg("seed", "42");
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (seed_text.empty() || *end != '\0') return Usage();
  for (const Workload& w : Workloads()) {
    if (w.name != name) continue;
    PrintReport(args.count("trace") != 0 ? TracePass(w, seed, ref, out_dir)
                                         : E2eRep(w, seed, ref, out_dir));
    return 0;
  }
  std::fprintf(stderr, "pdsp_e2e: unknown workload '%s'\n", name.c_str());
  return Usage();
}

}  // namespace
}  // namespace bench
}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::bench::Main(argc, argv); }
