#include "src/exec/sweep.h"

#include <gtest/gtest.h>

#include <csignal>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/obs/ledger.h"
#include "src/store/json.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace exec {
namespace {

// A 16-cell grid over (rate, parallelism): big enough to exercise real
// fan-out, small enough (0.4s horizon, 1 repeat) to stay fast.
std::vector<SweepCell> MakeGrid(const std::string& ledger_path = "") {
  std::vector<SweepCell> cells;
  const Cluster cluster = Cluster::M510(4);
  for (int i = 0; i < 16; ++i) {
    SweepCell cell;
    const double rate = 800.0 + 125.0 * i;
    const int parallelism = 1 + (i % 3);
    cell.make_plan = [rate, parallelism] {
      return testing::LinearPlan(rate, parallelism);
    };
    cell.cluster = cluster;
    cell.protocol.repeats = 1;
    cell.protocol.duration_s = 0.4;
    cell.protocol.warmup_s = 0.1;
    cell.protocol.seed = 7;
    cell.protocol.diagnose = false;
    cell.label = StrFormat("grid/%02d", i);
    if (!ledger_path.empty()) {
      cell.protocol.ledger.enabled = true;
      cell.protocol.ledger.path = ledger_path;
      cell.protocol.ledger.cluster_name = "m510";
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string TempLedgerPath(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/pdsp_sweep_test";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name + ".jsonl";
  std::filesystem::remove(path);
  return path;
}

TEST(SweepTest, SequentialAndParallelRunsAreBitIdentical) {
  const std::string ledger1 = TempLedgerPath("jobs1");
  const std::string ledger8 = TempLedgerPath("jobs8");

  SweepOptions seq;
  seq.jobs = 1;
  const SweepResult r1 = RunSweep(MakeGrid(ledger1), seq);

  SweepOptions par;
  par.jobs = 8;
  const SweepResult r8 = RunSweep(MakeGrid(ledger8), par);

  ASSERT_EQ(r1.cells.size(), 16u);
  ASSERT_EQ(r8.cells.size(), 16u);
  EXPECT_EQ(r1.NumOk(), 16u);
  EXPECT_EQ(r8.NumOk(), 16u);

  for (size_t i = 0; i < 16; ++i) {
    SCOPED_TRACE(r1.cells[i].label);
    EXPECT_EQ(r1.cells[i].label, r8.cells[i].label);
    ASSERT_TRUE(r1.cells[i].result.ok());
    ASSERT_TRUE(r8.cells[i].result.ok());
    const CellResult& a = *r1.cells[i].result;
    const CellResult& b = *r8.cells[i].result;
    // Exact equality, not tolerance: the simulator is deterministic in
    // virtual time and seeds derive only from (protocol.seed, repeat).
    EXPECT_EQ(a.mean_median_latency_s, b.mean_median_latency_s);
    EXPECT_EQ(a.mean_throughput_tps, b.mean_throughput_tps);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.late_drops, b.late_drops);
    EXPECT_EQ(a.backpressure_skipped, b.backpressure_skipped);
  }

  // Ledger records: same canonical order and identical content modulo the
  // per-invocation identity (run_id, timestamp) and host-footprint fields.
  auto records1 = obs::RunLedger(ledger1).Load();
  auto records8 = obs::RunLedger(ledger8).Load();
  ASSERT_TRUE(records1.ok());
  ASSERT_TRUE(records8.ok());
  ASSERT_EQ(records1->size(), 16u);
  ASSERT_EQ(records8->size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    const obs::RunRecord& a = (*records1)[i];
    const obs::RunRecord& b = (*records8)[i];
    SCOPED_TRACE(a.label);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.plan_hash, b.plan_hash);
    EXPECT_EQ(a.parallelism, b.parallelism);
    EXPECT_EQ(a.event_rate, b.event_rate);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.repeats, b.repeats);
    EXPECT_EQ(a.throughput_tps, b.throughput_tps);
    EXPECT_EQ(a.median_latency_s, b.median_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.late_drops, b.late_drops);
    EXPECT_EQ(a.backpressure_skipped, b.backpressure_skipped);
  }
}

TEST(SweepTest, ResultsComeBackInCellOrder) {
  SweepOptions options;
  options.jobs = 4;
  const SweepResult sweep = RunSweep(MakeGrid(), options);
  ASSERT_EQ(sweep.cells.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(sweep.cells[i].label, StrFormat("grid/%02zu", i));
  }
}

TEST(SweepTest, FailingCellDoesNotPoisonTheSweep) {
  std::vector<SweepCell> cells = MakeGrid();
  cells.resize(4);
  cells[1].make_plan = []() -> Result<LogicalPlan> {
    return Status::InvalidArgument("deliberately broken cell");
  };
  SweepOptions options;
  options.jobs = 2;
  const SweepResult sweep = RunSweep(cells, options);
  ASSERT_EQ(sweep.cells.size(), 4u);
  EXPECT_EQ(sweep.NumOk(), 3u);
  EXPECT_TRUE(sweep.cells[0].result.ok());
  ASSERT_FALSE(sweep.cells[1].result.ok());
  EXPECT_TRUE(sweep.cells[1].result.status().IsInvalidArgument());
  EXPECT_TRUE(sweep.cells[2].result.ok());
  EXPECT_TRUE(sweep.cells[3].result.ok());
  EXPECT_EQ(sweep.metrics->CounterValue("pdsp.exec.cells_failed"), 1);
}

TEST(SweepTest, MissingPlanFactoryIsInvalidArgument) {
  std::vector<SweepCell> cells(1);
  cells[0].label = "no-factory";
  const SweepResult sweep = RunSweep(cells, SweepOptions());
  ASSERT_EQ(sweep.cells.size(), 1u);
  ASSERT_FALSE(sweep.cells[0].result.ok());
  EXPECT_TRUE(sweep.cells[0].result.status().IsInvalidArgument());
}

TEST(SweepTest, MergedMetricsAndHostProfileCoverAllCells) {
  SweepOptions options;
  options.jobs = 4;
  std::vector<SweepCell> cells = MakeGrid();
  cells.resize(8);
  const SweepResult sweep = RunSweep(cells, options);
  ASSERT_NE(sweep.metrics, nullptr);
  EXPECT_EQ(sweep.metrics->CounterValue("pdsp.exec.cells_total"), 8);
  EXPECT_EQ(sweep.metrics->CounterValue("pdsp.exec.cells_failed"), 0);
  EXPECT_EQ(sweep.metrics->GaugeValue("pdsp.exec.jobs"), 4.0);
  EXPECT_GT(sweep.metrics->GaugeValue("pdsp.exec.sweep_wall_s"), 0.0);

  // Worker phase seconds live under worker_phases (per worker), never in
  // the wall-clock `phases` map — that would double-count CPU seconds.
  EXPECT_FALSE(sweep.host.worker_phases.empty());
  EXPECT_EQ(sweep.host.phases.count("simulate"), 0u);
  const obs::WorkerPhaseMap aggregate = sweep.host.AggregateWorkerPhases();
  ASSERT_EQ(aggregate.count("simulate"), 1u);
  // 8 cells x 1 repeat = 8 simulate scopes across all workers.
  EXPECT_EQ(aggregate.at("simulate").count, 8);
}

TEST(SweepTest, CellBundlesHoldOnlyTheirOwnPhasesAtAnyJobs) {
  for (int jobs : {1, 3}) {
    SCOPED_TRACE(jobs);
    const std::string dir =
        ::testing::TempDir() + StrFormat("/pdsp_sweep_phases_j%d", jobs);
    std::filesystem::remove_all(dir);
    std::vector<SweepCell> cells = MakeGrid();
    cells.resize(3);
    for (SweepCell& cell : cells) {
      cell.protocol.diagnose = true;
      cell.protocol.obs.enabled = true;
      cell.protocol.obs.dir = dir + "/" + cell.label;
    }
    SweepOptions options;
    options.jobs = jobs;
    const SweepResult sweep = RunSweep(cells, options);
    ASSERT_EQ(sweep.NumOk(), 3u);
    for (const SweepCell& cell : cells) {
      SCOPED_TRACE(cell.label);
      auto text = ReadTextFile(cell.protocol.obs.dir + "/host_profile.json");
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      auto json = Json::Parse(*text);
      ASSERT_TRUE(json.ok());
      // One repeat: one simulate and one diagnose scope, never a sibling
      // cell's, whichever worker ran the cell.
      const Json& phases = (*json)["phases"];
      EXPECT_EQ(phases.members().size(), 2u);
      EXPECT_EQ(phases["simulate"]["count"].AsInt(), 1);
      EXPECT_EQ(phases["diagnose"]["count"].AsInt(), 1);
      EXPECT_FALSE(json->Has("workers"));
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(SweepTest, LedgerHostWallIsEachCellsOwnWallClock) {
  const std::string path = TempLedgerPath("cell_wall");
  std::vector<SweepCell> cells = MakeGrid(path);
  cells.resize(2);
  // The slow cell runs first, so a clock counting process age would give
  // the fast cell, recorded later, the larger value.
  cells[0].make_plan = [] { return testing::LinearPlan(20000.0, 16); };
  cells[0].protocol.duration_s = 2.0;
  cells[1].make_plan = [] { return testing::LinearPlan(300.0, 1); };
  cells[1].protocol.duration_s = 0.2;
  cells[1].protocol.warmup_s = 0.05;
  SweepOptions options;
  options.jobs = 1;
  const SweepResult sweep = RunSweep(cells, options);
  ASSERT_EQ(sweep.NumOk(), 2u);
  auto records = obs::RunLedger(path).Load();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_GT((*records)[1].host_wall_s, 0.0);
  EXPECT_GT((*records)[0].host_wall_s, (*records)[1].host_wall_s);
}

TEST(SweepTest, SummaryRecordLandsInTheSummaryLedger) {
  const std::string path = TempLedgerPath("summary");
  SweepOptions options;
  options.jobs = 2;
  options.name = "unit-sweep";
  options.summary_ledger.enabled = true;
  options.summary_ledger.path = path;
  options.summary_ledger.cluster_name = "m510";
  std::vector<SweepCell> cells = MakeGrid();
  cells.resize(4);
  const SweepResult sweep = RunSweep(cells, options);
  EXPECT_EQ(sweep.NumOk(), 4u);
  auto records = obs::RunLedger(path).Load();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].label, "unit-sweep");
  EXPECT_EQ((*records)[0].parallelism, 2);  // jobs recorded as parallelism
  EXPECT_GT((*records)[0].host_wall_s, 0.0);
}

TEST(SweepTest, MonitoringOnDoesNotPerturbResults) {
  // The monitor only observes: per-cell virtual-time results must stay
  // bit-identical with monitoring enabled at any --jobs.
  SweepOptions plain;
  plain.jobs = 1;
  const SweepResult r1 = RunSweep(MakeGrid(), plain);

  const std::string jsonl = TempLedgerPath("progress");
  SweepOptions monitored;
  monitored.jobs = 4;
  monitored.name = "monitored";
  monitored.monitor.enabled = true;
  monitored.monitor.interval_s = 0.01;
  monitored.monitor.render = obs::MonitorOptions::RenderMode::kOff;
  monitored.monitor.jsonl_path = jsonl;
  const SweepResult r4 = RunSweep(MakeGrid(), monitored);

  ASSERT_EQ(r1.cells.size(), 16u);
  ASSERT_EQ(r4.cells.size(), 16u);
  EXPECT_EQ(r4.NumOk(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    SCOPED_TRACE(r1.cells[i].label);
    ASSERT_TRUE(r1.cells[i].result.ok());
    ASSERT_TRUE(r4.cells[i].result.ok());
    EXPECT_EQ(r1.cells[i].result->mean_median_latency_s,
              r4.cells[i].result->mean_median_latency_s);
    EXPECT_EQ(r1.cells[i].result->mean_throughput_tps,
              r4.cells[i].result->mean_throughput_tps);
    EXPECT_EQ(r1.cells[i].result->p99_latency_s,
              r4.cells[i].result->p99_latency_s);
  }

  // Monitor summary: final snapshot covers all cells, busy fractions are
  // per worker, and the gauges were exported into the merged registry.
  EXPECT_EQ(r4.monitor.last.cells_done, 16u);
  EXPECT_TRUE(r4.monitor.last.final_snapshot);
  EXPECT_EQ(r4.monitor.worker_busy_fraction.size(), 4u);
  EXPECT_GE(r4.metrics->GaugeValue("pdsp.monitor.snapshots"), 1.0);

  // progress.jsonl: every line parses, seq strictly increases, last line is
  // the final snapshot.
  auto text = ReadTextFile(jsonl);
  ASSERT_TRUE(text.ok());
  const std::vector<std::string> lines = Split(Trim(*text), '\n');
  ASSERT_GE(lines.size(), 1u);
  int64_t last_seq = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = Json::Parse(lines[i]);
    ASSERT_TRUE(parsed.ok()) << "line " << i + 1;
    EXPECT_GT((*parsed)["seq"].AsInt(), last_seq);
    last_seq = (*parsed)["seq"].AsInt();
  }
  auto last = Json::Parse(lines.back());
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE((*last)["final"].AsBool());
  EXPECT_EQ((*last)["cells_done"].AsInt(), 16);
}

TEST(SweepTest, StragglerCellSurfacesM201InTheSummaryRecord) {
  // Three fast cells + one deliberately heavy cell on 2 workers: once the
  // fast cells' median is established, the heavy cell's elapsed wall time
  // crosses straggler_ratio x median and M201 must fire.
  std::vector<SweepCell> cells;
  const Cluster cluster = Cluster::M510(4);
  for (int i = 0; i < 4; ++i) {
    SweepCell cell;
    const bool heavy = i == 0;
    const double rate = heavy ? 20000.0 : 300.0;
    const int parallelism = heavy ? 4 : 1;
    cell.make_plan = [rate, parallelism] {
      return testing::LinearPlan(rate, parallelism);
    };
    cell.cluster = cluster;
    cell.protocol.repeats = 1;
    cell.protocol.duration_s = heavy ? 6.0 : 0.05;
    cell.protocol.warmup_s = 0.01;
    cell.protocol.seed = 7;
    cell.protocol.diagnose = false;
    cell.label = heavy ? "straggler/heavy" : StrFormat("straggler/fast%d", i);
    cells.push_back(std::move(cell));
  }

  const std::string summary_path = TempLedgerPath("m201_summary");
  SweepOptions options;
  options.jobs = 2;
  options.name = "sweep/m201";
  options.monitor.enabled = true;
  options.monitor.interval_s = 0.005;
  options.monitor.render = obs::MonitorOptions::RenderMode::kOff;
  options.monitor.straggler_ratio = 2.0;
  options.monitor.straggler_min_completed = 3;
  options.summary_ledger.enabled = true;
  options.summary_ledger.path = summary_path;

  const SweepResult sweep = RunSweep(cells, options);
  EXPECT_EQ(sweep.NumOk(), 4u);
  ASSERT_FALSE(sweep.monitor.codes.empty());
  EXPECT_NE(std::find(sweep.monitor.codes.begin(), sweep.monitor.codes.end(),
                      "PDSP-M201"),
            sweep.monitor.codes.end())
      << Join(sweep.monitor.codes, ",");
  EXPECT_NE(std::find(sweep.monitor.straggler_cells.begin(),
                      sweep.monitor.straggler_cells.end(), "straggler/heavy"),
            sweep.monitor.straggler_cells.end());

  // The codes ride on the summary ledger record (and only there — per-cell
  // records stay bit-identical with monitoring off).
  auto records = obs::RunLedger(summary_path).Load();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].label, "sweep/m201");
  EXPECT_NE(std::find((*records)[0].diagnosis_codes.begin(),
                      (*records)[0].diagnosis_codes.end(), "PDSP-M201"),
            (*records)[0].diagnosis_codes.end());
}

TEST(SweepTest, SigintDrainsInFlightCellsAndFlushesTheLedger) {
  const std::string ledger_path = TempLedgerPath("sigint");
  std::vector<SweepCell> cells = MakeGrid(ledger_path);
  cells.resize(6);
  // The first claimed cell raises SIGINT from inside its plan factory: it
  // is in flight, so it must complete and land in the ledger; cells claimed
  // afterwards must not run.
  auto original = cells[0].make_plan;
  cells[0].make_plan = [original] {
    std::raise(SIGINT);
    return original();
  };

  SweepOptions options;
  options.jobs = 1;
  options.install_sigint = true;
  const SweepResult sweep = RunSweep(cells, options);

  EXPECT_TRUE(sweep.interrupted);
  ASSERT_EQ(sweep.cells.size(), 6u);
  EXPECT_TRUE(sweep.cells[0].result.ok());
  for (size_t i = 1; i < 6; ++i) {
    SCOPED_TRACE(i);
    ASSERT_FALSE(sweep.cells[i].result.ok());
    EXPECT_NE(sweep.cells[i].result.status().ToString().find("interrupted"),
              std::string::npos);
  }
  auto records = obs::RunLedger(ledger_path).Load();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].label, "grid/00");
}

TEST(SweepTest, SigintHandlerIsScopedToTheSweep) {
  // After RunSweep returns, the previous SIGINT disposition is restored and
  // a later uninterrupted sweep is not tainted by the earlier flag.
  std::vector<SweepCell> cells = MakeGrid();
  cells.resize(2);
  SweepOptions options;
  options.jobs = 1;
  options.install_sigint = true;
  const SweepResult sweep = RunSweep(cells, options);
  EXPECT_FALSE(sweep.interrupted);
  EXPECT_EQ(sweep.NumOk(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace pdsp
