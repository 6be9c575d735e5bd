#include "src/obs/mem.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/exec/thread_pool.h"
#include "src/harness/harness.h"
#include "src/obs/host_profile.h"
#include "src/obs/prof.h"
#include "src/store/json.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace obs {
namespace mem {
namespace {

/// Allocates `count` blocks of `size` bytes. Returned blocks keep the
/// sampled bytes live; dropping the vector frees them through the
/// interposed operator delete.
std::vector<std::unique_ptr<char[]>> AllocateBlocks(int count,
                                                    std::size_t size) {
  std::vector<std::unique_ptr<char[]>> blocks;
  blocks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto block = std::make_unique<char[]>(size);
    block[0] = static_cast<char>(i);  // touch so the alloc is not elided
    blocks.push_back(std::move(block));
  }
  return blocks;
}

int64_t SumFolded(const MemProfile& p) {
  int64_t sum = 0;
  for (const MemFolded& f : p.folded) sum += f.bytes;
  return sum;
}

int64_t SumFrames(const std::vector<MemFrameTotal>& frames) {
  int64_t sum = 0;
  for (const MemFrameTotal& f : frames) sum += f.total_bytes;
  return sum;
}

TEST(MemProfilerTest, StartRequiresARegisteredThread) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  std::async(std::launch::async, [] {
    MemOptions options;
    options.enabled = true;
    MemProfiler profiler(options);
    const Status st = profiler.Start();
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  }).get();
}

TEST(MemProfilerTest, InertWithoutInterpositionStillStops) {
  if (InterpositionAvailable()) GTEST_SKIP() << "interposition present";
  prof::ThreadRegistration reg("mem-test-inert");
  MemOptions options;
  options.enabled = true;
  MemProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());  // OK-but-inert, never fatal
  EXPECT_TRUE(profiler.Stop().empty());
}

TEST(MemProfilerTest, SamplesAttributeToMarkersAndTotalsTelescope) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  prof::ThreadRegistration reg("mem-test-capture");
  MemOptions options;
  options.enabled = true;
  options.sample_interval_bytes = 4096;  // clamped to 1024 minimum
  MemProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(MemProfilingActive());
  // Start() also arms the marker machinery even with no CPU sampler on.
  EXPECT_TRUE(prof::ProfilingActive());
  {
    prof::ProfScope phase(prof::FrameKind::kPhase, "simulate");
    prof::ProfScope app(prof::FrameKind::kApp, "unit");
    {
      prof::ProfScope op(prof::FrameKind::kOperator, "mem-burn");
      prof::ProfScope kernel(prof::FrameKind::kKernel, "mem-burn-kernel");
      auto blocks = AllocateBlocks(2000, 4096);  // ~8 MiB through the op
    }
    auto untracked = AllocateBlocks(500, 4096);  // ~2 MiB with no op frame
  }
  NoteTuplesProcessed("mem-burn", 1000);
  const MemProfile profile = profiler.Stop();
  EXPECT_FALSE(MemProfilingActive());
  ASSERT_FALSE(profile.empty());
  EXPECT_GE(profile.samples, 16);
  EXPECT_GT(profile.total_bytes, 0);
  EXPECT_GE(profile.allocs_estimate, profile.samples);

  // Telescoping is EXACT in integer arithmetic: folded stacks, operator
  // rows (incl. "(untracked)") and kernel rows each partition total_bytes.
  EXPECT_EQ(SumFolded(profile), profile.total_bytes);
  EXPECT_EQ(SumFrames(profile.operators), profile.total_bytes);
  EXPECT_EQ(SumFrames(profile.kernels), profile.total_bytes);

  // Attribution: the marked operator/kernel dominate the sampled bytes.
  const MemFrameTotal* burn = nullptr;
  for (const MemFrameTotal& op : profile.operators) {
    if (op.name == "mem-burn") burn = &op;
  }
  ASSERT_NE(burn, nullptr);
  EXPECT_GT(burn->total_bytes, profile.total_bytes / 2);
  EXPECT_EQ(burn->tuples, 1000);
  EXPECT_GT(burn->bytes_per_tuple, 0.0);
  bool found_kernel = false;
  for (const MemFrameTotal& k : profile.kernels) {
    if (k.name == "mem-burn-kernel") found_kernel = true;
  }
  EXPECT_TRUE(found_kernel);
  bool found_stack = false;
  for (const MemFolded& f : profile.folded) {
    if (f.stack ==
        "phase:simulate;app:unit;op:mem-burn;kernel:mem-burn-kernel") {
      found_stack = true;
    }
  }
  EXPECT_TRUE(found_stack);

  // Everything sampled here was freed before Stop(): the live table is
  // drained and no slots leak across sessions.
  EXPECT_EQ(LiveTableSlotsInUse(), 0);
}

TEST(MemProfilerTest, LiveBytesTrackRetentionAndPeak) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  prof::ThreadRegistration reg("mem-test-live");
  MemOptions options;
  options.enabled = true;
  options.sample_interval_bytes = 4096;
  MemProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  std::vector<std::unique_ptr<char[]>> retained;
  {
    prof::ProfScope op(prof::FrameKind::kOperator, "mem-retainer");
    retained = AllocateBlocks(2000, 4096);  // ~8 MiB held across Stop()
    auto transient = AllocateBlocks(1000, 4096);  // freed before Stop()
  }
  const MemProfile profile = profiler.Stop();
  ASSERT_FALSE(profile.empty());
  EXPECT_GT(profile.live_bytes, 0);
  EXPECT_LE(profile.live_bytes, profile.total_bytes);
  EXPECT_GE(profile.peak_heap_bytes, profile.live_bytes);
  EXPECT_GT(profile.frees, 0);
  EXPECT_EQ(profile.freed_bytes + profile.live_bytes, profile.total_bytes);

  // Live bytes attribute to the retaining operator too.
  int64_t live_sum = 0;
  for (const MemFrameTotal& op : profile.operators) live_sum += op.live_bytes;
  EXPECT_EQ(live_sum, profile.live_bytes);

  // Host RSS high-water mark (satellite: getrusage, bytes) must bound the
  // sampled heap estimate from above for this modest allocation volume.
  const HostUsage usage = HostProfiler().SampleUsage();
  if (usage.peak_rss_bytes > 0) {
    EXPECT_GE(usage.peak_rss_bytes, profile.peak_heap_bytes);
    EXPECT_EQ(usage.peak_rss_kb, usage.peak_rss_bytes / 1024);
  }

  retained.clear();  // frees after Stop() are dropped, not crashed
  EXPECT_EQ(LiveTableSlotsInUse(), 0);
}

TEST(MemProfilerTest, SecondStartWhileRunningFails) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  prof::ThreadRegistration reg("mem-test-double");
  MemOptions options;
  options.enabled = true;
  MemProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_FALSE(profiler.Start().ok());
  profiler.Stop();
}

TEST(MemProfilerTest, ConcurrentAllocationsAcrossPoolWorkersStaySane) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  // TSan leg of the suite: 4 registered pool workers allocate and free
  // under operator markers while the hooks sample and the live table
  // claims/releases slots concurrently.
  prof::ThreadRegistration reg("mem-test-hammer");
  MemOptions options;
  options.enabled = true;
  options.sample_interval_bytes = 4096;
  options.all_threads = true;
  MemProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  const uint32_t op_id = prof::InternName("mem-hammer-op");
  {
    exec::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int t = 0; t < 8; ++t) {
      done.push_back(pool.Submit([op_id] {
        prof::ThreadRegistration worker("mem-hammer-worker");
        for (int i = 0; i < 200; ++i) {
          prof::ProfScope op(prof::FrameKind::kOperator, op_id);
          auto blocks = AllocateBlocks(20, 2048);
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  const MemProfile profile = profiler.Stop();
  ASSERT_FALSE(profile.empty());
  EXPECT_EQ(SumFolded(profile), profile.total_bytes);
  EXPECT_EQ(SumFrames(profile.operators), profile.total_bytes);
  EXPECT_GE(profile.dropped, 0);
  EXPECT_EQ(LiveTableSlotsInUse(), 0);
}

TEST(MemProfileJsonTest, RoundTripsThroughJson) {
  MemProfile profile;
  profile.sample_interval_bytes = 512 * 1024;
  profile.duration_s = 1.25;
  profile.samples = 42;
  profile.dropped = 1;
  profile.table_overflow = 2;
  profile.total_bytes = 21 * 1024 * 1024;
  profile.live_bytes = 5 * 1024 * 1024;
  profile.peak_heap_bytes = 8 * 1024 * 1024;
  profile.allocs_estimate = 1000;
  profile.frees = 30;
  profile.freed_bytes = 16 * 1024 * 1024;
  profile.tuples_processed = 5000;
  profile.bytes_per_tuple = 4404.0;
  profile.folded = {{"phase:simulate;op:count", 40, 20971520, 900},
                    {"(untracked)", 2, 1048576, 100}};
  profile.operators = {{"count", 40, 20971520, 4194304, 900, 5000, 4194.3},
                       {"(untracked)", 2, 1048576, 1048576, 100, 0, 0.0}};
  profile.kernels = {{"(untracked)", 42, 22020096, 5242880, 1000, 0, 0.0}};
  profile.timeline = {{0.1, 1048576}, {0.9, 5242880}};

  auto parsed = MemProfile::FromJson(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, kMemProfileSchemaVersion);
  EXPECT_EQ(parsed->sample_interval_bytes, 512 * 1024);
  EXPECT_DOUBLE_EQ(parsed->duration_s, 1.25);
  EXPECT_EQ(parsed->samples, 42);
  EXPECT_EQ(parsed->dropped, 1);
  EXPECT_EQ(parsed->table_overflow, 2);
  EXPECT_EQ(parsed->total_bytes, profile.total_bytes);
  EXPECT_EQ(parsed->live_bytes, profile.live_bytes);
  EXPECT_EQ(parsed->peak_heap_bytes, profile.peak_heap_bytes);
  EXPECT_EQ(parsed->tuples_processed, 5000);
  EXPECT_DOUBLE_EQ(parsed->bytes_per_tuple, 4404.0);
  ASSERT_EQ(parsed->folded.size(), 2u);
  EXPECT_EQ(parsed->folded[0].stack, "phase:simulate;op:count");
  EXPECT_EQ(parsed->folded[0].bytes, 20971520);
  ASSERT_EQ(parsed->operators.size(), 2u);
  EXPECT_EQ(parsed->operators[0].name, "count");
  EXPECT_EQ(parsed->operators[0].live_bytes, 4194304);
  EXPECT_EQ(parsed->operators[0].tuples, 5000);
  ASSERT_EQ(parsed->kernels.size(), 1u);
  ASSERT_EQ(parsed->timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->timeline[1].t_s, 0.9);
  EXPECT_EQ(parsed->timeline[1].live_bytes, 5242880);
}

TEST(MemProfileJsonTest, RejectsUnknownSchemaVersion) {
  MemProfile profile;
  profile.samples = 1;
  Json j = profile.ToJson();
  j.Set("schema_version", Json::Int(99));
  EXPECT_FALSE(MemProfile::FromJson(j).ok());
  EXPECT_FALSE(MemProfile::FromJson(Json::Array()).ok());
}

TEST(DiagnoseMemProfileTest, FlagsDominanceRetentionAndNodeBudget) {
  MemProfile profile;
  profile.sample_interval_bytes = 1024;
  profile.samples = 100;
  profile.total_bytes = 100 * 1024 * 1024;
  profile.live_bytes = 60 * 1024 * 1024;   // 60% retained -> M302
  profile.peak_heap_bytes = int64_t{3} * 1024 * 1024 * 1024;  // > 2 GiB node
  MemFrameTotal hog;
  hog.name = "join";
  hog.samples = 80;
  hog.total_bytes = 80 * 1024 * 1024;  // 80% share -> M301
  hog.live_bytes = 55 * 1024 * 1024;
  profile.operators = {hog};

  analysis::AnalysisReport report;
  DiagnoseMemProfile(profile, /*node_memory_gb=*/2.0, &report);
  report.Finalize();
  EXPECT_TRUE(report.HasCode("PDSP-M301"));
  EXPECT_TRUE(report.HasCode("PDSP-M302"));
  EXPECT_TRUE(report.HasCode("PDSP-M303"));

  // A healthy profile (balanced, transient, small) yields none of them.
  MemProfile healthy = profile;
  healthy.live_bytes = 1024;
  healthy.peak_heap_bytes = 1024 * 1024;
  healthy.operators[0].total_bytes = 30 * 1024 * 1024;  // 30% share
  analysis::AnalysisReport clean;
  DiagnoseMemProfile(healthy, /*node_memory_gb=*/2.0, &clean);
  EXPECT_FALSE(clean.HasCode("PDSP-M301"));
  EXPECT_FALSE(clean.HasCode("PDSP-M302"));
  EXPECT_FALSE(clean.HasCode("PDSP-M303"));
}

TEST(MeasureCellMemTest, WritesMemoryJsonAndLedgerSummary) {
  if (!InterpositionAvailable()) GTEST_SKIP() << "interposition absent";
  const std::string dir = ::testing::TempDir() + "/pdsp_mem_cell";
  std::filesystem::remove_all(dir);
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = 2.0;
  protocol.warmup_s = 0.5;
  protocol.label = "mem-unit";
  protocol.mem.enabled = true;
  protocol.mem.sample_interval_bytes = 16 * 1024;
  protocol.obs.enabled = true;
  protocol.obs.dir = dir;
  auto cell = MeasureCell(*plan, Cluster::M510(4), protocol);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  ASSERT_TRUE(cell->has_mem_profile);
  EXPECT_GE(cell->mem_profile.samples, 1);
  EXPECT_EQ(SumFrames(cell->mem_profile.operators),
            cell->mem_profile.total_bytes);

  // The bundle's memory.json parses back to the same profile.
  auto text = ReadTextFile(dir + "/memory.json");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto json = Json::Parse(*text);
  ASSERT_TRUE(json.ok());
  auto parsed = MemProfile::FromJson(*json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->samples, cell->mem_profile.samples);
  EXPECT_EQ(parsed->total_bytes, cell->mem_profile.total_bytes);

  // Ledger summary mirrors the profile through the nested "memory" object.
  EXPECT_EQ(cell->ledger_record.mem_samples, cell->mem_profile.samples);
  EXPECT_EQ(cell->ledger_record.mem_peak_heap_bytes,
            cell->mem_profile.peak_heap_bytes);
  const Json record_json = cell->ledger_record.ToJson();
  EXPECT_TRUE(record_json["memory"].is_object());

  // Round trip through RunRecord JSON keeps the summary.
  auto record = RunRecord::FromJson(record_json);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->mem_samples, cell->ledger_record.mem_samples);
  EXPECT_EQ(record->mem_bytes_per_tuple,
            cell->ledger_record.mem_bytes_per_tuple);
}

TEST(MeasureCellMemTest, UnprofiledRecordsHaveNoMemoryKeyAndStayIdentical) {
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol base;
  base.repeats = 1;
  base.duration_s = 2.0;
  base.warmup_s = 0.5;
  auto plain = MeasureCell(*plan, Cluster::M510(4), base);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_mem_profile);
  // Byte-identity contract: no "memory" key at all on unprofiled records,
  // so ledgers written before this feature parse and diff cleanly.
  const std::string dump = plain->ledger_record.ToJson().Dump(0);
  EXPECT_EQ(dump.find("\"memory\""), std::string::npos);

  if (!InterpositionAvailable()) return;
  RunProtocol profiled = base;
  profiled.mem.enabled = true;
  profiled.mem.sample_interval_bytes = 16 * 1024;
  auto prof = MeasureCell(*plan, Cluster::M510(4), profiled);
  ASSERT_TRUE(prof.ok());
  // Exact equality, not near: the sampler only observes host-side state.
  EXPECT_EQ(plain->mean_median_latency_s, prof->mean_median_latency_s);
  EXPECT_EQ(plain->mean_throughput_tps, prof->mean_throughput_tps);
  EXPECT_EQ(plain->p95_latency_s, prof->p95_latency_s);
  EXPECT_EQ(plain->p99_latency_s, prof->p99_latency_s);
  EXPECT_EQ(plain->late_drops, prof->late_drops);
  EXPECT_EQ(plain->backpressure_skipped, prof->backpressure_skipped);
}

}  // namespace
}  // namespace mem
}  // namespace obs
}  // namespace pdsp
