#include "src/obs/host_profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pdsp {
namespace obs {
namespace {

TEST(HostProfilerTest, PhasesAccumulateCountTotalAndMax) {
  HostProfiler profiler;
  profiler.RecordPhase("simulate", 0.25);
  profiler.RecordPhase("simulate", 0.75);
  profiler.RecordPhase("train", 0.10);
  const HostProfile profile = profiler.Snapshot();
  ASSERT_EQ(profile.phases.count("simulate"), 1u);
  const HostPhaseStats& sim = profile.phases.at("simulate");
  EXPECT_EQ(sim.count, 2);
  EXPECT_DOUBLE_EQ(sim.total_s, 1.0);
  EXPECT_DOUBLE_EQ(sim.max_s, 0.75);
  EXPECT_EQ(profile.phases.at("train").count, 1);
}

TEST(HostProfilerTest, DisabledAndNullProfilersRecordNothing) {
  HostProfiler profiler;
  { PhaseScope phase(nullptr, nullptr, "simulate"); }
  EXPECT_TRUE(profiler.Snapshot().phases.empty());
}

TEST(PhaseScopeTest, OneNameFeedsThePhaseTheSpanAndTheMarkerFrame) {
  prof::ThreadRegistration registration("phase-scope-test");
  prof::ProfOptions options;
  options.enabled = true;
  options.hz = 997.0;
  prof::Profiler cpu(options);
  ASSERT_TRUE(cpu.Start().ok());
  const prof::ThreadEntry* entry = prof::CurrentThreadEntry();
  ASSERT_NE(entry, nullptr);

  HostProfiler sink;
  Tracer tracer;
  uint64_t frames[prof::kMaxMarkerDepth];
  int depth = 0;
  {
    PhaseScope phase(&sink, &tracer, "export");
    depth = entry->stack.Snapshot(frames);
  }
  EXPECT_EQ(entry->stack.depth(), 0u);
  cpu.Stop();

  ASSERT_EQ(depth, 1);
  EXPECT_EQ(prof::FrameKindOf(frames[0]), prof::FrameKind::kPhase);
  EXPECT_EQ(prof::LookupName(prof::FrameNameOf(frames[0])), "export");

  const HostProfile profile = sink.Snapshot();
  ASSERT_EQ(profile.phases.size(), 1u);
  EXPECT_EQ(profile.phases.begin()->first, "export");
  EXPECT_EQ(profile.phases.begin()->second.count, 1);

  const Json events = tracer.ToJson()["traceEvents"];
  std::vector<std::string> spans;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events.at(i)["cat"].AsString() == "phase") {
      spans.push_back(events.at(i)["name"].AsString());
    }
  }
  EXPECT_EQ(spans, std::vector<std::string>{"export"});
}

TEST(HostProfilerTest, UsageSamplesAreSane) {
  HostProfiler profiler;
  const HostUsage usage = profiler.SampleUsage();
  EXPECT_GE(usage.wall_s, 0.0);
  EXPECT_GE(usage.cpu_user_s, 0.0);
  EXPECT_GE(usage.cpu_sys_s, 0.0);
#ifdef __linux__
  // A running test binary certainly has resident memory.
  EXPECT_GT(usage.rss_kb, 0);
  EXPECT_GE(usage.peak_rss_kb, usage.rss_kb);
#endif
}

TEST(HostProfilerTest, ExportToSetsHostGauges) {
  HostProfiler profiler;
  profiler.RecordPhase("simulate", 2.0);
  MetricsRegistry registry;
  profiler.ExportTo(&registry);
  EXPECT_GT(registry.GaugeValue("pdsp.host.peak_rss_kb"), 0.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.host.phase.simulate.total_s"),
                   2.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.host.phase.simulate.count"),
                   1.0);
}

TEST(HostProfilerTest, WorkerPhasesStaySeparateFromWallClockPhases) {
  HostProfiler worker_a;
  worker_a.RecordPhase("simulate", 1.0);
  worker_a.RecordPhase("simulate", 0.5);
  HostProfiler worker_b;
  worker_b.RecordPhase("simulate", 2.0);
  worker_b.RecordPhase("export", 0.25);

  HostProfiler merger;
  merger.MergeWorkerPhases("sweep:worker0", worker_a.Snapshot().phases);
  merger.MergeWorkerPhases("sweep:worker1", worker_b.Snapshot().phases);

  const HostProfile profile = merger.Snapshot();
  // Concurrent busy-seconds must not masquerade as wall-clock phases.
  EXPECT_TRUE(profile.phases.empty());
  ASSERT_EQ(profile.worker_phases.size(), 2u);
  EXPECT_DOUBLE_EQ(
      profile.worker_phases.at("sweep:worker0").at("simulate").total_s, 1.5);

  const WorkerPhaseMap aggregate = profile.AggregateWorkerPhases();
  ASSERT_EQ(aggregate.count("simulate"), 1u);
  EXPECT_DOUBLE_EQ(aggregate.at("simulate").total_s, 3.5);
  EXPECT_EQ(aggregate.at("simulate").count, 3);
  EXPECT_DOUBLE_EQ(aggregate.at("simulate").max_s, 2.0);
  EXPECT_DOUBLE_EQ(aggregate.at("export").total_s, 0.25);
}

TEST(HostProfilerTest, WorkerPhasesExportAndSerialize) {
  HostProfiler worker;
  worker.RecordPhase("simulate", 1.0);
  HostProfiler merger;
  merger.MergeWorkerPhases("w0", worker.Snapshot().phases);

  MetricsRegistry registry;
  merger.ExportTo(&registry);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.host.workers"), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.GaugeValue("pdsp.host.worker_phase.simulate.total_s"), 1.0);

  const Json json = merger.Snapshot().ToJson();
  EXPECT_DOUBLE_EQ(
      json["workers"]["w0"]["simulate"]["total_s"].AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(
      json["worker_aggregate"]["simulate"]["total_s"].AsNumber(), 1.0);
}

TEST(HostProfileTest, ToJsonCarriesUsageAndPhases) {
  HostProfiler profiler;
  profiler.RecordPhase("build-plan", 0.5);
  const Json json = profiler.Snapshot().ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_TRUE(json["usage"].is_object());
  EXPECT_DOUBLE_EQ(json["phases"]["build-plan"]["total_s"].AsNumber(), 0.5);
}

}  // namespace
}  // namespace obs
}  // namespace pdsp
