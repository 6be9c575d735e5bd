#include "src/exec/run_context.h"

#include <gtest/gtest.h>

#include <set>

#include "src/obs/host_profile.h"

namespace pdsp {
namespace exec {
namespace {

TEST(RunContextTest, DefaultContextOwnsPrivateProfiler) {
  RunContext context;
  RunContext other;
  ASSERT_NE(context.profiler(), nullptr);
  EXPECT_NE(context.profiler(), other.profiler());
}

TEST(RunContextTest, PhasesLandInTheBoundSink) {
  RunContext context;
  { obs::PhaseScope phase(context.profiler(), nullptr, "unit-phase"); }
  const obs::HostProfile profile = context.profiler()->Snapshot();
  ASSERT_EQ(profile.phases.count("unit-phase"), 1u);
  EXPECT_EQ(profile.phases.at("unit-phase").count, 1);
}

TEST(RunContextTest, SeedForRepeatIsPureFunctionOfBaseAndIndex) {
  RunContext context;
  context.set_base_seed(100);
  EXPECT_EQ(context.base_seed(), 100u);
  EXPECT_EQ(context.SeedForRepeat(0), 100u);
  EXPECT_EQ(context.SeedForRepeat(1), 100u + 7919u);
  EXPECT_EQ(context.SeedForRepeat(3), 100u + 3u * 7919u);

  RunContext other;
  other.set_base_seed(100);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(context.SeedForRepeat(r), other.SeedForRepeat(r));
  }
}

TEST(RunContextTest, MixSeedIsDeterministicAndSpread) {
  EXPECT_EQ(RunContext::MixSeed(42, 7), RunContext::MixSeed(42, 7));
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 64; ++i) {
    seeds.insert(RunContext::MixSeed(2024, i));
  }
  EXPECT_EQ(seeds.size(), 64u);  // no collisions over a small fan-out
  EXPECT_NE(RunContext::MixSeed(1, 0), RunContext::MixSeed(2, 0));
}

TEST(RunContextTest, MetricsAndTracerArePerContext) {
  RunContext a;
  RunContext b;
  ASSERT_NE(a.metrics(), nullptr);
  ASSERT_NE(b.metrics(), nullptr);
  EXPECT_NE(a.metrics().get(), b.metrics().get());
  EXPECT_NE(a.tracer(), b.tracer());
  a.metrics()->GetCounter("x")->Add(3);
  EXPECT_EQ(a.metrics()->CounterValue("x"), 3);
  EXPECT_EQ(b.metrics()->CounterValue("x"), 0);
}

}  // namespace
}  // namespace exec
}  // namespace pdsp
