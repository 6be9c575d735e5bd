// Microbenchmarks for the discrete-event simulator itself: virtual-seconds
// simulated per wall-second across plan shapes and parallelism, which bounds
// how large an experiment sweep the harness can afford.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/host_profile.h"
#include "src/obs/mem.h"
#include "src/obs/prof.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

void RunSim(benchmark::State& state, const LogicalPlan& plan, double rate,
            bool observability = true, bool attribute = false) {
  (void)rate;
  int64_t tuples = 0;
  for (auto _ : state) {
    ExecutionOptions opt;
    opt.sim.duration_s = 1.0;
    opt.sim.warmup_s = 0.25;
    opt.sim.seed = 42;
    // Default keeps metric sampling on; the NoObs variants quantify its
    // overhead (acceptance bound: < 5%).
    if (!observability) opt.sim.metrics_interval_s = 0.0;
    // The Attr variants quantify the latency-attribution charging that
    // diagnosis runs opt into (default runs never pay it).
    opt.sim.attribute_latency = attribute;
    auto r = ExecutePlan(plan, Cluster::M510(10), opt);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    tuples += r->source_tuples;
  }
  state.counters["src_tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}

void BM_SimLinearPlan(benchmark::State& state) {
  const auto parallelism = static_cast<int>(state.range(0));
  auto plan = testing::LinearPlan(20000.0, parallelism);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  RunSim(state, *plan, 20000.0);
}
BENCHMARK(BM_SimLinearPlan)->Arg(1)->Arg(8)->Arg(64);

void BM_SimLinearPlanNoObs(benchmark::State& state) {
  const auto parallelism = static_cast<int>(state.range(0));
  auto plan = testing::LinearPlan(20000.0, parallelism);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  RunSim(state, *plan, 20000.0, /*observability=*/false);
}
BENCHMARK(BM_SimLinearPlanNoObs)->Arg(1)->Arg(8)->Arg(64);

void BM_SimJoinPlan(benchmark::State& state) {
  const auto parallelism = static_cast<int>(state.range(0));
  auto plan = testing::TwoWayJoinPlan(5000.0, parallelism);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  RunSim(state, *plan, 5000.0);
}
BENCHMARK(BM_SimJoinPlan)->Arg(1)->Arg(8);

void BM_SimLinearPlanAttr(benchmark::State& state) {
  const auto parallelism = static_cast<int>(state.range(0));
  auto plan = testing::LinearPlan(20000.0, parallelism);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  RunSim(state, *plan, 20000.0, /*observability=*/true, /*attribute=*/true);
}
BENCHMARK(BM_SimLinearPlanAttr)->Arg(8);

void BM_SimJoinPlanAttr(benchmark::State& state) {
  const auto parallelism = static_cast<int>(state.range(0));
  auto plan = testing::TwoWayJoinPlan(5000.0, parallelism);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  RunSim(state, *plan, 5000.0, /*observability=*/true, /*attribute=*/true);
}
BENCHMARK(BM_SimJoinPlanAttr)->Arg(8);

// The event queue alone at a steady depth: each item pops the earliest
// event and pushes one later event, so the depth never changes. Delays are
// shaped like the fanout cell's: cross-node deliveries at the 150 us link
// latency plus a little transit time, 4 us same-node hand-offs, and
// zero-delay events that tie with the current time (chained deliveries).
// The payload is the engine's (task, kind, delivery id). Not gated.
void BM_EventQueue(benchmark::State& state) {
  struct Payload {
    int task;
    uint8_t kind;
    uint32_t delivery;
  };
  const auto depth = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<double> delays(4096);  // a power of two: index by mask
  for (double& d : delays) {
    const double u = rng.NextDouble();
    d = u < 0.6 ? 150e-6 + rng.Uniform(0.0, 1e-7) : u < 0.8 ? 4e-6 : 0.0;
  }
  EventQueue<Payload> q;
  for (size_t i = 0; i < depth; ++i) {
    q.Push(rng.Uniform(0.0, 150e-6),
           Payload{static_cast<int>(i % 193), 1, static_cast<uint32_t>(i)});
  }
  size_t k = 0;
  for (auto _ : state) {
    const auto e = q.Pop();
    q.Push(e.time + delays[k++ & (delays.size() - 1)], e.payload);
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(256)->Arg(2048)->Arg(8192);

// Host-profiler acceptance pair: the HostProf variant scopes every run in a
// "simulate" PhaseScope on a profiler (what the harness does per repeat),
// the control passes a null sink so the scope records nothing.
// Acceptance bound: HostProf within 2% of the control.
void RunSimHostProfiled(benchmark::State& state, bool profiler_enabled) {
  auto plan = testing::LinearPlan(20000.0, 8);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  obs::HostProfiler profiler;
  obs::HostProfiler* sink = profiler_enabled ? &profiler : nullptr;
  int64_t tuples = 0;
  for (auto _ : state) {
    obs::PhaseScope phase(sink, nullptr, "simulate");
    ExecutionOptions opt;
    opt.sim.duration_s = 1.0;
    opt.sim.warmup_s = 0.25;
    opt.sim.seed = 42;
    auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    tuples += r->source_tuples;
  }
  state.counters["src_tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}

void BM_SimLinearPlanHostProf(benchmark::State& state) {
  RunSimHostProfiled(state, /*profiler_enabled=*/true);
}
BENCHMARK(BM_SimLinearPlanHostProf);

void BM_SimLinearPlanHostProfOff(benchmark::State& state) {
  RunSimHostProfiled(state, /*profiler_enabled=*/false);
}
BENCHMARK(BM_SimLinearPlanHostProfOff);

// Sampling-CPU-profiler acceptance pair: the Prof variant runs the sampler
// at the default 97 Hz with the simulate phase marked — exactly what
// `--profile` adds to a harness cell, including the per-firing operator
// markers inside the engine. The control leaves the profiler off, so every
// ProfScope collapses to one relaxed load + branch. Acceptance bound
// (tools/bench_gate.sh): Prof within 10% of the control in CI noise; the
// design target is <= 2%.
void RunSimCpuProfiled(benchmark::State& state, bool profiler_enabled) {
  auto plan = testing::LinearPlan(20000.0, 8);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  obs::prof::ThreadRegistration registration("bench-main");
  int64_t tuples = 0;
  for (auto _ : state) {
    obs::prof::ProfOptions options;
    options.enabled = profiler_enabled;
    options.hz = 97.0;
    obs::prof::Profiler profiler(options);
    if (profiler_enabled) {
      Status st = profiler.Start();
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    {
      obs::prof::ProfScope phase(obs::prof::FrameKind::kPhase, "simulate");
      ExecutionOptions opt;
      opt.sim.duration_s = 1.0;
      opt.sim.warmup_s = 0.25;
      opt.sim.seed = 42;
      auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      tuples += r->source_tuples;
    }
    if (profiler_enabled) {
      const obs::prof::CpuProfile profile = profiler.Stop();
      benchmark::DoNotOptimize(profile.samples);
    }
  }
  state.counters["src_tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}

void BM_SimLinearPlanProf(benchmark::State& state) {
  RunSimCpuProfiled(state, /*profiler_enabled=*/true);
}
BENCHMARK(BM_SimLinearPlanProf);

void BM_SimLinearPlanProfOff(benchmark::State& state) {
  RunSimCpuProfiled(state, /*profiler_enabled=*/false);
}
BENCHMARK(BM_SimLinearPlanProfOff);

// Allocation-sampler acceptance pair: the MemProf variant arms the
// interposed operator-new hooks at the default 1/512 KiB interval — exactly
// what `--mem-profile` adds to a harness cell. The control leaves the
// profiler off, so every allocation pays only the relaxed gate load in
// NoteAlloc. Acceptance bound (tools/bench_gate.sh): MemProf within 10% of
// the control in CI noise; the design target is <= 2%.
void RunSimMemProfiled(benchmark::State& state, bool profiler_enabled) {
  auto plan = testing::LinearPlan(20000.0, 8);
  if (!plan.ok()) {
    state.SkipWithError("plan");
    return;
  }
  obs::prof::ThreadRegistration registration("bench-main");
  int64_t tuples = 0;
  for (auto _ : state) {
    obs::mem::MemOptions options;
    options.enabled = profiler_enabled;
    obs::mem::MemProfiler profiler(options);
    if (profiler_enabled) {
      Status st = profiler.Start();
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    {
      obs::prof::ProfScope phase(obs::prof::FrameKind::kPhase, "simulate");
      ExecutionOptions opt;
      opt.sim.duration_s = 1.0;
      opt.sim.warmup_s = 0.25;
      opt.sim.seed = 42;
      auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      tuples += r->source_tuples;
    }
    if (profiler_enabled) {
      const obs::mem::MemProfile profile = profiler.Stop();
      benchmark::DoNotOptimize(profile.samples);
    }
  }
  state.counters["src_tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}

void BM_SimLinearPlanMemProf(benchmark::State& state) {
  RunSimMemProfiled(state, /*profiler_enabled=*/true);
}
BENCHMARK(BM_SimLinearPlanMemProf);

void BM_SimLinearPlanMemProfOff(benchmark::State& state) {
  RunSimMemProfiled(state, /*profiler_enabled=*/false);
}
BENCHMARK(BM_SimLinearPlanMemProfOff);

}  // namespace
}  // namespace pdsp
