#include "src/exec/run_context.h"

namespace pdsp {
namespace exec {

RunContext::RunContext()
    : metrics_(std::make_shared<obs::MetricsRegistry>()) {}

Status RunContext::StartCpuProfiler(const obs::prof::ProfOptions& options) {
  // Replacing a still-running profiler (e.g. after an error-path return
  // skipped StopCpuProfiler) stops it first via its destructor.
  cpu_profiler_ = std::make_unique<obs::prof::Profiler>(options);
  return cpu_profiler_->Start();
}

obs::prof::CpuProfile RunContext::StopCpuProfiler() {
  if (cpu_profiler_ == nullptr) return obs::prof::CpuProfile{};
  obs::prof::CpuProfile profile = cpu_profiler_->Stop();
  cpu_profiler_.reset();
  return profile;
}

bool RunContext::cpu_profiling() const {
  return cpu_profiler_ != nullptr && cpu_profiler_->running();
}

Status RunContext::StartMemProfiler(const obs::mem::MemOptions& options) {
  mem_profiler_ = std::make_unique<obs::mem::MemProfiler>(options);
  return mem_profiler_->Start();
}

obs::mem::MemProfile RunContext::StopMemProfiler() {
  if (mem_profiler_ == nullptr) return obs::mem::MemProfile{};
  obs::mem::MemProfile profile = mem_profiler_->Stop();
  mem_profiler_.reset();
  return profile;
}

bool RunContext::mem_profiling() const {
  return mem_profiler_ != nullptr && mem_profiler_->running();
}

uint64_t RunContext::MixSeed(uint64_t base, uint64_t index) {
  // splitmix64 finalizer (Steele et al.): full-avalanche mixing so adjacent
  // cell indices land in unrelated RNG streams.
  uint64_t z = (base ^ index) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace exec
}  // namespace pdsp
