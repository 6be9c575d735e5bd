#include "src/obs/host_profile.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace pdsp {
namespace obs {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Parses "VmRSS:     1234 kB"-style lines out of /proc/self/status.
/// Returns false (zeros) when the file is unavailable (non-Linux hosts).
bool ReadProcSelfStatus(int64_t* rss_kb, int64_t* hwm_kb) {
  std::ifstream in("/proc/self/status");
  if (!in.good()) return false;
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    long long value = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lld kB", &value) == 1) {
      *rss_kb = value;
      found = true;
    } else if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &value) == 1) {
      *hwm_kb = value;
      found = true;
    }
  }
  return found;
}

Json PhaseMapToJson(const WorkerPhaseMap& phases) {
  Json ph = Json::Object();
  for (const auto& [name, stats] : phases) {
    Json p = Json::Object();
    p.Set("count", Json::Int(stats.count));
    p.Set("total_s", Json::Number(stats.total_s));
    p.Set("max_s", Json::Number(stats.max_s));
    ph.Set(name, std::move(p));
  }
  return ph;
}

}  // namespace

void FoldPhases(const WorkerPhaseMap& from, WorkerPhaseMap* into) {
  for (const auto& [name, stats] : from) {
    HostPhaseStats& folded = (*into)[name];
    folded.count += stats.count;
    folded.total_s += stats.total_s;
    if (stats.max_s > folded.max_s) folded.max_s = stats.max_s;
  }
}

WorkerPhaseMap HostProfile::AggregateWorkerPhases() const {
  WorkerPhaseMap aggregate;
  for (const auto& [worker, phases] : worker_phases) {
    (void)worker;
    FoldPhases(phases, &aggregate);
  }
  return aggregate;
}

Json HostProfile::ToJson() const {
  Json u = Json::Object();
  u.Set("wall_s", Json::Number(usage.wall_s));
  u.Set("cpu_user_s", Json::Number(usage.cpu_user_s));
  u.Set("cpu_sys_s", Json::Number(usage.cpu_sys_s));
  u.Set("rss_kb", Json::Int(usage.rss_kb));
  u.Set("peak_rss_kb", Json::Int(usage.peak_rss_kb));
  u.Set("peak_rss_bytes", Json::Int(usage.peak_rss_bytes));

  Json root = Json::Object();
  root.Set("usage", std::move(u));
  root.Set("phases", PhaseMapToJson(phases));
  if (!worker_phases.empty()) {
    Json workers = Json::Object();
    for (const auto& [worker, worker_map] : worker_phases) {
      workers.Set(worker, PhaseMapToJson(worker_map));
    }
    root.Set("workers", std::move(workers));
    root.Set("worker_aggregate", PhaseMapToJson(AggregateWorkerPhases()));
  }
  return root;
}

HostProfiler::HostProfiler() : start_(std::chrono::steady_clock::now()) {}

void HostProfiler::RecordPhase(const std::string& name, double seconds) {
  MutexLock lock(mu_);
  HostPhaseStats& stats = phases_[name];
  ++stats.count;
  stats.total_s += seconds;
  if (seconds > stats.max_s) stats.max_s = seconds;
}

HostUsage HostProfiler::SampleUsage() const {
  HostUsage usage;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start_;
  usage.wall_s = wall.count();

  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.cpu_user_s = TimevalSeconds(ru.ru_utime);
    usage.cpu_sys_s = TimevalSeconds(ru.ru_stime);
#if defined(__APPLE__)
    usage.peak_rss_bytes = static_cast<int64_t>(ru.ru_maxrss);  // bytes
#else
    usage.peak_rss_bytes = static_cast<int64_t>(ru.ru_maxrss) * 1024;  // kB
#endif
  }
  int64_t rss = 0;
  int64_t hwm = 0;
  if (ReadProcSelfStatus(&rss, &hwm)) {
    usage.rss_kb = rss;
    if (hwm * 1024 > usage.peak_rss_bytes) usage.peak_rss_bytes = hwm * 1024;
  }
  usage.peak_rss_kb = usage.peak_rss_bytes / 1024;
  return usage;
}

void HostProfiler::MergeWorkerPhases(const std::string& worker,
                                     const WorkerPhaseMap& phases) {
  MutexLock lock(mu_);
  FoldPhases(phases, &worker_phases_[worker]);
}

HostProfile HostProfiler::Snapshot() const {
  HostProfile profile;
  profile.usage = SampleUsage();
  {
    MutexLock lock(mu_);
    profile.phases = phases_;
    profile.worker_phases = worker_phases_;
  }
  return profile;
}

void HostProfiler::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const HostProfile profile = Snapshot();
  registry->GetGauge("pdsp.host.wall_s")->Set(profile.usage.wall_s);
  registry->GetGauge("pdsp.host.cpu_user_s")->Set(profile.usage.cpu_user_s);
  registry->GetGauge("pdsp.host.cpu_sys_s")->Set(profile.usage.cpu_sys_s);
  registry->GetGauge("pdsp.host.rss_kb")
      ->Set(static_cast<double>(profile.usage.rss_kb));
  registry->GetGauge("pdsp.host.peak_rss_kb")
      ->Set(static_cast<double>(profile.usage.peak_rss_kb));
  registry->GetGauge("pdsp.host.peak_rss_bytes")
      ->Set(static_cast<double>(profile.usage.peak_rss_bytes));
  for (const auto& [name, stats] : profile.phases) {
    registry->GetGauge("pdsp.host.phase." + name + ".total_s")
        ->Set(stats.total_s);
    registry->GetGauge("pdsp.host.phase." + name + ".count")
        ->Set(static_cast<double>(stats.count));
  }
  if (!profile.worker_phases.empty()) {
    registry->GetGauge("pdsp.host.workers")
        ->Set(static_cast<double>(profile.worker_phases.size()));
    for (const auto& [name, stats] : profile.AggregateWorkerPhases()) {
      registry->GetGauge("pdsp.host.worker_phase." + name + ".total_s")
          ->Set(stats.total_s);
      registry->GetGauge("pdsp.host.worker_phase." + name + ".count")
          ->Set(static_cast<double>(stats.count));
    }
  }
}

}  // namespace obs
}  // namespace pdsp
