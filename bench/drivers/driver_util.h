// Shared knobs for the figure-reproduction drivers. Setting the environment
// variable PDSP_BENCH_FAST=1 shrinks durations/repeats for smoke runs; the
// default settings are the ones EXPERIMENTS.md reports. Every driver that
// takes flags accepts --jobs=N (or PDSP_JOBS=N) to fan its cells across
// worker threads — per-cell results are bit-identical to a sequential run
// — and the monitored sweeps also --progress[=plain|rich|off] /
// --progress-file=PATH (or PDSP_PROGRESS / PDSP_PROGRESS_FILE) for live
// sweep monitoring with PDSP-M### watchdog findings. Any other argument is
// a usage error. Driver sweeps install the SIGINT drain handler: Ctrl-C
// finishes in-flight cells, flushes their ledger records and exits 130.

#ifndef PDSP_BENCH_DRIVERS_DRIVER_UTIL_H_
#define PDSP_BENCH_DRIVERS_DRIVER_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/exec/sweep.h"
#include "src/harness/harness.h"
#include "src/obs/monitor.h"

namespace pdsp {
namespace bench {

inline bool FastMode() {
  const char* v = std::getenv("PDSP_BENCH_FAST");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

/// Protocol for figure cells: paper-style mean of repeated medians; fast
/// mode cuts to one short run.
inline RunProtocol FigureProtocol() {
  RunProtocol p;
  if (FastMode()) {
    p.repeats = 1;
    p.duration_s = 1.5;
    p.warmup_s = 0.4;
  } else {
    p.repeats = 2;
    p.duration_s = 2.5;
    p.warmup_s = 0.6;
  }
  return p;
}

/// \brief Everything ParseDriverOptions gleans from argv/environment.
struct DriverSweepOptions {
  int jobs = 1;
  obs::MonitorOptions monitor;
};

/// Parses the driver's command line through its flag table: --jobs=N and,
/// when the driver's sweep is `monitored`, --progress[=mode] and
/// --progress-file=PATH. The command line wins over PDSP_JOBS,
/// PDSP_PROGRESS and PDSP_PROGRESS_FILE. Jobs default to 1 (sequential);
/// 0 or less means one worker per hardware thread. A malformed --jobs or
/// PDSP_JOBS, or any other argument, exits 2; a bad progress mode only
/// warns and leaves rendering off rather than aborting a long benchmark
/// over a typo'd cosmetic flag.
inline DriverSweepOptions ParseDriverOptions(int argc, char** argv,
                                             bool monitored = true) {
  DriverSweepOptions opts;
  if (const char* env = std::getenv("PDSP_JOBS");
      env != nullptr && *env != '\0' && !ParseNumber(env, &opts.jobs)) {
    std::fprintf(stderr, "invalid value '%s' for PDSP_JOBS\n", env);
    std::exit(2);
  }
  std::string mode;
  bool progress_set = false;
  std::vector<Flag> flags = {
      {"jobs", &opts.jobs, "N",
       "sweep worker threads, 0 = one per hardware thread (PDSP_JOBS)"}};
  if (monitored) {
    if (const char* env = std::getenv("PDSP_PROGRESS_FILE")) {
      opts.monitor.jsonl_path = env;
    }
    flags.push_back({"progress", &mode, "MODE",
                     "live monitoring: plain | rich | off | auto (bare: "
                     "auto; PDSP_PROGRESS)",
                     &progress_set});
    flags.push_back({"progress-file", &opts.monitor.jsonl_path, "PATH",
                     "append monitor snapshots to PATH as JSONL "
                     "(PDSP_PROGRESS_FILE)"});
  }
  if (!FlagTable{argv[0], 0, std::move(flags)}.Parse(argc, argv)) {
    std::exit(2);
  }
  if (const char* env = std::getenv("PDSP_PROGRESS");
      monitored && !progress_set && env != nullptr && *env != '\0') {
    mode = env;
    progress_set = true;
  }
  if (progress_set || !opts.monitor.jsonl_path.empty()) {
    opts.monitor.enabled = true;
    if (progress_set) {
      auto render = obs::ParseRenderMode(mode, isatty(fileno(stderr)) != 0);
      if (render.ok()) {
        opts.monitor.render = *render;
      } else {
        std::fprintf(stderr, "%s; progress rendering disabled\n",
                     render.status().ToString().c_str());
      }
    }
  }
  return opts;
}

/// Runs a driver's cell grid through the sweep scheduler (with the SIGINT
/// drain handler installed) and reports the fan-out on stderr (cells ok,
/// jobs, wall seconds, monitor findings). Results come back in cell order,
/// so drivers index `sweep.cells[i]` in the same order they pushed cells.
inline exec::SweepResult RunDriverSweep(std::vector<exec::SweepCell> cells,
                                        const std::string& name,
                                        const DriverSweepOptions& opts) {
  exec::SweepOptions options;
  options.jobs = opts.jobs;
  options.name = name;
  options.monitor = opts.monitor;
  options.install_sigint = true;
  exec::SweepResult sweep = exec::RunSweep(cells, options);
  std::fprintf(stderr, "[%s] %zu/%zu cells ok, jobs=%d, wall %.2fs\n",
               name.c_str(), sweep.NumOk(), sweep.cells.size(), sweep.jobs,
               sweep.wall_s);
  if (!sweep.monitor.codes.empty()) {
    std::fprintf(stderr, "[%s] monitor: %s\n", name.c_str(),
                 Join(sweep.monitor.codes, ", ").c_str());
  }
  if (sweep.interrupted) {
    std::fprintf(stderr, "[%s] interrupted — partial results flushed\n",
                 name.c_str());
  }
  return sweep;
}

/// Driver exit code honoring the SIGINT convention (130 after a drain).
inline int SweepExitCode(const exec::SweepResult& sweep, int code = 0) {
  return sweep.interrupted ? 130 : code;
}

/// Formats one sweep outcome as a latency table cell ("n/a" on failure,
/// logging the failure so it is not silently swallowed into the table).
inline std::string LatencyOrNa(const exec::SweepCellOutcome& outcome) {
  if (!outcome.result.ok()) {
    std::fprintf(stderr, "cell %s: %s\n", outcome.label.c_str(),
                 outcome.result.status().ToString().c_str());
    return "n/a";
  }
  return LatencyCell(outcome.result->mean_median_latency_s);
}

}  // namespace bench
}  // namespace pdsp

#endif  // PDSP_BENCH_DRIVERS_DRIVER_UTIL_H_
