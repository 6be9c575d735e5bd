#!/usr/bin/env bash
# The full CI gate: configure, build, run the test suite, statically analyze
# every canonical plan, and lint. The final OK is followed by one
# "UNCHECKED:" line per analysis this host could not run (clang-tidy
# missing, a non-Clang compiler without -Wthread-safety); those lines do
# not change the exit status.
#
# Usage: tools/ci_check.sh [build-dir]
#   build-dir defaults to ./build.
#
# Environment:
#   PDSP_SANITIZE   forwarded to CMake (e.g. "address;undefined") to run the
#                   whole gate under ASan/UBSan. Changing it reconfigures the
#                   build tree.
#   PDSP_SKIP_TSAN  set to 1 to skip the ThreadSanitizer pass over the
#                   concurrency-sensitive suites (exec/sim/obs/harness/
#                   runtime/common/query).
#   PDSP_SKIP_UBSAN set to 1 to skip the AddressSanitizer + UndefinedBehavior-
#                   Sanitizer pass over the analysis/sim/exec/property/
#                   runtime/data/apps suites.
#   JOBS            parallel build jobs (default: nproc).

set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
SANITIZE="${PDSP_SANITIZE:-}"

step() { echo; echo "=== ci_check: $* ==="; }

step "configure ($BUILD_DIR${SANITIZE:+, sanitize=$SANITIZE})"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPDSP_SANITIZE="$SANITIZE"

step "build (-j$JOBS)"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "Release build (-O3) and the sim/data/runtime suites"
# The optimized build type must compile under -Werror too: GCC 12 raises
# -Wrestrict false positives at -O3 that the RelWithDebInfo (-O2) tree
# never sees. Same separate-tree rationale as the sanitizer passes below.
RELEASE_DIR="${BUILD_DIR}-release"
cmake -B "$RELEASE_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$RELEASE_DIR" -j "$JOBS"
for t in sim_test data_test runtime_test; do
  echo "--- release: $t ---"
  "$RELEASE_DIR/tests/$t"
done

step "Debug build (asserts on): runtime/data/apps/sim suites, benchmark smoke"
# Only a Debug tree compiles the data plane's asserts: Batch::FinishRow
# checks every column reached the new row count, AppendRange/AppendGather
# check source and destination have one column count. Operators, fired
# windows and UDO emits append output column by column, so a short column
# or a column-count mix-up fails here instead of silently shifting cells.
# The event queue asserts that no event is pushed earlier than the last
# pop. The benchmark smoke runs the first cell of every workload (p=64
# included) against its reference digests under these asserts; it is
# called directly because ctest's e2e_smoke timeout is sized for an
# optimized build.
DEBUG_DIR="${BUILD_DIR}-debug"
cmake -B "$DEBUG_DIR" -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build "$DEBUG_DIR" -j "$JOBS" \
      --target runtime_test data_test apps_test sim_test pdsp_e2e
for t in runtime_test data_test apps_test sim_test; do
  echo "--- debug: $t ---"
  "$DEBUG_DIR/tests/$t"
done
echo "--- debug: pdsp_e2e --smoke ---"
"$DEBUG_DIR/bench/e2e/pdsp_e2e" --smoke --benchmark BENCHMARK.json \
    --reference bench/e2e/reference_digests.json \
    --out "$DEBUG_DIR/e2e-smoke"

if [ "${PDSP_SKIP_TSAN:-0}" != "1" ]; then
  step "ThreadSanitizer pass (exec/sim/obs/harness/runtime/common/query suites)"
  # A separate build tree under PDSP_SANITIZE=thread: TSan and ASan are
  # mutually exclusive, and reconfiguring the main tree would churn its
  # cache. Only the concurrency-sensitive suites are built and run — the
  # sweep scheduler fans simulations across worker threads, so these suites
  # exercise every cross-thread interaction (pool handoff, registry merge,
  # worker-phase merge, UDO registry, the shared Zipf table registry and the
  # set-up sum memo) under the race detector.
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPDSP_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" \
        --target exec_test sim_test obs_test harness_test runtime_test \
                 common_test query_test
  for t in exec_test sim_test obs_test harness_test runtime_test \
           common_test query_test; do
    echo "--- tsan: $t ---"
    "$TSAN_DIR/tests/$t"
  done
fi

if [ "${PDSP_SKIP_UBSAN:-0}" != "1" ]; then
  step "AddressSanitizer + UBSan pass (analysis/sim/exec/property/runtime/data/apps/common/obs suites)"
  # The dataflow analyses lean on floating-point interval arithmetic
  # (widening multiplications, infinity-valued fallbacks, rate/capacity
  # divisions), the simulator on integer event accounting, the keyed
  # operator state and the join's row chains on slot mask and index
  # arithmetic, and the batch intern table on 32-bit hash, length and
  # mask arithmetic — exactly the code UBSan's float-cast/overflow/shift
  # checks exercise. ASan watches the engine's chunks: a receiver's chunk
  # is read by every delivery that names a row range of it while later
  # deliveries append to it (moving its columns), and is emptied, rebuilt
  # or returned to the pool after the last one, so a stale view into it is
  # a use-after-free. The common and obs suites hold the parsers of
  # recorded input (flags, time-series CSV, ledgers, profiles) and the
  # RNG's integer ranges, where an unchecked cell or a range wider than
  # 2^63 is signed overflow. GCC's -fsanitize=undefined leaves out
  # float-cast-overflow (a double converted to an integer type it does not
  # fit, NaN included), so it is named on its own. Same separate-tree
  # rationale as the TSan block above.
  UBSAN_DIR="${BUILD_DIR}-ubsan"
  cmake -B "$UBSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPDSP_SANITIZE="address;undefined;float-cast-overflow"
  cmake --build "$UBSAN_DIR" -j "$JOBS" \
        --target analysis_test sim_test exec_test property_test runtime_test \
                 data_test apps_test common_test obs_test
  for t in analysis_test sim_test exec_test property_test runtime_test \
           data_test apps_test common_test obs_test; do
    echo "--- asan+ubsan: $t ---"
    UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_DIR/tests/$t"
  done
fi

step "columnar kernel smoke (micro_operators batch/scalar filter pair)"
# One vectorized kernel and its scalar twin, a single short repetition:
# proves the benchmark binary runs and the kernels produce throughput
# counters. The full pair set with the speedup gate runs in bench_gate.sh.
"$BUILD_DIR/bench/micro_operators" \
    --benchmark_filter='BM_BatchFilterKernel/1024|BM_ScalarFilter/1024' \
    --benchmark_min_time=0.05

step "static plan analysis (pdspbench analyze all)"
"$BUILD_DIR/tools/pdspbench" analyze all

step "dataflow property smoke (pdspbench analyze all --dataflow --json)"
# Derive the proven plan properties for all 14 apps and validate the JSON
# schema: every operator carries partitioning, rate-interval and determinism
# facts, every plan carries a top-level determinism verdict, and every
# fixed-point computation converged.
DATAFLOW_JSON="$BUILD_DIR/analyze_dataflow.json"
"$BUILD_DIR/tools/pdspbench" analyze all --dataflow --json > "$DATAFLOW_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$DATAFLOW_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert len(d["plans"]) >= 14, f"expected >= 14 apps, got {len(d['plans'])}"
for p in d["plans"]:
    props = p["properties"]
    assert props["converged"] is True, f"{p['plan']}: dataflow did not converge"
    det = props["determinism"]
    assert det["class"] in ("deterministic", "order-dependent", "nondeterministic"), \
        f"{p['plan']}: bad determinism class {det!r}"
    assert det["reason"], f"{p['plan']}: empty determinism reason"
    assert props["operators"], f"{p['plan']}: no operator facts"
    for op in props["operators"]:
        for key in ("partitioning", "rate_interval", "determinism"):
            assert key in op, f"{p['plan']} op {op.get('name')}: missing {key}"
        ri = op["rate_interval"]
        assert ri["input_lo"] <= ri["input_hi"] and ri["output_lo"] <= ri["output_hi"], \
            f"{p['plan']} op {op.get('name')}: inverted rate interval"
print(f"dataflow properties: {len(d['plans'])} plans, all converged, "
      f"schema complete")
EOF
else
  echo "python3 not found; relying on the CLI exit status only"
fi

step "runtime diagnosis smoke (pdspbench diagnose all --json)"
# Simulate + diagnose all 14 apps at well-provisioned defaults. The CLI exits
# non-zero if any error-severity PDSP-R finding fires; the parse additionally
# checks the JSON is well-formed, every app simulated, and zero runtime
# errors were reported (warnings/infos like skew or over-provisioning are
# expected and allowed).
DIAG_JSON="$BUILD_DIR/diagnose_all.json"
"$BUILD_DIR/tools/pdspbench" diagnose all --json > "$DIAG_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$DIAG_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
failed = [p["plan"] for p in d["plans"] if "error" in p]
assert not failed, f"diagnose failed for: {failed}"
assert len(d["plans"]) >= 14, f"expected >= 14 apps, got {len(d['plans'])}"
assert d["errors"] == 0, f"unexpected PDSP-R errors on well-provisioned defaults: {d['errors']}"
print(f"diagnosed {len(d['plans'])} apps: {d['errors']} errors, {d['warnings']} warnings")
EOF
else
  echo "python3 not found; relying on the CLI exit status only"
fi

step "sweep monitor + report smoke"
# A tiny monitored sweep end-to-end: 4 cells with --progress=plain writing
# an append-only progress.jsonl, then `pdspbench report` over the resulting
# ledger and over a checked-in baseline. Validates the telemetry stream
# (well-formed JSON lines, strictly monotone seq, final snapshot last) and
# the report invariants (marker comment matches the <svg> count, no "nan"
# literals ever reach the HTML).
SMOKE_LEDGER="$BUILD_DIR/ci_sweep_ledger.jsonl"
SMOKE_PROGRESS="$BUILD_DIR/ci_sweep_progress.jsonl"
SMOKE_REPORT="$BUILD_DIR/ci_report.html"
rm -f "$SMOKE_LEDGER" "$SMOKE_PROGRESS" "$SMOKE_REPORT"
"$BUILD_DIR/tools/pdspbench" --structure=linear --rate=5000 \
    --parallelism=1,2,4,8 --nodes=8 --duration=0.6 --seed=7 --jobs=2 \
    --ledger="$SMOKE_LEDGER" --progress=plain \
    --progress-file="$SMOKE_PROGRESS" > /dev/null
"$BUILD_DIR/tools/pdspbench" report "$SMOKE_LEDGER" --out="$SMOKE_REPORT" \
    --title="CI smoke report"
"$BUILD_DIR/tools/pdspbench" report bench/baselines/linear.json \
    --out="$BUILD_DIR/ci_baseline_report.html"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_PROGRESS" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "progress.jsonl is empty"
seqs = [l["seq"] for l in lines]
assert seqs == sorted(set(seqs)), f"seq not strictly monotone: {seqs}"
assert all(l["schema_version"] == 1 for l in lines), "schema_version drift"
assert lines[-1]["final"] is True, "last line is not the final snapshot"
assert lines[-1]["cells_done"] == lines[-1]["cells_total"] == 4, \
    f"final snapshot incomplete: {lines[-1]}"
print(f"progress.jsonl: {len(lines)} snapshots, final at seq {seqs[-1]}")
EOF
  for html in "$SMOKE_REPORT" "$BUILD_DIR/ci_baseline_report.html"; do
    python3 - "$html" <<'EOF'
import re, sys
html = open(sys.argv[1]).read()
assert html.strip(), "report is empty"
m = re.search(r"<!-- pdsp-report charts=(\d+) records=(\d+) apps=(\d+) -->",
              html)
assert m, "missing pdsp-report marker comment"
charts, svgs = int(m.group(1)), html.count("<svg")
assert svgs == charts, f"marker says {charts} charts, found {svgs} <svg>"
assert "nan" not in html.lower(), "report leaks a nan literal"
print(f"{sys.argv[1]}: {svgs} charts, {m.group(2)} records, "
      f"{m.group(3)} apps")
EOF
  done
else
  echo "python3 not found; monitor/report artifacts generated but unchecked"
fi

step "profiled run smoke (--profile + artifacts + flame-graph report)"
# A profiled 2-cell sweep end-to-end: the sampling CPU profiler on at a
# high cadence, artifact bundles under a fresh directory, then a report over
# the ledger. Validates the profile.json schema and its telescoping
# invariant (folded == total == operators == phases), that each bundle
# names its phases alike in host_profile.json, trace.json and profile.json
# and holds only its own cell's single simulate scope, and that the report
# embeds a flame graph while its chart marker still matches the <svg> count.
PROF_DIR="$BUILD_DIR/ci_prof_artifacts"
PROF_LEDGER="$BUILD_DIR/ci_prof_ledger.jsonl"
PROF_REPORT="$BUILD_DIR/ci_prof_report.html"
rm -rf "$PROF_DIR"
rm -f "$PROF_LEDGER" "$PROF_REPORT"
"$BUILD_DIR/tools/pdspbench" --structure=linear --rate=20000 \
    --parallelism=1,4 --nodes=4 --duration=2.0 --seed=7 --profile=997 \
    --artifacts="$PROF_DIR" --ledger="$PROF_LEDGER" > /dev/null
"$BUILD_DIR/tools/pdspbench" report "$PROF_LEDGER" --out="$PROF_REPORT" \
    --title="CI profiled smoke"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$PROF_DIR" "$PROF_REPORT" <<'EOF'
import glob, json, re, sys
profiles = sorted(glob.glob(sys.argv[1] + "/*/*/profile.json"))
assert len(profiles) == 2, f"expected 2 profile.json bundles, got {profiles}"
for path in profiles:
    p = json.load(open(path))
    assert p["schema_version"] == 1, f"{path}: bad schema_version"
    assert p["samples"] >= 1, f"{path}: no samples (final-sample guarantee broken)"
    total = p["total_cpu_s"]
    for key in ("folded", "operators", "phases"):
        s = sum(e["cpu_s"] for e in p[key])
        assert abs(s - total) < 1e-9, \
            f"{path}: {key} sum {s} != total {total} (telescoping broken)"
    assert any(o["name"] not in ("(none)", "(torn)") for o in p["operators"]), \
        f"{path}: no operator attribution"
    bundle = path[:-len("profile.json")]
    host = json.load(open(bundle + "host_profile.json"))["phases"]
    trace = json.load(open(bundle + "trace.json"))["traceEvents"]
    spans = {e["name"] for e in trace if e["cat"] == "phase"}
    assert set(host) == spans, \
        f"{bundle}: host phases {sorted(host)} != trace spans {sorted(spans)}"
    stray = {e["name"] for e in p["phases"]} - set(host) - {"(none)", "(torn)"}
    assert not stray, f"{bundle}: profile phases {sorted(stray)} not host phases"
    assert host["simulate"]["count"] == 1, \
        f"{bundle}: simulate count {host['simulate']['count']}, want 1"
html = open(sys.argv[2]).read()
assert "CPU flame graph" in html, "report lacks the flame-graph section"
m = re.search(r"<!-- pdsp-report charts=(\d+) ", html)
assert m, "missing pdsp-report marker comment"
charts, svgs = int(m.group(1)), html.count("<svg")
assert svgs == charts, f"marker says {charts} charts, found {svgs} <svg>"
print(f"profiled smoke: {len(profiles)} bundles telescoped, phase names "
      f"agree, report embeds {svgs} charts incl. flame graphs")
EOF
else
  echo "python3 not found; profiled artifacts generated but unchecked"
fi

step "mem-profiled run smoke (--mem-profile + artifacts + memory report)"
# An allocation-profiled 2-cell sweep end-to-end: the sampler on at a fine
# 16 KiB interval so even short runs collect hundreds of samples, artifact
# bundles, then a report. Validates the memory.json schema and its
# telescoping invariant (operators incl. "(untracked)" == folded == total,
# exact in integers) and that the report's chart marker grows by the
# allocation flame graphs while still matching the <svg> count. Skipped
# when interposition is compiled out (PDSP_SANITIZE=address).
MEM_DIR="$BUILD_DIR/ci_mem_artifacts"
MEM_LEDGER="$BUILD_DIR/ci_mem_ledger.jsonl"
MEM_REPORT="$BUILD_DIR/ci_mem_report.html"
rm -rf "$MEM_DIR"
rm -f "$MEM_LEDGER" "$MEM_REPORT"
"$BUILD_DIR/tools/pdspbench" --structure=linear --rate=20000 \
    --parallelism=1,4 --nodes=4 --duration=2.0 --seed=7 --mem-profile=16 \
    --artifacts="$MEM_DIR" --ledger="$MEM_LEDGER" > /dev/null
"$BUILD_DIR/tools/pdspbench" report "$MEM_LEDGER" --out="$MEM_REPORT" \
    --title="CI mem-profiled smoke"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$MEM_DIR" "$MEM_REPORT" <<'EOF'
import glob, json, re, sys
memories = sorted(glob.glob(sys.argv[1] + "/*/*/memory.json"))
if not memories:
    print("mem-profiled smoke: no memory.json (interposition compiled "
          "out, e.g. PDSP_SANITIZE=address) — skipped")
    sys.exit(0)
assert len(memories) == 2, f"expected 2 memory.json bundles, got {memories}"
for path in memories:
    m = json.load(open(path))
    assert m["schema_version"] == 1, f"{path}: bad schema_version"
    assert m["samples"] >= 1, f"{path}: no allocation samples"
    total = m["total_bytes"]
    for key in ("folded", "operators"):
        field = "bytes" if key == "folded" else "total_bytes"
        s = sum(e[field] for e in m[key])
        assert s == total, \
            f"{path}: {key} sum {s} != total {total} (telescoping broken)"
    assert any(o["name"] != "(untracked)" for o in m["operators"]), \
        f"{path}: no operator attribution"
html = open(sys.argv[2]).read()
assert "allocation flame graph" in html, "report lacks the memory section"
mark = re.search(r"<!-- pdsp-report charts=(\d+) ", html)
assert mark, "missing pdsp-report marker comment"
charts, svgs = int(mark.group(1)), html.count("<svg")
assert svgs == charts, f"marker says {charts} charts, found {svgs} <svg>"
print(f"mem-profiled smoke: {len(memories)} bundles telescoped exactly, "
      f"report embeds {svgs} charts incl. allocation flame graphs")
EOF
else
  echo "python3 not found; mem-profiled artifacts generated but unchecked"
fi

step "benchmark regression gate (tools/bench_gate.sh)"
# Small fixed subset with generous thresholds: this catches real breakage
# (a plan change, a simulator behavior change), not microbenchmark noise.
# The gate re-measures each checked-in baseline with its recorded protocol;
# virtual-time determinism makes the comparison machine-independent.
PDSP_GATE_APPS="${PDSP_GATE_APPS:-WC linear}" \
PDSP_GATE_THRESHOLD="${PDSP_GATE_THRESHOLD:-0.25}" \
PDSP_GATE_SKIP_MICRO="${PDSP_GATE_SKIP_MICRO:-1}" \
  tools/bench_gate.sh "$BUILD_DIR"

step "lint (tools/lint.sh)"
tools/lint.sh "$BUILD_DIR"

step "OK"
# A passing gate can still rest on analyses this host could not run; name
# each one so a bare OK never stands in for them.
TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "UNCHECKED: clang-tidy lint ($TIDY not found, tools/lint.sh skipped)"
fi
CXX_ID=$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
         "$BUILD_DIR"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)
case "$CXX_ID" in
  *Clang*) ;;
  *) echo "UNCHECKED: -Wthread-safety lock contracts (needs Clang;" \
          "$BUILD_DIR was built with ${CXX_ID:-an unknown compiler})" ;;
esac
