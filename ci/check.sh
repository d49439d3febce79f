#!/usr/bin/env bash
# ci/check.sh — the repo's full verification gate. Builds and tests every
# configuration that must stay green, then runs the static checks. Any failure
# exits nonzero; run this before merging.
#
#   ./ci/check.sh            # everything
#   ./ci/check.sh default    # one preset only (any configure-preset name)
#   ODF_CHECK_JOBS=4 ./ci/check.sh
#
# Presets covered (see CMakePresets.json):
#   default       RelWithDebInfo, full ctest suite (the tier-1 gate)
#   asan-ubsan    Debug + ASan/UBSan, full suite
#   no-trace      tracepoints and fault injection compiled out, full suite
#   tsan          ThreadSanitizer, concurrency- and reclaim-labeled suites
#   fault-inject  RelWithDebInfo + fault injection, full suite (includes torture)
#   debug-vm      invariant checkers armed: VM_BUG_ON, poisoning, lockdep, auto-verify
#   coverage      gcov build, full suite, then scripts/coverage_report.py against its floors
# Static checks:
#   scripts/odf_lint.py      repo-specific rules (see its docstring)
#   clang-tidy               over src/ when the binary exists (skipped otherwise —
#                            the container image may not ship it)

set -u -o pipefail

cd "$(dirname "$0")/.."

JOBS="${ODF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}"
ONLY="${1:-}"
FAILURES=()

note() { printf '\n==== %s ====\n' "$*"; }

run_preset() {
  local preset="$1"
  if [[ -n "$ONLY" && "$ONLY" != "$preset" ]]; then
    return 0
  fi
  note "preset $preset: configure"
  if ! cmake --preset "$preset" >/dev/null; then
    FAILURES+=("$preset: configure"); return 1
  fi
  note "preset $preset: build"
  if ! cmake --build --preset "$preset" -j "$JOBS"; then
    FAILURES+=("$preset: build"); return 1
  fi
  note "preset $preset: test"
  if ! ctest --preset "$preset"; then
    FAILURES+=("$preset: test"); return 1
  fi
}

run_preset default

# The reclaim slice again, by itself: `ctest -L reclaim` must stay a usable
# developer entry point (docs/reclaim.md), so CI exercises the label filter too.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "reclaim label (default preset)"
  if ! ctest --test-dir build -L reclaim --output-on-failure; then
    FAILURES+=("reclaim label")
  fi
fi

# Flight recorder + deterministic replay (docs/replay.md): the labeled suite, then the
# end-to-end determinism gate — record a mixed fork/fault/reclaim workload, replay it
# against a fresh kernel, and fail on any divergence in op outcomes, final memory digests,
# refcounts, or vmstat counters.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "replay label (default preset)"
  if ! ctest --test-dir build -L replay --output-on-failure; then
    FAILURES+=("replay label")
  fi
  note "replay determinism gate (odf-replay selftest)"
  if ! ./build/src/replay/odf-replay selftest build/odf-replay-selftest.odflog; then
    FAILURES+=("replay selftest")
  fi
fi

# Lock-sharding smoke (docs/performance.md "Lock sharding & TLB generations"): the fig09b
# bench in fast mode drives K faulting threads in parallel over disjoint ranges of ONE
# shared address space — a multi-threaded end-to-end pass through the sharded AS locks,
# epoch-guarded walks, and TLB generations that the unit suites exercise piecewise. Any
# refcount/ordering bug on those paths trips an ODF_CHECK/AllFree abort here.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "fig09b multi-thread smoke (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/fig09b_concurrent_faults; then
    FAILURES+=("fig09b smoke")
  fi
fi

# Table 1 shape gate: the fault-cost bench in fast mode exits nonzero unless fork < ODF,
# ODF <= 6x fork and huge >= 10x ODF on the means it prints.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "tab01 fault-cost shape (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/tab01_fault_cost; then
    FAILURES+=("tab01 shape")
  fi
fi

# Figure 7 shape gate: the invocation-latency bench in fast mode exits nonzero unless
# on-demand-fork is below fork at every size, with fork / ODF inside a wide ratio band.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "fig07 invocation-latency shape (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/fig07_invocation_latency; then
    FAILURES+=("fig07 shape")
  fi
fi

# Figure 3 shape gate: the fork-profile bench in fast mode exits nonzero unless the steady
# classic fork (forks 3..n) spends more than half its attributed time in the metadata and
# refcount passes.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "fig03 fork-profile shape (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/fig03_fork_profile; then
    FAILURES+=("fig03 shape")
  fi
fi

# Memory failure (docs/memory-failure.md): the labeled suite by itself — hard/soft
# offline, containment through shared ODF tables, quarantine permanence, the poisoned-PTE
# fault contract — must stay a usable developer entry point like the other labels.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "hwpoison label (default preset)"
  if ! ctest --test-dir build -L hwpoison --output-on-failure; then
    FAILURES+=("hwpoison label")
  fi
fi

# The recorder must stay fully compileable-out: -DODF_REPLAY=OFF folds every OpScope to
# nothing, and the tree (library, benches, tests) still builds. Build-only — the runtime
# suites run with the recorder compiled in above.
if [[ -z "$ONLY" || "$ONLY" == "replay-off" ]]; then
  note "replay-off: configure + build (-DODF_REPLAY=OFF)"
  if ! cmake -B build-replay-off -DCMAKE_BUILD_TYPE=RelWithDebInfo -DODF_REPLAY=OFF >/dev/null; then
    FAILURES+=("replay-off: configure")
  elif ! cmake --build build-replay-off -j "$JOBS"; then
    FAILURES+=("replay-off: build")
  fi
fi

# Memory failure must stay compileable-out the same way: -DODF_MEMORY_FAILURE=OFF makes
# the offline entry points return kNotSupported and drops the ECC hook, and the tree
# still builds. Build-only — the runtime suites run with the subsystem compiled in above.
if [[ -z "$ONLY" || "$ONLY" == "mf-off" ]]; then
  note "mf-off: configure + build (-DODF_MEMORY_FAILURE=OFF)"
  if ! cmake -B build-mf-off -DCMAKE_BUILD_TYPE=RelWithDebInfo -DODF_MEMORY_FAILURE=OFF >/dev/null; then
    FAILURES+=("mf-off: configure")
  elif ! cmake --build build-mf-off -j "$JOBS"; then
    FAILURES+=("mf-off: build")
  fi
fi

# Static lock-discipline verification (docs/debugging.md): when a clang++ is on PATH,
# build the default configuration with the thread-safety analysis promoted to errors —
# every GUARDED_BY/REQUIRES/scoped-capability contract in the tree is checked at compile
# time — then run the negative-compile harness, which proves the gate actually rejects
# the six violation classes (and accepts the positive control). Both self-skip on
# GCC-only containers; the annotations compile to nothing there.
if [[ -z "$ONLY" || "$ONLY" == "thread-safety" ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    note "thread-safety: clang build with -Werror=thread-safety"
    if ! cmake -B build-clang-tsa -DCMAKE_BUILD_TYPE=RelWithDebInfo \
         -DCMAKE_CXX_COMPILER=clang++ -DODF_THREAD_SAFETY_ANALYSIS=ON >/dev/null; then
      FAILURES+=("thread-safety: configure")
    elif ! cmake --build build-clang-tsa -j "$JOBS"; then
      FAILURES+=("thread-safety: build")
    fi
  else
    echo "clang++ not installed; skipping -Werror=thread-safety build (GCC ignores the annotations)"
  fi
  note "thread-safety: negative-compile harness"
  bash tests/negative_compile/run.sh
  NEG_STATUS=$?
  if [[ $NEG_STATUS -ne 0 && $NEG_STATUS -ne 77 ]]; then
    FAILURES+=("thread-safety: negative-compile harness")
  fi
fi

run_preset asan-ubsan
# Tracepoints compiled out: ODF_TRACE(...) expands to nothing, so this build catches
# variables only a tracepoint reads, and the sampled latency histograms must still fill.
run_preset no-trace
# The tsan preset IS the concurrency-under-TSan gate: its ctest preset filters to the
# `concurrency|reclaim` labels (frame_cache_test, concurrency_test — the disjoint-fault/
# overlapping-fork/kswapd stress and the concurrent-replay determinism test — plus
# reclaim_test, whose kswapd and direct reclaim bump the per-thread vmstat shards).
run_preset tsan
run_preset fault-inject
run_preset debug-vm

# Coverage gate (docs/testing.md "Coverage"): the gcov build runs the full suite, then every
# src/ function must have run and line coverage must hold, both outside the report's
# allow-list. The floors are the measured values rounded down: raise them as tests land,
# never lower them to pass.
COVERAGE_MIN_FUNCTIONS=100
COVERAGE_MIN_LINES=97
if [[ -z "$ONLY" || "$ONLY" == "coverage" ]]; then
  note "preset coverage: configure"
  if ! cmake --preset coverage >/dev/null; then
    FAILURES+=("coverage: configure")
  else
    note "preset coverage: build"
    if ! cmake --build --preset coverage -j "$JOBS"; then
      FAILURES+=("coverage: build")
    else
      # Counts from an earlier run (or from test discovery at build time) would add to this
      # run's; start from zero.
      find build-coverage -name '*.gcda' -delete
      note "preset coverage: test"
      if ! ctest --preset coverage; then
        FAILURES+=("coverage: test")
      fi
      note "coverage report"
      if ! python3 scripts/coverage_report.py --build build-coverage \
           --min-functions "$COVERAGE_MIN_FUNCTIONS" --min-lines "$COVERAGE_MIN_LINES"; then
        FAILURES+=("coverage report")
      fi
    fi
  fi
fi

if [[ -z "$ONLY" || "$ONLY" == "lint" ]]; then
  note "odf_lint"
  if ! python3 scripts/odf_lint.py; then
    FAILURES+=("odf_lint")
  fi

  note "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json comes from the default preset, which configures with
    # CMAKE_EXPORT_COMPILE_COMMANDS=ON — no separate reconfigure. Generate it first
    # if this invocation runs the lint slice alone.
    if [[ ! -f build/compile_commands.json ]] && ! cmake --preset default >/dev/null; then
      FAILURES+=("clang-tidy: configure")
    else
      mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
      if ! clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"; then
        FAILURES+=("clang-tidy")
      fi
    fi
  else
    echo "clang-tidy not installed; skipping (install it to enable this gate)"
  fi
fi

if ((${#FAILURES[@]})); then
  note "FAILED"
  printf '  %s\n' "${FAILURES[@]}"
  exit 1
fi
note "all checks passed"
