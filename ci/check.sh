#!/usr/bin/env bash
# CI gate: builds the library twice and runs the full test suite under
# each configuration.
#
#  1. Release — the tier-1 configuration (ROADMAP.md): the paper's
#     benchmark numbers come from this build, so it must stay green and
#     warning-clean.
#  2. Debug + ASan/UBSan — analysis::kVerifyByDefault is on without
#     NDEBUG, so every test additionally runs the Core and plan verifiers
#     AND the translation-validation oracle (witness-corpus differential
#     execution of every rewrite checkpoint) with the sanitizers watching
#     the checkers themselves. Its "exec" tests include the allocation
#     guard (tuple_alloc_test: fewer than one heap allocation per 8 nodes
#     a tuple pipeline binds, counted by its own replaced operator new),
#     so the guard also runs under the ASan allocator.
#  3. Release + TSan — the morsel-parallel driver's threading tests
#     (parallel_eval_test, concurrency_test, and lifted_pattern_test's
#     whole queries at threads=2, each asserted to fan its outer pattern
#     out from the document root through the morsel merge; lifted layers
#     of several contexts run sequentially), the columnar-batch tests
#     (tuple_batch_test:
#     concurrent readers of batches sharing columns) and the plan-cache
#     concurrency suite (plan_cache_test: the single-flight stampede and
#     hit/miss/erase/clear hammer) under ThreadSanitizer:
#     RunMorsels lending parked workers to concurrent calls, the
#     shared-mutex lazy-index path, and two parallel queries running
#     concurrently. The leg also forces
#     -DXQTP_FAULT_INJECTION=ON (fault points are otherwise compiled out
#     under NDEBUG) and runs the robustness tests (governor_test,
#     fault_injection_test), so cancellation races and mid-morsel
#     injected failures are raced under TSan; the Debug/ASan leg above
#     covers the same tests for leak- and UB-freedom via their
#     "robustness" ctest label.
#
# Between the build/test legs:
#  - the project lint gate (tools/lint.py): raw sync primitives outside
#    common/mutex.h, threads started outside exec/parallel.cc, stdout
#    printing in library code, Status APIs without [[nodiscard]],
#    include-guard naming — plus its --self-test, which proves each rule
#    still fires on a seeded violation;
#  - a clang-tidy pass (.clang-tidy profile, warnings-as-errors) over
#    src/, skipped with a notice when clang-tidy is not installed;
#  - a clang -Werror=thread-safety leg compiling the full library, so the
#    capability annotations (common/thread_annotations.h) are PROVEN, not
#    just present; skipped with a loud notice when clang++ is missing
#    (gcc cannot check them) — never silently;
#  - a bounded Release run of tools/equiv_fuzz (fixed seed) whose summary
#    line is part of the gate's output — the deep seed-matrix sweep under
#    sanitizers lives in ci/fuzz.sh;
#  - a bounded smoke run of bench_parallel, bench_governor,
#    bench_costmodel (the bench the cost model's unit costs are fitted
#    from), bench_table1's 2.1 MB rows (the paper's Table 1 under TJ,
#    SC and NL) and bench_xmark_queries (each XMark corpus query on
#    xmark_serve's document, executed and serialized), so the binaries
#    keep running end to end (timings are printed, not judged);
#  - a smoke run of the served-query benchmark (bench/e2e/run.py --smoke):
#    every served workload, briefly, untraced and traced, with each
#    response hash checked against the Core-interpreter reference and
#    every BENCHMARK.json metric required to be reported. It builds its
#    own Release tree in .bench_build on first use.
#
# The debug-sanitize test phase is split by ctest label:
# `-L "analysis|plan_cache"` (verifiers, translation validation, plus the
# plan-cache serving path) runs first and fails fast
# — when an optimizer change breaks a proof the analysis tests name the
# broken invariant directly, and a broken serving path stops the build
# before the exec tests obscure it with wrong query results. A per-leg
# wall-clock summary is printed at the end of the gate.
#
# Every leg owns its build directory (build-ci-release, build-ci-tsa,
# build-ci-sanitize, build-ci-tsan; ci/fuzz.sh uses build-ci-fuzz) so one
# leg's CMake cache (compiler, sanitizers, flags) can never poison
# another's.
#
# Usage: ci/check.sh [jobs]   (defaults to all cores)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Per-leg wall-clock bookkeeping: leg_done <name> records the time since
# the previous leg boundary; the summary prints before the final verdict.
LEG_SUMMARY=()
LEG_T0=$SECONDS
leg_done() {
  LEG_SUMMARY+=("$(printf '%-16s %5ds' "$1" "$((SECONDS - LEG_T0))")")
  LEG_T0=$SECONDS
}

echo "==== [lint] tools/lint.py self-test + gate ===="
python3 tools/lint.py --self-test
python3 tools/lint.py
leg_done lint

run_config() {
  local name="$1" dir="$2" test_mode="$3"
  shift 3
  echo "==== [$name] configure ===="
  cmake -B "$dir" -S . "$@" > /dev/null
  echo "==== [$name] build ===="
  local log
  log="$(mktemp)"
  # -Wall -Wextra are always on; fail the gate on any diagnostic.
  if ! cmake --build "$dir" -j "$JOBS" 2>&1 | tee "$log"; then
    rm -f "$log"
    echo "==== [$name] BUILD FAILED ===="
    exit 1
  fi
  if grep -E "warning:|error:" "$log"; then
    rm -f "$log"
    echo "==== [$name] FAILED: compiler diagnostics above ===="
    exit 1
  fi
  rm -f "$log"
  if [[ "$test_mode" == "labeled" ]]; then
    # Analysis + plan-cache tests first, fail-fast: a broken optimizer
    # proof shows up here by invariant name (not as a wrong result
    # downstream), and a broken plan-cache serving path stops the build
    # before everything routed through CompileCached fails confusingly.
    echo "==== [$name] test (-L 'analysis|plan_cache', fail fast) ===="
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -L "analysis|plan_cache"
    echo "==== [$name] test (remainder) ===="
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -LE "analysis|plan_cache"
  else
    echo "==== [$name] test ===="
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
  leg_done "$name"
}

run_config release build-ci-release full \
  -DCMAKE_BUILD_TYPE=Release -DXQTP_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "==== [clang-tidy] static analysis ===="
if command -v clang-tidy > /dev/null 2>&1; then
  # shellcheck disable=SC2046
  clang-tidy -p build-ci-release --quiet \
    $(find src -name '*.cc' | sort)
  echo "==== [clang-tidy] clean ===="
else
  echo "==== [clang-tidy] SKIPPED: clang-tidy not installed ===="
fi
leg_done clang-tidy

echo "==== [thread-safety] clang -Werror=thread-safety ===="
CLANGXX=""
for c in clang++ clang++-21 clang++-20 clang++-19 clang++-18 clang++-17 \
         clang++-16 clang++-15 clang++-14; do
  if command -v "$c" > /dev/null 2>&1; then
    CLANGXX="$c"
    break
  fi
done
if [[ -n "$CLANGXX" ]]; then
  # Own build tree: a different compiler must never touch another leg's
  # CMake cache. -Wthread-safety comes from CMakeLists.txt (clang-only);
  # the explicit -Werror=thread-safety here keeps the leg meaningful even
  # without XQTP_WERROR.
  cmake -B build-ci-tsa -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER="$CLANGXX" -DXQTP_WERROR=ON \
    -DCMAKE_CXX_FLAGS="-Werror=thread-safety" > /dev/null
  cmake --build build-ci-tsa -j "$JOBS" --target xqtp
  echo "==== [thread-safety] library clean under $CLANGXX ===="
  # Negative leg: each seeded lock-discipline misuse must FAIL to compile
  # (and the positive control must pass), proving the annotations bite.
  python3 tests/thread_safety_negative.py --src src
else
  echo "==== [thread-safety] SKIPPED: no clang++ on PATH ===="
  echo "====   gcc cannot check the capability annotations; install"
  echo "====   clang to prove lock discipline (-Werror=thread-safety)."
fi
leg_done thread-safety

echo "==== [equiv-fuzz] bounded differential sweep (Release) ===="
build-ci-release/tools/equiv_fuzz --iters 500 --seed 1 \
  --artifacts fuzz-artifacts --quiet
leg_done equiv-fuzz

echo "==== [bench-smoke] bench_parallel + bench_governor + bench_costmodel + bench_table1 (2.1MB) + bench_xmark_queries, one short run ===="
build-ci-release/bench/bench_parallel --benchmark_min_time=0.05
build-ci-release/bench/bench_governor --benchmark_min_time=0.05
build-ci-release/bench/bench_costmodel --benchmark_min_time=0.05
build-ci-release/bench/bench_table1 --benchmark_min_time=0.05 \
  --benchmark_filter=/2.1MB
build-ci-release/bench/bench_xmark_queries --benchmark_min_time=0.05
leg_done bench-smoke

echo "==== [bench-e2e-smoke] served workloads vs the reference results ===="
python3 bench/e2e/run.py --smoke
leg_done bench-e2e-smoke

run_config debug-sanitize build-ci-sanitize labeled \
  -DCMAKE_BUILD_TYPE=Debug -DXQTP_WERROR=ON \
  "-DXQTP_SANITIZE=address;undefined"

# TSan leg: Release (the calling thread and its borrowed parked workers
# run morsels at once, as they do when serving) with only the threading
# and robustness tests — TSan and ASan cannot be combined, so this is its
# own tree. XQTP_FAULT_INJECTION=ON compiles the fault points into the
# Release library so the injection sweep races under TSan too.
echo "==== [tsan] configure ===="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Release \
  -DXQTP_WERROR=ON -DXQTP_SANITIZE=thread \
  -DXQTP_FAULT_INJECTION=ON > /dev/null
echo "==== [tsan] build ===="
cmake --build build-ci-tsan -j "$JOBS" \
  --target tuple_batch_test parallel_eval_test concurrency_test \
  governor_test fault_injection_test plan_cache_test lifted_pattern_test
echo "==== [tsan] test ===="
ctest --test-dir build-ci-tsan --output-on-failure \
  -R '^(tuple_batch_test|parallel_eval_test|concurrency_test|governor_test|fault_injection_test|plan_cache_test|lifted_pattern_test)$'
leg_done tsan

echo "==== leg wall-clock summary ===="
for line in "${LEG_SUMMARY[@]}"; do
  echo "  $line"
done

echo "==== all checks passed ===="
