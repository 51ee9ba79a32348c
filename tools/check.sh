#!/usr/bin/env bash
# Build-and-test matrix for local verification:
#   1. default build + full test suite (the tier-1 gate), then the
#      hardened-policy label (-L hardened) on the same build, then the
#      repeat gate: every test outside the failpoint/chaos soaks 20
#      times over (--repeat until-fail:20), so a flake fails the change
#      that adds it;
#   2. MSW_THREAD_SAFETY=ON with clang++ (thread-safety analysis is a
#      Clang feature) — compile-only, -Werror=thread-safety;
#   3. MSW_SANITIZE=address,undefined + full test suite, then the
#      lifecycle chaos soak (-L chaos) with a longer local budget;
#   4. MSW_SANITIZE=thread + the race suite and the chaos soak
#      (-L "tsan|chaos"), then the tsan label again with
#      MSW_POLICY=hardened so the policy hooks are raced too;
#   5. msw-analyze (tools/analysis/) self-test + clean run over src/;
#   6. server tail-latency smoke: bench/server_tail in short duration
#      mode, then tools/ci/check_server_tail.py validates the output
#      shape (all four systems with full percentile digests);
#   7. the benchmark's own output checks: perfbench/selftest.py runs
#      every workload at a small scale and asserts the checksum, ledger
#      and UAF-probe checks pass (and fail on injected faults).
# Configurations whose toolchain is unavailable are skipped with a note,
# not failed: the matrix must be runnable on minimal containers.
#
# Usage: tools/check.sh [--quick]
#   --quick runs only the default configuration.
#   MSW_CHAOS_SECONDS (default 10 here; the binary's own default is 2)
#   scales the chaos soaks.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
quick=0
if [ "${1:-}" = "--quick" ]; then quick=1; fi

run() { echo "+ $*" >&2; "$@"; }

failures=()
chaos_seconds="${MSW_CHAOS_SECONDS:-10}"

echo "=== [1/7] default build + tests ==="
run cmake -B "$repo/build-check" -S "$repo" >/dev/null
run cmake --build "$repo/build-check" -j >/dev/null
if ! (cd "$repo/build-check" && ctest --output-on-failure -j "$(nproc)"); then
    failures+=("default")
fi
# The hardened-policy reruns are part of the default gate: same build,
# MSW_POLICY=hardened via the ctest registrations.
if ! (cd "$repo/build-check" && ctest --output-on-failure -j "$(nproc)" \
          -L hardened); then
    failures+=("hardened")
fi
if ! (cd "$repo/build-check" && ctest --output-on-failure -j "$(nproc)" \
          -LE 'failpoint|chaos' --repeat until-fail:20); then
    failures+=("repeat")
fi

if [ "$quick" = "0" ]; then
    echo "=== [2/7] MSW_THREAD_SAFETY=ON (clang) ==="
    if command -v clang++ >/dev/null 2>&1; then
        if run cmake -B "$repo/build-check-tsa" -S "$repo" \
                -DCMAKE_CXX_COMPILER=clang++ \
                -DMSW_THREAD_SAFETY=ON >/dev/null &&
           run cmake --build "$repo/build-check-tsa" -j >/dev/null; then
            echo "thread-safety analysis: clean"
        else
            failures+=("thread-safety")
        fi
    else
        echo "clang++ not found; skipping the thread-safety configuration."
    fi

    echo "=== [3/7] MSW_SANITIZE=address,undefined + tests ==="
    # handle_segv=0: the suite *intends* SIGSEGV in places (UAF probes on
    # unmapped quarantine pages, mprotect write-barrier faults); ASan must
    # not convert those into aborts.
    if run cmake -B "$repo/build-check-asan" -S "$repo" \
            -DMSW_SANITIZE=address,undefined >/dev/null &&
       run cmake --build "$repo/build-check-asan" -j >/dev/null; then
        # shim_victim_preload is excluded: LD_PRELOADing an ASan-built
        # shim violates ASan's requirement to be first in the initial
        # library list (runtime refuses to start).
        if ! (cd "$repo/build-check-asan" &&
              ASAN_OPTIONS=handle_segv=0:allow_user_segv_handler=1 \
                  ctest --output-on-failure -j "$(nproc)" \
                      -E shim_victim_preload); then
            failures+=("asan-ubsan")
        fi
        # The chaos soak once more, solo and with wall-clock to spare:
        # fork/thread-exit interleavings are schedule-dependent.
        if ! (cd "$repo/build-check-asan" &&
              ASAN_OPTIONS=handle_segv=0:allow_user_segv_handler=1 \
                  MSW_CHAOS_SECONDS="$chaos_seconds" \
                  ctest --output-on-failure -L chaos); then
            failures+=("asan-ubsan-chaos")
        fi
    else
        failures+=("asan-ubsan-build")
    fi

    echo "=== [4/7] MSW_SANITIZE=thread + race/chaos suites ==="
    # Only the tsan- and chaos-labelled tests: a full suite under TSan
    # takes too long for a local gate, and the remaining tests exercise
    # no cross-thread interleavings the labelled ones don't.
    if run cmake -B "$repo/build-check-tsan" -S "$repo" \
            -DMSW_SANITIZE=thread >/dev/null &&
       run cmake --build "$repo/build-check-tsan" -j >/dev/null; then
        if ! (cd "$repo/build-check-tsan" &&
              MSW_CHAOS_SECONDS="$chaos_seconds" \
                  ctest --output-on-failure -j "$(nproc)" \
                      -L "tsan|chaos"); then
            failures+=("tsan")
        fi
        # Race the hardened policy's hook paths (randomized placement,
        # canary writes, release shuffling) under TSan as well.
        if ! (cd "$repo/build-check-tsan" &&
              MSW_POLICY=hardened ctest --output-on-failure \
                  -j "$(nproc)" -L tsan); then
            failures+=("tsan-hardened")
        fi
    else
        failures+=("tsan-build")
    fi

    echo "=== [5/7] msw-analyze (domain-specific static analysis) ==="
    # The analyzer degrades to its built-in textual engine when libclang/
    # clang-query are absent; only a missing python3 skips the stage. The
    # build dir from stage 1 supplies compile_commands.json (and hosts
    # the analyzer's incremental cache); export it here if a stale or
    # hand-rolled build dir lacks one.
    if command -v python3 >/dev/null 2>&1; then
        if [ ! -f "$repo/build-check/compile_commands.json" ]; then
            echo "check.sh: exporting compile_commands.json for the analyzer" >&2
            run cmake -B "$repo/build-check" -S "$repo" >/dev/null
        fi
        if ! run python3 "$repo/tools/analysis/msw_analyze.py" \
                --self-test "$repo/tests/analysis/fixtures"; then
            failures+=("msw-analyze-selftest")
        fi
        if ! run python3 "$repo/tools/analysis/msw_analyze.py" \
                --root "$repo" --build "$repo/build-check" --timings \
                --dump-atomics "$repo/build-check/msw-atomics.json"; then
            failures+=("msw-analyze")
        fi
        # Per-file memory-order histogram from the inventory the run
        # above just dumped (annotated/relaxed must read n/n).
        if [ -f "$repo/build-check/msw-atomics.json" ]; then
            run python3 "$repo/tools/analysis/atomics_report.py" \
                "$repo/build-check/msw-atomics.json" || true
        fi
        # Cold/warm wall-clock budget (cold <=120s, warm <=5s): a warm
        # breach means the incremental cache keying regressed.
        if ! run bash "$repo/tools/analysis/timing_budget.sh" \
                --root "$repo" --build "$repo/build-check"; then
            failures+=("msw-analyze-timing")
        fi
    else
        echo "python3 not found; skipping the msw-analyze stage."
    fi

    echo "=== [6/7] server tail-latency smoke ==="
    # The gate is the output *shape* (four systems, full percentile
    # digests), not the numbers; MSW_BENCH_SECONDS keeps it short.
    if command -v python3 >/dev/null 2>&1; then
        if (cd "$repo/build-check" &&
            MSW_BENCH_SECONDS="${MSW_BENCH_SECONDS:-1}" \
                run ./bench/server_tail); then
            if ! (cd "$repo/build-check" &&
                  run python3 "$repo/tools/ci/check_server_tail.py" \
                      BENCH_server_tail.json); then
                failures+=("server-tail-shape")
            fi
        else
            failures+=("server-tail")
        fi
    else
        echo "python3 not found; skipping the server-tail smoke stage."
    fi

    echo "=== [7/7] perfbench self-test (benchmark output checks) ==="
    # About 12 s: builds perfbench_round into .bench_build/ and runs the
    # checksum, ledger and UAF-probe checks on all three workloads.
    if command -v python3 >/dev/null 2>&1; then
        if ! (cd "$repo" && run python3 perfbench/selftest.py); then
            failures+=("perfbench-selftest")
        fi
    else
        echo "python3 not found; skipping the perfbench self-test stage."
    fi
fi

echo
if [ "${#failures[@]}" -gt 0 ]; then
    echo "check.sh: FAILED configurations: ${failures[*]}" >&2
    exit 1
fi
echo "check.sh: all configurations passed."
