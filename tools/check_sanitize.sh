#!/bin/sh
# Sanitizer CI (layer 3 of the correctness harness), run from CTest.
#
# Two modes, selected by the IXP_SANITIZE environment variable:
#
#   address (default)  -DIXP_SANITIZE=address;undefined -DIXP_PARANOID=ON;
#                      runs the statistics-path gtest suites with
#                      halt-on-error ASan/UBSan settings.
#   thread             -DIXP_SANITIZE=thread -DIXP_PARANOID=ON; runs the
#                      suites that exercise real threads (the LP scheduler,
#                      the fleet pool, the serving layer's snapshot
#                      publish/pin path, and the process-wide bootstrap
#                      table in src/stats) under TSan, so a data race in
#                      the barrier-window exchange, the counter-shadow
#                      merge, the epoch swap, or a table publish fails CI
#                      instead of silently corrupting a "byte-identical"
#                      run.
#
# Each mode configures its own build tree (reused across runs, so only the
# first invocation pays the full compile).
#
# When the toolchain cannot produce a working sanitized binary for the
# requested mode (missing runtime libraries, cross builds), the check is
# SKIPPED, not failed: the golden corpus and the invariant layer still run
# in the normal build.
#
# usage: check_sanitize.sh <source_dir> [build_dir]
#   IXP_SANITIZE         "address" (default) or "thread"
#   IXP_SANITIZE_SUITES  override the space-separated list of test binaries
set -u

src=${1:?usage: check_sanitize.sh <source_dir> [build_dir]}
mode=${IXP_SANITIZE:-address}
case "$mode" in
    thread)
        build=${2:-$src/build-sanitize-thread}
        suites=${IXP_SANITIZE_SUITES:-test_parallel_sim test_fleet test_serve test_stats}
        probe_flags="-fsanitize=thread"
        cmake_sanitize="thread"
        ;;
    address|*)
        build=${2:-$src/build-sanitize}
        suites=${IXP_SANITIZE_SUITES:-test_util test_obs test_net test_stats test_sim test_tslp test_golden test_prober test_faults test_analysis test_serve}
        probe_flags="-fsanitize=address,undefined"
        cmake_sanitize="address;undefined"
        ;;
esac

# Wall-clock seconds for the per-step timings printed below (where the
# coverage/sanitizer minutes of a CI run go).
now() { date +%s.%N; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }'; }

# --- Toolchain probe: can we compile AND run a sanitized binary? ----------
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
int main() { return 0; }
EOF
if ! c++ $probe_flags "$probe_dir/probe.cc" -o "$probe_dir/probe" \
        > /dev/null 2>&1 || ! "$probe_dir/probe" > /dev/null 2>&1; then
    echo "check_sanitize: SKIPPED ($mode: toolchain cannot build/run sanitized binaries)"
    exit 0
fi

# --- Configure + build the sanitized tree ---------------------------------
if ! cmake -B "$build" -S "$src" \
        -DIXP_SANITIZE="$cmake_sanitize" -DIXP_PARANOID=ON \
        > "$probe_dir/configure.log" 2>&1; then
    echo "check_sanitize: FAILED to configure the $mode-sanitized build" >&2
    tail -n 30 "$probe_dir/configure.log" >&2
    exit 1
fi
t0=$(now)
# shellcheck disable=SC2086  # suites is a deliberate word list
if ! cmake --build "$build" --target $suites -j "$(nproc)" \
        > "$probe_dir/build.log" 2>&1; then
    echo "check_sanitize: FAILED to build the $mode-sanitized test suites" >&2
    tail -n 30 "$probe_dir/build.log" >&2
    exit 1
fi
echo "check_sanitize: built [$mode] in $(since "$t0") s"

# --- Run the suites with halt-on-error sanitizer settings -----------------
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1"
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
# tools/tsan.supp masks libstdc++'s _Sp_atomic false positive (relaxed
# spinlock unlock in atomic<shared_ptr>::load); see the comment there.
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$src/tools/tsan.supp"
export ASAN_OPTIONS UBSAN_OPTIONS TSAN_OPTIONS
status=0
for s in $suites; do
    printf 'check_sanitize: running %s [%s] ... ' "$s" "$mode"
    t0=$(now)
    if "$build/tests/$s" --gtest_brief=1 > "$probe_dir/$s.log" 2>&1; then
        echo "OK ($(since "$t0") s)"
    else
        echo "FAILED ($(since "$t0") s)"
        tail -n 40 "$probe_dir/$s.log"
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "check_sanitize: OK [$mode] ($suites)"
exit $status
