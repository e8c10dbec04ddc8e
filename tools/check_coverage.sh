#!/bin/sh
# Line-coverage floor for the congestion-detection core, run from CTest.
#
# Configures a second build tree with -DIXP_COVERAGE=ON (gcov
# instrumentation, -O0), builds and runs the suites that exercise the
# detector and the fault layer, then aggregates gcov "Lines executed"
# over every .cc under src/tslp and src/sim.  The check fails when the
# aggregate line coverage drops below the floor: that is the signal that
# someone grew the detector or the fault injector without growing the
# tests that pin its behaviour.
#
# The build tree is reused across runs, so only the first invocation pays
# the full compile.  When gcov is missing the check is SKIPPED, not
# failed: coverage is a CI amenity, not a correctness gate.
#
# usage: check_coverage.sh <source_dir> [build_dir]
#   IXP_COVERAGE_SUITES  override the space-separated list of test binaries
#   IXP_COVERAGE_FLOOR   override the minimum aggregate line coverage (%)
set -u

src=${1:?usage: check_coverage.sh <source_dir> [build_dir]}
build=${2:-$src/build-coverage}
suites=${IXP_COVERAGE_SUITES:-test_sim test_tslp test_faults test_serve}
floor=${IXP_COVERAGE_FLOOR:-80}

if ! command -v gcov > /dev/null 2>&1; then
    echo "check_coverage: SKIPPED (gcov not found)"
    exit 0
fi

log_dir=$(mktemp -d)
trap 'rm -rf "$log_dir"' EXIT

# Wall-clock seconds for the per-step timings printed below (where the
# coverage/sanitizer minutes of a CI run go).
now() { date +%s.%N; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }'; }

# --- Configure + build the instrumented tree ------------------------------
if ! cmake -B "$build" -S "$src" -DIXP_COVERAGE=ON \
        > "$log_dir/configure.log" 2>&1; then
    echo "check_coverage: FAILED to configure the instrumented build" >&2
    tail -n 30 "$log_dir/configure.log" >&2
    exit 1
fi
t0=$(now)
# shellcheck disable=SC2086  # suites is a deliberate word list
if ! cmake --build "$build" --target $suites -j "$(nproc)" \
        > "$log_dir/build.log" 2>&1; then
    echo "check_coverage: FAILED to build the instrumented test suites" >&2
    tail -n 30 "$log_dir/build.log" >&2
    exit 1
fi
echo "check_coverage: built in $(since "$t0") s"

# --- Run the suites (counters accumulate into the .gcda files) ------------
# Stale counters from a previous source revision would inflate the number,
# so start from a clean slate every run.
find "$build/src" -name '*.gcda' -delete
for s in $suites; do
    printf 'check_coverage: running %s ... ' "$s"
    t0=$(now)
    if "$build/tests/$s" --gtest_brief=1 > "$log_dir/$s.log" 2>&1; then
        echo "OK ($(since "$t0") s)"
    else
        echo "FAILED ($(since "$t0") s)"
        tail -n 40 "$log_dir/$s.log"
        exit 1
    fi
done

# --- Aggregate gcov line coverage over src/tslp + src/sim -----------------
# Each .cc is compiled exactly once into its library, so every source file
# contributes one File/Lines pair; headers are skipped to avoid counting
# the same inline code once per including translation unit.
gcda_list=$(find "$build/src/tslp" "$build/src/sim" -name '*.gcda' | sort)
if [ -z "$gcda_list" ]; then
    echo "check_coverage: FAILED (no .gcda files under src/tslp + src/sim)" >&2
    exit 1
fi
# shellcheck disable=SC2086  # word-splitting the file list is intended
(cd "$log_dir" && gcov -n $gcda_list > gcov.out 2>/dev/null)
if ! awk '
    /^File /           { f = substr($2, 2, length($2) - 2) }
    /^Lines executed:/ {
        # gcov ends with a grand-total line that has no File header; the
        # cleared f skips it (and any other headerless summary line).
        ok = (f ~ /src\/(tslp|sim)\/[^\/]*\.cc$/); file = f; f = ""
        if (!ok) next
        pct = $0; sub(/^Lines executed:/, "", pct); sub(/%.*/, "", pct)
        n = $0;   sub(/.* of /, "", n)
        covered += pct * n / 100.0; total += n
        printf "check_coverage:   %6.2f%% %5d  %s\n", pct, n, file
    }
    END {
        if (total == 0) {
            print "check_coverage: no matching sources in gcov output"
            exit 1
        }
        agg = 100.0 * covered / total
        printf "check_coverage: TOTAL %.2f%% of %d lines\n", agg, total
        printf "%.2f\n", agg > TOTAL_FILE
    }' TOTAL_FILE="$log_dir/total" "$log_dir/gcov.out"; then
    exit 1
fi
total=$(cat "$log_dir/total")

if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t + 0 < f + 0) }'; then
    echo "check_coverage: FAILED (aggregate ${total}% below floor ${floor}%)" >&2
    exit 1
fi
echo "check_coverage: OK (${total}% >= floor ${floor}%)"
exit 0
