#!/bin/sh
# Benchmark-harness smoke check, run from CTest (see tools/CMakeLists.txt).
#
# Runs the CI-sized benchmark workloads and fails when the harness crashes,
# emits malformed JSON, or the record is missing the fields the comparison
# workflow in README.md depends on (schema tag, per-benchmark name/unit and
# positive throughput numbers).  This is a format/liveness gate, not a
# performance gate: smoke timings on shared CI boxes are too noisy to assert
# thresholds on.
#
# One exception: the observability overhead gate.  campaign_six_vp runs
# with --metrics must stay within a lenient factor of metrics-off runs --
# metrics collection scrapes plain counters at segment boundaries, so a big
# gap means someone put registry work on the per-probe path.  The threshold
# (0.70x) is deliberately loose to survive CI noise, and the gate reads the
# median of three interleaved off/on ratios: one smoke campaign is under
# 0.1 s, so a single pair swung from 0.6 to 1.4 on a shared VM.
#
# When a bench_substrate binary is supplied, its smoke workload runs under
# the same format gate: the afixp-bench-substrate/1 record must carry every
# field docs/SCALING.md documents, with positive throughput and a columnar
# store that actually beats raw storage.
#
# Every record names the CPU count of the host that produced it: the
# afixp-bench-sim/3, afixp-bench-substrate/1 and afixp-bench-tslp/1
# records (smoke and committed) must carry a positive integer host_cpus,
# so a committed number is never read without knowing how many cores
# measured it.
#
# When a bench_tslp binary is supplied, its smoke workload runs too: the
# afixp-bench-tslp/1 record must carry all three engines (scalar, batch,
# online) with positive rates, and -- non-negotiably -- equivalent=true:
# the fast paths must be byte-identical to the legacy detector.  When a
# source dir is also supplied, the committed reference BENCH_tslp.json is
# checked as well: full regional50 workload, equivalent, the batch engine
# at >= 3x the scalar baseline.  The reference record is a committed
# artifact, not a CI measurement, so asserting its speedup is safe.
#
# When a bench_serve binary is supplied, its smoke workload runs too: the
# afixp-bench-serve/1 record must carry the full field set docs/SERVING.md
# documents, with positive read throughput and an error-free soak.  The
# committed reference BENCH_serve.json is gated as well: full continent100
# workload, no errors, and a minimum queries/s floor -- 10k on a
# multi-core recorder, relaxed to 5k when the recording host had a single
# CPU (the campaign driver, HTTP workers, and soak clients all share it).
#
# usage: check_bench.sh <bench_probe_binary> [bench_substrate_binary] \
#                       [bench_tslp_binary] [bench_serve_binary] [source_dir]
set -u

bench=${1:?usage: check_bench.sh <bench_probe_binary> [bench_substrate_binary] [bench_tslp_binary] [bench_serve_binary] [source_dir]}
substrate=${2:-}
tslp=${3:-}
serve=${4:-}
srcdir=${5:-}
[ -x "$bench" ] || { echo "check_bench: cannot execute $bench" >&2; exit 1; }

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! "$bench" --smoke --out "$out"; then
    echo "check_bench: bench_probe --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-sim/3":
    fail(f"unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected workload 'smoke', got {record.get('workload')!r}")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus >= 1):
    fail(f"record lacks a positive host_cpus: {host_cpus!r}")
benches = record.get("benchmarks")
if not isinstance(benches, list) or not benches:
    fail("'benchmarks' must be a non-empty list")
expected = {"probe_fabric", "event_loop", "campaign_six_vp"}
names = {b.get("name") for b in benches}
if names != expected:
    fail(f"benchmark set {sorted(names)} != {sorted(expected)}")
for b in benches:
    for key in ("unit", "items_per_pass", "cold_per_sec", "warm_per_sec", "wall_seconds"):
        if key not in b:
            fail(f"benchmark {b.get('name')!r} lacks field {key!r}")
    for key in ("cold_per_sec", "warm_per_sec"):
        if not (isinstance(b[key], (int, float)) and b[key] > 0):
            fail(f"benchmark {b.get('name')!r} has non-positive {key}: {b[key]!r}")
print("check_bench: OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Observability overhead gate ------------------------------------------
off_out=$(mktemp)
metrics_out=$(mktemp)
trap 'rm -f "$out" "$off_out" "$metrics_out"' EXIT
ratios=""
for pair in 1 2 3; do
    if ! "$bench" --smoke --only campaign_six_vp --out "$off_out" > /dev/null ||
       ! "$bench" --smoke --only campaign_six_vp --metrics --out "$metrics_out" > /dev/null; then
        echo "check_bench: bench_probe --only campaign_six_vp exited non-zero (pair $pair)" >&2
        exit 1
    fi
    ratio=$(python3 - "$off_out" "$metrics_out" <<'EOF'
import json
import sys

def warm(path, name):
    with open(path) as f:
        record = json.load(f)
    for b in record.get("benchmarks", []):
        if b.get("name") == name:
            return b["warm_per_sec"]
    sys.exit(f"check_bench: {path} lacks benchmark {name!r}")

print(warm(sys.argv[2], "campaign_six_vp") / warm(sys.argv[1], "campaign_six_vp"))
EOF
) || exit 1
    ratios="$ratios $ratio"
done

# shellcheck disable=SC2086  # ratios is a deliberate word list
python3 - $ratios <<'EOF'
import statistics
import sys

ratios = [float(r) for r in sys.argv[1:]]
ratio = statistics.median(ratios)
print(f"check_bench: campaign_six_vp metrics-on/off warm ratio {ratio:.3f} "
      f"(median of {', '.join(f'{r:.3f}' for r in ratios)})")
if ratio < 0.70:
    sys.exit(f"check_bench: metrics collection costs too much "
             f"(ratio {ratio:.3f} < 0.70) -- registry work on the hot path?")
print("check_bench: overhead gate OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Substrate benchmark record gate ---------------------------------------
[ -n "$substrate" ] || exit 0
[ -x "$substrate" ] || { echo "check_bench: cannot execute $substrate" >&2; exit 1; }

sub_out=$(mktemp)
trap 'rm -f "$out" "$off_out" "$metrics_out" "$sub_out"' EXIT
if ! "$substrate" --smoke --out "$sub_out"; then
    echo "check_bench: bench_substrate --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$sub_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed substrate JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-substrate/1":
    fail(f"unexpected substrate schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected substrate workload 'smoke', got {record.get('workload')!r}")
# The full field set docs/SCALING.md documents -- losing any breaks the
# cross-commit comparison workflow.
fields = {
    "schema", "workload", "spec", "seed", "jobs", "ixps", "links", "rounds",
    "samples", "probes", "wall_seconds", "link_rounds_per_sec",
    "probes_per_sec", "resident_bytes", "raw_bytes", "bytes_per_link",
    "raw_bytes_per_link", "compression_ratio", "peak_rss_kb", "host_cpus",
}
missing = fields - record.keys()
if missing:
    fail(f"substrate record lacks field(s) {sorted(missing)}")
for key in ("ixps", "links", "rounds", "samples", "probes",
            "link_rounds_per_sec", "bytes_per_link", "peak_rss_kb"):
    if not (isinstance(record[key], (int, float)) and record[key] > 0):
        fail(f"substrate record has non-positive {key}: {record[key]!r}")
if not (isinstance(record["host_cpus"], int) and record["host_cpus"] >= 1):
    fail(f"substrate record lacks a positive host_cpus: {record['host_cpus']!r}")
if not record["resident_bytes"] < record["raw_bytes"]:
    fail(f"columnar store does not beat raw storage "
         f"({record['resident_bytes']} >= {record['raw_bytes']} bytes)")
print("check_bench: substrate record OK")
EOF
[ $? -eq 0 ] || exit 1

# --- TSLP benchmark smoke gate ---------------------------------------------
[ -n "$tslp" ] || exit 0
[ -x "$tslp" ] || { echo "check_bench: cannot execute $tslp" >&2; exit 1; }

tslp_out=$(mktemp)
trap 'rm -f "$out" "$off_out" "$metrics_out" "$sub_out" "$tslp_out"' EXIT
if ! "$tslp" --smoke --out "$tslp_out"; then
    echo "check_bench: bench_tslp --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$tslp_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed tslp JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-tslp/1":
    fail(f"unexpected tslp schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected tslp workload 'smoke', got {record.get('workload')!r}")
engines = record.get("engines")
if not isinstance(engines, list) or not engines:
    fail("'engines' must be a non-empty list")
names = {e.get("name") for e in engines}
if names != {"scalar", "batch", "online"}:
    fail(f"engine set {sorted(names)} != ['batch', 'online', 'scalar']")
for e in engines:
    for key in ("cold_series_per_sec", "warm_series_per_sec", "wall_seconds"):
        if key not in e:
            fail(f"engine {e.get('name')!r} lacks field {key!r}")
        if not (isinstance(e[key], (int, float)) and e[key] > 0):
            fail(f"engine {e.get('name')!r} has non-positive {key}: {e[key]!r}")
# The non-negotiable bit, even at smoke size: the fast paths must have
# produced byte-identical reports to the legacy detector on every link.
if record.get("equivalent") is not True:
    fail("tslp engines are not equivalent -- the fast path diverged "
         "from the legacy detector")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus >= 1):
    fail(f"tslp record lacks a positive host_cpus: {host_cpus!r}")
for key in ("speedup_batch_pairs", "speedup_online_pairs"):
    if not (isinstance(record.get(key), list) and len(record[key]) >= 3):
        fail(f"tslp record lacks three interleaved {key}: {record.get(key)!r}")
print("check_bench: tslp smoke OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Serve benchmark smoke gate --------------------------------------------
if [ -n "$serve" ]; then
    [ -x "$serve" ] || { echo "check_bench: cannot execute $serve" >&2; exit 1; }

    serve_out=$(mktemp)
    trap 'rm -f "$out" "$off_out" "$metrics_out" "$sub_out" "$tslp_out" "$serve_out"' EXIT
    if ! "$serve" --smoke --out "$serve_out"; then
        echo "check_bench: bench_serve --smoke exited non-zero" >&2
        exit 1
    fi

    python3 - "$serve_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed serve JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-serve/1":
    fail(f"unexpected serve schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected serve workload 'smoke', got {record.get('workload')!r}")
# The full field set docs/SERVING.md documents.
fields = {
    "schema", "workload", "spec", "http_threads", "client_threads",
    "soak_seconds", "queries", "errors", "queries_per_sec", "passes",
    "epochs", "links", "host_cpus",
}
missing = fields - record.keys()
if missing:
    fail(f"serve record lacks field(s) {sorted(missing)}")
for key in ("queries", "queries_per_sec", "passes", "epochs", "links",
            "soak_seconds"):
    if not (isinstance(record[key], (int, float)) and record[key] > 0):
        fail(f"serve record has non-positive {key}: {record[key]!r}")
# A clean soak answers every query; allow nothing worse than 1% transport
# noise on a loaded CI box.
if record["errors"] * 100 > record["queries"]:
    fail(f"serve soak errors too high ({record['errors']} of "
         f"{record['queries']} queries)")
print("check_bench: serve smoke OK")
EOF
    [ $? -eq 0 ] || exit 1
fi

# --- TSLP committed reference gate -----------------------------------------
[ -n "$srcdir" ] || exit 0
ref="$srcdir/BENCH_tslp.json"
[ -f "$ref" ] || { echo "check_bench: missing committed reference $ref" >&2; exit 1; }

python3 - "$ref" <<'EOF'
import json
import statistics
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed reference JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: BENCH_tslp.json {msg}")

if record.get("schema") != "afixp-bench-tslp/1":
    fail(f"has unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "full":
    fail(f"is not a full-workload record ({record.get('workload')!r})")
if record.get("spec") != "regional50":
    fail(f"was not measured on the regional50 substrate ({record.get('spec')!r})")
if record.get("equivalent") is not True:
    fail("records non-equivalent engines")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus >= 1):
    fail(f"does not name its recording host's CPU count (host_cpus={host_cpus!r})")
# The speedup is a measurement, not one draw: the median of at least
# three interleaved scalar/batch pairs, recorded beside it.
for key in ("speedup_batch", "speedup_online"):
    pairs = record.get(key + "_pairs")
    if not (isinstance(pairs, list) and len(pairs) >= 3 and
            all(isinstance(r, (int, float)) and r > 0 for r in pairs)):
        fail(f"{key}_pairs must list at least three positive per-pair ratios "
             f"(got {pairs!r})")
    if abs(statistics.median(pairs) - record.get(key, 0)) > 0.01:
        fail(f"{key} {record.get(key)!r} is not the median of {pairs!r}")
speedup = record.get("speedup_batch")
if not (isinstance(speedup, (int, float)) and speedup >= 3.0):
    fail(f"batch speedup {speedup!r} is below the 3.0x acceptance bar")
print(f"check_bench: reference OK (batch {speedup}x over scalar, median of "
      f"{record['speedup_batch_pairs']})")
EOF
[ $? -eq 0 ] || exit 1

# --- Sim and substrate committed reference gates ---------------------------
simref="$srcdir/BENCH_sim.json"
subref="$srcdir/BENCH_substrate.json"
for ref in "$simref" "$subref"; do
    [ -f "$ref" ] || { echo "check_bench: missing committed reference $ref" >&2; exit 1; }
done

python3 - "$simref" "$subref" <<'EOF'
import json
import os
import sys

def check(path, schema):
    name = os.path.basename(path)
    with open(path) as f:
        try:
            record = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"check_bench: malformed reference JSON {name}: {e}")
    if record.get("schema") != schema:
        sys.exit(f"check_bench: {name} has unexpected schema tag {record.get('schema')!r}")
    if record.get("workload") != "full":
        sys.exit(f"check_bench: {name} is not a full-workload record "
                 f"({record.get('workload')!r})")
    host_cpus = record.get("host_cpus")
    if not (isinstance(host_cpus, int) and host_cpus >= 1):
        sys.exit(f"check_bench: {name} does not name its recording host's CPU "
                 f"count (host_cpus={host_cpus!r})")
    return record

sim = check(sys.argv[1], "afixp-bench-sim/3")
names = {b.get("name") for b in sim.get("benchmarks", [])}
expected = {"probe_fabric", "event_loop", "campaign_six_vp"}
if names != expected:
    sys.exit(f"check_bench: BENCH_sim.json benchmark set {sorted(names)} != "
             f"{sorted(expected)}")
sub = check(sys.argv[2], "afixp-bench-substrate/1")
print(f"check_bench: sim and substrate references OK "
      f"({sim['host_cpus']}- and {sub['host_cpus']}-CPU hosts)")
EOF
[ $? -eq 0 ] || exit 1

# --- Serve committed reference gate ----------------------------------------
[ -n "$serve" ] || exit 0
serveref="$srcdir/BENCH_serve.json"
[ -f "$serveref" ] || { echo "check_bench: missing committed reference $serveref" >&2; exit 1; }

python3 - "$serveref" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed reference JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: BENCH_serve.json {msg}")

if record.get("schema") != "afixp-bench-serve/1":
    fail(f"has unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "full":
    fail(f"is not a full-workload record ({record.get('workload')!r})")
if record.get("spec") != "continent100":
    fail(f"was not measured against continent100 ({record.get('spec')!r})")
if record.get("errors") != 0:
    fail(f"records a soak with errors ({record.get('errors')!r})")
qps = record.get("queries_per_sec")
if not (isinstance(qps, (int, float)) and qps > 0):
    fail(f"has non-positive queries_per_sec {qps!r}")
host_cpus = record.get("host_cpus")
# The floor is conditional on the recording host: with a single CPU the
# campaign driver, HTTP workers, and soak clients all timeshare one core,
# so the bar drops to half.
floor = 10000.0 if isinstance(host_cpus, int) and host_cpus >= 2 else 5000.0
if qps < floor:
    fail(f"queries_per_sec {qps!r} is below the {floor:.0f}/s floor "
         f"(host_cpus={host_cpus!r})")
print(f"check_bench: serve reference OK ({qps:.0f} queries/s on a "
      f"{host_cpus}-CPU host)")
EOF
