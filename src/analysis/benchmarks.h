// Simulator benchmark harness: the repo's perf trajectory.
//
// Every PR that touches the probe hot path re-runs these workloads and
// commits the result as BENCH_sim.json, so probes/s and ns/hop are
// comparable across PRs (fixed seeds, fixed topologies, fixed probe
// counts -- only the wall clock varies with the host).
//
// Three workloads, ordered from micro to macro:
//   * probe_fabric   -- the TSLP inner loop in isolation: analytic probes
//     across a VP -> border -> IXP fabric -> member topology, TTL expiry
//     at the member router.  Reports probes/s and ns per link crossing.
//   * event_loop     -- event-mode echo through two routers; measures the
//     Simulator's scheduling throughput (events/s).
//   * campaign_six_vp -- the paper's six VP campaigns end to end at the
//     5-minute cadence (the acceptance workload for probe-path PRs).
//
// Entry points: `afixp bench` and bench/bench_probe.cc; tools/check_bench.sh
// runs the smoke size from CTest and validates the JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "topo/gen.h"
#include "util/time.h"

namespace ixp::analysis {

struct BenchOptions {
  /// CI-sized workloads (seconds, not minutes); what check_bench runs.
  bool smoke = false;
  /// Seeds the synthetic topologies and every RNG stream.
  std::uint64_t seed = 0x5eed0001u;
  /// Warm passes per micro-benchmark (cold pass is always 1).
  int repeats = 3;
  /// Run only the benchmark with this name (empty = all).
  std::string only;
  /// Collect per-campaign observability registries during campaign_six_vp.
  /// Off by default so the reference numbers (BENCH_sim.json) measure the
  /// instrumentation-free path; check_bench.sh compares both settings to
  /// gate the metrics overhead.
  bool metrics = false;
};

/// One benchmark's numbers.  `items` are probes (probe benches) or events
/// (event_loop) per pass; `hops` are link crossings per pass.
struct BenchMeasurement {
  std::string name;
  std::string unit;               ///< "probes_per_sec" | "events_per_sec"
  std::uint64_t items = 0;        ///< work items per pass
  std::uint64_t hops = 0;         ///< link crossings per pass (0 = n/a)
  double cold_per_sec = 0.0;      ///< first pass (cold caches, lazy state)
  double warm_per_sec = 0.0;      ///< best warm pass
  double cold_ns_per_hop = 0.0;   ///< 0 when hops == 0
  double warm_ns_per_hop = 0.0;
  double wall_seconds = 0.0;      ///< total across all passes
};

struct BenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::uint64_t seed = 0;
  int host_cpus = 0;     ///< recording host's hardware concurrency
  std::vector<BenchMeasurement> benches;
};

/// Runs the harness.  `log`, when non-null, receives one progress line per
/// benchmark (human-readable; the JSON goes elsewhere).  Throws
/// std::invalid_argument when `opt.only` names no benchmark.
BenchReport run_sim_benchmarks(const BenchOptions& opt, std::ostream* log = nullptr);

/// Serializes a report as the BENCH_sim.json document (schema
/// "afixp-bench-sim/3"; see docs/ARCHITECTURE.md).
void write_bench_json(std::ostream& out, const BenchReport& rep);

// ---------------------------------------------------------------------------
// Substrate benchmark: the continent-scale acceptance workload.
//
// Generates a substrate from a topology-spec preset (topo/gen.h), runs the
// whole fleet, and reports the two numbers docs/SCALING.md sizes everything
// with: links simulated per second (one monitored link advanced one probing
// round = one link-round) and resident bytes per monitored link.  Entry points: `afixp gen
// --bench` and bench/bench_substrate.cc; results are committed as
// BENCH_substrate.json and linted by tools/check_bench.sh and
// tools/check_docs.sh.

struct SubstrateBenchOptions {
  /// CI-sized: a 6-IXP substrate over two days (seconds of wall clock).
  /// Full mode runs the `spec` preset as-is.
  bool smoke = false;
  std::string spec = "continent100";  ///< preset fed to topo_spec_preset()
  std::uint64_t seed = 0;             ///< 0 = keep the preset's seed
  int jobs = 0;                       ///< fleet workers (0 = auto)
  Duration round_interval = kMinute * 5;
  Duration duration_override = Duration(0);  ///< 0 = the spec's `days`
};

struct SubstrateBenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::string spec;      ///< preset the substrate came from
  std::uint64_t seed = 0;
  int jobs = 0;
  std::size_t ixps = 0;
  std::uint64_t links = 0;    ///< monitored links, fleet-wide
  std::uint64_t rounds = 0;   ///< TSLP rounds across all campaigns
  std::uint64_t samples = 0;  ///< stored samples (near+far columns)
  std::uint64_t probes = 0;
  double wall_seconds = 0.0;
  double link_rounds_per_sec = 0.0;  ///< links simulated per wall second
  double probes_per_sec = 0.0;
  std::uint64_t resident_bytes = 0;  ///< encoded columnar footprint
  std::uint64_t raw_bytes = 0;       ///< 8 bytes/sample equivalent
  double bytes_per_link = 0.0;       ///< resident_bytes / links
  double raw_bytes_per_link = 0.0;
  double compression_ratio = 0.0;    ///< raw_bytes / resident_bytes
  long peak_rss_kb = 0;              ///< process peak RSS after the run
  int host_cpus = 0;                 ///< recording host's hardware concurrency
};

/// Generates the substrate, runs the fleet, and
/// aggregates the report.  Throws std::runtime_error on an unknown preset.
SubstrateBenchReport run_substrate_benchmark(const SubstrateBenchOptions& opt,
                                             std::ostream* log = nullptr);

/// Same harness over an already-resolved spec (a preset or a file the
/// caller parsed -- `afixp gen --bench` lands here).  `opt.spec` and
/// `opt.smoke` are ignored; the report's workload is "full".
SubstrateBenchReport run_substrate_benchmark(const topo::TopoSpec& spec,
                                             const SubstrateBenchOptions& opt,
                                             std::ostream* log = nullptr);

/// Serializes a report as the BENCH_substrate.json document (schema
/// "afixp-bench-substrate/1"; field reference in docs/SCALING.md).
void write_substrate_bench_json(std::ostream& out, const SubstrateBenchReport& rep);

// ---------------------------------------------------------------------------
// TSLP statistics benchmark: the classification throughput trajectory.
//
// Classifies the same synthetic link corpus (sized from a topology-spec
// preset; see docs/SCALING.md for the presets) with all three detector
// engines -- the legacy scalar pipeline, the structure-of-arrays batch
// engine, and the online detector fed day-sized chunks -- and reports
// series classified per second for each.  The engines run interleaved,
// one scalar/batch/online pair per warm pass, and each speedup is the
// median of its per-pair ratios, so one noisy pass cannot make or break
// the gate.  All three must produce byte-identical reports (the
// `equivalent` field); check_bench.sh fails the smoke run otherwise and
// gates the committed BENCH_tslp.json on batch/scalar speedup >= 3x.
// Entry points: `afixp bench --tslp` and bench/bench_tslp.cc.

struct TslpBenchOptions {
  /// CI-sized corpus (a 6-IXP spec over two days); what check_bench runs.
  bool smoke = false;
  std::string spec = "regional50";  ///< preset sizing the synthetic corpus
  std::uint64_t seed = 0;           ///< 0 = keep the preset's seed
  /// Warm passes per engine (cold is always 1); raised to
  /// kTslpSpeedupPairs, because each warm pass is one speedup pair.
  int repeats = 3;
};

/// Fewest interleaved warm passes the speedups are the median over.
inline constexpr int kTslpSpeedupPairs = 3;

/// One engine's throughput.  A "series" is one side of one monitored link
/// (each link contributes a near and a far detection).
struct TslpEngineMeasurement {
  std::string name;  ///< "scalar" | "batch" | "online"
  double cold_series_per_sec = 0.0;
  double warm_series_per_sec = 0.0;  ///< best warm pass (= cold when repeats 0)
  double wall_seconds = 0.0;         ///< total across all passes
};

struct TslpBenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::string spec;
  std::uint64_t seed = 0;
  std::uint64_t links = 0;               ///< monitored links in the corpus
  std::uint64_t series = 0;              ///< 2 * links (near + far sides)
  std::uint64_t samples_per_series = 0;  ///< campaign rounds at the 5-min cadence
  std::uint64_t samples_total = 0;
  std::vector<TslpEngineMeasurement> engines;
  double speedup_batch = 0.0;   ///< median of speedup_batch_pairs
  double speedup_online = 0.0;  ///< median of speedup_online_pairs
  /// Per warm pass: scalar seconds / engine seconds, in pass order.
  std::vector<double> speedup_batch_pairs;
  std::vector<double> speedup_online_pairs;
  /// All engines produced byte-identical reports on every link.
  bool equivalent = false;
  std::uint64_t episodes = 0;         ///< far+near episodes, batch engine
  std::uint64_t congested_links = 0;  ///< kCongested verdicts
  /// Mirrored through the obs registry under the campaign metric names
  /// (afixp_detector_windows_*), so the bench reads the same counters the
  /// fleet metrics table scrapes.
  std::uint64_t windows_scanned = 0;
  std::uint64_t windows_skipped = 0;  ///< dark + quiet skips
  long peak_rss_kb = 0;
  int host_cpus = 0;  ///< recording host's hardware concurrency
};

/// Builds the synthetic corpus and times the three engines.  Throws
/// std::runtime_error on an unknown preset.
TslpBenchReport run_tslp_benchmark(const TslpBenchOptions& opt, std::ostream* log = nullptr);

/// Serializes a report as the BENCH_tslp.json document (schema
/// "afixp-bench-tslp/1"; field reference in docs/ARCHITECTURE.md,
/// "TSLP fast path").
void write_tslp_bench_json(std::ostream& out, const TslpBenchReport& rep);

}  // namespace ixp::analysis
