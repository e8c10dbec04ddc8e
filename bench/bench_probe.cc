// Probe hot-path benchmark harness.
//
// Runs the simulator workloads in src/analysis/benchmarks.h (probe_fabric,
// event_loop, campaign_six_vp) and writes BENCH_sim.json.
// Fixed seeds and fixed probe counts keep runs comparable across PRs; see
// the "Benchmark harness" section of README.md for how to compare against
// the previous PR's numbers.  `afixp bench` is the same harness behind the
// CLI; tools/check_bench.sh runs the smoke size from CTest.
//
//   bench_probe [--smoke] [--out BENCH_sim.json] [--only <name>] [--repeats N]
//               [--metrics]
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analysis/benchmarks.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_probe", "probe hot-path benchmark harness (BENCH_sim.json)");
  flags.add_bool("smoke", false, "CI-sized workloads (seconds, not minutes)");
  flags.add_string("out", "BENCH_sim.json", "output JSON path (empty = stdout)");
  flags.add_string("only", "", "run only the named benchmark");
  flags.add_int("repeats", 3, "warm passes per micro-benchmark");
  flags.add_bool("metrics", false,
                 "collect campaign metrics during campaign_six_vp (measures "
                 "the observability overhead; default measures the disabled path)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  analysis::BenchOptions opt;
  opt.smoke = flags.get_bool("smoke");
  opt.only = flags.get_string("only");
  opt.repeats = static_cast<int>(flags.get_int("repeats"));
  opt.metrics = flags.get_bool("metrics");
  analysis::BenchReport report;
  try {
    report = analysis::run_sim_benchmarks(opt, &std::cerr);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_probe: " << e.what() << "\n";
    return 2;
  }

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    analysis::write_bench_json(std::cout, report);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  analysis::write_bench_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
