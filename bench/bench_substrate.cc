// Continent-scale substrate benchmark.
//
// Generates a substrate from a topology-spec preset (src/topo/gen.h), runs
// every generated campaign through the fleet, and writes
// BENCH_substrate.json: links simulated per second and resident bytes per
// monitored link are the two numbers docs/SCALING.md sizes campaigns with.  `afixp gen --bench` is the same
// harness behind the CLI; tools/check_bench.sh runs the smoke size from
// CTest and validates the JSON.
//
//   bench_substrate [--smoke] [--spec continent100] [--jobs N] [--seed S]
//                   [--days D] [--out BENCH_substrate.json]
#include <fstream>
#include <iostream>

#include "analysis/benchmarks.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_substrate",
              "continent-scale substrate benchmark (BENCH_substrate.json)");
  flags.add_bool("smoke", false, "CI-sized substrate (seconds, not minutes)");
  flags.add_string("spec", "continent100",
                   "topology-spec preset to run (paper6, regional50, continent100)");
  flags.add_int("jobs", 0, "fleet workers (0 = auto: IXP_JOBS or hardware)");
  flags.add_int("seed", 0, "override the preset's seed (0 = keep)");
  flags.add_int("days", 0, "override the campaign length in days (0 = spec)");
  flags.add_string("out", "BENCH_substrate.json", "output JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  analysis::SubstrateBenchOptions opt;
  opt.smoke = flags.get_bool("smoke");
  opt.spec = flags.get_string("spec");
  opt.jobs = static_cast<int>(flags.get_int("jobs"));
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (flags.get_int("days") > 0) opt.duration_override = kDay * flags.get_int("days");

  analysis::SubstrateBenchReport report;
  try {
    report = analysis::run_substrate_benchmark(opt, &std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "bench_substrate: " << e.what() << "\n";
    return 1;
  }

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    analysis::write_substrate_bench_json(std::cout, report);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  analysis::write_substrate_bench_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
