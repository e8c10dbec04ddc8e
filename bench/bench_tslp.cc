// TSLP statistics benchmark.
//
// Classifies one synthetic link corpus (sized from a topology-spec preset)
// with all three detector engines -- legacy scalar, structure-of-arrays
// batch, and the online detector fed day-sized chunks -- and writes
// BENCH_tslp.json: series classified per second for each engine, the
// batch/scalar and online/scalar speedups (medians over interleaved
// per-pass pairs, kept beside them), and the equivalence verdict
// (all engines must produce byte-identical reports).  `afixp bench --tslp`
// is the same harness behind the CLI; tools/check_bench.sh runs the smoke
// size from CTest, validates the JSON, and gates the committed reference
// record on speedup_batch >= 3x.
//
//   bench_tslp [--smoke] [--spec regional50] [--seed S] [--repeats N]
//              [--out BENCH_tslp.json]
#include <fstream>
#include <iostream>

#include "analysis/benchmarks.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_tslp", "TSLP statistics benchmark (BENCH_tslp.json)");
  flags.add_bool("smoke", false, "CI-sized corpus (seconds, not minutes)");
  flags.add_string("spec", "regional50",
                   "topology-spec preset sizing the corpus (paper6, regional50, continent100)");
  flags.add_int("seed", 0, "override the preset's seed (0 = keep)");
  flags.add_int("repeats", 3,
                "warm passes per engine, at least 3: each is one interleaved "
                "speedup pair (cold pass is always 1)");
  flags.add_string("out", "BENCH_tslp.json", "output JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  analysis::TslpBenchOptions opt;
  opt.smoke = flags.get_bool("smoke");
  opt.spec = flags.get_string("spec");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  opt.repeats = static_cast<int>(flags.get_int("repeats"));

  analysis::TslpBenchReport report;
  try {
    report = analysis::run_tslp_benchmark(opt, &std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "bench_tslp: " << e.what() << "\n";
    return 1;
  }

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    analysis::write_tslp_bench_json(std::cout, report);
    return report.equivalent ? 0 : 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  analysis::write_tslp_bench_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return report.equivalent ? 0 : 1;
}
