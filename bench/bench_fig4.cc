// Regenerates Figure 4: the QCELL-NETPAGE link at SIXP.
//   Phase 1 (29/02/2016 - 28/04/2016): repeating diurnal congestion on
//   NETPAGE's 10 Mb/s port (A_w = 10.7 ms, dt_UD = 6 h 22 m, ~1-day
//   periodicity, weekday spikes ~35 ms vs ~15 ms on weekends), caused by
//   user demand for the Google caches QCELL hosts.
//   Phase 2 (after the 28/04/2016 upgrade to 1 Gb/s): the pattern
//   disappears and RTTs stay below 10 ms to the end of the campaign.
#include <iostream>

#include "analysis/casebook.h"
#include "bench_common.h"
#include "tslp/classifier.h"

int main() {
  using namespace ixp;
  using topo::date;
  std::cout << "bench_fig4: QCELL-NETPAGE (demand-driven congestion, fixed by an upgrade)\n";

  const auto spec = analysis::make_fig_netpage();
  const Duration duration =
      bench::fast_mode() ? date(1, 6, 2016) - spec.campaign_start : Duration(0);
  auto result = bench::run_vp(spec, duration, kMinute * 10);

  const auto link = bench::find_series(result, 65400);
  if (!link) {
    std::cerr << "NETPAGE link not monitored -- bdrmap failure\n";
    return 1;
  }

  const auto phase1 = tslp::slice(*link, date(1, 3, 2016), date(27, 4, 2016));
  bench::print_rtt_figure("Fig 4a: phase 1 (10 Mb/s port, congested)",
                          tslp::slice(*link, date(14, 3, 2016), date(11, 4, 2016)), 800);

  tslp::CongestionClassifier classifier;
  const auto rep1 = classifier.classify(phase1);
  const auto& cs = analysis::case_netpage();
  std::cout << "\nPhase 1 waveform:\n";
  bench::compare("A_w (avg shift magnitude)", cs.expected_a_w_ms, rep1.waveform.a_w_ms, "ms");
  bench::compare("dt_UD (avg event width)", to_hours(cs.expected_dt_ud),
                 to_hours(rep1.waveform.dt_ud), "h");
  bench::compare("periodicity", 24.0, to_hours(rep1.waveform.period), "h");
  bench::compare("weekday spike height", 35.0, rep1.waveform.weekday_peak_ms, "ms");
  bench::compare("weekend spike height", 15.0, rep1.waveform.weekend_peak_ms, "ms");
  std::cout << "  diurnal pattern: " << (rep1.has_diurnal_pattern() ? "yes" : "no")
            << ", near clean: " << (rep1.near_clean ? "yes" : "no") << "\n";

  const TimePoint p2_end = bench::fast_mode() ? date(1, 6, 2016) : date(1, 3, 2017);
  const auto phase2 = tslp::slice(*link, date(29, 4, 2016), p2_end);
  bench::print_rtt_figure("Fig 4b: phase 2 (after the 1 Gb/s upgrade)",
                          tslp::slice(*link, date(29, 4, 2016),
                                      std::min(p2_end, date(27, 5, 2016))),
                          800);
  const auto rep2 = classifier.classify(phase2);
  std::cout << "\nPhase 2: diurnal pattern "
            << (rep2.has_diurnal_pattern() ? "STILL PRESENT (unexpected)" : "gone")
            << "; verdict "
            << (rep2.verdict == tslp::Verdict::kNotCongested ? "not congested" : "NOT clean")
            << "   (paper: congestion events disappeared after the upgrade)\n";

  // The full-series verdict should be congested-but-transient.
  const auto full = classifier.classify(*link);
  std::cout << "full-series persistence: "
            << (full.persistence == tslp::Persistence::kTransient
                    ? "transient"
                    : full.persistence == tslp::Persistence::kSustained ? "sustained" : "none")
            << "   (paper: transient -- mitigated by the upgrade)\n";
  std::cout << "Documented cause: " << cs.cause << "\n";
  return 0;
}
