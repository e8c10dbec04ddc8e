// Regenerates Figure 1: RTTs to both ends of the GIXA-GHANATEL link during
// phase 1 (03/03/2016 - 14/06/2016).  The paper reports far-end weekday
// peaks of 20-50 ms over a flat near end, a level-shift magnitude
// A_w = 27.9 ms, up-to-down widths of roughly 20 hours, weekday spikes
// taller than weekend ones, and record-route evidence of path symmetry.
#include <iostream>

#include "analysis/casebook.h"
#include "bench_common.h"
#include "prober/prober.h"
#include "tslp/classifier.h"

int main() {
  using namespace ixp;
  using topo::date;
  std::cout << "bench_fig1: GIXA-GHANATEL phase 1 (the congested 100 Mb/s transit link)\n";

  const auto spec = analysis::make_fig_ghanatel();
  // Campaign covering phase 1 with margin.
  auto result = bench::run_vp(spec, date(1, 7, 2016) - spec.campaign_start, kMinute * 10);

  const auto link = bench::find_series(result, 29614, /*want_at_ixp=*/0);
  if (!link) {
    std::cerr << "GHANATEL ptp link not monitored -- bdrmap failure\n";
    return 1;
  }
  const auto phase1 = tslp::slice(*link, date(7, 3, 2016), date(13, 6, 2016));

  // Show two weeks of the waveform (as the paper's figure does).
  const auto fortnight = tslp::slice(*link, date(14, 3, 2016), date(28, 3, 2016));
  bench::print_rtt_figure("Fig 1: RTTs GIXA-GHANATEL, two weeks of phase 1", fortnight, 800);

  // Waveform characteristics vs the paper.
  tslp::CongestionClassifier classifier;
  const auto report = classifier.classify(phase1);
  const auto& cs = analysis::case_ghanatel();
  std::cout << "\nWaveform characteristics (phase 1):\n";
  bench::compare("A_w (avg shift magnitude)", cs.expected_a_w_ms, report.waveform.a_w_ms, "ms");
  bench::compare("dt_UD (avg event width)", to_hours(cs.expected_dt_ud),
                 to_hours(report.waveform.dt_ud), "h");
  bench::compare("weekday p95 elevation", 35.0, report.waveform.weekday_peak_ms, "ms");
  bench::compare("weekend p95 elevation", 20.0, report.waveform.weekend_peak_ms, "ms");
  std::cout << "  verdict: "
            << (report.verdict == tslp::Verdict::kCongested
                    ? "congested"
                    : report.verdict == tslp::Verdict::kInconclusive ? "inconclusive" : "OTHER")
            << " (near side clean: " << (report.near_clean ? "yes" : "no") << ")\n";
  std::cout << "  persistence: "
            << (report.persistence == tslp::Persistence::kSustained ? "sustained" : "transient")
            << "   (paper: sustained until the link was shut off)\n";

  // Record-route symmetry check, as in §6.2.1, on a fresh world.
  {
    auto rt2 = analysis::build_scenario(spec);
    rt2->topology.net().simulator().advance_to(date(1, 4, 2016));
    rt2->apply_timeline_until(date(1, 4, 2016));
    prober::Prober prober(rt2->topology.net(), rt2->vp_host);
    const auto sym = prober.record_route_symmetric(link->far_ip);
    std::cout << "  record-route symmetry: "
              << (sym.has_value() ? (*sym ? "symmetric" : "ASYMMETRIC") : "undecidable")
              << "   (paper: symmetric)\n";
  }

  const auto check = analysis::check_case(analysis::case_ghanatel(), report);
  std::cout << "\nCase-study check vs operators' account: "
            << (check.all() ? "PASS" : "PARTIAL") << "\n";
  std::cout << "Documented cause: " << analysis::case_ghanatel().cause << "\n";
  return 0;
}
