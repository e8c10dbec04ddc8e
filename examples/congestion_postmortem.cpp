// Congestion postmortem: the operator workflow from the paper's §6.2 on the
// GIXA-GHANATEL case, driven through the public API step by step.
//
//   1. discover the link with bdrmap-lite;
//   2. probe near and far ends (TSLP) through the congested phase;
//   3. verify the near side stays flat and the route is symmetric
//      (record-route), so the queue really sits on the targeted link;
//   4. characterize the waveform (A_w, dt_UD, weekday/weekend);
//   5. measure packet loss on the link;
//   6. consult the casebook (the stand-in for operator interviews).
//
// Usage: ./build/examples/congestion_postmortem
#include <iostream>
#include <optional>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/casebook.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"
#include "tslp/classifier.h"
#include "util/strings.h"

int main() {
  using namespace ixp;
  using topo::date;

  const auto spec = analysis::make_fig_ghanatel();
  std::cout << "postmortem: GIXA-GHANATEL (VP1, " << spec.ixp.long_name << ")\n\n";

  // Step 1+2: discovery and probing, via the campaign driver.
  auto world = analysis::build_scenario(spec);
  analysis::CampaignOptions opt;
  opt.round_interval = kMinute * 10;
  opt.duration_override = date(20, 6, 2016) - spec.campaign_start;
  const auto result = analysis::run_campaign(*world, spec, opt);
  std::optional<tslp::LinkSeries> link;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto& s = result.series[i];
    if (s.far_asn == 29614 && !s.at_ixp) link = result.decode_link(i);
  }
  if (!link) {
    std::cerr << "link not discovered\n";
    return 1;
  }
  std::cout << "step 1-2: monitoring " << link->key << " (far " << link->far_ip.to_string()
            << "), " << link->far_rtt.size() << " rounds collected\n";

  // Step 3: near-side cleanliness and route symmetry.
  tslp::CongestionClassifier classifier;
  const auto phase1 = tslp::slice(*link, date(7, 3, 2016), date(13, 6, 2016));
  const auto report = classifier.classify(phase1);
  std::cout << "step 3: near side clean: " << (report.near_clean ? "yes" : "NO") << "; ";
  {
    auto world2 = analysis::build_scenario(spec);
    world2->topology.net().simulator().advance_to(date(1, 4, 2016));
    world2->apply_timeline_until(date(1, 4, 2016));
    prober::Prober prober(world2->topology.net(), world2->vp_host);
    const auto sym = prober.record_route_symmetric(link->far_ip);
    std::cout << "record-route symmetric: "
              << (sym ? (*sym ? "yes" : "NO") : "undecidable") << "\n";
  }

  // Step 4: waveform.
  std::cout << "step 4: verdict "
            << (report.congested() ? "CONGESTED" : "not congested") << ", A_w "
            << strformat("%.1f ms", report.waveform.a_w_ms) << ", dt_UD "
            << format_duration(report.waveform.dt_ud) << ", weekday/weekend p95 elevation "
            << strformat("%.1f/%.1f ms", report.waveform.weekday_peak_ms,
                         report.waveform.weekend_peak_ms)
            << "\n";

  // Step 5: loss during a congested week.
  {
    auto world3 = analysis::build_scenario(spec);
    world3->topology.net().simulator().advance_to(spec.campaign_start);
    world3->apply_timeline_until(date(4, 4, 2016));
    prober::Prober prober(world3->topology.net(), world3->vp_host, 0.0);
    prober::LossConfig lcfg;
    lcfg.batch_gap = kMinute * 30;
    const auto loss = prober::measure_loss(prober, link->far_ip, date(4, 4, 2016),
                                           date(6, 4, 2016), lcfg);
    std::cout << "step 5: loss over two business days: "
              << strformat("%.1f%%", 100.0 * loss.average_loss()) << " average across "
              << loss.batches.size() << " batches\n";
  }

  // Step 6: the documented cause.
  const auto& cs = analysis::case_ghanatel();
  const auto check = analysis::check_case(cs, report);
  std::cout << "step 6: casebook check " << (check.all() ? "PASS" : "PARTIAL")
            << "\n  cause (operator interview, §6.2.1): " << cs.cause << "\n";
  return 0;
}
