// Quickstart: build a small simulated IXP, discover its links with
// bdrmap-lite, probe them with TSLP for two weeks, and classify congestion.
//
// This is the library's whole pipeline in ~100 lines:
//   scenario -> topology+routing -> bdrmap -> TSLP probing -> level-shift
//   detection -> congestion verdicts.
//
// Build & run:   ./build/examples/quickstart
#include <iostream>

#include "analysis/campaign.h"
#include "analysis/scenario.h"
#include "util/ascii_chart.h"
#include "util/strings.h"

int main() {
  using namespace ixp;

  // ---- 1. Describe a world ------------------------------------------------
  // One IXP ("DEMOX"), a vantage point inside the exchange's own network,
  // three members -- one of them with an under-provisioned 100 Mb/s port
  // that saturates every afternoon.
  analysis::VpSpec spec;
  spec.vp_name = "DEMO";
  spec.ixp.name = "DEMOX";
  spec.ixp.country = "GH";
  spec.ixp.city = "Accra";
  spec.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  spec.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  spec.vp_asn = 64500;
  spec.vp_as_name = "DEMO-IX";
  spec.vp_org = "ORG-DEMO";
  spec.country = "GH";
  spec.campaign_start = TimePoint{};
  spec.campaign_end = TimePoint(kDay * 14);

  analysis::NeighborSpec hot;
  hot.name = "HOTSPOT";
  hot.asn = 64501;
  hot.country = "GH";
  hot.port_capacity_bps = 100e6;
  analysis::CongestionSpec c;
  c.a_w_ms = 18.0;           // router buffer = 18 ms at line rate
  c.dt_ud = kHour * 5;       // saturated ~5 h around the peak
  c.peak_hour = 15.0;
  c.overload = 1.15;         // peak demand 15 % over capacity
  c.begin = TimePoint{};
  c.end = analysis::kForever;
  hot.congestion = {c};
  spec.neighbors.push_back(hot);
  for (int i = 0; i < 2; ++i) {
    analysis::NeighborSpec ok;
    ok.name = "CLEAN" + std::to_string(i);
    ok.asn = 64502 + static_cast<topo::Asn>(i);
    ok.country = "GH";
    spec.neighbors.push_back(ok);
  }

  // ---- 2. Build it and run the measurement campaign -----------------------
  auto world = analysis::build_scenario(spec);
  std::cout << "world: " << world->topology.net().node_count() << " nodes, "
            << world->topology.net().link_count() << " links\n";

  analysis::CampaignOptions opt;
  opt.round_interval = kMinute * 5;  // the paper's cadence
  const auto result = analysis::run_campaign(*world, spec, opt);
  std::cout << "bdrmap discovered " << result.series.size() << " interdomain links; "
            << result.probes_sent << " probes sent over 14 simulated days\n\n";

  // ---- 3. Inspect the verdicts --------------------------------------------
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto& link = result.series[i];
    const auto& report = result.reports[i];
    const char* verdict = "clean";
    if (report.verdict == tslp::Verdict::kCongested) verdict = "CONGESTED";
    if (report.verdict == tslp::Verdict::kPotentiallyCongested) verdict = "level shifts (no diurnal pattern)";
    if (report.verdict == tslp::Verdict::kInconclusive) verdict = "inconclusive";
    std::cout << link.key << "  ->  " << verdict;
    if (report.congested()) {
      std::cout << "  A_w=" << strformat("%.1f", report.waveform.a_w_ms)
                << "ms  dt_UD=" << format_duration(report.waveform.dt_ud);
    }
    std::cout << "\n";
  }

  // ---- 4. Plot the congested link -----------------------------------------
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    if (!result.reports[i].congested()) continue;
    const auto link = result.decode_link(i);
    AsciiChartOptions chart;
    chart.y_label = "RTT [ms] (two weeks, " + link.key + ")";
    std::cout << "\n"
              << render_ascii_chart({{"far", '*', link.far_rtt.ms}, {"near", '.', link.near_rtt.ms}},
                                    chart);
  }
  return 0;
}
