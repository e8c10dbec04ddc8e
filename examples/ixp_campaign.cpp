// Run one of the paper's six vantage-point campaigns end to end, write the
// measurements to a warts-lite capture file, and emit a Markdown congestion
// report.
//
// Usage:  ./build/examples/ixp_campaign [1..6] [days] [out.wlt] [report.md]
//   1..6       which VP (default 1 = GIXA, Ghana)
//   days       campaign length in days (default 60; the paper ran ~400)
//   out.wlt    capture file (default /tmp/ixp_campaign.wlt)
//   report.md  Markdown report (default /tmp/ixp_campaign_report.md)
//
// The example prints the VP's Table-2-style snapshot rows and the
// congestion verdicts, then round-trips the capture file.
#include <fstream>
#include <iostream>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "prober/warts_lite.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace ixp;
  const int vp = argc > 1 ? std::atoi(argv[1]) : 1;
  const int days = argc > 2 ? std::atoi(argv[2]) : 60;
  const std::string path = argc > 3 ? argv[3] : "/tmp/ixp_campaign.wlt";
  auto specs = analysis::make_all_vps();
  if (vp < 1 || vp > static_cast<int>(specs.size())) {
    std::cerr << "usage: ixp_campaign [1..6] [days] [out.wlt]\n";
    return 2;
  }
  const auto& spec = specs[static_cast<std::size_t>(vp - 1)];
  std::cout << "campaign: " << spec.vp_name << " at " << spec.ixp.name << " ("
            << spec.ixp.long_name << ", " << spec.ixp.sub_region << "), AS" << spec.vp_asn
            << ", " << days << " days\n";

  auto world = analysis::build_scenario(spec);
  analysis::CampaignOptions opt;
  opt.round_interval = kMinute * 15;
  opt.duration_override = kDay * days;
  const auto result = analysis::run_campaign(*world, spec, opt);

  std::cout << "\nsnapshots (within the campaign window):\n";
  for (const auto& snap : result.snapshots) {
    std::cout << "  " << analysis::format_date(snap.at) << ": " << snap.discovered_links << " ("
              << snap.peering_links << " peering) links, " << snap.neighbors << " neighbors ("
              << snap.peers << " peers), " << snap.congested_links
              << " congested; bdrmap neighbor recall "
              << strformat("%.1f%%", 100.0 * snap.accuracy.neighbor_recall()) << "\n";
  }

  std::size_t flagged = result.potentially_congested(10.0);
  std::cout << "\nmonitored links: " << result.series.size() << "; potentially congested (10 ms): "
            << flagged << "; with diurnal pattern: " << result.with_diurnal(10.0)
            << "; congested verdicts: " << result.congested() << "\n";
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (!result.reports[i].congested()) continue;
    const auto& w = result.reports[i].waveform;
    std::cout << "  " << result.series[i].key << ": A_w " << strformat("%.1f", w.a_w_ms)
              << " ms, dt_UD " << format_duration(w.dt_ud) << ", "
              << (result.reports[i].persistence == tslp::Persistence::kSustained ? "sustained"
                                                                                 : "transient")
              << "\n";
  }

  // Persist + re-read the capture.
  prober::WartsLiteFile file;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    file.links.push_back(result.decode_link(i));
  }
  {
    std::ofstream out(path, std::ios::binary);
    if (!prober::write_warts_lite(out, file)) {
      std::cerr << "failed to write " << path << "\n";
      return 1;
    }
  }
  std::ifstream in(path, std::ios::binary);
  const auto reread = prober::read_warts_lite(in);
  std::cout << "\ncapture: wrote and re-read " << path << " ("
            << (reread ? reread->links.size() : 0) << " link series)\n";

  // Markdown report (the §6 narrative, generated).
  const std::string report_path = argc > 4 ? argv[4] : "/tmp/ixp_campaign_report.md";
  {
    std::ofstream rep(report_path);
    analysis::ReportOptions ropt;
    ropt.include_link_appendix = true;
    analysis::write_report(rep, spec, result, ropt);
  }
  std::cout << "report: " << report_path << "\n";
  return reread && reread->links.size() == result.series.size() ? 0 : 1;
}
