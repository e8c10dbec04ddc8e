#include "analysis/report.h"

#include <ostream>
#include <sstream>

#include "analysis/casebook.h"
#include "analysis/tables.h"
#include "util/ascii_chart.h"
#include "util/strings.h"

namespace ixp::analysis {
namespace {

const char* verdict_name(tslp::Verdict v) {
  switch (v) {
    case tslp::Verdict::kNotCongested: return "not congested";
    case tslp::Verdict::kPotentiallyCongested: return "level shifts, no diurnal pattern";
    case tslp::Verdict::kInconclusive: return "inconclusive (near side unclear)";
    case tslp::Verdict::kCongested: return "congested";
  }
  return "?";
}

const char* persistence_name(tslp::Persistence p) {
  switch (p) {
    case tslp::Persistence::kNone: return "-";
    case tslp::Persistence::kTransient: return "transient";
    case tslp::Persistence::kSustained: return "sustained";
  }
  return "?";
}

const CaseStudy* matching_case(const VpSpec& spec, const tslp::LinkSeries& link) {
  for (const auto& cs : casebook()) {
    if (cs.vp != spec.vp_name) continue;
    // Match on the far AS named in the case id (GHANATEL=29614, KNET=33786,
    // NETPAGE is synthetic): use the key suffix.
    if (cs.id == "GIXA-GHANATEL" && link.far_asn == 29614) return &cs;
    if (cs.id == "GIXA-KNET" && link.far_asn == 33786) return &cs;
    if (cs.id == "QCELL-NETPAGE" && link.far_asn == 65400) return &cs;
  }
  return nullptr;
}

}  // namespace

void write_report(std::ostream& out, const VpSpec& spec, const VpCampaignResult& result,
                  const ReportOptions& opts) {
  out << "# Congestion report: " << spec.vp_name << " at " << spec.ixp.name << "\n\n";
  out << "- Exchange: " << spec.ixp.long_name << " (" << spec.ixp.city << ", "
      << spec.ixp.sub_region << ", launched " << spec.ixp.launch_year << ")\n";
  out << "- Vantage point: AS" << spec.vp_asn << " (" << spec.vp_as_name << "), "
      << (spec.vp_is_ixp_network ? "inside the exchange's own network"
                                 : "hosted by a member network")
      << "\n";
  out << "- Monitored links: " << result.series.size() << "; probes sent: " << result.probes_sent
      << "\n\n";

  if (!result.snapshots.empty()) {
    out << "## Snapshot evolution\n\n";
    out << "| date | links (peering) | congested | neighbors (peers) | bdrmap recall |\n";
    out << "|---|---|---|---|---|\n";
    for (const auto& s : result.snapshots) {
      out << "| " << format_date(s.at) << " | " << s.discovered_links << " (" << s.peering_links
          << ") | " << s.congested_links << " | " << s.neighbors << " (" << s.peers << ") | "
          << strformat("%.1f%%", 100.0 * s.accuracy.neighbor_recall()) << " |\n";
    }
    out << "\n";
  }

  out << "## Threshold sensitivity\n\n";
  out << "| threshold | potentially congested | with diurnal pattern |\n|---|---|---|\n";
  for (const double t : kTable1Thresholds) {
    out << "| " << strformat("%.0f ms", t) << " | " << result.potentially_congested(t) << " | "
        << result.with_diurnal(t) << " |\n";
  }
  out << "\n";

  out << "## Findings\n\n";
  bool any = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const auto& rep = result.reports[i];
    if (rep.verdict == tslp::Verdict::kNotCongested) continue;
    any = true;
    const auto& link = result.series[i];
    out << "### " << link.key << (link.at_ixp ? " (at the exchange)" : " (private interconnect)")
        << "\n\n";
    out << "- Verdict: **" << verdict_name(rep.verdict) << "**";
    if (rep.verdict == tslp::Verdict::kCongested || rep.verdict == tslp::Verdict::kInconclusive) {
      out << ", " << persistence_name(rep.persistence);
    }
    out << "\n";
    if (rep.far_shifts.any()) {
      std::size_t significant = 0;
      for (const auto& e : rep.far_shifts.episodes) significant += e.significant() ? 1 : 0;
      out << "- Episodes: " << rep.far_shifts.episodes.size() << " (" << significant
          << " significant at alpha = 0.01); A_w "
          << strformat("%.1f ms", rep.waveform.a_w_ms) << "; dt_UD "
          << format_duration(rep.waveform.dt_ud);
      if (rep.waveform.period.count() > 0) {
        out << "; periodicity " << format_duration(rep.waveform.period);
      }
      out << "\n";
      out << "- Weekday vs weekend p95 elevation: "
          << strformat("%.1f / %.1f ms", rep.waveform.weekday_peak_ms,
                       rep.waveform.weekend_peak_ms)
          << "; near side " << (rep.near_clean ? "clean" : "NOT clean") << "\n";
    }
    if (const CaseStudy* cs = matching_case(spec, link)) {
      const auto check = check_case(*cs, rep);
      out << "- Casebook: " << cs->id << " -- " << (check.all() ? "matches" : "partially matches")
          << " the documented account\n";
      out << "- Documented cause: " << cs->cause << "\n";
    }
    if (opts.include_waveforms && rep.congested()) {
      AsciiChartOptions chart;
      chart.width = 100;
      chart.height = 12;
      const tslp::LinkSeries decoded = result.decode_link(i);
      out << "\n```\n"
          << render_ascii_chart(
                 {{"far", '*', decoded.far_rtt.ms}, {"near", '.', decoded.near_rtt.ms}}, chart)
          << "```\n";
    }
    out << "\n";
  }
  if (!any) out << "No congestion was detected on any monitored link.\n\n";

  if (opts.include_link_appendix) {
    out << "## Appendix: all monitored links\n\n";
    out << "| link | at IXP | loss | verdict |\n|---|---|---|---|\n";
    for (std::size_t i = 0; i < result.series.size(); ++i) {
      const auto& link = result.series[i];
      out << "| " << link.key << " | " << (link.at_ixp ? "yes" : "no") << " | "
          << strformat("%.1f%%", 100.0 * result.decode_link(i).far_rtt.loss_fraction()) << " | "
          << verdict_name(result.reports[i].verdict) << " |\n";
    }
    out << "\n";
  }
}

std::string report_to_string(const VpSpec& spec, const VpCampaignResult& result,
                             const ReportOptions& opts) {
  std::ostringstream out;
  write_report(out, spec, result, opts);
  return out.str();
}

void write_combined_report(std::ostream& out,
                           const std::vector<std::pair<VpSpec, const VpCampaignResult*>>& vps,
                           const ReportOptions& opts) {
  out << "# Congestion on the IXP substrate: combined study report\n\n";

  // The 6.1 aggregate.
  std::size_t total_links = 0, peering_links = 0, congested = 0, flagged = 0;
  std::uint64_t probes = 0, rr = 0;
  for (const auto& [spec, result] : vps) {
    (void)spec;
    total_links += result->series.size();
    for (std::size_t i = 0; i < result->series.size(); ++i) {
      if (result->series[i].at_ixp) ++peering_links;
      if (result->reports[i].congested()) ++congested;
    }
    flagged += result->potentially_congested(10.0);
    probes += result->probes_sent;
    rr += result->record_routes;
  }
  out << "- Vantage points: " << vps.size() << "; monitored interdomain links: " << total_links
      << " (" << peering_links << " at exchanges)\n";
  out << "- Probes sent: " << probes << "; record-route measurements: " << rr << "\n";
  out << "- Links flagged at the 10 ms threshold: " << flagged << "; congested (recurring "
      << "diurnal pattern over a clean near side): " << congested;
  if (peering_links > 0) {
    out << strformat(" -- %.1f%% of monitored peering links", 100.0 * congested / peering_links);
  }
  out << "\n\n";

  out << "## Per vantage point\n\n";
  out << "| VP | exchange | links (peering) | flagged @10ms | congested | record routes |\n";
  out << "|---|---|---|---|---|---|\n";
  for (const auto& [spec, result] : vps) {
    std::size_t vp_peering = 0, vp_congested = 0;
    for (std::size_t i = 0; i < result->series.size(); ++i) {
      if (result->series[i].at_ixp) ++vp_peering;
      if (result->reports[i].congested()) ++vp_congested;
    }
    out << "| " << spec.vp_name << " | " << spec.ixp.name << " (" << spec.ixp.sub_region
        << ") | " << result->series.size() << " (" << vp_peering << ") | "
        << result->potentially_congested(10.0) << " | " << vp_congested << " | "
        << result->record_routes << " |\n";
  }
  out << "\n## Findings\n\n";
  for (const auto& [spec, result] : vps) {
    for (std::size_t i = 0; i < result->reports.size(); ++i) {
      const auto& rep = result->reports[i];
      if (!rep.congested()) continue;
      const auto& link = result->series[i];
      out << "- **" << spec.vp_name << " / " << link.key << "**: A_w "
          << strformat("%.1f ms", rep.waveform.a_w_ms) << ", dt_UD "
          << format_duration(rep.waveform.dt_ud) << ", "
          << persistence_name(rep.persistence);
      if (const CaseStudy* cs = matching_case(spec, link)) {
        out << " -- documented cause: " << cs->cause;
      }
      out << "\n";
    }
  }

  out << "\n## Implications (following the paper's 7)\n\n";
  out << "- Congestion touched only a small fraction of the monitored links; the substrate "
         "is not systematically congested, but the cases that do occur sit on links used to "
         "reach content (cache transit and cache-serving ports).\n";
  out << "- ISPs should monitor the provisioning of their peering links: the one demand-driven "
         "case was resolved by a port upgrade within two months, while the disputed transit "
         "case persisted until the link was withdrawn.\n";
  out << "- TSLP detects these events without operator cooperation, but attributing *causes* "
         "required the per-case context recorded in the casebook -- exactly the paper's "
         "conclusion about needing operator collaboration.\n";
  (void)opts;
}

}  // namespace ixp::analysis
