// Shared plumbing for the table/figure benches.
//
// Every bench prints (a) the paper's reported values, (b) what this
// reproduction measures, and (c) the raw series as CSV so the figures can
// be re-plotted.  Campaign durations and cadences are configurable through
// environment variables so the full-fidelity run stays available:
//   IXP_ROUND_MINUTES  probing cadence (default 30; the paper used 5)
//   IXP_FAST=1         shorten campaigns (smoke-test mode)
//   IXP_JOBS=N         parallel campaigns for the fleet-based table benches
//                      (default: hardware concurrency, clamped to VP count)
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/fleet.h"
#include "analysis/tables.h"
#include "tslp/series.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/strings.h"

namespace ixp::bench {

inline Duration round_interval_from_env() {
  double minutes = env::double_value("IXP_ROUND_MINUTES").value_or(30);
  if (minutes <= 0) minutes = 30;
  return Duration(static_cast<std::int64_t>(minutes * 60e9));
}

inline bool fast_mode() { return env::flag("IXP_FAST"); }

/// Runs one VP's campaign with bench-standard options.  Case-study benches
/// pass `round_override` to probe at a finer cadence than the table
/// campaigns (short congestion events quantize badly at coarse rounds).
inline analysis::VpCampaignResult run_vp(const analysis::VpSpec& spec,
                                         Duration duration_override = Duration(0),
                                         Duration round_override = Duration(0)) {
  auto rt = analysis::build_scenario(spec);
  analysis::CampaignOptions opt;
  opt.round_interval =
      round_override.count() > 0 ? round_override : round_interval_from_env();
  opt.duration_override = duration_override;
  if (fast_mode() && duration_override.count() == 0) {
    opt.duration_override = kDay * 42;
  }
  return analysis::run_campaign(*rt, spec, opt);
}

/// Runs a whole VP fleet in parallel with bench-standard options (cadence
/// and duration from the environment, IXP_JOBS-many workers).  Live status
/// and the metrics table render on stderr; stdout stays byte-identical to
/// a serial run, so bench output can still be diffed.
inline analysis::FleetResult run_fleet_vps(const std::vector<analysis::VpSpec>& specs) {
  analysis::FleetOptions opt;
  opt.campaign.round_interval = round_interval_from_env();
  if (fast_mode()) opt.campaign.duration_override = kDay * 42;
  analysis::FleetStatusPrinter status(std::cerr, specs);
  opt.on_progress = [&status](const analysis::CampaignMetrics& m) { status(m); };
  auto fleet = analysis::run_fleet(specs, opt);
  status.finish();
  analysis::print_fleet_metrics(std::cerr, fleet);
  return fleet;
}

/// First link whose far AS matches (and, optionally, whose IXP flag),
/// decoded.
inline std::optional<tslp::LinkSeries> find_series(const analysis::VpCampaignResult& r,
                                                   topo::Asn far_asn, int want_at_ixp = -1) {
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const auto& s = r.series[i];
    if (s.far_asn != far_asn) continue;
    if (want_at_ixp >= 0 && s.at_ixp != (want_at_ixp != 0)) continue;
    return r.decode_link(i);
  }
  return std::nullopt;
}

/// Renders a near/far RTT figure: ASCII to stdout plus CSV rows.
inline void print_rtt_figure(const std::string& title, const tslp::LinkSeries& link,
                             int max_csv_rows = 4000) {
  std::cout << "\n--- " << title << " ---\n";
  AsciiSeries far{"far RTT (ms)", '*', link.far_rtt.ms};
  AsciiSeries near{"near RTT (ms)", '.', link.near_rtt.ms};
  AsciiChartOptions opt;
  opt.y_label = "RTT [ms]";
  opt.x_label = strformat("time (%s total, one column ~ %s)",
                          format_duration(link.far_rtt.interval *
                                          static_cast<std::int64_t>(link.far_rtt.ms.size()))
                              .c_str(),
                          format_duration(link.far_rtt.interval *
                                          std::max<std::int64_t>(
                                              1, static_cast<std::int64_t>(link.far_rtt.ms.size()) /
                                                     opt.width))
                              .c_str());
  std::cout << render_ascii_chart({far, near}, opt);

  std::cout << "CSV (day,hour,near_ms,far_ms) -- decimated to <= " << max_csv_rows << " rows\n";
  CsvWriter csv(std::cout);
  csv.header({"day", "hour", "near_ms", "far_ms"});
  const std::size_t n = link.far_rtt.ms.size();
  const std::size_t step = std::max<std::size_t>(1, n / static_cast<std::size_t>(max_csv_rows));
  for (std::size_t i = 0; i < n; i += step) {
    const CalendarTime c = to_calendar(link.far_rtt.time_of(i));
    csv.row()
        .cell(static_cast<std::int64_t>(c.day))
        .cell(c.hour_of_day)
        .cell(i < link.near_rtt.ms.size() ? link.near_rtt.ms[i] : tslp::kMissing)
        .cell(link.far_rtt.ms[i]);
  }
  csv.end_row();
}

/// Prints a paper-vs-measured comparison line.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  std::cout << strformat("  %-28s paper: %8.2f %-4s   measured: %8.2f %-4s\n", what.c_str(), paper,
                         unit.c_str(), measured, unit.c_str());
}

}  // namespace ixp::bench
