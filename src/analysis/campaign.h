// End-to-end campaign driver for one vantage point.
//
// Reproduces the paper's measurement workflow (§4-§5):
//   1. harvest public data, run bdrmap-lite, derive the monitored link set;
//   2. probe both ends of every monitored link every 5 minutes with TSLP,
//      applying the world timeline (joins, departures, shut-offs, upgrades)
//      as simulated time advances, re-running bdrmap after membership
//      changes so newly-appeared links join the monitored set; samples
//      stream into the columnar store (series/columnar.h) and the online
//      level-shift detectors (tslp/online.h) as segments complete;
//   3. at each Table 2 snapshot date, record discovered/peering/neighbor/
//      peer counts plus the congestion status of the current links;
//   4. classify every monitored link's full series (level shifts at the
//      5 ms floor, diurnal pattern, near-side cleanliness) for Table 1.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "bdrmap/bdrmap.h"
#include "obs/metrics.h"
#include "prober/tslp_driver.h"
#include "series/columnar.h"
#include "tslp/classifier.h"

namespace ixp::analysis {

/// Canonical metric names the campaign driver publishes (obs/metrics.h
/// naming convention).  Consumers -- the fleet metrics table, the chaos
/// report, tests -- read these instead of carrying parallel counters.
namespace metric {
inline constexpr char kRounds[] = "afixp_campaign_rounds_total";
inline constexpr char kProbesSent[] = "afixp_campaign_probes_sent_total";
inline constexpr char kProbesLost[] = "afixp_campaign_probes_lost_total";
inline constexpr char kBdrmapRuns[] = "afixp_campaign_bdrmap_runs_total";
inline constexpr char kMonitoredLinks[] = "afixp_campaign_monitored_links";
inline constexpr char kRecordRoutes[] = "afixp_campaign_record_routes_total";
inline constexpr char kRecordRoutesSymmetric[] =
    "afixp_campaign_record_routes_symmetric_total";
inline constexpr char kRelearns[] = "afixp_tslp_relearns_total";  ///< cause="stale"|"loss"
inline constexpr char kFaultEvents[] = "afixp_faults_events_total";
inline constexpr char kProbesSuppressed[] = "afixp_faults_probes_suppressed_total";
inline constexpr char kOutageRounds[] = "afixp_faults_outage_rounds_total";
inline constexpr char kSimEventsExecuted[] = "afixp_sim_events_executed_total";
inline constexpr char kSimEventsScheduled[] = "afixp_sim_events_scheduled_total";
inline constexpr char kQueueHeadroomSkips[] = "afixp_queue_headroom_skips_total";
inline constexpr char kQueueIntegrationSteps[] = "afixp_queue_integration_steps_total";
inline constexpr char kQueueTailDrops[] = "afixp_queue_tail_drops_total";
inline constexpr char kNetForwarded[] = "afixp_net_packets_forwarded_total";
inline constexpr char kNetDropped[] = "afixp_net_packets_dropped_total";
inline constexpr char kNetIcmp[] = "afixp_net_icmp_generated_total";
inline constexpr char kNetHops[] = "afixp_net_hops_walked_total";
inline constexpr char kDetectorEpisodes[] = "afixp_detector_episodes_total";
inline constexpr char kDetectorRawEpisodes[] = "afixp_detector_raw_episodes_total";
inline constexpr char kDetectorRefused[] =
    "afixp_detector_refused_low_coverage_total";
inline constexpr char kDetectorWindowsScanned[] =
    "afixp_detector_windows_scanned_total";
inline constexpr char kDetectorWindowsSkipped[] =
    "afixp_detector_windows_skipped_total";
inline constexpr char kFarRttMs[] = "afixp_tslp_far_rtt_ms";
inline constexpr char kSegmentSpan[] = "afixp_campaign_segment_simtime";
inline constexpr char kWindowSpan[] = "afixp_campaign_window_simtime";
// Columnar series storage (series/columnar.h).
inline constexpr char kSeriesResidentBytes[] = "afixp_series_resident_bytes";
inline constexpr char kSeriesRawBytes[] = "afixp_series_raw_bytes";
inline constexpr char kSeriesSamples[] = "afixp_series_samples_total";
}  // namespace metric

/// Progress of a running campaign, reported at segment boundaries
/// (membership changes, Table 2 snapshots) and once with finished=true.
/// Counts no longer travel in this struct: the campaign publishes them to
/// CampaignOptions::metrics *before* each callback, so observers read the
/// registry (see the metric:: names above) for everything quantitative.
struct CampaignProgress {
  TimePoint at{};        ///< simulated time reached
  bool finished = false;
};

/// One monitored link's live far-side detection state, delivered through
/// CampaignOptions::on_verdicts while a campaign is still running.  `far`
/// holds the level shifts over the series-so-far: the online detector has
/// already scanned every completed window, so producing it at a boundary
/// only replays the cheap assembly tail (tslp/online.h's always-on
/// observatory mode).  Full LinkReports -- diurnal pattern, near-side
/// cleanliness, the final verdict -- still come from the end-of-campaign
/// classification; a live verdict is the evidence available mid-flight.
struct LiveLinkVerdict {
  std::string key;            ///< MonitorTarget key (stable across segments)
  std::uint32_t far_asn = 0;
  bool at_ixp = false;
  std::size_t samples = 0;    ///< rounds accumulated so far (incl. gap padding)
  tslp::LevelShiftResult far; ///< level shifts over the series so far
};

/// Everything on_verdicts sees at one segment boundary: which campaign
/// produced it, the simulated time reached, and one entry per monitored
/// link in monitored-set order.  The VP/IXP identity rides along because a
/// fleet shares one on_verdicts callback across every campaign it runs.
struct LiveVerdictBatch {
  std::string vp_name;
  std::string ixp;      ///< IXP name from the spec
  TimePoint at{};
  std::vector<LiveLinkVerdict> links;
};

struct CampaignOptions {
  Duration round_interval = kMinute * 5;
  /// Override of the campaign window (0 = use the spec's window).  Benches
  /// shorten this to keep run times reasonable; EXPERIMENTS.md records the
  /// durations used.
  Duration duration_override = Duration(0);
  tslp::ClassifierOptions classifier;
  bool verbose = false;
  /// Destination registry for the campaign's metrics (not owned; may be
  /// null to disable all recording).  The campaign is the only writer for
  /// the duration of the run; counters mirrored from component stats use
  /// Counter::set(), so values are consistent at every progress callback.
  obs::Registry* metrics = nullptr;
  /// Invoked on the campaign's own thread at every segment boundary and
  /// once with finished=true, after the registry has been refreshed.  The
  /// fleet driver (fleet.h) hooks this to render live per-VP status; must
  /// not touch the runtime.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Live-verdict observer for the serving layer (docs/SERVING.md):
  /// invoked on the campaign's own thread at every segment boundary with
  /// the level shifts detected so far on every monitored link (the online
  /// detectors have already scanned every completed window).  Like
  /// on_progress, the callback must not touch the runtime -- hand the
  /// batch off and return.
  std::function<void(const LiveVerdictBatch&)> on_verdicts;
  /// Optional fault injector (not owned; keep it alive for the run).
  /// Obtain one from attach_fault_plan() so the timeline faults and the
  /// probe-level gates come from the same expanded plan.
  sim::FaultInjector* faults = nullptr;
};

struct SnapshotResult {
  TimePoint at;
  std::size_t discovered_links = 0;
  std::size_t peering_links = 0;
  std::size_t neighbors = 0;
  std::size_t peers = 0;
  std::size_t congested_links = 0;  ///< kCongested verdicts among live links
  bdrmap::BdrmapScore accuracy;     ///< vs ground truth at the snapshot
  /// §5.1 cross-check: fraction of inferred peering links whose far end
  /// geolocates to the IXP's city (geo DB + rDNS hints agreeing or weakly
  /// agreeing).
  double location_consistent = 0.0;
};

struct VpCampaignResult {
  std::string vp_name;
  std::vector<SnapshotResult> snapshots;
  /// One per monitored link: metadata and responder_changes, with empty
  /// sample vectors.  The samples live in `columns`; decode_link(i)
  /// returns link i whole.
  std::vector<tslp::LinkSeries> series;
  std::vector<tslp::LinkReport> reports;  ///< classification of each series
  /// Encoded near/far columns of every monitored link.
  std::shared_ptr<series::SeriesStore> columns;
  std::uint64_t probes_sent = 0;          ///< Table 2's "total # traceroutes" role
  std::uint64_t probes_lost = 0;          ///< round probes sent but unanswered
  std::uint64_t record_routes = 0;        ///< Table 2's "total # record routes"
  std::uint64_t record_routes_symmetric = 0;
  std::uint64_t rounds_completed = 0;     ///< TSLP rounds over the whole campaign
  std::uint64_t bdrmap_runs = 0;          ///< initial discovery + membership re-runs
  // Fault/retry accounting (all zero when no fault plan is attached).
  std::uint64_t fault_events = 0;         ///< topology fault events that fired
  std::uint64_t probes_suppressed = 0;    ///< probes not sent (outages/bursts)
  std::uint64_t outage_rounds = 0;        ///< whole rounds lost to VP outages
  std::uint64_t stale_relearns = 0;       ///< responder-change re-learns
  std::uint64_t loss_relearns = 0;        ///< consecutive-loss re-learns

  /// Links with any level-shift episode of magnitude >= threshold_ms.
  [[nodiscard]] std::size_t potentially_congested(double threshold_ms) const;
  /// Of those, links whose far side also shows a recurring diurnal pattern.
  [[nodiscard]] std::size_t with_diurnal(double threshold_ms) const;
  /// Link `i` decoded from `columns`, with its metadata and
  /// responder_changes.
  [[nodiscard]] tslp::LinkSeries decode_link(std::size_t i) const;
  /// Links classified congested (diurnal far side, clean near side).
  [[nodiscard]] std::size_t congested() const;
};

/// Runs the full campaign for one VP scenario.
VpCampaignResult run_campaign(ScenarioRuntime& rt, const VpSpec& spec,
                              const CampaignOptions& opt = {});

}  // namespace ixp::analysis
