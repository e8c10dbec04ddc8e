#include "analysis/campaign.h"

#include <algorithm>
#include <set>

#include "geo/dns_lite.h"
#include "sim/faults.h"
#include "registry/registry.h"
#include "tslp/engine.h"
#include "tslp/online.h"
#include "util/strings.h"
#include "util/log.h"

namespace ixp::analysis {
namespace {

// Derives monitored targets from a bdrmap result.
std::vector<prober::MonitorTarget> to_targets(const bdrmap::BdrmapResult& borders, Asn vp_asn) {
  std::vector<prober::MonitorTarget> out;
  out.reserve(borders.links.size());
  for (const auto& l : borders.links) {
    prober::MonitorTarget t;
    t.key = strformat("AS%u-AS%u-%s", vp_asn, l.far_asn, l.far_ip.to_string().c_str());
    t.near_ip = l.near_ip;
    t.far_ip = l.far_ip;
    t.near_asn = vp_asn;
    t.far_asn = l.far_asn;
    t.at_ixp = l.at_ixp;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::size_t VpCampaignResult::potentially_congested(double threshold_ms) const {
  std::size_t n = 0;
  for (const auto& r : reports) {
    const bool hit = std::any_of(r.far_shifts.episodes.begin(), r.far_shifts.episodes.end(),
                                 [&](const tslp::Episode& e) { return e.magnitude_ms >= threshold_ms; });
    n += hit ? 1 : 0;
  }
  return n;
}

std::size_t VpCampaignResult::with_diurnal(double threshold_ms) const {
  std::size_t n = 0;
  for (const auto& r : reports) {
    if (!r.has_diurnal_pattern()) continue;
    const bool hit = std::any_of(r.far_shifts.episodes.begin(), r.far_shifts.episodes.end(),
                                 [&](const tslp::Episode& e) { return e.magnitude_ms >= threshold_ms; });
    n += hit ? 1 : 0;
  }
  return n;
}

tslp::LinkSeries VpCampaignResult::decode_link(std::size_t i) const {
  tslp::LinkSeries ls = columns->decode(i);
  ls.responder_changes = series[i].responder_changes;
  return ls;
}

std::size_t VpCampaignResult::congested() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.congested() ? 1 : 0;
  return n;
}

VpCampaignResult run_campaign(ScenarioRuntime& rt, const VpSpec& spec, const CampaignOptions& opt) {
  VpCampaignResult result;
  result.vp_name = spec.vp_name;

  const TimePoint start = spec.campaign_start;
  const TimePoint end = opt.duration_override.count() > 0
                            ? start + opt.duration_override
                            : spec.campaign_end;

  prober::Prober prober(rt.topology.net(), rt.vp_host, 100.0);
  sim::Simulator& simulator = rt.topology.net().simulator();
  simulator.advance_to(start);
  rt.apply_timeline_until(start);

  // Covers the whole campaign window in simulated time; records on scope
  // exit, so the span lands in the registry before the caller reads it.  A
  // null registry disarms the scope entirely.
  obs::ScopedSpan window_span(
      opt.metrics != nullptr ? opt.metrics->span(metric::kWindowSpan) : nullptr,
      [&simulator] { return simulator.now(); });

  // ---- Discovery: initial bdrmap run --------------------------------------
  auto run_bdrmap = [&]() {
    ++result.bdrmap_runs;
    const auto data = registry::harvest(rt.topology, *rt.bgp, rt.vp_asn, rt.collectors);
    bdrmap::Bdrmap mapper(prober, data, rt.vp_asn);
    return mapper.run();
  };
  bdrmap::BdrmapResult borders = run_bdrmap();

  std::vector<prober::MonitorTarget> targets = to_targets(borders, rt.vp_asn);
  const std::int64_t iv = opt.round_interval.count();
  // Samples stream into the columnar store as segments complete; snapshots
  // and the final classification decode one link at a time, so RSS stays
  // bounded by the encoded size plus a single decoded series.
  auto store = std::make_shared<series::SeriesStore>(start, opt.round_interval);

  // Final classification runs at the 5 ms floor (threshold sweeps re-filter
  // episodes by magnitude afterwards); computed up front because the online
  // detectors must scan windows with the same options finalize will use.
  tslp::ClassifierOptions final_opts = opt.classifier;
  final_opts.level_shift.threshold_ms = std::min(final_opts.level_shift.threshold_ms, 5.0);
  tslp::LevelShiftOptions online_near_opts = final_opts.level_shift;
  online_near_opts.threshold_ms = final_opts.near_threshold_ms;
  // One OnlineLevelShift pair per monitored link consumes each segment's
  // samples as rounds complete, so the expensive rank-CUSUM window scans
  // are already done when the campaign ends.
  std::vector<tslp::OnlineLevelShift> online_near, online_far;

  // Responder-identity change rounds per link, accumulated across segments
  // in campaign-global round indices (the driver reports segment-relative
  // ones).  Feeds the reroute-vs-congestion cross-check after final
  // classification.
  std::vector<std::vector<std::size_t>> responder_rounds;

  // Registers a monitored link with the store and both detectors.  A link
  // discovered mid-campaign joins with its past padded as one missing run
  // (a leading gap token in the store).
  auto add_link = [&](const prober::MonitorTarget& t, std::uint64_t lead_missing) {
    store->add_link(series::LinkMeta{t.key, t.near_ip, t.far_ip, t.near_asn, t.far_asn, t.at_ixp},
                    lead_missing);
    online_near.emplace_back(online_near_opts, start, opt.round_interval);
    online_far.emplace_back(final_opts.level_shift, start, opt.round_interval);
    if (lead_missing > 0) {
      const std::vector<double> pad(lead_missing, tslp::kMissing);
      online_near.back().push(pad);
      online_far.back().push(pad);
    }
    responder_rounds.emplace_back();
  };

  std::set<net::Ipv4Address> known_far;
  for (const auto& t : targets) {
    known_far.insert(t.far_ip);
    add_link(t, 0);
  }

  // ---- Segment boundaries: membership changes and snapshots ---------------
  std::vector<TimePoint> boundaries;
  for (const auto& ev : rt.timeline) {
    if (ev.membership && ev.at > start && ev.at < end) boundaries.push_back(ev.at);
  }
  for (const auto& s : spec.snapshot_dates) {
    if (s > start && s < end) boundaries.push_back(s);
  }
  boundaries.push_back(end);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  const std::set<TimePoint> snapshot_set(spec.snapshot_dates.begin(), spec.snapshot_dates.end());

  tslp::CongestionClassifier classifier(opt.classifier);

  // §5.1 location cross-check inputs (built once; the address plan and the
  // PTR zone are static over the campaign).
  const geo::GeoDatabase geo_db = geo::build_geo_database(rt.topology);
  const geo::DnsLite dns(rt.topology);

  auto record_snapshot = [&](TimePoint at, const bdrmap::BdrmapResult& b) {
    SnapshotResult snap;
    snap.at = at;
    snap.discovered_links = b.link_count();
    snap.peering_links = b.peering_link_count();
    snap.neighbors = b.neighbors.size();
    snap.peers = b.peers.size();
    snap.accuracy = bdrmap::score(b, rt.topology.interdomain_links_of(rt.vp_asn));
    // Congestion status of currently-live links, judged on the trailing
    // 60 days of their series (links congested long ago but mitigated are
    // no longer counted; see EXPERIMENTS.md on Table 2 semantics).
    std::set<net::Ipv4Address> live;
    for (const auto& l : b.links) live.insert(l.far_ip);
    const std::size_t min_samples =
        static_cast<std::size_t>((kDay * 2).count() / opt.round_interval.count());
    const std::size_t window_samples =
        static_cast<std::size_t>((kDay * 60).count() / opt.round_interval.count());
    const std::size_t now = static_cast<std::size_t>((at - start).count() / iv);
    for (std::size_t li = 0; li < store->size(); ++li) {
      if (!live.count(store->meta(li).far_ip)) continue;
      const std::size_t n = std::min<std::size_t>(now, store->samples(li));
      if (n < min_samples) continue;  // not enough data to judge
      const std::size_t begin = n > window_samples ? n - window_samples : 0;
      // Decoded one link at a time, so the snapshot's working set stays a
      // single series regardless of fleet scale.
      tslp::LinkSeries window = store->decode(li);
      for (tslp::RttSeries* side : {&window.near_rtt, &window.far_rtt}) {
        side->ms.resize(n);
        side->ms.erase(side->ms.begin(), side->ms.begin() + static_cast<std::ptrdiff_t>(begin));
        side->start = start + Duration(static_cast<std::int64_t>(begin) * iv);
      }
      const auto rep = classifier.classify(window);
      if (rep.congested()) ++snap.congested_links;
    }
    // Location cross-check over the inferred peering links.
    std::size_t checked = 0, consistent = 0;
    for (const auto& l : b.links) {
      if (!l.at_ixp) continue;
      const auto* ixp = rt.topology.find_ixp(l.ixp_name);
      if (!ixp) continue;
      ++checked;
      const auto verdict = geo::check_end_location(geo_db, dns, l.far_ip, *ixp);
      if (verdict == geo::LocationVerdict::kConfirmed || verdict == geo::LocationVerdict::kWeak) {
        ++consistent;
      }
    }
    snap.location_consistent = checked ? static_cast<double>(consistent) / checked : 1.0;
    result.snapshots.push_back(std::move(snap));
  };

  // Mirrors the running totals into the registry.  Everything here is a
  // set(), not an add(): the sources (prober, driver accumulators, fault
  // counters) are themselves monotone, so re-publishing at every boundary
  // is idempotent and observers see consistent values mid-run.
  auto publish = [&] {
    obs::Registry* reg = opt.metrics;
    if (reg == nullptr) return;
    reg->counter(metric::kRounds)->set(result.rounds_completed);
    reg->counter(metric::kProbesSent)->set(prober.probes_sent());
    reg->counter(metric::kProbesLost)->set(result.probes_lost);
    reg->counter(metric::kBdrmapRuns)->set(result.bdrmap_runs);
    reg->gauge(metric::kMonitoredLinks)->set(static_cast<double>(targets.size()));
    reg->counter(metric::kRecordRoutes)->set(result.record_routes);
    reg->counter(metric::kRecordRoutesSymmetric)->set(result.record_routes_symmetric);
    reg->counter(metric::kRelearns, "cause=\"stale\"")->set(result.stale_relearns);
    reg->counter(metric::kRelearns, "cause=\"loss\"")->set(result.loss_relearns);
    if (opt.faults != nullptr) {
      reg->counter(metric::kFaultEvents)->set(opt.faults->counters().timeline_faults);
      reg->counter(metric::kProbesSuppressed)
          ->set(opt.faults->counters().probes_suppressed);
      reg->counter(metric::kOutageRounds)->set(opt.faults->counters().outage_rounds);
    }
    reg->gauge(metric::kSeriesResidentBytes)->set(static_cast<double>(store->resident_bytes()));
    reg->gauge(metric::kSeriesRawBytes)->set(static_cast<double>(store->raw_bytes()));
    reg->counter(metric::kSeriesSamples)->set(store->samples_total());
  };

  auto report_progress = [&](TimePoint at, bool finished) {
    publish();
    if (!opt.on_progress) return;
    opt.on_progress(CampaignProgress{at, finished});
  };

  // Live verdicts for the serving layer: finalize every link's online far
  // detector against its series-so-far.  The window scans already ran as
  // rounds completed, so this is only the assembly tail per link; finalize
  // does not mutate the detector, so later segments keep pushing into it.
  tslp::DetectScratch verdict_scratch;
  std::vector<double> verdict_near_buf, verdict_far_buf;
  auto report_verdicts = [&](TimePoint at) {
    if (!opt.on_verdicts) return;
    LiveVerdictBatch batch;
    batch.vp_name = spec.vp_name;
    batch.ixp = spec.ixp.name;
    batch.at = at;
    batch.links.reserve(store->size());
    for (std::size_t i = 0; i < store->size(); ++i) {
      LiveLinkVerdict v;
      store->decode_into(i, verdict_near_buf, verdict_far_buf);
      const series::LinkMeta& m = store->meta(i);
      v.key = m.key;
      v.far_asn = m.far_asn;
      v.at_ixp = m.at_ixp;
      v.samples = verdict_far_buf.size();
      tslp::RttSeries tmp;
      tmp.start = store->start();
      tmp.interval = store->interval();
      tmp.ms = std::move(verdict_far_buf);
      v.far = online_far[i].finalize(tslp::view_of(tmp), verdict_scratch);
      verdict_far_buf = std::move(tmp.ms);  // reuse the buffer next link
      batch.links.push_back(std::move(v));
    }
    opt.on_verdicts(batch);
  };

  // ---- Main loop ------------------------------------------------------------
  // Probing rounds live on the campaign-global grid start + k*interval.
  // Segment boundaries (membership events, snapshot dates) may fall
  // anywhere, so each segment starts at the first grid point at or after
  // its boundary and runs a whole number of rounds; a cadence that does
  // not divide a boundary offset must never shift later samples off the
  // grid (regression: GridAlignment in tests/test_campaigns.cc).  For the
  // paper scenarios -- boundaries on day marks, 5-minute cadence -- the
  // alignment is the identity and output is byte-identical to before.
  auto grid_align_up = [&](TimePoint tp) {
    const std::int64_t k = ((tp - start).count() + iv - 1) / iv;
    return start + Duration(k * iv);
  };
  TimePoint t = start;
  for (const TimePoint b : boundaries) {
    if (b > t) {
      const TimePoint seg_start = grid_align_up(t);
      const std::int64_t rounds = seg_start < b ? ((b - seg_start).count() + iv - 1) / iv : 0;
      prober::TslpConfig cfg;
      cfg.round_interval = opt.round_interval;
      cfg.pre_round = [&rt](TimePoint at) { rt.apply_timeline_until(at); };
      // One record-route measurement per link per day (the paper's RR
      // campaign for path-symmetry checks).
      cfg.rr_every_rounds = static_cast<int>(kDay.count() / opt.round_interval.count());
      cfg.faults = opt.faults;
      prober::TslpDriver driver(prober, cfg);
      auto segment = driver.run(targets, seg_start, seg_start + Duration(rounds * iv),
                                [&](std::size_t) { ++result.rounds_completed; });
      result.record_routes += driver.record_routes();
      result.record_routes_symmetric += driver.record_routes_symmetric();
      result.stale_relearns += driver.stale_relearns();
      result.loss_relearns += driver.loss_relearns();
      result.probes_lost += driver.probes_lost();
      if (opt.metrics != nullptr) {
        opt.metrics->span(metric::kSegmentSpan)->record(b - t);
      }
      for (std::size_t i = 0; i < segment.size(); ++i) {
        const auto base = static_cast<std::size_t>(store->samples(i));
        for (const std::size_t rr : segment[i].responder_changes) {
          responder_rounds[i].push_back(base + rr);
        }
        online_near[i].push(segment[i].near_rtt.ms);
        online_far[i].push(segment[i].far_rtt.ms);
        store->append(i, segment[i].near_rtt.ms, segment[i].far_rtt.ms);
      }
      t = b;
    }
    rt.apply_timeline_until(b);
    // Membership may have changed; rediscover and absorb new links.
    borders = run_bdrmap();
    for (const auto& nt : to_targets(borders, rt.vp_asn)) {
      if (known_far.count(nt.far_ip)) continue;
      known_far.insert(nt.far_ip);
      targets.push_back(nt);
      add_link(nt, store->size() > 0 ? store->samples(0) : 0);
    }
    if (snapshot_set.count(b)) record_snapshot(b, borders);
    report_verdicts(b);
    if (opt.verbose) {
      IXP_INFO << spec.vp_name << " boundary " << format_time(b) << ": " << targets.size()
               << " monitored links";
    }
    report_progress(b, false);
  }

  // ---- Final classification (5 ms floor for threshold sweeps) --------------
  // The window scans already ran as rounds completed; decode each link into
  // one reusable buffer pair, replay only the assembly tail, and classify
  // from the finalized shifts.  The result keeps metadata only: the samples
  // stay in the store (VpCampaignResult::decode_link).
  tslp::CongestionClassifier final_classifier(final_opts);
  obs::Histogram* rtt_hist =
      opt.metrics != nullptr
          ? opt.metrics->histogram(metric::kFarRttMs, {5, 10, 20, 50, 100, 200, 500, 1000})
          : nullptr;
  tslp::DetectScratch scratch;
  std::vector<double> near_buf, far_buf;
  result.reports.reserve(store->size());
  result.series.reserve(store->size());
  for (std::size_t i = 0; i < store->size(); ++i) {
    tslp::LinkSeries ls = store->header(i);
    ls.near_rtt.ms.swap(near_buf);
    ls.far_rtt.ms.swap(far_buf);
    store->decode_into(i, ls.near_rtt.ms, ls.far_rtt.ms);
    result.reports.push_back(final_classifier.classify_with_shifts(
        ls, online_far[i].finalize(tslp::view_of(ls.far_rtt), scratch),
        online_near[i].finalize(tslp::view_of(ls.near_rtt), scratch)));
    if (rtt_hist != nullptr) {
      for (const double ms : ls.far_rtt.ms) rtt_hist->observe(ms);  // NaN = missing round
    }
    // Hand the buffers back for the next link, then keep metadata only.
    ls.near_rtt.ms.swap(near_buf);
    ls.far_rtt.ms.swap(far_buf);
    result.series.push_back(std::move(ls));
  }
  result.columns = store;
  // Reroute-vs-congestion cross-check: a verdict whose every far episode
  // begins at a responder-identity change is explained by the path moving
  // under the monitor, not by queueing — downgrade it (the scenario
  // diversity pack's discrimination requirement; see tslp::crosscheck_reroute).
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    result.series[i].responder_changes = std::move(responder_rounds[i]);
    tslp::crosscheck_reroute(result.reports[i], result.series[i].responder_changes);
  }

  result.probes_sent = prober.probes_sent();
  if (opt.faults != nullptr) {
    result.fault_events = opt.faults->counters().timeline_faults;
    result.probes_suppressed = opt.faults->counters().probes_suppressed;
    result.outage_rounds = opt.faults->counters().outage_rounds;
  }

  // Completion-time scrape: runtime internals (event loop, fluid queues,
  // packet transport), detector outcomes, and the far-RTT distribution.
  // These are not re-published mid-run -- they are either cumulative
  // runtime totals or only meaningful once classification has run.
  if (opt.metrics != nullptr) {
    obs::Registry* reg = opt.metrics;
    const sim::Network& net = rt.topology.net();
    reg->counter(metric::kSimEventsExecuted)->set(simulator.executed());
    reg->counter(metric::kSimEventsScheduled)->set(simulator.scheduled());
    const sim::FluidQueue::Stats qs = net.queue_stats();
    reg->counter(metric::kQueueHeadroomSkips)->set(qs.headroom_skips);
    reg->counter(metric::kQueueIntegrationSteps)->set(qs.integration_steps);
    reg->counter(metric::kQueueTailDrops)->set(qs.tail_drops);
    reg->counter(metric::kNetForwarded)->set(net.packets_forwarded);
    reg->counter(metric::kNetDropped)->set(net.packets_dropped);
    reg->counter(metric::kNetIcmp)->set(net.icmp_generated);
    reg->counter(metric::kNetHops)->set(net.hops_walked);
    std::uint64_t episodes = 0, raw_episodes = 0, refused = 0;
    std::uint64_t windows_scanned = 0, windows_skipped = 0;
    for (const auto& r : result.reports) {
      for (const tslp::LevelShiftResult* ls : {&r.far_shifts, &r.near_shifts}) {
        episodes += ls->episodes.size();
        raw_episodes += ls->raw_episode_count;
        refused += ls->refused_low_coverage ? 1 : 0;
        windows_scanned += ls->windows_scanned;
        windows_skipped += ls->windows_skipped_dark + ls->windows_skipped_quiet;
      }
    }
    reg->counter(metric::kDetectorEpisodes)->set(episodes);
    reg->counter(metric::kDetectorRawEpisodes)->set(raw_episodes);
    reg->counter(metric::kDetectorRefused)->set(refused);
    reg->counter(metric::kDetectorWindowsScanned)->set(windows_scanned);
    reg->counter(metric::kDetectorWindowsSkipped)->set(windows_skipped);
  }

  report_progress(end, true);
  return result;
}

}  // namespace ixp::analysis
