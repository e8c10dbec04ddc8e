// End-to-end integration over the paper's actual scenarios (shortened
// campaigns): the full pipeline must rediscover the right links, flag the
// right congestion, and match the calibrated Table 2 cells.  These are the
// heaviest tests in the suite (a few seconds each).
#include <gtest/gtest.h>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/casebook.h"
#include "analysis/tables.h"
#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <string>

#include "topo/calendar.h"

namespace ixp::analysis {
namespace {

using topo::date;

VpCampaignResult run_days(const VpSpec& spec, int days, Duration round = kMinute * 30) {
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = round;
  opt.duration_override = kDay * days;
  return run_campaign(*rt, spec, opt);
}

TEST(PaperCampaigns, Vp1FirstMonthsFindGhanatelOnly) {
  // Through May 2016 only the GHANATEL transit link is congested.
  const auto spec = make_vp1_gixa();
  const auto result = run_days(spec, 80);
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.reports[i].congested()) {
      EXPECT_EQ(result.series[i].far_asn, 29614u) << result.series[i].key;
    }
  }
  EXPECT_GE(result.congested(), 1u);
  // The first snapshot must match the paper's cell: 46 (36) / 13 neighbors.
  ASSERT_GE(result.snapshots.size(), 1u);
  EXPECT_EQ(result.snapshots[0].discovered_links, 46u);
  EXPECT_EQ(result.snapshots[0].peering_links, 36u);
  EXPECT_EQ(result.snapshots[0].neighbors, 13u);
  EXPECT_EQ(result.snapshots[0].congested_links, 2u);  // ptp + contaminated LAN reply path
}

TEST(PaperCampaigns, Vp1RecordRoutesCollected) {
  const auto spec = make_vp1_gixa();
  const auto result = run_days(spec, 30);
  EXPECT_GT(result.record_routes, 0u);
  // The paper verified path symmetry on GIXA links.
  EXPECT_GT(result.record_routes_symmetric, result.record_routes / 2);
}

TEST(PaperCampaigns, Vp4NetpageCongestedThenClean) {
  const auto spec = make_vp4_sixp();
  // Through June: phase 1 (congested through 28/04) plus two clean months.
  const auto result = run_days(spec, 120);
  bool netpage_congested = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.series[i].far_asn == 65400 && result.reports[i].congested()) {
      netpage_congested = true;
      EXPECT_EQ(result.reports[i].persistence, tslp::Persistence::kTransient);
    }
  }
  EXPECT_TRUE(netpage_congested);
  // Zero record routes: QCELL filters the option (Table 2).
  EXPECT_EQ(result.record_routes, 0u);
  // Snapshot 1 matches the paper: 14 (11), 7 (6).
  ASSERT_GE(result.snapshots.size(), 1u);
  EXPECT_EQ(result.snapshots[0].discovered_links, 14u);
  EXPECT_EQ(result.snapshots[0].peering_links, 11u);
  EXPECT_EQ(result.snapshots[0].neighbors, 7u);
}

TEST(PaperCampaigns, Vp6NothingCongestedManyFlagged) {
  const auto spec = make_vp6_rinex();
  const auto result = run_days(spec, 100);
  EXPECT_EQ(result.congested(), 0u);
  // Route-change noise flags many links without diurnal patterns.
  EXPECT_GT(result.potentially_congested(5.0), 10u);
  EXPECT_EQ(result.with_diurnal(10.0), 0u);
  EXPECT_EQ(result.record_routes, 0u);  // RDB filters RR
}

TEST(PaperCampaigns, CasebookGhanatelChecksOutInFigScenario) {
  const auto spec = make_fig_ghanatel();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 15;
  opt.duration_override = date(20, 6, 2016) - spec.campaign_start;
  const auto result = run_campaign(*rt, spec, opt);
  std::optional<tslp::LinkSeries> link;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto& s = result.series[i];
    if (s.far_asn == 29614 && !s.at_ixp) link = result.decode_link(i);
  }
  ASSERT_TRUE(link.has_value());
  ASSERT_FALSE(link->far_rtt.ms.empty());
  tslp::CongestionClassifier classifier;
  const auto report = classifier.classify(
      tslp::slice(*link, date(7, 3, 2016), date(13, 6, 2016)));
  const auto check = check_case(case_ghanatel(), report);
  EXPECT_TRUE(check.verdict_congested);
  EXPECT_TRUE(check.a_w_in_range) << report.waveform.a_w_ms;
  EXPECT_TRUE(check.persistence_matches);
  EXPECT_TRUE(check.weekday_pattern_matches);
}

TEST(PaperCampaigns, Table1RowGenerator) {
  const auto spec = make_vp4_sixp();
  const auto result = run_days(spec, 90);
  const auto row = make_table1_row(result);
  EXPECT_EQ(row.vp, "VP4");
  // NETPAGE flagged and diurnal at 5 and 10 ms.
  EXPECT_GE(row.flagged[0], 1u);
  EXPECT_GE(row.diurnal[0], 1u);
  EXPECT_GE(row.diurnal[1], 1u);
  // Counts are monotone non-increasing in the threshold.
  for (int i = 1; i < 4; ++i) {
    EXPECT_LE(row.flagged[i], row.flagged[i - 1]);
    EXPECT_LE(row.diurnal[i], row.diurnal[i - 1]);
  }
}

TEST(PaperCampaigns, Vp5FullScaleTopologyBuilds) {
  // The 1:1 KIXP world (the paper's ~1,215 neighbors) must build, route,
  // and be border-mappable; campaigns use the 1:8 scale but nothing in the
  // code depends on it.
  const auto spec = make_vp5_kixp(/*scale=*/1);
  auto rt = build_scenario(spec);
  // Pre-growth world: apply the full timeline to connect every wave.
  rt->apply_timeline_until(spec.campaign_end);
  const auto truth = rt->topology.interdomain_links_of(spec.vp_asn);
  EXPECT_GT(truth.size(), 1000u);
  std::set<topo::Asn> neighbors;
  for (const auto& t : truth) neighbors.insert(t.far_asn);
  EXPECT_GT(neighbors.size(), 1000u);  // paper: 1,215
}

TEST(Campaigns, GridAlignment) {
  // Regression for the segment-boundary arithmetic (see the grid_align_up
  // comment in campaign.cc): with a cadence that does not divide the
  // membership/snapshot boundaries (7 minutes vs midnight events), every
  // segment must resume on the campaign-global grid start + k*interval.
  // The old code restarted each segment at the boundary itself, drifting
  // the sample grid and over-counting rounds.
  const auto spec = make_vp1_gixa();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 7;  // 1440 % 7 != 0: day marks are off-grid
  opt.duration_override = kDay * 30;
  const auto result = run_campaign(*rt, spec, opt);

  const auto iv = opt.round_interval.count();
  const auto window = (kDay * 30).count();
  const auto expect_rounds = static_cast<std::size_t>((window + iv - 1) / iv);
  ASSERT_FALSE(result.series.empty());
  std::size_t ghanatel = 0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto ls = result.decode_link(i);
    // Every link that was up from the start holds exactly one sample per
    // grid point in the window -- no duplicated or phantom rounds at
    // segment seams.
    EXPECT_LE(ls.near_rtt.ms.size(), expect_rounds) << ls.key;
    EXPECT_EQ(ls.near_rtt.ms.size(), ls.far_rtt.ms.size()) << ls.key;
    if (ls.far_asn == 29614) {  // GHANATEL: connected for the whole window
      EXPECT_EQ(ls.near_rtt.ms.size(), expect_rounds) << ls.key;
      ++ghanatel;
    }
    EXPECT_EQ(ls.near_rtt.interval.count(), iv);
  }
  EXPECT_GE(ghanatel, 1u);
}

void expect_same_shifts(const tslp::LevelShiftResult& got, const tslp::LevelShiftResult& want,
                        const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.baseline_ms),
            std::bit_cast<std::uint64_t>(want.baseline_ms))
      << what;
  EXPECT_EQ(got.refused_low_coverage, want.refused_low_coverage) << what;
  ASSERT_EQ(got.episodes.size(), want.episodes.size()) << what;
  for (std::size_t e = 0; e < want.episodes.size(); ++e) {
    EXPECT_EQ(got.episodes[e].begin, want.episodes[e].begin) << what;
    EXPECT_EQ(got.episodes[e].end, want.episodes[e].end) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.episodes[e].magnitude_ms),
              std::bit_cast<std::uint64_t>(want.episodes[e].magnitude_ms))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.episodes[e].p_value),
              std::bit_cast<std::uint64_t>(want.episodes[e].p_value))
        << what;
  }
}

TEST(Campaigns, OnlineReportsMatchOfflineOracle) {
  // The campaign detects level shifts online as rounds complete and keeps
  // the samples in the columnar store.  The offline classifier, run on
  // each decoded link at the campaign's 5 ms floor and followed by the
  // reroute cross-check, must reproduce every report bit for bit.
  const auto spec = make_vp4_sixp();
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * 45;
  auto rt = build_scenario(spec);
  const auto result = run_campaign(*rt, spec, opt);

  ASSERT_NE(result.columns, nullptr);
  ASSERT_EQ(result.columns->size(), result.series.size());
  ASSERT_EQ(result.reports.size(), result.series.size());
  tslp::ClassifierOptions final_opts = opt.classifier;
  final_opts.level_shift.threshold_ms = std::min(final_opts.level_shift.threshold_ms, 5.0);
  const tslp::CongestionClassifier oracle(final_opts);
  std::size_t examined = 0, with_episodes = 0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    // The result itself carries metadata only; samples come from the store.
    EXPECT_TRUE(result.series[i].far_rtt.ms.empty());
    const tslp::LinkSeries ls = result.decode_link(i);
    ASSERT_EQ(ls.key, result.series[i].key);
    ASSERT_EQ(ls.far_rtt.ms.size(), ls.near_rtt.ms.size()) << ls.key;
    if (ls.far_rtt.ms.empty()) continue;
    ++examined;
    tslp::LinkReport want = oracle.classify(ls);
    tslp::crosscheck_reroute(want, ls.responder_changes);
    const tslp::LinkReport& got = result.reports[i];
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.verdict, want.verdict) << got.key;
    EXPECT_EQ(got.persistence, want.persistence) << got.key;
    EXPECT_EQ(got.near_clean, want.near_clean) << got.key;
    expect_same_shifts(got.far_shifts, want.far_shifts, got.key + " far");
    expect_same_shifts(got.near_shifts, want.near_shifts, got.key + " near");
    with_episodes += want.far_shifts.episodes.empty() ? 0 : 1;
  }
  EXPECT_GE(examined, 1u);
  EXPECT_GE(with_episodes, 1u);  // the comparison covers detected shifts
  // The bounded-RSS claim: the store holds fewer bytes than raw doubles.
  EXPECT_LT(result.columns->resident_bytes(), result.columns->raw_bytes());
}

TEST(PaperCampaigns, GhanatelEpisodesSignificant) {
  const auto spec = make_fig_ghanatel();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * 40;
  const auto result = run_campaign(*rt, spec, opt);
  bool checked = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.series[i].far_asn != 29614 || result.series[i].at_ixp) continue;
    const auto& eps = result.reports[i].far_shifts.episodes;
    ASSERT_FALSE(eps.empty());
    for (const auto& e : eps) EXPECT_TRUE(e.significant()) << e.p_value;
    checked = true;
  }
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace ixp::analysis
