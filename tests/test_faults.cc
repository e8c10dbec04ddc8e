// Fault-injection layer: plan registry, deterministic window expansion, and
// end-to-end campaigns under measurement pathologies.  The contract under
// test is the one `afixp chaos` sells: plan + seed replays byte-identically,
// faults corrupt the *measurement*, and the engineered ground truth still
// classifies correctly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/chaos.h"
#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "sim/faults.h"
#include "topo/calendar.h"
#include "topo/gen.h"
#include "util/fault_plan.h"

namespace ixp {
namespace {

using analysis::CampaignOptions;
using analysis::VpCampaignResult;
using topo::date;

// ---------------------------------------------------------------------------
// Plan registry

TEST(FaultPlanRegistry, KnownPlansResolveAndDescribe) {
  const auto& plans = list_plans();
  ASSERT_FALSE(plans.empty());
  for (const auto& p : plans) {
    ASSERT_FALSE(p.name.empty());
    EXPECT_FALSE(p.family.empty()) << p.name;
    EXPECT_FALSE(p.description.empty()) << p.name;
    const ScenarioPlan* found = find_plan(p.name);
    ASSERT_NE(found, nullptr) << p.name;
    EXPECT_EQ(found, &p);  // find_plan returns registry storage, not a copy
    EXPECT_EQ(found->faults.name, p.name);
    const std::string desc = describe_fault_plan(found->faults);
    ASSERT_FALSE(desc.empty());
    EXPECT_EQ(desc.back(), '\n');  // callers print it raw
  }
  EXPECT_EQ(find_plan("no-such-plan"), nullptr);
}

TEST(FaultPlanRegistry, NoneIsEmptyAndDefaultCoversEveryCategory) {
  const ScenarioPlan* none = find_plan("none");
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->faults.empty());
  EXPECT_EQ(none->faults.fault_count(), 0u);

  const ScenarioPlan* def = find_plan("default");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->family, "paper6");
  EXPECT_TRUE(def->substrate.empty());  // runs on the paper's six VPs
  EXPECT_FALSE(def->faults.vp_outages.empty());
  EXPECT_FALSE(def->faults.link_flaps.empty());
  EXPECT_FALSE(def->faults.icmp_tighten.empty());
  EXPECT_FALSE(def->faults.silent_drops.empty());
  EXPECT_FALSE(def->faults.reroutes.empty());
  EXPECT_FALSE(def->faults.loss_bursts.empty());
}

TEST(FaultPlanRegistry, ScenarioFamiliesBindTheirSubstrates) {
  const ScenarioPlan* rixp = find_plan("rixp");
  ASSERT_NE(rixp, nullptr);
  EXPECT_EQ(rixp->family, "rixp");
  EXPECT_EQ(rixp->substrate, "rixp16");
  EXPECT_TRUE(rixp->faults.facility_outages.empty());

  const ScenarioPlan* fac = find_plan("facility");
  ASSERT_NE(fac, nullptr);
  EXPECT_EQ(fac->family, "facility");
  EXPECT_EQ(fac->substrate, "facility8");
  ASSERT_FALSE(fac->faults.facility_outages.empty());
  // Pure facility scenario: no other category may muddy the detector's
  // precision/recall measurement.
  EXPECT_EQ(fac->faults.fault_count(), fac->faults.facility_outages.size());
}

// ---------------------------------------------------------------------------
// Injector: deterministic expansion

std::vector<sim::FaultWindow> all_windows(const sim::FaultInjector& fi) {
  std::vector<sim::FaultWindow> out = fi.outage_windows();
  const auto absorb = [&out](const std::vector<std::vector<sim::FaultWindow>>& groups) {
    for (const auto& g : groups) out.insert(out.end(), g.begin(), g.end());
  };
  absorb(fi.flap_windows());
  absorb(fi.icmp_windows());
  absorb(fi.silent_windows());
  absorb(fi.reroute_windows());
  absorb(fi.burst_windows());
  absorb(fi.facility_windows());
  return out;
}

TEST(FaultInjector, SamePlanAndSeedExpandIdentically) {
  const ScenarioPlan* plan = find_plan("default");
  ASSERT_NE(plan, nullptr);
  const FaultPlan* def = &plan->faults;
  const TimePoint start = date(1, 3, 2016);
  const TimePoint end = start + kDay * 200;
  sim::FaultInjector a(*def, 7, start, end);
  sim::FaultInjector b(*def, 7, start, end);
  const auto wa = all_windows(a);
  const auto wb = all_windows(b);
  ASSERT_FALSE(wa.empty());
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].begin, wb[i].begin) << i;
    EXPECT_EQ(wa[i].end, wb[i].end) << i;
  }
  // The per-probe burst stream replays identically too.
  for (int i = 0; i < 20000; ++i) {
    const TimePoint t = start + kMinute * (i * 15);
    ASSERT_EQ(a.lose_probe(t), b.lose_probe(t)) << i;
  }
}

TEST(FaultInjector, DifferentSeedMovesRandomWindows) {
  const ScenarioPlan* plan = find_plan("default");
  ASSERT_NE(plan, nullptr);
  const FaultPlan* def = &plan->faults;
  const TimePoint start = date(1, 3, 2016);
  const TimePoint end = start + kDay * 200;
  sim::FaultInjector a(*def, 7, start, end);
  sim::FaultInjector b(*def, 8, start, end);
  const auto wa = all_windows(a);
  const auto wb = all_windows(b);
  bool any_difference = wa.size() != wb.size();
  for (std::size_t i = 0; !any_difference && i < wa.size(); ++i) {
    any_difference = wa[i].begin != wb[i].begin || wa[i].end != wb[i].end;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, WindowsClampedToCampaign) {
  FaultPlan p;
  p.name = "clamp";
  VpOutageFault o;
  o.windows.fixed = {{kDay * 1, kDay * 400},   // overhangs: clamped
                     {kDay * 500, kDay * 1}};  // starts past the end: dropped
  p.vp_outages = {o};
  const TimePoint start = date(1, 3, 2016);
  const TimePoint end = start + kDay * 10;
  sim::FaultInjector fi(p, 1, start, end);
  ASSERT_EQ(fi.outage_windows().size(), 1u);
  EXPECT_EQ(fi.outage_windows()[0].begin, start + kDay);
  EXPECT_EQ(fi.outage_windows()[0].end, end);
  EXPECT_FALSE(fi.vp_down(start));
  EXPECT_TRUE(fi.vp_down(start + kDay * 2));
  EXPECT_FALSE(fi.vp_down(end));
}

TEST(FaultInjector, LoseProbeOnlyDrawsInsideBurstWindows) {
  FaultPlan p;
  p.name = "burst";
  ProbeLossBurstFault b;
  b.loss_prob = 1.0;  // every probe in the window dies
  b.windows.fixed = {{kDay, kHour * 6}};
  p.loss_bursts = {b};
  const TimePoint start = date(1, 3, 2016);
  sim::FaultInjector fi(p, 3, start, start + kDay * 10);
  EXPECT_FALSE(fi.lose_probe(start));
  EXPECT_TRUE(fi.lose_probe(start + kDay + kHour));
  EXPECT_FALSE(fi.lose_probe(start + kDay * 2));
}

TEST(FaultInjector, FacilityWindowsExpandByteIdentically) {
  const ScenarioPlan* fac = find_plan("facility");
  ASSERT_NE(fac, nullptr);
  const TimePoint start = date(1, 3, 2016);
  const TimePoint end = start + kDay * 28;
  sim::FaultInjector a(fac->faults, 21, start, end);
  sim::FaultInjector b(fac->faults, 21, start, end);
  ASSERT_EQ(a.facility_windows().size(), fac->faults.facility_outages.size());
  ASSERT_FALSE(a.facility_windows().empty());
  // Two fixed windows plus the seed-drawn one land inside a 28-day run.
  ASSERT_EQ(a.facility_windows()[0].size(), 3u);
  ASSERT_EQ(b.facility_windows()[0].size(), 3u);
  for (std::size_t i = 0; i < a.facility_windows()[0].size(); ++i) {
    EXPECT_EQ(a.facility_windows()[0][i].begin, b.facility_windows()[0][i].begin) << i;
    EXPECT_EQ(a.facility_windows()[0][i].end, b.facility_windows()[0][i].end) << i;
  }
}

TEST(FaultInjector, FacilityCategoryDoesNotPerturbOlderStreams) {
  // The facility stream is forked *after* every pre-existing category, so
  // appending a FacilityFault to a plan must leave all other categories'
  // windows byte-identical — the property that keeps old plan+seed
  // recordings replayable.
  const ScenarioPlan* plan = find_plan("default");
  ASSERT_NE(plan, nullptr);
  FaultPlan with_facility = plan->faults;
  FacilityFault f;
  f.nth_facility = 0;
  f.windows.random_count = 2;
  with_facility.facility_outages.push_back(f);
  const TimePoint start = date(1, 3, 2016);
  const TimePoint end = start + kDay * 200;
  sim::FaultInjector a(plan->faults, 7, start, end);
  sim::FaultInjector b(with_facility, 7, start, end);
  const auto wa = all_windows(a);
  auto wb = all_windows(b);
  ASSERT_EQ(wb.size(), wa.size() + b.facility_windows()[0].size());
  wb.resize(wa.size());  // all_windows appends the facility group last
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].begin, wb[i].begin) << i;
    EXPECT_EQ(wa[i].end, wb[i].end) << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end campaigns under faults (VP1/GIXA, shortened windows)

// Exercises every fault category with fixed windows inside a 42-day run.
FaultPlan all_categories_plan() {
  FaultPlan p;
  p.name = "test-all";
  VpOutageFault o;
  o.windows.fixed = {{kDay * 2, kHour * 12}};
  p.vp_outages = {o};
  LinkFlapFault f;
  f.nth_link = 0;
  f.windows.fixed = {{kDay * 5, kHour * 6}};
  p.link_flaps = {f};
  IcmpTightenFault t;
  t.nth_router = 1;
  t.windows.fixed = {{kDay * 8, kDay * 2}};
  p.icmp_tighten = {t};
  SilentDropFault sd;
  sd.nth_router = 2;
  sd.windows.fixed = {{kDay * 12, kDay * 1}};
  p.silent_drops = {sd};
  RerouteFault r;
  r.nth_link = 0;
  r.windows.fixed = {{kDay * 16, kDay * 2}};
  p.reroutes = {r};
  ProbeLossBurstFault b;
  b.loss_prob = 0.6;
  b.windows.fixed = {{kDay * 1, kHour * 6}};
  p.loss_bursts = {b};
  return p;
}

VpCampaignResult run_vp1_with_plan(const FaultPlan& plan, std::uint64_t seed, int days) {
  const auto spec = analysis::make_vp1_gixa();
  auto rt = analysis::build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * days;
  std::shared_ptr<sim::FaultInjector> faults;
  if (!plan.empty()) {
    faults = analysis::attach_fault_plan(*rt, spec, plan, seed,
                                         spec.campaign_start + opt.duration_override);
    opt.faults = faults.get();
  }
  return analysis::run_campaign(*rt, spec, opt);
}

TEST(FaultCampaign, AllCategoriesFireAndGroundTruthSurvives) {
  const auto result = run_vp1_with_plan(all_categories_plan(), 3, 42);
  // Each topology fault contributes a begin and an end event.
  EXPECT_EQ(result.fault_events, 8u);  // flap 2 + icmp 2 + silent 2 + reroute 2
  EXPECT_GT(result.probes_suppressed, 0u);
  EXPECT_EQ(result.outage_rounds, 24u);  // 12 h of 30-minute rounds
  EXPECT_GE(result.stale_relearns, 1u);  // the reroute must be noticed
  // The engineered ground truth survives the pathologies: GHANATEL (and
  // only GHANATEL) is classified congested in the first 42 days.
  bool ghanatel = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (!result.reports[i].congested()) continue;
    EXPECT_EQ(result.series[i].far_asn, 29614u) << result.series[i].key;
    ghanatel = true;
  }
  EXPECT_TRUE(ghanatel);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

TEST(FaultCampaign, PlanPlusSeedReplaysByteIdentically) {
  const auto a = run_vp1_with_plan(all_categories_plan(), 11, 42);
  const auto b = run_vp1_with_plan(all_categories_plan(), 11, 42);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.probes_suppressed, b.probes_suppressed);
  EXPECT_EQ(a.outage_rounds, b.outage_rounds);
  EXPECT_EQ(a.stale_relearns, b.stale_relearns);
  EXPECT_EQ(a.loss_relearns, b.loss_relearns);
  ASSERT_EQ(a.series.size(), b.series.size());
  std::size_t examined = 0;
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    const auto la = a.decode_link(i);
    const auto lb = b.decode_link(i);
    EXPECT_EQ(la.key, lb.key);
    EXPECT_TRUE(bitwise_equal(la.near_rtt.ms, lb.near_rtt.ms)) << la.key;
    EXPECT_TRUE(bitwise_equal(la.far_rtt.ms, lb.far_rtt.ms)) << la.key;
    EXPECT_EQ(la.responder_changes, lb.responder_changes) << la.key;
    examined += la.far_rtt.ms.empty() ? 0 : 1;
  }
  EXPECT_GE(examined, 1u);
}

TEST(FaultCampaign, RerouteGoesStaleThenRecovers) {
  FaultPlan p;
  p.name = "test-reroute";
  RerouteFault r;
  r.nth_link = 0;  // first eligible clean member (GHMEM03 for VP1)
  r.windows.fixed = {{kDay * 10, kDay * 3}};
  p.reroutes = {r};
  const auto result = run_vp1_with_plan(p, 5, 30);
  EXPECT_EQ(result.fault_events, 2u);   // detour installed + withdrawn
  EXPECT_GE(result.stale_relearns, 1u); // responder change detected
  // The targeted member's series must stay usable: probes resume on the
  // direct path after the detour is withdrawn (day 13 of 30).
  bool checked = false;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    if (result.series[i].far_asn != 65103u) continue;
    const auto ls = result.decode_link(i);
    checked = true;
    const std::size_t per_day = 48;  // 30-minute rounds
    ASSERT_GE(ls.far_rtt.ms.size(), per_day * 30);
    std::size_t finite_tail = 0;
    for (std::size_t k = per_day * 20; k < per_day * 30; ++k) {
      if (!std::isnan(ls.far_rtt.ms[k])) ++finite_tail;
    }
    EXPECT_GT(finite_tail, per_day * 5) << ls.key;  // >half of the last 10 days
  }
  EXPECT_TRUE(checked);
}

TEST(FaultCampaign, FacilityOutageDropsEveryHomedLinkAndReplays) {
  // Run the registry's facility scenario on its own substrate: the first
  // fixed window (day 8, 36 h) must punch an all-NaN gap into *every* link
  // homed at the targeted facility and into no link outside it, and the
  // whole campaign must replay byte-identically for the same plan + seed.
  const ScenarioPlan* plan = find_plan("facility");
  ASSERT_NE(plan, nullptr);
  const auto specs = analysis::generate_substrate(*topo::topo_spec_preset(plan->substrate));
  ASSERT_FALSE(specs.empty());
  const analysis::VpSpec& spec = specs[0];

  auto run_once = [&] {
    auto rt = analysis::build_scenario(spec);
    CampaignOptions opt;
    opt.round_interval = kMinute * 30;
    opt.duration_override = kDay * 12;
    auto faults = analysis::attach_fault_plan(*rt, spec, plan->faults, 17,
                                              spec.campaign_start + opt.duration_override);
    opt.faults = faults.get();
    return analysis::run_campaign(*rt, spec, opt);
  };
  const auto a = run_once();
  EXPECT_GE(a.fault_events, 2u);  // at least the fixed window's down + up

  // Links dark through the middle of the day-8 window (one round of slack
  // either side for loss-relearn timing).
  const std::size_t per_day = 48;  // 30-minute rounds
  const std::size_t gap_b = per_day * 8 + 2;
  const std::size_t gap_e = per_day * 8 + 70;  // 36 h minus slack
  std::set<std::uint32_t> dark_asns;
  std::size_t examined = 0;
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    const auto ls = a.decode_link(i);
    if (ls.far_rtt.ms.size() < per_day * 12) continue;
    ++examined;
    bool all_nan = true;
    for (std::size_t k = gap_b; k < gap_e && all_nan; ++k) {
      all_nan = std::isnan(ls.far_rtt.ms[k]);
    }
    if (all_nan) dark_asns.insert(ls.far_asn);
  }
  ASSERT_GE(examined, 1u);
  ASSERT_FALSE(dark_asns.empty());
  // The dark members are exactly one facility's membership.
  std::set<std::string> dark_facilities;
  for (const auto& n : spec.neighbors) {
    if (dark_asns.count(n.asn) == 0) continue;
    ASSERT_FALSE(n.facility.empty()) << n.name << " dark but not homed at a facility";
    dark_facilities.insert(n.facility);
  }
  ASSERT_EQ(dark_facilities.size(), 1u);
  const std::string target = *dark_facilities.begin();
  for (const auto& n : spec.neighbors) {
    if (n.facility != target || n.silent) continue;
    EXPECT_TRUE(dark_asns.count(n.asn) > 0)
        << n.name << " homed at " << target << " but stayed up";
  }

  const auto b = run_once();
  EXPECT_EQ(a.fault_events, b.fault_events);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.decode_link(i).far_rtt.ms, b.decode_link(i).far_rtt.ms))
        << a.series[i].key;
  }
}

TEST(FaultCampaign, FacilityScoringFlagsOnlyTheFaultedFacility) {
  // `afixp chaos --plan facility` end to end: the registry plan on its own
  // substrate, through the fleet, scored per facility from the decoded far
  // series.  The detector must flag the faulted facility and neither of
  // the other two (EXPERIMENTS.md: TP=1 FP=0 FN=0 TN=2).
  const ScenarioPlan* plan = find_plan("facility");
  ASSERT_NE(plan, nullptr);
  const auto specs = analysis::generate_substrate(*topo::topo_spec_preset(plan->substrate));
  ASSERT_FALSE(specs.empty());
  analysis::FleetOptions fopt;
  fopt.campaign.round_interval = kMinute * 30;
  fopt.jobs = 2;
  fopt.fault_plan = &plan->faults;
  fopt.fault_seed = 1;
  const auto fleet = analysis::run_fleet(specs, fopt);
  const analysis::FamilyScore score =
      analysis::score_facilities(specs, fleet.results, plan->faults, fopt.fault_seed);
  EXPECT_EQ(score.family, "facility-detector");
  EXPECT_EQ(score.tp, 1u);
  EXPECT_EQ(score.fp, 0u);
  EXPECT_EQ(score.fn, 0u);
  EXPECT_EQ(score.tn, 2u);
}

TEST(FaultCampaign, VpOutagePunchesAllNanGap) {
  FaultPlan p;
  p.name = "test-outage";
  VpOutageFault o;
  o.windows.fixed = {{kDay * 3, kDay * 2}};
  p.vp_outages = {o};
  const auto result = run_vp1_with_plan(p, 9, 10);
  EXPECT_EQ(result.outage_rounds, 96u);  // 2 days of 30-minute rounds
  EXPECT_EQ(result.fault_events, 0u);    // outages never touch the topology
  const std::size_t per_day = 48;
  std::size_t examined = 0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto ls = result.decode_link(i);
    if (ls.far_rtt.ms.size() < per_day * 10) continue;
    ++examined;
    for (std::size_t k = per_day * 3; k < per_day * 5; ++k) {
      ASSERT_TRUE(std::isnan(ls.far_rtt.ms[k])) << ls.key << " sample " << k;
      ASSERT_TRUE(std::isnan(ls.near_rtt.ms[k])) << ls.key << " sample " << k;
    }
  }
  EXPECT_GE(examined, 1u);
}

}  // namespace
}  // namespace ixp
