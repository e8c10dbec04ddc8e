// Conservative LP parallel simulation (sim/lp.h): the partitioned run must
// be byte-identical to the serial simulator for ANY thread count -- RTT bit
// patterns, executed/scheduled event counts, and forwarding counters all
// equal -- including across fault plans and through the campaign driver.
// The degenerate partitions (lookahead zero, disconnected islands) must
// fall back safely, and the fleet must compose its thread budget with the
// per-campaign LP worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/africa.h"
#include "analysis/benchmarks.h"
#include "analysis/campaign.h"
#include "analysis/fleet.h"
#include "analysis/scenario.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/lp.h"
#include "util/env.h"
#include "util/fault_plan.h"

namespace ixp::analysis {
namespace {

// ---------------------------------------------------------------------------
// Partitioning

TEST(LpPartition, CollapsesToSerialInDegenerateCases) {
  IslandWorld w;
  build_island_world(w, 3, 2);
  // parts <= 1 is always serial.
  const auto one = sim::partition_network(w.net, 1);
  EXPECT_EQ(one.count, 1);
  EXPECT_TRUE(one.cut_links.empty());
  // A single-island topology has nothing to cut either.
  IslandWorld lone;
  build_island_world(lone, 1, 3);
  const auto single = sim::partition_network(lone.net, 8);
  EXPECT_EQ(single.count, 1);
  EXPECT_TRUE(single.cut_links.empty());
}

TEST(LpPartition, DeterministicAndCoversEveryNode) {
  IslandWorld w;
  build_island_world(w, 6, 3);
  const auto p = sim::partition_network(w.net, 4);
  EXPECT_EQ(p.count, 4);
  ASSERT_EQ(p.lp_of_node.size(), w.net.node_count());
  for (const int lp : p.lp_of_node) {
    EXPECT_GE(lp, 0);
    EXPECT_LT(lp, p.count);
  }
  EXPECT_FALSE(p.cut_links.empty());
  // The cut runs along the 10 ms inter-island haul links.
  EXPECT_EQ(p.lookahead.count(), milliseconds(10).count());
  // Pure function of the topology: a second partition is identical.
  const auto q = sim::partition_network(w.net, 4);
  EXPECT_EQ(q.lp_of_node, p.lp_of_node);
  EXPECT_EQ(q.cut_links, p.cut_links);
  EXPECT_EQ(q.weights, p.weights);
}

TEST(LpPartition, ZeroLookaheadDegeneratesSafely) {
  // A scheduled delay step dropping a haul link to zero propagation means
  // that link can no longer support conservative lookahead.  The
  // partitioner must never leave a zero-delay link on the cut: the link's
  // endpoints merge into one island instead, and when EVERY haul link
  // degenerates this way the whole network collapses to a single LP.
  IslandWorld w;
  build_island_world(w, 4, 2);
  std::vector<int> hauls;
  for (std::size_t li = 0; li < w.net.link_count(); ++li) {
    if (w.net.link(static_cast<int>(li)).min_prop_delay() >= milliseconds(10)) {
      hauls.push_back(static_cast<int>(li));
    }
  }
  ASSERT_FALSE(hauls.empty());

  // One degenerate haul: its endpoints share an LP (3 islands remain) and
  // the cut keeps a positive lookahead from the surviving hauls.
  w.net.link(hauls.front()).set_prop_delay(TimePoint(kSecond), Duration(0));
  const auto partial = sim::partition_network(w.net, 4);
  EXPECT_EQ(partial.count, 3);
  EXPECT_EQ(partial.lp_of_node[static_cast<std::size_t>(
                w.net.link(hauls.front()).node_a())],
            partial.lp_of_node[static_cast<std::size_t>(
                w.net.link(hauls.front()).node_b())]);
  EXPECT_GT(partial.lookahead.count(), 0);
  for (const int cut : partial.cut_links) EXPECT_NE(cut, hauls.front());

  // Every haul degenerate: single partition, nothing to cut.
  for (const int li : hauls) {
    w.net.link(li).set_prop_delay(TimePoint(kSecond), Duration(0));
  }
  const auto p = sim::partition_network(w.net, 4);
  EXPECT_EQ(p.count, 1);
  EXPECT_TRUE(p.cut_links.empty());
}

// ---------------------------------------------------------------------------
// Byte-identity: LP execution vs the serial simulator

// Runs the island workload serially (threads = 0 bypasses the LP scheduler
// entirely) and under an LP partition, on separately built but identical
// worlds, and requires bit-equal results.
void expect_identical_runs(int islands, int members, int pings, int threads) {
  IslandWorld serial_world;
  build_island_world(serial_world, islands, members);
  const auto serial = run_island_workload(serial_world, pings, /*threads=*/0);

  IslandWorld lp_world;
  build_island_world(lp_world, islands, members);
  const auto par = run_island_workload(lp_world, pings, threads);

  ASSERT_EQ(par.rtt_ns.size(), serial.rtt_ns.size());
  for (std::size_t i = 0; i < serial.rtt_ns.size(); ++i) {
    EXPECT_EQ(par.rtt_ns[i], serial.rtt_ns[i]) << "island " << i << " threads=" << threads;
  }
  EXPECT_EQ(par.events, serial.events) << "threads=" << threads;
  EXPECT_EQ(par.scheduled, serial.scheduled) << "threads=" << threads;
  EXPECT_EQ(par.forwarded, serial.forwarded) << "threads=" << threads;
}

TEST(LpScheduler, ByteIdenticalToSerialAtCommittedThreadCounts) {
  for (const int threads : {1, 2, 8}) {
    expect_identical_runs(/*islands=*/4, /*members=*/4, /*pings=*/60, threads);
  }
}

TEST(LpScheduler, FuzzPartitionCountsOneToSixteen) {
  // Lookahead-degenerate and oversubscribed counts included: 1 collapses
  // to a single LP, counts above the island count clamp, and every value
  // must reproduce the serial bytes.
  IslandWorld serial_world;
  build_island_world(serial_world, 5, 3);
  const auto serial = run_island_workload(serial_world, /*pings_per_island=*/40, 0);
  for (int threads = 1; threads <= 16; ++threads) {
    IslandWorld w;
    build_island_world(w, 5, 3);
    const auto par = run_island_workload(w, 40, threads);
    EXPECT_EQ(par.rtt_ns, serial.rtt_ns) << "threads=" << threads;
    EXPECT_EQ(par.events, serial.events) << "threads=" << threads;
    EXPECT_EQ(par.scheduled, serial.scheduled) << "threads=" << threads;
    EXPECT_EQ(par.lps, std::min(threads, 5)) << "threads=" << threads;
  }
}

TEST(LpScheduler, DisconnectedIslandsRunToHorizonInOnePass) {
  // No chain links: the cut is empty, lookahead is unbounded, and the
  // whole horizon runs as one exclusive window plus the final inclusive
  // pass -- with zero cross-LP traffic.
  sim::Network net;
  struct Island {
    sim::NodeId host;
    net::Ipv4Address router_addr;
  };
  std::vector<Island> islands;
  for (int i = 0; i < 2; ++i) {
    std::string vpname = "vp";
    vpname += std::to_string(i);
    auto& h = net.add_host(vpname);
    std::string rname = "r";
    rname += std::to_string(i);
    auto& r = net.add_router(rname, {});
    sim::LinkConfig lan;
    lan.capacity_bps = 1e9;
    lan.prop_delay = milliseconds(0.1);
    const auto oct = static_cast<std::uint8_t>(i);
    const net::Ipv4Address ha(10, oct, 0, 2);
    const net::Ipv4Address ra(10, oct, 0, 1);
    net.connect(h.id(), ha, r.id(), ra, lan,
                *net::Ipv4Prefix::parse("10." + std::to_string(i) + ".0.0/30"));
    h.set_gateway(0, ra);
    r.add_route(*net::Ipv4Prefix::parse("10." + std::to_string(i) + ".0.0/30"), {0, {}});
    islands.push_back({h.id(), ra});
  }

  sim::LpScheduler sched(net, 2);
  EXPECT_EQ(sched.partition().count, 2);
  EXPECT_TRUE(sched.partition().cut_links.empty());
  EXPECT_EQ(sched.partition().lookahead, Duration::max());

  // One counter per island: each island's rx callback runs on its own LP
  // worker thread, so a shared counter would be a data race.
  std::vector<int> replies(islands.size(), 0);
  for (std::size_t i = 0; i < islands.size(); ++i) {
    const Island& isl = islands[i];
    auto& h = static_cast<sim::Host&>(net.node(isl.host));
    h.set_rx_callback([&replies, i](const net::Packet& pkt, TimePoint) {
      if (pkt.icmp_type == net::IcmpType::kEchoReply) ++replies[i];
    });
    net.lp_schedule(isl.host, TimePoint(kSecond), [&net, &h, dst = isl.router_addr] {
      net::Packet p;
      p.src = h.interfaces()[0].addr;
      p.dst = dst;
      p.ttl = 64;
      p.icmp_type = net::IcmpType::kEchoRequest;
      p.sent_at = net.active_sim().now();
      h.send(net, p);
    });
  }
  sched.run_until(TimePoint(kSecond * 2));
  EXPECT_EQ(std::accumulate(replies.begin(), replies.end(), 0), 2);
  EXPECT_EQ(sched.stats().cross_messages, 0u);
  // One unbounded exclusive window covers everything; the final inclusive
  // pass at the horizon is the only other round.
  EXPECT_EQ(sched.stats().windows, 2u);
  ASSERT_EQ(sched.stats().events_per_lp.size(), 2u);
  EXPECT_GT(sched.stats().events_per_lp[0], 0u);
  EXPECT_GT(sched.stats().events_per_lp[1], 0u);
}

TEST(LpScheduler, PublishesRunStatsToRegistry) {
  IslandWorld w;
  build_island_world(w, 3, 2);
  obs::Registry reg;
  const auto res = run_island_workload(w, /*pings_per_island=*/20, /*threads=*/3, &reg);
  EXPECT_EQ(reg.counter_value("afixp_sim_lp_windows_total"), res.lp.windows);
  EXPECT_EQ(reg.counter_value("afixp_sim_lp_cross_messages_total"), res.lp.cross_messages);
  EXPECT_GT(res.lp.windows, 0u);
  EXPECT_GT(res.lp.cross_messages, 0u);
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < res.lp.events_per_lp.size(); ++i) {
    events += reg.counter_value("afixp_sim_lp_events_total",
                                "lp=\"" + std::to_string(i) + "\"");
  }
  EXPECT_EQ(events, res.events);
}

// ---------------------------------------------------------------------------
// Env knob

TEST(LpScheduler, ResolveSimThreadsReadsEnvKnob) {
  unsetenv("IXP_SIM_THREADS");
  env::refresh_for_tests();
  EXPECT_EQ(sim::resolve_sim_threads(0), 1);   // unset knob = serial
  EXPECT_EQ(sim::resolve_sim_threads(5), 5);   // explicit passes through
  setenv("IXP_SIM_THREADS", "4", 1);
  env::refresh_for_tests();
  EXPECT_EQ(sim::resolve_sim_threads(0), 4);   // env fills in auto
  EXPECT_EQ(sim::resolve_sim_threads(2), 2);   // explicit beats env
  setenv("IXP_SIM_THREADS", "garbage", 1);
  env::refresh_for_tests();
  EXPECT_EQ(sim::resolve_sim_threads(0), 1);   // unparsable -> serial
  unsetenv("IXP_SIM_THREADS");
  env::refresh_for_tests();
}

// ---------------------------------------------------------------------------
// Campaign and fleet integration

// Renders everything the selftest goldens depend on: the quantitative
// counters, every far-side RTT sample bit pattern, the per-link verdicts,
// and the full metrics export.
std::string render_campaign(const VpCampaignResult& res, const obs::Registry& reg) {
  std::ostringstream out;
  out << res.probes_sent << " " << res.probes_lost << " " << res.rounds_completed << " "
      << res.bdrmap_runs << " " << res.fault_events << " " << res.probes_suppressed << " "
      << res.outage_rounds << "\n";
  for (const auto& s : res.series) {
    out << s.key << ":";
    for (const double v : s.far_rtt.ms) out << std::bit_cast<std::uint64_t>(v) << ",";
    out << "\n";
  }
  for (const auto& rep : res.reports) out << rep.congested() << " ";
  out << "\n";
  obs::write_json(out, reg);
  return out.str();
}

TEST(Campaign, ByteIdenticalAcrossSimThreadsWithFaultPlan) {
  // The committed acceptance matrix: --sim-threads 1, 2, 8 on the paper
  // substrate, under the default fault plan, must reproduce the serial
  // campaign byte for byte -- results AND metrics export.  The 2-thread
  // entry resolves through the IXP_SIM_THREADS env knob to pin that path.
  const auto specs = make_all_vps();
  const VpSpec& spec = specs[0];
  CampaignOptions base;
  base.round_interval = kMinute * 60;
  base.duration_override = kDay * 7;
  const ScenarioPlan* splan = find_plan("default");
  ASSERT_NE(splan, nullptr);
  const FaultPlan* plan = &splan->faults;

  auto run_once = [&](int sim_threads) {
    CampaignOptions o = base;
    o.sim_threads = sim_threads;
    obs::Registry reg;
    o.metrics = &reg;
    auto rt = build_scenario(spec);
    auto faults = attach_fault_plan(*rt, spec, *plan, 42,
                                    spec.campaign_start + o.duration_override);
    o.faults = faults.get();
    const auto res = run_campaign(*rt, spec, o);
    return render_campaign(res, reg);
  };

  const std::string want = run_once(1);
  ASSERT_FALSE(want.empty());

  setenv("IXP_SIM_THREADS", "2", 1);
  env::refresh_for_tests();
  EXPECT_EQ(run_once(0), want) << "sim-threads=2 (via IXP_SIM_THREADS)";
  unsetenv("IXP_SIM_THREADS");
  env::refresh_for_tests();

  EXPECT_EQ(run_once(8), want) << "sim-threads=8";
}

TEST(Fleet, JobsUsedIgnoresSimThreads) {
  // Campaigns run no LP workers, so --sim-threads must not shrink the
  // fleet's worker budget.
  const auto specs = make_all_vps();
  FleetOptions fopt;
  fopt.campaign.round_interval = kMinute * 60;
  fopt.campaign.duration_override = kDay * 2;
  fopt.jobs = 6;
  fopt.campaign.sim_threads = 3;
  const auto fleet = run_fleet(specs, fopt);
  EXPECT_EQ(fleet.jobs_used, 6);
  ASSERT_EQ(fleet.results.size(), specs.size());
  for (const auto& r : fleet.results) EXPECT_GT(r.probes_sent, 0u);

  FleetOptions tight = fopt;
  tight.jobs = 2;
  tight.campaign.sim_threads = 8;
  EXPECT_EQ(run_fleet(specs, tight).jobs_used, 2);
}

}  // namespace
}  // namespace ixp::analysis
