#include "analysis/benchmarks.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>

#include <bit>
#include <cmath>

#include <iterator>
#include <thread>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "stats/descriptive.h"
#include "tslp/classifier.h"
#include "tslp/engine.h"
#include "tslp/online.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ixp::analysis {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// probe_fabric: the TSLP inner loop in isolation.
//
// VP host -> border router -> IXP fabric -> M member routers, each with a
// stub network behind it.  Alternating probes: a TTL-limited probe that
// expires at the member router after crossing the fabric (the canonical
// TSLP far-end probe) and a full-TTL echo to the member's fabric address.
// Links carry no cross traffic, so the walk itself -- hop resolution, FIB
// lookups, queue queries -- is all that is measured.

struct FabricWorld {
  sim::Network net;
  sim::NodeId vp = sim::kInvalidNode;
  std::vector<net::Ipv4Address> fabric_addrs;  ///< member fabric addresses
  std::vector<net::Ipv4Address> far_addrs;     ///< stub addresses behind members
  net::Ipv4Address vp_addr;
};

void build_fabric_world(FabricWorld& w, int members, std::uint64_t seed) {
  w.net.seed(seed);
  auto& host = w.net.add_host("vp");
  auto& border = w.net.add_router("border", {});
  auto& fabric = w.net.add_switch("fabric");

  const auto lan_subnet = *net::Ipv4Prefix::parse("10.0.0.0/30");
  const auto peering = *net::Ipv4Prefix::parse("196.60.0.0/24");
  w.vp_addr = net::Ipv4Address(10, 0, 0, 2);
  const auto border_lan = net::Ipv4Address(10, 0, 0, 1);
  const auto border_fab = net::Ipv4Address(196, 60, 0, 1);

  sim::LinkConfig lan;
  lan.capacity_bps = 1e9;
  lan.prop_delay = milliseconds(0.1);
  w.net.connect(host.id(), w.vp_addr, border.id(), border_lan, lan, lan_subnet);
  host.set_gateway(0, border_lan);
  w.net.connect(border.id(), border_fab, fabric.id(), {}, lan, peering);
  border.add_route(lan_subnet, {0, {}});
  border.add_route(peering, {1, {}});

  w.vp = host.id();
  for (int m = 0; m < members; ++m) {
    auto& member = w.net.add_router(strformat("member%d", m), {});
    const auto fab_addr = net::Ipv4Address(196, 60, 0, static_cast<std::uint8_t>(10 + m));
    w.net.connect(member.id(), fab_addr, fabric.id(), {}, lan, peering);
    const auto far_subnet =
        *net::Ipv4Prefix::parse(strformat("10.%d.0.0/30", m + 1));
    const auto member_far = net::Ipv4Address(10, static_cast<std::uint8_t>(m + 1), 0, 1);
    const auto stub_addr = net::Ipv4Address(10, static_cast<std::uint8_t>(m + 1), 0, 2);
    auto& stub = w.net.add_host(strformat("stub%d", m));
    w.net.connect(member.id(), member_far, stub.id(), stub_addr, lan, far_subnet);
    stub.set_gateway(0, member_far);
    member.add_route(peering, {0, {}});
    member.add_route(far_subnet, {1, {}});
    member.add_route(lan_subnet, {0, border_fab});
    border.add_route(far_subnet, {1, fab_addr});
    w.fabric_addrs.push_back(fab_addr);
    w.far_addrs.push_back(stub_addr);
  }
}

net::Packet make_probe(FabricWorld& w, net::Ipv4Address dst, std::uint8_t ttl,
                       std::uint16_t seq) {
  net::Packet p;
  p.src = w.vp_addr;
  p.dst = dst;
  p.ttl = ttl;
  p.icmp_type = net::IcmpType::kEchoRequest;
  p.ident = 0x8001;
  p.seq = seq;
  p.sent_at = w.net.simulator().now();
  return p;
}

BenchMeasurement bench_probe_fabric(const BenchOptions& opt, std::ostream* log) {
  const int members = opt.smoke ? 8 : 24;
  const std::uint64_t probes_per_pass = opt.smoke ? 20'000 : 200'000;
  FabricWorld w;
  build_fabric_world(w, members, opt.seed);

  BenchMeasurement m;
  m.name = "probe_fabric";
  m.unit = "probes_per_sec";
  m.items = probes_per_pass;

  const int passes = 1 + opt.repeats;
  auto& sim = w.net.simulator();
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t hops_before = w.net.hops_walked;
    std::uint64_t answered = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < probes_per_pass; ++i) {
      const std::size_t member = static_cast<std::size_t>(i % members);
      // Even probes: TTL expiry at the member router, reached across the
      // fabric.  Odd probes: full-TTL echo to the member's fabric address.
      const bool expiry = (i & 1) == 0;
      const auto pkt = expiry
                           ? make_probe(w, w.far_addrs[member], 2, static_cast<std::uint16_t>(i))
                           : make_probe(w, w.fabric_addrs[member], 64, static_cast<std::uint16_t>(i));
      const auto res = w.net.probe(w.vp, pkt);
      answered += res.answered ? 1 : 0;
      // Pace the probes in simulated time, as the real prober's rate limit
      // does: probe bytes occupy queue buffers and must drain between sends.
      sim.advance_to(sim.now() + milliseconds(1.0));
    }
    const double sec = elapsed_seconds(t0, Clock::now());
    const std::uint64_t hops = w.net.hops_walked - hops_before;
    const double per_sec = static_cast<double>(probes_per_pass) / sec;
    const double ns_per_hop = hops > 0 ? sec * 1e9 / static_cast<double>(hops) : 0.0;
    m.wall_seconds += sec;
    m.hops = hops;
    if (pass == 0) {
      m.cold_per_sec = per_sec;
      m.cold_ns_per_hop = ns_per_hop;
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    } else if (per_sec > m.warm_per_sec) {
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    }
    if (log && pass == 0 && answered != probes_per_pass) {
      *log << strformat("  probe_fabric: %llu/%llu probes answered (expected all)\n",
                        static_cast<unsigned long long>(answered),
                        static_cast<unsigned long long>(probes_per_pass));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// event_loop: event-mode echoes through the fabric topology.  Every ping
// fans into a cascade of scheduled events (transmit hops, switch latency,
// ICMP generation, the reply's hops), so this measures the Simulator's
// scheduling throughput with realistic packet-carrying closures.

BenchMeasurement bench_event_loop(const BenchOptions& opt, std::ostream*) {
  const std::uint64_t pings = opt.smoke ? 5'000 : 50'000;
  FabricWorld w;
  build_fabric_world(w, opt.smoke ? 8 : 24, opt.seed + 1);
  auto& host = static_cast<sim::Host&>(w.net.node(w.vp));
  auto& sim = w.net.simulator();

  BenchMeasurement m;
  m.name = "event_loop";
  m.unit = "events_per_sec";

  const int passes = 1 + opt.repeats;
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t executed_before = sim.executed();
    const std::uint64_t hops_before = w.net.hops_walked;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < pings; ++i) {
      auto pkt = make_probe(w, w.fabric_addrs[i % w.fabric_addrs.size()], 64,
                            static_cast<std::uint16_t>(i));
      host.send(w.net, pkt);
      sim.run();
    }
    const double sec = elapsed_seconds(t0, Clock::now());
    const std::uint64_t events = sim.executed() - executed_before;
    m.items = events;
    m.hops = w.net.hops_walked - hops_before;
    const double per_sec = static_cast<double>(events) / sec;
    const double ns_per_hop =
        m.hops > 0 ? sec * 1e9 / static_cast<double>(m.hops) : 0.0;
    m.wall_seconds += sec;
    if (pass == 0) {
      m.cold_per_sec = per_sec;
      m.cold_ns_per_hop = ns_per_hop;
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    } else if (per_sec > m.warm_per_sec) {
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// campaign_six_vp: the acceptance workload.  All six paper campaigns at the
// paper's 5-minute cadence, serially (jobs = 1), over a shortened window.
// probes/s here is what the ">= 2x vs. the previous PR" criterion tracks.

BenchMeasurement bench_campaign(const BenchOptions& opt, std::ostream* log) {
  const auto specs = make_all_vps();
  FleetOptions fopt;
  fopt.jobs = 1;
  fopt.campaign.round_interval = kMinute * 5;
  fopt.campaign.duration_override = opt.smoke ? kDay : kDay * 7;
  fopt.collect_metrics = opt.metrics;
  const auto fleet = run_fleet(specs, fopt);

  // Summed from the campaign results, not the metrics views: with
  // collect_metrics off the registries are empty by design.
  std::uint64_t probes = 0;
  std::uint64_t rounds = 0;
  for (const auto& r : fleet.results) {
    probes += r.probes_sent;
    rounds += r.rounds_completed;
  }
  BenchMeasurement m;
  m.name = "campaign_six_vp";
  m.unit = "probes_per_sec";
  m.items = probes;
  m.hops = rounds;  // rounds, not link crossings: fleet wall includes analysis
  m.wall_seconds = fleet.wall_seconds;
  m.cold_per_sec = static_cast<double>(probes) / fleet.wall_seconds;
  m.warm_per_sec = m.cold_per_sec;  // one pass: a campaign is its own warmup
  if (log) {
    *log << strformat("  campaign_six_vp: %llu probes over %llu rounds\n",
                      static_cast<unsigned long long>(probes),
                      static_cast<unsigned long long>(rounds));
  }
  return m;
}

}  // namespace

BenchReport run_sim_benchmarks(const BenchOptions& opt, std::ostream* log) {
  BenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.seed = opt.seed;
  rep.host_cpus = static_cast<int>(std::thread::hardware_concurrency());

  struct Entry {
    const char* name;
    BenchMeasurement (*fn)(const BenchOptions&, std::ostream*);
  };
  const Entry entries[] = {
      {"probe_fabric", &bench_probe_fabric},
      {"event_loop", &bench_event_loop},
      {"campaign_six_vp", &bench_campaign},
  };
  if (!opt.only.empty() && std::none_of(std::begin(entries), std::end(entries),
                                        [&](const Entry& e) { return opt.only == e.name; })) {
    throw std::invalid_argument("unknown benchmark: " + opt.only);
  }
  for (const auto& e : entries) {
    if (!opt.only.empty() && opt.only != e.name) continue;
    if (log) *log << "running " << e.name << " ...\n";
    rep.benches.push_back(e.fn(opt, log));
    if (log) {
      const auto& m = rep.benches.back();
      *log << strformat("  %-16s cold %12.0f /s   warm %12.0f /s   (%s)\n", m.name.c_str(),
                        m.cold_per_sec, m.warm_per_sec, m.unit.c_str());
      if (m.cold_ns_per_hop > 0) {
        *log << strformat("  %-16s cold %10.1f ns/hop warm %10.1f ns/hop\n", "",
                          m.cold_ns_per_hop, m.warm_ns_per_hop);
      }
    }
  }
  return rep;
}

void write_bench_json(std::ostream& out, const BenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-sim/3\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"host_cpus\": %d,\n", rep.host_cpus);
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rep.benches.size(); ++i) {
    const auto& m = rep.benches[i];
    out << "    {\n";
    out << strformat("      \"name\": \"%s\",\n", m.name.c_str());
    out << strformat("      \"unit\": \"%s\",\n", m.unit.c_str());
    out << strformat("      \"items_per_pass\": %llu,\n",
                     static_cast<unsigned long long>(m.items));
    out << strformat("      \"hops_per_pass\": %llu,\n", static_cast<unsigned long long>(m.hops));
    out << strformat("      \"cold_per_sec\": %.1f,\n", m.cold_per_sec);
    out << strformat("      \"warm_per_sec\": %.1f,\n", m.warm_per_sec);
    out << strformat("      \"cold_ns_per_hop\": %.2f,\n", m.cold_ns_per_hop);
    out << strformat("      \"warm_ns_per_hop\": %.2f,\n", m.warm_ns_per_hop);
    out << strformat("      \"wall_seconds\": %.3f\n", m.wall_seconds);
    out << (i + 1 < rep.benches.size() ? "    },\n" : "    }\n");
  }
  out << "  ]\n";
  out << "}\n";
}

SubstrateBenchReport run_substrate_benchmark(const SubstrateBenchOptions& opt,
                                             std::ostream* log) {
  topo::TopoSpec spec;
  if (opt.smoke) {
    // CI size: a handful of small exchanges over two days.
    spec = *topo::topo_spec_preset("regional50");
    spec.name = "smoke";
    spec.ixps = 6;
    spec.days = 2;
    spec.members_max = 40;
  } else {
    const auto preset = topo::topo_spec_preset(opt.spec);
    if (!preset) {
      throw std::runtime_error("unknown topology-spec preset: " + opt.spec);
    }
    spec = *preset;
  }
  auto rep = run_substrate_benchmark(spec, opt, log);
  rep.workload = opt.smoke ? "smoke" : "full";
  return rep;
}

SubstrateBenchReport run_substrate_benchmark(const topo::TopoSpec& spec_in,
                                             const SubstrateBenchOptions& opt,
                                             std::ostream* log) {
  topo::TopoSpec spec = spec_in;
  if (opt.seed != 0) spec.seed = opt.seed;

  const auto vps = generate_substrate(spec);
  const auto summary = summarize_substrate(spec, vps);
  if (log) {
    *log << strformat("substrate %s: %d IXPs, %d members, %llu monitored links\n",
                      spec.name.c_str(), summary.ixps, summary.members,
                      static_cast<unsigned long long>(summary.monitored_links()));
  }

  FleetOptions fopt;
  fopt.jobs = opt.jobs;
  fopt.campaign.round_interval = opt.round_interval;
  fopt.campaign.duration_override = opt.duration_override;
  fopt.campaign.columnar = true;  // the whole point: bounded-RSS storage
  fopt.collect_metrics = false;   // measure the instrumentation-free path
  const auto fleet = run_fleet(vps, fopt);

  SubstrateBenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.spec = spec.name;
  rep.seed = spec.seed;
  rep.jobs = fleet.jobs_used;
  rep.ixps = vps.size();
  rep.wall_seconds = fleet.wall_seconds;
  for (const auto& r : fleet.results) {
    rep.links += r.series.size();
    rep.rounds += r.rounds_completed;
    rep.probes += r.probes_sent;
    if (r.columns != nullptr) {
      rep.samples += r.columns->samples_total();
      rep.resident_bytes += r.columns->resident_bytes();
      rep.raw_bytes += r.columns->raw_bytes();
    }
  }
  // One link-round = one monitored link advanced one probing round; every
  // link-round stores one near and one far sample, so samples/2 counts
  // them exactly even though campaigns monitor different link sets.
  const double link_rounds = static_cast<double>(rep.samples) / 2.0;
  rep.link_rounds_per_sec = rep.wall_seconds > 0 ? link_rounds / rep.wall_seconds : 0.0;
  rep.probes_per_sec =
      rep.wall_seconds > 0 ? static_cast<double>(rep.probes) / rep.wall_seconds : 0.0;
  rep.bytes_per_link =
      rep.links > 0 ? static_cast<double>(rep.resident_bytes) / static_cast<double>(rep.links)
                    : 0.0;
  rep.raw_bytes_per_link =
      rep.links > 0 ? static_cast<double>(rep.raw_bytes) / static_cast<double>(rep.links) : 0.0;
  rep.compression_ratio =
      rep.resident_bytes > 0
          ? static_cast<double>(rep.raw_bytes) / static_cast<double>(rep.resident_bytes)
          : 0.0;
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) rep.peak_rss_kb = ru.ru_maxrss;
  rep.host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (log) {
    *log << strformat(
        "  %llu links, %.0f link-rounds/s, %.1f B/link encoded (%.0fx vs raw), "
        "peak RSS %ld MB, %.1fs wall (%d jobs)\n",
        static_cast<unsigned long long>(rep.links), rep.link_rounds_per_sec,
        rep.bytes_per_link, rep.compression_ratio, rep.peak_rss_kb / 1024, rep.wall_seconds,
        rep.jobs);
  }
  return rep;
}

namespace {

// ---------------------------------------------------------------------------
// TSLP statistics benchmark.
//
// The corpus is synthetic but sized from the same topology-spec presets
// the substrate benchmark runs: monitored-link count from the generated
// substrate, samples from the spec's campaign length at the 5-minute
// cadence, behaviour mix (congested/noisy fractions) from the spec's
// knobs.  Generating series directly keeps the harness measuring the
// statistics path alone -- no simulator time in the denominator.

/// One synthetic link: clean near side, far side optionally carrying a
/// daily congestion plateau, heavy-tailed ICMP outliers, random unanswered
/// rounds, and occasional maintenance gap runs on both sides.
tslp::LinkSeries make_tslp_link(const topo::TopoSpec& spec, std::uint64_t rounds,
                                std::size_t link_index) {
  Rng rng(spec.seed ^ (0x9e3779b97f4a7c15ULL * (link_index + 1)));
  const bool congested = rng.chance(spec.congested_fraction);
  const bool noisy = !congested && rng.chance(spec.noise_fraction);
  const double base = rng.uniform(1.5, 45.0);
  const double outlier_rate = noisy ? 0.15 : 0.01;
  const double magnitude = rng.uniform(12.0, 28.0);
  const double onset_hour = rng.uniform(11.0, 16.0);
  const double width_hours = spec.congested_dtud_hours;

  tslp::LinkSeries ls;
  ls.key = strformat("bench-link-%zu", link_index);
  ls.near_rtt.interval = kMinute * 5;
  ls.far_rtt.interval = kMinute * 5;
  const auto spd = static_cast<std::uint64_t>(kDay.count() / (kMinute * 5).count());
  ls.near_rtt.ms.reserve(rounds);
  ls.far_rtt.ms.reserve(rounds);
  for (std::uint64_t t = 0; t < rounds; ++t) {
    const double hour = 24.0 * static_cast<double>(t % spd) / static_cast<double>(spd);
    if (rng.chance(0.015)) {  // unanswered round: both probes lost
      ls.near_rtt.ms.push_back(tslp::kMissing);
      ls.far_rtt.ms.push_back(tslp::kMissing);
      continue;
    }
    double far = base + 0.3 * std::fabs(rng.normal());
    if (congested && hour >= onset_hour && hour < onset_hour + width_hours) far += magnitude;
    if (rng.chance(outlier_rate)) far += rng.pareto(1.5, 30.0);  // slow ICMP path
    double near = 0.3 + 0.1 * std::fabs(rng.normal());
    if (rng.chance(0.01)) near += rng.pareto(1.5, 10.0);
    ls.near_rtt.ms.push_back(near);
    ls.far_rtt.ms.push_back(far);
  }
  // Maintenance outages: whole-link gap runs long enough to become
  // explicit SeriesGap markers (gap_min_run defaults to 6).
  const auto outages = 1 + rounds / (spd * 14);
  for (std::uint64_t o = 0; o < outages; ++o) {
    const auto len = static_cast<std::uint64_t>(rng.uniform_int(6, 40));
    const auto at = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rounds > len ? rounds - len : 0)));
    for (std::uint64_t k = at; k < std::min(rounds, at + len); ++k) {
      ls.near_rtt.ms[k] = tslp::kMissing;
      ls.far_rtt.ms[k] = tslp::kMissing;
    }
  }
  return ls;
}

std::vector<tslp::LinkSeries> make_tslp_corpus(const topo::TopoSpec& spec, std::uint64_t rounds,
                                               std::uint64_t links) {
  std::vector<tslp::LinkSeries> out;
  out.reserve(links);
  for (std::uint64_t i = 0; i < links; ++i) {
    out.push_back(make_tslp_link(spec, rounds, static_cast<std::size_t>(i)));
  }
  return out;
}

void fingerprint_bits(std::string& out, double v) {
  out += strformat("%016llx,",
                   static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
}

void fingerprint_shifts(std::string& out, const tslp::LevelShiftResult& r) {
  fingerprint_bits(out, r.baseline_ms);
  fingerprint_bits(out, r.coverage);
  out += strformat("ref%d;raw%zu;w%zu/%zu/%zu;", r.refused_low_coverage ? 1 : 0,
                   r.raw_episode_count, r.windows_scanned, r.windows_skipped_dark,
                   r.windows_skipped_quiet);
  for (const auto& g : r.gaps) out += strformat("g%zu+%zu;", g.begin, g.end);
  for (const auto& e : r.episodes) {
    out += strformat("e%zu+%zu:", e.begin, e.end);
    fingerprint_bits(out, e.magnitude_ms);
    fingerprint_bits(out, e.p_value);
  }
}

/// Every field a consumer can observe, bit-exact; two reports with equal
/// fingerprints are interchangeable.
std::string fingerprint_report(const tslp::LinkReport& r) {
  std::string out;
  out += strformat("v%d;p%d;nc%d;diurnal%d/%d/%d;", static_cast<int>(r.verdict),
                   static_cast<int>(r.persistence), r.near_clean ? 1 : 0,
                   r.diurnal.recurring ? 1 : 0, r.diurnal.elevated_days, r.diurnal.days_with_data);
  fingerprint_bits(out, r.diurnal.acf_day);
  fingerprint_bits(out, r.diurnal.elevated_day_frac);
  fingerprint_bits(out, r.waveform.a_w_ms);
  fingerprint_bits(out, r.waveform.weekday_peak_ms);
  fingerprint_bits(out, r.waveform.weekend_peak_ms);
  out += strformat("ud%lld;per%lld;", static_cast<long long>(r.waveform.dt_ud.count()),
                   static_cast<long long>(r.waveform.period.count()));
  out += "far:";
  fingerprint_shifts(out, r.far_shifts);
  out += "near:";
  fingerprint_shifts(out, r.near_shifts);
  return out;
}

std::vector<tslp::LinkReport> tslp_run_scalar(const std::vector<tslp::LinkSeries>& corpus,
                                              const tslp::ClassifierOptions& copt) {
  auto opt = copt;
  opt.level_shift.engine = tslp::DetectorEngine::kLegacy;
  const tslp::CongestionClassifier classifier(opt);
  std::vector<tslp::LinkReport> out;
  out.reserve(corpus.size());
  for (const auto& ls : corpus) out.push_back(classifier.classify(ls));
  return out;
}

std::vector<tslp::LinkReport> tslp_run_batch(const std::vector<tslp::LinkSeries>& corpus,
                                             const tslp::ClassifierOptions& copt) {
  auto far_opts = copt.level_shift;
  far_opts.engine = tslp::DetectorEngine::kFast;
  auto near_opts = far_opts;
  near_opts.threshold_ms = copt.near_threshold_ms;

  // SoA pack + sweep: the pack cost is part of the measurement (it is what
  // a caller adopting the batch engine pays too).
  tslp::SeriesBatch far_batch;
  tslp::SeriesBatch near_batch;
  std::size_t far_samples = 0;
  std::size_t near_samples = 0;
  for (const auto& ls : corpus) {
    far_samples += ls.far_rtt.ms.size();
    near_samples += ls.near_rtt.ms.size();
  }
  far_batch.reserve(corpus.size(), far_samples);
  near_batch.reserve(corpus.size(), near_samples);
  for (const auto& ls : corpus) {
    far_batch.add(ls.key, ls.far_rtt);
    near_batch.add(ls.key, ls.near_rtt);
  }
  auto far = tslp::detect_batch(far_batch, far_opts);
  auto near = tslp::detect_batch(near_batch, near_opts);

  const tslp::CongestionClassifier classifier(copt);
  std::vector<tslp::LinkReport> out;
  out.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    out.push_back(classifier.classify_with_shifts(corpus[i], std::move(far[i]),
                                                  std::move(near[i])));
  }
  return out;
}

std::vector<tslp::LinkReport> tslp_run_online(const std::vector<tslp::LinkSeries>& corpus,
                                              const tslp::ClassifierOptions& copt) {
  auto far_opts = copt.level_shift;
  far_opts.engine = tslp::DetectorEngine::kFast;
  auto near_opts = far_opts;
  near_opts.threshold_ms = copt.near_threshold_ms;
  const tslp::CongestionClassifier classifier(copt);

  // Day-sized chunks model campaign segments arriving between membership
  // events; the online detector's results are chunking-invariant.
  const auto chunk = static_cast<std::size_t>(kDay.count() / (kMinute * 5).count());
  tslp::DetectScratch scratch;
  std::vector<tslp::LinkReport> out;
  out.reserve(corpus.size());
  for (const auto& ls : corpus) {
    tslp::OnlineLevelShift far(far_opts, ls.far_rtt.start, ls.far_rtt.interval);
    tslp::OnlineLevelShift near(near_opts, ls.near_rtt.start, ls.near_rtt.interval);
    for (std::size_t at = 0; at < ls.far_rtt.ms.size(); at += chunk) {
      const auto n = std::min(chunk, ls.far_rtt.ms.size() - at);
      far.push(std::span<const double>(ls.far_rtt.ms.data() + at, n));
      near.push(std::span<const double>(ls.near_rtt.ms.data() + at, n));
    }
    out.push_back(classifier.classify_with_shifts(
        ls, far.finalize(tslp::view_of(ls.far_rtt), scratch),
        near.finalize(tslp::view_of(ls.near_rtt), scratch)));
  }
  return out;
}

}  // namespace

TslpBenchReport run_tslp_benchmark(const TslpBenchOptions& opt, std::ostream* log) {
  topo::TopoSpec spec;
  if (opt.smoke) {
    spec = *topo::topo_spec_preset("regional50");
    spec.name = "smoke";
    spec.ixps = 6;
    spec.days = 2;
    spec.members_max = 40;
  } else {
    const auto preset = topo::topo_spec_preset(opt.spec);
    if (!preset) {
      throw std::runtime_error("unknown topology-spec preset: " + opt.spec);
    }
    spec = *preset;
  }
  if (opt.seed != 0) spec.seed = opt.seed;

  const auto vps = generate_substrate(spec);
  const auto summary = summarize_substrate(spec, vps);
  const std::uint64_t links = summary.monitored_links();
  const auto rounds = static_cast<std::uint64_t>(spec.days) *
                      static_cast<std::uint64_t>(kDay.count() / (kMinute * 5).count());
  if (log) {
    *log << strformat("tslp corpus from %s: %llu links x %llu rounds\n", spec.name.c_str(),
                      static_cast<unsigned long long>(links),
                      static_cast<unsigned long long>(rounds));
  }
  const auto corpus = make_tslp_corpus(spec, rounds, links);

  TslpBenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.spec = spec.name;
  rep.seed = spec.seed;
  rep.links = links;
  rep.series = links * 2;
  rep.samples_per_series = rounds;
  rep.samples_total = links * 2 * rounds;

  const tslp::ClassifierOptions copt;  // paper defaults; engines overridden per run
  struct Engine {
    const char* name;
    std::vector<tslp::LinkReport> (*fn)(const std::vector<tslp::LinkSeries>&,
                                        const tslp::ClassifierOptions&);
  };
  const Engine engines[] = {
      {"scalar", &tslp_run_scalar},
      {"batch", &tslp_run_batch},
      {"online", &tslp_run_online},
  };
  // Passes interleave the engines (scalar, batch, online, scalar, ...), so
  // each warm pass times all three back to back under the same host
  // conditions; each speedup is the median of its per-pass ratios.
  const int warm_passes = std::max(kTslpSpeedupPairs, opt.repeats);
  std::vector<std::vector<tslp::LinkReport>> first_pass;
  std::vector<std::vector<double>> warm_seconds(std::size(engines));
  for (const auto& e : engines) rep.engines.push_back(TslpEngineMeasurement{e.name});
  for (int pass = 0; pass <= warm_passes; ++pass) {
    for (std::size_t k = 0; k < std::size(engines); ++k) {
      if (log) *log << strformat("running tslp %s (pass %d) ...\n", engines[k].name, pass);
      TslpEngineMeasurement& m = rep.engines[k];
      const auto t0 = Clock::now();
      auto reports = engines[k].fn(corpus, copt);
      const double sec = elapsed_seconds(t0, Clock::now());
      const double per_sec = sec > 0 ? static_cast<double>(rep.series) / sec : 0.0;
      m.wall_seconds += sec;
      if (pass == 0) {
        m.cold_series_per_sec = per_sec;
        first_pass.push_back(std::move(reports));
      } else {
        m.warm_series_per_sec = std::max(m.warm_series_per_sec, per_sec);
        warm_seconds[k].push_back(sec);
      }
    }
  }
  for (const auto& m : rep.engines) {
    if (!log) break;
    *log << strformat("  %-8s cold %10.1f series/s   warm %10.1f series/s\n", m.name.c_str(),
                      m.cold_series_per_sec, m.warm_series_per_sec);
  }

  // Equivalence: all three engines, byte-identical on every link.
  rep.equivalent = true;
  for (std::size_t i = 0; i < corpus.size() && rep.equivalent; ++i) {
    const auto scalar_fp = fingerprint_report(first_pass[0][i]);
    for (std::size_t k = 1; k < first_pass.size(); ++k) {
      if (fingerprint_report(first_pass[k][i]) != scalar_fp) {
        rep.equivalent = false;
        if (log) {
          *log << strformat("  engine %s DIVERGES from scalar on link %zu\n",
                            rep.engines[k].name.c_str(), i);
        }
        break;
      }
    }
  }

  // Per-pair ratio = scalar seconds / engine seconds within one warm pass.
  const auto pair_ratios = [&](std::size_t k) {
    std::vector<double> r;
    for (std::size_t p = 0; p < warm_seconds[k].size(); ++p) {
      r.push_back(warm_seconds[k][p] > 0 ? warm_seconds[0][p] / warm_seconds[k][p] : 0.0);
    }
    return r;
  };
  rep.speedup_batch_pairs = pair_ratios(1);
  rep.speedup_online_pairs = pair_ratios(2);
  rep.speedup_batch = stats::median(rep.speedup_batch_pairs);
  rep.speedup_online = stats::median(rep.speedup_online_pairs);

  // Detector telemetry, mirrored through the obs registry under the
  // campaign metric names so the bench reads the same counters the fleet
  // metrics table scrapes.
  obs::Registry reg;
  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
  for (const auto& r : first_pass[1]) {
    scanned += r.far_shifts.windows_scanned + r.near_shifts.windows_scanned;
    skipped += r.far_shifts.windows_skipped_dark + r.far_shifts.windows_skipped_quiet +
               r.near_shifts.windows_skipped_dark + r.near_shifts.windows_skipped_quiet;
    rep.episodes += r.far_shifts.episodes.size() + r.near_shifts.episodes.size();
    rep.congested_links += r.congested() ? 1 : 0;
  }
  reg.counter(metric::kDetectorWindowsScanned)->set(scanned);
  reg.counter(metric::kDetectorWindowsSkipped)->set(skipped);
  rep.windows_scanned = reg.counter(metric::kDetectorWindowsScanned)->value();
  rep.windows_skipped = reg.counter(metric::kDetectorWindowsSkipped)->value();

  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) rep.peak_rss_kb = ru.ru_maxrss;
  rep.host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (log) {
    *log << strformat(
        "  speedup: batch %.2fx, online %.2fx (%s); %llu episodes, %llu congested links\n",
        rep.speedup_batch, rep.speedup_online, rep.equivalent ? "equivalent" : "DIVERGENT",
        static_cast<unsigned long long>(rep.episodes),
        static_cast<unsigned long long>(rep.congested_links));
  }
  return rep;
}

void write_tslp_bench_json(std::ostream& out, const TslpBenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-tslp/1\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", rep.spec.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"links\": %llu,\n", static_cast<unsigned long long>(rep.links));
  out << strformat("  \"series\": %llu,\n", static_cast<unsigned long long>(rep.series));
  out << strformat("  \"samples_per_series\": %llu,\n",
                   static_cast<unsigned long long>(rep.samples_per_series));
  out << strformat("  \"samples_total\": %llu,\n",
                   static_cast<unsigned long long>(rep.samples_total));
  out << "  \"engines\": [\n";
  for (std::size_t i = 0; i < rep.engines.size(); ++i) {
    const auto& m = rep.engines[i];
    out << "    {\n";
    out << strformat("      \"name\": \"%s\",\n", m.name.c_str());
    out << strformat("      \"cold_series_per_sec\": %.1f,\n", m.cold_series_per_sec);
    out << strformat("      \"warm_series_per_sec\": %.1f,\n", m.warm_series_per_sec);
    out << strformat("      \"wall_seconds\": %.3f\n", m.wall_seconds);
    out << (i + 1 < rep.engines.size() ? "    },\n" : "    }\n");
  }
  out << "  ],\n";
  const auto ratio_list = [](const std::vector<double>& r) {
    std::string s = "[";
    for (std::size_t i = 0; i < r.size(); ++i) s += strformat(i ? ", %.2f" : "%.2f", r[i]);
    return s + "]";
  };
  out << strformat("  \"speedup_batch\": %.2f,\n", rep.speedup_batch);
  out << strformat("  \"speedup_batch_pairs\": %s,\n", ratio_list(rep.speedup_batch_pairs).c_str());
  out << strformat("  \"speedup_online\": %.2f,\n", rep.speedup_online);
  out << strformat("  \"speedup_online_pairs\": %s,\n",
                   ratio_list(rep.speedup_online_pairs).c_str());
  out << strformat("  \"equivalent\": %s,\n", rep.equivalent ? "true" : "false");
  out << strformat("  \"episodes\": %llu,\n", static_cast<unsigned long long>(rep.episodes));
  out << strformat("  \"congested_links\": %llu,\n",
                   static_cast<unsigned long long>(rep.congested_links));
  out << strformat("  \"windows_scanned\": %llu,\n",
                   static_cast<unsigned long long>(rep.windows_scanned));
  out << strformat("  \"windows_skipped\": %llu,\n",
                   static_cast<unsigned long long>(rep.windows_skipped));
  out << strformat("  \"peak_rss_kb\": %ld,\n", rep.peak_rss_kb);
  out << strformat("  \"host_cpus\": %d\n", rep.host_cpus);
  out << "}\n";
}

void write_substrate_bench_json(std::ostream& out, const SubstrateBenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-substrate/1\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", rep.spec.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"jobs\": %d,\n", rep.jobs);
  out << strformat("  \"ixps\": %zu,\n", rep.ixps);
  out << strformat("  \"links\": %llu,\n", static_cast<unsigned long long>(rep.links));
  out << strformat("  \"rounds\": %llu,\n", static_cast<unsigned long long>(rep.rounds));
  out << strformat("  \"samples\": %llu,\n", static_cast<unsigned long long>(rep.samples));
  out << strformat("  \"probes\": %llu,\n", static_cast<unsigned long long>(rep.probes));
  out << strformat("  \"wall_seconds\": %.3f,\n", rep.wall_seconds);
  out << strformat("  \"link_rounds_per_sec\": %.1f,\n", rep.link_rounds_per_sec);
  out << strformat("  \"probes_per_sec\": %.1f,\n", rep.probes_per_sec);
  out << strformat("  \"resident_bytes\": %llu,\n",
                   static_cast<unsigned long long>(rep.resident_bytes));
  out << strformat("  \"raw_bytes\": %llu,\n", static_cast<unsigned long long>(rep.raw_bytes));
  out << strformat("  \"bytes_per_link\": %.1f,\n", rep.bytes_per_link);
  out << strformat("  \"raw_bytes_per_link\": %.1f,\n", rep.raw_bytes_per_link);
  out << strformat("  \"compression_ratio\": %.1f,\n", rep.compression_ratio);
  out << strformat("  \"peak_rss_kb\": %ld,\n", rep.peak_rss_kb);
  out << strformat("  \"host_cpus\": %d\n", rep.host_cpus);
  out << "}\n";
}

}  // namespace ixp::analysis
