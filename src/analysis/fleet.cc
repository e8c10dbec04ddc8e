#include "analysis/fleet.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>

#include "sim/faults.h"
#include "util/fault_plan.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace ixp::analysis {
namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

long peak_rss_kb_now() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

std::string human_count(double v) {
  if (v >= 1e9) return strformat("%.1fG", v / 1e9);
  if (v >= 1e6) return strformat("%.1fM", v / 1e6);
  if (v >= 1e3) return strformat("%.1fk", v / 1e3);
  return strformat("%.0f", v);
}

}  // namespace

double estimate_campaign_cost(const VpSpec& spec, const CampaignOptions& opt) {
  const TimePoint start = spec.campaign_start;
  const TimePoint end = opt.duration_override.count() > 0 ? start + opt.duration_override
                                                          : spec.campaign_end;
  const auto interval =
      static_cast<double>(std::max<std::int64_t>(1, opt.round_interval.count()));
  auto overlap_rounds = [&](const LinkWindow& w) {
    const TimePoint lo = std::max(w.up, start);
    const TimePoint hi = std::min(w.down, end);
    if (hi <= lo) return 0.0;
    return static_cast<double>((hi - lo).count()) / interval;
  };
  // Fixed charges: scenario build + route computation + initial bdrmap,
  // then per-neighbor router/announcement/bdrmap work.  The units are
  // "link-rounds": one monitored link probed for one round costs 1.
  double cost = 1000.0;
  for (const NeighborSpec& n : spec.neighbors) {
    cost += 200.0;
    const int lan_count = std::max<int>(n.lan_routers, static_cast<int>(n.lan_windows.size()));
    const int ptp_count = std::max<int>(n.ptp_links, static_cast<int>(n.ptp_windows.size()));
    // Silent neighbors are never probed, but their links still carry
    // simulated cross-traffic, so they are not free either.
    const double weight = n.silent ? 0.25 : 1.0;
    const LinkWindow whole{n.join, n.leave};
    for (int i = 0; i < lan_count; ++i) {
      const LinkWindow& w =
          static_cast<std::size_t>(i) < n.lan_windows.size() ? n.lan_windows[i] : whole;
      cost += weight * overlap_rounds(w);
    }
    for (int j = 0; j < ptp_count; ++j) {
      const LinkWindow& w =
          static_cast<std::size_t>(j) < n.ptp_windows.size() ? n.ptp_windows[j] : whole;
      cost += weight * overlap_rounds(w);
    }
  }
  return cost;
}

ShardPlan plan_shards(const std::vector<VpSpec>& specs, int jobs, const CampaignOptions& opt) {
  ShardPlan plan;
  const std::size_t n = specs.size();
  const auto shard_count =
      static_cast<std::size_t>(std::clamp<std::int64_t>(jobs, 1, std::max<std::size_t>(1, n)));
  plan.cost.resize(n);
  plan.shard_of.assign(n, 0);
  plan.shards.resize(shard_count);
  for (std::size_t i = 0; i < n; ++i) plan.cost[i] = estimate_campaign_cost(specs[i], opt);

  // Heaviest first, ties by index, so the plan is a pure function of its
  // inputs.  The shards replay greedy list scheduling of that order on the
  // estimates: each campaign goes to the worker that frees up first, which
  // is what the fleet's shared queue does with real run times.
  plan.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) plan.order[i] = i;
  std::sort(plan.order.begin(), plan.order.end(), [&](std::size_t a, std::size_t b) {
    if (plan.cost[a] != plan.cost[b]) return plan.cost[a] > plan.cost[b];
    return a < b;
  });
  std::vector<double> load(shard_count, 0.0);
  for (const std::size_t idx : plan.order) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (load[s] < load[best]) best = s;
    }
    plan.shards[best].push_back(idx);
    plan.shard_of[idx] = static_cast<int>(best);
    load[best] += plan.cost[idx];
  }
  return plan;
}

std::string ShardPlan::to_string(const std::vector<VpSpec>& specs) const {
  std::string out;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    double total = 0.0;
    std::string items;
    for (const std::size_t i : shards[s]) {
      total += cost[i];
      items += strformat(" %s(%s)", i < specs.size() ? specs[i].vp_name.c_str() : "?",
                         human_count(cost[i]).c_str());
    }
    out += strformat("shard %zu: %s link-rounds |%s\n", s, human_count(total).c_str(),
                     items.c_str());
  }
  return out;
}

FleetResult run_fleet(const std::vector<VpSpec>& specs, const FleetOptions& opt) {
  FleetResult out;
  out.results.resize(specs.size());
  out.metrics.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.metrics[i].vp_name = specs[i].vp_name;
    out.metrics[i].vp_index = i;
  }
  out.jobs_used = ThreadPool::resolve_jobs(opt.jobs, specs.size());

  const auto fleet_t0 = WallClock::now();
  std::mutex progress_mu;
  auto emit = [&](const CampaignMetrics& m) {
    if (!opt.on_progress) return;
    std::lock_guard<std::mutex> lk(progress_mu);
    opt.on_progress(m);
  };

  // One registry shard per campaign: the owning worker is its only writer,
  // and the merge below runs after the pool drains, in spec order, so the
  // merged registry never depends on worker scheduling.
  std::vector<obs::Registry> shards(specs.size());

  auto run_one = [&](std::size_t i) {
    CampaignMetrics& m = out.metrics[i];  // written only by this worker
    const auto t0 = WallClock::now();
    CampaignOptions copt = opt.campaign;
    // The shard replaces any caller-supplied registry: a single registry
    // shared across workers would race, and the fleet merge already
    // reassembles the whole picture in FleetResult::registry.
    copt.metrics = opt.collect_metrics ? &shards[i] : nullptr;
    copt.on_progress = [&](const CampaignProgress& p) {
      if (copt.metrics != nullptr) m.counters = *copt.metrics;  // snapshot
      m.wall_seconds = seconds_since(t0);
      if (!p.finished) emit(m);  // the finished event fires below, with RSS
    };
    auto rt = build_scenario(specs[i]);
    std::shared_ptr<sim::FaultInjector> faults;
    if (opt.fault_plan != nullptr && !opt.fault_plan->empty()) {
      const TimePoint fstart = specs[i].campaign_start;
      const TimePoint fend = copt.duration_override.count() > 0
                                 ? fstart + copt.duration_override
                                 : specs[i].campaign_end;
      // Per-VP seed derived from the spec index, never from worker
      // identity, so the expanded plan is byte-identical for any --jobs.
      faults = attach_fault_plan(*rt, specs[i], *opt.fault_plan,
                                 opt.fault_seed + (i + 1) * 0x9e3779b97f4a7c15ULL, fend);
      copt.faults = faults.get();
    }
    auto result = run_campaign(*rt, specs[i], copt);
    if (copt.metrics != nullptr) m.counters = *copt.metrics;  // final snapshot
    m.wall_seconds = seconds_since(t0);
    m.probes_per_sec =
        m.wall_seconds > 0 ? static_cast<double>(m.probes_sent()) / m.wall_seconds : 0;
    m.peak_rss_kb = peak_rss_kb_now();
    m.finished = true;
    out.results[i] = std::move(result);
    emit(m);
  };

  // Hand campaigns out heaviest first from the pool's one queue: a worker
  // that finishes early takes the next campaign instead of idling behind a
  // fixed shard whose estimate was off.  Results are keyed by spec index
  // and the registry merge below is in spec order, so the dispatch order
  // affects only wall clock, never output bytes.
  out.plan = plan_shards(specs, out.jobs_used, opt.campaign);
  std::vector<std::exception_ptr> errors(specs.size());
  ThreadPool pool(out.jobs_used);
  pool.parallel_for(out.plan.order.size(), [&](std::size_t k) {
    const std::size_t i = out.plan.order[k];
    try {
      run_one(i);
    } catch (...) {
      // The pool would report the lowest *dispatch* position; the fleet
      // contract is the lowest spec index, rethrown after the drain.
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Merge in spec order: labelled per-VP copies first, then the unlabelled
  // fleet-wide sums.  Deterministic for any job count by construction.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.registry.merge_from(shards[i], specs[i].vp_name);
    out.registry.merge_from(shards[i]);
  }

  out.wall_seconds = seconds_since(fleet_t0);
  return out;
}

FleetStatusPrinter::FleetStatusPrinter(std::ostream& out, const std::vector<VpSpec>& specs)
    : out_(out), cells_(specs.size()) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cells_[i] = strformat("[%s ...]", specs[i].vp_name.c_str());
  }
}

FleetStatusPrinter::~FleetStatusPrinter() { finish(); }

void FleetStatusPrinter::operator()(const CampaignMetrics& m) {
  if (m.vp_index >= cells_.size()) return;
  cells_[m.vp_index] =
      m.finished
          ? strformat("[%s ok %.1fs]", m.vp_name.c_str(), m.wall_seconds)
          : strformat("[%s %llur %sp]", m.vp_name.c_str(),
                      static_cast<unsigned long long>(m.rounds_completed()),
                      human_count(static_cast<double>(m.probes_sent())).c_str());
  render();
}

void FleetStatusPrinter::render() {
  std::string line;
  for (const auto& c : cells_) {
    if (!line.empty()) line += ' ';
    line += c;
  }
  const std::size_t width = line.size();
  if (width < last_width_) line.append(last_width_ - width, ' ');
  last_width_ = width;
  out_ << '\r' << line << std::flush;
}

void FleetStatusPrinter::finish() {
  if (finished_) return;
  finished_ = true;
  if (last_width_ > 0) out_ << '\n' << std::flush;
}

void print_fleet_metrics(std::ostream& out, const FleetResult& fleet) {
  out << strformat("%-5s %9s %10s %10s %7s %6s %7s %7s %8s %8s %9s\n", "VP", "rounds",
                   "probes", "probes/s", "bdrmap", "links", "faults", "suppr", "relearns",
                   "wall", "peak RSS");
  for (const auto& m : fleet.metrics) {
    out << strformat("%-5s %9llu %10s %10s %7llu %6zu %7llu %7s %8llu %7.1fs %7ldMB\n",
                     m.vp_name.c_str(),
                     static_cast<unsigned long long>(m.rounds_completed()),
                     human_count(static_cast<double>(m.probes_sent())).c_str(),
                     human_count(m.probes_per_sec).c_str(),
                     static_cast<unsigned long long>(m.bdrmap_runs()), m.monitored_links(),
                     static_cast<unsigned long long>(m.fault_events()),
                     human_count(static_cast<double>(m.probes_suppressed())).c_str(),
                     static_cast<unsigned long long>(m.stale_relearns() + m.loss_relearns()),
                     m.wall_seconds, m.peak_rss_kb / 1024);
  }
  // Busy share: how much of the workers' wall went to campaigns; the rest
  // is packing loss (workers idle while the last campaigns finish).
  double busy = 0.0;
  for (const auto& m : fleet.metrics) busy += m.wall_seconds;
  const double capacity = fleet.jobs_used * fleet.wall_seconds;
  out << strformat("fleet: %d job%s, %.1fs wall, %.0f%% busy\n", fleet.jobs_used,
                   fleet.jobs_used == 1 ? "" : "s", fleet.wall_seconds,
                   capacity > 0 ? 100.0 * busy / capacity : 0.0);
}

}  // namespace ixp::analysis
