#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "prober/tslp_driver.h"
#include "sim/network.h"
#include "sim/queue.h"
#include "sim/traffic.h"
#include "util/check.h"
#include "util/rng.h"

namespace ixp::sim {
namespace {

// ---------------------------------------------------------------------------
// Event engine

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(kSecond * 3, [&] { order.push_back(3); });
  sim.schedule(kSecond * 1, [&] { order.push_back(1); });
  sim.schedule(kSecond * 2, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint(kSecond * 3));
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(kSecond * 1, [&] { ++fired; });
  sim.schedule(kSecond * 5, [&] { ++fired; });
  sim.run_until(TimePoint(kSecond * 2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint(kSecond * 2));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilRunsEventsAtExactlyUntil) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint until(kSecond * 2);
  sim.schedule_at(until, [&] {
    order.push_back(1);
    // Scheduled during the run, still at the boundary: it runs too.
    sim.schedule_at(until, [&] { order.push_back(2); });
  });
  sim.schedule_at(until + Duration(1), [&] { order.push_back(3); });
  sim.run_until(until);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), until);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilOnEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint(kMinute));
  EXPECT_EQ(sim.now(), TimePoint(kMinute));
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.scheduled(), 0u);
}

// A shuffled bulk push with many repeated timestamps drains in (time,
// schedule order), and the three counters agree at every stage.
TEST(Simulator, ShuffledBulkPushDrainsInTimeThenScheduleOrder) {
  constexpr int kEvents = 1000;
  constexpr int kDistinctTimes = 37;
  std::vector<int> slot(kEvents);
  for (int i = 0; i < kEvents; ++i) slot[static_cast<std::size_t>(i)] = i % kDistinctTimes;
  Rng rng(7);
  std::shuffle(slot.begin(), slot.end(), rng);

  Simulator sim;
  std::vector<std::pair<TimePoint, int>> fired;  // (fire time, schedule index)
  for (int i = 0; i < kEvents; ++i) {
    const TimePoint at(kMillisecond * slot[static_cast<std::size_t>(i)]);
    sim.schedule_at(at, [&sim, &fired, i] { fired.emplace_back(sim.now(), i); });
  }
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(sim.scheduled(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(sim.executed(), 0u);

  sim.run_until(TimePoint(kMillisecond * (kDistinctTimes / 2)));
  EXPECT_EQ(sim.pending() + sim.executed(), sim.scheduled());
  EXPECT_EQ(fired.size(), sim.executed());

  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  for (const auto& [at, i] : fired) {
    EXPECT_EQ(at, TimePoint(kMillisecond * slot[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(sim.scheduled(), static_cast<std::uint64_t>(kEvents));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  sim.schedule(kSecond, [&] {
    ++depth;
    sim.schedule(kSecond, [&] { ++depth; });
  });
  sim.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(sim.now(), TimePoint(kSecond * 2));
}

TEST(Simulator, AdvanceToSkipsForward) {
  Simulator sim;
  sim.advance_to(TimePoint(kHour));
  EXPECT_EQ(sim.now(), TimePoint(kHour));
  sim.advance_to(TimePoint(kMinute));  // backwards is a no-op
  EXPECT_EQ(sim.now(), TimePoint(kHour));
}

TEST(Simulator, ClearResetsState) {
  Simulator sim;
  sim.schedule(kSecond, [] {});
  sim.schedule(kSecond * 2, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), TimePoint(kSecond * 2));
  EXPECT_EQ(sim.executed(), 2u);

  sim.schedule(kSecond, [] {});  // left pending across the clear
  sim.clear();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), TimePoint{});
  EXPECT_EQ(sim.executed(), 0u);

  // A cleared simulator must behave like a fresh one: an event scheduled
  // one second out fires at t=1s, not one second past the stale clock.
  TimePoint fired_at{};
  sim.schedule(kSecond, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, TimePoint(kSecond));
  EXPECT_EQ(sim.executed(), 1u);
}

// Scheduling into the past is a causality violation: the caller computed
// an arrival behind the clock, which is a bug in the caller.  Under
// IXP_PARANOID it must check-fail with the offending delta; with checks
// off it keeps the historic clamp-to-now behaviour.  Regression:
// schedule_at used to clamp silently in every build, which let such a bug
// corrupt results instead of aborting.
TEST(SimulatorDeathTest, PastTimeScheduleFailsUnderParanoid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The child process re-executes this test and inherits the environment,
  // so the paranoid branch is armed before its first check runs.
  setenv("IXP_PARANOID", "1", 1);
  Simulator sim;
  sim.advance_to(TimePoint(kMinute));
  EXPECT_DEATH(sim.schedule_at(TimePoint(kSecond), [] {}),
               "schedule_at into the past");
  unsetenv("IXP_PARANOID");
}

TEST(Simulator, PastTimeScheduleClampsWhenChecksOff) {
  if (paranoid_checks_enabled()) {
    GTEST_SKIP() << "paranoid build: past-time scheduling aborts instead";
  }
  Simulator sim;
  sim.advance_to(TimePoint(kMinute));
  TimePoint fired{};
  sim.schedule_at(TimePoint(kSecond), [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, TimePoint(kMinute));  // clamped to now(), not t=1s
  EXPECT_EQ(sim.now(), TimePoint(kMinute));
}

// Regression: run()/run_until() after advance_to() used to execute the
// overdue event at its original (stale) timestamp, rewinding now() --
// schedule(delay) inside the action then computed from a clock that had
// already moved on.
TEST(Simulator, AdvanceToThenRunFiresOverdueAtAdvancedClock) {
  Simulator sim;
  TimePoint fired{};
  TimePoint nested{};
  sim.schedule(kSecond, [&] {
    fired = sim.now();
    sim.schedule(kSecond, [&] { nested = sim.now(); });
  });
  sim.advance_to(TimePoint(kMinute));
  sim.run();
  EXPECT_EQ(fired, TimePoint(kMinute));
  EXPECT_EQ(nested, TimePoint(kMinute + kSecond));
  EXPECT_EQ(sim.now(), TimePoint(kMinute + kSecond));
}

TEST(Simulator, RunUntilNeverRewindsAdvancedClock) {
  Simulator sim;
  TimePoint fired{};
  sim.schedule(kSecond, [&] { fired = sim.now(); });
  sim.advance_to(TimePoint(kMinute));
  sim.run_until(TimePoint(kSecond * 30));
  EXPECT_EQ(fired, TimePoint(kMinute));      // overdue event sees the advanced clock
  EXPECT_EQ(sim.now(), TimePoint(kMinute));  // boundary below now() must not rewind
}

// ---------------------------------------------------------------------------
// Traffic profiles

TEST(Traffic, DiurnalPeaksAtPeakHour) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.peak_hour = 14.0;
  cfg.peak_half_width_hours = 6.0;
  DiurnalProfile p(cfg);
  const double at_peak = p.bps(TimePoint(kHour * 14));
  const double at_night = p.bps(TimePoint(kHour * 3));
  EXPECT_NEAR(at_peak, 100e6, 1e3);
  EXPECT_NEAR(at_night, 10e6, 1e3);
  EXPECT_GT(p.bps(TimePoint(kHour * 12)), p.bps(TimePoint(kHour * 9)));
}

TEST(Traffic, WeekendScaling) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.weekend_scale = 0.5;
  DiurnalProfile p(cfg);
  const double weekday = p.bps(TimePoint(kHour * 14));             // Monday
  const double weekend = p.bps(TimePoint(kDay * 5 + kHour * 14));  // Saturday
  EXPECT_NEAR(weekend, weekday * 0.5, 1e3);
}

TEST(Traffic, MidnightDip) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 50e6;
  cfg.peak_bps = 0;
  cfg.midnight_dip_frac = 0.9;
  cfg.midnight_dip_half_width_hours = 1.5;
  DiurnalProfile p(cfg);
  EXPECT_NEAR(p.bps(TimePoint(Duration(0))), 5e6, 1e3);       // full dip at 00:00
  EXPECT_NEAR(p.bps(TimePoint(kHour * 12)), 50e6, 1e3);       // no dip at noon
}

TEST(Traffic, PiecewiseSwitchesAtBoundaries) {
  auto a = std::make_shared<ConstantProfile>(1e6);
  auto b = std::make_shared<ConstantProfile>(2e6);
  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kDay * 10), a});
  PiecewiseProfile p(std::move(pieces), b);
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 5)), 1e6);
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 10)), 2e6);  // boundary exclusive
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 20)), 2e6);
}

TEST(Traffic, SumAddsComponents) {
  auto a = std::make_shared<ConstantProfile>(1e6);
  auto b = std::make_shared<ConstantProfile>(2e6);
  SumProfile p({a, b});
  EXPECT_DOUBLE_EQ(p.bps(TimePoint{}), 3e6);
}

TEST(Traffic, JitterBoundedAndDeterministic) {
  auto base = std::make_shared<ConstantProfile>(100e6);
  JitteredProfile p(base, 0.1, 42);
  JitteredProfile q(base, 0.1, 42);
  for (int h = 0; h < 48; ++h) {
    const TimePoint t(kHour * h);
    EXPECT_DOUBLE_EQ(p.bps(t), q.bps(t));
    EXPECT_GE(p.bps(t), 100e6 * 0.89);
    EXPECT_LE(p.bps(t), 100e6 * 1.11);
  }
}

TEST(Traffic, MaxBpsBoundsObservedLoad) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.weekday_scale = 1.2;
  cfg.weekend_scale = 0.7;
  cfg.midnight_dip_frac = 0.3;
  auto diurnal = std::make_shared<DiurnalProfile>(cfg);
  EXPECT_DOUBLE_EQ(diurnal->max_bps(), 1.2 * 100e6);

  auto jitter = std::make_shared<JitteredProfile>(diurnal, 0.1, 7);
  EXPECT_DOUBLE_EQ(jitter->max_bps(), 1.2 * 100e6 * 1.1);

  SumProfile sum({diurnal, std::make_shared<ConstantProfile>(5e6)});
  EXPECT_DOUBLE_EQ(sum.max_bps(), 1.2 * 100e6 + 5e6);

  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kDay), std::make_shared<ConstantProfile>(30e6)});
  PiecewiseProfile pw(std::move(pieces), diurnal);
  EXPECT_DOUBLE_EQ(pw.max_bps(), 1.2 * 100e6);

  // The bound must dominate the profile everywhere it is sampled.
  for (int h = 0; h < 24 * 14; ++h) {
    EXPECT_LE(jitter->bps(TimePoint(kHour * h)), jitter->max_bps());
  }
  // An unbounded base propagates "unknown".
  struct Unbounded final : TrafficProfile {
    [[nodiscard]] double bps(TimePoint) const override { return 1.0; }
  };
  JitteredProfile unknown(std::make_shared<Unbounded>(), 0.1, 7);
  EXPECT_TRUE(std::isinf(unknown.max_bps()));
}

// ---------------------------------------------------------------------------
// Fluid queue

TEST(FluidQueue, EmptyWithoutOverload) {
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(50e6), kMinute, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour)), 0.0, 1.0);
  EXPECT_EQ(q.queuing_delay(TimePoint(kHour * 2)).count(), 0);
  EXPECT_DOUBLE_EQ(q.drop_probability(TimePoint(kHour * 3)), 0.0);
}

TEST(FluidQueue, FillsUnderOverloadAndCapsAtBuffer) {
  // 120 Mb/s offered on a 100 Mb/s link: +20 Mb/s = 2.5 MB/s of backlog
  // growth, so a 350 kB buffer fills in 0.14 s.
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(120e6), kSecond, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kSecond * 10)), 350e3, 1.0);
  // Full buffer at 100 Mb/s is 28 ms of queueing delay.
  EXPECT_NEAR(to_ms(q.queuing_delay(TimePoint(kSecond * 11))), 28.0, 0.1);
  // Drop probability is the overflow fraction (20/120).
  EXPECT_NEAR(q.drop_probability(TimePoint(kSecond * 12)), 20.0 / 120.0, 1e-6);
}

TEST(FluidQueue, DrainsWhenLoadDrops) {
  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kSecond * 10), std::make_shared<ConstantProfile>(120e6)});
  auto profile = std::make_shared<PiecewiseProfile>(std::move(pieces),
                                                    std::make_shared<ConstantProfile>(10e6));
  FluidQueue q({100e6, 350e3, profile, kSecond, 0.0});
  EXPECT_GT(q.backlog_bytes(TimePoint(kSecond * 10)), 300e3);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kSecond * 20)), 0.0, 1.0);
}

TEST(FluidQueue, BufferSizeIsAw) {
  // The paper's GIXA-GHANATEL numbers: A_w = 27.9 ms at 100 Mb/s.
  const double buffer = 27.9e-3 * 100e6 / 8.0;
  FluidQueue q({100e6, buffer, std::make_shared<ConstantProfile>(130e6), kSecond, 0.0});
  EXPECT_NEAR(to_ms(q.queuing_delay(TimePoint(kMinute))), 27.9, 0.1);
}

TEST(FluidQueue, BaseLossFloor) {
  FluidQueue q({100e6, 350e3, nullptr, kMinute, 0.001});
  EXPECT_DOUBLE_EQ(q.drop_probability(TimePoint(kMinute)), 0.001);
}

TEST(FluidQueue, CapacityUpgradeClearsCongestion) {
  FluidQueue q({10e6, 43.75e3, std::make_shared<ConstantProfile>(12e6), kSecond, 0.0});
  EXPECT_GT(q.backlog_bytes(TimePoint(kMinute)), 40e3);
  q.set_capacity(TimePoint(kMinute), 1e9, 31.25e6);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kMinute + kSecond)), 0.0, 100.0);
}

TEST(FluidQueue, EnqueueTailDrop) {
  FluidQueue q({100e6, 1000, nullptr, kMinute, 0.0});
  EXPECT_TRUE(q.enqueue(TimePoint{}, 600));
  EXPECT_FALSE(q.enqueue(TimePoint{}, 600));  // would exceed the buffer
}

TEST(FluidQueue, ConservationUnderVaryingLoad) {
  // The backlog never exceeds the buffer, never goes negative, and matches
  // an independent integration of the documented scheme (midpoint rule at
  // the configured max_step) exactly.
  DiurnalProfile::Config cfg;
  cfg.base_bps = 60e6;
  cfg.peak_bps = 70e6;  // peak total 130 Mb/s on a 100 Mb/s link
  cfg.peak_hour = 14.0;
  auto profile = std::make_shared<DiurnalProfile>(cfg);
  FluidQueue q({100e6, 500e3, profile, kMinute, 0.0});

  double ref = 0.0;
  double peak_backlog = 0.0;
  for (int s = 0; s < 24 * 3600; s += 60) {
    const double lam = profile->bps(TimePoint(kSecond * s + kSecond * 30));  // midpoint
    ref = std::clamp(ref + (lam - 100e6) * 60.0 / 8.0, 0.0, 500e3);
    const double got = q.backlog_bytes(TimePoint(kSecond * (s + 60)));
    EXPECT_GE(got, 0.0);
    EXPECT_LE(got, 500e3 + 1);
    EXPECT_NEAR(got, ref, 1e3) << "at t=" << s;
    peak_backlog = std::max(peak_backlog, got);
  }
  // The backlog must have filled to the buffer around the peak, and must
  // fully drain overnight (queries are forward-only: the queue is lazy).
  EXPECT_NEAR(peak_backlog, 500e3, 1e3);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour * 47)), 0.0, 1e3);
}

TEST(FluidQueue, HeadroomSkipTracksProfileSwap) {
  // A provably-uncongested queue takes the empty-backlog fast path; swapping
  // in an overloading profile must re-arm full integration, and swapping the
  // light profile back must drain and re-enable the skip.
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(50e6), kSecond, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour)), 0.0, 1.0);
  q.set_cross_traffic(TimePoint(kHour), std::make_shared<ConstantProfile>(120e6));
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour + kSecond * 10)), 350e3, 1.0);
  q.set_cross_traffic(TimePoint(kHour + kSecond * 10), std::make_shared<ConstantProfile>(10e6));
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour * 2)), 0.0, 1.0);
}

// Reference integrator for the drain fast path: FluidQueue::advance and
// enqueue exactly as they stood before the fast path existed (headroom skip
// on an empty backlog, sub-stepped integration with the 4096-step cap, the
// drained-to-empty break).  It is an oracle for the property test below,
// not a mode of the product.
struct OracleQueue {
  FluidQueue::Config cfg;
  FluidQueue::Stats stats;
  TimePoint last{};
  double backlog = 0.0;
  bool never_congests = false;

  explicit OracleQueue(FluidQueue::Config c) : cfg(std::move(c)) {
    const double bound = cfg.cross_traffic ? cfg.cross_traffic->max_bps() : 0.0;
    never_congests = std::isfinite(bound) && bound < cfg.capacity_bps * (1.0 - 1e-9);
  }

  void advance(TimePoint t) {
    if (t <= last) return;
    if (never_congests && backlog == 0.0) {
      ++stats.headroom_skips;
      last = t;
      return;
    }
    const std::int64_t max_step_ns = std::max<std::int64_t>(cfg.max_step.count(), 1);
    std::int64_t remaining = (t - last).count();
    std::int64_t step_ns = max_step_ns;
    if (remaining / step_ns > 4096) step_ns = remaining / 4096;
    while (remaining > 0) {
      ++stats.integration_steps;
      const std::int64_t dt_ns = std::min(remaining, step_ns);
      const double lambda = cfg.cross_traffic->bps(last + Duration(dt_ns / 2));
      const double dq = (lambda - cfg.capacity_bps) * (static_cast<double>(dt_ns) / 1e9) / 8.0;
      backlog = std::clamp(backlog + dq, 0.0, cfg.buffer_bytes);
      last += Duration(dt_ns);
      remaining -= dt_ns;
      if (never_congests && backlog == 0.0) {
        last = t;
        break;
      }
    }
  }

  void enqueue(TimePoint t, std::uint32_t size_bytes) {
    advance(t);
    if (backlog + size_bytes > cfg.buffer_bytes) {
      ++stats.tail_drops;
      return;
    }
    backlog += size_bytes;
  }
};

/// Forwards to a profile and counts bps() evaluations.
struct CountingProfile final : TrafficProfile {
  explicit CountingProfile(TrafficProfilePtr p) : inner(std::move(p)) {}
  [[nodiscard]] double bps(TimePoint t) const override {
    ++calls;
    return inner->bps(t);
  }
  [[nodiscard]] double max_bps() const override { return inner->max_bps(); }
  TrafficProfilePtr inner;
  mutable std::uint64_t calls = 0;
};

// A random profile whose max_bps() leaves `headroom` (a fraction of C, may
// be negative: then the link can congest) below capacity `cap`.
TrafficProfilePtr random_profile(Rng& rng, double cap, double headroom) {
  const double max = cap * (1.0 - headroom);
  DiurnalProfile::Config dc;
  dc.peak_hour = rng.uniform(0.0, 24.0);
  dc.weekend_scale = rng.uniform(0.3, 1.0);
  dc.midnight_dip_frac = rng.chance(0.5) ? rng.uniform(0.0, 0.5) : 0.0;
  const double base_share = rng.uniform(0.0, 1.0);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return std::make_shared<ConstantProfile>(max);
    case 1:
      dc.base_bps = max * base_share;
      dc.peak_bps = max - dc.base_bps;
      return std::make_shared<DiurnalProfile>(dc);
    case 2: {
      const double amp = rng.uniform(0.01, 0.3);
      dc.base_bps = max / (1.0 + amp) * base_share;
      dc.peak_bps = max / (1.0 + amp) - dc.base_bps;
      return std::make_shared<JitteredProfile>(std::make_shared<DiurnalProfile>(dc), amp,
                                               rng.next());
    }
    default: {
      dc.base_bps = max * base_share;
      dc.peak_bps = max - dc.base_bps;
      std::vector<PiecewiseProfile::Piece> pieces;
      pieces.push_back({TimePoint(kHour * rng.uniform_int(1, 200)),
                        std::make_shared<ConstantProfile>(max * rng.uniform(0.0, 1.0))});
      return std::make_shared<PiecewiseProfile>(std::move(pieces),
                                                std::make_shared<DiurnalProfile>(dc));
    }
  }
}

TEST(FluidQueue, DrainFastPathMatchesReferenceIntegrator) {
  // Property: across profiles, headroom down to C * (1 - 2e-9), backlogs
  // from one byte to the buffer, and gaps from 1 ns to past the 4096-step
  // cap, the queue's backlog bits, clock and counters equal the reference
  // integrator's after every operation -- while evaluating the profile
  // less often.
  Rng rng(0xd7a1);
  const double headrooms[] = {0.5, 0.1, 1e-3, 1e-6, 1e-8, 2e-9, 0.0, -0.05};
  std::uint64_t fast_calls = 0;
  std::uint64_t oracle_calls = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const double cap = std::pow(10.0, rng.uniform(6.0, 10.0));
    const double buffer = std::pow(10.0, rng.uniform(3.0, 6.5));
    const double headroom = headrooms[rng.uniform_int(0, std::size(headrooms) - 1)];
    const TrafficProfilePtr profile = random_profile(rng, cap, headroom);
    auto fast_profile = std::make_shared<CountingProfile>(profile);
    auto oracle_profile = std::make_shared<CountingProfile>(profile);
    FluidQueue q({cap, buffer, fast_profile, kMinute, 0.0});
    OracleQueue oracle({cap, buffer, oracle_profile, kMinute, 0.0});
    TimePoint t(kDay * rng.uniform_int(0, 6));
    for (int op = 0; op < 60; ++op) {
      // Log-uniform gap: 1 ns .. ~115 h (the step cap binds past ~68 h).
      t += Duration(static_cast<std::int64_t>(std::pow(10.0, rng.uniform(0.0, 14.6))));
      if (rng.chance(0.7)) {
        const auto bytes = static_cast<std::uint32_t>(
            std::max(1.0, std::pow(buffer, rng.uniform(0.0, 1.0))));
        q.enqueue(t, bytes);
        oracle.enqueue(t, bytes);
      } else {
        oracle.advance(t);
      }
      const double got = q.backlog_bytes(t);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(oracle.backlog))
          << "trial " << trial << " op " << op << ": " << got << " vs " << oracle.backlog;
      ASSERT_EQ(q.updated_at(), oracle.last) << "trial " << trial << " op " << op;
      ASSERT_EQ(q.stats().headroom_skips, oracle.stats.headroom_skips) << "trial " << trial;
      ASSERT_EQ(q.stats().integration_steps, oracle.stats.integration_steps) << "trial " << trial;
      ASSERT_EQ(q.stats().tail_drops, oracle.stats.tail_drops) << "trial " << trial;
    }
    fast_calls += fast_profile->calls;
    oracle_calls += oracle_profile->calls;
  }
  EXPECT_LT(fast_calls, oracle_calls);
}

// ---------------------------------------------------------------------------
// Packet-level network semantics

struct TestNet {
  Network net;
  NodeId host;
  NodeId r1;
  NodeId r2;
  net::Ipv4Address host_addr{net::Ipv4Address(10, 0, 0, 2)};
  net::Ipv4Address r1_host_if{net::Ipv4Address(10, 0, 0, 1)};
  net::Ipv4Address r1_r2_if{net::Ipv4Address(10, 0, 1, 1)};
  net::Ipv4Address r2_r1_if{net::Ipv4Address(10, 0, 1, 2)};
  net::Ipv4Address r2_lo{net::Ipv4Address(10, 0, 2, 2)};

  TestNet() {
    auto& h = net.add_host("host");
    auto& a = net.add_router("r1", {});
    auto& b = net.add_router("r2", {});
    host = h.id();
    r1 = a.id();
    r2 = b.id();
    LinkConfig lan;
    lan.capacity_bps = 1e9;
    lan.prop_delay = milliseconds(0.1);
    net.connect(host, host_addr, r1, r1_host_if, lan, *net::Ipv4Prefix::parse("10.0.0.0/30"));
    h.set_gateway(0, r1_host_if);
    LinkConfig core;
    core.capacity_bps = 1e9;
    core.prop_delay = milliseconds(1);
    net.connect(r1, r1_r2_if, r2, r2_r1_if, core, *net::Ipv4Prefix::parse("10.0.1.0/30"));
    // Static routes.
    a.add_route(*net::Ipv4Prefix::parse("10.0.2.0/24"), {1, r2_r1_if});
    a.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, {}});
    a.add_route(*net::Ipv4Prefix::parse("10.0.1.0/30"), {1, {}});
    b.add_route(*net::Ipv4Prefix::parse("10.0.0.0/16"), {0, r1_r2_if});
    b.add_route(*net::Ipv4Prefix::parse("10.0.1.0/30"), {0, {}});
    // r2 owns 10.0.2.1 via a stub interface (loopback-like): create a host
    // behind r2 owning it is simpler -- attach a stub host.
    auto& stub = net.add_host("stub");
    LinkConfig stub_link;
    net.connect(r2, r2_lo, stub.id(), net::Ipv4Address(10, 0, 2, 1), stub_link,
                *net::Ipv4Prefix::parse("10.0.2.0/30"));
    stub.set_gateway(0, r2_lo);
    b.add_route(*net::Ipv4Prefix::parse("10.0.2.0/30"), {static_cast<int>(b.interfaces().size()) - 1, {}});
  }

  net::Packet probe(net::Ipv4Address dst, std::uint8_t ttl) {
    net::Packet p;
    p.src = host_addr;
    p.dst = dst;
    p.ttl = ttl;
    p.icmp_type = net::IcmpType::kEchoRequest;
    p.ident = 0x8001;
    p.seq = 1;
    p.sent_at = net.simulator().now();
    return p;
  }
};

TEST(NetworkFastPath, EchoReplyFromRouterAddress) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, t.r2_r1_if);
  EXPECT_GT(res.rtt.count(), 0);
}

TEST(NetworkFastPath, TtlExpiryProducesTimeExceededFromInboundInterface) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, t.r1_host_if);  // r1's inbound interface
}

TEST(NetworkFastPath, SecondHopExpiry) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 2));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, t.r2_r1_if);  // r2's inbound interface
}

TEST(NetworkFastPath, DestinationReachedBeforeTtlZero) {
  TestNet t;
  // TTL exactly equal to the hop count: destination ownership wins.
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 2));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
}

TEST(NetworkFastPath, HostEndToEnd) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 64));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, net::Ipv4Address(10, 0, 2, 1));
}

TEST(NetworkEventMode, MatchesFastPathRtt) {
  TestNet t;
  // Fast path RTT.
  const auto fast = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(fast.answered);

  // Event mode: send the real packet and capture the reply at the host.
  auto& h = dynamic_cast<Host&>(t.net.node(t.host));
  bool got = false;
  Duration rtt{};
  h.set_rx_callback([&](const net::Packet& pkt, TimePoint at) {
    if (pkt.icmp_type == net::IcmpType::kEchoReply) {
      got = true;
      rtt = at - pkt.sent_at;
    }
  });
  auto pkt = t.probe(t.r2_r1_if, 64);
  h.send(t.net, pkt);
  t.net.simulator().run();
  ASSERT_TRUE(got);
  // Same links, same (empty) queues; only ICMP jitter differs.  The base
  // path is ~2.2 ms; accept a 2 ms band for jitter draws.
  EXPECT_NEAR(to_ms(rtt), to_ms(fast.rtt), 2.0);
}

TEST(NetworkEventMode, TtlExpiryEventMode) {
  TestNet t;
  auto& h = dynamic_cast<Host&>(t.net.node(t.host));
  net::IcmpType type = net::IcmpType::kEchoReply;
  net::Ipv4Address responder;
  h.set_rx_callback([&](const net::Packet& pkt, TimePoint) {
    type = pkt.icmp_type;
    responder = pkt.src;
  });
  auto pkt = t.probe(net::Ipv4Address(10, 0, 2, 1), 1);
  h.send(t.net, pkt);
  t.net.simulator().run();
  EXPECT_EQ(type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(responder, t.r1_host_if);
}

TEST(Network, IcmpRateLimiting) {
  TestNet t;
  auto& r1 = dynamic_cast<Router&>(t.net.node(t.r1));
  r1.mutable_config().icmp_rate_limit_per_sec = 2.0;
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
    answered += res.answered ? 1 : 0;
  }
  // All ten probes fire at the same instant; the bucket only admits ~2.
  EXPECT_LE(answered, 3);
  EXPECT_GE(answered, 1);
}

TEST(Network, DownLinkDropsTraffic) {
  TestNet t;
  t.net.link(1).set_up(false);  // core link
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  EXPECT_FALSE(res.answered);
  EXPECT_TRUE(res.forward_dropped);
}

TEST(Network, QueueDelayVisibleInRtt) {
  TestNet t;
  // Congest the r1->r2 direction (mild overload; probes may drop with
  // small probability, so take the first answered one).
  auto& link = t.net.link(1);
  link.queue_from(t.r1).set_cross_traffic(TimePoint{}, std::make_shared<ConstantProfile>(1.05e9));
  t.net.simulator().advance_to(TimePoint(kMinute * 5));  // let the queue fill
  Duration rtt{};
  bool answered = false;
  for (int i = 0; i < 10 && !answered; ++i) {
    const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
    answered = res.answered;
    rtt = res.rtt;
  }
  ASSERT_TRUE(answered);
  // Full 1 MB buffer at 1 Gb/s = 8 ms of extra delay.
  EXPECT_GT(to_ms(rtt), 8.0);
}

TEST(Network, L2SwitchInvisibleToTraceroute) {
  Network net;
  auto& h = net.add_host("vp");
  auto& a = net.add_router("a", {});
  auto& sw = net.add_switch("fabric");
  auto& b = net.add_router("b", {});

  LinkConfig lan;
  net.connect(h.id(), net::Ipv4Address(10, 0, 0, 2), a.id(), net::Ipv4Address(10, 0, 0, 1), lan,
              *net::Ipv4Prefix::parse("10.0.0.0/30"));
  h.set_gateway(0, net::Ipv4Address(10, 0, 0, 1));
  const auto peering = *net::Ipv4Prefix::parse("196.49.0.0/24");
  net.connect(a.id(), net::Ipv4Address(196, 49, 0, 1), sw.id(), {}, lan, peering);
  net.connect(b.id(), net::Ipv4Address(196, 49, 0, 2), sw.id(), {}, lan, peering);
  a.add_route(peering, {1, {}});
  a.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, {}});
  b.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, net::Ipv4Address(196, 49, 0, 1)});

  net::Packet p;
  p.src = net::Ipv4Address(10, 0, 0, 2);
  p.dst = net::Ipv4Address(196, 49, 0, 2);
  p.ttl = 2;  // host -> a (ttl 2->1 would expire at the NEXT router)
  p.icmp_type = net::IcmpType::kEchoRequest;
  const auto res = net.probe(h.id(), p);
  ASSERT_TRUE(res.answered);
  // Two IP hops: the switch does not decrement TTL and never answers.
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, net::Ipv4Address(196, 49, 0, 2));
}

TEST(Network, ExtraDelayIsDirectionSpecific) {
  TestNet t;
  auto& core = t.net.link(1);
  // Delay only the r1 -> r2 direction by 20 ms.
  core.set_extra_delay_from(t.r1, milliseconds(20));
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  EXPECT_GT(to_ms(res.rtt), 20.0);
  // Probes that never cross r1 -> r2 stay fast: hop to r1 itself.
  const auto near = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
  ASSERT_TRUE(near.answered);
  EXPECT_LT(to_ms(near.rtt), 5.0);
  // Clearing restores the baseline.
  core.set_extra_delay_from(t.r1, Duration(0));
  const auto after = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(after.answered);
  EXPECT_LT(to_ms(after.rtt), 6.0);
}

TEST(Network, RouterIpIdCounterShared) {
  TestNet t;
  // Two consecutive probes to r2's interface must return closely spaced,
  // increasing IP-IDs from the router-wide counter.
  const auto p1 = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  const auto p2 = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(p1.answered);
  ASSERT_TRUE(p2.answered);
  const std::uint16_t gap = static_cast<std::uint16_t>(p2.ip_id - p1.ip_id);
  EXPECT_GE(gap, 1u);
  EXPECT_LE(gap, 4u);
}

TEST(Network, RecordRouteStampsForwardAndReverse) {
  TestNet t;
  auto pkt = t.probe(net::Ipv4Address(10, 0, 2, 1), 64);
  pkt.record_route = true;
  const auto res = t.net.probe(t.host, pkt);
  ASSERT_TRUE(res.answered);
  // Forward: r1 egress (10.0.1.1), r2 egress (10.0.2.x); reverse: r2 egress
  // toward r1 (10.0.1.2), r1 egress toward host (10.0.0.1).
  ASSERT_GE(res.record_route.size(), 4u);
  EXPECT_EQ(res.record_route[0], t.r1_r2_if);
}

TEST(Network, RecordRouteReverseStampsExactAddresses) {
  // Pins the reverse-walk RR branch hop by hop: the reply is stamped with
  // each router's egress interface on the way back, in order.
  TestNet t;
  auto pkt = t.probe(net::Ipv4Address(10, 0, 2, 1), 64);
  pkt.record_route = true;
  const auto res = t.net.probe(t.host, pkt);
  ASSERT_TRUE(res.answered);
  ASSERT_EQ(res.record_route.size(), 4u);
  EXPECT_EQ(res.record_route[0], t.r1_r2_if);    // fwd: r1 toward r2
  EXPECT_EQ(res.record_route[1], t.r2_lo);       // fwd: r2 toward the stub
  EXPECT_EQ(res.record_route[2], t.r2_r1_if);    // rev: r2 back toward r1
  EXPECT_EQ(res.record_route[3], t.r1_host_if);  // rev: r1 back toward host
}

TEST(Network, EchoReplyRateLimited) {
  // The reverse-walk admission branch for *echo replies* (destination-owned
  // address on a router) shares the ICMP token bucket with TIME_EXCEEDED.
  TestNet t;
  auto& r2 = dynamic_cast<Router&>(t.net.node(t.r2));
  r2.mutable_config().icmp_rate_limit_per_sec = 2.0;
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    answered += t.net.probe(t.host, t.probe(t.r2_r1_if, 64)).answered ? 1 : 0;
  }
  EXPECT_LE(answered, 3);
  EXPECT_GE(answered, 1);
}

TEST(NetworkFastPath, AnalyticTailDropWhenBufferFull) {
  // A full-but-not-overflowing buffer must tail-drop the probe itself: the
  // enqueue failure counts as a loss instead of being silently ignored.
  TestNet t;
  auto& q = t.net.link(0).queue_from(t.host);
  ASSERT_TRUE(q.enqueue(TimePoint{}, 1'000'000));  // fill to the 1 MB buffer
  const auto before = t.net.packets_dropped;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  EXPECT_FALSE(res.answered);
  EXPECT_TRUE(res.forward_dropped);
  EXPECT_EQ(t.net.packets_dropped, before + 1);
}

TEST(NetworkEventMode, TailDropCountedWhenBufferFull) {
  // Event-mode transmit must honour the enqueue verdict the same way the
  // analytic walk does: no delivery, and the drop shows up in the counters.
  TestNet t;
  auto& q = t.net.link(0).queue_from(t.host);
  ASSERT_TRUE(q.enqueue(TimePoint{}, 1'000'000));
  auto& h = dynamic_cast<Host&>(t.net.node(t.host));
  bool got = false;
  h.set_rx_callback([&](const net::Packet&, TimePoint) { got = true; });
  const auto before = t.net.packets_dropped;
  auto pkt = t.probe(t.r1_host_if, 64);
  h.send(t.net, pkt);
  t.net.simulator().run();
  EXPECT_FALSE(got);
  EXPECT_EQ(t.net.packets_dropped, before + 1);
}

TEST(NetworkFastPath, ProbeBytesJoinBacklog) {
  // Analytic probes book their bytes into each crossed queue, matching what
  // event mode does; both directions of the first link see the traffic.
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  const TimePoint now = t.net.simulator().now();
  EXPECT_DOUBLE_EQ(t.net.link(0).queue_from(t.host).backlog_bytes(now), 64.0);
  EXPECT_DOUBLE_EQ(t.net.link(0).queue_from(t.r1).backlog_bytes(now), 56.0);  // reply size
}

TEST(Network, TtlExpiryAcrossFabricReportsPeerAddress) {
  // TTL expiry at a router reached *through* the IXP switch must be reported
  // from that router's fabric-facing interface -- the address a real
  // traceroute across an IXP LAN records -- never 0.0.0.0.
  Network net;
  auto& h = net.add_host("vp");
  auto& a = net.add_router("a", {});
  auto& sw = net.add_switch("fabric");
  auto& b = net.add_router("b", {});
  auto& dsth = net.add_host("dst");

  LinkConfig lan;
  net.connect(h.id(), net::Ipv4Address(10, 0, 0, 2), a.id(), net::Ipv4Address(10, 0, 0, 1), lan,
              *net::Ipv4Prefix::parse("10.0.0.0/30"));
  h.set_gateway(0, net::Ipv4Address(10, 0, 0, 1));
  const auto peering = *net::Ipv4Prefix::parse("196.49.0.0/24");
  net.connect(a.id(), net::Ipv4Address(196, 49, 0, 1), sw.id(), {}, lan, peering);
  net.connect(b.id(), net::Ipv4Address(196, 49, 0, 2), sw.id(), {}, lan, peering);
  net.connect(b.id(), net::Ipv4Address(10, 0, 3, 1), dsth.id(), net::Ipv4Address(10, 0, 3, 2), lan,
              *net::Ipv4Prefix::parse("10.0.3.0/30"));
  dsth.set_gateway(0, net::Ipv4Address(10, 0, 3, 1));
  a.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, {}});
  a.add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, net::Ipv4Address(196, 49, 0, 2)});
  b.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, net::Ipv4Address(196, 49, 0, 1)});
  b.add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, {}});

  net::Packet p;
  p.src = net::Ipv4Address(10, 0, 0, 2);
  p.dst = net::Ipv4Address(10, 0, 3, 2);
  p.ttl = 2;  // expires at b: decremented at a, crosses the fabric, dies
  p.icmp_type = net::IcmpType::kEchoRequest;
  const auto res = net.probe(h.id(), p);
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, net::Ipv4Address(196, 49, 0, 2));

  // Control: one more TTL reaches the destination host.
  p.ttl = 3;
  const auto through = net.probe(h.id(), p);
  ASSERT_TRUE(through.answered);
  EXPECT_EQ(through.reply_type, net::IcmpType::kEchoReply);
}

// ---------------------------------------------------------------------------
// Scheduled delay steps (mid-campaign reroutes).  Both execution modes
// evaluate link delays at the instant a packet crosses the link, so a step
// taking effect mid-flight never rewrites a crossing that already happened
// -- and the event engine stays byte-for-byte equal to the analytic walk
// across the boundary.  Regression: the immediate set_prop_delay() setter
// was the only API, so a fault plan firing mid-run retroactively changed
// packets already past the link (event mode kept the old delay baked into
// its scheduled arrival; the analytic walk re-read the new value).

struct ParityNet : TestNet {
  ParityNet() {
    // Zero the ICMP jitter so the two modes are deterministic and exactly
    // comparable; every other delay term is already constant.
    dynamic_cast<Router&>(net.node(r1)).mutable_config().icmp_jitter = Duration(0);
    dynamic_cast<Router&>(net.node(r2)).mutable_config().icmp_jitter = Duration(0);
    // Reroute at t=5s: the core link's propagation delay steps 1 ms -> 21 ms.
    net.link(1).set_prop_delay(TimePoint(kSecond * 5), milliseconds(21));
  }
};

TEST(Network, DelayStepMatchesEventAndAnalyticAcrossBoundary) {
  // Probe instants: fully before the step, straddling it (the forward leg
  // crosses the core link before t=5s, the reply crosses after), and fully
  // after.
  const TimePoint before_t(kSecond * 2);
  const TimePoint straddle_t(kSecond * 5 - std::chrono::microseconds(200));
  const TimePoint after_t(kSecond * 10);

  // Analytic walks.
  ParityNet a;
  a.net.simulator().advance_to(before_t);
  const auto fast_before = a.net.probe(a.host, a.probe(a.r2_r1_if, 64));
  a.net.simulator().advance_to(straddle_t);
  const auto fast_straddle = a.net.probe(a.host, a.probe(a.r2_r1_if, 64));
  a.net.simulator().advance_to(after_t);
  const auto fast_after = a.net.probe(a.host, a.probe(a.r2_r1_if, 64));
  ASSERT_TRUE(fast_before.answered);
  ASSERT_TRUE(fast_straddle.answered);
  ASSERT_TRUE(fast_after.answered);

  // Event mode, same instants on a separately built but identical net.
  ParityNet e;
  auto& h = dynamic_cast<Host&>(e.net.node(e.host));
  std::vector<Duration> rtts;
  h.set_rx_callback([&](const net::Packet& pkt, TimePoint at) {
    if (pkt.icmp_type == net::IcmpType::kEchoReply) rtts.push_back(at - pkt.sent_at);
  });
  auto& sim = e.net.simulator();
  for (const TimePoint at : {before_t, straddle_t, after_t}) {
    sim.schedule_at(at, [&] {
      auto pkt = e.probe(e.r2_r1_if, 64);
      h.send(e.net, pkt);
    });
  }
  sim.run();
  ASSERT_EQ(rtts.size(), 3u);

  // Byte-for-byte parity on each side of the reroute and across it.
  EXPECT_EQ(rtts[0].count(), fast_before.rtt.count());
  EXPECT_EQ(rtts[1].count(), fast_straddle.rtt.count());
  EXPECT_EQ(rtts[2].count(), fast_after.rtt.count());

  // The step never acts retroactively: the straddling probe's forward leg
  // crossed at the old 1 ms delay and only its reply picked up the new
  // 21 ms, so exactly one of the two 20 ms increments shows up.
  EXPECT_EQ((fast_straddle.rtt - fast_before.rtt).count(), milliseconds(20).count());
  EXPECT_EQ((fast_after.rtt - fast_before.rtt).count(), milliseconds(40).count());
}

TEST(Network, DelayStepDoesNotRewriteInFlightEventPackets) {
  // A packet already past the link when the step fires must arrive on the
  // old delay's schedule: launch at t=4.9998s (crossing the core at the
  // 1 ms delay), then confirm the one-way arrival lands ~1 ms later, not
  // 21 ms later.
  ParityNet e;
  auto& h = dynamic_cast<Host&>(e.net.node(e.host));
  TimePoint got{};
  h.set_rx_callback([&](const net::Packet& pkt, TimePoint at) {
    if (pkt.icmp_type == net::IcmpType::kEchoReply) got = at;
  });
  auto& sim = e.net.simulator();
  const TimePoint launch(kSecond * 5 - std::chrono::microseconds(200));
  sim.schedule_at(launch, [&] {
    auto pkt = e.probe(e.r2_r1_if, 64);
    h.send(e.net, pkt);
  });
  sim.run();
  ASSERT_NE(got, TimePoint{});
  // Forward leg on the old delay (~1.12 ms to reach r2), reply on the new
  // one: total stays far below the 42 ms a retroactive rewrite would give.
  EXPECT_LT((got - launch).count(), milliseconds(30).count());
  EXPECT_GT((got - launch).count(), milliseconds(22).count());
}

// Builds host -- rs -- target, with the target routing its replies back over
// a chain of `n` extra routers (asymmetric return path).
struct AsymmetricNet {
  Network net;
  NodeId host;
  net::Ipv4Address target_addr{net::Ipv4Address(10, 1, 0, 2)};

  explicit AsymmetricNet(int n) {
    auto& h = net.add_host("vp");
    auto& rs = net.add_router("rs", {});
    auto& target = net.add_router("target", {});
    host = h.id();
    LinkConfig lan;
    const auto host_net = *net::Ipv4Prefix::parse("10.0.0.0/30");
    net.connect(host, net::Ipv4Address(10, 0, 0, 2), rs.id(), net::Ipv4Address(10, 0, 0, 1), lan,
                host_net);
    h.set_gateway(0, net::Ipv4Address(10, 0, 0, 1));
    net.connect(rs.id(), net::Ipv4Address(10, 1, 0, 1), target.id(), target_addr, lan,
                *net::Ipv4Prefix::parse("10.1.0.0/30"));
    rs.add_route(host_net, {0, {}});
    rs.add_route(*net::Ipv4Prefix::parse("10.1.0.0/30"), {1, {}});
    // Return chain: target -> c1 -> ... -> cn -> rs.
    Router* prev = &target;
    for (int i = 1; i <= n; ++i) {
      std::string cname = "c";
      cname += std::to_string(i);
      auto& c = net.add_router(cname, {});
      net.connect(prev->id(), net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 1), c.id(),
                  net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 2), lan,
                  *net::Ipv4Prefix::parse("10.2." + std::to_string(i) + ".0/30"));
      prev->add_route(host_net, {static_cast<int>(prev->interfaces().size()) - 1, {}});
      prev = &c;
    }
    net.connect(prev->id(), net::Ipv4Address(10, 3, 0, 1), rs.id(), net::Ipv4Address(10, 3, 0, 2),
                lan, *net::Ipv4Prefix::parse("10.3.0.0/30"));
    prev->add_route(host_net, {static_cast<int>(prev->interfaces().size()) - 1, {}});
  }

  ProbeResult ping() {
    net::Packet p;
    p.src = net::Ipv4Address(10, 0, 0, 2);
    p.dst = target_addr;
    p.ttl = 64;
    p.icmp_type = net::IcmpType::kEchoRequest;
    return net.probe(host, p);
  }
};

// ---------------------------------------------------------------------------
// Route-memo invalidation (regression for the memoized FIB lookup: a route
// change mid-campaign -- e.g. the reroute fault in sim/faults.h -- must never
// forward on a stale cached next hop).

TEST(Router, RouteMemoInvalidatedByRouteChange) {
  Network net;
  auto& r = net.add_router("r", {});
  const auto dst = net::Ipv4Address(10, 9, 0, 1);
  r.add_route(*net::Ipv4Prefix::parse("10.9.0.0/16"), {1, net::Ipv4Address(10, 0, 0, 1)});
  const FibEntry* e1 = r.route_lookup(dst);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->ifindex, 1);
  // Warm the per-destination cache.
  ASSERT_EQ(r.route_lookup(dst), e1);
  // A more-specific route must take effect on the very next lookup.
  r.add_route(*net::Ipv4Prefix::parse("10.9.0.1/32"), {2, net::Ipv4Address(10, 0, 1, 1)});
  const FibEntry* e2 = r.route_lookup(dst);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->ifindex, 2);
  EXPECT_EQ(r.route_lookup(dst), e2);
  // clear_fib drops the routes *and* the memo.
  r.clear_fib();
  EXPECT_EQ(r.route_lookup(dst), nullptr);
}

TEST(Network, ProbeFollowsRouteChangeNotStaleMemo) {
  // End-to-end variant: after probes memoized the path through b, installing
  // a more-specific detour through c must redirect the very next probe.
  Network net;
  auto& h = net.add_host("vp");
  auto& a = net.add_router("a", {});
  auto& sw = net.add_switch("fabric");
  auto& b = net.add_router("b", {});
  auto& c = net.add_router("c", {});
  auto& dsth = net.add_host("dst");

  LinkConfig lan;
  const auto host_net = *net::Ipv4Prefix::parse("10.0.0.0/30");
  net.connect(h.id(), net::Ipv4Address(10, 0, 0, 2), a.id(), net::Ipv4Address(10, 0, 0, 1), lan,
              host_net);
  h.set_gateway(0, net::Ipv4Address(10, 0, 0, 1));
  const auto peering = *net::Ipv4Prefix::parse("196.49.0.0/24");
  net.connect(a.id(), net::Ipv4Address(196, 49, 0, 1), sw.id(), {}, lan, peering);
  net.connect(b.id(), net::Ipv4Address(196, 49, 0, 2), sw.id(), {}, lan, peering);
  net.connect(c.id(), net::Ipv4Address(196, 49, 0, 3), sw.id(), {}, lan, peering);
  net.connect(b.id(), net::Ipv4Address(10, 0, 3, 1), dsth.id(), net::Ipv4Address(10, 0, 3, 2), lan,
              *net::Ipv4Prefix::parse("10.0.3.0/30"));
  dsth.set_gateway(0, net::Ipv4Address(10, 0, 3, 1));
  a.add_route(host_net, {0, {}});
  a.add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, net::Ipv4Address(196, 49, 0, 2)});
  b.add_route(host_net, {0, net::Ipv4Address(196, 49, 0, 1)});
  b.add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, {}});
  c.add_route(host_net, {0, net::Ipv4Address(196, 49, 0, 1)});

  net::Packet p;
  p.src = net::Ipv4Address(10, 0, 0, 2);
  p.dst = net::Ipv4Address(10, 0, 3, 2);
  p.icmp_type = net::IcmpType::kEchoRequest;
  for (int i = 0; i < 3; ++i) {  // warm a's lookup caches toward dst
    p.ttl = 2;
    const auto via_b = net.probe(h.id(), p);
    ASSERT_TRUE(via_b.answered);
    EXPECT_EQ(via_b.responder, net::Ipv4Address(196, 49, 0, 2));
  }
  a.add_route(*net::Ipv4Prefix::parse("10.0.3.2/32"), {1, net::Ipv4Address(196, 49, 0, 3)});
  p.ttl = 2;
  const auto via_c = net.probe(h.id(), p);
  ASSERT_TRUE(via_c.answered);
  EXPECT_EQ(via_c.responder, net::Ipv4Address(196, 49, 0, 3));
}

TEST(Network, ReverseTtlExpiryOnLongAsymmetricPath) {
  // Replies start at TTL 64.  A 40-router return chain survives; a 70-router
  // one expires the reply in flight: the probe is lost on the *reverse*
  // path, which only a walk budget above 64 can even observe.
  AsymmetricNet ok(40);
  const auto good = ok.ping();
  ASSERT_TRUE(good.answered);
  EXPECT_EQ(good.reply_type, net::IcmpType::kEchoReply);

  AsymmetricNet far(70);
  const auto lost = far.ping();
  EXPECT_FALSE(lost.answered);
  EXPECT_FALSE(lost.forward_dropped);
  EXPECT_TRUE(lost.reverse_dropped);
}

// ---------------------------------------------------------------------------
// Resolved-walk cache invalidation.  The analytic walk is resolved once per
// (origin, source, destination, TTL, record-route) and reused until the
// route epoch moves; every kind of mid-run change must still give the same
// answer as real scheduled packets.

// vp -- a ==fabric== b -- dst, with c also on the fabric (b reaches dst; c
// forwards toward dst via b).  ICMP jitter and fabric latency are zero, so
// the analytic and the event-mode probe are exactly comparable.
struct WalkNet {
  Network net;
  NodeId vp;
  NodeId fabric;
  Router* a;
  Router* b;
  Router* c;
  int core_link;  ///< b -- dst
  int b_port;     ///< fabric ifindex toward b
  const net::Ipv4Address vp_addr{10, 0, 0, 2};
  const net::Ipv4Address a_fab{196, 49, 0, 1};
  const net::Ipv4Address b_fab{196, 49, 0, 2};
  const net::Ipv4Address c_fab{196, 49, 0, 3};
  const net::Ipv4Address dst_addr{10, 0, 3, 2};
  const net::Ipv4Prefix vp_net = *net::Ipv4Prefix::parse("10.0.0.0/30");
  const net::Ipv4Prefix dst_net = *net::Ipv4Prefix::parse("10.0.3.0/30");
  const net::Ipv4Prefix peering = *net::Ipv4Prefix::parse("196.49.0.0/24");

  WalkNet() {
    auto& h = net.add_host("vp");
    a = &net.add_router("a", {});
    fabric = net.add_node(std::make_unique<L2Switch>("fabric", Duration(0)));
    b = &net.add_router("b", {});
    c = &net.add_router("c", {});
    auto& d = net.add_host("dst");
    vp = h.id();
    for (Router* r : {a, b, c}) r->mutable_config().icmp_jitter = Duration(0);
    LinkConfig lan;
    lan.prop_delay = milliseconds(0.3);
    net.connect(vp, vp_addr, a->id(), net::Ipv4Address(10, 0, 0, 1), lan, vp_net);
    h.set_gateway(0, net::Ipv4Address(10, 0, 0, 1));
    net.connect(a->id(), a_fab, fabric, {}, lan, peering);
    const int b_link = net.connect(b->id(), b_fab, fabric, {}, lan, peering);
    b_port = net.link(b_link).ifindex_at(fabric);
    net.connect(c->id(), c_fab, fabric, {}, lan, peering);
    LinkConfig core;
    core.prop_delay = milliseconds(2);
    core_link = net.connect(b->id(), net::Ipv4Address(10, 0, 3, 1), d.id(), dst_addr, core,
                            dst_net);
    d.set_gateway(0, net::Ipv4Address(10, 0, 3, 1));
    install_a();
    b->add_route(vp_net, {0, a_fab});
    b->add_route(peering, {0, {}});
    b->add_route(dst_net, {1, {}});
    c->add_route(vp_net, {0, a_fab});
    c->add_route(dst_net, {0, b_fab});
  }

  void install_a() {
    a->add_route(vp_net, {0, {}});
    a->add_route(peering, {1, {}});
    a->add_route(dst_net, {1, b_fab});
  }

  /// Probes carry 56 bytes, the analytic walk's fixed reply size.  An
  /// event-mode host echo mirrors the request's size instead, so with
  /// larger probes the two modes differ by the extra bytes' transmission
  /// time on the way back -- a known mode difference, not a cache effect.
  net::Packet packet(std::uint8_t ttl, bool rr, std::uint16_t seq) {
    net::Packet p;
    p.size_bytes = 56;
    p.src = vp_addr;
    p.dst = dst_addr;
    p.ttl = ttl;
    p.record_route = rr;
    p.icmp_type = net::IcmpType::kEchoRequest;
    p.ident = 0x8001;
    p.seq = seq;
    p.sent_at = net.simulator().now();
    return p;
  }

  /// The event-mode twin of Network::probe: sends the packet for real and
  /// captures the reply at the VP.
  ProbeResult probe_event(const net::Packet& p) {
    auto& h = static_cast<Host&>(net.node(vp));
    ProbeResult res;
    h.set_rx_callback([&](const net::Packet& pkt, TimePoint at) {
      const bool echo = pkt.icmp_type == net::IcmpType::kEchoReply;
      if ((echo ? pkt.seq : pkt.quoted_seq) != p.seq) return;
      res.answered = true;
      res.responder = pkt.src;
      res.reply_type = pkt.icmp_type;
      res.rtt = at - pkt.sent_at;
      res.ip_id = pkt.ip_id;
      res.record_route = pkt.route_stamps;
    });
    h.send(net, p);
    net.simulator().run();
    h.set_rx_callback(nullptr);
    return res;
  }
};

TEST(Network, ResolvedWalksFollowEveryRouteEpochBump) {
  WalkNet fast;    // analytic walks
  WalkNet slow;    // scheduled packets
  WalkNet pinned;  // analytic walks through pins kept across phases
  std::uint16_t seq = 1;
  TimePoint at(kSecond);
  int answered = 0;
  int compared = 0;
  const std::pair<std::uint8_t, bool> kinds[] = {{1, false}, {2, false}, {3, false},
                                                 {64, false}, {2, true}, {64, true}};
  // One pin per probe kind, never reset: each phase's first probe of a
  // kind goes through the pin the previous phase took.
  Network::WalkPin pins[std::size(kinds)];
  // Probes the three twins at the same instant with plain and record-route
  // probes at every TTL that matters, and demands identical results.
  const auto probe_round = [&](const char* phase) {
    for (int rep = 0; rep < 2; ++rep) {  // the repeat runs on a warm cache
      for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const auto [ttl, rr] = kinds[k];
        at += kSecond;
        fast.net.simulator().advance_to(at);
        slow.net.simulator().advance_to(at);
        pinned.net.simulator().advance_to(at);
        const ProbeResult got = fast.net.probe(fast.vp, fast.packet(ttl, rr, seq));
        const ProbeResult want = slow.probe_event(slow.packet(ttl, rr, seq));
        const ProbeResult via_pin =
            pinned.net.probe(pinned.vp, pinned.packet(ttl, rr, seq), pins[k]);
        ++seq;
        ++compared;
        SCOPED_TRACE(testing::Message() << phase << " ttl=" << int(ttl) << " rr=" << rr
                                        << " rep=" << rep);
        // Pinned and pin-free analytic probes agree on every field.
        EXPECT_EQ(via_pin.answered, got.answered);
        EXPECT_EQ(via_pin.forward_dropped, got.forward_dropped);
        EXPECT_EQ(via_pin.reverse_dropped, got.reverse_dropped);
        EXPECT_EQ(via_pin.responder, got.responder);
        EXPECT_EQ(via_pin.reply_type, got.reply_type);
        EXPECT_EQ(via_pin.rtt.count(), got.rtt.count());
        EXPECT_EQ(via_pin.ip_id, got.ip_id);
        EXPECT_EQ(via_pin.record_route, got.record_route);
        ASSERT_EQ(got.answered, want.answered);
        if (!got.answered) continue;
        ++answered;
        EXPECT_EQ(got.responder, want.responder);
        EXPECT_EQ(got.reply_type, want.reply_type);
        EXPECT_EQ(got.rtt.count(), want.rtt.count());
        EXPECT_EQ(got.ip_id, want.ip_id);
        EXPECT_EQ(got.record_route, want.record_route);
      }
    }
  };
  // Applies one change to both twins; `bumps` says whether it is a routing
  // change (the epoch must move) or a dynamic one (it must not).
  const auto change = [&](bool bumps, const std::function<void(WalkNet&)>& f) {
    const std::uint64_t before = fast.net.route_epoch();
    f(fast);
    f(slow);
    f(pinned);
    if (bumps) {
      EXPECT_GT(fast.net.route_epoch(), before);
    } else {
      EXPECT_EQ(fast.net.route_epoch(), before);
    }
  };

  probe_round("baseline");
  // Mid-run detour: a /32 toward dst via c across the fabric (the chaos
  // reroute fault), then withdrawn by rebuilding a's FIB.
  change(true, [](WalkNet& w) { w.a->add_route(net::Ipv4Prefix(w.dst_addr, 32), {1, w.c_fab}); });
  probe_round("detour");
  change(true, [](WalkNet& w) {
    w.a->clear_fib();
    w.install_a();
  });
  probe_round("fib reinstalled");
  // The fabric forgets b, then relearns it.
  change(true, [](WalkNet& w) { static_cast<L2Switch&>(w.net.node(w.fabric)).forget(w.b_fab); });
  probe_round("b forgotten");
  change(true, [](WalkNet& w) {
    static_cast<L2Switch&>(w.net.node(w.fabric)).learn(w.b_fab, w.b_port, w.b->id());
  });
  probe_round("b relearned");
  // Link state and delay steps stay dynamic: no epoch bump, yet the very
  // next probe must see them.
  change(false, [](WalkNet& w) { w.net.link(w.core_link).set_up(false); });
  probe_round("core down");
  change(false, [](WalkNet& w) { w.net.link(w.core_link).set_up(true); });
  probe_round("core up");
  change(false, [&](WalkNet& w) {
    w.net.link(w.core_link).set_prop_delay(at + kSecond * 3, milliseconds(9));
  });
  probe_round("delay step");
  EXPECT_EQ(compared, 8 * 12);
  EXPECT_GT(answered, compared / 2);
  // Probes that die on a routing drop (the forgotten fabric port) still
  // crossed, and booked their bytes on, every link before it.
  EXPECT_EQ(fast.net.hops_walked, slow.net.hops_walked);
  EXPECT_EQ(pinned.net.hops_walked, fast.net.hops_walked);
}

TEST(TslpDriver, RelearnDropsPinsWhenRerouteMovesFarTtl) {
  // Monitors the a--b fabric link (near a_fab, far b_fab: far_ttl 2).
  // Mid-segment, a detours b_fab through c, which puts b at hop 3: the
  // far probe expires at c, the driver relearns far_ttl = 3, and from the
  // next round on its far probe must walk the new TTL, not the pinned walk
  // of the old one.
  constexpr int kRounds = 12;
  constexpr int kReroute = 4;
  struct Run {
    std::vector<tslp::LinkSeries> series;
    std::uint64_t stale_relearns = 0;
    std::uint64_t loss_relearns = 0;
    std::uint64_t probes_lost = 0;
  };
  const auto run = [&](bool event_mode) {
    WalkNet w;
    w.c->add_route(w.peering, {0, {}});
    prober::Prober prober(w.net, w.vp, 0.0);
    prober::TslpConfig cfg;
    cfg.event_mode = event_mode;
    const TimePoint start(kMinute);
    cfg.pre_round = [&](TimePoint t) {
      if (t == start + cfg.round_interval * kReroute) {
        w.a->add_route(net::Ipv4Prefix(w.b_fab, 32), {1, w.c_fab});
      }
    };
    prober::TslpDriver driver(prober, cfg);
    const prober::MonitorTarget target{"a-b", w.a_fab, w.b_fab, 1, 2, true};
    Run out;
    out.series = driver.run({target}, start, start + cfg.round_interval * kRounds);
    out.stale_relearns = driver.stale_relearns();
    out.loss_relearns = driver.loss_relearns();
    out.probes_lost = driver.probes_lost();
    return out;
  };

  const Run fast_run = run(false);
  const auto& fast = fast_run.series;
  ASSERT_EQ(fast.size(), 1u);
  const auto& far = fast[0].far_rtt.ms;
  const auto& near = fast[0].near_rtt.ms;
  ASSERT_EQ(far.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(fast_run.stale_relearns, 1u);
  EXPECT_EQ(fast_run.loss_relearns, 0u);
  EXPECT_EQ(fast_run.probes_lost, 0u);
  EXPECT_EQ(fast[0].responder_changes, std::vector<std::size_t>{kReroute});
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE(testing::Message() << "round " << r);
    // The reroute round's far probe expires at c: stale, not recorded.
    EXPECT_EQ(std::isnan(far[r]), r == kReroute);
    // After the relearn the near probe (TTL 2) expires at c, not at a.
    EXPECT_EQ(std::isnan(near[r]), r > kReroute);
  }
  // The detour adds two fabric crossings to the far RTT.
  EXPECT_GT(far[kReroute + 1], far[0]);

  // Scheduled packets never use pins: same samples, up to the probe
  // bytes the analytic near probe finds still queued behind the far one.
  const Run slow_run = run(true);
  const auto& slow = slow_run.series;
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow_run.stale_relearns, fast_run.stale_relearns);
  EXPECT_EQ(slow[0].responder_changes, fast[0].responder_changes);
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE(testing::Message() << "round " << r);
    ASSERT_EQ(std::isnan(slow[0].far_rtt.ms[r]), std::isnan(far[r]));
    ASSERT_EQ(std::isnan(slow[0].near_rtt.ms[r]), std::isnan(near[r]));
    if (!std::isnan(far[r])) EXPECT_NEAR(slow[0].far_rtt.ms[r], far[r], 0.01);
    if (!std::isnan(near[r])) EXPECT_NEAR(slow[0].near_rtt.ms[r], near[r], 0.01);
  }
}

}  // namespace
}  // namespace ixp::sim
