#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <cmath>
#include <thread>
#include <vector>

#include "stats/changepoint.h"
#include "stats/descriptive.h"
#include "stats/periodicity.h"
#include "stats/ranks.h"
#include "util/rng.h"

namespace ixp::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// descriptive

TEST(Descriptive, MeanSkipsNaN) {
  const std::vector<double> v = {1.0, kNaN, 3.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.0);
}

TEST(Descriptive, MedianOddEven) {
  const std::vector<double> odd = {3, 1, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 4.0);
}

TEST(Descriptive, StddevKnown) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);  // sample stddev
}

TEST(Descriptive, MadRobustToOutlier) {
  std::vector<double> v(100, 10.0);
  v[50] = 1e6;
  EXPECT_NEAR(mad(v), 0.0, 1e-9);
}

TEST(Descriptive, EmptyAndAllNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(mean(empty)));
  EXPECT_TRUE(std::isnan(median(empty)));
  const std::vector<double> nans = {kNaN, kNaN};
  EXPECT_TRUE(std::isnan(mean(nans)));
  EXPECT_EQ(finite_count(nans), 0u);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> v = {kNaN, 3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
}

// ---------------------------------------------------------------------------
// ranks

TEST(Ranks, SimpleOrdering) {
  const std::vector<double> v = {30, 10, 20};
  const auto r = ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Ranks, TiesGetMidRank) {
  const std::vector<double> v = {5, 5, 1};
  const auto r = ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(Ranks, NaNPreserved) {
  const std::vector<double> v = {2, kNaN, 1};
  const auto r = ranks(v);
  EXPECT_TRUE(std::isnan(r[1]));
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(Ranks, MannWhitneySeparatedSamples) {
  std::vector<double> lo(30), hi(30);
  for (int i = 0; i < 30; ++i) {
    lo[static_cast<std::size_t>(i)] = i * 0.1;
    hi[static_cast<std::size_t>(i)] = 100 + i * 0.1;
  }
  EXPECT_LT(mann_whitney_pvalue(lo, hi), 1e-6);
}

TEST(Ranks, MannWhitneySameDistribution) {
  Rng rng(3);
  std::vector<double> a(200), b(200);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  EXPECT_GT(mann_whitney_pvalue(a, b), 0.01);
}

// ---------------------------------------------------------------------------
// change points

std::vector<double> step_series(std::size_t n, std::size_t shift_at, double base, double delta,
                                double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i < shift_at ? base : base + delta) + noise * rng.normal();
  }
  return v;
}

TEST(ChangePoint, CusumPathShape) {
  // A step series has a V/peak-shaped CUSUM with the extremum at the step.
  const auto v = step_series(100, 50, 10, 20, 0, 1);
  const auto path = cusum_path(v);
  ASSERT_EQ(path.size(), 101u);
  std::size_t extremum = 0;
  double best = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (std::fabs(path[i]) > best) {
      best = std::fabs(path[i]);
      extremum = i;
    }
  }
  EXPECT_EQ(extremum, 50u);
}

TEST(ChangePoint, DetectsSingleShift) {
  const auto v = step_series(200, 120, 10, 15, 0.5, 7);
  const auto cps = detect_change_points(v);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_NEAR(static_cast<double>(cps[0].index), 120.0, 4.0);
  EXPECT_NEAR(cps[0].level_before, 10.0, 0.5);
  EXPECT_NEAR(cps[0].level_after, 25.0, 0.5);
}

TEST(ChangePoint, NoShiftNoDetection) {
  Rng rng(9);
  std::vector<double> v(300);
  for (auto& x : v) x = 10 + 0.5 * rng.normal();
  const auto cps = detect_change_points(v);
  EXPECT_TRUE(cps.empty());
}

TEST(ChangePoint, DetectsUpAndDown) {
  // Up at 100, down at 200 (an elevated episode).
  std::vector<double> v;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double base = (i >= 100 && i < 200) ? 30.0 : 10.0;
    v.push_back(base + 0.4 * rng.normal());
  }
  const auto cps = detect_change_points(v);
  ASSERT_EQ(cps.size(), 2u);
  EXPECT_NEAR(static_cast<double>(cps[0].index), 100.0, 4.0);
  EXPECT_NEAR(static_cast<double>(cps[1].index), 200.0, 4.0);
}

TEST(ChangePoint, RankVariantRobustToOutliers) {
  // Heavy outliers on a flat series must not fake a shift.
  Rng rng(13);
  std::vector<double> v(400, 10.0);
  for (auto& x : v) x += 0.3 * rng.normal();
  for (int i = 0; i < 8; ++i) v[static_cast<std::size_t>(rng.uniform_int(0, 399))] = 500.0;
  CusumOptions opt;
  opt.use_ranks = true;
  const auto cps = detect_change_points(v, opt);
  // Outliers are isolated; rank CUSUM may split at most near them but must
  // not report a *confident, persistent* level change.  Accept zero or
  // rare unstable splits whose levels differ by little.
  for (const auto& cp : cps) {
    EXPECT_LT(std::fabs(cp.level_after - cp.level_before), 2.0);
  }
}

TEST(ChangePoint, ToSegmentsCoversSeries) {
  const auto v = step_series(100, 60, 5, 10, 0.3, 17);
  const auto cps = detect_change_points(v);
  const auto segs = to_segments(v, cps);
  ASSERT_FALSE(segs.empty());
  EXPECT_EQ(segs.front().begin, 0u);
  EXPECT_EQ(segs.back().end, v.size());
  for (std::size_t i = 1; i < segs.size(); ++i) EXPECT_EQ(segs[i].begin, segs[i - 1].end);
}

TEST(ChangePoint, NaNGapsTolerated) {
  auto v = step_series(200, 100, 10, 20, 0.5, 19);
  for (std::size_t i = 40; i < 55; ++i) v[i] = kNaN;
  const auto cps = detect_change_points(v);
  ASSERT_GE(cps.size(), 1u);
  EXPECT_NEAR(static_cast<double>(cps[0].index), 100.0, 6.0);
}

// Property sweep: detection across magnitudes and noise levels.
class ShiftDetection : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ShiftDetection, FindsTheShift) {
  const double delta = std::get<0>(GetParam());
  const double noise = std::get<1>(GetParam());
  const auto v = step_series(240, 140, 12, delta, noise, 23);
  const auto cps = detect_change_points(v);
  ASSERT_GE(cps.size(), 1u) << "delta=" << delta << " noise=" << noise;
  EXPECT_NEAR(static_cast<double>(cps[0].index), 140.0, 8.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShiftDetection,
                         ::testing::Combine(::testing::Values(5.0, 10.0, 27.9),
                                            ::testing::Values(0.2, 0.5, 1.0)));

TEST(ChangePoint, ChangeConfidenceHighForRealShift) {
  Rng rng(101);
  const auto v = step_series(200, 100, 10, 20, 0.5, 101);
  EXPECT_GT(change_confidence(v, 100, rng), 0.95);
}

TEST(ChangePoint, ChangeConfidenceLowForFlatSeries) {
  Rng noise_rng(103);
  std::vector<double> v(200);
  for (auto& x : v) x = 10 + noise_rng.normal();
  Rng rng(104);
  // A flat series' CUSUM range is typical of its own shuffles.
  EXPECT_LT(change_confidence(v, 200, rng), 0.97);
}

TEST(ChangePoint, DeterministicAcrossRuns) {
  const auto v = step_series(300, 150, 8, 12, 0.6, 105);
  const auto a = detect_change_points(v);
  const auto b = detect_change_points(v);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].index, b[i].index);
}

TEST(ChangePoint, MinSegmentRespected) {
  // A shift 3 samples from the end cannot be split off (min_segment 6).
  auto v = step_series(100, 97, 5, 30, 0.1, 107);
  const auto cps = detect_change_points(v);
  for (const auto& cp : cps) {
    EXPECT_GE(cp.index, 6u);
    EXPECT_LE(cp.index, v.size() - 6);
  }
}

// ---------------------------------------------------------------------------
// BootstrapTable: a replayed top-level bootstrap decides exactly as a drawn
// one, and the recursion after it continues from the same stream position.

// Accepted indices from the draw path: a zero-budget table never builds.
std::vector<std::size_t> drawn_indices(std::span<const double> v, const CusumOptions& opt) {
  BootstrapTable none(0);
  ChangePointScratch scratch;
  return detect_change_point_indices(v, opt, scratch, none);
}

// Accepted indices with the top-level bootstrap replayed from `table`: the
// first request for a key draws, the second builds and replays.
std::vector<std::size_t> replayed_indices(std::span<const double> v, const CusumOptions& opt,
                                          BootstrapTable& table) {
  ChangePointScratch scratch;
  const auto first = detect_change_point_indices(v, opt, scratch, table);
  const auto served = table.stats().served;
  const auto second = detect_change_point_indices(v, opt, scratch, table);
  EXPECT_EQ(first, second);
  EXPECT_EQ(table.stats().served, served + 1) << "the second request was not replayed";
  return second;
}

std::vector<std::size_t> legacy_indices(std::span<const double> v, const CusumOptions& opt) {
  std::vector<std::size_t> out;
  for (const auto& cp : detect_change_points(v, opt)) out.push_back(cp.index);
  return out;
}

// A window with up to three level shifts of random (often borderline)
// size, optional NaN runs, and rounded samples so ranks carry ties.
std::vector<double> random_window(Rng& rng, std::size_t n, bool nan_runs) {
  std::vector<double> v(n);
  double level = 20.0;
  std::size_t next_shift = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    if (i == next_shift) {
      level += rng.uniform(-3.0, 3.0);
      next_shift = i + static_cast<std::size_t>(rng.uniform_int(6, static_cast<std::int64_t>(n)));
    }
    v[i] = std::round((level + rng.normal()) * 4.0) / 4.0;
  }
  if (nan_runs) {
    const int runs = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < runs; ++k) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 30));
      for (std::size_t i = at; i < std::min(n, at + len); ++i) v[i] = kNaN;
    }
  }
  return v;
}

TEST(BootstrapTable, ReplayMatchesDrawsOnRankWindowsWithNaNRuns) {
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  Rng rng(2024);
  int multi = 0;
  for (int w = 0; w < 160; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    const auto v = random_window(rng, 288, /*nan_runs=*/w % 2 == 0);
    // Sixteen keys, ten windows each: entries built from one window's
    // request serve windows with other samples.
    CusumOptions opt;
    opt.seed ^= static_cast<std::uint64_t>(w % 16) * 0x9e3779b97f4a7c15ULL;
    const auto drawn = drawn_indices(v, opt);
    EXPECT_EQ(drawn, legacy_indices(v, opt));
    EXPECT_EQ(replayed_indices(v, opt, table), drawn);
    if (drawn.size() >= 2) ++multi;
  }
  // The sweep must exercise the recursion after an accepted replay.
  EXPECT_GT(multi, 20);
}

TEST(BootstrapTable, ReplayMatchesDrawsOnTheDoublePath) {
  // use_ranks = false with non-dyadic samples: the exact-integer buffer is
  // refused and the double buffer is gathered instead.
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  Rng rng(77);
  int accepted = 0;
  for (int w = 0; w < 80; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    const auto n = static_cast<std::size_t>(rng.uniform_int(12, 300));
    auto v = random_window(rng, n, /*nan_runs=*/w % 3 == 0);
    for (auto& x : v) x *= 0.1;
    CusumOptions opt;
    opt.use_ranks = false;
    opt.seed = 0x1234 + static_cast<std::uint64_t>(w);
    const auto drawn = drawn_indices(v, opt);
    EXPECT_EQ(drawn, legacy_indices(v, opt));
    EXPECT_EQ(replayed_indices(v, opt, table), drawn);
    if (!drawn.empty()) ++accepted;
  }
  EXPECT_GT(accepted, 10);
}

TEST(BootstrapTable, ReplayMatchesDrawsAroundTwiceMinSegment) {
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  Rng rng(5);
  for (std::size_t n = 10; n <= 30; ++n) {
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE("n=" + std::to_string(n) + " rep " + std::to_string(rep));
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = (i < n / 2 ? 10.0 : 10.0 + rep) + rng.normal();
      CusumOptions opt;
      opt.seed = n * 31 + static_cast<std::uint64_t>(rep);
      const auto drawn = drawn_indices(v, opt);
      EXPECT_EQ(drawn, legacy_indices(v, opt));
      if (n < 2 * opt.min_segment) {
        // Too short to bootstrap: nothing is requested.
        const auto before = table.stats().requests;
        ChangePointScratch scratch;
        EXPECT_TRUE(detect_change_point_indices(v, opt, scratch, table).empty());
        EXPECT_EQ(table.stats().requests, before);
      } else {
        EXPECT_EQ(replayed_indices(v, opt, table), drawn);
      }
    }
  }
}

// The below-count after each of the first k rounds, from the reporting
// estimator (which never exits early and draws the same stream).
std::vector<int> below_prefix(std::span<const double> v, const CusumOptions& opt) {
  const std::vector<double> input = opt.use_ranks ? ranks(v) : std::vector<double>(v.begin(), v.end());
  std::vector<int> out;
  for (int k = 1; k <= opt.bootstrap_rounds; ++k) {
    Rng rng(opt.seed);
    out.push_back(static_cast<int>(std::lround(change_confidence(input, k, rng) * k)));
  }
  return out;
}

TEST(BootstrapTable, ReplayMatchesDrawsOnEveryExit) {
  // 20 rounds at 0.95: acceptance needs 19 below, so it seals at round 19
  // of 20 at the earliest; the failure exit comes max_fail + 2 exceedances
  // in.
  CusumOptions base;
  base.bootstrap_rounds = 20;
  const int max_fail = static_cast<int>(std::floor((1.0 - base.confidence) * base.bootstrap_rounds));
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  Rng rng(99);
  bool sealed_early = false, failed_early = false, failed_last = false;
  for (int w = 0; w < 4000 && !(sealed_early && failed_early && failed_last); ++w) {
    const auto v = random_window(rng, 60, /*nan_runs=*/false);
    CusumOptions opt = base;
    opt.seed = static_cast<std::uint64_t>(w) + 1;
    const auto prefix = below_prefix(v, opt);
    // Round (0-based) at which the drawn path seals or takes the failure
    // exit, if it does.
    int seal_at = -1, fail_at = -1;
    for (int r = 0; r < opt.bootstrap_rounds && seal_at < 0 && fail_at < 0; ++r) {
      const int below = prefix[static_cast<std::size_t>(r)];
      if (below >= 19) {
        seal_at = r;
      } else if (r + 1 - below >= max_fail + 2) {
        fail_at = r;
      }
    }
    const bool is_seal_early = seal_at >= 0 && seal_at < opt.bootstrap_rounds - 1;
    const bool is_fail_early = fail_at >= 0 && fail_at < 5;
    // Rejected only once the last round is judged: the failure exit there,
    // or no exit at all.
    const bool is_fail_last =
        fail_at == opt.bootstrap_rounds - 1 || (seal_at < 0 && fail_at < 0);
    if (!(is_seal_early && !sealed_early) && !(is_fail_early && !failed_early) &&
        !(is_fail_last && !failed_last)) {
      continue;
    }
    sealed_early |= is_seal_early;
    failed_early |= is_fail_early;
    failed_last |= is_fail_last;
    SCOPED_TRACE("window " + std::to_string(w));
    const auto drawn = drawn_indices(v, opt);
    EXPECT_EQ(drawn, legacy_indices(v, opt));
    EXPECT_EQ(replayed_indices(v, opt, table), drawn);
    if (is_seal_early) {
      EXPECT_FALSE(drawn.empty());
    } else {
      EXPECT_TRUE(drawn.empty());
    }
  }
  EXPECT_TRUE(sealed_early);
  EXPECT_TRUE(failed_early);
  EXPECT_TRUE(failed_last);
}

TEST(BootstrapTable, FirstRequestDrawsAndTheSecondBuilds) {
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  Rng rng(3);
  const auto v = random_window(rng, 288, /*nan_runs=*/false);
  const CusumOptions opt;
  const auto drawn = drawn_indices(v, opt);
  ChangePointScratch scratch;
  for (std::uint64_t call = 1; call <= 3; ++call) {
    EXPECT_EQ(detect_change_point_indices(v, opt, scratch, table), drawn);
    const auto st = table.stats();
    EXPECT_EQ(st.requests, call);
    EXPECT_EQ(st.served, call - 1);
    EXPECT_EQ(st.entries, call == 1 ? 0u : 1u);
    EXPECT_LE(st.bytes, BootstrapTable::kBudgetBytes);
  }
}

TEST(BootstrapTable, SpentBudgetFallsBackToDrawing) {
  // Room for one 288 x 200 entry (plus slack for bookkeeping), not two.
  BootstrapTable table(288 * 200 * sizeof(std::uint16_t) + 4096);
  Rng rng(4);
  const auto a = random_window(rng, 288, /*nan_runs=*/false);
  const auto b = random_window(rng, 288, /*nan_runs=*/true);
  CusumOptions opt_a, opt_b;
  opt_b.seed = opt_a.seed + 1;
  ChangePointScratch scratch;
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(detect_change_point_indices(a, opt_a, scratch, table), drawn_indices(a, opt_a));
    EXPECT_EQ(detect_change_point_indices(b, opt_b, scratch, table), drawn_indices(b, opt_b));
  }
  const auto st = table.stats();
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.served, 2u);  // key a's second and third requests
  EXPECT_LE(st.bytes, 288 * 200 * sizeof(std::uint16_t) + 4096);
}

TEST(BootstrapTable, ConcurrentRequestsShareEntries) {
  // Four threads walk the same keys (shared entries, racing builds) and
  // their own keys (distinct entries); every answer matches the draw path.
  struct Case {
    std::vector<double> v;
    CusumOptions opt;
    std::vector<std::size_t> drawn;
  };
  constexpr int kThreads = 4;
  Rng rng(8);
  std::vector<Case> shared_cases;
  std::vector<std::vector<Case>> own_cases(kThreads);
  for (int k = 0; k < 6; ++k) {
    Case c{random_window(rng, 288, k % 2 == 0), {}, {}};
    c.opt.seed = 100 + static_cast<std::uint64_t>(k);
    c.drawn = drawn_indices(c.v, c.opt);
    shared_cases.push_back(std::move(c));
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < 3; ++k) {
      Case c{random_window(rng, 200, false), {}, {}};
      c.opt.seed = 1000 + static_cast<std::uint64_t>(t * 10 + k);
      c.drawn = drawn_indices(c.v, c.opt);
      own_cases[static_cast<std::size_t>(t)].push_back(std::move(c));
    }
  }
  BootstrapTable table(BootstrapTable::kBudgetBytes);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ChangePointScratch scratch;
      for (int pass = 0; pass < 4; ++pass) {
        for (const auto* cases : {&shared_cases, &own_cases[static_cast<std::size_t>(t)]}) {
          for (const auto& c : *cases) {
            if (detect_change_point_indices(c.v, c.opt, scratch, table) != c.drawn) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto st = table.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kThreads * 4 * (6 + 3)));
  EXPECT_EQ(st.entries, 6u + kThreads * 3u);
  EXPECT_GT(st.served, 0u);
}

// Quantile is monotone in q and bounded by min/max (property sweep).
class QuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileProperty, MonotoneAndBounded) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(50 + GetParam() * 37);
  for (auto& x : v) x = rng.pareto(1.2, 1.0);
  double prev = -1e300;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double val = quantile(v, q);
    EXPECT_GE(val, prev);
    EXPECT_GE(val, min_value(v) - 1e-12);
    EXPECT_LE(val, max_value(v) + 1e-12);
    prev = val;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileProperty, ::testing::Range(0, 6));

// The selection kernel must reproduce the sort-based definition exactly --
// the TSLP engines' byte-identity rests on it.  Sweeps sizes across the
// sort cutoff and all three partition outcomes (low side, straddle, high
// side with pivot-equal runs).
TEST(QuantileProperty, SelectionMatchesSortedReference) {
  Rng rng(777);
  for (int it = 0; it < 200; ++it) {
    std::vector<double> v(1 + static_cast<std::size_t>(it) * 3 % 401);
    for (auto& x : v) {
      // Heavy ties every third case to exercise the pivot-equal peel.
      x = (it % 3 == 0) ? std::floor(rng.uniform(0.0, 5.0)) : rng.uniform(0.0, 100.0);
    }
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.05, 0.10, 0.5, 0.9, 0.95, 1.0}) {
      const double pos = q * static_cast<double>(sorted.size() - 1);
      const std::size_t lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      const double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      std::vector<double> work = v;
      const double got = quantile_inplace(std::span<double>(work), q);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "n=" << v.size() << " q=" << q << " it=" << it;
    }
  }
}

// Repeated in-place calls on one buffer must keep returning what a fresh
// call would: the window prefilter computes p95 then p05 from one buffer.
TEST(QuantileProperty, RepeatedInplaceCallsAreStable) {
  Rng rng(778);
  std::vector<double> v(300);
  for (auto& x : v) x = rng.uniform(0.0, 50.0);
  std::vector<double> fresh = v;
  const double q95_fresh = quantile_inplace(std::span<double>(fresh), 0.95);
  fresh = v;
  const double q05_fresh = quantile_inplace(std::span<double>(fresh), 0.05);
  const double q95 = quantile_inplace(std::span<double>(v), 0.95);
  const double q05 = quantile_inplace(std::span<double>(v), 0.05);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(q95), std::bit_cast<std::uint64_t>(q95_fresh));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(q05), std::bit_cast<std::uint64_t>(q05_fresh));
}

// ---------------------------------------------------------------------------
// periodicity

std::vector<double> diurnal_series(int days, int spd, double amplitude, double noise,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(days * spd));
  for (int d = 0; d < days; ++d) {
    for (int s = 0; s < spd; ++s) {
      const double hour = 24.0 * s / spd;
      const double bump = (hour > 10 && hour < 18) ? amplitude : 0.0;
      v.push_back(10 + bump + noise * rng.normal());
    }
  }
  return v;
}

TEST(Periodicity, AutocorrelationOfPeriodicSeries) {
  const auto v = diurnal_series(10, 96, 15, 0.5, 29);
  const double day_acf = autocorrelation(v, 96);
  const double off_acf = autocorrelation(v, 48);
  EXPECT_GT(day_acf, 0.6);
  EXPECT_LT(off_acf, 0.0);  // half-day lag anti-correlates
}

TEST(Periodicity, DiurnalScoreRecurring) {
  const auto v = diurnal_series(12, 96, 15, 0.5, 31);
  DiurnalOptions opt;
  opt.samples_per_day = 96;
  const auto score = diurnal_score(v, opt);
  EXPECT_TRUE(score.recurring);
  EXPECT_GT(score.elevated_day_frac, 0.9);
}

TEST(Periodicity, FlatSeriesNotRecurring) {
  Rng rng(37);
  std::vector<double> v(96 * 12);
  for (auto& x : v) x = 10 + 0.5 * rng.normal();
  DiurnalOptions opt;
  opt.samples_per_day = 96;
  EXPECT_FALSE(diurnal_score(v, opt).recurring);
}

TEST(Periodicity, SingleStepNotRecurring) {
  // A multi-day level shift is elevated but not diurnal.
  std::vector<double> v;
  Rng rng(41);
  for (int i = 0; i < 96 * 12; ++i) {
    const double base = (i > 96 * 5 && i < 96 * 8) ? 30.0 : 10.0;
    v.push_back(base + 0.4 * rng.normal());
  }
  DiurnalOptions opt;
  opt.samples_per_day = 96;
  const auto score = diurnal_score(v, opt);
  EXPECT_FALSE(score.recurring);
}

TEST(Periodicity, TooShortSeries) {
  const std::vector<double> v(50, 10.0);
  DiurnalOptions opt;
  opt.samples_per_day = 96;
  EXPECT_FALSE(diurnal_score(v, opt).recurring);
}

TEST(Periodicity, Lag0IsOne) {
  const auto v = diurnal_series(4, 48, 10, 0.3, 44);
  EXPECT_NEAR(autocorrelation(v, 0), 1.0, 1e-9);
}

TEST(Periodicity, LagBeyondLengthIsNaN) {
  const std::vector<double> v(10, 1.0);
  EXPECT_TRUE(std::isnan(autocorrelation(v, 10)));
  EXPECT_TRUE(std::isnan(autocorrelation(v, 100)));
}

TEST(Periodicity, AcfVectorSizes) {
  const auto v = diurnal_series(4, 24, 10, 0.1, 43);
  const auto a = acf(v, 30);
  ASSERT_EQ(a.size(), 31u);
  EXPECT_NEAR(a[0], 1.0, 1e-9);
}

}  // namespace
}  // namespace ixp::stats
