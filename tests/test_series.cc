#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "series/columnar.h"
#include "util/rng.h"

namespace ixp::series {
namespace {

bool bit_equal(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan && b_nan;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_roundtrip(const std::vector<double>& values) {
  Column col;
  col.append(values);
  const auto decoded = col.decode();
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(bit_equal(decoded[i], values[i]))
        << "sample " << i << ": " << values[i] << " decoded as " << decoded[i];
  }
}

// ---------------------------------------------------------------------------
// Codec round-trip

TEST(Columnar, RoundTripsGridValues) {
  // Integer-nanosecond RTTs: the common case, everything delta-encoded.
  std::vector<double> v;
  Rng rng(1);
  double ms = 12.0;
  for (int i = 0; i < 5000; ++i) {
    ms += rng.uniform(-0.05, 0.05);
    v.push_back(std::round(ms * 1e6) / 1e6);  // snap to the 1e-6 ms grid
  }
  expect_roundtrip(v);
}

TEST(Columnar, RoundTripsAdversarialDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {
      0.0,
      -0.0,  // must survive as -0.0, not be folded into +0.0 by quantization
      1.0 / 3.0,
      nan,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::epsilon(),
      1e300,
      -1e300,
      nan,
      nan,
      42.000001,   // on the 1e-6 grid
      42.0000005,  // off the grid: literal path
      9.3e12,      // past the llround domain guard
      -17.25,
  };
  expect_roundtrip(v);
  // -0.0 specifically: the decoded value must keep its sign bit.
  Column col;
  col.append(std::vector<double>{-0.0});
  EXPECT_TRUE(std::signbit(col.decode()[0]));
}

TEST(Columnar, RoundTripsRandomBitPatterns) {
  // Arbitrary 64-bit patterns reinterpreted as doubles: every NaN decodes
  // as missing (that is the container's semantics), every non-NaN decodes
  // bit-exact.
  Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t bits =
        rng.next() ^ (static_cast<std::uint64_t>(rng.next()) << 17);
    v.push_back(std::bit_cast<double>(bits));
  }
  expect_roundtrip(v);
}

TEST(Columnar, GapRunsAreCheap) {
  // A maintenance-window outage of 100k rounds must cost a handful of
  // bytes, not 800 KB.
  std::vector<double> v(100000, std::numeric_limits<double>::quiet_NaN());
  v.front() = 5.0;
  v.back() = 5.0;
  Column col;
  col.append(v);
  EXPECT_LT(col.resident_bytes(), 64u);
  expect_roundtrip(v);
}

TEST(Columnar, TrailingGapIsDecoded) {
  // An open gap run at the end of the stream is flushed lazily; decode
  // must still materialize it.
  std::vector<double> v = {1.5, 2.5};
  v.resize(50, std::numeric_limits<double>::quiet_NaN());
  Column col;
  col.append(v);
  EXPECT_EQ(col.samples, 50u);
  expect_roundtrip(v);
}

TEST(Columnar, StreamingChunksMatchOneShot) {
  // Encoded bytes must be identical whether samples arrive in one call or
  // in ragged chunks (campaign segments have arbitrary boundaries,
  // including ones that split a gap run).
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 3000; ++i) {
    if (rng.chance(0.2)) {
      const int run = 1 + static_cast<int>(rng.uniform_int(0, 40));
      for (int k = 0; k < run; ++k) v.push_back(tslp::kMissing);
    }
    v.push_back(std::round(rng.uniform(1.0, 30.0) * 1e6) / 1e6);
  }
  Column one;
  one.append(v);

  Column chunked;
  std::size_t at = 0;
  while (at < v.size()) {
    const std::size_t n = std::min<std::size_t>(
        v.size() - at, 1 + static_cast<std::size_t>(rng.uniform_int(0, 97)));
    chunked.append(std::span<const double>(v.data() + at, n));
    at += n;
  }
  EXPECT_EQ(one.samples, chunked.samples);
  EXPECT_EQ(one.bytes, chunked.bytes);
  EXPECT_EQ(one.open_gap, chunked.open_gap);
  EXPECT_EQ(one.prev_q, chunked.prev_q);
  const auto a = one.decode();
  const auto b = chunked.decode();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(bit_equal(a[i], b[i]));
}

TEST(Columnar, CompressesTypicalRtts) {
  // The sizing claim docs/SCALING.md makes: smooth on-grid RTT series
  // encode at a small fraction of 8 bytes/sample.
  Rng rng(11);
  std::vector<double> v;
  double ms = 8.0;
  for (int i = 0; i < 100000; ++i) {
    ms = std::max(1.0, ms + rng.uniform(-0.01, 0.01));
    v.push_back(std::round(ms * 1e6) / 1e6);
  }
  Column col;
  col.append(v);
  EXPECT_LT(col.resident_bytes(), v.size() * 8 / 2);  // at least 2x
  expect_roundtrip(v);
}

// ---------------------------------------------------------------------------
// SeriesStore

TEST(SeriesStore, DecodeMirrorsRawAccumulation) {
  SeriesStore store(TimePoint{}, kMinute * 5);
  LinkMeta meta;
  meta.key = "VP1-AS100";
  meta.near_asn = 1;
  meta.far_asn = 100;
  meta.at_ixp = true;
  const std::size_t li = store.add_link(meta);

  const std::vector<double> near1 = {1.0, 1.5, tslp::kMissing};
  const std::vector<double> far1 = {2.0, 2.5, 3.0};
  const std::vector<double> near2 = {1.25, tslp::kMissing};
  const std::vector<double> far2 = {tslp::kMissing, 3.5};
  store.append(li, near1, far1);
  store.append(li, near2, far2);

  const auto ls = store.decode(li);
  EXPECT_EQ(ls.key, "VP1-AS100");
  EXPECT_EQ(ls.far_asn, 100u);
  EXPECT_TRUE(ls.at_ixp);
  EXPECT_EQ(ls.near_rtt.interval, kMinute * 5);
  ASSERT_EQ(ls.near_rtt.ms.size(), 5u);
  ASSERT_EQ(ls.far_rtt.ms.size(), 5u);
  EXPECT_TRUE(bit_equal(ls.near_rtt.ms[2], tslp::kMissing));
  EXPECT_DOUBLE_EQ(ls.near_rtt.ms[3], 1.25);
  EXPECT_DOUBLE_EQ(ls.far_rtt.ms[4], 3.5);
  EXPECT_EQ(store.samples(li), 5u);
  EXPECT_EQ(store.samples_total(), 10u);
  EXPECT_EQ(store.raw_bytes(), 10u * 8u);
}

TEST(SeriesStore, LateLinkGetsLeadingGap) {
  SeriesStore store(TimePoint{}, kMinute * 5);
  const std::size_t a = store.add_link({.key = "early"});
  store.append(a, std::vector<double>{1.0, 2.0, 3.0}, std::vector<double>{4.0, 5.0, 6.0});
  // Discovered after three rounds: its history starts with three missing.
  const std::size_t b = store.add_link({.key = "late"}, 3);
  store.append(b, std::vector<double>{7.0}, std::vector<double>{8.0});

  const auto ls = store.decode(b);
  ASSERT_EQ(ls.near_rtt.ms.size(), 4u);
  EXPECT_TRUE(std::isnan(ls.near_rtt.ms[0]));
  EXPECT_TRUE(std::isnan(ls.near_rtt.ms[2]));
  EXPECT_DOUBLE_EQ(ls.near_rtt.ms[3], 7.0);
  EXPECT_DOUBLE_EQ(ls.far_rtt.ms[3], 8.0);
  // The lead gap counts toward coverage, like explicit kMissing would.
  EXPECT_NEAR(ls.near_rtt.coverage(), 0.25, 1e-12);
}

TEST(SeriesStore, PadToAdvancesStragglers) {
  SeriesStore store(TimePoint{}, kMinute * 5);
  const std::size_t li = store.add_link({.key = "lagging"});
  store.append(li, std::vector<double>{1.0}, std::vector<double>{2.0});
  store.pad_to(li, 6);
  EXPECT_EQ(store.samples(li), 6u);
  const auto ls = store.decode(li);
  ASSERT_EQ(ls.near_rtt.ms.size(), 6u);
  for (std::size_t i = 1; i < 6; ++i) EXPECT_TRUE(std::isnan(ls.near_rtt.ms[i]));
  // Padding to the current length is a no-op, not an error.
  store.pad_to(li, 6);
  EXPECT_EQ(store.samples(li), 6u);
}

}  // namespace
}  // namespace ixp::series
