// The TSLP fast path: a scratch-reusing, vectorized implementation of the
// level-shift detector, plus a structure-of-arrays batch front end.
//
// detect_fast() is byte-identical to LevelShiftDetector::detect_legacy()
// on every input (see docs/ARCHITECTURE.md, "TSLP fast path", for the
// argument; tests/test_tslp.cc and the golden corpus pin it).  The speed
// comes from exact transformations only:
//   * change-point detection returns accepted *indices* without the
//     discarded per-point confidence re-estimation and segment medians
//     (stats::detect_change_point_indices);
//   * one FiniteIndex pass replaces every per-range counting loop;
//   * the quiet-window test short-circuits on a fused finite min/max
//     (max - min < threshold/2 implies p95 - p05 < threshold/2);
//   * one isfinite compaction feeds both prefilter quantiles;
//   * all per-window buffers are recycled across windows and series.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "stats/changepoint.h"
#include "tslp/kernels.h"
#include "tslp/level_shift.h"
#include "util/check.h"

namespace ixp::tslp {

/// A borrowed series: the samples plus the time base, so detection can run
/// directly over columnar-store decode buffers without copying into an
/// RttSeries.  Same index/time arithmetic as RttSeries.
struct SeriesView {
  std::span<const double> ms;
  TimePoint start{};
  Duration interval = kMinute * 5;

  [[nodiscard]] TimePoint time_of(std::size_t i) const {
    IXP_CHECK(interval.count() > 0, "SeriesView interval must be positive");
    return start + interval * static_cast<std::int64_t>(i);
  }
  [[nodiscard]] std::size_t index_of(TimePoint t) const {
    IXP_CHECK(interval.count() > 0, "SeriesView interval must be positive");
    const auto d = t - start;
    if (d.count() < 0) return 0;
    return static_cast<std::size_t>(d.count() / interval.count());
  }
  [[nodiscard]] std::size_t size() const { return ms.size(); }
};

[[nodiscard]] inline SeriesView view_of(const RttSeries& s) {
  return SeriesView{std::span<const double>(s.ms), s.start, s.interval};
}

/// Reusable buffers for detect_fast: one instance amortizes every
/// allocation across the windows of a series and across the series of a
/// batch.
struct DetectScratch {
  FiniteIndex index;
  stats::ChangePointScratch cp;
  std::vector<double> finite;               ///< isfinite compaction buffer
  std::vector<std::size_t> cps;             ///< global change-point indices
  std::vector<stats::ChangePoint> cp_structs;
};

/// The fast detector.  Byte-identical to detect_legacy on the same samples,
/// options, and time base.
LevelShiftResult detect_fast(const SeriesView& series, const LevelShiftOptions& opts,
                             DetectScratch& scratch);

namespace detail {

enum class WindowOutcome { kDark, kQuiet, kScanned };

/// One analysis window: the darkness and quiet-spread skips, then
/// change-point detection with the window's perturbed seed.  Accepted
/// global indices are appended to `cps`.  Shared by the offline and online
/// engines so a window is processed identically no matter when its samples
/// arrived.  `finite` must be the chunk's not-NaN count.
WindowOutcome scan_window(std::span<const double> chunk, std::size_t begin, std::size_t finite,
                          const LevelShiftOptions& opts, stats::ChangePointScratch& cp,
                          std::vector<double>& finite_buf, std::vector<std::size_t>& cps);

/// The assembly tail shared by detect_fast and OnlineLevelShift::finalize:
/// sort/unique scratch.cps, segments, elevated episodes, sanitization,
/// duration filter, Mann-Whitney significance.  Requires out.baseline_ms
/// set and scratch.index built over `series`.
void assemble_result(const SeriesView& series, const LevelShiftOptions& opts,
                     DetectScratch& scratch, LevelShiftResult& out);

}  // namespace detail

/// Structure-of-arrays container for many series: all samples live in one
/// contiguous buffer with per-series extents, so a batch detection sweep
/// walks memory linearly and reuses one scratch for every series.
class SeriesBatch {
 public:
  void add(std::string key, const RttSeries& s) {
    add(std::move(key), s.start, s.interval, s.ms);
  }
  /// Pre-sizes the columnar buffers so a pack loop with known totals never
  /// pays growth copies of the sample store (tens of MB for a campaign).
  void reserve(std::size_t series, std::size_t samples) {
    samples_.reserve(samples);
    offsets_.reserve(series + 1);
    starts_.reserve(series);
    intervals_.reserve(series);
    keys_.reserve(series);
  }
  void add(std::string key, TimePoint start, Duration interval, std::span<const double> ms) {
    IXP_CHECK(interval.count() > 0, "SeriesBatch interval must be positive");
    samples_.insert(samples_.end(), ms.begin(), ms.end());
    offsets_.push_back(samples_.size());
    starts_.push_back(start);
    intervals_.push_back(interval);
    keys_.push_back(std::move(key));
  }
  void clear() {
    samples_.clear();
    offsets_.assign(1, 0);
    starts_.clear();
    intervals_.clear();
    keys_.clear();
  }
  [[nodiscard]] std::size_t size() const { return starts_.size(); }
  [[nodiscard]] std::size_t total_samples() const { return samples_.size(); }
  [[nodiscard]] const std::string& key(std::size_t i) const { return keys_[i]; }
  [[nodiscard]] SeriesView view(std::size_t i) const {
    return SeriesView{
        std::span<const double>(samples_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]),
        starts_[i], intervals_[i]};
  }

 private:
  std::vector<double> samples_;
  std::vector<std::size_t> offsets_{0};
  std::vector<TimePoint> starts_;
  std::vector<Duration> intervals_;
  std::vector<std::string> keys_;
};

/// Runs detect_fast over every series of the batch with one shared scratch.
/// results[i] corresponds to batch.view(i).
std::vector<LevelShiftResult> detect_batch(const SeriesBatch& batch, const LevelShiftOptions& opts);

}  // namespace ixp::tslp
