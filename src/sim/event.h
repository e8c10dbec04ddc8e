// Discrete-event simulation core.
//
// A single-threaded event loop over simulated time.  Events scheduled for
// the same instant fire in scheduling order (a monotone sequence number
// breaks ties), which keeps campaigns bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace ixp::sim {

class Simulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` to run at absolute time `at`.  Scheduling into the
  /// past is a causality violation and always a caller's bug: under
  /// IXP_PARANOID it check-fails with the offending delta; release builds
  /// clamp to now().
  void schedule_at(TimePoint at, Action action);

  /// Schedules `action` to run `delay` from now.
  void schedule(Duration delay, Action action) { schedule_at(now_ + delay, std::move(action)); }

  /// Runs events until the queue empties or the clock passes `until`.
  /// Events at exactly `until` are executed.
  void run_until(TimePoint until);

  /// Runs until the queue is empty.
  void run();

  /// Discards all pending events and resets the clock, sequence counter,
  /// and executed-event count: a cleared simulator behaves exactly like a
  /// freshly constructed one.
  void clear();

  /// Advances the clock without running events scheduled in between.
  /// Used by the fast-path prober, which evaluates queues analytically.
  void advance_to(TimePoint at) {
    if (at > now_) now_ = at;
  }

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t scheduled() const { return next_seq_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest entry by moving it out of the heap.  A
  /// std::priority_queue only exposes a const top(), which forced a copy of
  /// the std::function per event; an explicit vector heap does not.
  Entry pop_next();

  std::vector<Entry> heap_;  ///< binary heap ordered by Later
  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ixp::sim
