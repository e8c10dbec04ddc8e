#include "sim/event.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace ixp::sim {

void Simulator::schedule_at(TimePoint at, Action action) {
  if (at < now_) {
    // A past-time event is a causality violation: the caller computed an
    // arrival behind the clock, which is a bug in the caller.  Fail loudly
    // when the paranoid layer is on; clamp in release so legacy callers
    // keep the historic "fire immediately" behaviour.
    IXP_CHECK(at >= now_,
              strformat("schedule_at into the past: at=%lld ns, now=%lld ns, delta=%lld ns",
                        static_cast<long long>(at.ns()), static_cast<long long>(now_.ns()),
                        static_cast<long long>((now_ - at).count())));
    at = now_;
  }
  heap_.push_back(Entry{at, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Simulator::Entry Simulator::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

void Simulator::run_until(TimePoint until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    Entry e = pop_next();
    // max(): advance_to() may have moved the clock past still-pending
    // events (the fast-path prober does); executing those overdue events
    // must never rewind now() -- schedule(delay) inside the action would
    // otherwise compute from a clock that already moved on.
    now_ = std::max(now_, e.at);
    ++executed_;
    e.action();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (!heap_.empty()) {
    Entry e = pop_next();
    now_ = std::max(now_, e.at);
    ++executed_;
    e.action();
  }
}

void Simulator::clear() {
  heap_.clear();
  now_ = TimePoint{};
  next_seq_ = 0;
  executed_ = 0;
}

}  // namespace ixp::sim
