// Duplex links: a pair of independently-queued simplex directions.
//
// Each direction owns a FluidQueue (capacity, buffer, cross-traffic) plus a
// propagation delay.  Links can be taken down/up and re-provisioned at
// runtime; the topology timeline uses this for the events the paper
// documents (transit shut-off, port upgrade, member disconnection).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/queue.h"
#include "util/time.h"

namespace ixp::sim {

using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

struct LinkConfig {
  double capacity_bps = 1e9;
  double buffer_bytes = 1e6;
  Duration prop_delay = milliseconds(0.2);
  TrafficProfilePtr cross_ab;  ///< cross traffic A -> B (may be null)
  TrafficProfilePtr cross_ba;  ///< cross traffic B -> A (may be null)
  double base_loss = 0.0;      ///< floor loss probability per direction
};

class DuplexLink {
 public:
  DuplexLink(NodeId a, NodeId b, const LinkConfig& cfg)
      : a_(a),
        b_(b),
        prop_delay_(cfg.prop_delay),
        ab_(FluidQueue::Config{cfg.capacity_bps, cfg.buffer_bytes, cfg.cross_ab, kMinute,
                               cfg.base_loss}),
        ba_(FluidQueue::Config{cfg.capacity_bps, cfg.buffer_bytes, cfg.cross_ba, kMinute,
                               cfg.base_loss}) {}

  [[nodiscard]] NodeId node_a() const { return a_; }
  [[nodiscard]] NodeId node_b() const { return b_; }
  [[nodiscard]] NodeId other(NodeId n) const { return n == a_ ? b_ : a_; }
  [[nodiscard]] Duration prop_delay() const { return prop_delay_; }

  /// Changes the propagation delay immediately (models route changes
  /// inside the neighbor network: the far side moves, the near side does
  /// not).  Clears any scheduled steps: the immediate setter is the
  /// legacy "retroactive" API.
  void set_prop_delay(Duration d) {
    prop_delay_ = d;
    prop_steps_.clear();
  }

  /// Schedules a propagation-delay change taking effect at `at`.  Both
  /// the event-mode transmit and the analytic walk evaluate the delay at
  /// the instant the packet crosses the link, so a step never affects
  /// packets already past the link -- this is what keeps the two modes in
  /// byte-for-byte agreement across a reroute boundary.
  void set_prop_delay(TimePoint at, Duration d) { add_step(prop_steps_, at, d); }

  /// Propagation delay in force at `t` (baseline before the first step).
  [[nodiscard]] Duration prop_delay_at(TimePoint t) const {
    return value_at(prop_steps_, prop_delay_, t);
  }

  /// Extra one-way delay for the direction leaving `from` (route changes
  /// that affect only one direction; keeps the reverse path clean).
  /// Immediate form; clears scheduled steps for that direction.
  void set_extra_delay_from(NodeId from, Duration d) {
    (from == a_ ? extra_ab_ : extra_ba_) = d;
    (from == a_ ? extra_steps_ab_ : extra_steps_ba_).clear();
  }

  /// Schedules a directional extra-delay change taking effect at `at`
  /// (a reroute landing mid-campaign).  Evaluated at crossing time, like
  /// prop-delay steps, so in-flight packets keep the delay they crossed
  /// with.
  void set_extra_delay_from(NodeId from, TimePoint at, Duration d) {
    add_step(from == a_ ? extra_steps_ab_ : extra_steps_ba_, at, d);
  }

  [[nodiscard]] Duration extra_delay_from(NodeId from) const {
    return from == a_ ? extra_ab_ : extra_ba_;
  }

  /// Extra delay in force at `t` for the direction leaving `from`.
  [[nodiscard]] Duration extra_delay_from(NodeId from, TimePoint t) const {
    return value_at(from == a_ ? extra_steps_ab_ : extra_steps_ba_,
                    from == a_ ? extra_ab_ : extra_ba_, t);
  }

  /// Queue for the direction leaving node `from`.
  FluidQueue& queue_from(NodeId from) { return from == a_ ? ab_ : ba_; }
  [[nodiscard]] const FluidQueue& queue_from(NodeId from) const {
    return from == a_ ? ab_ : ba_;
  }
  [[nodiscard]] const FluidQueue& queue_ab() const { return ab_; }
  [[nodiscard]] const FluidQueue& queue_ba() const { return ba_; }

  [[nodiscard]] bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Interface index this link occupies on each endpoint (set by Network).
  void set_ifindex(NodeId n, int ifindex) { (n == a_ ? ifindex_a_ : ifindex_b_) = ifindex; }
  [[nodiscard]] int ifindex_at(NodeId n) const { return n == a_ ? ifindex_a_ : ifindex_b_; }

  /// Re-provisions both directions (e.g., 10 Mbps -> 1 Gbps upgrade).
  void upgrade(TimePoint t, double capacity_bps, double buffer_bytes) {
    ab_.set_capacity(t, capacity_bps, buffer_bytes);
    ba_.set_capacity(t, capacity_bps, buffer_bytes);
  }

  void set_cross_traffic(TimePoint t, TrafficProfilePtr ab, TrafficProfilePtr ba) {
    ab_.set_cross_traffic(t, std::move(ab));
    ba_.set_cross_traffic(t, std::move(ba));
  }

 private:
  using DelaySteps = std::vector<std::pair<TimePoint, Duration>>;

  static void add_step(DelaySteps& steps, TimePoint at, Duration d) {
    const auto pos = std::upper_bound(
        steps.begin(), steps.end(), at,
        [](TimePoint t, const std::pair<TimePoint, Duration>& s) { return t < s.first; });
    steps.insert(pos, {at, d});
  }

  /// Value of the most recent step with step.at <= t; `base` before the
  /// first step.  Steps are few (timeline events), so a linear scan wins
  /// over binary search for the empty/short cases the hot path sees.
  [[nodiscard]] static Duration value_at(const DelaySteps& steps, Duration base, TimePoint t) {
    Duration v = base;
    for (const auto& [at, d] : steps) {
      if (at > t) break;
      v = d;
    }
    return v;
  }

  NodeId a_;
  NodeId b_;
  Duration prop_delay_;
  FluidQueue ab_;
  FluidQueue ba_;
  bool up_ = true;
  Duration extra_ab_{};
  Duration extra_ba_{};
  DelaySteps prop_steps_;
  DelaySteps extra_steps_ab_;
  DelaySteps extra_steps_ba_;
  int ifindex_a_ = -1;
  int ifindex_b_ = -1;
};

}  // namespace ixp::sim
