// The simulated network: nodes, links, and packet transport.
//
// Two execution modes share the same queues and topology:
//
//  * Event mode -- packets are scheduled hop by hop through the Simulator.
//    Used by unit tests, examples, and conformance checks.
//  * Fast path -- probe() walks the forward and reverse route analytically,
//    querying each fluid queue at the packet's arrival instant.  The walk
//    itself (which links, which responder, which RR stamps) depends only on
//    routing state, so it is resolved once per (origin, source, destination,
//    TTL, record-route) and cached until the route epoch moves; each probe
//    then only executes the crossings.  Callers that send the same probe
//    every round (the TSLP driver) hold a WalkPin and skip even the cache
//    lookup while the epoch holds.  Year-long TSLP campaigns use this;
//    integration tests pin its equivalence to event mode.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/event.h"
#include "sim/node.h"
#include "util/rng.h"

namespace ixp::sim {

/// Maximum hops a fast-path walk will take before declaring a loop.  Well
/// above any real path length (probes start with ttl <= 64; replies also
/// start at 64), so reverse-path TTL expiry is observable before the walk
/// budget runs out.
inline constexpr int kWalkBudget = 255;

/// Result of a fast-path probe.
struct ProbeResult {
  bool answered = false;
  net::Ipv4Address responder;      ///< source of the reply
  net::IcmpType reply_type = net::IcmpType::kTimeExceeded;
  Duration rtt{};
  std::uint16_t ip_id = 0;         ///< IP-ID the responder stamped
  std::vector<net::Ipv4Address> record_route;  ///< stamps accumulated
  bool forward_dropped = false;
  bool reverse_dropped = false;
};

class Network {
  struct ResolvedWalk;  // the walk cache's entries, defined below

 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- Construction -------------------------------------------------------

  NodeId add_node(std::unique_ptr<Node> node);
  Router& add_router(const std::string& name, RouterConfig cfg);
  Host& add_host(const std::string& name);
  L2Switch& add_switch(const std::string& name);

  /// Connects two nodes; both sides get an interface with the given
  /// addresses (0 for L2 ports).  Returns the link id.
  int connect(NodeId a, net::Ipv4Address addr_a, NodeId b, net::Ipv4Address addr_b,
              const LinkConfig& cfg, const net::Ipv4Prefix& subnet);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] DuplexLink& link(int id) { return *links_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const DuplexLink& link(int id) const { return *links_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Node owning `addr`, or kInvalidNode.
  [[nodiscard]] NodeId find_owner(net::Ipv4Address addr) const;

  /// Moves on every change to forwarding or addressing state: connect(),
  /// Router::add_route/clear_fib/mutable_config and L2Switch::learn/forget.
  /// Anything derived from routes or addresses is valid while it holds.
  [[nodiscard]] std::uint64_t route_epoch() const { return route_epoch_; }

  Simulator& simulator() { return sim_; }
  Rng& rng() { return rng_; }
  void seed(std::uint64_t s) { rng_ = Rng(s); }

  // ---- Event-mode transport ----------------------------------------------

  /// Emits `pkt` from `from` out of `ifindex`; `next_hop` picks the L2 port
  /// on a switch fabric (use the packet dst for directly-connected sends).
  /// Queue overflow and tail drops are counted in packets_dropped.
  void transmit(NodeId from, int ifindex, net::Packet pkt, net::Ipv4Address next_hop);

  /// Delivers `pkt` to a node after `delay` (loopback / self-ping).
  void deliver(NodeId to, net::Packet pkt, int in_ifindex, Duration delay);

  // ---- Fast path -----------------------------------------------------------

  /// Full analytic probe: forward walk, ICMP generation at the responding
  /// node, reverse walk back to `from`.  Drops are decided with this
  /// network's RNG against each queue's drop probability.  The probe leaves
  /// `from` fresh: of `pkt` only src, dst, ttl, record_route and size_bytes
  /// are read.
  ProbeResult probe(NodeId from, const net::Packet& pkt);

  /// A caller-held handle on one cached walk: a pointer into the walk
  /// cache plus the route epoch it was taken at.  Cache entries stay put
  /// until the epoch moves, and the epoch never returns to an old value,
  /// so a pin whose epoch is current points at a live, up-to-date walk.
  /// A pin belongs to one Network and one (origin, src, dst, ttl,
  /// record-route) key: reset() it before probing with any of those
  /// changed.
  class WalkPin {
   public:
    void reset() { walk_ = nullptr; }

   private:
    friend class Network;
    const ResolvedWalk* walk_ = nullptr;
    std::uint64_t epoch_ = 0;
  };

  /// probe() through `pin`: reuses the pinned walk while the route epoch
  /// is the one it was taken at, else resolves (through the cache) and
  /// re-pins.  Results are identical to probe(from, pkt).
  ProbeResult probe(NodeId from, const net::Packet& pkt, WalkPin& pin);

  // ---- Statistics -----------------------------------------------------------

  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t icmp_generated = 0;
  std::uint64_t hops_walked = 0;  ///< link crossings, event-mode and analytic

  /// Sum of FluidQueue::Stats over every queue (both directions of every
  /// link).  Scraped into the observability registry at campaign end.
  [[nodiscard]] FluidQueue::Stats queue_stats() const;

 private:
  friend class Router;
  friend class Host;
  friend class L2Switch;

  /// Fast-path hop decision shared with event mode: where does `pkt` go
  /// from `at` given FIBs; returns false if unroutable.
  struct HopDecision {
    int ifindex = -1;
    net::Ipv4Address next_hop;
  };
  std::optional<HopDecision> route_at(NodeId at, net::Ipv4Address dst) const;

  /// One link traversal shared by event mode (transmit) and the analytic
  /// walks: decides drops, advances `t` past the queue, and books the probe
  /// bytes into the backlog.  Returns false when the packet is dropped (the
  /// drop is already counted in packets_dropped).
  bool cross_link(DuplexLink& l, NodeId from, std::uint32_t size_bytes, TimePoint& t);

  /// One link crossing of a resolved walk.  `router`, when set, is the
  /// node whose forwarding delay the packet pays before crossing.
  struct WalkStep {
    DuplexLink* link = nullptr;
    NodeId from = kInvalidNode;
    const Router* router = nullptr;
  };

  /// What routing state alone decides about a probe: the forward
  /// crossings, who answers and how, the reverse crossings and the RR
  /// stamps.  Everything that can change between rounds -- link up/down,
  /// queues, delay steps, forwarding delays, ICMP silence, rate limits and
  /// generation delay -- is left to execute().
  struct ResolvedWalk {
    /// The probe's crossings, then the reply's (from reverse_begin on).
    std::vector<WalkStep> steps;
    std::size_t reverse_begin = 0;
    /// The forward walk reached a node that answers; false when it ends
    /// in a routing drop (no route, RR filter, unknown L2 port, loop).
    bool responds = false;
    /// The reply reaches the origin; false when it ends in a routing drop
    /// or its TTL expires on the way back.
    bool reply_arrives = false;
    Router* icmp_router = nullptr;  ///< null: a host echoes
    net::Ipv4Address reply_src;
    net::IcmpType reply_type = net::IcmpType::kEchoReply;
    std::vector<net::Ipv4Address> record_route;
  };

  struct WalkKey {
    NodeId from;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t ttl;
    bool record_route;
    bool operator==(const WalkKey&) const = default;
  };
  struct WalkKeyHash {
    std::size_t operator()(const WalkKey& k) const noexcept;
  };

  /// The cached resolution for `pkt` sent from `from`; resolves on a miss
  /// and drops the whole cache when the route epoch has moved.
  const ResolvedWalk& resolved_walk(NodeId from, const net::Packet& pkt);
  ResolvedWalk resolve_walk(NodeId from, const net::Packet& pkt);
  /// The per-probe work both probe() entry points share: crossings, ICMP
  /// admission and generation, in walk order.
  ProbeResult execute(const ResolvedWalk& w, const net::Packet& pkt);

  /// Node-side route epoch counter; nodes bump it through the pointer
  /// add_node() hands them.
  std::uint64_t route_epoch_ = 0;
  std::uint64_t walks_epoch_ = 0;
  std::unordered_map<WalkKey, ResolvedWalk, WalkKeyHash> walks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<DuplexLink>> links_;
  std::unordered_map<net::Ipv4Address, NodeId> addr_owner_;
  Simulator sim_;
  Rng rng_{0xabcdef12345ULL};
};

}  // namespace ixp::sim
