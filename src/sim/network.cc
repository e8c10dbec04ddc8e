#include "sim/network.h"

#include <cassert>
#include <span>

#include "util/log.h"

namespace ixp::sim {

constinit thread_local LpContext* Network::active_lp_ctx_ = nullptr;

NodeId Network::add_node(std::unique_ptr<Node> node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->set_id(id);
  node->route_epoch_ = &route_epoch_;
  nodes_.push_back(std::move(node));
  return id;
}

Router& Network::add_router(const std::string& name, RouterConfig cfg) {
  auto router = std::make_unique<Router>(name, std::move(cfg), rng_.fork());
  Router& ref = *router;
  add_node(std::move(router));
  return ref;
}

Host& Network::add_host(const std::string& name) {
  auto host = std::make_unique<Host>(name);
  Host& ref = *host;
  add_node(std::move(host));
  return ref;
}

L2Switch& Network::add_switch(const std::string& name) {
  auto sw = std::make_unique<L2Switch>(name);
  L2Switch& ref = *sw;
  add_node(std::move(sw));
  return ref;
}

int Network::connect(NodeId a, net::Ipv4Address addr_a, NodeId b, net::Ipv4Address addr_b,
                     const LinkConfig& cfg, const net::Ipv4Prefix& subnet) {
  const int link_id = static_cast<int>(links_.size());
  links_.push_back(std::make_unique<DuplexLink>(a, b, cfg));
  DuplexLink& l = *links_.back();
  const int if_a = node(a).add_interface(Interface{addr_a, link_id, subnet});
  const int if_b = node(b).add_interface(Interface{addr_b, link_id, subnet});
  l.set_ifindex(a, if_a);
  l.set_ifindex(b, if_b);
  ++route_epoch_;  // new interfaces and addresses
  if (!addr_a.is_unspecified()) addr_owner_[addr_a] = a;
  if (!addr_b.is_unspecified()) addr_owner_[addr_b] = b;
  // If either endpoint is a switch fabric, teach it the far address and the
  // node behind it: the learned table is the single O(1) port resolution
  // used by both the event-driven and the analytic forwarding paths.
  if (node(a).is_switch() && !addr_b.is_unspecified()) {
    static_cast<L2Switch&>(node(a)).learn(addr_b, if_a, b);
  }
  if (node(b).is_switch() && !addr_a.is_unspecified()) {
    static_cast<L2Switch&>(node(b)).learn(addr_a, if_b, a);
  }
  return link_id;
}

NodeId Network::find_owner(net::Ipv4Address addr) const {
  const auto it = addr_owner_.find(addr);
  return it == addr_owner_.end() ? kInvalidNode : it->second;
}

void Network::transmit(NodeId from, int ifindex, net::Packet pkt, net::Ipv4Address next_hop) {
  Node& sender = node(from);
  if (ifindex < 0 || ifindex >= static_cast<int>(sender.interfaces().size())) {
    bump_dropped();
    return;
  }
  const Interface& ifc = sender.interfaces()[static_cast<std::size_t>(ifindex)];
  DuplexLink& l = link(ifc.link_id);
  Simulator& sim = active_sim();
  TimePoint t = sim.now();
  if (!cross_link(l, from, pkt.size_bytes, t)) return;  // drop already counted
  pkt.l2_next_hop = next_hop;
  const NodeId peer = l.other(from);
  const int peer_if = l.ifindex_at(peer);
  LpContext* ctx = active_lp_ctx_;
  if (ctx && lp_of_node_ &&
      (*lp_of_node_)[static_cast<std::size_t>(peer)] != ctx->lp) {
    // The peer lives in another logical process: buffer the crossing in
    // the per-pair outbox.  The arrival is at least one lookahead past
    // the current window, so exchanging at the barrier is safe.
    const int dst = (*lp_of_node_)[static_cast<std::size_t>(peer)];
    ctx->outbox[static_cast<std::size_t>(dst)].push_back(
        LpMessage{t, sim.now(), ctx->out_seq++, ctx->lp, peer, peer_if, std::move(pkt)});
    return;
  }
  sim.schedule_at(t, [this, peer, peer_if, pkt = std::move(pkt)]() mutable {
    node(peer).receive(*this, std::move(pkt), peer_if);
  });
}

void Network::deliver(NodeId to, net::Packet pkt, int in_ifindex, Duration delay) {
  active_sim().schedule(delay, [this, to, in_ifindex, pkt = std::move(pkt)]() mutable {
    node(to).receive(*this, std::move(pkt), in_ifindex);
  });
}

std::optional<Network::HopDecision> Network::route_at(NodeId at, net::Ipv4Address dst) const {
  const Node& n = node(at);
  switch (n.kind()) {
    case NodeKind::kRouter: {
      const auto* e = static_cast<const Router&>(n).route_lookup(dst);
      if (!e) return std::nullopt;
      return HopDecision{e->ifindex, e->next_hop.is_unspecified() ? dst : e->next_hop};
    }
    case NodeKind::kHost:
      // Hosts send everything via interface 0; on-subnet destinations are
      // reached directly, everything else via the configured gateway.
      if (n.interfaces().empty()) return std::nullopt;
      return HopDecision{0, dst};
    case NodeKind::kSwitch:
      break;  // switches forward at L2, not by FIB
  }
  return std::nullopt;
}

bool Network::cross_link(DuplexLink& l, NodeId from, std::uint32_t size_bytes, TimePoint& t) {
  if (!l.is_up()) {
    bump_dropped();
    return false;
  }
  const std::optional<Duration> queued = l.queue_from(from).cross(t, size_bytes, active_rng());
  if (!queued) {
    bump_dropped();
    return false;
  }
  // Delays are evaluated at the crossing instant `t`: a scheduled delay
  // step (link.h) taking effect later never rewrites this packet's
  // traversal, in either execution mode.
  t += *queued + l.prop_delay_at(t) + l.extra_delay_from(from, t);
  bump_hops();
  return true;
}

std::size_t Network::WalkKeyHash::operator()(const WalkKey& k) const noexcept {
  const std::uint64_t a = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.from)) << 32) | k.src;
  const std::uint64_t b = (static_cast<std::uint64_t>(k.dst) << 16) |
                          (static_cast<std::uint64_t>(k.ttl) << 1) | (k.record_route ? 1u : 0u);
  std::uint64_t h = a * 0x9e3779b97f4a7c15ULL ^ b;
  h ^= h >> 31;
  return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
}

const Network::ResolvedWalk& Network::resolved_walk(NodeId from, const net::Packet& pkt) {
  if (walks_epoch_ != route_epoch_) {
    walks_.clear();
    walks_epoch_ = route_epoch_;
  }
  const WalkKey key{from, pkt.src.value(), pkt.dst.value(), pkt.ttl, pkt.record_route};
  auto it = walks_.find(key);
  if (it == walks_.end()) it = walks_.emplace(key, resolve_walk(from, pkt)).first;
  return it->second;
}

Network::ResolvedWalk Network::resolve_walk(NodeId from, const net::Packet& pkt) {
  ResolvedWalk w;
  // The link `cur` sends a packet toward `dst` over: an L2 port on a
  // switch fabric (the frame keeps its next-hop key), a FIB or host
  // default route elsewhere.  Routers stamp their egress address into the
  // record-route option and charge their forwarding delay.  nullopt is a
  // routing drop.
  const auto egress = [&](NodeId cur, net::Ipv4Address dst,
                          net::Ipv4Address& l2_next_hop) -> std::optional<WalkStep> {
    const Node& n = node(cur);
    int out_if = -1;
    const Router* router = nullptr;
    if (n.is_switch()) {
      const L2Port* port = static_cast<const L2Switch&>(n).lookup(
          l2_next_hop.is_unspecified() ? dst : l2_next_hop);
      if (port == nullptr) return std::nullopt;
      out_if = port->ifindex;
    } else {
      const auto hop = route_at(cur, dst);
      if (!hop || hop->ifindex < 0 || hop->ifindex >= static_cast<int>(n.interfaces().size())) {
        return std::nullopt;
      }
      out_if = hop->ifindex;
      if (n.is_router()) {
        router = &static_cast<const Router&>(n);
        if (pkt.record_route &&
            w.record_route.size() < static_cast<std::size_t>(net::kMaxRecordRouteSlots)) {
          w.record_route.push_back(n.interfaces()[static_cast<std::size_t>(out_if)].addr);
        }
      }
      l2_next_hop = hop->next_hop;
    }
    return WalkStep{&link(n.interfaces()[static_cast<std::size_t>(out_if)].link_id), cur, router};
  };

  // Forward: until a node answers (it owns dst, or a router sees the TTL
  // run out), a routing drop, or the walk budget.
  net::Ipv4Address l2_next_hop;
  net::Ipv4Address in_addr;  // receiving interface of the current node
  int ttl = pkt.ttl;
  NodeId cur = from;
  for (int budget = 0; budget < kWalkBudget; ++budget) {
    Node& n = node(cur);
    if (cur != from && !n.is_switch()) {
      Router* router = n.is_router() ? &static_cast<Router&>(n) : nullptr;
      if (router != nullptr && router->config().rr_filtered && pkt.record_route) {
        return w;  // RR-filtering router discards the optioned packet
      }
      if (n.owns_address(pkt.dst)) {
        w.responds = true;
        w.icmp_router = router;
        w.reply_src = pkt.dst;
        w.reply_type = net::IcmpType::kEchoReply;
        break;
      }
      if (router != nullptr) {
        if (ttl <= 1) {
          // TTL expiry: the reply comes from the inbound interface.  Across
          // an L2 fabric that is the router's fabric address, never 0.
          w.responds = true;
          w.icmp_router = router;
          w.reply_src = in_addr;
          w.reply_type = net::IcmpType::kTimeExceeded;
          break;
        }
        ttl -= 1;
      }
    }
    const auto step = egress(cur, pkt.dst, l2_next_hop);
    if (!step) return w;
    w.steps.push_back(*step);
    w.reverse_begin = w.steps.size();
    const NodeId peer = step->link->other(cur);
    in_addr = node(peer).interfaces()[static_cast<std::size_t>(step->link->ifindex_at(peer))].addr;
    cur = peer;
  }
  if (!w.responds) return w;

  // Reverse: the reply starts at TTL 64 from the responder, which pays
  // ICMP generation instead of a forwarding delay.
  const NodeId responder = cur;
  l2_next_hop = net::Ipv4Address();
  int reply_ttl = 64;
  for (int budget = 0; budget < kWalkBudget; ++budget) {
    const Node& n = node(cur);
    if (n.owns_address(pkt.src)) {
      w.reply_arrives = true;
      return w;
    }
    if (n.is_router() && cur != responder) {
      if (reply_ttl <= 1) return w;
      reply_ttl -= 1;
    }
    auto step = egress(cur, pkt.src, l2_next_hop);
    if (!step) return w;
    if (cur == responder) step->router = nullptr;
    w.steps.push_back(*step);
    cur = step->link->other(cur);
  }
  return w;
}

ProbeResult Network::probe(NodeId from, const net::Packet& pkt) {
  return execute(resolved_walk(from, pkt), pkt);
}

ProbeResult Network::probe(NodeId from, const net::Packet& pkt, WalkPin& pin) {
  if (pin.walk_ == nullptr || pin.epoch_ != route_epoch_) {
    pin.walk_ = &resolved_walk(from, pkt);
    pin.epoch_ = route_epoch_;
  }
  return execute(*pin.walk_, pkt);
}

ProbeResult Network::execute(const ResolvedWalk& w, const net::Packet& pkt) {
  constexpr std::uint32_t kReplyBytes = 56;  // IP + ICMP + quoted header
  ProbeResult res;
  const TimePoint sent = active_sim().now();
  TimePoint t = sent;
  const auto cross = [&](const WalkStep& s, std::uint32_t size_bytes) {
    if (s.router != nullptr) t += s.router->config().forward_delay;
    return cross_link(*s.link, s.from, size_bytes, t);
  };

  const std::span<const WalkStep> steps(w.steps);
  for (const WalkStep& s : steps.first(w.reverse_begin)) {
    if (!cross(s, pkt.size_bytes)) {
      res.forward_dropped = true;
      return res;
    }
  }
  if (!w.responds) {
    res.forward_dropped = true;
    return res;
  }

  std::uint16_t ip_id = 0;
  if (Router* r = w.icmp_router) {
    if (r->config().icmp_disabled || !r->icmp_rate_admit(t)) {
      res.forward_dropped = true;  // silent router or rate-limited
      return res;
    }
    ip_id = r->next_ip_id();
    t += r->icmp_generation_delay(t);
  } else {
    t += std::chrono::microseconds(50);  // host echo
  }
  bump_icmp();

  for (const WalkStep& s : steps.subspan(w.reverse_begin)) {
    if (!cross(s, kReplyBytes)) {
      res.reverse_dropped = true;
      return res;
    }
  }
  if (!w.reply_arrives) {
    res.reverse_dropped = true;
    return res;
  }
  res.answered = true;
  res.responder = w.reply_src;
  res.reply_type = w.reply_type;
  res.rtt = t - sent;
  res.ip_id = ip_id;
  res.record_route = w.record_route;
  return res;
}

FluidQueue::Stats Network::queue_stats() const {
  FluidQueue::Stats total;
  for (const auto& l : links_) {
    for (const FluidQueue* q : {&l->queue_ab(), &l->queue_ba()}) {
      total.headroom_skips += q->stats().headroom_skips;
      total.integration_steps += q->stats().integration_steps;
      total.tail_drops += q->stats().tail_drops;
    }
  }
  return total;
}

}  // namespace ixp::sim
