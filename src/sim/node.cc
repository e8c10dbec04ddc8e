#include "sim/node.h"

#include <algorithm>
#include <cmath>

#include "sim/network.h"

namespace ixp::sim {

// ---------------------------------------------------------------------------
// Router

Duration Router::icmp_generation_delay(TimePoint t) {
  double ms = to_ms(cfg_.icmp_base_delay);
  if (cfg_.icmp_jitter.count() > 0) {
    ms += to_ms(cfg_.icmp_jitter) * std::fabs(rng_.normal());
  }
  if (cfg_.icmp_load && cfg_.icmp_load_extra.count() > 0) {
    const double load = std::clamp(cfg_.icmp_load->bps(t), 0.0, 1.0);
    ms += to_ms(cfg_.icmp_load_extra) * load;
  }
  return milliseconds(ms);
}

bool Router::icmp_rate_admit(TimePoint t) {
  if (cfg_.icmp_rate_limit_per_sec <= 0) return true;
  const double cap = std::max(1.0, cfg_.icmp_rate_limit_per_sec);  // burst = 1s worth
  if (!icmp_bucket_primed_) {
    icmp_tokens_ = cap;  // the bucket starts full
    icmp_bucket_primed_ = true;
  }
  icmp_tokens_ = std::min(cap, icmp_tokens_ + to_sec(t - icmp_tokens_at_) * cfg_.icmp_rate_limit_per_sec);
  icmp_tokens_at_ = t;
  if (icmp_tokens_ < 1.0) return false;
  icmp_tokens_ -= 1.0;
  return true;
}

void Router::emit_icmp(Network& net, const net::Packet& cause, net::IcmpType type,
                       net::Ipv4Address from, int /*in_ifindex*/) {
  const TimePoint t = net.sim_.now();
  if (cfg_.icmp_disabled || !icmp_rate_admit(t)) return;
  net::Packet reply;
  reply.src = from;
  reply.dst = cause.src;
  reply.ttl = 64;
  reply.icmp_type = type;
  reply.ip_id = next_ip_id();
  reply.size_bytes = 56;  // IP + ICMP + quoted header
  reply.sent_at = cause.sent_at;
  if (type == net::IcmpType::kEchoReply) {
    reply.ident = cause.ident;
    reply.seq = cause.seq;
    // Echo replies preserve the record-route option accumulated so far;
    // routers on the return path keep stamping it.
    reply.record_route = cause.record_route;
    reply.route_stamps = cause.route_stamps;
  } else {
    reply.quoted_ident = cause.ident;
    reply.quoted_seq = cause.seq;
    // Time-exceeded replies carry the RR stamps collected by the probe in
    // the quoted header; scamper reads them from there.
    reply.record_route = cause.record_route;
    reply.route_stamps = cause.route_stamps;
  }
  ++net.icmp_generated;
  const Duration delay = icmp_generation_delay(t);
  const NodeId self = id();
  net.sim_.schedule(delay, [&net, self, reply]() mutable {
    // Route the reply like any other locally-originated packet.
    auto& me = static_cast<Router&>(net.node(self));
    me.forward(net, reply);
  });
}

void Router::forward(Network& net, net::Packet pkt) {
  const auto* entry = route_lookup(pkt.dst);
  if (!entry || entry->ifindex < 0 || entry->ifindex >= static_cast<int>(interfaces_.size())) {
    ++net.packets_dropped;
    return;
  }
  if (pkt.record_route &&
      pkt.route_stamps.size() < static_cast<std::size_t>(net::kMaxRecordRouteSlots)) {
    pkt.route_stamps.push_back(interfaces_[static_cast<std::size_t>(entry->ifindex)].addr);
  }
  const net::Ipv4Address nh = entry->next_hop.is_unspecified() ? pkt.dst : entry->next_hop;
  ++net.packets_forwarded;
  net.transmit(id(), entry->ifindex, std::move(pkt), nh);
}

void Router::receive(Network& net, net::Packet pkt, int in_ifindex) {
  // Record-route filtering drops optioned packets outright.
  if (cfg_.rr_filtered && pkt.record_route) {
    ++net.packets_dropped;
    return;
  }
  // Addressed to one of my interfaces: control-plane processing.
  if (owns_address(pkt.dst)) {
    if (pkt.icmp_type == net::IcmpType::kEchoRequest) {
      emit_icmp(net, pkt, net::IcmpType::kEchoReply, pkt.dst, in_ifindex);
    }
    return;  // replies addressed to a router are consumed silently
  }
  // TTL check happens before forwarding.
  if (pkt.ttl <= 1) {
    if (pkt.icmp_type == net::IcmpType::kEchoRequest) {
      const net::Ipv4Address from = (in_ifindex >= 0 && in_ifindex < static_cast<int>(interfaces_.size()))
                                        ? interfaces_[static_cast<std::size_t>(in_ifindex)].addr
                                        : net::Ipv4Address();
      emit_icmp(net, pkt, net::IcmpType::kTimeExceeded, from, in_ifindex);
    }
    return;
  }
  pkt.ttl -= 1;
  const NodeId self = id();
  net.sim_.schedule(cfg_.forward_delay, [&net, self, pkt = std::move(pkt)]() mutable {
    static_cast<Router&>(net.node(self)).forward(net, std::move(pkt));
  });
}

// ---------------------------------------------------------------------------
// Host

void Host::receive(Network& net, net::Packet pkt, int /*in_ifindex*/) {
  if (!owns_address(pkt.dst)) return;  // not for us; hosts do not forward
  if (rx_) rx_(pkt, net.sim_.now());
  if (pkt.icmp_type == net::IcmpType::kEchoRequest) {
    net::Packet reply;
    reply.src = pkt.dst;
    reply.dst = pkt.src;
    reply.ttl = 64;
    reply.icmp_type = net::IcmpType::kEchoReply;
    reply.ident = pkt.ident;
    reply.seq = pkt.seq;
    reply.size_bytes = pkt.size_bytes;
    reply.sent_at = pkt.sent_at;
    reply.record_route = pkt.record_route;
    reply.route_stamps = pkt.route_stamps;
    const NodeId self = id();
    const int gw_if = gw_ifindex_;
    net::Ipv4Address nh = gateway_;
    if (!interfaces_.empty() && interfaces_[0].subnet.contains(reply.dst)) nh = reply.dst;
    net.sim_.schedule(reply_delay_, [&net, self, gw_if, nh, reply]() mutable {
      net.transmit(self, gw_if, std::move(reply), nh);
    });
  }
}

void Host::send(Network& net, net::Packet pkt) {
  net::Ipv4Address nh = gateway_;
  if (!interfaces_.empty() && interfaces_[0].subnet.contains(pkt.dst)) nh = pkt.dst;
  net.transmit(id(), gw_ifindex_, std::move(pkt), nh);
}

// ---------------------------------------------------------------------------
// L2Switch

void L2Switch::receive(Network& net, net::Packet pkt, int /*in_ifindex*/) {
  const net::Ipv4Address key = pkt.l2_next_hop.is_unspecified() ? pkt.dst : pkt.l2_next_hop;
  const L2Port* entry = lookup(key);
  if (entry == nullptr) {
    ++net.packets_dropped;
    return;
  }
  const NodeId self = id();
  const int port = entry->ifindex;
  net.sim_.schedule(latency_, [&net, self, port, pkt = std::move(pkt)]() mutable {
    net.transmit(self, port, std::move(pkt), pkt.l2_next_hop);
  });
}

}  // namespace ixp::sim
