#include "dp/forwarding.h"

#include <algorithm>
#include <cstdlib>

#include "bdd/bdd_io.h"

namespace s2::dp {

const char* FinalStateName(FinalState state) {
  switch (state) {
    case FinalState::kArrive:
      return "arrive";
    case FinalState::kExit:
      return "exit";
    case FinalState::kBlackhole:
      return "blackhole";
    case FinalState::kLoop:
      return "loop";
  }
  return "?";
}

WirePacket ToWire(const InFlightPacket& packet) {
  return WirePacket{packet.at,   packet.from, packet.src,
                    packet.hops, packet.path, bdd::Serialize(packet.set)};
}

SerializedFinal ToWire(const FinalPacket& final) {
  return SerializedFinal{final.src, final.node, final.state, final.path,
                         bdd::Serialize(final.set)};
}

InFlightPacket FromWire(const WirePacket& wire, bdd::Manager& manager) {
  return InFlightPacket{wire.at, wire.from, wire.src, wire.hops,
                        bdd::DeserializeInto(manager, wire.set), wire.path};
}

FinalPacket FromWire(const SerializedFinal& final, bdd::Manager& manager) {
  return FinalPacket{final.src, final.node, final.state,
                     bdd::DeserializeInto(manager, final.set), final.path};
}

void ForwardingEngine::AddNode(topo::NodeId id, NodePredicates preds) {
  // The registered predicates are the domain's immutable-after-converge
  // snapshot surface: the engine keeps them alive for its whole lifetime,
  // and pinning makes any GC that would free one assert instead of
  // silently corrupting later queries (bdd.h, PinRoot).
  bdd::Manager* manager = codec_.manager();
  manager->PinRoot(preds.arrive);
  manager->PinRoot(preds.exit);
  manager->PinRoot(preds.discard);
  for (const auto& [port, pred] : preds.forward) manager->PinRoot(pred);
  for (const auto& [port, pred] : preds.acl_in) manager->PinRoot(pred);
  for (const auto& [port, pred] : preds.acl_out) manager->PinRoot(pred);
  nodes_.emplace(id, std::move(preds));
}

void ForwardingEngine::ResetQueryState() {
  queue_.clear();
  path_queue_.clear();
  finals_.clear();
  waypoint_bits_.clear();
  steps_ = 0;
}

void ForwardingEngine::SetWaypointBit(topo::NodeId node, uint32_t meta_bit) {
  waypoint_bits_[node] = meta_bit;
}

void ForwardingEngine::Inject(topo::NodeId at, const bdd::Bdd& set) {
  InFlightPacket packet;
  packet.at = at;
  packet.src = at;
  packet.set = set;
  Enqueue(packet);
}

void ForwardingEngine::Accept(InFlightPacket packet) { Enqueue(packet); }

void ForwardingEngine::Enqueue(const InFlightPacket& packet) {
  if (record_paths_) {
    // Distinct histories must stay distinct: no coalescing.
    path_queue_[packet.hops].push_back(packet);
    return;
  }
  // Coalesce: ingress port only matters when this node filters on it.
  topo::NodeId from_eff = topo::kInvalidNode;
  auto node = nodes_.find(packet.at);
  if (node != nodes_.end() &&
      node->second.acl_in.count(packet.from) != 0) {
    from_eff = packet.from;
  }
  QueueKey key{packet.at, from_eff, packet.src};
  auto& level = queue_[packet.hops];
  auto it = level.find(key);
  if (it == level.end()) {
    level.emplace(key, packet.set);
  } else {
    it->second |= packet.set;
  }
}

int ForwardingEngine::NextLevel() const {
  int next = kIdle;
  if (!path_queue_.empty()) next = std::min(next, path_queue_.begin()->first);
  if (!queue_.empty()) next = std::min(next, queue_.begin()->first);
  return next;
}

void ForwardingEngine::DrainLevel(int level, const RemoteEmit& emit) {
  auto path_it = path_queue_.find(level);
  if (path_it != path_queue_.end()) {
    std::vector<InFlightPacket> pending = std::move(path_it->second);
    path_queue_.erase(path_it);
    for (InFlightPacket& packet : pending) {
      Process(std::move(packet), emit);
    }
  }
  auto level_it = queue_.find(level);
  if (level_it != queue_.end()) {
    std::map<QueueKey, bdd::Bdd> pending = std::move(level_it->second);
    queue_.erase(level_it);
    for (auto& [key, set] : pending) {
      InFlightPacket packet;
      packet.at = std::get<0>(key);
      packet.from = std::get<1>(key);
      packet.src = std::get<2>(key);
      packet.hops = level;
      packet.set = std::move(set);
      Process(std::move(packet), emit);
    }
  }
}

void ForwardingEngine::Run(const RemoteEmit& emit) {
  // Ascending hop levels: every copy that can merge has merged before its
  // level is processed (forwarding only moves packets to higher levels).
  for (int level = NextLevel(); level != kIdle; level = NextLevel()) {
    DrainLevel(level, emit);
  }
}

void ForwardingEngine::Final(const InFlightPacket& packet, FinalState state,
                             bdd::Bdd set) {
  if (set.IsZero()) return;
  finals_.push_back(FinalPacket{packet.src, packet.at, state,
                                std::move(set), packet.path});
}

void ForwardingEngine::Process(InFlightPacket packet,
                               const RemoteEmit& emit) {
  auto node_it = nodes_.find(packet.at);
  if (node_it == nodes_.end()) std::abort();  // misrouted remote packet
  const NodePredicates& preds = node_it->second;
  ++steps_;
  if (record_paths_) packet.path.push_back(packet.at);

  bdd::Bdd set = packet.set;

  // Ingress ACL (p1^in of Eq. 1).
  if (packet.from != topo::kInvalidNode) {
    auto acl = preds.acl_in.find(packet.from);
    if (acl != preds.acl_in.end()) {
      Final(packet, FinalState::kBlackhole, set.Diff(acl->second));
      set &= acl->second;
    }
  }
  if (set.IsZero()) return;

  // Waypoint write rule.
  auto waypoint = waypoint_bits_.find(packet.at);
  if (waypoint != waypoint_bits_.end()) {
    set = codec_.SetMetaBit(set, waypoint->second);
  }

  // Local final states.
  Final(packet, FinalState::kArrive, set & preds.arrive);
  Final(packet, FinalState::kExit, set & preds.exit);
  Final(packet, FinalState::kBlackhole, set & preds.discard);

  // TTL: whatever would keep forwarding past the hop budget loops.
  if (packet.hops >= options_.max_hops) {
    bdd::Bdd forwarding = codec_.manager()->Zero();
    for (const auto& [hop, pred] : preds.forward) forwarding |= pred;
    Final(packet, FinalState::kLoop, set & forwarding);
    return;
  }

  // Egress: pkt & fwd(p2) & acl_out(p2) per port (Eq. 1); the part an
  // egress ACL kills blackholes here.
  for (const auto& [hop, pred] : preds.forward) {
    bdd::Bdd out = set & pred;
    if (out.IsZero()) continue;
    auto acl = preds.acl_out.find(hop);
    if (acl != preds.acl_out.end()) {
      Final(packet, FinalState::kBlackhole, out.Diff(acl->second));
      out &= acl->second;
      if (out.IsZero()) continue;
    }
    InFlightPacket next;
    next.at = hop;
    next.from = packet.at;
    next.src = packet.src;
    next.hops = packet.hops + 1;
    next.set = std::move(out);
    next.path = packet.path;
    if (nodes_.count(hop)) {
      Enqueue(next);
    } else {
      if (!emit) std::abort();  // remote hop without a transport
      emit(next);
    }
  }
}

bdd::Bdd ForwardingEngine::ArrivedAt(topo::NodeId node) const {
  bdd::Bdd result = codec_.manager()->Zero();
  for (const FinalPacket& final : finals_) {
    if (final.node == node && final.state == FinalState::kArrive) {
      result |= final.set;
    }
  }
  return result;
}

}  // namespace s2::dp
