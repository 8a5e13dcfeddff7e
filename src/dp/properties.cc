#include "dp/properties.h"

#include <map>

namespace s2::dp {

namespace {

// Existentially quantifies the metadata (waypoint) bits away so packet
// sets can be compared on their header content alone.
bdd::Bdd DropMeta(const bdd::Bdd& set, const PacketCodec& codec) {
  if (codec.layout().meta_bits == 0) return set;
  std::vector<uint32_t> vars;
  for (uint32_t i = 0; i < codec.layout().meta_bits; ++i) {
    vars.push_back(codec.layout().MetaVar(i));
  }
  return codec.manager()->Exists(set, vars);
}

}  // namespace

void InstallQuery(ForwardingEngine& engine, const Query& query) {
  engine.ResetQueryState();
  engine.set_record_paths(query.record_paths);
  for (size_t i = 0; i < query.transits.size(); ++i) {
    if (engine.Owns(query.transits[i])) {
      engine.SetWaypointBit(query.transits[i], static_cast<uint32_t>(i));
    }
  }
  bdd::Bdd header;
  for (topo::NodeId src : query.sources) {
    if (!engine.Owns(src)) continue;
    if (!header.valid()) header = query.header_space.ToBdd(engine.codec());
    engine.Inject(src, header);
  }
}

bool IsForwardingValley(const std::vector<topo::NodeId>& path,
                        const topo::Graph& graph) {
  bool descended = false;
  for (size_t i = 1; i < path.size(); ++i) {
    int prev = graph.node(path[i - 1]).layer;
    int next = graph.node(path[i]).layer;
    if (next < prev) descended = true;
    if (next > prev && descended) return true;  // down, then up again
  }
  return false;
}

QueryResult EvaluateQuery(const Query& query, const PacketCodec& codec,
                          const std::vector<FinalPacket>& finals,
                          const config::ParsedNetwork& network) {
  bdd::Manager* manager = codec.manager();
  QueryResult result;
  bdd::Bdd header_space = query.header_space.ToBdd(codec);

  // ----------------------------------------------------------- gathering
  // Arrive sets per (src, dst); loop/blackhole totals; per-src state
  // unions for multipath consistency.
  std::map<std::pair<topo::NodeId, topo::NodeId>, bdd::Bdd> arrived;
  std::map<std::pair<topo::NodeId, FinalState>, bdd::Bdd> by_src_state;
  for (const FinalPacket& final : finals) {
    bdd::Bdd content = DropMeta(final.set, codec);
    auto state_key = std::make_pair(final.src, final.state);
    auto state_it = by_src_state.find(state_key);
    if (state_it == by_src_state.end()) {
      by_src_state.emplace(state_key, content);
    } else {
      state_it->second |= content;
    }
    switch (final.state) {
      case FinalState::kArrive: {
        auto key = std::make_pair(final.src, final.node);
        auto it = arrived.find(key);
        if (it == arrived.end()) {
          arrived.emplace(key, content);
        } else {
          it->second |= content;
        }
        break;
      }
      case FinalState::kLoop:
        ++result.loop_finals;
        result.loop_free = false;
        break;
      case FinalState::kBlackhole:
        ++result.blackhole_finals;
        result.blackhole_free = false;
        break;
      case FinalState::kExit:
        break;
    }
  }

  // -------------------------------------------------------- reachability
  for (topo::NodeId src : query.sources) {
    for (topo::NodeId dst : query.destinations) {
      if (src == dst) continue;
      // The destination's own space: its announced prefixes within H.
      bdd::Bdd own = manager->Zero();
      for (const util::IpPrefix& prefix :
           network.configs[dst].bgp.networks) {
        // A family the layout can't express contributes nothing to the
        // destination's own space (no such packets were simulated).
        if (!codec.layout().CanMatchDst(prefix.family())) continue;
        own |= codec.DstIn(prefix);
      }
      own &= header_space;
      if (own.IsZero()) continue;  // dst owns nothing in this header space
      ReachabilityPair pair;
      pair.src = src;
      pair.dst = dst;
      auto it = arrived.find(std::make_pair(src, dst));
      if (it != arrived.end()) {
        bdd::Bdd got = it->second & own;
        pair.fraction =
            manager->SatFraction(got) / manager->SatFraction(own);
        pair.reachable = got == own;
      }
      (pair.reachable ? result.reachable_pairs : result.unreachable_pairs)++;
      result.reachability.push_back(pair);
    }
  }

  // ------------------------------------------------------------ waypoint
  // A transit is always traversed when every packet arriving at a queried
  // destination has its metadata bit set: pkt & bit == pkt.
  for (size_t i = 0; i < query.transits.size(); ++i) {
    WaypointResult waypoint;
    waypoint.transit = query.transits[i];
    waypoint.always_traversed = true;
    bdd::Bdd bit = codec.MetaBit(static_cast<uint32_t>(i), true);
    for (const FinalPacket& final : finals) {
      if (final.state != FinalState::kArrive) continue;
      bool is_dst = false;
      for (topo::NodeId dst : query.destinations) is_dst |= dst == final.node;
      if (!is_dst) continue;
      if (!((final.set & bit) == final.set)) {
        waypoint.always_traversed = false;
        break;
      }
    }
    result.waypoints.push_back(waypoint);
  }

  // --------------------------------------------------------------- paths
  if (query.record_paths) {
    for (const FinalPacket& final : finals) {
      if (final.path.empty()) continue;
      ++result.paths_recorded;
      if (IsForwardingValley(final.path, network.graph)) {
        result.valleys.push_back(ForwardingValley{final.src, final.path});
      }
    }
  }

  // ------------------------------------------------- multipath consistency
  // Overlapping packets from the same source with different final states.
  static constexpr FinalState kStates[] = {
      FinalState::kArrive, FinalState::kExit, FinalState::kBlackhole,
      FinalState::kLoop};
  for (topo::NodeId src : query.sources) {
    for (size_t a = 0; a < 4; ++a) {
      auto it_a = by_src_state.find(std::make_pair(src, kStates[a]));
      if (it_a == by_src_state.end()) continue;
      for (size_t b = a + 1; b < 4; ++b) {
        auto it_b = by_src_state.find(std::make_pair(src, kStates[b]));
        if (it_b == by_src_state.end()) continue;
        if (it_a->second.Intersects(it_b->second)) {
          result.multipath_violations.push_back(
              MultipathViolation{src, kStates[a], kStates[b]});
        }
      }
    }
  }
  return result;
}

}  // namespace s2::dp
