#include "dp/predicates.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace s2::dp {

bdd::Bdd AclPredicate(const config::Acl& acl, const PacketCodec& codec) {
  bdd::Manager* manager = codec.manager();
  bdd::Bdd permitted = manager->Zero();
  bdd::Bdd remaining = manager->One();
  for (const config::AclEntry& entry : acl.entries) {
    bdd::Bdd match = manager->One();
    if (entry.dst) {
      // A constraint the layout cannot express matches nothing: the
      // header space under analysis carries no packets of that family.
      if (codec.layout().CanMatchDst(entry.dst->family())) {
        match &= codec.DstIn(*entry.dst);
      } else {
        match = manager->Zero();
      }
    }
    if (entry.src) {
      // Source matching additionally requires src bits in the layout; an
      // entry with a src constraint under a dst-only layout matches
      // nothing (no source information in the analyzed header space).
      if (codec.layout().CanMatchSrc(entry.src->family())) {
        match &= codec.SrcIn(*entry.src);
      } else {
        match = manager->Zero();
      }
    }
    bdd::Bdd firing = match & remaining;  // first match wins
    if (entry.permit) permitted |= firing;
    remaining = remaining.Diff(match);
  }
  return permitted;
}

namespace {

constexpr uint32_t kNoEntry = ~uint32_t{0};

// A binary trie over one address family's destination prefixes, MSB
// first. Nodes are appended as they are created, so every child sits
// after its parent and a reverse sweep visits children first.
struct PrefixTrie {
  struct Node {
    int32_t child[2] = {-1, -1};
    uint32_t entry = kNoEntry;  // first FIB entry with exactly this prefix
    uint32_t depth = 0;
    // The entry that owns this node's destinations unless a descendant
    // claims them: the first in FIB order on the path from the root.
    uint32_t winner = kNoEntry;
  };

  uint32_t bits;       // 32 or 128
  uint32_t first_var;  // variable of depth 0
  std::vector<Node> nodes{1};

  static bool Bit(const util::IpPrefix& prefix, uint32_t depth) {
    const util::IpAddress& a = prefix.address();
    if (a.IsV4()) return (a.V4Bits() >> (31 - depth)) & 1;
    return depth < 64 ? (a.Hi() >> (63 - depth)) & 1
                      : (a.Lo() >> (127 - depth)) & 1;
  }

  void Insert(const util::IpPrefix& prefix, uint32_t entry) {
    int32_t node = 0;
    for (uint32_t depth = 0; depth < prefix.length(); ++depth) {
      bool bit = Bit(prefix, depth);
      if (nodes[node].child[bit] < 0) {
        nodes[node].child[bit] = static_cast<int32_t>(nodes.size());
        nodes.emplace_back().depth = depth + 1;
      }
      node = nodes[node].child[bit];
    }
    // An exact duplicate keeps the first entry, as first-match does.
    nodes[node].entry = std::min(nodes[node].entry, entry);
  }

  // Resolves each node's winner, with `no_route` owning what no entry
  // covers, and marks in `owns` every entry that wins some destination.
  void Resolve(uint32_t no_route, std::vector<char>& owns) {
    nodes[0].winner = std::min(nodes[0].entry, no_route);
    for (Node& node : nodes) {
      bool full = node.depth == bits;
      for (int32_t child : node.child) {
        if (child >= 0) {
          nodes[child].winner = std::min(node.winner, nodes[child].entry);
        } else if (!full) {
          owns[node.winner] = 1;  // the uncovered half falls to the winner
        }
      }
      if (full) owns[node.winner] = 1;
    }
  }

  // The predicate "the owning entry is a member": one bottom-up sweep
  // with one MakeBdd per trie node, so no Apply and no garbage. `work`
  // holds a handle per trie node.
  bdd::Bdd Column(bdd::Manager& manager, const std::vector<char>& member,
                  std::vector<bdd::Bdd>& work) const {
    work.resize(nodes.size());
    for (size_t i = nodes.size(); i-- > 0;) {
      const Node& node = nodes[i];
      bdd::Bdd fallback = member[node.winner] ? manager.One() : manager.Zero();
      if (node.depth == bits) {
        work[i] = std::move(fallback);
        continue;
      }
      const bdd::Bdd& low =
          node.child[0] >= 0 ? work[node.child[0]] : fallback;
      const bdd::Bdd& high =
          node.child[1] >= 0 ? work[node.child[1]] : fallback;
      work[i] = manager.MakeBdd(first_var + node.depth, low, high);
    }
    bdd::Bdd root = std::move(work[0]);
    work.clear();
    return root;
  }
};

}  // namespace

NodePredicates BuildPredicates(const config::ParsedNetwork& network,
                               topo::NodeId self, const Fib& fib,
                               const PacketCodec& codec) {
  bdd::Manager& manager = *codec.manager();
  const HeaderLayout& layout = codec.layout();
  const config::ViConfig& config = network.configs[self];

  // Entries are owned first-match in FIB order, which Fib sorts longest
  // first: the LPM partition of the destination space. Entry index n
  // stands for "no route", which discards and loses to every real entry.
  const uint32_t n = static_cast<uint32_t>(fib.entries.size());
  const uint32_t no_route = n;

  // One trie per address family the layout holds. Dual-stack puts v4 in
  // the low 32 bits of the 128-bit field, as PacketCodec::DstIn does.
  const bool dual = layout.family_bits == 1;
  PrefixTrie v4{32, layout.DstVar(dual ? 96 : 0)};
  PrefixTrie v6{128, layout.DstVar(0)};
  for (uint32_t e = 0; e < n; ++e) {
    const util::IpPrefix& prefix = fib.entries[e].prefix;
    if (!layout.CanMatchDst(prefix.family())) {
      throw std::invalid_argument("BuildPredicates: the dst field cannot "
                                  "match " + prefix.ToString());
    }
    (prefix.IsV4() ? v4 : v6).Insert(prefix, e);
  }
  std::vector<char> owns(n + 1, 0);
  const bool has_v4 = layout.CanMatchDst(util::Family::kV4);
  const bool has_v6 = layout.CanMatchDst(util::Family::kV6);
  if (has_v4) v4.Resolve(no_route, owns);
  if (has_v6) v6.Resolve(no_route, owns);

  // Each output's member entries. Outputs with the same members (the
  // ECMP hops of one group, say) share one column and one build.
  std::map<topo::NodeId, std::vector<uint32_t>> hop_members;
  std::vector<uint32_t> arrive, exit, discard;
  for (uint32_t e = 0; e < n; ++e) {
    const FibEntry& entry = fib.entries[e];
    if (entry.action == FibAction::kArrive) arrive.push_back(e);
    if (entry.action == FibAction::kExit) exit.push_back(e);
    if (entry.action == FibAction::kDiscard) discard.push_back(e);
    if (entry.action != FibAction::kForward) continue;
    for (topo::NodeId hop : entry.next_hops) hop_members[hop].push_back(e);
  }
  discard.push_back(no_route);

  std::map<std::vector<uint32_t>, bdd::Bdd> columns;
  std::vector<char> member(n + 1, 0);
  std::vector<bdd::Bdd> work;
  auto column = [&](const std::vector<uint32_t>& members) -> const bdd::Bdd& {
    auto [it, fresh] = columns.try_emplace(members, manager.Zero());
    bool owned = std::any_of(members.begin(), members.end(),
                             [&](uint32_t e) { return owns[e] != 0; });
    if (!fresh || !owned) return it->second;
    for (uint32_t e : members) member[e] = 1;
    bdd::Bdd low =
        has_v4 ? v4.Column(manager, member, work) : manager.Zero();
    bdd::Bdd high =
        has_v6 ? v6.Column(manager, member, work) : manager.Zero();
    for (uint32_t e : members) member[e] = 0;
    it->second = dual ? manager.MakeBdd(layout.FamilyVar(), low, high)
                      : (has_v4 ? low : high);
    return it->second;
  };

  NodePredicates preds;
  preds.arrive = column(arrive);
  preds.exit = column(exit);
  preds.discard = column(discard);
  // Hops enter the map in the order of the first entry that owns any
  // destinations, then next-hop order: the engine emits packets in map
  // order, so this keeps emission order, and with it the wire bytes,
  // independent of how the predicates were built.
  for (uint32_t e = 0; e < n; ++e) {
    if (!owns[e] || fib.entries[e].action != FibAction::kForward) continue;
    for (topo::NodeId hop : fib.entries[e].next_hops) {
      if (!preds.forward.contains(hop)) {
        preds.forward.emplace(hop, column(hop_members.at(hop)));
      }
    }
  }

  // ACL predicates per neighbor port.
  for (const config::Interface& iface : config.interfaces) {
    auto port = network.address_book.find(iface.address.V4Bits() ^ 1u);
    if (port == network.address_book.end()) continue;
    topo::NodeId peer = port->second.first;
    if (const config::Acl* acl = config.FindAcl(iface.acl_in)) {
      preds.acl_in.emplace(peer, AclPredicate(*acl, codec));
    }
    if (const config::Acl* acl = config.FindAcl(iface.acl_out)) {
      preds.acl_out.emplace(peer, AclPredicate(*acl, codec));
    }
  }
  return preds;
}

bool NetworkHasV6(const config::ParsedNetwork& network) {
  auto v6 = [](const util::IpPrefix& p) { return !p.IsV4(); };
  for (const config::ViConfig& config : network.configs) {
    for (const util::IpPrefix& p : config.bgp.networks) {
      if (v6(p)) return true;
    }
    for (const config::BgpAggregate& agg : config.bgp.aggregates) {
      if (v6(agg.prefix)) return true;
    }
    for (const config::BgpCondAdv& adv : config.bgp.cond_advs) {
      if (v6(adv.advertise) || v6(adv.watch)) return true;
    }
    for (const auto& [name, acl] : config.acls) {
      for (const config::AclEntry& entry : acl.entries) {
        if ((entry.src && v6(*entry.src)) || (entry.dst && v6(*entry.dst)))
          return true;
      }
    }
    for (const auto& [name, map] : config.route_maps) {
      for (const config::RouteMapClause& clause : map.clauses) {
        if (clause.match_covered_by && v6(*clause.match_covered_by))
          return true;
      }
    }
  }
  return false;
}

HeaderLayout LayoutForNetwork(const config::ParsedNetwork& network,
                              HeaderLayout requested) {
  if (!NetworkHasV6(network)) return requested;  // v4 fast path untouched
  if (requested.CanMatchDst(util::Family::kV6) &&
      requested.CanMatchDst(util::Family::kV4)) {
    return requested;
  }
  HeaderLayout widened = requested;
  widened.family_bits = 1;
  widened.dst_bits = 128;
  if (widened.src_bits != 0) widened.src_bits = 128;
  return widened;
}

}  // namespace s2::dp
