#include "cp/node.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cp/ospf.h"
#include "util/status.h"

namespace s2::cp {

Node::Node(topo::NodeId id, const config::ParsedNetwork& network,
           util::MemoryTracker* tracker, AttrPool* pool)
    : id_(id),
      network_(&network),
      tracker_(tracker),
      pool_(pool),
      rib_(tracker) {
  std::map<std::pair<std::string, bool>, size_t> classes;
  for (const config::BgpNeighbor& neighbor : config().bgp.neighbors) {
    Session session;
    session.neighbor = &neighbor;
    session.peer = network.FindByAddress(neighbor.peer_address);
    if (session.peer == topo::kInvalidNode) continue;  // dangling neighbor
    session.export_class =
        classes
            .try_emplace({neighbor.export_route_map,
                          neighbor.remove_private_as},
                         classes.size())
            .first->second;
    sessions_.push_back(session);
  }
  export_classes_ = classes.size();
}

void Node::BeginOspf() {
  pass_ = Pass::kOspf;
  shard_ = nullptr;
  if (!config().ospf.enabled) return;
  Route loopback = OspfOriginate(config().loopback, id_);
  rib_.Upsert(topo::kInvalidNode, loopback);
}

Node::~Node() {
  ReleaseResults(ospf_results_);
  ReleaseResults(bgp_results_);
}

void Node::ChargeResult(const Route& route) {
  if (tracker_) tracker_->Charge(route.UniqueBytes());
}

void Node::ReleaseResults(
    std::map<util::IpPrefix, std::vector<Route>>& results) {
  for (const auto& [prefix, routes] : results) {
    for (const Route& r : routes) {
      if (tracker_) tracker_->Release(r.UniqueBytes());
    }
  }
  results.clear();
}

void Node::FinishOspf() {
  ReleaseResults(ospf_results_);
  for (const auto& [prefix, routes] : rib_.all_best()) {
    ospf_results_[prefix] = routes;
    for (const Route& r : routes) ChargeResult(r);
  }
  rib_.Clear();
  outbox_.clear();
  pass_ = Pass::kIdle;
}

void Node::BeginBgp(const PrefixSet* shard) {
  pass_ = Pass::kBgp;
  shard_ = shard;
  OriginateStatic();
}

void Node::OriginateStatic() {
  if (!config().bgp.enabled) return;
  // Redistribution first; an explicit network statement for the same
  // prefix overrides it.
  if (config().bgp.redistribute_ospf) {
    for (const auto& [prefix, routes] : ospf_results_) {
      if (!InShard(prefix)) continue;
      Route route;
      route.prefix = prefix;
      route.protocol = Protocol::kLocal;
      AttrTuple tuple;
      tuple.origin = 2;  // incomplete
      tuple.med = routes.front().metric;
      route.attrs = pool_->Intern(std::move(tuple));
      route.origin_node = id_;
      rib_.Upsert(topo::kInvalidNode, route);
    }
  }
  for (const util::IpPrefix& prefix : config().bgp.networks) {
    if (!InShard(prefix)) continue;
    // Default attributes (origin IGP) — the null handle, no intern needed.
    Route route;
    route.prefix = prefix;
    route.protocol = Protocol::kLocal;
    route.origin_node = id_;
    rib_.Upsert(topo::kInvalidNode, route);
  }
}

void Node::RefreshConditional() {
  for (const config::BgpAggregate& agg : config().bgp.aggregates) {
    if (!InShard(agg.prefix)) continue;
    if (rib_.HasContributor(agg.prefix)) {
      Route route;
      route.prefix = agg.prefix;
      route.protocol = Protocol::kLocal;
      route.origin_node = id_;
      if (!agg.communities.empty()) {
        AttrTuple tuple;
        for (uint32_t community : agg.communities) {
          tuple.AddCommunity(community);
        }
        route.attrs = pool_->Intern(std::move(tuple));
      }
      rib_.Upsert(topo::kInvalidNode, route);
    } else {
      rib_.Withdraw(topo::kInvalidNode, agg.prefix);
    }
  }
  for (const config::BgpCondAdv& cond : config().bgp.cond_advs) {
    if (!InShard(cond.advertise)) continue;
    bool active = rib_.Contains(cond.watch) == cond.advertise_if_present;
    if (active) {
      Route route;
      route.prefix = cond.advertise;
      route.protocol = Protocol::kLocal;
      route.origin_node = id_;
      rib_.Upsert(topo::kInvalidNode, route);
    } else {
      rib_.Withdraw(topo::kInvalidNode, cond.advertise);
    }
  }
}

bool Node::ComputeRound() {
  if (pass_ == Pass::kIdle) return false;
  if (pass_ == Pass::kBgp) RefreshConditional();
  std::vector<util::IpPrefix> changed =
      rib_.RecomputeDirty(config().bgp.max_paths);
  if (changed.empty()) return false;

  // The prefix's export per class, made on first use; a rejected export
  // stays a withdrawal.
  std::vector<RouteUpdate> exports(pass_ == Pass::kBgp ? export_classes_ : 1);
  std::vector<char> made(exports.size());
  for (const util::IpPrefix& prefix : changed) {
    const std::vector<Route>* best = rib_.Best(prefix);
    const Route* top = best != nullptr ? &best->front() : nullptr;
    if (top != nullptr && pass_ == Pass::kBgp &&
        SuppressedByAggregate(prefix, config())) {
      top = nullptr;
    }
    std::fill(made.begin(), made.end(), 0);
    for (const Session& session : sessions_) {
      // No best route, or one an aggregate suppresses, is a withdrawal;
      // so is a route back to the peer it came from (split horizon).
      if (top == nullptr || top->learned_from == session.peer) {
        outbox_[session.peer].push_back(RouteUpdate{prefix, true, Route{}});
        continue;
      }
      size_t cls = pass_ == Pass::kBgp ? session.export_class : 0;
      RouteUpdate& exported = exports[cls];
      if (!made[cls]) {
        made[cls] = 1;
        exported = RouteUpdate{prefix, true, Route{}};
        if (pass_ == Pass::kOspf) {
          exported.withdraw = false;
          exported.route = OspfExport(*top);
        } else if (auto route = TransformForExport(
                       *top, config(), *session.neighbor, *pool_)) {
          exported.withdraw = false;
          exported.route = std::move(*route);
        }
      }
      outbox_[session.peer].push_back(exported);
    }
  }
  return !sessions_.empty();
}

std::vector<RouteUpdate> Node::TakeUpdatesFor(topo::NodeId neighbor) {
  auto it = outbox_.find(neighbor);
  if (it == outbox_.end()) return {};
  std::vector<RouteUpdate> updates = std::move(it->second);
  outbox_.erase(it);
  return updates;
}

void Node::ReceiveUpdates(topo::NodeId from,
                          std::vector<RouteUpdate> updates) {
  const config::BgpNeighbor* session = nullptr;
  if (pass_ == Pass::kBgp) {
    for (const Session& s : sessions_) {
      if (s.peer == from) session = s.neighbor;
    }
    if (session == nullptr) return;  // not a neighbor of ours
  }
  for (RouteUpdate& update : updates) {
    if (update.withdraw) {
      rib_.Withdraw(from, update.prefix);
      continue;
    }
    if (pass_ == Pass::kBgp) {
      auto imported = ProcessImport(std::move(update.route), config(),
                                    *session, from, *pool_);
      if (imported) {
        rib_.Upsert(from, std::move(*imported));
      } else {
        // A rejected announcement implicitly withdraws any previous
        // candidate from this neighbor.
        rib_.Withdraw(from, update.prefix);
      }
    } else {
      update.route.learned_from = from;
      rib_.Upsert(from, std::move(update.route));
    }
  }
}

namespace {

// Flattens a best-route map to announcements (prefix-major, rank-minor) —
// the same shape RibStore::Write uses — and back.
std::vector<RouteUpdate> FlattenResults(
    const std::map<util::IpPrefix, std::vector<Route>>& results) {
  std::vector<RouteUpdate> updates;
  for (const auto& [prefix, routes] : results) {
    for (const Route& route : routes) {
      updates.push_back(RouteUpdate{prefix, false, route});
    }
  }
  return updates;
}

}  // namespace

void Node::SerializeState(std::vector<uint8_t>& out) const {
  // One attribute table for the whole blob, shared by every route section
  // (candidates, best sets, results): serialize the sections into a
  // scratch body while the builder collects distinct tuples, then emit
  // table followed by body.
  AttrTableBuilder table;
  std::vector<uint8_t> body;
  body.push_back(static_cast<uint8_t>(pass_));
  rib_.SerializeState(body, table);
  PutRoutesSection(body, FlattenResults(ospf_results_), table);
  PutRoutesSection(body, FlattenResults(bgp_results_), table);
  table.Serialize(out);
  out.insert(out.end(), body.begin(), body.end());
}

void Node::RestoreState(const std::vector<uint8_t>& bytes,
                        const PrefixSet* shard) {
  size_t pos = 0;
  AttrTable table = AttrTable::Read(bytes, pos, *pool_);
  if (pos >= bytes.size()) {
    throw util::WireFormatError("truncated node checkpoint");
  }
  pass_ = static_cast<Pass>(bytes[pos++]);
  shard_ = pass_ == Pass::kBgp ? shard : nullptr;
  rib_.RestoreState(bytes, pos, table);
  auto restore_results =
      [&](std::map<util::IpPrefix, std::vector<Route>>& results) {
        for (RouteUpdate& update : GetRoutesSection(bytes, pos, table)) {
          ChargeResult(update.route);
          results[update.prefix].push_back(std::move(update.route));
        }
      };
  restore_results(ospf_results_);
  restore_results(bgp_results_);
}

void Node::SpillBgp(RibStore& store, int shard) {
  store.Write(shard, id_, rib_.all_best(), pool_);
  rib_.Clear();
  outbox_.clear();
  pass_ = Pass::kIdle;
}

void Node::RetainBgp() {
  for (const auto& [prefix, routes] : rib_.all_best()) {
    bgp_results_[prefix] = routes;
    for (const Route& r : routes) ChargeResult(r);
  }
  rib_.Clear();
  outbox_.clear();
  pass_ = Pass::kIdle;
}

}  // namespace s2::cp
