// Switch-model (cp::Node) tests: origination, the pull-based round
// protocol, aggregation activation/deactivation, conditional
// advertisement, split horizon, and result retention.
#include <gtest/gtest.h>

#include <functional>

#include "cp/node.h"
#include "cp/ospf.h"
#include "test_networks.h"

namespace s2::cp {
namespace {

// Sees every batch of updates `from` sends `to` before it is merged.
using ExchangeObserver = std::function<void(
    topo::NodeId from, topo::NodeId to, const std::vector<RouteUpdate>&)>;

// Drives a set of nodes through synchronous rounds until the fix point.
int Converge(std::vector<std::unique_ptr<Node>>& nodes, int max_rounds = 50,
             const ExchangeObserver& observe = nullptr) {
  int rounds = 0;
  for (;;) {
    bool any = false;
    for (auto& node : nodes) any = node->ComputeRound() || any;
    if (!any) break;
    for (auto& node : nodes) {
      for (const Node::Session& session : node->sessions()) {
        auto updates = nodes[session.peer]->TakeUpdatesFor(node->id());
        if (observe) observe(session.peer, node->id(), updates);
        if (!updates.empty()) node->ReceiveUpdates(session.peer, updates);
      }
    }
    if (++rounds > max_rounds) ADD_FAILURE() << "did not converge";
    if (rounds > max_rounds) break;
  }
  return rounds;
}

AttrPool& TestPool() {
  static AttrPool* pool = new AttrPool();
  return *pool;
}

std::vector<std::unique_ptr<Node>> MakeNodes(
    const config::ParsedNetwork& net) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (topo::NodeId id = 0; id < net.configs.size(); ++id) {
    nodes.push_back(std::make_unique<Node>(id, net, nullptr, &TestPool()));
  }
  return nodes;
}

TEST(NodeTest, SessionsResolvePeers) {
  auto net = testing::Parse(testing::MakeChain(3));
  Node middle(1, net, nullptr, &TestPool());
  ASSERT_EQ(middle.sessions().size(), 2u);
  EXPECT_EQ(middle.sessions()[0].peer, 0u);
  EXPECT_EQ(middle.sessions()[1].peer, 2u);
}

TEST(NodeTest, ChainConvergesWithFullRibs) {
  auto net = testing::Parse(testing::MakeChain(4));
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  // Every node holds all 8 prefixes (4 loopbacks + 4 /24s).
  for (auto& node : nodes) {
    EXPECT_EQ(node->bgp_routes().size(), 8u) << "node " << node->id();
  }
  // AS paths grow with distance: r0's route to 10.0.3.0/24 went through
  // r1, r2, r3.
  auto p3 = util::MustParsePrefix("10.0.3.0/24");
  EXPECT_EQ(nodes[0]->bgp_routes().at(p3).front().as_path().size(), 3u);
  EXPECT_EQ(nodes[0]->bgp_routes().at(p3).front().learned_from, 1u);
}

TEST(NodeTest, DiamondProducesEcmp) {
  auto net = testing::Parse(testing::MakeDiamond());
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  auto p3 = util::MustParsePrefix("10.0.3.0/24");
  const auto& paths = nodes[0]->bgp_routes().at(p3);
  ASSERT_EQ(paths.size(), 2u);  // via r1 and via r2
  EXPECT_EQ(paths[0].learned_from, 1u);
  EXPECT_EQ(paths[1].learned_from, 2u);
}

TEST(NodeTest, EcmpRespectsMaxPaths) {
  topo::Network net = testing::MakeDiamond();
  net.intents[0].max_ecmp_paths = 1;
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  EXPECT_EQ(
      nodes[0]->bgp_routes().at(util::MustParsePrefix("10.0.3.0/24")).size(),
      1u);
}

TEST(NodeTest, AsPathPrependSteersTrafficAway) {
  // Diamond: r1 prepends twice on its exports toward r0, so r0 routes to
  // r3's prefix via r2 only — the classic traffic-engineering move.
  topo::Network net = testing::MakeDiamond();
  for (topo::InterfaceIntent& iface : net.intents[1].interfaces) {
    if (iface.peer == 0) iface.export_policy.as_path_prepend = 2;
  }
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  const auto& paths =
      nodes[0]->bgp_routes().at(util::MustParsePrefix("10.0.3.0/24"));
  ASSERT_EQ(paths.size(), 1u);  // prepended path no longer ECMP-equal
  EXPECT_EQ(paths[0].learned_from, 2u);
  // The de-preferred path is still a candidate with the longer AS path.
  const auto& direct =
      nodes[0]->bgp_routes().at(util::MustParsePrefix("10.0.1.0/24"));
  EXPECT_EQ(direct.front().as_path().size(), 3u);  // 1 real + 2 prepended
}

TEST(NodeTest, ShardRestrictsOrigination) {
  auto net = testing::Parse(testing::MakeChain(3));
  auto nodes = MakeNodes(net);
  PrefixSet shard = {util::MustParsePrefix("10.0.0.0/24"),
                     util::MustParsePrefix("10.0.2.0/24")};
  for (auto& node : nodes) node->BeginBgp(&shard);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  for (auto& node : nodes) {
    EXPECT_EQ(node->bgp_routes().size(), 2u);
    for (const auto& [prefix, routes] : node->bgp_routes()) {
      EXPECT_TRUE(shard.count(prefix));
    }
  }
}

TEST(NodeTest, AggregateActivatesWithContributor) {
  topo::Network net = testing::MakeChain(3);
  // r1 aggregates r2's announcement space.
  net.intents[1].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("10.0.2.0/23"), true, {777}});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  auto agg = util::MustParsePrefix("10.0.2.0/23");
  auto specific = util::MustParsePrefix("10.0.2.0/24");
  // r0 sees the aggregate (tagged) but NOT the suppressed specific.
  ASSERT_TRUE(nodes[0]->bgp_routes().count(agg));
  EXPECT_TRUE(nodes[0]->bgp_routes().at(agg).front().HasCommunity(777));
  EXPECT_FALSE(nodes[0]->bgp_routes().count(specific));
  // r1 keeps the specific in its own RIB (needed for forwarding).
  EXPECT_TRUE(nodes[1]->bgp_routes().count(specific));
  // r2, the contributor itself, does not hear its own specific suppressed
  // but does receive the aggregate.
  EXPECT_TRUE(nodes[2]->bgp_routes().count(agg));
}

TEST(NodeTest, AggregateInactiveWithoutContributor) {
  topo::Network net = testing::MakeChain(2);
  net.intents[1].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("192.168.0.0/16"), true, {}});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  EXPECT_FALSE(
      nodes[0]->bgp_routes().count(util::MustParsePrefix("192.168.0.0/16")));
}

TEST(NodeTest, ConditionalAdvertisementPresent) {
  topo::Network net = testing::MakeChain(2);
  // r1 advertises a default route only while it has r0's /24.
  net.intents[1].cond_advs.push_back(topo::CondAdvIntent{
      util::MustParsePrefix("0.0.0.0/0"),
      util::MustParsePrefix("10.0.0.0/24"), true});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  EXPECT_TRUE(
      nodes[0]->bgp_routes().count(util::MustParsePrefix("0.0.0.0/0")));
}

TEST(NodeTest, ConditionalAdvertisementAbsentWatch) {
  topo::Network net = testing::MakeChain(2);
  // Advertise a backup prefix only if a never-announced prefix is absent:
  // fires.
  net.intents[1].cond_advs.push_back(topo::CondAdvIntent{
      util::MustParsePrefix("198.51.100.0/24"),
      util::MustParsePrefix("203.0.113.0/24"), false});
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  EXPECT_TRUE(nodes[0]->bgp_routes().count(
      util::MustParsePrefix("198.51.100.0/24")));
}

TEST(NodeTest, SplitHorizonKeepsOutboxesLean) {
  auto net = testing::Parse(testing::MakeChain(2));
  auto nodes = MakeNodes(net);
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  // After convergence a fresh ComputeRound must produce nothing — in
  // particular no echo of routes back to the neighbor they came from.
  EXPECT_FALSE(nodes[0]->ComputeRound());
  EXPECT_TRUE(nodes[0]->TakeUpdatesFor(1).empty());
}

TEST(NodeTest, OspfPassComputesShortestPaths) {
  topo::Network net = testing::MakeChain(4);
  for (auto& intent : net.intents) intent.enable_ospf = true;
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginOspf();
  Converge(nodes);
  for (auto& node : nodes) node->FinishOspf();
  // r0's OSPF route to r3's loopback has metric 3.
  auto lo3 = util::MustParsePrefix("172.16.0.3/32");
  ASSERT_TRUE(nodes[0]->ospf_routes().count(lo3));
  EXPECT_EQ(nodes[0]->ospf_routes().at(lo3).front().metric, 3u);
}

TEST(NodeTest, RedistributesOspfIntoBgp) {
  topo::Network net = testing::MakeChain(3);
  // Only r0 and r1 run OSPF; r1 redistributes into BGP toward r2.
  net.intents[0].enable_ospf = true;
  net.intents[1].enable_ospf = true;
  net.intents[1].redistribute_ospf_into_bgp = true;
  // Remove r0's loopback from its own BGP announcements so the only way
  // r2 can learn it is via redistribution at r1.
  net.intents[0].announced.clear();
  auto parsed = testing::Parse(net);
  auto nodes = MakeNodes(parsed);
  for (auto& node : nodes) node->BeginOspf();
  Converge(nodes);
  for (auto& node : nodes) node->FinishOspf();
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes);
  for (auto& node : nodes) node->RetainBgp();
  auto lo0 = util::MustParsePrefix("172.16.0.0/32");
  ASSERT_TRUE(nodes[2]->bgp_routes().count(lo0));
  EXPECT_EQ(nodes[2]->bgp_routes().at(lo0).front().origin(),
            2u);  // incomplete
}

// A hub r0 with leaves r1..r(n-1); every router announces 10.0.i.0/24
// and its loopback, with private ASNs 65001 + i.
topo::Network MakeStar(int n) {
  topo::Network net;
  net.name = "star" + std::to_string(n);
  for (int i = 0; i < n; ++i) {
    net.graph.AddNode(topo::NodeInfo{"r" + std::to_string(i),
                                     topo::Role::kEdge, 0, -1, 1.0});
  }
  for (int i = 1; i < n; ++i) net.graph.AddEdge(0, i);
  net.intents.resize(n);
  for (int i = 0; i < n; ++i) {
    topo::NodeIntent& intent = net.intents[i];
    intent.asn = 65001 + static_cast<uint32_t>(i);
    intent.enable_ospf = true;
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | uint32_t(i)), 32);
    intent.announced.push_back(intent.loopback);
    intent.announced.push_back(util::IpPrefix(
        util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24));
    intent.max_ecmp_paths = 4;
  }
  topo::AssignLinkAddresses(net);
  return net;
}

// Export classes are an optimization only: the hub's outboxes must equal
// what a per-session TransformForExport (OspfExport in the OSPF pass)
// oracle produces, with split horizon, aggregate suppression and export
// rejects applied per session. The hub's sessions cover every case: r1,
// r2 and r5 share a tagging map; r3 has the same map plus
// remove-private-as; r4 has a map that rejects 10.0.3.0/24; each leaf's
// own routes are split-horizoned back to it; and a summary-only
// aggregate suppresses r4's and r5's /24s.
TEST(NodeTest, ExportClassesMatchPerSessionOracle) {
  topo::Network star = MakeStar(6);
  star.intents[0].aggregates.push_back(topo::AggregateIntent{
      util::MustParsePrefix("10.0.4.0/23"), true, {}});
  config::ParsedNetwork net = testing::Parse(star);
  config::ViConfig& hub = net.configs[0];
  config::RouteMap tag{"TAG", {}};
  tag.clauses.emplace_back();
  tag.clauses.back().add_communities = {555};
  tag.clauses.back().set_med = 7;
  config::RouteMap reject{"REJECT3", {}};
  reject.clauses.emplace_back();
  reject.clauses.back().permit = false;
  reject.clauses.back().match_covered_by =
      util::MustParsePrefix("10.0.3.0/24");
  reject.clauses.emplace_back();
  reject.clauses.back().as_path_prepend = 1;
  hub.route_maps["TAG"] = tag;
  hub.route_maps["REJECT3"] = reject;
  for (config::BgpNeighbor& neighbor : hub.bgp.neighbors) {
    topo::NodeId peer = net.FindByAddress(neighbor.peer_address);
    neighbor.export_route_map = peer == 4 ? "REJECT3" : "TAG";
    neighbor.remove_private_as = peer == 3;
  }

  AttrPool pool;
  std::vector<std::unique_ptr<Node>> nodes;
  for (topo::NodeId id = 0; id < net.configs.size(); ++id) {
    nodes.push_back(std::make_unique<Node>(id, net, nullptr, &pool));
  }
  const Node& center = *nodes[0];
  ASSERT_EQ(center.sessions().size(), 5u);
  EXPECT_EQ(center.export_classes(), 3u);

  bool bgp = false;
  int exported = 0, split = 0, suppressed = 0, rejected = 0;
  std::map<std::pair<topo::NodeId, util::IpPrefix>, RouteUpdate> last;
  auto oracle = [&](topo::NodeId from, topo::NodeId to,
                    const std::vector<RouteUpdate>& updates) {
    if (from != 0) return;
    const Node::Session* session = nullptr;
    for (const Node::Session& s : center.sessions()) {
      if (s.peer == to) session = &s;
    }
    ASSERT_NE(session, nullptr);
    for (const RouteUpdate& update : updates) {
      RouteUpdate expected{update.prefix, true, Route{}};
      const std::vector<Route>* best = center.rib().Best(update.prefix);
      if (best == nullptr) {
      } else if (best->front().learned_from == to) {
        ++split;
      } else if (bgp && SuppressedByAggregate(update.prefix, hub)) {
        ++suppressed;
      } else if (!bgp) {
        expected = RouteUpdate{update.prefix, false,
                               OspfExport(best->front())};
      } else if (auto route = TransformForExport(best->front(), hub,
                                                 *session->neighbor, pool)) {
        expected = RouteUpdate{update.prefix, false, *route};
      } else {
        ++rejected;
      }
      if (!expected.withdraw) ++exported;
      EXPECT_EQ(update, expected)
          << (bgp ? "bgp" : "ospf") << " update of "
          << update.prefix.ToString() << " to r" << to;
      last[{to, update.prefix}] = update;
    }
  };

  for (auto& node : nodes) node->BeginOspf();
  Converge(nodes, 50, oracle);
  EXPECT_GT(exported, 0);
  EXPECT_GT(split, 0);
  for (auto& node : nodes) node->FinishOspf();

  bgp = true;
  exported = split = 0;
  for (auto& node : nodes) node->BeginBgp(nullptr);
  Converge(nodes, 50, oracle);
  EXPECT_GT(exported, 0);
  EXPECT_GT(split, 0);
  EXPECT_GT(suppressed, 0);
  EXPECT_GT(rejected, 0);
  // The classes really differ: r3 hears r2's /24 with the private ASNs
  // removed, r1 with them, and r4 never hears r3's /24.
  auto p2 = util::MustParsePrefix("10.0.2.0/24");
  auto p3 = util::MustParsePrefix("10.0.3.0/24");
  EXPECT_NE(last.at({3, p2}).route.as_path(),
            last.at({1, p2}).route.as_path());
  EXPECT_TRUE(last.at({4, p3}).withdraw);
}

}  // namespace
}  // namespace s2::cp
