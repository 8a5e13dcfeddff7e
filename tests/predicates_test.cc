// Port predicate tests: the LPM-ordered partition of the destination
// space, ACL first-match predicates, and the Eq. 1 building blocks. The
// trie construction of FIB predicates is checked against the Apply-based
// LPM scan it replaced, kept here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "cp/engine.h"
#include "dp/predicates.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/rng.h"

namespace s2::dp {
namespace {

using RouteMap = std::map<util::IpPrefix, std::vector<cp::Route>>;

cp::Route Learned(const std::string& prefix, topo::NodeId from) {
  cp::Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = cp::Protocol::kBgp;
  r.learned_from = from;
  return r;
}

// The oracle: an LPM scan over the longest-first FIB. Each entry claims
// the part of the destination space no earlier entry claimed; ECMP hops
// OR the claimed share into their predicate, in first-claim order.
NodePredicates ScanPredicates(const Fib& fib, const PacketCodec& codec) {
  bdd::Manager* manager = codec.manager();
  NodePredicates preds;
  preds.arrive = manager->Zero();
  preds.exit = manager->Zero();
  preds.discard = manager->Zero();
  bdd::Bdd unmatched = manager->One();
  for (const FibEntry& entry : fib.entries) {
    if (unmatched.IsZero()) break;
    bdd::Bdd match = codec.DstIn(entry.prefix) & unmatched;
    if (match.IsZero()) continue;
    unmatched = unmatched.Diff(match);
    switch (entry.action) {
      case FibAction::kForward:
        for (topo::NodeId hop : entry.next_hops) {
          auto it = preds.forward.find(hop);
          if (it == preds.forward.end()) {
            preds.forward.emplace(hop, match);
          } else {
            it->second |= match;
          }
        }
        break;
      case FibAction::kArrive:
        preds.arrive |= match;
        break;
      case FibAction::kExit:
        preds.exit |= match;
        break;
      case FibAction::kDiscard:
        preds.discard |= match;
        break;
    }
  }
  preds.discard |= unmatched;
  return preds;
}

// Same node ids (canonicity in one manager) and the same forward-map
// iteration order, which fixes the engine's packet emission order.
void ExpectSameAsScan(const NodePredicates& got, const NodePredicates& want,
                      const std::string& label) {
  EXPECT_EQ(got.arrive.id(), want.arrive.id()) << label;
  EXPECT_EQ(got.exit.id(), want.exit.id()) << label;
  EXPECT_EQ(got.discard.id(), want.discard.id()) << label;
  ASSERT_EQ(got.forward.size(), want.forward.size()) << label;
  auto g = got.forward.begin();
  for (auto w = want.forward.begin(); w != want.forward.end(); ++w, ++g) {
    EXPECT_EQ(g->first, w->first) << label;
    EXPECT_EQ(g->second.id(), w->second.id()) << label << " hop " << w->first;
  }
}

// Fib::Build's order: family-major, longest first, then by address.
void SortLikeFibBuild(Fib& fib) {
  std::stable_sort(fib.entries.begin(), fib.entries.end(),
                   [](const FibEntry& a, const FibEntry& b) {
                     if (a.prefix.family() != b.prefix.family()) {
                       return a.prefix.family() < b.prefix.family();
                     }
                     if (a.prefix.length() != b.prefix.length()) {
                       return a.prefix.length() > b.prefix.length();
                     }
                     return a.prefix < b.prefix;
                   });
}

// A random FIB whose prefixes crowd a few base blocks, so nesting,
// shadowing (a block covered by its two halves) and exact duplicates all
// occur, alongside /0 and full-length host routes in each family.
Fib RandomFib(util::Rng& rng, bool with_v6) {
  std::vector<util::IpPrefix> prefixes;
  auto v4 = [&](uint32_t bits, uint8_t len) {
    return util::IpPrefix(util::IpAddress(bits), len);
  };
  auto v6 = [&](uint64_t hi, uint64_t lo, uint8_t len) {
    return util::IpPrefix(util::IpAddress::Make(util::Family::kV6, hi, lo),
                          len);
  };
  const uint8_t v4_lengths[] = {0, 8, 15, 16, 23, 24, 25, 31, 32};
  const uint8_t v6_lengths[] = {0, 32, 47, 48, 63, 64, 65, 127, 128};
  size_t count = 4 + rng.Below(28);
  for (size_t i = 0; i < count; ++i) {
    bool six = with_v6 && rng.Below(2) == 0;
    uint8_t len = six ? v6_lengths[rng.Below(9)] : v4_lengths[rng.Below(9)];
    util::IpPrefix p =
        six ? v6(0x20010db800000000ull | (rng.Below(4) << 16) |
                     rng.Below(4),
                 rng.Below(4) << 62 | rng.Below(4), len)
            : v4(0x0a000000u | uint32_t(rng.Below(4)) << 16 |
                     uint32_t(rng.Below(4)) << 8 | uint32_t(rng.Below(4)),
                 len);
    prefixes.push_back(p);
    uint8_t max_len = six ? 128 : 32;
    if (p.length() < max_len && rng.Below(4) == 0) {
      // Shadow p: add both of its halves.
      uint8_t half = p.length() + 1;
      prefixes.push_back(util::IpPrefix(p.address(), half));
      util::IpAddress upper =
          six ? util::IpAddress::Make(
                    util::Family::kV6,
                    p.address().Hi() | (half <= 64 ? 1ull << (64 - half) : 0),
                    p.address().Lo() | (half > 64 ? 1ull << (128 - half) : 0))
              : util::IpAddress(p.address().V4Bits() | 1u << (32 - half));
      prefixes.push_back(util::IpPrefix(upper, half));
    }
    if (rng.Below(8) == 0) prefixes.push_back(p);  // exact duplicate
  }
  Fib fib;
  for (const util::IpPrefix& p : prefixes) {
    FibEntry entry;
    entry.prefix = p;
    entry.action = static_cast<FibAction>(rng.Below(4));
    if (entry.action == FibAction::kForward) {
      // Overlapping ECMP sets over a small pool of neighbors.
      size_t width = 1 + rng.Below(3);
      for (size_t h = 0; h < width; ++h) {
        topo::NodeId hop = static_cast<topo::NodeId>(rng.Below(5));
        if (std::find(entry.next_hops.begin(), entry.next_hops.end(), hop) ==
            entry.next_hops.end()) {
          entry.next_hops.push_back(hop);
        }
      }
    }
    fib.entries.push_back(std::move(entry));
  }
  SortLikeFibBuild(fib);
  return fib;
}

TEST(PredicateConstructionTest, RandomFibsMatchTheScan) {
  auto net = testing::Parse(testing::MakeChain(2));
  for (bool dual : {false, true}) {
    HeaderLayout layout =
        dual ? HeaderLayout::DualStack(1) : HeaderLayout::V4Only(1);
    util::Rng rng(dual ? 17 : 5);
    for (int round = 0; round < 200; ++round) {
      bdd::Manager manager(layout.total_bits());
      PacketCodec codec(&manager, layout);
      Fib fib = RandomFib(rng, dual);
      std::string label = std::string(dual ? "dual" : "v4") + " round " +
                          std::to_string(round);
      NodePredicates want = ScanPredicates(fib, codec);
      ExpectSameAsScan(BuildPredicates(net, 0, fib, codec), want, label);
    }
  }
}

// Every node of converged networks, v4-only and dual-stack, against the
// scan in the same manager.
TEST(PredicateConstructionTest, ConvergedNetworksMatchTheScan) {
  topo::FatTreeParams fattree;
  fattree.k = 4;
  topo::FatTreeParams dual_fattree = fattree;
  dual_fattree.dual_stack = true;
  topo::DcnParams dcn;
  dcn.small_clusters = 1;
  dcn.big_clusters = 1;
  dcn.tors_per_pod = 2;
  dcn.cores = 2;
  dcn.dual_stack = true;
  std::vector<std::pair<std::string, topo::Network>> cases = {
      {"fattree4", topo::MakeFatTree(fattree)},
      {"fattree4-dual", topo::MakeFatTree(dual_fattree)},
      {"dcn-dual", topo::MakeDcn(dcn)},
      {"diamond", testing::MakeDiamond()}};
  for (const auto& [name, raw] : cases) {
    config::ParsedNetwork net = testing::Parse(raw);
    cp::MonoEngine engine(net, nullptr);
    engine.Run(nullptr, nullptr);
    HeaderLayout layout = LayoutForNetwork(net, HeaderLayout{});
    bdd::Manager manager(layout.total_bits());
    PacketCodec codec(&manager, layout);
    for (const auto& node : engine.nodes()) {
      Fib fib = Fib::Build(net, node->id(), node->bgp_routes(),
                           node->ospf_routes(), nullptr);
      NodePredicates want = ScanPredicates(fib, codec);
      ExpectSameAsScan(BuildPredicates(net, node->id(), fib, codec), want,
                       name + " node " + std::to_string(node->id()));
    }
  }
}

// The construction is garbage-free: on a fresh manager every allocated
// node is referenced by the predicates it returned.
TEST(PredicateConstructionTest, LeavesNoDeadNodes) {
  auto net = testing::Parse(testing::MakeDiamond());
  cp::MonoEngine engine(net, nullptr);
  engine.Run(nullptr, nullptr);
  for (bool dual : {false, true}) {
    HeaderLayout layout =
        dual ? HeaderLayout::DualStack(0) : HeaderLayout::V4Only(0);
    bdd::Manager manager(layout.total_bits());
    PacketCodec codec(&manager, layout);
    Fib fib = Fib::Build(net, 0, engine.node(0).bgp_routes(),
                         engine.node(0).ospf_routes(), nullptr);
    NodePredicates preds = BuildPredicates(net, 0, fib, codec);
    ASSERT_TRUE(preds.acl_in.empty() && preds.acl_out.empty());
    EXPECT_GT(manager.live_nodes(), 0u);
    EXPECT_EQ(manager.allocated_nodes() - 2, manager.live_nodes());
  }
}

TEST(PredicateConstructionTest, EntryOutsideTheLayoutIsHardError) {
  auto net = testing::Parse(testing::MakeChain(2));
  HeaderLayout layout = HeaderLayout::V4Only(0);
  bdd::Manager manager(layout.total_bits());
  PacketCodec codec(&manager, layout);
  Fib fib;
  fib.entries.push_back(
      FibEntry{util::MustParsePrefix("2001:db8::/32"), FibAction::kArrive, {}});
  EXPECT_THROW(BuildPredicates(net, 0, fib, codec), std::invalid_argument);
}

TEST(PredicatesTest, PartitionIsDisjointAndComplete) {
  auto net = testing::Parse(testing::MakeDiamond());
  cp::MonoEngine engine(net, nullptr);
  engine.Run(nullptr, nullptr);

  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  Fib fib = Fib::Build(net, 0, engine.node(0).bgp_routes(),
                       engine.node(0).ospf_routes(), nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);

  // Forward/arrive/exit/discard partition the full destination space.
  bdd::Bdd all = preds.arrive | preds.exit | preds.discard;
  for (const auto& [hop, pred] : preds.forward) all |= pred;
  EXPECT_TRUE(all.IsOne());

  // Disjointness between classes (ECMP overlap *within* forward is fine).
  EXPECT_FALSE(preds.arrive.Intersects(preds.discard));
  EXPECT_FALSE(preds.arrive.Intersects(preds.exit));
  for (const auto& [hop, pred] : preds.forward) {
    EXPECT_FALSE(pred.Intersects(preds.arrive));
    EXPECT_FALSE(pred.Intersects(preds.discard));
  }
}

TEST(PredicatesTest, LpmGivesSpecificEntryPriority) {
  auto net = testing::Parse(testing::MakeChain(3));
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  // Hand-built FIB: /8 to neighbor 1, /24 carve-out to neighbor 2 — wait,
  // node 0's only neighbor is 1; use arrive for the carve-out instead.
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.0.0/8")] = {Learned("10.0.0.0/8", 1)};
  net.configs[0].bgp.networks.push_back(
      util::MustParsePrefix("10.7.7.0/24"));
  bgp[util::MustParsePrefix("10.7.7.0/24")] = {[&] {
    cp::Route r = Learned("10.7.7.0/24", 0);
    r.protocol = cp::Protocol::kLocal;
    r.learned_from = topo::kInvalidNode;
    return r;
  }()};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);
  bdd::Bdd carved = codec.DstIn(util::MustParsePrefix("10.7.7.0/24"));
  // The carve-out arrives locally; the surrounding /8 forwards.
  EXPECT_TRUE(carved.Implies(preds.arrive));
  EXPECT_FALSE(preds.forward.at(1).Intersects(carved));
  EXPECT_TRUE(
      codec.DstIn(util::MustParsePrefix("10.9.0.0/16"))
          .Implies(preds.forward.at(1)));
}

TEST(PredicatesTest, UnroutedSpaceDiscards) {
  auto net = testing::Parse(testing::MakeChain(2));
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  RouteMap bgp;
  bgp[util::MustParsePrefix("10.0.1.0/24")] = {Learned("10.0.1.0/24", 1)};
  Fib fib = Fib::Build(net, 0, bgp, {}, nullptr);
  NodePredicates preds = BuildPredicates(net, 0, fib, codec);
  EXPECT_TRUE(codec.DstIn(util::MustParsePrefix("192.168.0.0/16"))
                  .Implies(preds.discard));
}

TEST(AclPredicateTest, FirstMatchWins) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      false, std::nullopt, util::MustParsePrefix("172.16.0.0/12")});
  acl.entries.push_back(
      config::AclEntry{true, std::nullopt, std::nullopt});
  bdd::Bdd permit = AclPredicate(acl, codec);
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("172.16.5.0/24"))
                   .Intersects(permit));
  EXPECT_TRUE(codec.DstIn(util::MustParsePrefix("10.0.0.0/8"))
                  .Implies(permit));
}

TEST(AclPredicateTest, NoMatchMeansDeny) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      true, std::nullopt, util::MustParsePrefix("10.0.0.0/8")});
  bdd::Bdd permit = AclPredicate(acl, codec);
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("192.168.0.0/16"))
                   .Intersects(permit));
}

TEST(AclPredicateTest, SrcEntryUnderDstOnlyLayoutMatchesNothing) {
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      true, util::MustParsePrefix("10.0.0.0/8"), std::nullopt});
  EXPECT_TRUE(AclPredicate(acl, codec).IsZero());
}

TEST(AclPredicateTest, SrcMatchingWithSrcBits) {
  bdd::Manager manager(64);
  PacketCodec codec(&manager, HeaderLayout{32, 32, 0});
  config::Acl acl;
  acl.name = "A";
  acl.entries.push_back(config::AclEntry{
      false, util::MustParsePrefix("10.0.0.0/8"),
      util::MustParsePrefix("10.0.0.0/8")});
  acl.entries.push_back(config::AclEntry{true, std::nullopt, std::nullopt});
  bdd::Bdd permit = AclPredicate(acl, codec);
  bdd::Bdd internal = codec.SrcIn(util::MustParsePrefix("10.0.0.0/8")) &
                      codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  EXPECT_FALSE(internal.Intersects(permit));
  bdd::Bdd external_src =
      codec.SrcIn(util::MustParsePrefix("192.168.0.0/16")) &
      codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  EXPECT_TRUE(external_src.Implies(permit));
}

TEST(PredicatesTest, InterfaceAclsBecomePortPredicates) {
  topo::Network net = testing::MakeChain(2);
  net.intents[0].interfaces[0].acl_out.push_back(topo::AclRuleIntent{
      false, std::nullopt, util::MustParsePrefix("172.16.0.0/12")});
  auto parsed = testing::Parse(net);
  cp::MonoEngine engine(parsed, nullptr);
  engine.Run(nullptr, nullptr);
  bdd::Manager manager(32);
  PacketCodec codec(&manager, HeaderLayout{32, 0, 0});
  Fib fib = Fib::Build(parsed, 0, engine.node(0).bgp_routes(),
                       engine.node(0).ospf_routes(), nullptr);
  NodePredicates preds = BuildPredicates(parsed, 0, fib, codec);
  ASSERT_TRUE(preds.acl_out.count(1));
  EXPECT_FALSE(codec.DstIn(util::MustParsePrefix("172.16.0.1/32"))
                   .Intersects(preds.acl_out.at(1)));
}

// ------------------------------------------------- address-family codec

// Regression: a prefix whose family does not fit the layout's field must
// be a hard error at the codec boundary, never a silent truncation. The
// policy layers (ACL predicates, query evaluation) are expected to check
// CanMatchDst/CanMatchSrc *before* calling in.
TEST(PacketCodecTest, FamilyWidthMismatchIsHardError) {
  HeaderLayout v4_only = HeaderLayout::V4Only(0);
  bdd::Manager manager(v4_only.total_bits());
  PacketCodec codec(&manager, v4_only);
  EXPECT_THROW(codec.DstIn(util::MustParsePrefix("2001:db8::/32")),
               std::invalid_argument);
  EXPECT_THROW(codec.DstIn(util::MustParsePrefix("::/0")),
               std::invalid_argument);
  // No src field configured at all: any src match is an error.
  EXPECT_THROW(codec.SrcIn(util::MustParsePrefix("10.0.0.0/8")),
               std::invalid_argument);

  // A 128-bit field without the family discriminator cannot hold v4
  // either — the two spaces would alias.
  HeaderLayout no_family{128, 0, 0, 0};
  bdd::Manager wide_manager(no_family.total_bits());
  PacketCodec wide(&wide_manager, no_family);
  EXPECT_THROW(wide.DstIn(util::MustParsePrefix("10.0.0.0/8")),
               std::invalid_argument);
  EXPECT_NO_THROW(wide.DstIn(util::MustParsePrefix("2001:db8::/32")));
}

// Under the dual-stack layout the family bit keeps the v4 and v6 spaces
// disjoint: the two defaults partition the universe, and containment
// works within each family across the 64-bit hi/lo boundary.
TEST(PacketCodecTest, DualStackFamiliesPartitionTheSpace) {
  HeaderLayout layout = HeaderLayout::DualStack(0);
  bdd::Manager manager(layout.total_bits());
  PacketCodec codec(&manager, layout);

  bdd::Bdd any4 = codec.DstIn(util::MustParsePrefix("0.0.0.0/0"));
  bdd::Bdd any6 = codec.DstIn(util::MustParsePrefix("::/0"));
  EXPECT_FALSE(any4.Intersects(any6));
  EXPECT_TRUE((any4 | any6).IsOne());

  bdd::Bdd v4 = codec.DstIn(util::MustParsePrefix("10.0.0.0/8"));
  bdd::Bdd v6 = codec.DstIn(util::MustParsePrefix("2001:db8::/32"));
  EXPECT_FALSE(v4.Intersects(v6));
  EXPECT_TRUE(v4.Implies(any4));
  EXPECT_TRUE(v6.Implies(any6));
  EXPECT_FALSE(v6.Implies(any4));

  // Containment across the hi/lo boundary: /80 ⊂ /48 ⊂ /32.
  bdd::Bdd mid = codec.DstIn(util::MustParsePrefix("2001:db8:1::/48"));
  bdd::Bdd deep =
      codec.DstIn(util::MustParsePrefix("2001:db8:1:0:1::/80"));
  EXPECT_TRUE(deep.Implies(mid));
  EXPECT_TRUE(mid.Implies(v6));
  EXPECT_FALSE(mid.Implies(deep));

  // v4 LPM subtraction still behaves under the widened field: a /24 carves
  // a proper hole out of its /8.
  bdd::Bdd hole = codec.DstIn(util::MustParsePrefix("10.1.2.0/24"));
  bdd::Bdd rest = v4.Diff(hole);
  EXPECT_FALSE(rest.Intersects(hole));
  EXPECT_TRUE((rest | hole) == v4);
}

}  // namespace
}  // namespace s2::dp
