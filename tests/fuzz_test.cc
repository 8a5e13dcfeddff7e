// Randomized equivalence fuzzing: generate random connected topologies
// with random policy mixes (local-pref, community tagging and filtering,
// aggregates, conditional advertisements, ACLs, mixed vendors, varying
// ECMP widths), then require S2's distributed verification — across worker
// counts, partition schemes, and shard counts — to produce RIBs and
// data-plane verdicts identical to the monolithic baseline's.
//
// Seeds whose control plane genuinely does not converge (random policy
// soups can build BGP dispute wheels) are skipped for both engines —
// convergence behaviour itself must agree, since the round semantics are
// identical.
#include <gtest/gtest.h>

#include "bdd/bdd.h"
#include "bdd/bdd_io.h"
#include "core/mono.h"
#include "core/s2.h"
#include "cp/route.h"
#include "dist/message.h"
#include "dist/process.h"
#include "fault/checkpoint.h"
#include "test_networks.h"
#include "util/rng.h"
#include "util/status.h"

namespace s2 {
namespace {

topo::Network RandomNetwork(uint64_t seed) {
  util::Rng rng(seed);
  topo::Network net;
  net.name = "fuzz" + std::to_string(seed);
  int n = static_cast<int>(rng.Between(5, 14));

  for (int i = 0; i < n; ++i) {
    net.graph.AddNode(topo::NodeInfo{"r" + std::to_string(i),
                                     topo::Role::kEdge,
                                     static_cast<int>(rng.Below(3)),
                                     static_cast<int>(rng.Below(3)), 1.0});
  }
  // Random spanning tree keeps it connected; sprinkle extra edges.
  for (topo::NodeId v = 1; v < net.graph.size(); ++v) {
    net.graph.AddEdge(v, static_cast<topo::NodeId>(rng.Below(v)));
  }
  int extra = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
  for (int e = 0; e < extra; ++e) {
    topo::NodeId a = static_cast<topo::NodeId>(rng.Below(n));
    topo::NodeId b = static_cast<topo::NodeId>(rng.Below(n));
    if (a != b) net.graph.AddEdge(a, b);
  }

  net.intents.resize(n);
  for (int i = 0; i < n; ++i) {
    topo::NodeIntent& intent = net.intents[i];
    // Public ASNs: random remove-private-as on an all-private-ASN fabric
    // legitimately destroys loop prevention and count-to-infinities — a
    // real misconfiguration hazard this model reproduces, but not the
    // convergence regime this fuzz targets.
    intent.asn = 60001 + static_cast<uint32_t>(i);
    intent.vendor = rng.Below(2) ? topo::Vendor::kBeta : topo::Vendor::kAlpha;
    intent.loopback = util::IpPrefix(
        util::IpAddress((172u << 24) | (16u << 16) | uint32_t(i)), 32);
    intent.announced.push_back(intent.loopback);
    int prefixes = static_cast<int>(rng.Between(1, 2));
    for (int p = 0; p < prefixes; ++p) {
      intent.announced.push_back(util::IpPrefix(
          util::IpAddress((10u << 24) | (uint32_t(i) << 12) |
                            (uint32_t(p) << 8)),
          24));
    }
    intent.max_ecmp_paths = static_cast<int>(rng.Between(1, 4));
    intent.remove_private_as = rng.Below(4) == 0;
    // Occasional aggregate over this node's own announcement space.
    if (rng.Below(3) == 0) {
      intent.aggregates.push_back(topo::AggregateIntent{
          util::IpPrefix(
              util::IpAddress((10u << 24) | (uint32_t(i) << 12)), 20),
          rng.Below(2) == 0,
          {static_cast<uint32_t>(300 + i)}});
    }
    // Occasional conditional advertisement watching a neighbor's space
    // (fresh advertised prefix, so no watch cycles by construction).
    if (rng.Below(4) == 0) {
      uint32_t watch_node = static_cast<uint32_t>(rng.Below(n));
      intent.cond_advs.push_back(topo::CondAdvIntent{
          util::IpPrefix(
              util::IpAddress((192u << 24) | (168u << 16) |
                                (uint32_t(i) << 8)),
              24),
          util::IpPrefix(
              util::IpAddress((172u << 24) | (16u << 16) | watch_node),
              32),
          rng.Below(2) == 0});
    }
  }

  topo::AssignLinkAddresses(net);

  // Per-interface policy soup (after interfaces exist).
  for (int i = 0; i < n; ++i) {
    for (topo::InterfaceIntent& iface : net.intents[i].interfaces) {
      if (rng.Below(4) == 0) {
        iface.import_local_pref =
            static_cast<uint32_t>(100 + 10 * rng.Below(3));
      }
      if (rng.Below(4) == 0) {
        iface.import_tag_communities.push_back(
            static_cast<uint32_t>(900 + rng.Below(3)));
      }
      if (rng.Below(5) == 0) {
        iface.export_policy.deny_export_communities.push_back(
            static_cast<uint32_t>(900 + rng.Below(3)));
      }
      if (rng.Below(5) == 0) {
        iface.export_policy.tag_matching.push_back(
            {util::MustParsePrefix("10.0.0.0/8"),
             static_cast<uint32_t>(910 + rng.Below(2))});
      }
      if (rng.Below(6) == 0) {
        iface.acl_in.push_back(topo::AclRuleIntent{
            false, std::nullopt,
            util::IpPrefix(
                util::IpAddress((10u << 24) | (rng.Below(n) << 12)),
                20)});
      }
    }
  }
  return net;
}

dp::Query FuzzQuery(const config::ParsedNetwork& parsed) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < parsed.graph.size(); ++id) {
    query.sources.push_back(id);
    query.destinations.push_back(id);
  }
  return query;
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, S2MatchesMonoOnRandomNetworks) {
  topo::Network net = RandomNetwork(GetParam());
  auto parsed = testing::Parse(net);
  dp::Query query = FuzzQuery(parsed);

  core::MonoOptions mono_options;
  mono_options.max_rounds = 200;
  core::MonoVerifier mono(mono_options);
  core::VerifyResult base = mono.Verify(parsed, {query});
  if (base.status == core::RunStatus::kTimeout) {
    GTEST_SKIP() << "seed builds a non-converging policy soup";
  }
  ASSERT_TRUE(base.ok()) << base.failure_detail;

  std::vector<std::map<util::IpPrefix, std::vector<cp::Route>>> ribs;
  for (const auto& node : mono.last_engine()->nodes()) {
    ribs.push_back(node->bgp_routes());
  }

  util::Rng rng(GetParam() * 977);
  for (int variant = 0; variant < 3; ++variant) {
    dist::ControllerOptions options;
    options.num_workers = static_cast<uint32_t>(rng.Between(1, 5));
    options.scheme = static_cast<topo::PartitionScheme>(rng.Below(5));
    options.num_shards = static_cast<int>(rng.Below(3)) * 3;  // 0, 3, 6
    options.max_rounds = 200;
    options.seed = rng.Next();
    core::S2Verifier verifier(options);
    core::VerifyResult result = verifier.Verify(parsed, {query});
    ASSERT_TRUE(result.ok()) << result.failure_detail;

    EXPECT_EQ(result.total_best_routes, base.total_best_routes);
    EXPECT_EQ(result.queries[0].reachable_pairs,
              base.queries[0].reachable_pairs);
    EXPECT_EQ(result.queries[0].unreachable_pairs,
              base.queries[0].unreachable_pairs);
    EXPECT_EQ(result.queries[0].loop_free, base.queries[0].loop_free);
    EXPECT_EQ(result.queries[0].blackhole_free,
              base.queries[0].blackhole_free);
    EXPECT_EQ(result.queries[0].multipath_violations.size(),
              base.queries[0].multipath_violations.size());

    if (options.num_shards == 0) {
      dist::Controller* controller = verifier.last_controller();
      for (size_t w = 0; w < controller->num_workers(); ++w) {
        dist::Worker& worker = controller->worker(w);
        for (topo::NodeId id : worker.local_nodes()) {
          ASSERT_EQ(worker.node(id).bgp_routes(), ribs[id])
              << "seed " << GetParam() << " node " << id;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 25));

// ------------------------------------------------------- parser fuzzing
//
// Property fuzz for the strict IP parsers (the config hot path): every
// address/prefix must survive a ToString -> Parse round trip bit-exactly,
// and mechanical mutations of a valid rendering (inserted sign/space/
// leading zero, doubled separators) must be rejected rather than silently
// misread — the failure mode of the old sscanf/strtol parsers.

TEST(ParserFuzzTest, AddressRoundTripsBitExactly) {
  util::Rng rng(0xA11CE5);
  for (int i = 0; i < 20000; ++i) {
    util::IpAddress addr(static_cast<uint32_t>(rng.Next()));
    auto back = util::IpAddress::Parse(addr.ToString());
    ASSERT_TRUE(back.has_value()) << addr.ToString();
    ASSERT_EQ(back->V4Bits(), addr.V4Bits()) << addr.ToString();
  }
}

TEST(ParserFuzzTest, PrefixRoundTripsBitExactly) {
  util::Rng rng(0xBEEF);
  for (int i = 0; i < 20000; ++i) {
    int len = static_cast<int>(rng.Below(33));
    util::IpPrefix prefix(util::IpAddress(static_cast<uint32_t>(rng.Next())),
                            len);
    auto back = util::IpPrefix::Parse(prefix.ToString());
    ASSERT_TRUE(back.has_value()) << prefix.ToString();
    ASSERT_EQ(back->address().V4Bits(), prefix.address().V4Bits())
        << prefix.ToString();
    ASSERT_EQ(back->length(), prefix.length()) << prefix.ToString();
  }
}

TEST(ParserFuzzTest, MutatedRenderingsAreRejected) {
  util::Rng rng(0xD00D);
  const std::string garnish = " +-0";
  int digit_survivors = 0;
  for (int i = 0; i < 5000; ++i) {
    util::IpPrefix prefix(util::IpAddress(static_cast<uint32_t>(rng.Next())),
                            static_cast<int>(rng.Below(33)));
    std::string text = prefix.ToString();
    // Insert one garnish character at a random position.
    size_t pos = rng.Below(text.size() + 1);
    char c = garnish[rng.Below(garnish.size())];
    std::string mutated = text.substr(0, pos) + c + text.substr(pos);
    auto parsed = util::IpPrefix::Parse(mutated);
    if (c != '0') {
      // Whitespace and sign garnish is what the old sscanf/strtol parsers
      // silently swallowed; the strict parsers must always reject it.
      EXPECT_FALSE(parsed.has_value()) << "accepted \"" << mutated << "\"";
    } else if (parsed.has_value()) {
      // An inserted digit may form a different valid prefix (e.g.
      // "1.2.3.4/8" -> "10.2.3.4/8"). Whatever parses must canonicalize
      // idempotently: render -> parse -> render is a fixed point.
      ++digit_survivors;
      auto again = util::IpPrefix::Parse(parsed->ToString());
      ASSERT_TRUE(again.has_value()) << parsed->ToString();
      EXPECT_EQ(*again, *parsed) << "from \"" << mutated << "\"";
    }
  }
  // Sanity: the digit path does exercise the survivor branch.
  EXPECT_GT(digit_survivors, 0);
}

// v6 addresses with realistic zero runs (each group is zero with ~1/2
// probability) so the RFC 5952 "::" compression paths are all exercised.
util::IpAddress RandomV6(util::Rng& rng) {
  uint64_t hi = 0, lo = 0;
  for (int g = 0; g < 4; ++g) {
    hi = (hi << 16) |
         ((rng.Next() & 1) ? 0 : static_cast<uint16_t>(rng.Next()));
    lo = (lo << 16) |
         ((rng.Next() & 1) ? 0 : static_cast<uint16_t>(rng.Next()));
  }
  return util::IpAddress::V6(hi, lo);
}

TEST(ParserFuzzTest, V6AddressRoundTripsBitExactly) {
  util::Rng rng(0x6A11CE5);
  for (int i = 0; i < 20000; ++i) {
    util::IpAddress addr = RandomV6(rng);
    auto back = util::IpAddress::Parse(addr.ToString());
    ASSERT_TRUE(back.has_value()) << addr.ToString();
    ASSERT_EQ(*back, addr) << addr.ToString();
  }
}

TEST(ParserFuzzTest, V6PrefixRoundTripsBitExactly) {
  util::Rng rng(0x6BEEF);
  for (int i = 0; i < 20000; ++i) {
    int len = static_cast<int>(rng.Below(129));
    util::IpPrefix prefix(RandomV6(rng), len);
    auto back = util::IpPrefix::Parse(prefix.ToString());
    ASSERT_TRUE(back.has_value()) << prefix.ToString();
    ASSERT_EQ(*back, prefix) << prefix.ToString();
  }
}

TEST(ParserFuzzTest, MutatedV6RenderingsAreRejected) {
  util::Rng rng(0x6D00D);
  // Whitespace, signs, zone-id markers, and non-hex letters must always
  // be rejected wherever they land; inserted hex digits or colons may
  // form a different valid literal, which must then canonicalize to a
  // fixed point (parse -> render -> parse is the identity).
  const std::string reject = " +-%z";
  const std::string maybe = "0:";
  int survivors = 0;
  for (int i = 0; i < 10000; ++i) {
    util::IpPrefix prefix(RandomV6(rng), static_cast<int>(rng.Below(129)));
    std::string text = prefix.ToString();
    size_t pos = rng.Below(text.size() + 1);
    bool strict = (rng.Next() & 1) != 0;
    char c = strict ? reject[rng.Below(reject.size())]
                    : maybe[rng.Below(maybe.size())];
    std::string mutated = text.substr(0, pos) + c + text.substr(pos);
    auto parsed = util::IpPrefix::Parse(mutated);
    if (strict) {
      EXPECT_FALSE(parsed.has_value()) << "accepted \"" << mutated << "\"";
    } else if (parsed.has_value()) {
      ++survivors;
      auto again = util::IpPrefix::Parse(parsed->ToString());
      ASSERT_TRUE(again.has_value()) << parsed->ToString();
      EXPECT_EQ(*again, *parsed) << "from \"" << mutated << "\"";
    }
  }
  EXPECT_GT(survivors, 0);
}

// ------------------------------------------------ malformed wire corpus
//
// Deserializers face bytes from other processes and from disk; a crashed
// sidecar or a torn checkpoint write must surface as util::WireFormatError,
// never as std::abort or an absurd-length allocation. The corpus attacks
// every wire format with (a) every strict truncation of a valid blob and
// (b) saturated length/count fields at every byte offset — the latter is
// what turns a single flipped bit into a multi-gigabyte reserve() if a
// count is trusted before the remaining bytes are measured.

// The RibStore spill format (cp::SerializeRoutes): one attribute table
// and one routes body.
std::vector<cp::RouteUpdate> ValidRouteUpdates(cp::AttrPool& pool) {
  std::vector<cp::RouteUpdate> updates;
  for (uint32_t i = 0; i < 8; ++i) {
    cp::Route r;
    r.prefix = util::IpPrefix(util::IpAddress((10u << 24) | (i << 8)), 24);
    r.origin_node = i;
    r.learned_from = (i + 1) % 8;
    r.MutateAttrs(pool, [&](cp::AttrTuple& t) {
      t.local_pref = 100 + (i % 3) * 10;
      t.as_path = {65001u, 65000u + (i % 3)};
      if (i % 2) t.communities = {100u, 999u};
    });
    updates.push_back(cp::RouteUpdate{r.prefix, false, r});
  }
  updates.push_back(cp::RouteUpdate{util::MustParsePrefix("10.9.0.0/24"),
                                    true, cp::Route{}});
  return updates;
}

std::vector<uint8_t> ValidRouteBatch(cp::AttrPool& pool) {
  std::vector<uint8_t> bytes;
  cp::SerializeRoutes(ValidRouteUpdates(pool), bytes);
  return bytes;
}

TEST(WireFuzzTest, EveryTruncatedRouteBatchErrors) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidRouteBatch(pool);
  ASSERT_EQ(cp::DeserializeRoutes(bytes, pool).size(), 9u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(cp::DeserializeRoutes(cut, pool), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedRouteBatchFieldsErrorNotAllocate) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidRouteBatch(pool);
  // Overwriting any 4 consecutive bytes with 0xFF saturates whichever
  // count, length, or index field they belong to (attr-table count, list
  // lengths, route count, tuple index). Decode must reject or survive —
  // the EXPECT_LE bounds the damage a trusted count could have done.
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    try {
      auto decoded = cp::DeserializeRoutes(corrupt, pool);
      EXPECT_LE(decoded.size(), corrupt.size());  // no phantom routes
    } catch (const util::WireFormatError&) {
      // the expected outcome for most offsets
    }
  }
}

TEST(WireFuzzTest, RandomRouteBatchMutationsNeverCrash) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidRouteBatch(pool);
  util::Rng rng(0xF00D);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> corrupt = bytes;
    int flips = static_cast<int>(rng.Between(1, 8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.Below(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    try {
      cp::DeserializeRoutes(corrupt, pool);
    } catch (const util::WireFormatError&) {
    }
  }
}

// Mixed-family batch: forces the generic (kAfV6) encoding with a
// per-entry family byte, v6 prefixes straddling the hi/lo u64 boundary,
// and a v6 withdraw.
std::vector<uint8_t> ValidMixedFamilyBatch(cp::AttrPool& pool) {
  std::vector<cp::RouteUpdate> updates;
  for (uint32_t i = 0; i < 4; ++i) {
    cp::Route r;
    r.prefix = util::IpPrefix(
        util::IpAddress::V6((0x20010db8ull << 32) | (uint64_t{i} << 16),
                            uint64_t{i} << 48),
        static_cast<uint8_t>(48 + 32 * (i % 2)));  // /48 and /80
    r.origin_node = i;
    r.learned_from = (i + 1) % 4;
    r.MutateAttrs(pool, [&](cp::AttrTuple& t) {
      t.local_pref = 100 + i;
      t.as_path = {65001u, 65002u + i};
    });
    updates.push_back(cp::RouteUpdate{r.prefix, false, r});
  }
  cp::Route v4;
  v4.prefix = util::MustParsePrefix("10.3.0.0/24");
  v4.origin_node = 7;
  updates.push_back(cp::RouteUpdate{v4.prefix, false, v4});
  updates.push_back(cp::RouteUpdate{util::MustParsePrefix("2001:db8::/32"),
                                    true, cp::Route{}});
  std::vector<uint8_t> bytes;
  cp::SerializeRoutes(updates, bytes);
  return bytes;
}

TEST(WireFuzzTest, MixedFamilyBatchRoundTripsBitExactly) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidMixedFamilyBatch(pool);
  auto decoded = cp::DeserializeRoutes(bytes, pool);
  ASSERT_EQ(decoded.size(), 6u);
  EXPECT_EQ(decoded[0].prefix.ToString(), "2001:db8::/48");
  EXPECT_EQ(decoded[1].prefix.ToString(), "2001:db8:1:0:1::/80");
  EXPECT_EQ(decoded[4].prefix.ToString(), "10.3.0.0/24");
  EXPECT_TRUE(decoded[5].withdraw);
  EXPECT_EQ(decoded[5].prefix.family(), util::Family::kV6);
}

TEST(WireFuzzTest, EveryTruncatedMixedFamilyBatchErrors) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidMixedFamilyBatch(pool);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(cp::DeserializeRoutes(cut, pool), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

// The sidecar's route exchange payload (dist::EncodeRouteBatch): one
// attribute table shared by several (from_node, to_node) sections — here
// a v4 section, a mixed-family section and an empty one.
std::vector<uint8_t> ValidSidecarRouteBatch(cp::AttrPool& pool) {
  std::vector<cp::RouteUpdate> mixed;
  cp::Route v6;
  v6.prefix = util::MustParsePrefix("2001:db8:7::/48");
  v6.origin_node = 4;
  v6.MutateAttrs(pool, [](cp::AttrTuple& t) { t.as_path = {65003u}; });
  mixed.push_back(cp::RouteUpdate{v6.prefix, false, v6});
  mixed.push_back(cp::RouteUpdate{util::MustParsePrefix("10.8.0.0/24"), true,
                                  cp::Route{}});
  std::vector<uint8_t> bytes;
  dist::EncodeRouteBatch({dist::RouteSection{1, 5, ValidRouteUpdates(pool)},
                          dist::RouteSection{2, 5, std::move(mixed)},
                          dist::RouteSection{3, 6, {}}},
                         bytes);
  return bytes;
}

TEST(WireFuzzTest, SidecarRouteBatchRoundTrips) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidSidecarRouteBatch(pool);
  std::vector<dist::RouteSection> sections =
      dist::DecodeRouteBatch(bytes, pool);
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].from_node, 1u);
  EXPECT_EQ(sections[0].to_node, 5u);
  EXPECT_EQ(sections[0].updates, ValidRouteUpdates(pool));
  EXPECT_EQ(sections[1].updates.size(), 2u);
  EXPECT_EQ(sections[1].updates[0].route.as_path(),
            std::vector<uint32_t>{65003u});
  EXPECT_TRUE(sections[1].updates[1].withdraw);
  EXPECT_EQ(sections[2].to_node, 6u);
  EXPECT_TRUE(sections[2].updates.empty());
}

TEST(WireFuzzTest, EveryTruncatedSidecarRouteBatchErrors) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidSidecarRouteBatch(pool);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(dist::DecodeRouteBatch(cut, pool), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(dist::DecodeRouteBatch(trailing, pool), util::WireFormatError);
}

// Every byte of the payload overwritten with several values, and every
// 4-byte window saturated (whichever count, length, node id or index it
// hits): decode must reject or yield no more entries than there are
// bytes — never abort, read out of bounds or allocate a trusted count.
TEST(WireFuzzTest, CorruptSidecarRouteBatchBytesErrorOrDecode) {
  cp::AttrPool pool;
  std::vector<uint8_t> bytes = ValidSidecarRouteBatch(pool);
  auto check = [&](const std::vector<uint8_t>& corrupt) {
    try {
      size_t entries = 0;
      for (const dist::RouteSection& section :
           dist::DecodeRouteBatch(corrupt, pool)) {
        entries += 1 + section.updates.size();
      }
      EXPECT_LE(entries, corrupt.size());
    } catch (const util::WireFormatError&) {
    }
  };
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (uint8_t value : {uint8_t{0}, uint8_t{1}, uint8_t{0x7F}, uint8_t{0xFF}}) {
      if (bytes[pos] == value) continue;
      std::vector<uint8_t> corrupt = bytes;
      corrupt[pos] = value;
      check(corrupt);
    }
  }
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    check(corrupt);
  }
}

// The address-family byte leading the batch body must reject every value
// other than kAfV4/kAfV6. The byte's offset depends on the attr table in
// front of it, so sweep: setting any single byte to an unknown-family
// value must either error or decode sanely, and at least one offset (the
// AF byte itself) must report the unknown family.
TEST(WireFuzzTest, UnknownAddressFamilyByteErrors) {
  cp::AttrPool pool;
  for (bool mixed : {false, true}) {
    std::vector<uint8_t> bytes =
        mixed ? ValidMixedFamilyBatch(pool) : ValidRouteBatch(pool);
    for (uint8_t bad : {uint8_t{0}, uint8_t{1}, uint8_t{5}, uint8_t{0xEE}}) {
      int unknown_family = 0;
      for (size_t pos = 0; pos < bytes.size(); ++pos) {
        std::vector<uint8_t> corrupt = bytes;
        if (corrupt[pos] == bad) continue;
        corrupt[pos] = bad;
        try {
          auto decoded = cp::DeserializeRoutes(corrupt, pool);
          EXPECT_LE(decoded.size(), corrupt.size());
        } catch (const util::WireFormatError& e) {
          if (std::string(e.what()).find("unknown address family") !=
              std::string::npos) {
            ++unknown_family;
          }
        }
      }
      EXPECT_GE(unknown_family, 1)
          << (mixed ? "mixed" : "v4") << " batch, value " << int(bad);
    }
  }
}

// Same check on the length-prefixed section path (checkpoint RIB chunks),
// where the AF byte sits at a fixed offset right after the u32 length.
TEST(WireFuzzTest, SectionUnknownAddressFamilyByteErrors) {
  cp::AttrPool pool;
  std::vector<cp::RouteUpdate> updates;
  cp::Route r;
  r.prefix = util::MustParsePrefix("2001:db8::/48");
  r.origin_node = 1;
  updates.push_back(cp::RouteUpdate{r.prefix, false, r});
  cp::AttrTableBuilder builder;
  std::vector<uint8_t> section;
  cp::PutRoutesSection(section, updates, builder);
  std::vector<uint8_t> table_bytes;
  builder.Serialize(table_bytes);
  size_t table_pos = 0;
  cp::AttrTable table = cp::AttrTable::Read(table_bytes, table_pos, pool);

  size_t pos = 0;
  EXPECT_EQ(cp::GetRoutesSection(section, pos, table).size(), 1u);
  ASSERT_EQ(section[4], cp::kAfV6);  // AF byte follows the u32 length
  for (uint8_t bad : {uint8_t{0}, uint8_t{1}, uint8_t{2}, uint8_t{3},
                      uint8_t{5}, uint8_t{7}, uint8_t{0xFF}}) {
    std::vector<uint8_t> corrupt = section;
    corrupt[4] = bad;
    size_t p = 0;
    EXPECT_THROW(cp::GetRoutesSection(corrupt, p, table),
                 util::WireFormatError)
        << "family byte " << int(bad);
  }

  // Truncation at every byte still errors with the AF byte present.
  for (size_t len = 0; len < section.size(); ++len) {
    std::vector<uint8_t> cut(section.begin(), section.begin() + len);
    size_t p = 0;
    EXPECT_THROW(cp::GetRoutesSection(cut, p, table), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

std::vector<uint8_t> ValidPacketBatch() {
  std::vector<dp::WirePacket> frames;
  for (uint32_t i = 0; i < 4; ++i) {
    dp::WirePacket frame;
    frame.at = i;
    frame.from = i + 1;
    frame.src = 0;
    frame.hops = static_cast<int>(i);
    frame.path = {0u, 1u, i};
    frame.set = {0x44, 0x42, 0x32, 0x53, 0x01, 0x02, 0x03};  // opaque here
    frames.push_back(std::move(frame));
  }
  std::vector<uint8_t> payload;
  dist::EncodePacketBatch(frames, payload);
  return payload;
}

TEST(WireFuzzTest, EveryTruncatedPacketBatchErrors) {
  std::vector<uint8_t> payload = ValidPacketBatch();
  ASSERT_EQ(dist::DecodePacketBatch(payload).size(), 4u);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    EXPECT_THROW(dist::DecodePacketBatch(cut), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedPacketBatchFieldsErrorNotAllocate) {
  std::vector<uint8_t> payload = ValidPacketBatch();
  for (size_t pos = 0; pos + 4 <= payload.size(); ++pos) {
    std::vector<uint8_t> corrupt = payload;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    try {
      auto frames = dist::DecodePacketBatch(corrupt);
      EXPECT_LE(frames.size(), corrupt.size());
    } catch (const util::WireFormatError&) {
    }
  }
}

std::vector<uint8_t> ValidPredicateBlob(bdd::Manager& manager) {
  dp::NodePredicates preds;
  preds.arrive = manager.And(manager.Var(0), manager.Var(3));
  preds.exit = manager.Or(manager.Var(1), manager.NotVar(2));
  preds.discard = manager.Not(preds.arrive);
  preds.forward[7] = manager.Var(2);
  preds.forward[9] = manager.And(manager.Var(4), manager.NotVar(0));
  preds.acl_in[7] = manager.One();
  preds.acl_out[9] = manager.Var(5);
  return fault::SerializePredicates(preds);
}

TEST(WireFuzzTest, EveryTruncatedPredicateCheckpointErrors) {
  bdd::Manager manager(16);
  std::vector<uint8_t> bytes = ValidPredicateBlob(manager);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    bdd::Manager fresh(16);
    EXPECT_THROW(fault::DeserializePredicates(fresh, cut),
                 util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedPredicateCheckpointFieldsError) {
  bdd::Manager manager(16);
  std::vector<uint8_t> bytes = ValidPredicateBlob(manager);
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    bdd::Manager fresh(16);
    try {
      fault::DeserializePredicates(fresh, corrupt);
    } catch (const util::WireFormatError&) {
    }
  }
}

TEST(WireFuzzTest, RandomBddBlobMutationsNeverCrash) {
  bdd::Manager manager(16);
  bdd::Bdd f = manager.Or(manager.And(manager.Var(0), manager.Var(1)),
                          manager.And(manager.Var(2), manager.NotVar(3)));
  std::vector<uint8_t> bytes = bdd::Serialize(f);
  util::Rng rng(0xB0D);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> corrupt = bytes;
    int flips = static_cast<int>(rng.Between(1, 6));
    for (int fl = 0; fl < flips; ++fl) {
      corrupt[rng.Below(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    bdd::Manager fresh(16);
    try {
      bdd::DeserializeInto(fresh, corrupt);
    } catch (const util::WireFormatError&) {
    }
  }
}

// --------------------------------------- process control-channel corpus
//
// The multi-process worker harness adds its own wire surface: CtrlFrame
// (the [len|payload] control stream between controller and s2_worker
// children), the init/restore specs, and the whole-checkpoint codec that
// ships worker state across the process boundary. A child that crashes
// mid-write leaves a truncated frame; a corrupted respawn pipe hands the
// controller garbage. Every such input must surface as WireFormatError —
// the liveness layer treats a decode failure as a child failure, so an
// abort or a runaway allocation here would take the controller down with
// the worker it was supposed to recover.

dist::Message SampleFabricMessage() {
  dist::Message msg;
  msg.type = dist::MessageType::kRouteUpdates;
  msg.to_node = 5;
  msg.from_node = 1;
  cp::AttrPool pool;
  msg.payload = ValidSidecarRouteBatch(pool);
  return msg;
}

fault::WorkerCheckpoint SampleWorkerCheckpoint() {
  fault::WorkerCheckpoint ckpt;
  ckpt.shard = 2;
  ckpt.fabric_round = 5;
  ckpt.node_state[1] = {1, 2, 3, 4};
  ckpt.node_state[4] = {9, 8};
  ckpt.has_data_plane = true;
  ckpt.predicate_state[1] = {7, 7, 7};
  ckpt.fib_bytes = 77;
  return ckpt;
}

// One valid encoding per control-frame shape (each CtrlType has its own
// field layout, so truncation and saturation must attack all of them).
std::vector<dist::CtrlFrame> SampleCtrlFrames() {
  std::vector<uint8_t> message_bytes;
  dist::EncodeMessage(SampleFabricMessage(), message_bytes);

  std::vector<dist::CtrlFrame> frames;
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kHello;
    f.worker = 3;
    f.protocol = dist::kCtrlProtocolVersion;
    f.pid = 0x12345678;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kHeartbeat;
    f.seq = 41;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;  // a Deliver command carrying one fabric message
    f.type = dist::CtrlType::kCommand;
    f.command = dist::WorkerCommand::kDeliver;
    f.shard = -1;
    f.round = 7;
    f.count = 3;
    f.payload = message_bytes;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;  // an ok response with a full metrics trailer
    f.type = dist::CtrlType::kResponse;
    f.command = dist::WorkerCommand::kComputeAndShip;
    f.status = dist::CtrlStatus::kOk;
    f.flag = 1;
    f.phase_seconds = 0.125;
    f.live_bytes = 1 << 20;
    f.peak_bytes = 3 << 20;
    f.cache_hits = 100;
    f.cache_misses = 7;
    f.cache_evictions = 2;
    f.aux = 12;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;  // an OOM response with a structured error payload
    f.type = dist::CtrlType::kResponse;
    f.command = dist::WorkerCommand::kBeginBgp;
    f.status = dist::CtrlStatus::kOom;
    f.payload = dist::EncodeOomError("bdd", 123456, 4096);
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;  // a storage-error response carrying the what() text
    f.type = dist::CtrlType::kResponse;
    f.command = dist::WorkerCommand::kSpillBgp;
    f.status = dist::CtrlStatus::kStorageError;
    const std::string what = "storage error: write spill segment: EFBIG";
    f.payload.assign(what.begin(), what.end());
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;  // a checkpoint ack carrying encoded worker state
    f.type = dist::CtrlType::kCheckpointAck;
    f.command = dist::WorkerCommand::kCheckpoint;
    f.payload = fault::EncodeWorkerCheckpoint(SampleWorkerCheckpoint());
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kData;
    f.dest = 2;
    f.payload = message_bytes;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kDeliver;
    f.payload = message_bytes;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kDrain;
    frames.push_back(f);
  }
  {
    dist::CtrlFrame f;
    f.type = dist::CtrlType::kShutdown;
    frames.push_back(f);
  }
  return frames;
}

dist::WorkerInitSpec SampleInitSpec() {
  dist::WorkerInitSpec spec;
  spec.num_workers = 3;
  spec.index = 1;
  spec.memory_budget = 1ull << 30;
  spec.max_bdd_nodes = 1ull << 22;
  spec.layout_dst_bits = 32;
  spec.layout_src_bits = 32;
  spec.layout_meta_bits = 4;
  spec.layout_family_bits = 1;
  spec.max_hops = 24;
  spec.num_shards = 4;
  spec.seed = 99;
  spec.heartbeat_interval_ms = 50;
  spec.assignment = {0, 1, 2, 0, 1};
  spec.config_texts = {"hostname r0\n", "hostname r1\n", ""};
  return spec;
}

dist::WorkerRestoreSpec SampleRestoreSpec() {
  dist::WorkerRestoreSpec spec;
  spec.shard_index = 1;
  spec.to_round = 9;
  spec.checkpoint = fault::EncodeWorkerCheckpoint(SampleWorkerCheckpoint());
  spec.spills.push_back(dist::SpillBlob{0, 3, {1, 2, 3}});
  spec.spills.push_back(dist::SpillBlob{2, 4, {}});
  fault::LoggedDelivery entry;
  entry.round = 6;
  entry.message = SampleFabricMessage();
  spec.log.push_back(entry);
  entry.round = 7;
  spec.log.push_back(entry);
  return spec;
}

TEST(WireFuzzTest, EveryTruncatedCtrlFrameErrors) {
  for (const dist::CtrlFrame& frame : SampleCtrlFrames()) {
    std::vector<uint8_t> bytes = dist::EncodeCtrlFrame(frame);
    ASSERT_EQ(dist::DecodeCtrlFrame(bytes).type, frame.type);
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      EXPECT_THROW(dist::DecodeCtrlFrame(cut), util::WireFormatError)
          << "type " << int(frame.type) << " prefix of " << len << " bytes";
    }
  }
}

TEST(WireFuzzTest, UnknownCtrlFrameTypeByteErrors) {
  // The type discriminator is the first byte of every frame; values
  // outside [kHello, kShutdown] must be rejected before any field logic
  // runs — a newer child talking to an older controller degrades to a
  // clean decode error, not a misparse.
  std::vector<uint8_t> bytes =
      dist::EncodeCtrlFrame(SampleCtrlFrames().front());
  for (int v = 0; v < 256; ++v) {
    if (v >= 1 && v <= 9) continue;  // the valid CtrlType range
    std::vector<uint8_t> corrupt = bytes;
    corrupt[0] = static_cast<uint8_t>(v);
    EXPECT_THROW(dist::DecodeCtrlFrame(corrupt), util::WireFormatError)
        << "type byte " << v;
  }
}

TEST(WireFuzzTest, OutOfRangeCtrlEnumBytesError) {
  // Command frame: byte 1 is the WorkerCommand discriminator.
  dist::CtrlFrame cmd;
  cmd.type = dist::CtrlType::kCommand;
  cmd.command = dist::WorkerCommand::kInit;
  std::vector<uint8_t> cmd_bytes = dist::EncodeCtrlFrame(cmd);
  for (int v : {0, 16, 100, 255}) {
    std::vector<uint8_t> corrupt = cmd_bytes;
    corrupt[1] = static_cast<uint8_t>(v);
    EXPECT_THROW(dist::DecodeCtrlFrame(corrupt), util::WireFormatError)
        << "command byte " << v;
  }
  // Response frame: byte 2 is CtrlStatus, byte 3 the boolean flag.
  dist::CtrlFrame rsp;
  rsp.type = dist::CtrlType::kResponse;
  rsp.command = dist::WorkerCommand::kInit;
  std::vector<uint8_t> rsp_bytes = dist::EncodeCtrlFrame(rsp);
  for (int v : {5, 9, 255}) {  // kStorageError = 4 is the last valid
    std::vector<uint8_t> corrupt = rsp_bytes;
    corrupt[2] = static_cast<uint8_t>(v);
    EXPECT_THROW(dist::DecodeCtrlFrame(corrupt), util::WireFormatError)
        << "status byte " << v;
  }
  for (int v : {2, 17, 255}) {
    std::vector<uint8_t> corrupt = rsp_bytes;
    corrupt[3] = static_cast<uint8_t>(v);
    EXPECT_THROW(dist::DecodeCtrlFrame(corrupt), util::WireFormatError)
        << "flag byte " << v;
  }
}

TEST(WireFuzzTest, SaturatedCtrlFrameFieldsErrorNotAllocate) {
  for (const dist::CtrlFrame& frame : SampleCtrlFrames()) {
    std::vector<uint8_t> bytes = dist::EncodeCtrlFrame(frame);
    for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
      std::vector<uint8_t> corrupt = bytes;
      for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
      try {
        dist::CtrlFrame decoded = dist::DecodeCtrlFrame(corrupt);
        EXPECT_LE(decoded.payload.size(), corrupt.size());
      } catch (const util::WireFormatError&) {
      }
    }
  }
}

TEST(WireFuzzTest, RandomCtrlFrameMutationsNeverCrash) {
  std::vector<std::vector<uint8_t>> corpus;
  for (const dist::CtrlFrame& frame : SampleCtrlFrames()) {
    corpus.push_back(dist::EncodeCtrlFrame(frame));
  }
  util::Rng rng(0xC7A1);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> corrupt = corpus[rng.Below(corpus.size())];
    int flips = static_cast<int>(rng.Between(1, 8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.Below(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    try {
      dist::DecodeCtrlFrame(corrupt);
    } catch (const util::WireFormatError&) {
    }
  }
}

TEST(WireFuzzTest, EveryTruncatedWorkerInitSpecErrors) {
  std::vector<uint8_t> bytes = dist::EncodeWorkerInitSpec(SampleInitSpec());
  ASSERT_EQ(dist::DecodeWorkerInitSpec(bytes).assignment.size(), 5u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(dist::DecodeWorkerInitSpec(cut), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedInitSpecFieldsErrorNotAllocate) {
  std::vector<uint8_t> bytes = dist::EncodeWorkerInitSpec(SampleInitSpec());
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    try {
      dist::WorkerInitSpec decoded = dist::DecodeWorkerInitSpec(corrupt);
      EXPECT_LE(decoded.assignment.size(), corrupt.size());
      EXPECT_LE(decoded.config_texts.size(), corrupt.size());
    } catch (const util::WireFormatError&) {
    }
  }
}

TEST(WireFuzzTest, EveryTruncatedRestoreSpecErrors) {
  std::vector<uint8_t> bytes =
      dist::EncodeWorkerRestoreSpec(SampleRestoreSpec());
  ASSERT_EQ(dist::DecodeWorkerRestoreSpec(bytes).log.size(), 2u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(dist::DecodeWorkerRestoreSpec(cut), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedRestoreSpecFieldsErrorNotAllocate) {
  std::vector<uint8_t> bytes =
      dist::EncodeWorkerRestoreSpec(SampleRestoreSpec());
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    try {
      dist::WorkerRestoreSpec decoded =
          dist::DecodeWorkerRestoreSpec(corrupt);
      EXPECT_LE(decoded.spills.size(), corrupt.size());
      EXPECT_LE(decoded.log.size(), corrupt.size());
    } catch (const util::WireFormatError&) {
    }
  }
}

TEST(WireFuzzTest, EveryTruncatedWorkerCheckpointErrors) {
  std::vector<uint8_t> bytes =
      fault::EncodeWorkerCheckpoint(SampleWorkerCheckpoint());
  ASSERT_EQ(fault::DecodeWorkerCheckpoint(bytes).node_state.size(), 2u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(fault::DecodeWorkerCheckpoint(cut), util::WireFormatError)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFuzzTest, SaturatedWorkerCheckpointFieldsErrorNotAllocate) {
  std::vector<uint8_t> bytes =
      fault::EncodeWorkerCheckpoint(SampleWorkerCheckpoint());
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    for (size_t i = 0; i < 4; ++i) corrupt[pos + i] = 0xFF;
    try {
      fault::WorkerCheckpoint decoded =
          fault::DecodeWorkerCheckpoint(corrupt);
      EXPECT_LE(decoded.node_state.size(), corrupt.size());
      EXPECT_LE(decoded.predicate_state.size(), corrupt.size());
    } catch (const util::WireFormatError&) {
    }
  }
}

TEST(WireFuzzTest, EveryTruncatedAuxProcessPayloadErrors) {
  // The smaller process-channel payload codecs: spill blobs, the
  // node->blob predicate map, and the structured OOM error.
  std::vector<uint8_t> spills =
      dist::EncodeSpillBlobs(SampleRestoreSpec().spills);
  for (size_t len = 0; len < spills.size(); ++len) {
    std::vector<uint8_t> cut(spills.begin(), spills.begin() + len);
    EXPECT_THROW(dist::DecodeSpillBlobs(cut), util::WireFormatError)
        << "spills prefix of " << len << " bytes";
  }

  std::map<topo::NodeId, std::vector<uint8_t>> map;
  map[3] = {1, 2, 3};
  map[9] = {};
  map[11] = {0xFF};
  std::vector<uint8_t> blobmap = dist::EncodeNodeBlobMap(map);
  ASSERT_EQ(dist::DecodeNodeBlobMap(blobmap), map);
  for (size_t len = 0; len < blobmap.size(); ++len) {
    std::vector<uint8_t> cut(blobmap.begin(), blobmap.begin() + len);
    EXPECT_THROW(dist::DecodeNodeBlobMap(cut), util::WireFormatError)
        << "blob map prefix of " << len << " bytes";
  }

  std::vector<uint8_t> oom = dist::EncodeOomError("bdd", 123456, 4096);
  std::string domain;
  uint64_t requested = 0, budget = 0;
  dist::DecodeOomError(oom, &domain, &requested, &budget);
  ASSERT_EQ(domain, "bdd");
  for (size_t len = 0; len < oom.size(); ++len) {
    std::vector<uint8_t> cut(oom.begin(), oom.begin() + len);
    EXPECT_THROW(dist::DecodeOomError(cut, &domain, &requested, &budget),
                 util::WireFormatError)
        << "oom prefix of " << len << " bytes";
  }
}

}  // namespace
}  // namespace s2
