// MonoVerifier ("Batfish" baseline) tests: full-pipeline verdicts, OOM and
// BDD-table overflow and spill storage failure as results, sharded-mode
// equivalence, and phase metric population.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>

#include "core/mono.h"
#include "test_networks.h"
#include "topo/fattree.h"
#include "unusable_tmpdir.h"

namespace s2::core {
namespace {

dp::Query EdgeQuery(const config::ParsedNetwork& net) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

TEST(MonoVerifierTest, FatTreeAllPairsReachable) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  MonoVerifier verifier{MonoOptions{}};
  VerifyResult result = verifier.Verify(net, {EdgeQuery(net)});
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  EXPECT_EQ(result.queries[0].reachable_pairs, 56u);
  EXPECT_EQ(result.queries[0].unreachable_pairs, 0u);
  EXPECT_TRUE(result.queries[0].loop_free);
  // Route entries (ECMP sets count per path): more than the 560 prefix
  // entries of FatTree4.
  EXPECT_GT(result.total_best_routes, 28u * 20u);
  EXPECT_GT(result.peak_memory_bytes, 0u);
  EXPECT_GT(result.forwarding_steps, 0u);
}

TEST(MonoVerifierTest, ShardedProducesSameVerdicts) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  MonoVerifier plain{MonoOptions{}};
  VerifyResult base = plain.Verify(net, {EdgeQuery(net)});
  MonoOptions sharded_options;
  sharded_options.num_shards = 6;
  MonoVerifier sharded(sharded_options);
  VerifyResult result = sharded.Verify(net, {EdgeQuery(net)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.queries[0].reachable_pairs,
            base.queries[0].reachable_pairs);
  EXPECT_EQ(result.total_best_routes, base.total_best_routes);
  EXPECT_LT(result.peak_memory_bytes, base.peak_memory_bytes);
}

TEST(MonoVerifierTest, MemoryBudgetBecomesOomVerdict) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  MonoOptions options;
  options.memory_budget = 50'000;
  MonoVerifier verifier(options);
  VerifyResult result = verifier.Verify(net, {});
  EXPECT_EQ(result.status, RunStatus::kOutOfMemory);
  EXPECT_FALSE(result.ok());
  // Peak reflects where it died, close to the budget.
  EXPECT_LE(result.peak_memory_bytes, 50'000u);
}

TEST(MonoVerifierTest, BddNodeTableOverflowIsOom) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  MonoOptions options;
  options.max_bdd_nodes = 64;  // absurdly small single shared table
  MonoVerifier verifier(options);
  VerifyResult result = verifier.Verify(net, {EdgeQuery(net)});
  EXPECT_EQ(result.status, RunStatus::kOutOfMemory);
  EXPECT_NE(result.failure_detail.find("bdd-node-table"),
            std::string::npos);
}

TEST(MonoVerifierTest, NonConvergenceIsTimeoutVerdict) {
  topo::Network net = testing::MakeChain(2);
  auto p = util::MustParsePrefix("203.0.113.0/24");
  net.intents[0].cond_advs.push_back(topo::CondAdvIntent{p, p, false});
  auto parsed = testing::Parse(net);
  MonoOptions options;
  options.max_rounds = 20;
  MonoVerifier verifier(options);
  VerifyResult result = verifier.Verify(parsed, {});
  EXPECT_EQ(result.status, RunStatus::kTimeout);
}

// A sharded run whose spill segment cannot be created reports a storage
// status carrying the errno text instead of aborting.
TEST(MonoVerifierTest, SpillStorageErrorIsARunStatus) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  MonoOptions options;
  options.num_shards = 3;
  MonoVerifier verifier(options);
  testing::UnusableTmpdir tmpdir;
  VerifyResult result = verifier.Verify(net, {EdgeQuery(net)});
  EXPECT_EQ(result.status, RunStatus::kStorageError);
  EXPECT_NE(result.failure_detail.find(std::strerror(ENOTDIR)),
            std::string::npos)
      << result.failure_detail;
}

TEST(MonoVerifierTest, RunStatusNamesAndFormatters) {
  EXPECT_STREQ(RunStatusName(RunStatus::kOk), "ok");
  EXPECT_STREQ(RunStatusName(RunStatus::kOutOfMemory), "OOM");
  EXPECT_STREQ(RunStatusName(RunStatus::kTimeout), "timeout");
  EXPECT_STREQ(RunStatusName(RunStatus::kStorageError), "storage_error");
  EXPECT_EQ(HumanBytes(1500), "1.5 KB");
  EXPECT_EQ(HumanBytes(2'500'000), "2.5 MB");
  EXPECT_EQ(HumanBytes(3'200'000'000ull), "3.20 GB");
  EXPECT_EQ(HumanBytes(17), "17 B");
  EXPECT_EQ(HumanSeconds(7200), "2.00 h");
  EXPECT_EQ(HumanSeconds(90), "1.5 min");
  EXPECT_EQ(HumanSeconds(2.5), "2.50 s");
  EXPECT_EQ(HumanSeconds(0.0171), "17.1 ms");
}

TEST(MonoVerifierTest, MultipleQueriesAccumulate) {
  auto net = testing::Parse(testing::MakeChain(3));
  dp::Query q1, q2;
  q1.header_space.dst = util::MustParsePrefix("10.0.2.0/24");
  q1.sources = {0};
  q1.destinations = {2};
  q2.header_space.dst = util::MustParsePrefix("10.0.0.0/24");
  q2.sources = {2};
  q2.destinations = {0};
  MonoVerifier verifier{MonoOptions{}};
  VerifyResult result = verifier.Verify(net, {q1, q2});
  ASSERT_EQ(result.queries.size(), 2u);
  EXPECT_EQ(result.queries[0].reachable_pairs, 1u);
  EXPECT_EQ(result.queries[1].reachable_pairs, 1u);
}

}  // namespace
}  // namespace s2::core
