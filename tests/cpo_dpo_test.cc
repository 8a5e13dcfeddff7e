// Direct orchestrator tests: the CPO's round/shard bookkeeping (per-shard
// metrics, observed peaks, round barriers in the cost model) and the DPO's
// gather path — the pieces the end-to-end suites exercise only indirectly.
#include <gtest/gtest.h>

#include "core/report.h"
#include "dist/controller.h"
#include "obs/registry.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::dist {
namespace {

config::ParsedNetwork FatTree4() {
  topo::FatTreeParams params;
  params.k = 4;
  return testing::Parse(topo::MakeFatTree(params));
}

TEST(CpoTest, PerShardMetricsCoverThePlan) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 6;
  Controller controller(net, options);
  controller.Setup();
  ASSERT_TRUE(controller.shard_plan().has_value());
  RoundMetrics total = controller.RunControlPlane();

  const std::vector<ShardMetrics>& shards = controller.shard_metrics();
  ASSERT_EQ(shards.size(), controller.shard_plan()->num_shards());
  int rounds = 0;
  double modeled = 0;
  for (const ShardMetrics& shard : shards) {
    EXPECT_GT(shard.rounds.rounds, 0);
    EXPECT_GT(shard.max_worker_peak, 0u);
    rounds += shard.rounds.rounds;
    modeled += shard.rounds.modeled_seconds;
  }
  EXPECT_EQ(rounds, total.rounds);
  EXPECT_NEAR(modeled, total.modeled_seconds, 1e-9);
}

TEST(CpoTest, ObservedPeakIsMaxOfShardPeaks) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  size_t max_shard_peak = 0;
  for (const ShardMetrics& shard : controller.shard_metrics()) {
    max_shard_peak = std::max(max_shard_peak, shard.max_worker_peak);
  }
  EXPECT_EQ(controller.MaxWorkerPeakBytes(), max_shard_peak);
}

TEST(CpoTest, UnshardedRunsHaveNoShardMetrics) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 2;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  EXPECT_TRUE(controller.shard_metrics().empty());
  EXPECT_GT(controller.MaxWorkerPeakBytes(), 0u);
}

TEST(CpoTest, RoundLatencyEntersModeledTime) {
  auto net = FatTree4();
  double with = 0, without = 0;
  for (double latency : {0.0, 0.01}) {
    ControllerOptions options;
    options.num_workers = 2;
    options.cost.round_latency_seconds = latency;
    Controller controller(net, options);
    controller.Setup();
    RoundMetrics metrics = controller.RunControlPlane();
    (latency > 0 ? with : without) = metrics.modeled_seconds;
    if (latency > 0) {
      // The latency term contributes exactly rounds x latency.
      EXPECT_NEAR(with - without, metrics.rounds * latency, 0.05);
    }
  }
  EXPECT_GT(with, without);
}

TEST(CpoTest, TotalBestRoutesMatchesStoreOrNodes) {
  auto net = FatTree4();
  size_t sharded_total = 0, unsharded_total = 0;
  for (int shards : {0, 5}) {
    ControllerOptions options;
    options.num_workers = 2;
    options.num_shards = shards;
    Controller controller(net, options);
    controller.Setup();
    controller.RunControlPlane();
    (shards ? sharded_total : unsharded_total) =
        controller.TotalBestRoutes();
  }
  EXPECT_EQ(sharded_total, unsharded_total);
  EXPECT_GT(sharded_total, 0u);
}

// Route exchange is batched per worker pair: every worker sends at most
// one message to each other worker per round, and the control plane's
// message count is what the fabric counted — also in the RunReport.
TEST(CpoTest, CommMessagesCountOneBatchPerWorkerPairPerRound) {
  auto net = FatTree4();
  for (int shards : {0, 3}) {
    ControllerOptions options;
    options.num_workers = 4;
    options.num_shards = shards;
    Controller controller(net, options);
    controller.Setup();
    RoundMetrics metrics = controller.RunControlPlane();
    const size_t workers = options.num_workers;
    EXPECT_EQ(metrics.comm_messages, controller.fabric().total_messages());
    EXPECT_GT(metrics.comm_messages, 0u);
    EXPECT_LE(metrics.comm_messages,
              size_t(metrics.rounds) * workers * (workers - 1));
    obs::Registry registry;
    core::PublishRoundMetrics("cp", metrics, registry);
    EXPECT_EQ(registry.counter("cp.comm_messages"),
              static_cast<int64_t>(metrics.comm_messages));
  }
}

TEST(DpoTest, GatherMovesFinalsToTheControllerDomain) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 4;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  controller.BuildDataPlanes();

  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/24");
  query.sources = {net.graph.FindByName("edge-1-0")};
  query.destinations = {net.graph.FindByName("edge-0-0")};
  Controller::QueryOutcome outcome = controller.RunQuery(query);
  EXPECT_GT(outcome.gather_bytes, 0u);  // finals were serialized back
  EXPECT_EQ(outcome.result.reachable_pairs, 1u);
  EXPECT_GT(outcome.forwarding_steps, 0u);
}

TEST(RoundMetricsTest, AddAccumulates) {
  RoundMetrics a, b;
  a.rounds = 3;
  a.wall_seconds = 1.0;
  a.modeled_seconds = 2.0;
  a.comm_bytes = 10;
  b.rounds = 2;
  b.wall_seconds = 0.5;
  b.modeled_seconds = 0.25;
  b.comm_bytes = 5;
  a.Add(b);
  EXPECT_EQ(a.rounds, 5);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, 2.25);
  EXPECT_EQ(a.comm_bytes, 15u);
}

}  // namespace
}  // namespace s2::dist
