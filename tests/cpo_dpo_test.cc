// Direct orchestrator tests: the CPO's round/shard bookkeeping (per-shard
// metrics, observed peaks, round barriers in the cost model) and the DPO's
// gather path — the pieces the end-to-end suites exercise only indirectly.
#include <gtest/gtest.h>

#include "core/report.h"
#include "dist/controller.h"
#include "dist/domain.h"
#include "obs/registry.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/stopwatch.h"

namespace s2::dist {
namespace {

config::ParsedNetwork FatTree(int k) {
  topo::FatTreeParams params;
  params.k = k;
  return testing::Parse(topo::MakeFatTree(params));
}

config::ParsedNetwork FatTree4() { return FatTree(4); }

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

// A phase's busy time is that phase's own: Deliver's last_phase_seconds
// fits inside a stopwatch around the Deliver call. It did not when Deliver
// added its time to the phase-A time ComputeAndShip had left behind, so
// the CPO's modeled rounds counted phase A twice.
TEST(CpoTest, DeliverReportsOnlyItsOwnTime) {
  auto net = FatTree(6);
  ControllerOptions options;
  options.num_workers = 2;
  Controller controller(net, options);
  controller.Setup();
  std::vector<WorkerHandle*> workers = {&controller.handle(0),
                                        &controller.handle(1)};
  for (WorkerHandle* worker : workers) worker->BeginBgp(nullptr, -1);
  bool any = true;
  for (int round = 0; any; ++round) {
    ASSERT_LT(round, 100);
    any = false;
    for (WorkerHandle* worker : workers) {
      any = worker->ComputeAndShip() || any;
    }
    for (WorkerHandle* worker : workers) {
      util::Stopwatch watch;
      worker->Deliver();
      double elapsed = watch.ElapsedSeconds();
      EXPECT_LE(worker->last_phase_seconds(), elapsed) << "round " << round;
    }
  }
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

// Queries send nothing through the fabric: under a lossy fault plan a
// query sweep leaves the fabric's round clock, byte counters and replay
// logs exactly where the data-plane build left them.
TEST(DpoTest, QueriesLeaveTheFabricUntouched) {
  auto net = FatTree4();
  ControllerOptions options;
  options.num_workers = 4;
  fault::FaultPlan plan;
  plan.default_link.drop = 0.1;
  options.fault_plan = plan;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  controller.BuildDataPlanes();

  const SidecarFabric& fabric = controller.fabric();
  ASSERT_TRUE(fabric.reliable());
  auto state = [&] {
    std::vector<size_t> replay;
    for (uint32_t w = 0; w < options.num_workers; ++w) {
      replay.push_back(fabric.ReplayLog(w).size());
    }
    return std::tuple(fabric.CurrentRound(), fabric.total_bytes(),
                      fabric.total_messages(),
                      fabric.transport_stats().wire_bytes, replay);
  };
  auto before = state();
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  for (int i = 0; i < 3; ++i) {
    Controller::QueryOutcome outcome = controller.RunQuery(query);
    EXPECT_GT(outcome.metrics.comm_messages, 0u);  // packets did cross
  }
  controller.RunQueries({query, query});
  EXPECT_EQ(state(), before);
}

// The pooled forwarding loop is the serial loop run in parallel: per-domain
// outboxes ferried in worker order keep every observable identical.
struct ForwardCase {
  std::string label;
  config::ParsedNetwork net;
  dp::Query query;
};

dp::Query AllEdgePairs(const config::ParsedNetwork& net, const char* dst) {
  dp::Query query;
  if (dst != nullptr) query.header_space.dst = util::MustParsePrefix(dst);
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

std::vector<ForwardCase> ForwardCases() {
  std::vector<ForwardCase> cases;
  for (int k : {4, 6}) {
    config::ParsedNetwork net = FatTree(k);
    dp::Query query = AllEdgePairs(net, "10.0.0.0/8");
    cases.push_back({"fattree" + std::to_string(k), std::move(net), query});
  }
  topo::DcnParams params;
  params.small_clusters = 2;
  params.big_clusters = 1;
  params.tors_per_pod = 2;
  params.cores = 2;
  {
    config::ParsedNetwork net = testing::Parse(topo::MakeDcn(params));
    dp::Query query = AllEdgePairs(net, "10.0.0.0/8");
    cases.push_back({"dcn", std::move(net), query});
  }
  params.dual_stack = true;
  {
    // Unconstrained header space: both address families at once.
    config::ParsedNetwork net = testing::Parse(topo::MakeDcn(params));
    dp::Query query = AllEdgePairs(net, nullptr);
    cases.push_back({"dualstack-dcn", std::move(net), query});
  }
  {
    config::ParsedNetwork net = FatTree4();
    dp::Query query;
    query.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
    query.sources = {net.graph.FindByName("edge-0-0")};
    query.destinations = {net.graph.FindByName("edge-1-0")};
    query.record_paths = true;
    cases.push_back({"record-paths", std::move(net), query});
  }
  return cases;
}

TEST(ForwardAcrossDomainsTest, PooledRoundsMatchSerial) {
  util::ThreadPool pool(4);
  for (ForwardCase& c : ForwardCases()) {
    ControllerOptions options;
    options.num_workers = 4;
    Controller controller(c.net, options);
    controller.Setup();
    controller.RunControlPlane();
    controller.BuildDataPlanes();
    const dp::HeaderLayout& layout = controller.options().layout;

    auto forward = [&](util::ThreadPool* with) {
      std::vector<std::unique_ptr<dp::Domain>> owned;
      std::vector<dp::Domain*> domains;
      for (uint32_t w = 0; w < options.num_workers; ++w) {
        owned.push_back(BuildDomain(controller.handle(w).SnapshotPredicates(),
                                    layout, options.max_hops, {}));
        domains.push_back(owned.back().get());
        dp::InstallQuery(domains.back()->engine, c.query);
      }
      return ForwardAcrossDomains(domains, controller.fabric().assignment(),
                                  {}, with);
    };
    CrossingRun serial = forward(nullptr);
    CrossingRun pooled = forward(&pool);

    EXPECT_GT(serial.rounds, 1u) << c.label;
    EXPECT_GT(serial.comm_messages, 0u) << c.label;
    EXPECT_EQ(pooled.rounds, serial.rounds) << c.label;
    EXPECT_EQ(pooled.steps, serial.steps) << c.label;
    EXPECT_EQ(pooled.comm_bytes, serial.comm_bytes) << c.label;
    EXPECT_EQ(pooled.comm_messages, serial.comm_messages) << c.label;
    ASSERT_EQ(pooled.finals.size(), serial.finals.size()) << c.label;
    for (size_t i = 0; i < serial.finals.size(); ++i) {
      const dp::SerializedFinal& a = serial.finals[i];
      const dp::SerializedFinal& b = pooled.finals[i];
      EXPECT_EQ(std::tie(a.src, a.node, a.state, a.path, a.set),
                std::tie(b.src, b.node, b.state, b.path, b.set))
          << c.label << " final " << i;
    }
    if (c.query.record_paths) {
      ASSERT_FALSE(serial.finals.empty());
      EXPECT_FALSE(serial.finals.front().path.empty()) << c.label;
    }
  }
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
