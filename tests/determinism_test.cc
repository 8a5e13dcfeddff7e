// Determinism of the parallel engines: the same query run twice — through
// the distributed verifier, the query-parallel RunQueries path, and a
// chaos-schedule run — must produce identical FIB bytes, verdicts, and
// comm accounting. The thread pool only changes the schedule, never the
// outcome; this suite (run under TSan via the chaos label) is the proof.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/incremental.h"
#include "core/s2.h"
#include "obs/trace.h"
#include "test_networks.h"
#include "topo/fattree.h"

namespace s2::dist {
namespace {

config::ParsedNetwork FatTree4() {
  topo::FatTreeParams params;
  params.k = 4;
  return testing::Parse(topo::MakeFatTree(params));
}

dp::Query AllPairQuery(const config::ParsedNetwork& net) {
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

// Canonical per-node predicate bytes across all workers (the FIB hash).
std::map<topo::NodeId, std::vector<uint8_t>> FibBytes(
    Controller* controller) {
  std::map<topo::NodeId, std::vector<uint8_t>> all;
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    for (auto& [node, bytes] : controller->worker(w).SnapshotPredicates()) {
      all[node] = std::move(bytes);
    }
  }
  return all;
}

struct RunOutcome {
  core::VerifyResult result;
  std::map<topo::NodeId, std::vector<uint8_t>> fib_bytes;
};

RunOutcome RunDistributed(const config::ParsedNetwork& net,
                          const std::vector<dp::Query>& queries,
                          size_t query_lanes,
                          std::optional<fault::FaultPlan> plan) {
  ControllerOptions options;
  options.num_workers = 4;
  options.query_lanes = query_lanes;
  options.fault_plan = std::move(plan);
  core::S2Verifier verifier(options);
  RunOutcome outcome;
  outcome.result = verifier.Verify(net, queries);
  outcome.fib_bytes = FibBytes(verifier.last_controller());
  return outcome;
}

// Verdicts and FIB bytes must match; comm_bytes only when both runs saw
// the same fault schedule (retransmits inflate the chaos run's traffic).
void ExpectSameSemantics(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_TRUE(a.result.ok()) << a.result.failure_detail;
  ASSERT_TRUE(b.result.ok()) << b.result.failure_detail;
  ASSERT_EQ(a.result.queries.size(), b.result.queries.size());
  for (size_t q = 0; q < a.result.queries.size(); ++q) {
    EXPECT_EQ(a.result.queries[q].reachable_pairs,
              b.result.queries[q].reachable_pairs);
    EXPECT_EQ(a.result.queries[q].unreachable_pairs,
              b.result.queries[q].unreachable_pairs);
    EXPECT_EQ(a.result.queries[q].loop_free, b.result.queries[q].loop_free);
    EXPECT_EQ(a.result.queries[q].blackhole_finals,
              b.result.queries[q].blackhole_finals);
  }
  EXPECT_EQ(a.result.total_best_routes, b.result.total_best_routes);
  EXPECT_EQ(a.fib_bytes, b.fib_bytes);  // byte-identical FIBs
}

void ExpectIdentical(const RunOutcome& a, const RunOutcome& b) {
  ExpectSameSemantics(a, b);
  EXPECT_EQ(a.result.control_plane.comm_bytes,
            b.result.control_plane.comm_bytes);
  EXPECT_EQ(a.result.dp_build.comm_bytes, b.result.dp_build.comm_bytes);
  EXPECT_EQ(a.result.dp_forward.comm_bytes, b.result.dp_forward.comm_bytes);
  EXPECT_EQ(a.result.comm_bytes, b.result.comm_bytes);
}

TEST(DeterminismTest, DistributedParallelRunsAreIdentical) {
  config::ParsedNetwork net = FatTree4();
  std::vector<dp::Query> queries = {AllPairQuery(net)};
  ExpectIdentical(RunDistributed(net, queries, 0, std::nullopt),
                  RunDistributed(net, queries, 0, std::nullopt));
}

TEST(DeterminismTest, QueryParallelRunsAreIdentical) {
  config::ParsedNetwork net = FatTree4();
  dp::Query single;
  single.sources = {net.graph.FindByName("edge-0-0")};
  single.destinations = {net.graph.FindByName("edge-1-0")};
  single.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
  std::vector<dp::Query> queries = {AllPairQuery(net), single};
  ExpectIdentical(RunDistributed(net, queries, 2, std::nullopt),
                  RunDistributed(net, queries, 2, std::nullopt));
}

// Tracing must be a pure observer: the same distributed run with the
// tracer capturing produces byte-identical FIBs, verdicts, and comm
// accounting — while actually recording spans (an accidentally-disabled
// tracer would pass vacuously).
TEST(DeterminismTest, TracingDoesNotPerturbResults) {
  config::ParsedNetwork net = FatTree4();
  std::vector<dp::Query> queries = {AllPairQuery(net)};
  RunOutcome off = RunDistributed(net, queries, 0, std::nullopt);
  obs::Tracer::Get().Enable();
  RunOutcome on = RunDistributed(net, queries, 0, std::nullopt);
  size_t events = obs::Tracer::Get().event_count();
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
  EXPECT_GT(events, 0u);
  ExpectIdentical(off, on);
}

// Chaos-labeled case: a fault schedule (drops, duplication, reorder, a
// scheduled crash) still replays to byte-identical FIBs and verdicts, run
// to run.
TEST(DeterminismTest, ChaosScheduleIsDeterministic) {
  config::ParsedNetwork net = FatTree4();
  fault::FaultPlan plan;
  plan.seed = 4242;
  plan.default_link.drop = 0.12;
  plan.default_link.duplicate = 0.05;
  plan.default_link.reorder = 0.10;
  plan.checkpoint_interval = 2;
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 3, 1});
  std::vector<dp::Query> queries = {AllPairQuery(net)};

  RunOutcome first = RunDistributed(net, queries, 0, plan);
  RunOutcome second = RunDistributed(net, queries, 0, plan);
  ExpectIdentical(first, second);
  EXPECT_EQ(first.result.frames_dropped, second.result.frames_dropped);
  EXPECT_EQ(first.result.retransmits, second.result.retransmits);
  EXPECT_EQ(first.result.worker_recoveries, 1u);

  // And the chaos run agrees with the fault-free run semantically.
  ExpectSameSemantics(first, RunDistributed(net, queries, 0, std::nullopt));
}

// ------------------------------------------------ incremental what-if
//
// Incremental re-verification (core/incremental.h) must be as replayable
// as the engines it reuses: same base + same scenario → byte-identical
// predicates, FIB accounting, verdicts, and comm accounting, run to run —
// under chaos fault schedules and with the tracer observing.

void ExpectIncrementalIdentical(const core::IncrementalResult& a,
                                const core::IncrementalResult& b) {
  ASSERT_TRUE(a.result.ok()) << a.result.failure_detail;
  ASSERT_TRUE(b.result.ok()) << b.result.failure_detail;
  EXPECT_EQ(a.predicates, b.predicates);  // byte-identical FIB predicates
  EXPECT_EQ(a.fib_bytes, b.fib_bytes);
  EXPECT_EQ(a.result.total_best_routes, b.result.total_best_routes);
  EXPECT_EQ(a.result.comm_bytes, b.result.comm_bytes);
  EXPECT_EQ(a.stats.full_fallback, b.stats.full_fallback);
  EXPECT_EQ(a.stats.impacted_prefixes, b.stats.impacted_prefixes);
  EXPECT_EQ(a.stats.nodes_rebuilt, b.stats.nodes_rebuilt);
  EXPECT_EQ(a.stats.changed_nodes, b.stats.changed_nodes);
  EXPECT_EQ(a.stats.queries_reused, b.stats.queries_reused);
  ASSERT_EQ(a.result.queries.size(), b.result.queries.size());
  for (size_t q = 0; q < a.result.queries.size(); ++q) {
    const dp::QueryResult& x = a.result.queries[q];
    const dp::QueryResult& y = b.result.queries[q];
    EXPECT_EQ(x.reachable_pairs, y.reachable_pairs);
    EXPECT_EQ(x.unreachable_pairs, y.unreachable_pairs);
    EXPECT_EQ(x.loop_free, y.loop_free);
    EXPECT_EQ(x.blackhole_finals, y.blackhole_finals);
    ASSERT_EQ(x.reachability.size(), y.reachability.size());
    for (size_t i = 0; i < x.reachability.size(); ++i) {
      EXPECT_EQ(x.reachability[i].reachable, y.reachability[i].reachable);
      EXPECT_EQ(x.reachability[i].fraction, y.reachability[i].fraction);
    }
  }
}

TEST(DeterminismTest, IncrementalRunsAreByteIdentical) {
  config::ParsedNetwork net = FatTree4();
  std::vector<dp::Query> queries = {AllPairQuery(net)};
  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 4;  // spills on: the incremental fast path
  core::S2Verifier verifier(options);
  ASSERT_TRUE(verifier.Verify(net, queries).ok());

  core::Scenario scenario = core::RemoveLinkScenario(
      net.graph.FindByName("edge-0-0"), net.graph.FindByName("agg-0-0"));
  std::optional<core::IncrementalResult> first =
      verifier.VerifyIncremental(scenario);
  std::optional<core::IncrementalResult> second =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(first->stats.full_fallback);
  ExpectIncrementalIdentical(*first, *second);

  // Tracing observes without perturbing.
  obs::Tracer::Get().Enable();
  std::optional<core::IncrementalResult> traced =
      verifier.VerifyIncremental(scenario);
  size_t events = obs::Tracer::Get().event_count();
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
  ASSERT_TRUE(traced.has_value());
  EXPECT_GT(events, 0u);
  ExpectIncrementalIdentical(*first, *traced);
}

// Chaos-labeled case: the base converged under a lossy fault schedule and
// the incremental controller replays the same schedule — repeated what-if
// runs must still be byte-identical, and must agree semantically with an
// incremental run against a fault-free base.
TEST(DeterminismTest, IncrementalUnderChaosScheduleIsDeterministic) {
  config::ParsedNetwork net = FatTree4();
  std::vector<dp::Query> queries = {AllPairQuery(net)};
  fault::FaultPlan plan;
  plan.seed = 9191;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.04;
  plan.default_link.reorder = 0.08;
  plan.checkpoint_interval = 2;
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 3, 1});
  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 4;
  options.fault_plan = plan;
  core::S2Verifier verifier(options);
  ASSERT_TRUE(verifier.Verify(net, queries).ok());

  core::Scenario scenario =
      core::FailNodeScenario(net.graph.FindByName("agg-1-0"));
  std::optional<core::IncrementalResult> first =
      verifier.VerifyIncremental(scenario);
  std::optional<core::IncrementalResult> second =
      verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ExpectIncrementalIdentical(*first, *second);

  // Fault-free base, same scenario: identical forwarding state, even
  // though the chaos runs paid retransmits to get there.
  ControllerOptions clean = options;
  clean.fault_plan = std::nullopt;
  core::S2Verifier clean_verifier(clean);
  ASSERT_TRUE(clean_verifier.Verify(net, queries).ok());
  std::optional<core::IncrementalResult> calm =
      clean_verifier.VerifyIncremental(scenario);
  ASSERT_TRUE(calm.has_value());
  EXPECT_EQ(first->predicates, calm->predicates);
  EXPECT_EQ(first->fib_bytes, calm->fib_bytes);
  EXPECT_EQ(first->result.total_best_routes,
            calm->result.total_best_routes);
}

}  // namespace
}  // namespace s2::dist
