// Randomized differential oracle: seeded random topologies pushed through
// every verifier configuration — MonoVerifier (the monolithic baseline),
// S2 at 1/2/4 workers, the query-parallel RunQueries path, and the Bonsai
// compression baseline — asserting that all of them converge to identical
// best-route RIBs, identical canonical FIB bytes (the
// fault::SerializePredicates fingerprint), and identical query verdicts.
//
// This is the pin that holds the distributed forwarding and the BDD
// op-cache overhaul in place: any cache entry surviving a GC with a stale
// result, or any divergence in the per-query rebuilt domains, shows up here
// as a byte-level mismatch.
#include <gtest/gtest.h>

#include "core/bonsai.h"
#include "core/incremental.h"
#include "core/mono.h"
#include "core/s2.h"
#include "dp/fib.h"
#include "dp/predicates.h"
#include "fault/checkpoint.h"
#include "svc/query_service.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/rng.h"

namespace s2 {
namespace {

using dist::ControllerOptions;

// One random instance: a generated topology plus the seed that shaped it
// (kept in the label so a failure names its reproduction).
struct Instance {
  std::string label;
  topo::Network net;
};

std::vector<Instance> RandomFatTrees(int count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < count; ++i) {
    topo::FatTreeParams params;
    params.k = 4;
    params.max_ecmp_paths = static_cast<int>(rng.Between(2, 64));
    params.extra_prefixes_per_edge = static_cast<int>(rng.Between(0, 2));
    params.mixed_vendors = (rng.Next() & 1) != 0;
    instances.push_back({"fattree/seed" + std::to_string(seed) + "/i" +
                             std::to_string(i),
                         topo::MakeFatTree(params)});
  }
  return instances;
}

std::vector<Instance> RandomDcns(int count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < count; ++i) {
    topo::DcnParams params;
    params.small_clusters = static_cast<int>(rng.Between(1, 2));
    params.big_clusters = 1;
    params.tors_per_pod = static_cast<int>(rng.Between(2, 4));
    params.cores = static_cast<int>(rng.Between(2, 4));
    params.mixed_vendors = (rng.Next() & 1) != 0;
    instances.push_back({"dcn/seed" + std::to_string(seed) + "/i" +
                             std::to_string(i),
                         topo::MakeDcn(params)});
  }
  return instances;
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

// The oracle: monolithic run, plus its RIBs and the canonical FIB bytes of
// every node (rebuilt from the converged RIBs exactly the way the worker
// data planes build theirs).
struct Oracle {
  core::VerifyResult result;
  std::vector<std::map<util::IpPrefix, std::vector<cp::Route>>> ribs;
  std::map<topo::NodeId, std::vector<uint8_t>> fib_bytes;
};

Oracle RunOracle(const config::ParsedNetwork& net, const dp::Query& query) {
  Oracle oracle;
  core::MonoVerifier mono{core::MonoOptions{}};
  oracle.result = mono.Verify(net, {query});
  util::MemoryTracker tracker("oracle-fib", 0);
  // Same layout-selection rule the engines apply: v4-only instances keep
  // the 32-bit layout (and thus the historical predicate bytes); networks
  // with any v6 prefix get the family-tagged 128-bit layout.
  const dp::HeaderLayout layout = dp::LayoutForNetwork(net, dp::HeaderLayout{});
  bdd::Manager manager(layout.total_bits());
  dp::PacketCodec codec(&manager, layout);
  for (const auto& node : mono.last_engine()->nodes()) {
    oracle.ribs.push_back(node->bgp_routes());
    dp::Fib fib = dp::Fib::Build(net, node->id(), node->bgp_routes(),
                                 node->ospf_routes(), &tracker);
    oracle.fib_bytes[node->id()] = fault::SerializePredicates(
        dp::BuildPredicates(net, node->id(), fib, codec));
  }
  return oracle;
}

void ExpectSameVerdict(const dp::QueryResult& got,
                       const dp::QueryResult& want,
                       const std::string& label) {
  EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
  EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
  EXPECT_EQ(got.loop_free, want.loop_free) << label;
  EXPECT_EQ(got.blackhole_free, want.blackhole_free) << label;
  EXPECT_EQ(got.loop_finals, want.loop_finals) << label;
  EXPECT_EQ(got.blackhole_finals, want.blackhole_finals) << label;
  EXPECT_EQ(got.multipath_violations.size(),
            want.multipath_violations.size())
      << label;
}

// S2 at `workers` workers must reproduce the oracle's
// verdicts, RIBs, and FIB bytes exactly. Final *counts* (loop/blackhole
// finals) are compared exactly only at workers == 1: a set crossing a
// worker boundary is recorded as one final per worker-side fragment, so
// multi-worker counts legitimately exceed the monolithic count — the
// boolean verdicts and the pair counts must still agree bit for bit.
void CheckS2AgainstOracle(const config::ParsedNetwork& net,
                          const dp::Query& query, const Oracle& oracle,
                          uint32_t workers, const std::string& label) {
  ControllerOptions options;
  options.num_workers = workers;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(net, {query});
  ASSERT_TRUE(result.ok()) << label << ": " << result.failure_detail;
  ASSERT_EQ(result.queries.size(), 1u) << label;
  const dp::QueryResult& got = result.queries[0];
  const dp::QueryResult& want = oracle.result.queries[0];
  if (workers == 1) {
    ExpectSameVerdict(got, want, label);
  } else {
    EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
    EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
    EXPECT_EQ(got.loop_free, want.loop_free) << label;
    EXPECT_EQ(got.blackhole_free, want.blackhole_free) << label;
    EXPECT_EQ(got.loop_finals > 0, want.loop_finals > 0) << label;
    EXPECT_EQ(got.blackhole_finals > 0, want.blackhole_finals > 0) << label;
  }
  EXPECT_EQ(result.total_best_routes, oracle.result.total_best_routes)
      << label;

  dist::Controller* controller = verifier.last_controller();
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    dist::Worker& worker = controller->worker(w);
    for (topo::NodeId id : worker.local_nodes()) {
      EXPECT_EQ(worker.node(id).bgp_routes(), oracle.ribs[id])
          << label << " RIB of node " << id;
    }
    for (const auto& [id, bytes] : worker.SnapshotPredicates()) {
      EXPECT_EQ(bytes, oracle.fib_bytes.at(id))
          << label << " FIB bytes of node " << id;
    }
  }
}

void RunDifferential(const std::vector<Instance>& instances) {
  for (const Instance& instance : instances) {
    config::ParsedNetwork net = testing::Parse(instance.net);
    dp::Query query = AllPairQuery(net);
    Oracle oracle = RunOracle(net, query);
    ASSERT_TRUE(oracle.result.ok())
        << instance.label << ": " << oracle.result.failure_detail;
    CheckS2AgainstOracle(net, query, oracle, 1, instance.label + "/1w");
    CheckS2AgainstOracle(net, query, oracle, 2, instance.label + "/2w");
    CheckS2AgainstOracle(net, query, oracle, 4, instance.label + "/4w");
  }
}

TEST(DifferentialOracleTest, RandomFatTreesAgreeAcrossEngines) {
  RunDifferential(RandomFatTrees(5, /*seed=*/11));
}

TEST(DifferentialOracleTest, RandomDcnsAgreeAcrossEngines) {
  RunDifferential(RandomDcns(5, /*seed=*/23));
}

// The query-parallel path (Dpo::RunQueries at query_lanes>1) must agree
// with sequential Controller::RunQuery calls, query by query.
TEST(DifferentialOracleTest, ParallelQueryPathMatchesSequential) {
  for (Instance& instance : RandomFatTrees(2, /*seed=*/37)) {
    config::ParsedNetwork net = testing::Parse(instance.net);
    std::vector<dp::Query> queries;
    queries.push_back(AllPairQuery(net));
    dp::Query single;
    single.sources = {net.graph.FindByName("edge-0-0")};
    single.destinations = {net.graph.FindByName("edge-1-0")};
    single.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
    queries.push_back(single);

    ControllerOptions sequential;
    sequential.num_workers = 2;
    core::S2Verifier seq_verifier(sequential);
    core::VerifyResult seq = seq_verifier.Verify(net, queries);
    ASSERT_TRUE(seq.ok()) << instance.label << ": " << seq.failure_detail;

    ControllerOptions parallel = sequential;
    parallel.query_lanes = 2;
    core::S2Verifier par_verifier(parallel);
    core::VerifyResult par = par_verifier.Verify(net, queries);
    ASSERT_TRUE(par.ok()) << instance.label << ": " << par.failure_detail;

    ASSERT_EQ(par.queries.size(), seq.queries.size()) << instance.label;
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectSameVerdict(par.queries[q], seq.queries[q],
                        instance.label + "/q" + std::to_string(q));
    }
  }
}

// VerifyResult::forwarding_steps counts every query's engine steps, on the
// sequential and the query-parallel path alike.
TEST(DifferentialOracleTest, ForwardingStepsSumOverQueries) {
  topo::FatTreeParams params;
  params.k = 4;
  config::ParsedNetwork net = testing::Parse(topo::MakeFatTree(params));
  dp::Query wide = AllPairQuery(net);
  dp::Query narrow = AllPairQuery(net);
  narrow.header_space.dst = util::MustParsePrefix("10.1.0.0/16");
  auto steps = [&](size_t query_lanes, const std::vector<dp::Query>& queries) {
    ControllerOptions options;
    options.num_workers = 4;
    options.query_lanes = query_lanes;
    core::S2Verifier verifier(options);
    core::VerifyResult result = verifier.Verify(net, queries);
    EXPECT_TRUE(result.ok()) << result.failure_detail;
    return result.forwarding_steps;
  };
  size_t sum = steps(0, {wide}) + steps(0, {narrow});
  EXPECT_GT(steps(0, {narrow}), 0u);
  EXPECT_EQ(steps(0, {wide, narrow}), sum);
  EXPECT_EQ(steps(2, {wide, narrow}), sum);
}

// The query service must be a perfect stand-in for batch execution: every
// field of the verdict — reachability pairs with fractions, loop/blackhole
// finals, waypoints, multipath — byte-identical between a served query
// (cold and warm, scoped and unscoped) and the same query run through
// Verify on the same converged state. Sharded RIB spills are on so the
// snapshot's rib_spills handle is exercised too.
TEST(DifferentialOracleTest, ServedQueriesMatchBatchExecution) {
  std::vector<Instance> instances = RandomFatTrees(2, /*seed=*/71);
  for (Instance& dcn : RandomDcns(1, /*seed=*/79)) {
    instances.push_back(std::move(dcn));
  }
  for (const Instance& instance : instances) {
    config::ParsedNetwork net = testing::Parse(instance.net);
    std::vector<dp::Query> queries;
    queries.push_back(AllPairQuery(net));
    dp::Query single = queries[0];
    single.sources = {queries[0].sources.front()};
    single.destinations = {queries[0].destinations.back()};
    queries.push_back(single);

    ControllerOptions options;
    options.num_workers = 4;
    options.num_shards = 8;  // exercise RIB spills behind the snapshot
    core::S2Verifier verifier(options);
    core::VerifyResult batch = verifier.Verify(net, queries);
    ASSERT_TRUE(batch.ok()) << instance.label << ": " << batch.failure_detail;
    std::optional<svc::Snapshot> snapshot = verifier.ExportSnapshot();
    ASSERT_TRUE(snapshot.has_value()) << instance.label;

    svc::SnapshotRegistry registry;
    registry.Publish(*snapshot);
    for (bool scoped : {true, false}) {
      svc::QueryService::Options svc_options;
      svc_options.scope_admission = scoped;
      svc::QueryService service(&registry, svc_options);
      for (size_t q = 0; q < queries.size(); ++q) {
        std::string label = instance.label + (scoped ? "/scoped" : "/full") +
                            "/q" + std::to_string(q);
        svc::QueryService::Served cold = service.Serve(queries[q]);
        EXPECT_FALSE(cold.cache_hit) << label;
        svc::QueryService::Served warm = service.Serve(queries[q]);
        EXPECT_TRUE(warm.cache_hit) << label;
        for (const auto& [mode, served] :
             {std::pair<const char*, const svc::QueryService::Served&>(
                  "cold", cold),
              {"warm", warm}}) {
          const dp::QueryResult& got = served.result;
          const dp::QueryResult& want = batch.queries[q];
          std::string full = label + "/" + mode;
          ExpectSameVerdict(got, want, full);
          ASSERT_EQ(got.reachability.size(), want.reachability.size())
              << full;
          for (size_t i = 0; i < got.reachability.size(); ++i) {
            EXPECT_EQ(got.reachability[i].src, want.reachability[i].src)
                << full;
            EXPECT_EQ(got.reachability[i].dst, want.reachability[i].dst)
                << full;
            EXPECT_EQ(got.reachability[i].reachable,
                      want.reachability[i].reachable)
                << full;
            EXPECT_DOUBLE_EQ(got.reachability[i].fraction,
                             want.reachability[i].fraction)
                << full;
          }
          ASSERT_EQ(got.waypoints.size(), want.waypoints.size()) << full;
          for (size_t i = 0; i < got.waypoints.size(); ++i) {
            EXPECT_EQ(got.waypoints[i].transit, want.waypoints[i].transit)
                << full;
            EXPECT_EQ(got.waypoints[i].always_traversed,
                      want.waypoints[i].always_traversed)
                << full;
          }
          EXPECT_EQ(got.paths_recorded, want.paths_recorded) << full;
          EXPECT_EQ(got.valleys.size(), want.valleys.size()) << full;
        }
      }
    }
  }
}

// Incremental what-if runs must agree with the *monolithic oracle of the
// edited network* — not merely with a cold S2 re-run of it. Together with
// the engine-vs-oracle suites above this closes the triangle
// mono ≡ cold S2 ≡ incremental S2 on the same edited instance: verdicts,
// canonical per-node predicate bytes (including every reused node's), and
// the best-route total all have to land on the oracle's answer.
TEST(DifferentialOracleTest, IncrementalWhatIfAgreesWithOracle) {
  std::vector<Instance> instances = RandomFatTrees(2, /*seed=*/131);
  for (Instance& dcn : RandomDcns(1, /*seed=*/137)) {
    instances.push_back(std::move(dcn));
  }
  util::Rng rng(139);
  for (const Instance& instance : instances) {
    config::ParsedNetwork net = testing::Parse(instance.net);
    dp::Query query = AllPairQuery(net);

    ControllerOptions options;
    options.num_workers = 2;
    options.num_shards = 4;  // incremental needs converged spills
    core::S2Verifier verifier(options);
    core::VerifyResult base = verifier.Verify(net, {query});
    ASSERT_TRUE(base.ok()) << instance.label << ": " << base.failure_detail;

    const topo::Edge& edge =
        net.graph.edge(rng.Below(net.graph.edge_count()));
    topo::NodeId victim =
        static_cast<topo::NodeId>(rng.Below(net.graph.size()));
    for (const core::Scenario& scenario :
         {core::RemoveLinkScenario(edge.a, edge.b),
          core::FailNodeScenario(victim)}) {
      std::string label =
          instance.label +
          (scenario.kind == core::Scenario::Kind::kRemoveLink
               ? "/link" + std::to_string(edge.a) + "-" +
                     std::to_string(edge.b)
               : "/node" + std::to_string(victim));
      std::optional<core::IncrementalResult> incremental =
          verifier.VerifyIncremental(scenario);
      ASSERT_TRUE(incremental.has_value()) << label;
      ASSERT_TRUE(incremental->result.ok())
          << label << ": " << incremental->result.failure_detail;

      config::ParsedNetwork edited = core::ApplyScenario(net, scenario);
      Oracle oracle = RunOracle(edited, query);
      ASSERT_TRUE(oracle.result.ok())
          << label << ": " << oracle.result.failure_detail;

      ASSERT_EQ(incremental->result.queries.size(), 1u) << label;
      const dp::QueryResult& got = incremental->result.queries[0];
      const dp::QueryResult& want = oracle.result.queries[0];
      EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
      EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
      EXPECT_EQ(got.loop_free, want.loop_free) << label;
      EXPECT_EQ(got.blackhole_free, want.blackhole_free) << label;
      // Finals split per worker fragment at workers>1 (see
      // CheckS2AgainstOracle) — booleans must still agree.
      EXPECT_EQ(got.loop_finals > 0, want.loop_finals > 0) << label;
      EXPECT_EQ(got.blackhole_finals > 0, want.blackhole_finals > 0)
          << label;
      EXPECT_EQ(incremental->result.total_best_routes,
                oracle.result.total_best_routes)
          << label;
      ASSERT_EQ(incremental->predicates.size(), oracle.fib_bytes.size())
          << label;
      for (const auto& [id, bytes] : incremental->predicates) {
        EXPECT_EQ(bytes, oracle.fib_bytes.at(id))
            << label << " FIB bytes of node " << id;
      }
    }
  }
}

// Bonsai checks reachability per destination over compressed instances, so
// only its full-reachability verdict is comparable: on a healthy FatTree
// both Bonsai and the oracle must report zero unreachable, and Bonsai must
// have visited every edge host prefix.
TEST(DifferentialOracleTest, BonsaiAgreesOnFatTreeReachability) {
  util::Rng rng(53);
  for (int i = 0; i < 2; ++i) {
    topo::FatTreeParams params;
    params.k = 4;
    params.max_ecmp_paths = static_cast<int>(rng.Between(2, 64));
    params.mixed_vendors = (rng.Next() & 1) != 0;
    std::string label = "bonsai/fattree/i" + std::to_string(i);
    topo::Network raw = topo::MakeFatTree(params);
    config::ParsedNetwork net = testing::Parse(raw);
    Oracle oracle = RunOracle(net, AllPairQuery(net));
    ASSERT_TRUE(oracle.result.ok()) << label;

    core::BonsaiVerifier bonsai{core::BonsaiOptions{}};
    core::VerifyResult result = bonsai.Verify(raw);
    ASSERT_TRUE(result.ok()) << label << ": " << result.failure_detail;
    ASSERT_EQ(result.queries.size(), 1u) << label;
    EXPECT_EQ(result.queries[0].unreachable_pairs, 0u) << label;
    EXPECT_EQ(oracle.result.queries[0].unreachable_pairs, 0u) << label;
    // k=4: one destination verdict per edge switch host prefix.
    EXPECT_EQ(result.queries[0].reachable_pairs, 8u) << label;
  }
}

// ---------------------------------------------------------------------------
// Dual-stack differentials: the v6 mirror of the DCN/FatTree policies must
// converge and verify through every engine — Mono ≡ S2 (1/2/4 workers, lane
// parallel and sequential), the query service, incremental what-if, and
// Bonsai — with actual v6 best routes in the converged RIBs. The v4 queries
// run here exercise the fast-path interaction deliberately broken by a
// widened layout bug: v4 prefixes matched on the 128-bit destination field
// under the family-tagged layout.

topo::Network DualStackDcn() {
  topo::DcnParams params;
  params.small_clusters = 1;
  params.big_clusters = 1;
  params.tors_per_pod = 2;
  params.cores = 2;
  params.dual_stack = true;
  return topo::MakeDcn(params);
}

// The three header spaces that matter under a family-tagged layout: pure
// v4, pure v6, and unconstrained (both families at once).
std::vector<dp::Query> DualStackQueries(const config::ParsedNetwork& net) {
  std::vector<dp::Query> queries;
  queries.push_back(AllPairQuery(net));  // dst 10.0.0.0/8
  queries.push_back(AllPairQuery(net));
  queries[1].header_space.dst = util::MustParsePrefix("2001:db8::/32");
  queries.push_back(AllPairQuery(net));
  queries[2].header_space.dst.reset();
  return queries;
}

TEST(DifferentialOracleTest, DualStackDcnAgreesAcrossEngines) {
  config::ParsedNetwork net = testing::Parse(DualStackDcn());
  ASSERT_TRUE(dp::NetworkHasV6(net));
  std::vector<dp::Query> queries = DualStackQueries(net);
  for (size_t q = 0; q < queries.size(); ++q) {
    std::string label = "dualstack-dcn/q" + std::to_string(q);
    Oracle oracle = RunOracle(net, queries[q]);
    ASSERT_TRUE(oracle.result.ok())
        << label << ": " << oracle.result.failure_detail;
    EXPECT_GT(oracle.result.queries[0].reachable_pairs, 0u) << label;
    CheckS2AgainstOracle(net, queries[q], oracle, 1, label + "/1w");
    CheckS2AgainstOracle(net, queries[q], oracle, 2, label + "/2w");
    CheckS2AgainstOracle(net, queries[q], oracle, 4, label + "/4w");
    if (q + 1 == queries.size()) {
      // The v6 mirror actually converged: some best-route RIB must hold a
      // v6 prefix (the TOR business /48s and the border ::/0 default).
      size_t v6_routes = 0;
      for (const auto& rib : oracle.ribs) {
        for (const auto& [prefix, routes] : rib) {
          if (prefix.family() == util::Family::kV6) v6_routes += routes.size();
        }
      }
      EXPECT_GT(v6_routes, 0u) << label;
    }
  }
}

// Query service + what-if over a dual-stack snapshot: served verdicts must
// match batch execution, and ServeWhatIf's incremental re-verification must
// match the monolithic oracle of the edited network — v6 spaces included.
TEST(DifferentialOracleTest, DualStackServedAndWhatIfMatchOracle) {
  config::ParsedNetwork net = testing::Parse(DualStackDcn());
  std::vector<dp::Query> queries = DualStackQueries(net);

  ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;  // incremental needs converged spills
  core::S2Verifier verifier(options);
  core::VerifyResult batch = verifier.Verify(net, queries);
  ASSERT_TRUE(batch.ok()) << batch.failure_detail;
  std::optional<svc::Snapshot> snapshot = verifier.ExportSnapshot();
  ASSERT_TRUE(snapshot.has_value());

  svc::SnapshotRegistry registry;
  registry.Publish(*snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});
  for (size_t q = 0; q < queries.size(); ++q) {
    std::string label = "dualstack-serve/q" + std::to_string(q);
    svc::QueryService::Served cold = service.Serve(queries[q]);
    EXPECT_FALSE(cold.cache_hit) << label;
    ExpectSameVerdict(cold.result, batch.queries[q], label + "/cold");
    svc::QueryService::Served warm = service.Serve(queries[q]);
    EXPECT_TRUE(warm.cache_hit) << label;
    ExpectSameVerdict(warm.result, batch.queries[q], label + "/warm");
  }

  const topo::Edge& edge = net.graph.edge(0);
  core::Scenario scenario = core::RemoveLinkScenario(edge.a, edge.b);
  std::optional<svc::QueryService::WhatIfServed> whatif =
      service.ServeWhatIf(scenario, queries);
  ASSERT_TRUE(whatif.has_value());
  ASSERT_TRUE(whatif->incremental.result.ok())
      << whatif->incremental.result.failure_detail;
  ASSERT_EQ(whatif->base.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameVerdict(whatif->base[q].result, batch.queries[q],
                      "dualstack-whatif/base/q" + std::to_string(q));
  }

  config::ParsedNetwork edited = core::ApplyScenario(net, scenario);
  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult want = mono.Verify(edited, queries);
  ASSERT_TRUE(want.ok()) << want.failure_detail;
  ASSERT_EQ(whatif->incremental.result.queries.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::string label = "dualstack-whatif/q" + std::to_string(q);
    const dp::QueryResult& got = whatif->incremental.result.queries[q];
    EXPECT_EQ(got.reachable_pairs, want.queries[q].reachable_pairs) << label;
    EXPECT_EQ(got.unreachable_pairs, want.queries[q].unreachable_pairs)
        << label;
    EXPECT_EQ(got.loop_free, want.queries[q].loop_free) << label;
    EXPECT_EQ(got.blackhole_free, want.queries[q].blackhole_free) << label;
    // Finals split per worker fragment at workers>1 — booleans must agree.
    EXPECT_EQ(got.loop_finals > 0, want.queries[q].loop_finals > 0) << label;
    EXPECT_EQ(got.blackhole_finals > 0, want.queries[q].blackhole_finals > 0)
        << label;
  }
}

// Dual-stack FatTree: full v6 reachability between all edge pairs, and
// Bonsai visits the v6 /48s as first-class destinations (8 edges x one v4
// host /24 + one v6 /48 at k=4).
TEST(DifferentialOracleTest, DualStackFatTreeBonsaiReachability) {
  topo::FatTreeParams params;
  params.k = 4;
  params.dual_stack = true;
  topo::Network raw = topo::MakeFatTree(params);
  config::ParsedNetwork net = testing::Parse(raw);
  ASSERT_TRUE(dp::NetworkHasV6(net));

  dp::Query v6 = AllPairQuery(net);
  v6.header_space.dst = util::MustParsePrefix("2001:db8::/32");
  Oracle oracle = RunOracle(net, v6);
  ASSERT_TRUE(oracle.result.ok()) << oracle.result.failure_detail;
  EXPECT_EQ(oracle.result.queries[0].unreachable_pairs, 0u);
  EXPECT_GT(oracle.result.queries[0].reachable_pairs, 0u);
  CheckS2AgainstOracle(net, v6, oracle, 2, "dualstack-fattree/2w");

  core::BonsaiVerifier bonsai{core::BonsaiOptions{}};
  core::VerifyResult result = bonsai.Verify(raw);
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_EQ(result.queries[0].unreachable_pairs, 0u);
  EXPECT_EQ(result.queries[0].reachable_pairs, 16u);
}

}  // namespace
}  // namespace s2
