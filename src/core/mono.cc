#include "core/mono.h"

#include "dp/fib.h"
#include "util/stopwatch.h"

namespace s2::core {

VerifyResult MonoVerifier::Verify(const config::ParsedNetwork& network,
                                  const std::vector<dp::Query>& queries) {
  VerifyResult result;
  engine_.reset();  // previous run's nodes release into the old tracker
  tracker_ = std::make_unique<util::MemoryTracker>("mono",
                                                   options_.memory_budget);
  util::MemoryTracker& tracker = *tracker_;
  std::optional<cp::ShardPlan> plan;
  std::unique_ptr<cp::RibStore> store;

  try {
    // ------------------------------------------------------ control plane
    cp::EngineOptions engine_options;
    engine_options.max_rounds_per_pass = options_.max_rounds;
    engine_options.cost = options_.cost;
    engine_ = std::make_unique<cp::MonoEngine>(network, &tracker,
                                               engine_options);
    if (options_.num_shards > 0) {
      plan = cp::BuildShardPlan(network, options_.num_shards, options_.seed);
      cp::RepairShardPlan(network, *plan);  // §7 fallback, normally a no-op
      store = std::make_unique<cp::RibStore>();
    }
    util::Stopwatch cp_watch;
    engine_->Run(plan ? &*plan : nullptr, store.get());
    result.control_plane.wall_seconds = cp_watch.ElapsedSeconds();
    result.control_plane.modeled_seconds = engine_->stats().modeled_seconds;
    result.control_plane.rounds = engine_->stats().bgp_rounds;
    result.total_best_routes =
        store ? store->routes_written() : [&] {
          size_t total = 0;
          for (const auto& node : engine_->nodes()) {
            for (const auto& [prefix, routes] : node->bgp_routes()) {
              total += routes.size();
            }
          }
          return total;
        }();

    // --------------------------------------------------------- data plane
    // One manager, one node table, for the whole network — the §2.2
    // "all switches share a single BDD data structure" regime.
    util::Stopwatch build_watch;
    bdd::Manager::Options bdd_options;
    bdd_options.max_nodes = options_.max_bdd_nodes;
    bdd_options.tracker = &tracker;
    // Auto-widen to the dual-stack layout when the network carries v6
    // prefixes; a v4-only network keeps the historical 32-bit layout.
    dp::HeaderLayout layout = dp::LayoutForNetwork(network, options_.layout);
    bdd::Manager manager(layout.total_bits(), bdd_options);
    dp::PacketCodec codec(&manager, layout);
    dp::ForwardingEngine::Options engine_opts;
    engine_opts.max_hops = options_.max_hops;
    dp::ForwardingEngine forwarding(codec, engine_opts);
    for (const auto& node : engine_->nodes()) {
      std::map<util::IpPrefix, std::vector<cp::Route>> from_store;
      const auto* bgp = &node->bgp_routes();
      if (store) {
        from_store = store->ReadAll(node->id(), engine_->attr_pool());
        bgp = &from_store;
      }
      dp::Fib fib = dp::Fib::Build(network, node->id(), *bgp,
                                   node->ospf_routes(), &tracker);
      forwarding.AddNode(node->id(),
                         dp::BuildPredicates(network, node->id(), fib,
                                             codec));
    }
    result.dp_build.wall_seconds = build_watch.ElapsedSeconds();
    result.dp_build.modeled_seconds = result.dp_build.wall_seconds;
    result.dp_build.rounds = 1;
    bdd::Manager::CacheStats build_cache = manager.cache_stats();
    result.dp_build.bdd_cache_hits = build_cache.hits;
    result.dp_build.bdd_cache_misses = build_cache.misses;
    result.dp_build.bdd_cache_evictions = build_cache.evictions;

    // ------------------------------------------------------------ queries
    for (const dp::Query& query : queries) {
      util::Stopwatch query_watch;
      forwarding.ResetQueryState();
      forwarding.set_record_paths(query.record_paths);
      for (size_t i = 0; i < query.transits.size(); ++i) {
        forwarding.SetWaypointBit(query.transits[i],
                                  static_cast<uint32_t>(i));
      }
      bdd::Bdd header_space = query.header_space.ToBdd(codec);
      for (topo::NodeId src : query.sources) {
        forwarding.Inject(src, header_space);
      }
      forwarding.Run(nullptr);  // every node is local
      result.queries.push_back(dp::EvaluateQuery(
          query, codec, forwarding.finals(), network));
      result.dp_forward.wall_seconds += query_watch.ElapsedSeconds();
      result.forwarding_steps += forwarding.steps();
    }
    result.dp_forward.modeled_seconds = result.dp_forward.wall_seconds;
    result.dp_forward.rounds = static_cast<int>(queries.size());
    bdd::Manager::CacheStats total_cache = manager.cache_stats();
    result.dp_forward.bdd_cache_hits = total_cache.hits - build_cache.hits;
    result.dp_forward.bdd_cache_misses =
        total_cache.misses - build_cache.misses;
    result.dp_forward.bdd_cache_evictions =
        total_cache.evictions - build_cache.evictions;
  } catch (const util::SimulatedOom& oom) {
    result.status = RunStatus::kOutOfMemory;
    result.failure_detail = oom.what();
  } catch (const util::SimulatedTimeout& timeout) {
    result.status = RunStatus::kTimeout;
    result.failure_detail = timeout.what();
  } catch (const util::StorageError& error) {
    result.status = RunStatus::kStorageError;
    result.failure_detail = error.what();
  }

  result.peak_memory_bytes = tracker.peak_bytes();
  result.worker_peaks = {tracker.peak_bytes()};
  return result;
}

}  // namespace s2::core
