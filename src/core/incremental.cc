#include "core/incremental.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/trace.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace s2::core {

Scenario RemoveLinkScenario(topo::NodeId a, topo::NodeId b) {
  Scenario scenario;
  scenario.kind = Scenario::Kind::kRemoveLink;
  scenario.a = a;
  scenario.b = b;
  return scenario;
}

Scenario FailNodeScenario(topo::NodeId node) {
  Scenario scenario;
  scenario.kind = Scenario::Kind::kFailNode;
  scenario.a = node;
  return scenario;
}

Scenario ConfigEditScenario(config::ParsedNetwork edited) {
  Scenario scenario;
  scenario.kind = Scenario::Kind::kConfigEdit;
  scenario.edited =
      std::make_shared<const config::ParsedNetwork>(std::move(edited));
  return scenario;
}

config::ParsedNetwork ApplyScenario(const config::ParsedNetwork& network,
                                    const Scenario& scenario) {
  switch (scenario.kind) {
    case Scenario::Kind::kRemoveLink:
      return RemoveLink(network, scenario.a, scenario.b);
    case Scenario::Kind::kFailNode:
      return FailNode(network, scenario.a);
    case Scenario::Kind::kConfigEdit:
      return *scenario.edited;
  }
  return network;  // unreachable
}

IncrementalBase MakeIncrementalBase(const dist::Controller& controller,
                                    std::vector<dp::Query> queries,
                                    std::vector<dp::QueryResult> results) {
  IncrementalBase base;
  base.network =
      std::make_shared<const config::ParsedNetwork>(controller.network());
  base.options = controller.options();
  base.rib_spills = controller.rib_store();
  base.plan = controller.shard_plan();
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    const dist::Worker& worker = controller.worker(w);
    if (!worker.has_data_plane()) continue;
    std::map<topo::NodeId, std::vector<uint8_t>> predicates =
        worker.SnapshotPredicates();
    base.predicates.insert(predicates.begin(), predicates.end());
    base.fib_edges.insert(worker.fib_edges().begin(),
                          worker.fib_edges().end());
    base.fib_bytes.insert(worker.node_fib_bytes().begin(),
                          worker.node_fib_bytes().end());
  }
  base.total_best_routes = controller.TotalBestRoutes();
  base.queries = std::move(queries);
  base.results = std::move(results);
  return base;
}

IncrementalResult VerifyIncremental(const IncrementalBase& base,
                                    const Scenario& scenario) {
  obs::Span total_span("incremental", "incremental.verify");
  IncrementalResult out;
  IncrementalStats& stats = out.stats;
  VerifyResult& result = out.result;
  const config::ParsedNetwork& net = *base.network;
  const topo::NodeId num_nodes =
      static_cast<topo::NodeId>(net.configs.size());
  stats.nodes_total = num_nodes;
  stats.queries_total = base.queries.size();

  // ------------------------------------------------------------- fallback
  // Conditions under which the impact bound does not hold and the scenario
  // re-verifies as a whole-network run (still through the same synthetic-
  // shard machinery, so callers see one code path).
  std::string reason;
  bool any_ospf = false;
  for (const config::ViConfig& config : net.configs) {
    any_ospf = any_ospf || config.ospf.enabled;
  }
  if (scenario.kind == Scenario::Kind::kConfigEdit) {
    reason = "config edit carries no impact bound";
  } else if (any_ospf) {
    reason = "OSPF recomputes globally";
  } else if (base.rib_spills == nullptr || !base.plan.has_value() ||
             base.plan->empty()) {
    reason = "base run has no converged shard spills";
  } else if (base.queries.size() != base.results.size()) {
    reason = "base query results incomplete";
  } else {
    for (topo::NodeId id = 0; id < num_nodes; ++id) {
      if (base.predicates.count(id) == 0 || base.fib_edges.count(id) == 0 ||
          base.fib_bytes.count(id) == 0) {
        reason = "base data-plane artifacts incomplete";
        break;
      }
    }
  }
  stats.full_fallback = !reason.empty();
  stats.fallback_reason = reason;
  const bool fallback = stats.full_fallback;

  std::optional<obs::Span> phase_span;
  phase_span.emplace("incremental", "incremental.apply");
  config::ParsedNetwork modified = ApplyScenario(net, scenario);
  phase_span.reset();

  // ------------------------------------------------------ impact closure
  // Attribute domain for all spill reads this run (routes compared below
  // intern into the same pool, so Route equality is attribute-deep).
  cp::AttrPool scratch_pool;
  cp::PrefixSet closure;
  phase_span.emplace("incremental", "incremental.impact");
  if (fallback) {
    // Re-simulate the full (post-edit) universe; nothing is reused, so the
    // synthetic shard must cover every prefix the edited network can
    // originate.
    std::vector<util::IpPrefix> universe = cp::CollectBgpPrefixes(modified);
    closure.insert(universe.begin(), universe.end());
    stats.universe_prefixes = closure.size();
  } else {
    cp::DpdgComponents dpdg = cp::BuildDpdgComponents(net);
    stats.universe_prefixes = dpdg.prefixes.size();
    // A failure only removes BGP candidates, and a removed candidate can
    // disturb the fixed point only if it sits in a converged best/ECMP set
    // — which the spills of the failed element's endpoints record. (An
    // ECMP candidate truncated by max_paths sorts after every stored one,
    // so its loss cannot change the stored set.)
    cp::PrefixSet impacted;
    auto collect = [&](topo::NodeId node, std::optional<topo::NodeId> via) {
      std::map<util::IpPrefix, std::vector<cp::Route>> best =
          base.rib_spills->ReadAll(node, scratch_pool);
      for (const auto& [prefix, routes] : best) {
        for (const cp::Route& route : routes) {
          bool hit = via.has_value()
                         ? route.learned_from == *via
                         : route.learned_from != topo::kInvalidNode;
          if (hit) {
            impacted.insert(prefix);
            break;
          }
        }
      }
    };
    if (scenario.kind == Scenario::Kind::kRemoveLink) {
      collect(scenario.a, scenario.b);
      collect(scenario.b, scenario.a);
    } else {
      // Every route a neighbor learned from the victim, plus everything
      // the victim learned remotely (its sessions are all gone).
      std::set<topo::NodeId> neighbors(net.graph.neighbors(scenario.a).begin(),
                                       net.graph.neighbors(scenario.a).end());
      for (topo::NodeId m : neighbors) collect(m, scenario.a);
      collect(scenario.a, std::nullopt);
    }
    closure = dpdg.Closure(impacted);
  }
  phase_span.reset();
  stats.impacted_prefixes = closure.size();

  // Nodes whose connected/loopback FIB state the scenario edits directly —
  // invisible to the BGP spill diff, so always rebuilt.
  std::unordered_set<topo::NodeId> rebuild;
  if (scenario.kind == Scenario::Kind::kRemoveLink) {
    rebuild.insert(scenario.a);
    rebuild.insert(scenario.b);
  } else if (scenario.kind == Scenario::Kind::kFailNode) {
    rebuild.insert(scenario.a);
    for (topo::NodeId m : net.graph.neighbors(scenario.a)) rebuild.insert(m);
  }

  phase_span.emplace("incremental", "incremental.setup");
  dist::ControllerOptions options = base.options;
  // The synthetic one-shard plan replaces option-driven sharding.
  options.num_shards = 0;
  // Deliberately NOT collapsed to one worker: final-packet fragmentation
  // (and with it per-state finals counts) depends on worker placement, so
  // re-verified results are comparable to the base run's only when the
  // overlay keeps the base fleet shape.
  dist::Controller controller(std::move(modified), options);
  phase_span.reset();

  std::shared_ptr<cp::RibStore> store;
  size_t base_masked_routes = 0;  // base routes shadowed by the overlay
  try {
    util::Stopwatch watch;
    controller.Setup();
    result.partition_seconds = watch.ElapsedSeconds();

    // One synthetic shard holding exactly the closure. Deliberately not
    // RepairShardPlan'd: validation would re-insert every other universe
    // prefix, defeating the restriction — the DPDG closure already
    // guarantees the shard is dependency-closed.
    cp::ShardPlan plan;
    plan.ResizeShards(1);
    std::vector<util::IpPrefix> sorted_closure(closure.begin(),
                                                 closure.end());
    std::sort(sorted_closure.begin(), sorted_closure.end());
    for (const util::IpPrefix& prefix : sorted_closure) {
      plan.Assign(0, prefix);
    }
    store = fallback ? std::make_shared<cp::RibStore>()
                     : std::make_shared<cp::RibStore>(base.rib_spills,
                                                      closure);
    // The overlay records each node's FIB projection as it spills, so the
    // rebuild diff below is a pure in-memory comparison.
    if (!fallback) store->EnableProjectionCapture();
    controller.OverrideShardPlan(std::move(plan), store);
    result.control_plane = controller.RunControlPlane();

    // ------------------------------------------------------ rebuild set
    phase_span.emplace("incremental", "incremental.diff");
    if (fallback) {
      for (topo::NodeId id = 0; id < num_nodes; ++id) rebuild.insert(id);
    } else {
      // Accounting for the base routes the overlay shadows comes from the
      // store's write-time per-prefix counters — no base spill I/O.
      base_masked_routes = base.rib_spills->CountRoutes(closure);
      // A node needs its FIB rebuilt iff its closure-restricted FIB
      // projection changed. The base side comes from the in-memory
      // forward-edge index (dp::Fib::ForwardEdges emits each kForward
      // entry's ordered hop list — identical to the projection for
      // learned-front prefixes); the converged side was captured by the
      // overlay as it spilled. Routes that changed only in attributes the
      // FIB never consumes (as_path, local-pref...) — the common case far
      // from a failure, where paths lengthen but ECMP membership survives
      // — compare equal and keep the node reusable. Local-front prefixes
      // are absent from both sides; with configs unchanged on diffed
      // nodes, "local front" vs "no route" cannot flip without a learned
      // front appearing in exactly one side's map.
      static const std::map<util::IpPrefix, std::vector<topo::NodeId>>
          kEmptyProjection;
      for (topo::NodeId id = 0; id < num_nodes; ++id) {
        if (rebuild.count(id) != 0) continue;
        std::map<util::IpPrefix, std::vector<topo::NodeId>> before;
        for (const auto& [prefix, next] : base.fib_edges.at(id)) {
          if (closure.count(prefix) != 0) before[prefix].push_back(next);
        }
        const auto* now = store->Projection(id);
        if (now == nullptr) now = &kEmptyProjection;
        if (before != *now) rebuild.insert(id);
      }
    }
    phase_span.reset();
    stats.nodes_rebuilt = rebuild.size();
    stats.nodes_reused = num_nodes - rebuild.size();

    dist::Worker::ReusableDataPlane reuse;
    reuse.predicates = &base.predicates;
    reuse.fib_edges = &base.fib_edges;
    reuse.fib_bytes = &base.fib_bytes;
    result.dp_build = controller.BuildDataPlanesHybrid(rebuild, reuse);

    // Serialize only the rebuilt nodes' predicates; a reused node's bytes
    // are exactly the base run's (the hybrid build deserialized them
    // verbatim, and the encoding is canonical).
    phase_span.emplace("incremental", "incremental.snapshot");
    for (size_t w = 0; w < controller.num_workers(); ++w) {
      const dist::Worker& worker = controller.worker(w);
      std::map<topo::NodeId, std::vector<uint8_t>> predicates =
          worker.SnapshotPredicates(fallback ? nullptr : &rebuild);
      out.predicates.insert(predicates.begin(), predicates.end());
      out.fib_bytes.insert(worker.node_fib_bytes().begin(),
                           worker.node_fib_bytes().end());
    }
    if (!fallback) {
      for (topo::NodeId id = 0; id < num_nodes; ++id) {
        if (rebuild.count(id) == 0) {
          out.predicates.emplace(id, base.predicates.at(id));
        }
      }
    }
    phase_span.reset();

    // Rebuilt nodes whose forwarding actually changed (byte-compared
    // canonical predicates — the same fingerprint checkpoints restore
    // from, so byte equality means identical forwarding).
    std::set<topo::NodeId> changed;
    for (topo::NodeId id = 0; id < num_nodes; ++id) {
      if (rebuild.count(id) == 0) continue;
      auto it = base.predicates.find(id);
      if (it == base.predicates.end() || out.predicates.at(id) != it->second) {
        changed.insert(id);
      }
    }
    stats.changed_nodes = changed.size();

    // --------------------------------------------------- query admission
    // A base verdict stays valid iff no node a query packet can visit
    // changed forwarding. BFS the post-scenario forward-edge index from
    // the query's sources, pruned to edges a packet of the query's
    // destination space can actually take under longest-prefix match: on
    // any base trajectory, the first changed node is preceded only by
    // unchanged nodes — whose post-scenario edges equal their base edges —
    // so the BFS provably reaches it.
    //
    // The LPM refinement: for a dst space D, entries strictly inside D can
    // each win for some address, but among entries *containing* D only the
    // longest present at a node can ever be the match (every address of D
    // matches all of them, and anything longer that also matches lies
    // inside D). Following shorter covering entries — aggregates, default
    // routes — would fan the cone across the whole fabric and admit
    // nothing.
    std::map<topo::NodeId, const std::vector<
                               std::pair<util::IpPrefix, topo::NodeId>>*>
        post_edges;
    for (size_t w = 0; w < controller.num_workers(); ++w) {
      for (const auto& [id, edges] : controller.worker(w).fib_edges()) {
        post_edges[id] = &edges;
      }
    }
    phase_span.emplace("incremental", "incremental.admission");
    std::vector<bool> rerun(base.queries.size(), true);
    if (!fallback) {
      for (size_t i = 0; i < base.queries.size(); ++i) {
        const dp::Query& query = base.queries[i];
        std::set<topo::NodeId> visited;
        std::vector<topo::NodeId> frontier;
        for (topo::NodeId src : query.sources) {
          if (src < num_nodes && visited.insert(src).second) {
            frontier.push_back(src);
          }
        }
        bool touches_changed = false;
        while (!frontier.empty() && !touches_changed) {
          topo::NodeId at = frontier.back();
          frontier.pop_back();
          if (changed.count(at) != 0) {
            touches_changed = true;
            break;
          }
          auto it = post_edges.find(at);
          if (it == post_edges.end()) continue;
          const std::optional<util::IpPrefix>& dst = query.header_space.dst;
          int longest_cover = -1;
          if (dst.has_value()) {
            for (const auto& [prefix, next] : *it->second) {
              if (prefix.Contains(*dst)) {
                longest_cover =
                    std::max(longest_cover, static_cast<int>(prefix.length()));
              }
            }
          }
          for (const auto& [prefix, next] : *it->second) {
            if (dst.has_value()) {
              if (prefix.Contains(*dst)) {
                // Covers every address of D: wins only if no containing
                // entry at this node is longer.
                if (static_cast<int>(prefix.length()) != longest_cover) {
                  continue;
                }
              } else if (!dst->Contains(prefix)) {
                continue;  // disjoint from D
              }
              // else strictly inside D: wins for its own addresses.
            }
            if (visited.insert(next).second) frontier.push_back(next);
          }
        }
        rerun[i] = touches_changed;
      }
    }
    phase_span.reset();

    phase_span.emplace("incremental", "incremental.queries");
    for (size_t i = 0; i < base.queries.size(); ++i) {
      if (!rerun[i]) {
        result.queries.push_back(base.results[i]);
        ++stats.queries_reused;
        continue;
      }
      dist::Controller::QueryOutcome outcome =
          controller.RunQuery(base.queries[i]);
      result.dp_forward.Add(outcome.metrics);
      result.comm_bytes += outcome.metrics.comm_bytes + outcome.gather_bytes;
      result.forwarding_steps += outcome.forwarding_steps;
      result.queries.push_back(std::move(outcome.result));
      ++stats.queries_reverified;
    }
    phase_span.reset();
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

  result.peak_memory_bytes = controller.MaxWorkerPeakBytes();
  result.worker_peaks = controller.WorkerPeakBytes();
  result.comm_bytes += controller.TotalCommBytes();
  // The overlay spills replace exactly the base routes of masked prefixes;
  // everything else flows through from the base run.
  size_t overlay_routes = store != nullptr ? store->routes_written() : 0;
  result.total_best_routes =
      fallback ? overlay_routes
               : base.total_best_routes - base_masked_routes + overlay_routes;
  if (controller.fabric().reliable()) {
    fault::ReliableTransport::Stats transport_stats =
        controller.fabric().transport_stats();
    result.retransmits = transport_stats.retransmits;
    result.frames_dropped = transport_stats.dropped;
    result.duplicates_suppressed = transport_stats.duplicates_suppressed;
    result.worker_recoveries = controller.worker_recoveries();
  }
  return out;
}

}  // namespace s2::core
