#include "svc/query_service.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/trace.h"

namespace s2::svc {

namespace {

// FNV-1a over the parts of a query that determine its forwarding work
// (everything but the destinations — see the cache-key rationale in the
// header). Used only for lane stickiness, so collisions are harmless.
uint64_t QueryKeyHash(const dp::Query& query) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t value) {
    h ^= value;
    h *= 1099511628211ULL;
  };
  auto mix_prefix = [&mix](const util::IpPrefix& p) {
    mix(static_cast<uint64_t>(p.family()));
    mix(p.address().Hi());
    mix(p.address().Lo());
    mix(p.length());
  };
  if (query.header_space.dst) mix_prefix(*query.header_space.dst);
  if (query.header_space.src) mix_prefix(*query.header_space.src);
  for (topo::NodeId src : query.sources) mix(src);
  for (topo::NodeId transit : query.transits) mix(transit);
  mix(query.record_paths ? 1 : 0);
  return h;
}

// Sound intersection test for admission scoping: two prefixes intersect
// iff one contains the other. A missing dst constraint matches everything.
bool IntersectsDst(const util::IpPrefix& prefix,
                   const std::optional<util::IpPrefix>& dst) {
  if (!dst) return true;
  return prefix.Contains(*dst) || dst->Contains(prefix);
}

}  // namespace

QueryService::QueryService(SnapshotRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  if (options_.lanes == 0) options_.lanes = 1;
  for (size_t i = 0; i < options_.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

QueryService::~QueryService() = default;

size_t QueryService::LaneFor(const dp::Query& query) const {
  return static_cast<size_t>(QueryKeyHash(query) % lanes_.size());
}

QueryService::Served QueryService::Serve(const dp::Query& query) {
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.snapshot_misses;
    return Served{};
  }
  Lane& lane = *lanes_[LaneFor(query)];
  std::lock_guard<std::mutex> lock(lane.mutex);
  return ServeLocked(lane, ref, query);
}

std::vector<QueryService::Served> QueryService::ServeBatch(
    const std::vector<dp::Query>& queries) {
  std::vector<Served> served(queries.size());
  if (queries.empty()) return served;
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.snapshot_misses += queries.size();
    return served;
  }
  // Group compatible queries: same lane (domain affinity) and same
  // admitted worker set execute back to back, so the group's scoped
  // domains and op caches stay hot. Keys are ordered for determinism.
  struct Group {
    std::vector<size_t> indices;
  };
  std::map<std::pair<size_t, std::vector<uint32_t>>, Group> groups;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<uint32_t> scope;
    if (options_.scope_admission) {
      scope = ScopeWorkers(*ref, queries[q]);
    }
    groups[{LaneFor(queries[q]), std::move(scope)}].indices.push_back(q);
  }
  for (auto& [key, group] : groups) {
    Lane& lane = *lanes_[key.first];
    std::lock_guard<std::mutex> lock(lane.mutex);
    for (size_t q : group.indices) {
      served[q] = ServeLocked(lane, ref, queries[q]);
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.batches;
  }
  return served;
}

std::optional<QueryService::WhatIfServed> QueryService::ServeWhatIf(
    const core::Scenario& scenario, const std::vector<dp::Query>& queries) {
  // Pin the epoch the scenario applies to, then serve the base verdicts
  // through the normal path. A republish racing between the pin and the
  // batch would split the epochs; re-pin and retry once, then accept the
  // latest pin (base verdicts are re-derived from it below if needed).
  SnapshotRef ref = registry_->Acquire();
  if (!ref) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.snapshot_misses;
    return std::nullopt;
  }
  std::vector<Served> base_served = ServeBatch(queries);
  auto consistent = [&]() {
    for (const Served& served : base_served) {
      if (served.epoch != ref.epoch()) return false;
    }
    return true;
  };
  if (!consistent()) {
    ref = registry_->Acquire();
    if (!ref) return std::nullopt;
    base_served = ServeBatch(queries);
  }
  WhatIfServed out;
  out.epoch = ref.epoch();
  out.base = base_served;
  std::vector<dp::QueryResult> base_results;
  base_results.reserve(base_served.size());
  for (const Served& served : base_served) {
    base_results.push_back(served.result);
  }
  // An epoch still split after the retry leaves queries/results coherent
  // with each other but not with `ref`; drop the base results so the
  // incremental engine re-runs every query instead of splicing verdicts
  // from another epoch.
  if (!consistent()) base_results.clear();
  core::IncrementalBase base =
      ToIncrementalBase(*ref, queries, std::move(base_results));
  out.incremental = core::VerifyIncremental(base, scenario);
  return out;
}

QueryService::Served QueryService::ServeLocked(Lane& lane,
                                               const SnapshotRef& ref,
                                               const dp::Query& query) {
  obs::Span span("svc", "svc.serve");
  const Snapshot& snapshot = *ref;
  if (lane.epoch != snapshot.epoch) BindEpoch(lane, snapshot);

  Served served;
  served.epoch = snapshot.epoch;
  served.total_workers = snapshot.num_workers;

  // Cache first: the warm path is hash + finals decode + verdict, no
  // scoping and no forwarding.
  bdd::Bdd header = query.header_space.ToBdd(*lane.gather_codec);
  CacheEntry* hit = FindCached(lane, snapshot.epoch, header, query);
  std::vector<dp::SerializedFinal> computed;
  const std::vector<dp::SerializedFinal>* finals_bytes = nullptr;
  if (hit != nullptr) {
    served.cache_hit = true;
    hit->stamp = ++lane.stamp;
    finals_bytes = &hit->finals;
  } else {
    std::vector<uint32_t> scope;
    if (options_.scope_admission) {
      scope = ScopeWorkers(snapshot, query);
    } else {
      scope.resize(snapshot.num_workers);
      for (uint32_t w = 0; w < snapshot.num_workers; ++w) scope[w] = w;
    }
    served.scoped_workers = scope.size();
    computed = Execute(lane, snapshot, query, scope, served);
    served.scoped_workers = scope.size();  // include fallback growth
    if (options_.result_cache_entries > 0) {
      if (lane.cache.size() >= options_.result_cache_entries) {
        auto victim = std::min_element(
            lane.cache.begin(), lane.cache.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.stamp < b.stamp;
            });
        lane.cache.erase(victim);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.cache_evictions;
      }
      CacheEntry entry;
      entry.epoch = snapshot.epoch;
      entry.header = header;
      entry.sources = query.sources;
      entry.transits = query.transits;
      entry.record_paths = query.record_paths;
      entry.finals = computed;
      entry.stamp = ++lane.stamp;
      lane.cache.push_back(std::move(entry));
    }
    finals_bytes = &computed;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.workers_scoped += served.scoped_workers;
      stats_.workers_total += snapshot.num_workers;
    }
  }

  // Decode into the lane's gather domain and evaluate against this
  // query's own destinations — the step that makes destination-disjoint
  // queries shareable upstream.
  std::vector<dp::FinalPacket> finals;
  finals.reserve(finals_bytes->size());
  for (const dp::SerializedFinal& final : *finals_bytes) {
    served.gather_bytes += final.WireBytes();
    finals.push_back(dp::FromWire(final, *lane.gather_manager));
  }
  served.result =
      dp::EvaluateQuery(query, *lane.gather_codec, finals, *snapshot.network);

  MaybeCollect(lane);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    if (options_.result_cache_entries > 0) {
      if (served.cache_hit) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
      }
    }
  }
  return served;
}

void QueryService::BindEpoch(Lane& lane, const Snapshot& snapshot) {
  // Order matters: cache entries hold handles into the gather manager —
  // drop users before owners.
  lane.cache.clear();
  lane.domains.clear();
  lane.gather_codec.reset();
  lane.gather_manager =
      std::make_unique<bdd::Manager>(snapshot.layout.total_bits());
  // Serving domains hold GC: dead intermediates (and the op-cache entries
  // over them) persist between queries; MaybeCollect runs explicit sweeps
  // on a query-count cadence instead.
  lane.gather_manager->PauseGc();
  lane.gather_codec.emplace(lane.gather_manager.get(), snapshot.layout);
  lane.domains.resize(snapshot.num_workers);
  lane.epoch = snapshot.epoch;
  lane.queries_since_gc = 0;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.epoch_rebuilds;
}

dp::Domain* QueryService::EnsureDomain(Lane& lane, const Snapshot& snapshot,
                                       uint32_t w) {
  if (lane.domains[w] != nullptr) return lane.domains[w].get();
  obs::Span span("svc", "svc.domain_build");
  span.Arg("worker", static_cast<int64_t>(w));
  bdd::Manager::Options manager_options;
  manager_options.max_nodes = snapshot.max_bdd_nodes;
  // AddNode pins the predicate roots: this epoch's snapshot surface is
  // immutable for the domain's lifetime (bdd.h, PinRoot).
  lane.domains[w] =
      dist::BuildDomain(snapshot.predicates[w], snapshot.layout,
                        snapshot.max_hops, manager_options, /*hold_gc=*/true);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.domains_built;
  return lane.domains[w].get();
}

std::vector<uint32_t> QueryService::ScopeWorkers(
    const Snapshot& snapshot, const dp::Query& query) const {
  size_t num_nodes = snapshot.worker_of.size();
  std::vector<char> reached(num_nodes, 0);
  std::vector<topo::NodeId> frontier;
  for (topo::NodeId src : query.sources) {
    if (src < num_nodes && !reached[src]) {
      reached[src] = 1;
      frontier.push_back(src);
    }
  }
  while (!frontier.empty()) {
    topo::NodeId at = frontier.back();
    frontier.pop_back();
    auto it = snapshot.fib_edges.find(at);
    if (it == snapshot.fib_edges.end()) continue;
    for (const auto& [prefix, next] : it->second) {
      if (next >= num_nodes || reached[next]) continue;
      if (!IntersectsDst(prefix, query.header_space.dst)) continue;
      reached[next] = 1;
      frontier.push_back(next);
    }
  }
  std::vector<uint32_t> scope;
  for (topo::NodeId id = 0; id < num_nodes; ++id) {
    if (!reached[id]) continue;
    uint32_t w = snapshot.worker_of[id];
    if (!std::binary_search(scope.begin(), scope.end(), w)) {
      scope.insert(std::upper_bound(scope.begin(), scope.end(), w), w);
    }
  }
  return scope;
}

QueryService::CacheEntry* QueryService::FindCached(Lane& lane,
                                                   uint64_t epoch,
                                                   const bdd::Bdd& header,
                                                   const dp::Query& query) {
  if (options_.result_cache_entries == 0) return nullptr;
  for (CacheEntry& entry : lane.cache) {
    if (entry.epoch != epoch) continue;
    // Hash-consing makes the root id a complete fingerprint of the header
    // space; the entry's handle keeps the id from being recycled.
    if (entry.header.id() != header.id()) continue;
    if (entry.record_paths != query.record_paths) continue;
    if (entry.sources != query.sources) continue;
    if (entry.transits != query.transits) continue;
    return &entry;
  }
  return nullptr;
}

std::vector<dp::SerializedFinal> QueryService::Execute(
    Lane& lane, const Snapshot& snapshot, const dp::Query& query,
    std::vector<uint32_t>& scope, Served& served) {
  obs::Span span("svc", "svc.execute");
  std::vector<dp::Domain*> domains(snapshot.num_workers, nullptr);
  for (uint32_t w : scope) domains[w] = EnsureDomain(lane, snapshot, w);
  for (uint32_t w : scope) dp::InstallQuery(domains[w]->engine, query);

  // The batch executor over the scoped domains; unscoped workers
  // contribute no finals by construction, so the worker-major finals — and
  // therefore the verdicts — stay byte-identical to batch mode.
  dist::CrossingRun run = dist::ForwardAcrossDomains(
      domains, snapshot.worker_of, [&](uint32_t dest) {
        // Admission under-scoped (incomplete forward-edge index): build
        // the domain lazily and keep going — scoping is a perf hint, not
        // a correctness gate.
        domains[dest] = EnsureDomain(lane, snapshot, dest);
        dp::InstallQuery(domains[dest]->engine, query);
        scope.insert(std::upper_bound(scope.begin(), scope.end(), dest),
                     dest);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.scope_fallbacks;
      });
  served.rounds = run.rounds;
  return std::move(run.finals);
}

void QueryService::MaybeCollect(Lane& lane) {
  if (options_.gc_interval_queries == 0) return;
  if (++lane.queries_since_gc < options_.gc_interval_queries) return;
  lane.queries_since_gc = 0;
  // Explicit sweeps on the held-GC serving domains: dead intermediates
  // accumulated across the interval are freed (and their op-cache entries
  // purged); pinned predicate roots and cached header handles survive.
  for (const auto& domain : lane.domains) {
    if (domain) domain->manager.GarbageCollect();
  }
  lane.gather_manager->GarbageCollect();
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bdd::Manager::CacheStats QueryService::OpCacheStats() const {
  bdd::Manager::CacheStats total;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    auto add = [&total](const bdd::Manager* manager) {
      if (manager == nullptr) return;
      const bdd::Manager::CacheStats& stats = manager->cache_stats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
      total.gc_kept += stats.gc_kept;
      total.gc_dropped += stats.gc_dropped;
    };
    for (const auto& domain : lane->domains) {
      if (domain) add(&domain->manager);
    }
    add(lane->gather_manager.get());
  }
  return total;
}

void QueryService::PublishMetrics(obs::Registry& registry) const {
  Stats s = stats();
  registry.SetCounter("svc.queries", static_cast<int64_t>(s.queries));
  registry.SetCounter("svc.batches", static_cast<int64_t>(s.batches));
  registry.SetCounter("svc.cache.hits", static_cast<int64_t>(s.cache_hits));
  registry.SetCounter("svc.cache.misses",
                      static_cast<int64_t>(s.cache_misses));
  registry.SetCounter("svc.cache.evictions",
                      static_cast<int64_t>(s.cache_evictions));
  registry.SetCounter("svc.domains_built",
                      static_cast<int64_t>(s.domains_built));
  registry.SetCounter("svc.epoch_rebuilds",
                      static_cast<int64_t>(s.epoch_rebuilds));
  registry.SetCounter("svc.scope.fallbacks",
                      static_cast<int64_t>(s.scope_fallbacks));
  registry.SetCounter("svc.scope.workers_scoped",
                      static_cast<int64_t>(s.workers_scoped));
  registry.SetCounter("svc.scope.workers_total",
                      static_cast<int64_t>(s.workers_total));
  registry.SetCounter("svc.snapshot_misses",
                      static_cast<int64_t>(s.snapshot_misses));
  size_t entries = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    entries += lane->cache.size();
  }
  registry.SetCounter("svc.cache.entries", static_cast<int64_t>(entries));
  bdd::Manager::CacheStats op = OpCacheStats();
  registry.SetCounter("svc.opcache.hits", static_cast<int64_t>(op.hits));
  registry.SetCounter("svc.opcache.misses", static_cast<int64_t>(op.misses));
  registry.SetCounter("svc.opcache.evictions",
                      static_cast<int64_t>(op.evictions));
}

}  // namespace s2::svc
