#include "dist/dpo.h"

#include <algorithm>
#include <functional>

#include "dist/domain.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace s2::dist {

namespace {

// Summed op-cache counters across every worker's data-plane manager; used
// to report per-phase deltas in RoundMetrics.
bdd::Manager::CacheStats SumWorkerCacheStats(
    const std::vector<std::unique_ptr<WorkerHandle>>& workers) {
  bdd::Manager::CacheStats total;
  for (const auto& worker : workers) {
    bdd::Manager::CacheStats stats = worker->bdd_cache_stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
  }
  return total;
}

void RecordCacheDelta(RoundMetrics& metrics,
                      const bdd::Manager::CacheStats& before,
                      const bdd::Manager::CacheStats& after) {
  metrics.bdd_cache_hits += after.hits - before.hits;
  metrics.bdd_cache_misses += after.misses - before.misses;
  metrics.bdd_cache_evictions += after.evictions - before.evictions;
}

}  // namespace

Dpo::Dpo(std::vector<std::unique_ptr<WorkerHandle>>* workers,
         SidecarFabric* fabric, util::ThreadPool* pool, CostModelParams cost,
         Worker::Options worker_options)
    : workers_(workers),
      fabric_(fabric),
      pool_(pool),
      cost_(cost),
      worker_options_(worker_options) {}

RoundMetrics Dpo::BuildDataPlanes(const cp::RibStore* store) {
  DropSnapshots();
  RoundMetrics metrics;
  util::Stopwatch wall;
  pool_->ParallelFor(workers_->size(), [&](size_t w) {
    obs::Span span("dp", "dp.worker_build");
    span.Arg("worker", static_cast<int64_t>(w));
    (*workers_)[w]->BuildDataPlane(store);
  });
  for (const auto& worker : *workers_) {
    metrics.modeled_seconds =
        std::max(metrics.modeled_seconds, worker->last_phase_seconds());
  }
  RecordCacheDelta(metrics, bdd::Manager::CacheStats{},
                   SumWorkerCacheStats(*workers_));
  metrics.wall_seconds = wall.ElapsedSeconds();
  metrics.rounds = 1;
  return metrics;
}

RoundMetrics Dpo::BuildDataPlanesHybrid(
    const cp::RibStore* store, const std::unordered_set<topo::NodeId>& rebuild,
    const Worker::ReusableDataPlane& reuse) {
  DropSnapshots();
  RoundMetrics metrics;
  util::Stopwatch wall;
  pool_->ParallelFor(workers_->size(), [&](size_t w) {
    obs::Span span("dp", "dp.worker_build");
    span.Arg("worker", static_cast<int64_t>(w));
    span.Arg("hybrid", 1);
    // Hybrid rebuilds are an incremental-what-if path; the facade gates it
    // off in process mode, so the local worker is always present here.
    (*workers_)[w]->local()->BuildDataPlaneHybrid(store, rebuild, reuse);
  });
  for (const auto& worker : *workers_) {
    metrics.modeled_seconds =
        std::max(metrics.modeled_seconds, worker->last_phase_seconds());
  }
  RecordCacheDelta(metrics, bdd::Manager::CacheStats{},
                   SumWorkerCacheStats(*workers_));
  metrics.wall_seconds = wall.ElapsedSeconds();
  metrics.rounds = 1;
  return metrics;
}

Dpo::QueryRun Dpo::RunQuery(const dp::Query& query,
                            const dp::PacketCodec& gather_codec) {
  QueryRun run;
  util::Stopwatch wall;
  // RunQuery drives the workers' own forwarding engines through the
  // sidecar fabric — an in-process path. Process mode answers queries via
  // RunQueries (controller-side domains from SnapshotPredicates), so the
  // local worker is always present here.
  bdd::Manager::CacheStats cache_before = SumWorkerCacheStats(*workers_);
  pool_->ParallelFor(workers_->size(), [&](size_t w) {
    (*workers_)[w]->local()->PrepareQuery(query);
  });

  size_t num_workers = workers_->size();
  std::vector<char> moved(num_workers, 0);
  for (;;) {
    obs::Span round_span("dp", "dp.round");
    round_span.Arg("round", run.metrics.rounds);
    size_t bytes_before = fabric_->total_bytes();
    // Two barrier phases per round (like the CPO's rounds): packets a
    // worker ships in phase B are only accepted in the NEXT round's phase
    // A, so the round partitioning is schedule-independent — without the
    // barrier, whether worker B sees worker A's frames this round or next
    // depends on thread timing, and batching/coalescing (and therefore
    // comm_bytes and finals fragmentation) becomes nondeterministic.
    std::vector<char> accepted(num_workers, 0);
    pool_->ParallelFor(num_workers, [&](size_t w) {
      accepted[w] = (*workers_)[w]->local()->AcceptPackets() ? 1 : 0;
    });
    pool_->ParallelFor(num_workers, [&](size_t w) {
      moved[w] = (*workers_)[w]->local()->ForwardAndShip() ? 1 : 0;
    });
    bool any = false;
    double busy = 0;
    for (size_t w = 0; w < num_workers; ++w) {
      any = any || accepted[w] || moved[w];
      busy = std::max(busy, (*workers_)[w]->last_phase_seconds());
    }
    size_t bytes_after = fabric_->total_bytes();
    // No per-round latency term here: unlike control-plane rounds, packet
    // forwarding is asynchronous in S2's design (sidecars stream packets;
    // the DPO only detects quiescence) — the in-process round loop is an
    // implementation artifact, not a modeled barrier.
    run.metrics.comm_bytes += bytes_after - bytes_before;
    run.metrics.modeled_seconds +=
        busy + double(bytes_after - bytes_before) / double(num_workers) /
                   cost_.bandwidth_bytes_per_sec;
    ++run.metrics.rounds;
    if (!any && !fabric_->HasPending()) break;
  }

  // Gather finals into the controller's domain (serialized BDD transfer).
  for (const auto& worker : *workers_) {
    run.forwarding_steps += worker->forwarding_steps();
    for (const dp::SerializedFinal& final : worker->local()->TakeFinals()) {
      run.gather_bytes += final.WireBytes();
      run.finals.push_back(dp::FromWire(final, *gather_codec.manager()));
    }
  }
  RecordCacheDelta(run.metrics, cache_before, SumWorkerCacheStats(*workers_));
  run.metrics.wall_seconds = wall.ElapsedSeconds();
  return run;
}

Dpo::MultiQueryRun Dpo::RunQueries(const std::vector<dp::Query>& queries,
                                   const dp::PacketCodec& gather_codec,
                                   size_t lanes) {
  MultiQueryRun multi;
  multi.runs.resize(queries.size());
  if (queries.empty()) return multi;
  if (lanes == 0) lanes = 1;
  util::Stopwatch wall;

  size_t num_workers = workers_->size();

  // One snapshot of every worker's canonical predicate bytes, shared
  // read-only by all query tasks (bdd_io encodes structurally, so each
  // task can rebuild an equivalent domain in a private manager). A query
  // sweep reuses it: for a process-backed worker each fetch is a round
  // trip over the control channel carrying every predicate.
  if (snapshots_.empty()) {
    std::vector<std::map<topo::NodeId, std::vector<uint8_t>>> fetched(
        num_workers);
    pool_->ParallelFor(num_workers, [&](size_t w) {
      obs::Span span("dp", "dp.snapshot_fetch");
      span.Arg("worker", static_cast<int64_t>(w));
      fetched[w] = (*workers_)[w]->SnapshotPredicates();
    });
    snapshots_ = std::move(fetched);
  }
  const auto& snapshots = snapshots_;

  std::vector<std::vector<dp::SerializedFinal>> finals(queries.size());
  std::vector<double> busy(queries.size(), 0.0);  // thread-CPU per task

  pool_->ParallelFor(queries.size(), [&](size_t q) {
    obs::Span query_span("dp", "dp.query");
    query_span.Arg("query", static_cast<int64_t>(q));
    util::Stopwatch task_wall;
    double cpu_start = util::ThreadCpuSeconds();

    // Per-query, per-worker shared-nothing domains; node bytes are charged
    // to the owning worker's tracker (atomic, so concurrent queries are
    // race-free and per-worker budgets still bind).
    std::vector<std::unique_ptr<dp::Domain>> owned;
    std::vector<dp::Domain*> domains;
    bdd::Manager::Options manager_options;
    manager_options.max_nodes = worker_options_.max_bdd_nodes;
    for (size_t w = 0; w < num_workers; ++w) {
      manager_options.tracker = &(*workers_)[w]->query_tracker();
      owned.push_back(BuildDomain(snapshots[w], worker_options_.layout,
                                  worker_options_.max_hops, manager_options));
      domains.push_back(owned.back().get());
      dp::InstallQuery(domains.back()->engine, queries[q]);
    }
    CrossingRun crossing =
        ForwardAcrossDomains(domains, fabric_->assignment());

    RoundMetrics& metrics = multi.runs[q].metrics;
    metrics.rounds = crossing.rounds;
    metrics.comm_bytes = crossing.comm_bytes;
    metrics.comm_messages = crossing.comm_messages;
    multi.runs[q].forwarding_steps = crossing.steps;
    finals[q] = std::move(crossing.finals);
    bdd::Manager::CacheStats cache;
    for (const dp::Domain* domain : domains) {
      cache.hits += domain->manager.cache_stats().hits;
      cache.misses += domain->manager.cache_stats().misses;
      cache.evictions += domain->manager.cache_stats().evictions;
    }
    RecordCacheDelta(metrics, bdd::Manager::CacheStats{}, cache);
    busy[q] = util::ThreadCpuSeconds() - cpu_start;
    metrics.modeled_seconds =
        busy[q] + double(metrics.comm_bytes) / cost_.bandwidth_bytes_per_sec;
    metrics.wall_seconds = task_wall.ElapsedSeconds();
  });

  // Gather sequentially: the controller's manager is shared, and (query,
  // worker) order keeps the result deterministic.
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRun& run = multi.runs[q];
    for (const dp::SerializedFinal& final : finals[q]) {
      run.gather_bytes += final.WireBytes();
      run.finals.push_back(dp::FromWire(final, *gather_codec.manager()));
    }
    multi.aggregate.rounds =
        std::max(multi.aggregate.rounds, run.metrics.rounds);
    multi.aggregate.comm_bytes += run.metrics.comm_bytes;
    multi.aggregate.comm_messages += run.metrics.comm_messages;
    multi.aggregate.bdd_cache_hits += run.metrics.bdd_cache_hits;
    multi.aggregate.bdd_cache_misses += run.metrics.bdd_cache_misses;
    multi.aggregate.bdd_cache_evictions += run.metrics.bdd_cache_evictions;
  }

  // Modeled parallel time: LPT makespan of per-query busy over `lanes`
  // slots (queries are independent; a real L-thread box would greedily
  // pack them).
  std::sort(busy.begin(), busy.end(), std::greater<double>());
  std::vector<double> slots(std::min(lanes, busy.size()), 0.0);
  if (slots.empty()) slots.push_back(0.0);
  for (double b : busy) {
    *std::min_element(slots.begin(), slots.end()) += b;
  }
  multi.aggregate.modeled_seconds =
      *std::max_element(slots.begin(), slots.end()) +
      double(multi.aggregate.comm_bytes) / double(num_workers) /
          cost_.bandwidth_bytes_per_sec;
  multi.aggregate.wall_seconds = wall.ElapsedSeconds();
  return multi;
}

}  // namespace s2::dist
