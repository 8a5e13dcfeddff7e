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

const std::vector<std::map<topo::NodeId, std::vector<uint8_t>>>&
Dpo::Snapshots() {
  // Fetched once per data-plane build and shared read-only by every
  // query: for a process-backed worker each fetch is a round trip over
  // the control channel carrying every predicate.
  if (snapshots_.empty()) {
    std::vector<std::map<topo::NodeId, std::vector<uint8_t>>> fetched(
        workers_->size());
    pool_->ParallelFor(workers_->size(), [&](size_t w) {
      obs::Span span("dp", "dp.snapshot_fetch");
      span.Arg("worker", static_cast<int64_t>(w));
      fetched[w] = (*workers_)[w]->SnapshotPredicates();
    });
    snapshots_ = std::move(fetched);
  }
  return snapshots_;
}

std::unique_ptr<dp::Domain> Dpo::RebuildDomain(size_t w) {
  // Node bytes are charged to the owning worker's tracker (atomic, so
  // concurrent builds are race-free and per-worker budgets still bind).
  bdd::Manager::Options manager_options;
  manager_options.max_nodes = worker_options_.max_bdd_nodes;
  manager_options.tracker = &(*workers_)[w]->query_tracker();
  return BuildDomain(snapshots_[w], worker_options_.layout,
                     worker_options_.max_hops, manager_options);
}

Dpo::QueryRun Dpo::RunQuery(const dp::Query& query,
                            const dp::PacketCodec& gather_codec) {
  QueryRun run;
  util::Stopwatch wall;
  size_t num_workers = workers_->size();
  // A process-backed worker's domain is rebuilt from its predicate bytes.
  if (std::any_of(workers_->begin(), workers_->end(), [](const auto& w) {
        return w->local() == nullptr;
      })) {
    Snapshots();
  }
  std::vector<std::unique_ptr<dp::Domain>> owned(num_workers);
  std::vector<dp::Domain*> domains(num_workers, nullptr);
  std::vector<bdd::Manager::CacheStats> cache_before(num_workers);
  pool_->ParallelFor(num_workers, [&](size_t w) {
    Worker* local = (*workers_)[w]->local();
    if (local != nullptr) {
      domains[w] = local->domain();
    } else {
      owned[w] = RebuildDomain(w);
      domains[w] = owned[w].get();
    }
    cache_before[w] = domains[w]->manager.cache_stats();
    dp::InstallQuery(domains[w]->engine, query);
  });
  CrossingRun crossing =
      ForwardAcrossDomains(domains, fabric_->assignment(), {}, pool_);

  run.metrics.rounds = crossing.rounds;
  run.metrics.comm_bytes = crossing.comm_bytes;
  run.metrics.comm_messages = crossing.comm_messages;
  // No per-round latency term: packet forwarding is asynchronous in S2's
  // design (sidecars stream packets; the DPO only detects quiescence), so
  // the rounds are an implementation artifact, not a modeled barrier.
  run.metrics.modeled_seconds =
      crossing.busy_seconds + double(crossing.comm_bytes) /
                                  double(num_workers) /
                                  cost_.bandwidth_bytes_per_sec;
  run.forwarding_steps = crossing.steps;
  for (size_t w = 0; w < num_workers; ++w) {
    RecordCacheDelta(run.metrics, cache_before[w],
                     domains[w]->manager.cache_stats());
  }
  // Gather finals into the controller's domain (serialized BDD transfer).
  for (const dp::SerializedFinal& final : crossing.finals) {
    run.gather_bytes += final.WireBytes();
    run.finals.push_back(dp::FromWire(final, *gather_codec.manager()));
  }
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
  // Each task rebuilds equivalent domains in private managers (bdd_io
  // encodes structurally) from one shared snapshot.
  Snapshots();

  std::vector<std::vector<dp::SerializedFinal>> finals(queries.size());
  std::vector<double> busy(queries.size(), 0.0);  // thread-CPU per task

  pool_->ParallelFor(queries.size(), [&](size_t q) {
    obs::Span query_span("dp", "dp.query");
    query_span.Arg("query", static_cast<int64_t>(q));
    util::Stopwatch task_wall;
    double cpu_start = util::ThreadCpuSeconds();

    // Per-query, per-worker shared-nothing domains.
    std::vector<std::unique_ptr<dp::Domain>> owned;
    std::vector<dp::Domain*> domains;
    for (size_t w = 0; w < num_workers; ++w) {
      owned.push_back(RebuildDomain(w));
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
    for (const dp::Domain* domain : domains) {
      RecordCacheDelta(metrics, bdd::Manager::CacheStats{},
                       domain->manager.cache_stats());
    }
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
