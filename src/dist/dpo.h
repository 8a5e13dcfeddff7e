// Data Plane Orchestrator (paper §3.2/§4.3).
//
// Workflow: first every worker computes FIBs and forwarding/ACL predicates
// for its nodes in parallel (each in its own BDD manager — the design that
// gives Fig 10 its predicate-phase speedup), then queries run as rounds of
// distributed symbolic forwarding: workers forward to local quiescence,
// cross-worker packets travel serialized through the sidecars, and the
// round loop continues until no worker moves a packet. Finals are gathered
// (serialized) into the controller's BDD domain for verdict computation.
#pragma once

#include "dist/cpo.h"  // CostModelParams, RoundMetrics
#include "dp/properties.h"

namespace s2::dist {

class Dpo {
 public:
  Dpo(std::vector<std::unique_ptr<WorkerHandle>>* workers,
      SidecarFabric* fabric, util::ThreadPool* pool, CostModelParams cost,
      Worker::Options worker_options = {});

  // Parallel FIB + predicate computation (reads spilled RIBs from `store`
  // when the CP ran sharded).
  RoundMetrics BuildDataPlanes(const cp::RibStore* store);

  // Hybrid variant for incremental what-if (core/incremental.h): nodes in
  // `rebuild` recompute FIB + predicates from `store`; all others adopt
  // the converged base artifacts in `reuse`.
  RoundMetrics BuildDataPlanesHybrid(
      const cp::RibStore* store,
      const std::unordered_set<topo::NodeId>& rebuild,
      const Worker::ReusableDataPlane& reuse);

  struct QueryRun {
    RoundMetrics metrics;
    // Finals re-encoded in the controller's manager via `gather_codec`.
    std::vector<dp::FinalPacket> finals;
    size_t gather_bytes = 0;
    size_t forwarding_steps = 0;  // summed engine steps of this query
  };

  QueryRun RunQuery(const dp::Query& query,
                    const dp::PacketCodec& gather_codec);

  // Query-level parallelism: independent queries run concurrently, each on
  // a private set of per-worker BDD domains rebuilt from the workers'
  // canonical predicate bytes (SnapshotPredicates) — managers stay
  // shared-nothing, per-query and per-worker. The bytes are fetched once
  // per data-plane build and kept for later calls (see DropSnapshots).
  // Each query runs ForwardAcrossDomains (dist/domain.h), so its finals
  // match RunQuery's byte for byte (pinned by the differential tests).
  // `lanes` bounds the modeled concurrency: per-query busy is measured as
  // thread-CPU time and the aggregate's modeled_seconds is the LPT
  // makespan of those busies over `lanes` slots (DESIGN.md §3 — this
  // 1-core box interleaves; the model reports what an L-thread box would).
  struct MultiQueryRun {
    std::vector<QueryRun> runs;  // per query, in input order
    RoundMetrics aggregate;
  };
  MultiQueryRun RunQueries(const std::vector<dp::Query>& queries,
                           const dp::PacketCodec& gather_codec,
                           size_t lanes);

  // Forgets the predicate bytes RunQueries fetched, so the next call
  // fetches again. The builds call it; so must whoever rebuilds a
  // worker's data plane behind the Dpo's back (Controller::RecoverWorker).
  // A handle's own inline recovery restores the checkpoint taken right
  // after the build, whose bytes are the ones held.
  void DropSnapshots() { snapshots_.clear(); }

 private:
  std::vector<std::unique_ptr<WorkerHandle>>* workers_;
  SidecarFabric* fabric_;
  util::ThreadPool* pool_;
  CostModelParams cost_;
  Worker::Options worker_options_;
  // Every worker's predicate bytes as RunQueries last fetched them; empty
  // when none are held.
  std::vector<std::map<topo::NodeId, std::vector<uint8_t>>> snapshots_;
};

}  // namespace s2::dist
