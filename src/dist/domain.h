// Controller-side forwarding over per-worker domains rebuilt from the
// workers' canonical predicate bytes (Worker::SnapshotPredicates) — the one
// executor behind Dpo::RunQueries and svc::QueryService.
//
// bdd_io encodes structurally, so a domain rebuilt in a private manager is
// equivalent to the worker's own; the loop below replays the DPO's fabric
// round structure over a private exchange, which keeps its finals
// byte-identical to Dpo::RunQuery's.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "dp/forwarding.h"

namespace s2::dist {

// Rebuilds one worker's domain from its predicate bytes. `hold_gc` pauses
// the manager's GC before any node is decoded (persistent serving domains
// collect explicitly instead).
std::unique_ptr<dp::Domain> BuildDomain(
    const std::map<topo::NodeId, std::vector<uint8_t>>& predicates,
    const dp::HeaderLayout& layout, int max_hops,
    const bdd::Manager::Options& options, bool hold_gc = false);

struct CrossingRun {
  std::vector<dp::SerializedFinal> finals;  // worker-major order
  size_t rounds = 0;
  size_t comm_bytes = 0;     // crossing packets, wire size
  size_t comm_messages = 0;  // crossing packets, count
  size_t steps = 0;          // summed engine steps
};

// Runs the query already installed on `domains` (indexed by worker; null =
// outside the query's scope): every present domain to quiescence in
// ascending worker order, then the serialized crossing packets ferried to
// their owners (`worker_of[node]`), repeated until no domain moves. A
// packet bound for an absent worker calls `grow(w)`, which must install a
// prepared domain into domains[w]; without `grow` that is a misroute.
CrossingRun ForwardAcrossDomains(
    std::vector<dp::Domain*>& domains, const std::vector<uint32_t>& worker_of,
    const std::function<void(uint32_t)>& grow = {});

}  // namespace s2::dist
