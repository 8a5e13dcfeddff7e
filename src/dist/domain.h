// The one symbolic-forwarding loop across per-worker BDD domains (paper
// §4.3): every domain forwards in its own node table, and only the packets
// that cross to another worker are serialized (bdd_io) and re-encoded on
// arrival. Dpo::RunQuery runs it over the workers' persistent domains
// (in-process) or over domains rebuilt from their predicate bytes (process
// mode); Dpo::RunQueries and svc::QueryService run it over private
// per-query and per-lane domains.
//
// bdd_io encodes structurally, so a domain rebuilt in a private manager is
// equivalent to the worker's own, and the finals are byte-identical
// whichever domains the loop runs over.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "dp/forwarding.h"
#include "util/thread_pool.h"

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
  // Σ over rounds of the slowest domain's forwarding wall time.
  double busy_seconds = 0;
};

// Runs the query already installed on `domains` (indexed by worker; null =
// outside the query's scope) in rounds. In a round every present domain
// re-encodes its inbox, runs to quiescence and serializes what leaves it
// into its own outbox; the outboxes are then moved, in ascending worker
// order, to the inboxes of the packets' owners (`worker_of[node]`).
// Rounds repeat until no domain moves. With `pool` the domains of a round
// run in parallel; per-domain inboxes and outboxes keep finals, rounds,
// steps and bytes identical to the serial loop. A packet bound for an
// absent worker calls `grow(w)`, which must install a prepared domain
// into domains[w]; without `grow` that is a misroute.
CrossingRun ForwardAcrossDomains(
    std::vector<dp::Domain*>& domains, const std::vector<uint32_t>& worker_of,
    const std::function<void(uint32_t)>& grow = {},
    util::ThreadPool* pool = nullptr);

}  // namespace s2::dist
