// Property checking (paper §4.4).
//
// A query is (H, Vs, Vd, Vt): header space, sources, destinations,
// transits. The forwarding engine(s) inject H at every source and run to
// quiescence; verdicts are then computed from the final packets, gathered
// into a single BDD domain. Supported properties: reachability, waypoint,
// multi-path consistency, loop-free, blackhole-free.
#pragma once

#include <vector>

#include "dp/forwarding.h"

namespace s2::dp {

struct Query {
  HeaderSpaceSpec header_space;
  std::vector<topo::NodeId> sources;
  std::vector<topo::NodeId> destinations;
  std::vector<topo::NodeId> transits;  // waypoints, one metadata bit each
  // Enumerate concrete forwarding paths (disables packet coalescing) and
  // check them for forwarding valleys — the Fig 11 path-specific anomaly.
  // Meant for targeted diagnostics; costs the full path blowup.
  bool record_paths = false;
};

// Installs `query` on one domain, dropping any previous query's state:
// path recording, the waypoint write rule of every owned transit (transit
// i sets metadata bit i), and an injection of H at every owned source.
void InstallQuery(ForwardingEngine& engine, const Query& query);

struct ReachabilityPair {
  topo::NodeId src;
  topo::NodeId dst;
  // Fraction of the destination's own announced space (within H) that
  // arrives from src; reachable means the whole of it arrives.
  double fraction = 0.0;
  bool reachable = false;
};

struct MultipathViolation {
  topo::NodeId src;
  FinalState state_a;
  FinalState state_b;
};

struct WaypointResult {
  topo::NodeId transit;
  bool always_traversed = false;  // every arriving packet visited it
};

// A forwarding valley: a path that descends the topology's layers and
// climbs back up (e.g. edge→agg→edge→agg→core…, Fig 11's
// E6→A4→C0→A8→E10→A9→C3→… example). Valid Clos forwarding goes up then
// down exactly once.
struct ForwardingValley {
  topo::NodeId src;
  std::vector<topo::NodeId> path;
};

// Scans a recorded path for a down-then-up layer transition.
bool IsForwardingValley(const std::vector<topo::NodeId>& path,
                        const topo::Graph& graph);

struct QueryResult {
  std::vector<ReachabilityPair> reachability;
  size_t reachable_pairs = 0;
  size_t unreachable_pairs = 0;
  bool loop_free = true;
  bool blackhole_free = true;
  size_t loop_finals = 0;
  size_t blackhole_finals = 0;
  std::vector<MultipathViolation> multipath_violations;
  std::vector<WaypointResult> waypoints;
  // Filled only for record_paths queries.
  size_t paths_recorded = 0;
  std::vector<ForwardingValley> valleys;
};

// Evaluates verdicts over finals that all live in `codec`'s manager.
// `network` supplies each destination's announced prefixes. `waypoint_bit`
// maps query.transits[i] to metadata bit i.
QueryResult EvaluateQuery(const Query& query, const PacketCodec& codec,
                          const std::vector<FinalPacket>& finals,
                          const config::ParsedNetwork& network);

}  // namespace s2::dp
