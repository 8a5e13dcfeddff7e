// BGP halves of the switch model: export transformation (policy, AS_PATH
// prepend/overwrite, remove-private-as, eBGP attribute scrubbing) and
// import processing (loop rejection, import policy). Free functions so the
// Node stays an orchestrator and these stay unit-testable.
#pragma once

#include <optional>

#include "config/vi_model.h"
#include "cp/route.h"

namespace s2::cp {

// Transforms `best` for export over `session` (the neighbor's config entry
// on the exporting device `config`). Returns nullopt when the export
// policy denies the route. Applies, in order: export route-map (sets may
// overwrite the AS_PATH), AS prepend (unless overwritten), remove-private-as
// with the exporter's vendor semantics, and eBGP attribute scrubbing
// (LOCAL_PREF is not transmitted across eBGP). The transformed attribute
// tuple is interned into `pool` (the exporting domain's) — once, after
// every edit is applied. Of `session` it reads only export_route_map and
// remove_private_as: sessions equal in both form one export class, and
// cp::Node transforms a route once per class, not once per session.
std::optional<Route> TransformForExport(const Route& best,
                                        const config::ViConfig& config,
                                        const config::BgpNeighbor& session,
                                        AttrPool& pool);

// Processes a route received from `session` on the importing device
// `config`. Returns nullopt when rejected (AS-path loop or import policy
// deny) — which callers must treat as a withdrawal of any previous
// candidate from that neighbor. `from` is the sending device. The
// received route is moved into the result; with no import policy edits
// its interned handle is reused without touching `pool`.
std::optional<Route> ProcessImport(Route received,
                                   const config::ViConfig& config,
                                   const config::BgpNeighbor& session,
                                   topo::NodeId from, AttrPool& pool);

// True if `prefix` must be suppressed on export because a summary-only
// aggregate on `config` covers it (strictly more specific than the
// aggregate itself).
bool SuppressedByAggregate(const util::IpPrefix& prefix,
                           const config::ViConfig& config);

}  // namespace s2::cp
