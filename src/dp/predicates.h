// Port predicate computation (paper §4.3, "pre-computing predicates").
//
// For each device the FIB induces, via longest-prefix-match order, a
// partition of the destination space into: per-neighbor forwarding
// predicates, an arrive predicate, an exit predicate, and a discard
// predicate (aggregate Null0 + no-route). These are built by construction:
// one bottom-up pass over a binary trie of the FIB's destination prefixes
// emits each predicate as a reduced ordered BDD (destination variables
// head the order, MSB first), without Apply and without garbage; outputs
// with the same member entries share one pass. ACLs induce per-port in/out
// permit predicates, built with Apply (first match over a few entries).
// All BDDs live in the owning domain's manager — S2's one-table-per-worker
// design.
#pragma once

#include <unordered_map>

#include "config/parser.h"
#include "dp/fib.h"
#include "dp/packet.h"

namespace s2::dp {

struct NodePredicates {
  // Packets forwarded toward each neighbor device (p^fwd per port).
  std::unordered_map<topo::NodeId, bdd::Bdd> forward;
  bdd::Bdd arrive;    // delivered here
  bdd::Bdd exit;      // leaves the modeled network here
  bdd::Bdd discard;   // dropped: aggregate Null0 or no matching route
  // ACL permit predicates per neighbor port (p^in / p^out); ports without
  // an ACL get True.
  std::unordered_map<topo::NodeId, bdd::Bdd> acl_in;
  std::unordered_map<topo::NodeId, bdd::Bdd> acl_out;
};

// Builds the predicates of device `self` from its FIB within `codec`'s
// manager. `network` resolves neighbor ports and ACLs. Entries are owned
// first-match in FIB order (longest first, as Fib sorts them); `forward`
// gets its hops in the order of the first entry owning destinations, which
// fixes the engine's packet emission order. Throws std::invalid_argument
// if an entry's family does not fit the layout.
NodePredicates BuildPredicates(const config::ParsedNetwork& network,
                               topo::NodeId self, const Fib& fib,
                               const PacketCodec& codec);

// The permit predicate of an ACL (first-match-wins; no-match = deny).
bdd::Bdd AclPredicate(const config::Acl& acl, const PacketCodec& codec);

// True if any prefix anywhere in `network`'s configs (announced networks,
// aggregates, conditional advertisements, ACLs, route-map matches) is IPv6.
bool NetworkHasV6(const config::ParsedNetwork& network);

// The layout a verifier should actually build for `network`: `requested`
// unchanged when it can express every address family present (in
// particular, a v4-only network keeps the historical 32-bit layout and
// its byte-identical predicates), otherwise the dual-stack widening of
// `requested` (family discriminator var + 128 dst/src bits, metadata
// bits preserved).
HeaderLayout LayoutForNetwork(const config::ParsedNetwork& network,
                              HeaderLayout requested);

}  // namespace s2::dp
