#include "cp/bgp.h"

#include <algorithm>

#include "cp/policy.h"

namespace s2::cp {

std::optional<Route> TransformForExport(const Route& best,
                                        const config::ViConfig& config,
                                        const config::BgpNeighbor& session,
                                        AttrPool& pool) {
  PolicyEval eval = EvalRouteMap(config.FindRouteMap(session.export_route_map),
                                 best, config.bgp.asn);
  if (!eval.accepted) return std::nullopt;
  // Work on one scratch tuple through the whole export pipeline and
  // intern exactly once at the end.
  AttrTuple tuple =
      eval.attrs_modified ? std::move(eval.tuple) : best.attrs.get();

  // AS_PATH: the overwrite set action already produced [own ASN] and
  // supersedes both remove-private-as and the prepend. Otherwise,
  // remove-private-as applies to the path as learned — before the local
  // prepend — which is where the §2.1 "ASNs preceding the first
  // non-private one" semantics reads from; then the exporter's ASN is
  // prepended.
  if (!eval.as_path_overwritten) {
    if (session.remove_private_as) {
      RemovePrivateAs(tuple.as_path, config.vendor);
    }
    tuple.as_path.insert(tuple.as_path.begin(), config.bgp.asn);
  }
  // eBGP scrubbing: LOCAL_PREF is local to the receiving AS.
  tuple.local_pref = 100;

  Route route = best;
  route.protocol = Protocol::kBgp;
  route.attrs = pool.Intern(std::move(tuple));
  return route;
}

std::optional<Route> ProcessImport(Route received,
                                   const config::ViConfig& config,
                                   const config::BgpNeighbor& session,
                                   topo::NodeId from, AttrPool& pool) {
  // eBGP loop prevention: reject paths containing our own ASN.
  const std::vector<uint32_t>& as_path = received.as_path();
  if (std::find(as_path.begin(), as_path.end(), config.bgp.asn) !=
      as_path.end()) {
    return std::nullopt;
  }
  PolicyEval eval = EvalRouteMap(config.FindRouteMap(session.import_route_map),
                                 received, config.bgp.asn);
  if (!eval.accepted) return std::nullopt;
  if (eval.attrs_modified) {
    received.attrs = pool.Intern(std::move(eval.tuple));
  }
  received.learned_from = from;
  received.protocol = Protocol::kBgp;
  return received;
}

bool SuppressedByAggregate(const util::IpPrefix& prefix,
                           const config::ViConfig& config) {
  for (const config::BgpAggregate& agg : config.bgp.aggregates) {
    if (agg.summary_only && agg.prefix != prefix &&
        agg.prefix.Contains(prefix)) {
      return true;
    }
  }
  return false;
}

}  // namespace s2::cp
