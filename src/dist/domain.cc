#include "dist/domain.h"

#include <cstdlib>

#include "fault/checkpoint.h"

namespace s2::dist {

std::unique_ptr<dp::Domain> BuildDomain(
    const std::map<topo::NodeId, std::vector<uint8_t>>& predicates,
    const dp::HeaderLayout& layout, int max_hops,
    const bdd::Manager::Options& options, bool hold_gc) {
  auto domain = std::make_unique<dp::Domain>(layout, max_hops, options);
  if (hold_gc) domain->manager.PauseGc();
  for (const auto& [id, bytes] : predicates) {
    domain->engine.AddNode(
        id, fault::DeserializePredicates(domain->manager, bytes));
  }
  return domain;
}

CrossingRun ForwardAcrossDomains(std::vector<dp::Domain*>& domains,
                                 const std::vector<uint32_t>& worker_of,
                                 const std::function<void(uint32_t)>& grow) {
  CrossingRun run;
  std::vector<dp::WirePacket> crossing;
  const dp::ForwardingEngine::RemoteEmit emit =
      [&](const dp::InFlightPacket& packet) {
        crossing.push_back(dp::ToWire(packet));
      };
  for (;;) {
    size_t steps_before = run.steps;
    run.steps = 0;
    for (dp::Domain* domain : domains) {
      if (domain == nullptr) continue;
      domain->engine.Run(emit);
      run.steps += domain->engine.steps();
    }
    ++run.rounds;
    if (crossing.empty()) {
      if (run.steps == steps_before) break;
      continue;
    }
    for (const dp::WirePacket& wire : crossing) {
      run.comm_bytes += wire.WireBytes();
      ++run.comm_messages;
      uint32_t dest = worker_of[wire.at];
      if (domains[dest] == nullptr) {
        if (!grow) std::abort();  // packet for a worker with no domain
        grow(dest);
      }
      domains[dest]->engine.Accept(dp::FromWire(wire, domains[dest]->manager));
    }
    crossing.clear();
  }
  for (dp::Domain* domain : domains) {
    if (domain == nullptr) continue;
    for (const dp::FinalPacket& final : domain->engine.finals()) {
      run.finals.push_back(dp::ToWire(final));
    }
  }
  return run;
}

}  // namespace s2::dist
