#include "dist/domain.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "fault/checkpoint.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

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
                                 const std::function<void(uint32_t)>& grow,
                                 util::ThreadPool* pool) {
  CrossingRun run;
  size_t num_domains = domains.size();
  auto each = [&](const std::function<void(size_t)>& task) {
    if (pool != nullptr) {
      pool->ParallelFor(num_domains, task);
    } else {
      for (size_t w = 0; w < num_domains; ++w) task(w);
    }
  };
  // A domain's task touches only slot w of these, so domains run in any
  // order or in parallel without changing what the ferry sees.
  std::vector<std::vector<dp::WirePacket>> inboxes(num_domains);
  std::vector<std::vector<dp::WirePacket>> outboxes(num_domains);
  std::vector<size_t> steps(num_domains, 0);
  std::vector<double> busy(num_domains, 0.0);
  auto forward = [&](size_t w) {
    dp::Domain* domain = domains[w];
    if (domain == nullptr) return;
    obs::Span span("dp", "dp.worker_forward");
    span.Arg("worker", static_cast<int64_t>(w));
    util::Stopwatch watch;
    // The receiver re-encodes its inbound packets in its own manager.
    for (const dp::WirePacket& wire : inboxes[w]) {
      domain->engine.Accept(dp::FromWire(wire, domain->manager));
    }
    inboxes[w].clear();
    domain->engine.Run([&outbox = outboxes[w]](const dp::InFlightPacket& p) {
      outbox.push_back(dp::ToWire(p));
    });
    steps[w] = domain->engine.steps();
    busy[w] = watch.ElapsedSeconds();
  };
  for (;;) {
    obs::Span round_span("dp", "dp.round");
    round_span.Arg("round", static_cast<int64_t>(run.rounds));
    each(forward);
    size_t steps_before = run.steps;
    run.steps = 0;
    double slowest = 0;
    for (size_t w = 0; w < num_domains; ++w) {
      run.steps += steps[w];
      slowest = std::max(slowest, busy[w]);
    }
    run.busy_seconds += slowest;
    ++run.rounds;
    // Ferry in ascending source order: each inbox then holds its packets
    // in the order a serial loop would accept them.
    bool crossed = false;
    for (std::vector<dp::WirePacket>& outbox : outboxes) {
      for (dp::WirePacket& wire : outbox) {
        crossed = true;
        run.comm_bytes += wire.WireBytes();
        ++run.comm_messages;
        uint32_t dest = worker_of[wire.at];
        if (domains[dest] == nullptr) {
          if (!grow) std::abort();  // packet for a worker with no domain
          grow(dest);
        }
        inboxes[dest].push_back(std::move(wire));
      }
      outbox.clear();
    }
    if (!crossed && run.steps == steps_before) break;
  }
  std::vector<std::vector<dp::SerializedFinal>> finals(num_domains);
  each([&](size_t w) {
    if (domains[w] == nullptr) return;
    for (const dp::FinalPacket& final : domains[w]->engine.finals()) {
      finals[w].push_back(dp::ToWire(final));
    }
  });
  for (std::vector<dp::SerializedFinal>& part : finals) {
    std::move(part.begin(), part.end(), std::back_inserter(run.finals));
  }
  return run;
}

}  // namespace s2::dist
