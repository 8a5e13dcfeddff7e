// Shadow nodes (paper §3.1/§4.2).
//
// A worker wraps every *remote* switch adjacent to one of its own as a
// shadow node exposing the same pull interface as the real node
// (TakeUpdatesFor). Local nodes pull from neighbors without knowing
// whether they are real or shadows — the decoupling that lets S2 reuse the
// switch model unmodified. A shadow's updates materialize when the worker
// unpacks a route batch from the sidecar (dist/message.h): each section
// carries the remote real node's exports to one local node.
#pragma once

#include <map>
#include <vector>

#include "cp/route.h"

namespace s2::dist {

class ShadowNode {
 public:
  explicit ShadowNode(topo::NodeId id) : id_(id) {}

  topo::NodeId id() const { return id_; }

  // Delivery of one route-batch section: updates the remote real node
  // addressed to `local`.
  void Deliver(topo::NodeId local, std::vector<cp::RouteUpdate> updates);

  // The pull interface local nodes use — identical to cp::Node's.
  std::vector<cp::RouteUpdate> TakeUpdatesFor(topo::NodeId local);

  bool HasPending() const { return !inbox_.empty(); }

 private:
  topo::NodeId id_;
  std::map<topo::NodeId, std::vector<cp::RouteUpdate>> inbox_;
};

}  // namespace s2::dist
