#include "dist/worker.h"

#include "dist/domain.h"
#include "dp/fib.h"
#include "util/status.h"

namespace s2::dist {

Worker::Worker(uint32_t index, const config::ParsedNetwork& network,
               SidecarFabric* fabric, Options options)
    : index_(index),
      network_(&network),
      fabric_(fabric),
      options_(options),
      tracker_("worker-" + std::to_string(index), options.memory_budget),
      attr_pool_(&tracker_) {
  for (topo::NodeId id = 0; id < network.configs.size(); ++id) {
    if (fabric_->WorkerOf(id) == index_) {
      local_.push_back(id);
      nodes_.emplace(id, std::make_unique<cp::Node>(id, network, &tracker_,
                                                    &attr_pool_));
    }
  }
  // Shadow every remote switch adjacent to a local one, and note the
  // sessions whose peer has no session back: that peer never pulls them.
  for (topo::NodeId id : local_) {
    for (const cp::Node::Session& session : nodes_.at(id)->sessions()) {
      if (!IsLocal(session.peer) && !shadows_.count(session.peer)) {
        shadows_.emplace(session.peer, ShadowNode(session.peer));
      }
      bool pulled = false;
      for (const config::BgpNeighbor& back :
           network.configs[session.peer].bgp.neighbors) {
        pulled = pulled || network.FindByAddress(back.peer_address) == id;
      }
      if (!pulled) one_sided_.insert({id, session.peer});
    }
  }
}

// ---------------------------------------------------------- control plane

void Worker::BeginOspf() {
  for (topo::NodeId id : local_) nodes_.at(id)->BeginOspf();
}

void Worker::FinishOspf() {
  for (topo::NodeId id : local_) nodes_.at(id)->FinishOspf();
}

void Worker::BeginBgp(const cp::PrefixSet* shard) {
  for (topo::NodeId id : local_) nodes_.at(id)->BeginBgp(shard);
}

bool Worker::ComputeAndShip() { return ComputeAndShipImpl(false); }

bool Worker::ComputeAndShipImpl(bool suppress_remote) {
  util::Stopwatch watch;
  bool any = false;
  for (topo::NodeId id : local_) {
    any = nodes_.at(id)->ComputeRound() || any;
  }
  // Ship outboxes: local deliveries are buffered for phase B; remote ones
  // are gathered per destination worker and sent as one route batch each,
  // in ascending destination order. During post-crash replay remote sends
  // are suppressed — they were shipped before the crash and live on in
  // the surviving sidecar — but outboxes are still drained.
  std::vector<std::vector<RouteSection>> outgoing(fabric_->num_workers());
  for (topo::NodeId id : local_) {
    cp::Node& node = *nodes_.at(id);
    for (const cp::Node::Session& session : node.sessions()) {
      std::vector<cp::RouteUpdate> updates =
          node.TakeUpdatesFor(session.peer);
      // A one-sided session's updates are never pulled, as in the
      // monolithic engine, so they are not shipped either.
      if (updates.empty() || one_sided_.count({id, session.peer}) != 0) {
        continue;
      }
      if (IsLocal(session.peer)) {
        auto& box = local_pending_[{session.peer, id}];
        box.insert(box.end(), std::make_move_iterator(updates.begin()),
                   std::make_move_iterator(updates.end()));
      } else if (!suppress_remote) {
        outgoing[fabric_->WorkerOf(session.peer)].push_back(
            RouteSection{id, session.peer, std::move(updates)});
      }
    }
  }
  for (std::vector<RouteSection>& sections : outgoing) {
    if (sections.empty()) continue;
    Message message;
    message.to_node = sections.front().to_node;
    message.from_node = sections.front().from_node;
    EncodeRouteBatch(sections, message.payload, &attr_pool_);
    fabric_->Send(index_, std::move(message));
  }
  last_phase_seconds_ = watch.ElapsedSeconds();
  return any;
}

void Worker::Deliver() {
  util::Stopwatch watch;
  DeliverBatch(fabric_->Drain(index_));
  last_phase_seconds_ = watch.ElapsedSeconds();
}

void Worker::DeliverBatch(std::vector<Message> messages) {
  for (Message& message : messages) {
    // Re-intern into this worker's pool: each distinct tuple in the batch
    // crossed the boundary once and costs one intern here.
    for (RouteSection& section :
         DecodeRouteBatch(message.payload, attr_pool_)) {
      auto shadow = shadows_.find(section.from_node);
      if (shadow == shadows_.end() || nodes_.count(section.to_node) == 0) {
        throw util::WireFormatError(
            "route section from node " + std::to_string(section.from_node) +
            " to node " + std::to_string(section.to_node) +
            " does not reach worker " + std::to_string(index_));
      }
      shadow->second.Deliver(section.to_node, std::move(section.updates));
    }
  }
  // Every local node pulls from each neighbor, agnostic of whether the
  // neighbor is a real node (same worker) or a shadow (paper Alg. 1).
  for (topo::NodeId id : local_) {
    cp::Node& node = *nodes_.at(id);
    for (const cp::Node::Session& session : node.sessions()) {
      std::vector<cp::RouteUpdate> updates;
      if (IsLocal(session.peer)) {
        auto it = local_pending_.find({id, session.peer});
        if (it != local_pending_.end()) {
          updates = std::move(it->second);
          local_pending_.erase(it);
        }
      } else {
        updates = shadows_.at(session.peer).TakeUpdatesFor(id);
      }
      if (!updates.empty()) {
        node.ReceiveUpdates(session.peer, std::move(updates));
      }
    }
  }
}

void Worker::SpillBgp(cp::RibStore& store, int shard) {
  for (topo::NodeId id : local_) nodes_.at(id)->SpillBgp(store, shard);
}

void Worker::RetainBgp() {
  for (topo::NodeId id : local_) nodes_.at(id)->RetainBgp();
}

// ------------------------------------------------------------- data plane

bdd::Manager::Options Worker::DomainOptions() {
  bdd::Manager::Options manager;
  manager.max_nodes = options_.max_bdd_nodes;
  manager.tracker = &tracker_;
  return manager;
}

void Worker::BuildNodeDataPlane(topo::NodeId id, const cp::RibStore* store) {
  const cp::Node& node = *nodes_.at(id);
  std::map<util::IpPrefix, std::vector<cp::Route>> from_store;
  const auto* bgp = &node.bgp_routes();
  if (store != nullptr) {
    from_store = store->ReadAll(id, attr_pool_);
    bgp = &from_store;
  }
  dp::Fib fib =
      dp::Fib::Build(*network_, id, *bgp, node.ospf_routes(), &tracker_);
  fib_bytes_ += fib.EstimateBytes();
  node_fib_bytes_[id] = fib.EstimateBytes();
  fib_edges_[id] = fib.ForwardEdges();
  dp_->engine.AddNode(
      id, dp::BuildPredicates(*network_, id, fib, dp_->engine.codec()));
}

void Worker::BuildDataPlane(const cp::RibStore* store) {
  util::Stopwatch watch;
  dp_ = std::make_unique<dp::Domain>(options_.layout, options_.max_hops,
                                     DomainOptions());
  for (topo::NodeId id : local_) BuildNodeDataPlane(id, store);
  predicate_seconds_ += watch.ElapsedSeconds();
  last_phase_seconds_ = watch.ElapsedSeconds();
}

void Worker::BuildDataPlaneHybrid(
    const cp::RibStore* store, const std::unordered_set<topo::NodeId>& rebuild,
    const ReusableDataPlane& reuse) {
  ResetDataPlane();
  util::Stopwatch watch;
  dp_ = std::make_unique<dp::Domain>(options_.layout, options_.max_hops,
                                     DomainOptions());
  for (topo::NodeId id : local_) {
    if (rebuild.count(id) == 0) {
      // The scenario provably left this node's converged FIB untouched:
      // re-encode the base run's canonical predicate bytes instead of
      // recomputing, and adopt its forward edges and FIB accounting.
      dp_->engine.AddNode(id, fault::DeserializePredicates(
                                  dp_->manager, reuse.predicates->at(id)));
      size_t bytes = reuse.fib_bytes->at(id);
      tracker_.Charge(bytes);
      fib_bytes_ += bytes;
      node_fib_bytes_[id] = bytes;
      fib_edges_[id] = reuse.fib_edges->at(id);
      continue;
    }
    BuildNodeDataPlane(id, store);
  }
  predicate_seconds_ += watch.ElapsedSeconds();
  last_phase_seconds_ = watch.ElapsedSeconds();
}

std::map<topo::NodeId, std::vector<uint8_t>> Worker::SnapshotPredicates(
    const std::unordered_set<topo::NodeId>* only) const {
  std::map<topo::NodeId, std::vector<uint8_t>> snapshot;
  for (topo::NodeId id : local_) {
    if (only != nullptr && only->count(id) == 0) continue;
    snapshot[id] =
        fault::SerializePredicates(dp_->engine.node_predicates(id));
  }
  return snapshot;
}

void Worker::ResetDataPlane() {
  dp_.reset();
  fib_edges_.clear();
  node_fib_bytes_.clear();
  if (fib_bytes_ > 0) {
    tracker_.Release(fib_bytes_);
    fib_bytes_ = 0;
  }
}

// ---------------------------------------------- crash recovery (src/fault)

fault::WorkerCheckpoint Worker::Checkpoint(int shard) const {
  fault::WorkerCheckpoint checkpoint;
  checkpoint.shard = shard;
  for (topo::NodeId id : local_) {
    nodes_.at(id)->SerializeState(checkpoint.node_state[id]);
  }
  return checkpoint;
}

void Worker::CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) const {
  checkpoint.has_data_plane = true;
  checkpoint.fib_bytes = fib_bytes_;
  checkpoint.predicate_state.clear();
  for (topo::NodeId id : local_) {
    checkpoint.predicate_state[id] =
        fault::SerializePredicates(dp_->engine.node_predicates(id));
  }
}

void Worker::Restore(const fault::WorkerCheckpoint& checkpoint,
                     const cp::PrefixSet* shard) {
  for (topo::NodeId id : local_) {
    nodes_.at(id)->RestoreState(checkpoint.node_state.at(id), shard);
  }
}

void Worker::ReplayDelivered(int from_round, int to_round,
                             const std::vector<fault::LoggedDelivery>& log) {
  size_t i = 0;
  for (int round = from_round; round < to_round; ++round) {
    ComputeAndShipImpl(/*suppress_remote=*/true);
    std::vector<Message> batch;
    while (i < log.size() && log[i].round <= round) {
      batch.push_back(log[i++].message);
    }
    DeliverBatch(std::move(batch));
  }
}

void Worker::RestoreDataPlane(const fault::WorkerCheckpoint& checkpoint) {
  util::Stopwatch watch;
  dp_ = BuildDomain(checkpoint.predicate_state, options_.layout,
                    options_.max_hops, DomainOptions());
  // Checkpoints carry predicate bytes, not FIBs, so the forward-edge index
  // is lost on recovery (see fib_edges() in the header).
  fib_edges_.clear();
  fib_bytes_ = checkpoint.fib_bytes;
  tracker_.Charge(fib_bytes_);
  predicate_seconds_ += watch.ElapsedSeconds();
}

}  // namespace s2::dist
