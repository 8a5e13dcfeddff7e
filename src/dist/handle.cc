#include "dist/handle.h"

namespace s2::dist {

LocalWorkerHandle::LocalWorkerHandle(uint32_t index,
                                     const config::ParsedNetwork& network,
                                     SidecarFabric* fabric,
                                     Worker::Options options)
    : index_(index),
      network_(&network),
      fabric_(fabric),
      options_(options),
      worker_(std::make_unique<Worker>(index, network, fabric, options)) {}

void LocalWorkerHandle::BeginOspf() { worker_->BeginOspf(); }

void LocalWorkerHandle::FinishOspf() { worker_->FinishOspf(); }

void LocalWorkerHandle::BeginBgp(const cp::PrefixSet* shard,
                                 int /*shard_index*/) {
  worker_->BeginBgp(shard);
}

bool LocalWorkerHandle::ComputeAndShip() { return worker_->ComputeAndShip(); }

void LocalWorkerHandle::Deliver() { worker_->Deliver(); }

void LocalWorkerHandle::SpillBgp(cp::RibStore& store, int shard) {
  worker_->SpillBgp(store, shard);
}

void LocalWorkerHandle::RetainBgp() { worker_->RetainBgp(); }

void LocalWorkerHandle::BuildDataPlane(const cp::RibStore* store) {
  worker_->BuildDataPlane(store);
}

std::map<topo::NodeId, std::vector<uint8_t>>
LocalWorkerHandle::SnapshotPredicates() {
  return worker_->SnapshotPredicates();
}

bool LocalWorkerHandle::has_data_plane() const {
  return worker_->has_data_plane();
}

fault::WorkerCheckpoint LocalWorkerHandle::Checkpoint(int shard) {
  return worker_->Checkpoint(shard);
}

void LocalWorkerHandle::CheckpointDataPlane(
    fault::WorkerCheckpoint& checkpoint) {
  worker_->CheckpointDataPlane(checkpoint);
}

void LocalWorkerHandle::Recover(
    const fault::WorkerCheckpoint& checkpoint, const cp::PrefixSet* shard,
    int to_round, const std::vector<fault::LoggedDelivery>& log) {
  // The worker object dies (RIBs, engines, tracker — everything in the
  // crashed process); the sidecar survives, like the paper's separate
  // sidecar process, keeping channel state and the replay log.
  worker_ = std::make_unique<Worker>(index_, *network_, fabric_, options_);
  worker_->Restore(checkpoint, shard);
  worker_->ReplayDelivered(checkpoint.fabric_round, to_round, log);
  if (checkpoint.has_data_plane) worker_->RestoreDataPlane(checkpoint);
}

double LocalWorkerHandle::last_phase_seconds() const {
  return worker_->last_phase_seconds();
}

size_t LocalWorkerHandle::live_bytes() const {
  return worker_->tracker().live_bytes();
}

size_t LocalWorkerHandle::peak_bytes() const {
  return worker_->tracker().peak_bytes();
}

void LocalWorkerHandle::ResetPeak() { worker_->tracker().ResetPeak(); }

double LocalWorkerHandle::gc_pressure() const {
  return worker_->tracker().pressure();
}

util::MemoryTracker& LocalWorkerHandle::query_tracker() {
  return worker_->tracker();
}

bdd::Manager::CacheStats LocalWorkerHandle::bdd_cache_stats() const {
  return worker_->bdd_cache_stats();
}

cp::AttrPool::Stats LocalWorkerHandle::attr_stats() const {
  return worker_->attr_pool().stats();
}

size_t LocalWorkerHandle::CountBestRoutes() const {
  size_t total = 0;
  for (topo::NodeId id : worker_->local_nodes()) {
    for (const auto& [prefix, routes] : worker_->node(id).bgp_routes()) {
      total += routes.size();
    }
  }
  return total;
}

}  // namespace s2::dist
