#include "dist/sidecar.h"

#include <utility>

#include "obs/trace.h"

namespace s2::dist {

SidecarFabric::SidecarFabric(uint32_t num_workers,
                             std::vector<uint32_t> assignment)
    : num_workers_(num_workers),
      assignment_(std::move(assignment)),
      max_queue_depth_(num_workers),
      bytes_sent_(num_workers),
      messages_sent_(num_workers) {
  queues_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<QueueShard>());
  }
}

void SidecarFabric::EnableReliableDelivery(const fault::FaultPlan& tuning,
                                           const fault::FaultInjector* injector,
                                           bool keep_replay_log) {
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  reliable_ = std::make_unique<fault::ReliableTransport>(
      num_workers_, tuning, injector, keep_replay_log);
  // Migrate messages already queued but not yet drained: dropping them on
  // the mode switch would break send/drain conservation (a worker that
  // recovers mid-phase re-enables reliability with traffic in flight).
  for (uint32_t worker = 0; worker < num_workers_; ++worker) {
    QueueShard& shard = *queues_[worker];
    std::lock_guard<std::mutex> queue_lock(shard.mutex);
    for (Message& message : shard.queue) {
      uint32_t from = message.from_node != topo::kInvalidNode &&
                              message.from_node < assignment_.size()
                          ? WorkerOf(message.from_node)
                          : worker;
      reliable_->Ship(from, worker, std::move(message));
    }
    shard.queue.clear();
  }
}

void SidecarFabric::Send(uint32_t from_worker, Message message) {
  uint32_t to_worker = WorkerOf(message.to_node);
  // Counters track application payloads (what the cost model bills); the
  // reliable envelope's retransmit/ack traffic shows in transport_stats().
  bytes_sent_[from_worker].fetch_add(message.WireBytes(),
                                     std::memory_order_relaxed);
  messages_sent_[from_worker].fetch_add(1, std::memory_order_relaxed);
  if (reliable_ != nullptr) {
    std::lock_guard<std::mutex> lock(reliable_mutex_);
    reliable_->Ship(from_worker, to_worker, std::move(message));
    return;
  }
  QueueShard& shard = *queues_[to_worker];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (send_hook_) send_hook_(to_worker);
  shard.queue.push_back(std::move(message));
  size_t depth = shard.queue.size();
  std::atomic<size_t>& high = max_queue_depth_[to_worker];
  size_t seen = high.load(std::memory_order_relaxed);
  while (depth > seen &&
         !high.compare_exchange_weak(seen, depth,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<Message> SidecarFabric::Drain(uint32_t worker) {
  obs::Span span("comms", "sidecar.drain");
  span.Arg("worker", static_cast<int64_t>(worker));
  span.Arg("reliable", reliable_ != nullptr ? 1 : 0);
  if (reliable_ != nullptr) {
    std::lock_guard<std::mutex> lock(reliable_mutex_);
    std::vector<Message> out = reliable_->Drain(worker);
    span.Arg("messages", static_cast<int64_t>(out.size()));
    return out;
  }
  std::vector<Message> out;
  {
    QueueShard& shard = *queues_[worker];
    std::lock_guard<std::mutex> lock(shard.mutex);
    out = std::move(shard.queue);
    shard.queue.clear();
  }
  span.Arg("messages", static_cast<int64_t>(out.size()));
  return out;
}

bool SidecarFabric::HasPending() const {
  if (reliable_ != nullptr) {
    std::lock_guard<std::mutex> lock(reliable_mutex_);
    return reliable_->HasPending();
  }
  for (const auto& shard : queues_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (!shard->queue.empty()) return true;
  }
  return false;
}

size_t SidecarFabric::bytes_sent_by(uint32_t worker) const {
  return bytes_sent_[worker].load(std::memory_order_relaxed);
}

size_t SidecarFabric::messages_sent_by(uint32_t worker) const {
  return messages_sent_[worker].load(std::memory_order_relaxed);
}

size_t SidecarFabric::total_bytes() const {
  size_t total = 0;
  for (const std::atomic<size_t>& b : bytes_sent_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

size_t SidecarFabric::total_messages() const {
  size_t total = 0;
  for (const std::atomic<size_t>& m : messages_sent_) {
    total += m.load(std::memory_order_relaxed);
  }
  return total;
}

size_t SidecarFabric::max_queue_depth(uint32_t worker) const {
  if (reliable_ != nullptr) {
    std::lock_guard<std::mutex> lock(reliable_mutex_);
    return reliable_->MaxQueueDepth(worker);
  }
  return max_queue_depth_[worker].load(std::memory_order_relaxed);
}

void SidecarFabric::ResetCounters() {
  for (uint32_t w = 0; w < num_workers_; ++w) {
    bytes_sent_[w].store(0, std::memory_order_relaxed);
    messages_sent_[w].store(0, std::memory_order_relaxed);
  }
  // High-water marks reset in every mode: the reliable envelope's marks
  // used to survive ResetCounters while the direct-mode marks cleared,
  // which skewed any experiment that resets between phases.
  for (std::atomic<size_t>& high : max_queue_depth_) {
    high.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  if (reliable_ != nullptr) reliable_->ResetMaxQueueDepth();
}

void SidecarFabric::MarkCheckpoint(uint32_t worker) {
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  if (reliable_ == nullptr) return;
  reliable_->MarkCheckpoint(worker);
}

std::vector<fault::LoggedDelivery> SidecarFabric::ReplayLog(
    uint32_t worker) const {
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  if (reliable_ == nullptr) return {};
  return reliable_->ReplayLog(worker);
}

int SidecarFabric::CurrentRound() const {
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  if (reliable_ == nullptr) return 0;
  return reliable_->CurrentRound();
}

fault::ReliableTransport::Stats SidecarFabric::transport_stats() const {
  std::lock_guard<std::mutex> lock(reliable_mutex_);
  if (reliable_ == nullptr) return {};
  return reliable_->stats();
}

}  // namespace s2::dist
