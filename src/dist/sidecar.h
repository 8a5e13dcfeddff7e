// Sidecars (paper §3.2): the communication fabric between workers.
//
// Each worker (and the controller) owns a sidecar; every sidecar holds the
// node->worker assignment so a message addressed to a node is routed to
// the worker hosting it. The fabric lives in one process: in-process
// workers send into it directly, and process-mode workers
// (dist/process.h) reach it through the controller over their control
// channel. Messages are serialized bytes, queues are drained at phase
// boundaries, and per-worker sent/received byte counters feed the cost
// model (DESIGN.md substitution S3).
//
// Two delivery modes (DESIGN.md §13):
//   - direct (default): per-destination queues of Message values, moved
//     in and out with no copy;
//   - reliable: every message runs through fault::ReliableTransport
//     (sequence numbers, acks, retransmits) with an optional
//     FaultInjector perturbing frames. The sidecar survives worker
//     crashes — like the paper's separate sidecar process — so its
//     channel state and replay logs are what recovery builds on.
//
// Locking: direct mode takes one lock per destination queue, so senders
// to different workers never contend. Reliable mode keeps one fabric-wide
// lock: ReliableTransport owns cross-channel state — a global round clock
// and cumulative per-channel acks whose retransmit decisions observe every
// channel — so per-queue locks would not make its operations independent.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "dist/message.h"
#include "fault/reliable.h"

namespace s2::dist {

class SidecarFabric {
 public:
  // `assignment[node]` = worker index hosting that node.
  SidecarFabric(uint32_t num_workers, std::vector<uint32_t> assignment);

  uint32_t num_workers() const { return num_workers_; }
  uint32_t WorkerOf(topo::NodeId node) const { return assignment_[node]; }
  const std::vector<uint32_t>& assignment() const { return assignment_; }

  // Switches the fabric to reliable delivery. `injector` (may be null for
  // pure reliability) must outlive the fabric; `keep_replay_log` enables
  // the per-worker delivery log crash recovery needs. Messages already
  // queued but not yet drained migrate into the reliability envelope —
  // nothing is dropped by the switch.
  void EnableReliableDelivery(const fault::FaultPlan& tuning,
                              const fault::FaultInjector* injector,
                              bool keep_replay_log);
  bool reliable() const { return reliable_ != nullptr; }

  // Routes `message` to the sidecar of the worker hosting its to_node.
  // Thread-safe: workers send concurrently during parallel phases, and in
  // direct mode sends to distinct destinations do not serialize.
  void Send(uint32_t from_worker, Message message);

  // Drains the inbound queue of `worker`. In reliable mode this advances
  // logical time: every worker must drain exactly once per orchestrator
  // round.
  std::vector<Message> Drain(uint32_t worker);

  // True if any message is undelivered (reliable mode: also while any
  // data frame is delayed or unacked).
  bool HasPending() const;

  size_t bytes_sent_by(uint32_t worker) const;
  size_t messages_sent_by(uint32_t worker) const;
  size_t total_bytes() const;
  size_t total_messages() const;

  // High-water mark of `worker`'s inbound queue. Survives Drain; resets
  // with ResetCounters — in both delivery modes.
  size_t max_queue_depth(uint32_t worker) const;

  // Resets the per-worker counters (between phases/experiments).
  void ResetCounters();

  // Test-only: invoked with the destination worker inside the per-queue
  // critical section of a direct-mode Send. Lets concurrency tests prove
  // that holding one destination's lock does not block sends to another.
  // Not thread-safe to set while traffic flows.
  void set_send_hook(std::function<void(uint32_t)> hook) {
    send_hook_ = std::move(hook);
  }

  // ------------------------------------------------ recovery (reliable mode)
  // Truncates the replay log of `worker` (taken together with a worker
  // checkpoint at a barrier).
  void MarkCheckpoint(uint32_t worker);
  // Messages delivered to `worker` since its last checkpoint mark, tagged
  // with their delivery round.
  std::vector<fault::LoggedDelivery> ReplayLog(uint32_t worker) const;
  // Completed global drain rounds (0 in direct mode).
  int CurrentRound() const;
  // Reliability-envelope counters (zero in direct mode).
  fault::ReliableTransport::Stats transport_stats() const;

 private:
  // Direct mode: one inbound queue per worker with its own lock.
  // unique_ptr because std::mutex is immovable and the vector is sized at
  // construction.
  struct QueueShard {
    std::mutex mutex;
    std::vector<Message> queue;
  };

  uint32_t num_workers_;
  std::vector<uint32_t> assignment_;
  std::vector<std::unique_ptr<QueueShard>> queues_;  // per receiving worker
  std::vector<std::atomic<size_t>> max_queue_depth_;
  std::function<void(uint32_t)> send_hook_;
  // Counters are atomics so concurrent senders never race, even where no
  // queue lock is held.
  std::vector<std::atomic<size_t>> bytes_sent_;  // per sending worker
  std::vector<std::atomic<size_t>> messages_sent_;

  // Reliable mode only: one lock for the whole envelope (see header
  // comment for why it cannot be sharded per queue).
  mutable std::mutex reliable_mutex_;
  std::unique_ptr<fault::ReliableTransport> reliable_;
};

}  // namespace s2::dist
