// Reliable-delivery envelope over dist::Message (the protocol a real
// sidecar deployment needs: gRPC in the paper's testbed can lose, delay,
// duplicate, and reorder whole RPCs when links or processes misbehave).
//
// Per directed (sender worker, receiver worker) channel:
//   - data frames carry a monotonically increasing sequence number;
//   - the receiver delivers strictly in sequence order, buffering
//     out-of-order arrivals and suppressing duplicates, so the application
//     sees each shipped message exactly once, in order;
//   - the receiver returns cumulative acks; unacked frames are
//     retransmitted on a round-based timeout with capped exponential
//     backoff (fresh injector randomness per attempt, so a lossy link
//     cannot swallow a frame forever).
//
// Logical time is the global drain round: every worker drains its sidecar
// exactly once per orchestrator round (CPO phase B / DPO forward round),
// so `drains / num_workers` advances identically in every run regardless
// of thread interleaving. All methods are called under the owning
// SidecarFabric's lock; the class itself is not synchronized.
//
// For crash recovery the transport also keeps, per receiver, a replay log
// of delivered messages tagged with their delivery round, truncated at
// checkpoint barriers (fault/checkpoint.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dist/message.h"
#include "fault/injector.h"

namespace s2::fault {

// One delivered message as remembered for post-crash replay.
struct LoggedDelivery {
  int round = 0;
  dist::Message message;
};

class ReliableTransport {
 public:
  struct Stats {
    size_t data_frames = 0;       // first transmissions
    size_t retransmits = 0;
    size_t acks = 0;
    size_t wire_bytes = 0;        // payload bytes incl. retransmits
    size_t dropped = 0;           // injector-dropped frames (any kind)
    size_t duplicated = 0;
    size_t delayed = 0;
    size_t reordered = 0;
    size_t duplicates_suppressed = 0;  // receiver-side
    size_t out_of_order = 0;           // buffered for resequencing
  };

  // `injector` may be null (pure reliability, zero faults); `tuning`
  // provides the RTO parameters either way.
  ReliableTransport(uint32_t num_workers, const FaultPlan& tuning,
                    const FaultInjector* injector, bool keep_replay_log);

  // Sender path: assigns the next channel sequence number, buffers the
  // message for retransmission, and enqueues frames through the injector.
  void Ship(uint32_t from, uint32_t to, dist::Message message);

  // Receiver path: advances logical time, retransmits expired frames,
  // processes acks, and returns the in-order new messages for `worker`.
  std::vector<dist::Message> Drain(uint32_t worker);

  // True while any frame is queued (including delayed ones) or any data
  // frame is unacked — the fabric-level quiescence test.
  bool HasPending() const;

  size_t QueueDepth(uint32_t worker) const {
    return queues_[worker].size();
  }
  size_t MaxQueueDepth(uint32_t worker) const {
    return max_queue_depth_[worker];
  }
  // High-water marks survive Drain but reset with the fabric's counters
  // (SidecarFabric::ResetCounters), matching the direct-mode semantics.
  void ResetMaxQueueDepth() {
    for (size_t& high : max_queue_depth_) high = 0;
  }

  // Completed global drain rounds (drains / num_workers).
  int CurrentRound() const {
    return static_cast<int>(drains_ / num_workers_);
  }

  // Capped exponential backoff without intermediate overflow: doubling
  // stops as soon as the next step would exceed `max_rto`, so a huge
  // max_rto (e.g. INT_MAX tuning) with a high attempt count can never
  // shift past the integer range. Static for direct regression testing.
  static int RtoRoundsFor(int initial_rto, int max_rto, uint32_t attempts);

  // The injector-randomness key for the `counter`-th ack frame. Confined
  // to the top half of the sequence space ([2^63, 2^64)) even when the
  // counter itself wraps past 2^63, so ack rolls never collide with the
  // data-frame keys (channel sequences, which start at 1 and stay far
  // below 2^63). Static for boundary testing.
  static uint64_t AckFateSeq(uint64_t counter);

  // ------------------------------------------------------------ recovery
  void MarkCheckpoint(uint32_t worker) { replay_logs_[worker].clear(); }
  std::vector<LoggedDelivery> ReplayLog(uint32_t worker) const {
    return replay_logs_[worker];
  }

  const Stats& stats() const { return stats_; }

 private:
  // Frames are headers only: payloads stay in the sender's custody buffer
  // (`Pending`) until the first in-order delivery moves them out, so the
  // fault-free path copies nothing — a frame whose payload is gone can only
  // be a retransmit or duplicate the receiver suppresses by seq alone.
  struct Frame {
    enum class Kind : uint8_t { kData, kAck };
    Kind kind = Kind::kData;
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t seq = 0;  // data: channel sequence; ack: cumulative ack
    int ready_round = 0;
    bool demoted = false;  // reorder fault: deliver after the batch
  };

  struct Pending {
    dist::Message message;   // moved out at first delivery
    size_t wire_bytes = 0;   // cached for retransmit accounting
    uint32_t attempts = 0;
    int next_retry_round = 0;
  };

  struct Channel {
    // Sender side.
    uint64_t next_seq = 0;  // last assigned (sequences start at 1)
    std::map<uint64_t, Pending> unacked;
    // Receiver side.
    uint64_t delivered_cum = 0;  // highest contiguously delivered
    std::map<uint64_t, dist::Message> resequence;
    uint64_t ack_counter = 0;  // randomness stream for ack frames
    bool ack_due = false;      // data activity since the last ack
  };

  Channel& ChannelFor(uint32_t from, uint32_t to) {
    return channels_[from * num_workers_ + to];
  }
  int RtoRounds(uint32_t attempts) const {
    return RtoRoundsFor(initial_rto_, max_rto_, attempts);
  }
  void Enqueue(Frame frame);
  // Runs `frame` through the injector and enqueues the surviving copies.
  // `wire_bytes` is the payload size this transmission accounts for.
  void Transmit(Frame frame, uint64_t fate_seq, uint32_t attempt, int round,
                size_t wire_bytes);
  void DeliverData(Frame& frame, int round, std::vector<dist::Message>& out);

  uint32_t num_workers_;
  int initial_rto_;
  int max_rto_;
  const FaultInjector* injector_;
  bool keep_replay_log_;

  std::vector<std::vector<Frame>> queues_;  // per receiving worker
  std::vector<Channel> channels_;           // from * n + to
  std::vector<std::vector<LoggedDelivery>> replay_logs_;
  std::vector<size_t> max_queue_depth_;
  uint64_t drains_ = 0;
  Stats stats_;
};

}  // namespace s2::fault
