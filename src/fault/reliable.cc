#include "fault/reliable.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace s2::fault {

namespace {

// Ack frames share the injector's per-frame randomness keyed by sequence
// number; offsetting their counter into the top half of the space keeps
// their rolls independent of the data frames on the reverse channel.
constexpr uint64_t kAckSeqBase = uint64_t{1} << 63;

}  // namespace

ReliableTransport::ReliableTransport(uint32_t num_workers,
                                     const FaultPlan& tuning,
                                     const FaultInjector* injector,
                                     bool keep_replay_log)
    : num_workers_(num_workers),
      initial_rto_(std::max(1, tuning.initial_rto_rounds)),
      max_rto_(std::max(initial_rto_, tuning.max_rto_rounds)),
      injector_(injector),
      keep_replay_log_(keep_replay_log),
      queues_(num_workers),
      channels_(static_cast<size_t>(num_workers) * num_workers),
      replay_logs_(num_workers),
      max_queue_depth_(num_workers, 0) {}

int ReliableTransport::RtoRoundsFor(int initial_rto, int max_rto,
                                    uint32_t attempts) {
  int rto = std::max(1, initial_rto);
  max_rto = std::max(rto, max_rto);
  for (uint32_t i = 0; i < attempts; ++i) {
    // Stop before the doubling, not after: `rto *= 2` on a plain int is
    // signed overflow (UB) once rto crosses 2^30, which a high attempt
    // count reaches in 31 doublings whenever max_rto is set huge.
    if (rto > max_rto / 2) return max_rto;
    rto *= 2;
  }
  return std::min(rto, max_rto);
}

uint64_t ReliableTransport::AckFateSeq(uint64_t counter) {
  // Mask before offsetting: a counter past 2^63 would otherwise carry out
  // of the top half and collide with data-frame sequence keys.
  return kAckSeqBase | (counter & (kAckSeqBase - 1));
}

void ReliableTransport::Enqueue(Frame frame) {
  const uint32_t to = frame.to;
  std::vector<Frame>& queue = queues_[to];
  queue.push_back(std::move(frame));
  max_queue_depth_[to] = std::max(max_queue_depth_[to], queue.size());
}

void ReliableTransport::Transmit(Frame frame, uint64_t fate_seq,
                                 uint32_t attempt, int round,
                                 size_t wire_bytes) {
  FrameFate fate;
  if (injector_ != nullptr) {
    fate = injector_->Classify(frame.from, frame.to, fate_seq, attempt);
  }
  if (fate.drop) {
    ++stats_.dropped;
    return;
  }
  stats_.wire_bytes += wire_bytes;
  if (fate.delay_rounds > 0) ++stats_.delayed;
  if (fate.reorder) ++stats_.reordered;
  frame.ready_round = round + fate.delay_rounds;
  frame.demoted = fate.reorder;
  if (fate.duplicate) {
    ++stats_.duplicated;
    Frame copy = frame;
    copy.ready_round = round + fate.duplicate_delay_rounds;
    Enqueue(copy);
  }
  Enqueue(frame);
}

void ReliableTransport::Ship(uint32_t from, uint32_t to,
                             dist::Message message) {
  Channel& channel = ChannelFor(from, to);
  uint64_t seq = ++channel.next_seq;
  ++stats_.data_frames;

  Pending pending;
  pending.wire_bytes = message.WireBytes();
  pending.message = std::move(message);  // custody until first delivery
  pending.attempts = 0;
  // Ship happens in phase A of the round that will drain at the current
  // round index; the first ack can arrive at the sender's next drain, so
  // the earliest meaningful retry is current + initial_rto (>= 2 avoids
  // spurious retransmits on the fault-free path).
  pending.next_retry_round = CurrentRound() + RtoRounds(0);
  size_t wire_bytes = pending.wire_bytes;
  channel.unacked.emplace(seq, std::move(pending));

  Frame frame;
  frame.kind = Frame::Kind::kData;
  frame.from = from;
  frame.to = to;
  frame.seq = seq;
  Transmit(frame, seq, /*attempt=*/0, CurrentRound(), wire_bytes);
}

void ReliableTransport::DeliverData(Frame& frame, int round,
                                    std::vector<dist::Message>& out) {
  Channel& channel = ChannelFor(frame.from, frame.to);
  channel.ack_due = true;
  if (frame.seq <= channel.delivered_cum) {
    // Already delivered (injected duplicate, or retransmit of a frame
    // whose ack was lost). Suppress; the cumulative ack re-covers it.
    ++stats_.duplicates_suppressed;
    return;
  }
  if (frame.seq > channel.delivered_cum + 1) {
    // Gap: park for resequencing until the missing frames arrive. A second
    // arrival of a parked seq finds its custody payload already moved, so
    // check the park first.
    if (channel.resequence.count(frame.seq) != 0) {
      ++stats_.duplicates_suppressed;
      return;
    }
    // Park the sender's custody copy (moved, never copied).
    channel.resequence.emplace(
        frame.seq, std::move(channel.unacked.at(frame.seq).message));
    ++stats_.out_of_order;
    return;
  }
  // In-sequence: deliver, then flush any now-contiguous parked frames.
  // The payload moves out of sender custody (zero-copy fast path).
  uint32_t receiver = frame.to;
  auto deliver = [&](dist::Message message) {
    if (keep_replay_log_) {
      replay_logs_[receiver].push_back(LoggedDelivery{round, message});
    }
    out.push_back(std::move(message));
    ++channel.delivered_cum;
  };
  deliver(std::move(channel.unacked.at(frame.seq).message));
  auto it = channel.resequence.begin();
  while (it != channel.resequence.end() &&
         it->first == channel.delivered_cum + 1) {
    deliver(std::move(it->second));
    it = channel.resequence.erase(it);
  }
}

std::vector<dist::Message> ReliableTransport::Drain(uint32_t worker) {
  const int round = CurrentRound();
  ++drains_;

  // Split the queue into frames matured this round (preserving arrival
  // order, reorder-demoted ones last) and frames still delayed. Fast path:
  // without delay/reorder faults (always at zero fault rate) the whole
  // queue matures in arrival order and no partition copies are needed.
  std::vector<Frame> matured;
  bool plain = true;
  for (const Frame& frame : queues_[worker]) {
    if (frame.ready_round > round || frame.demoted) {
      plain = false;
      break;
    }
  }
  if (plain) {
    matured = std::move(queues_[worker]);
    queues_[worker].clear();
  } else {
    std::vector<Frame> demoted;
    std::vector<Frame> rest;
    for (Frame& frame : queues_[worker]) {
      if (frame.ready_round > round) {
        rest.push_back(std::move(frame));
      } else if (frame.demoted) {
        demoted.push_back(std::move(frame));
      } else {
        matured.push_back(std::move(frame));
      }
    }
    queues_[worker] = std::move(rest);
    std::move(demoted.begin(), demoted.end(), std::back_inserter(matured));
  }

  std::vector<dist::Message> out;
  for (Frame& frame : matured) {
    if (frame.kind == Frame::Kind::kAck) {
      // frame.seq is the cumulative ack for the worker->frame.from channel.
      Channel& channel = ChannelFor(worker, frame.from);
      channel.unacked.erase(channel.unacked.begin(),
                            channel.unacked.upper_bound(frame.seq));
    } else {
      DeliverData(frame, round, out);
    }
  }

  // Retransmit expired frames on this worker's outbound channels, with
  // fresh per-attempt injector randomness and doubled (capped) timeout.
  for (uint32_t to = 0; to < num_workers_; ++to) {
    Channel& channel = ChannelFor(worker, to);
    for (auto& [seq, pending] : channel.unacked) {
      if (pending.next_retry_round > round) continue;
      ++pending.attempts;
      pending.next_retry_round = round + RtoRounds(pending.attempts);
      ++stats_.retransmits;
      Frame frame;
      frame.kind = Frame::Kind::kData;
      frame.from = worker;
      frame.to = to;
      frame.seq = seq;
      // Retransmits mature from the next round: the current round's drains
      // may already be past on other threads.
      Transmit(frame, seq, pending.attempts, round + 1, pending.wire_bytes);
    }
  }

  // Emit cumulative acks for every inbound channel with data activity this
  // drain. Acks are fire-and-forget: a lost ack is recovered by the data
  // retransmit, which re-triggers it.
  for (uint32_t from = 0; from < num_workers_; ++from) {
    Channel& channel = ChannelFor(from, worker);
    if (!channel.ack_due) continue;
    channel.ack_due = false;
    ++stats_.acks;
    Frame frame;
    frame.kind = Frame::Kind::kAck;
    frame.from = worker;
    frame.to = from;
    frame.seq = channel.delivered_cum;
    Transmit(frame, AckFateSeq(channel.ack_counter++),
             /*attempt=*/0, round + 1, /*wire_bytes=*/0);
  }
  return out;
}

bool ReliableTransport::HasPending() const {
  // Quiescence means no *application* message is still undelivered. Settled
  // bookkeeping — queued ack frames, in-flight duplicates of frames the
  // receiver already delivered, and retransmit buffers fully covered by
  // delivered_cum — is flushed lazily by later drains and must not hold a
  // phase barrier open: it lags data by one round, so counting it would
  // cost every pass a trailing no-op round (bench/fault_overhead counts
  // those against the <10% zero-fault budget).
  for (const std::vector<Frame>& queue : queues_) {
    for (const Frame& frame : queue) {
      if (frame.kind != Frame::Kind::kData) continue;
      const Channel& channel =
          channels_[static_cast<size_t>(frame.from) * num_workers_ +
                    frame.to];
      if (frame.seq > channel.delivered_cum) return true;
    }
  }
  for (const Channel& channel : channels_) {
    // Highest unacked seq undelivered => data is still missing somewhere
    // (dropped, delayed, or parked for resequencing) and a retransmit may
    // be needed.
    if (!channel.unacked.empty() &&
        channel.unacked.rbegin()->first > channel.delivered_cum) {
      return true;
    }
  }
  return false;
}

}  // namespace s2::fault
