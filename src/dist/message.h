// Wire messages exchanged between sidecars (paper §3.2).
//
// Two kinds cross worker boundaries: route batches during control plane
// simulation and serialized symbolic packets during data plane
// verification. Both are batched per (source worker, destination worker):
// a worker sends at most one kRouteUpdates message to each other worker
// per control-plane round, and one kPacketBatch per destination per
// forwarding round. Payloads are real serialized bytes (cp/route.cc wire
// format, bdd/bdd_io.cc wire format) so the cost the paper attributes to
// cross-worker communication — serialization + deserialization — is
// actually paid.
#pragma once

#include <cstdint>
#include <vector>

#include "cp/route.h"
#include "dp/forwarding.h"
#include "topo/graph.h"

namespace s2::dist {

// kRouteUpdates carries one route batch (EncodeRouteBatch). kPacketBatch
// carries many symbolic-packet frames in one payload: a worker's engine
// typically emits several frames for the same destination worker per
// round — batching them amortizes the per-message envelope (paper §3.2,
// sidecars stream packet pages, not single packets). kSymbolicPacket
// remains for single-packet sends.
enum class MessageType : uint8_t {
  kRouteUpdates,
  kSymbolicPacket,
  kPacketBatch,
};

struct Message {
  MessageType type = MessageType::kRouteUpdates;
  topo::NodeId to_node = topo::kInvalidNode;
  topo::NodeId from_node = topo::kInvalidNode;
  // Symbolic packets carry their injection source and hop count alongside
  // the serialized BDD.
  topo::NodeId packet_src = topo::kInvalidNode;
  int packet_hops = 0;
  // Node path of the packet so far (path-recording queries only).
  std::vector<topo::NodeId> packet_path;
  std::vector<uint8_t> payload;

  size_t WireBytes() const {
    return 24 + payload.size() + 4 * packet_path.size();
  }
};

// One node pair's share of a route batch: the updates the real node
// `from_node` (on the sending worker) exported to its peer `to_node` (on
// the receiving worker) in one round.
struct RouteSection {
  topo::NodeId from_node = topo::kInvalidNode;
  topo::NodeId to_node = topo::kInvalidNode;
  std::vector<cp::RouteUpdate> updates;
};

// Route-batch payload codec (kRouteUpdates): every section a worker ships
// to one destination worker in one round, under one attribute table —
// each distinct tuple crosses the boundary, and is re-interned into the
// receiving `pool`, once per batch rather than once per session. Layout:
// the table, a u32 section count, then per section u32 from_node, u32
// to_node and a cp::PutRoutesSection chunk. The fabric routes the message
// by WorkerOf(to_node), which callers set to the first section's
// destination. `stats_pool` (may be null) is credited with the table's
// wire savings (the attr.wire_* counters). Decode throws
// util::WireFormatError on truncation, absurd counts and trailing bytes;
// whether a section's nodes belong to the receiving worker is the
// receiver's check (dist::Worker).
void EncodeRouteBatch(const std::vector<RouteSection>& sections,
                      std::vector<uint8_t>& payload,
                      cp::AttrPool* stats_pool = nullptr);
std::vector<RouteSection> DecodeRouteBatch(
    const std::vector<uint8_t>& payload, cp::AttrPool& pool);

// Packet-batch payload codec. Every frame in a batch must target nodes of
// the same worker (the fabric routes the whole message by
// WorkerOf(to_node), which callers set to the first frame's destination).
void EncodePacketBatch(const std::vector<dp::WirePacket>& frames,
                       std::vector<uint8_t>& payload);
std::vector<dp::WirePacket> DecodePacketBatch(
    const std::vector<uint8_t>& payload);

// Whole-message codec: what a process-mode worker's control channel
// carries in a kData or kDeliver frame and in a restore spec's replay log
// (dist/process.h). Append-only encode; decode throws
// util::WireFormatError on truncation, unknown message types, and length
// fields exceeding the remaining bytes — never aborts or allocates an
// absurd length.
void EncodeMessage(const Message& message, std::vector<uint8_t>& out);
Message DecodeMessage(const std::vector<uint8_t>& bytes);

}  // namespace s2::dist
