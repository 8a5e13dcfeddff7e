// Wire messages exchanged between sidecars (paper §3.2).
//
// The fabric carries route batches during control-plane simulation: a
// worker sends at most one message to each other worker per round, its
// payload a real serialized route batch (cp/route.cc wire format), so the
// cost the paper attributes to cross-worker communication —
// serialization + deserialization — is actually paid. Symbolic packets
// cross workers inside the forwarding loop (dist/domain.h) as bdd_io
// bytes and never ride the fabric.
#pragma once

#include <cstdint>
#include <vector>

#include "cp/route.h"
#include "topo/graph.h"

namespace s2::dist {

struct Message {
  topo::NodeId to_node = topo::kInvalidNode;
  topo::NodeId from_node = topo::kInvalidNode;
  std::vector<uint8_t> payload;

  // A fixed 24-byte envelope plus the payload.
  size_t WireBytes() const { return 24 + payload.size(); }
};

// One node pair's share of a route batch: the updates the real node
// `from_node` (on the sending worker) exported to its peer `to_node` (on
// the receiving worker) in one round.
struct RouteSection {
  topo::NodeId from_node = topo::kInvalidNode;
  topo::NodeId to_node = topo::kInvalidNode;
  std::vector<cp::RouteUpdate> updates;
};

// Route-batch payload codec: every section a worker ships to one
// destination worker in one round, under one attribute table — each
// distinct tuple crosses the boundary, and is re-interned into the
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

// Whole-message codec: what a process-mode worker's control channel
// carries in a kData or kDeliver frame and in a restore spec's replay log
// (dist/process.h). Append-only encode; decode throws
// util::WireFormatError on truncation and on length fields exceeding the
// remaining bytes — never aborts or allocates an absurd length.
void EncodeMessage(const Message& message, std::vector<uint8_t>& out);
Message DecodeMessage(const std::vector<uint8_t>& bytes);

}  // namespace s2::dist
