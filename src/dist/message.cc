#include "dist/message.h"

#include "cp/route.h"
#include "util/status.h"

namespace s2::dist {

void EncodeRouteBatch(const std::vector<RouteSection>& sections,
                      std::vector<uint8_t>& payload,
                      cp::AttrPool* stats_pool) {
  // The sections go into a scratch body while the builder collects the
  // batch's distinct tuples; the table then leads the payload.
  cp::AttrTableBuilder table;
  std::vector<uint8_t> body;
  cp::PutWireU32(body, static_cast<uint32_t>(sections.size()));
  for (const RouteSection& section : sections) {
    cp::PutWireU32(body, section.from_node);
    cp::PutWireU32(body, section.to_node);
    cp::PutRoutesSection(body, section.updates, table);
  }
  table.Serialize(payload);
  payload.insert(payload.end(), body.begin(), body.end());
  if (stats_pool != nullptr) table.CreditWireSavings(*stats_pool);
}

std::vector<RouteSection> DecodeRouteBatch(
    const std::vector<uint8_t>& payload, cp::AttrPool& pool) {
  size_t pos = 0;
  cp::AttrTable table = cp::AttrTable::Read(payload, pos, pool);
  uint32_t count = cp::GetWireU32(payload, pos);
  // A section is at least two node ids, a length and an empty routes
  // body (family byte + count).
  constexpr size_t kMinSectionBytes = 17;
  if (count > (payload.size() - pos) / kMinSectionBytes) {
    throw util::WireFormatError("route batch count exceeds payload");
  }
  std::vector<RouteSection> sections(count);
  for (RouteSection& section : sections) {
    section.from_node = cp::GetWireU32(payload, pos);
    section.to_node = cp::GetWireU32(payload, pos);
    section.updates = cp::GetRoutesSection(payload, pos, table);
  }
  if (pos != payload.size()) {
    throw util::WireFormatError("trailing bytes after route batch");
  }
  return sections;
}

void EncodePacketBatch(const std::vector<dp::WirePacket>& frames,
                       std::vector<uint8_t>& payload) {
  cp::PutWireU32(payload, static_cast<uint32_t>(frames.size()));
  for (const dp::WirePacket& frame : frames) {
    cp::PutWireU32(payload, frame.at);
    cp::PutWireU32(payload, frame.from);
    cp::PutWireU32(payload, frame.src);
    cp::PutWireU32(payload, static_cast<uint32_t>(frame.hops));
    cp::PutWireU32(payload, static_cast<uint32_t>(frame.path.size()));
    for (topo::NodeId node : frame.path) cp::PutWireU32(payload, node);
    cp::PutWireU32(payload, static_cast<uint32_t>(frame.set.size()));
    payload.insert(payload.end(), frame.set.begin(), frame.set.end());
  }
}

std::vector<dp::WirePacket> DecodePacketBatch(
    const std::vector<uint8_t>& payload) {
  std::vector<dp::WirePacket> frames;
  size_t pos = 0;
  uint32_t count = cp::GetWireU32(payload, pos);
  // Each frame is at least 6 u32s; validate before reserving so a corrupt
  // count field can't balloon the allocation.
  constexpr size_t kMinFrameBytes = 24;
  if (count > (payload.size() - pos) / kMinFrameBytes) {
    throw util::WireFormatError("packet batch count exceeds payload");
  }
  frames.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    dp::WirePacket frame;
    frame.at = cp::GetWireU32(payload, pos);
    frame.from = cp::GetWireU32(payload, pos);
    frame.src = cp::GetWireU32(payload, pos);
    frame.hops = static_cast<int>(cp::GetWireU32(payload, pos));
    uint32_t path_len = cp::GetWireU32(payload, pos);
    if (path_len > (payload.size() - pos) / 4) {
      throw util::WireFormatError("packet path length exceeds payload");
    }
    frame.path.reserve(path_len);
    for (uint32_t p = 0; p < path_len; ++p) {
      frame.path.push_back(cp::GetWireU32(payload, pos));
    }
    uint32_t set_len = cp::GetWireU32(payload, pos);
    if (set_len > payload.size() - pos) {
      throw util::WireFormatError("packet BDD section exceeds payload");
    }
    frame.set.assign(payload.begin() + pos, payload.begin() + pos + set_len);
    pos += set_len;
    frames.push_back(std::move(frame));
  }
  return frames;
}

void EncodeMessage(const Message& message, std::vector<uint8_t>& out) {
  out.push_back(static_cast<uint8_t>(message.type));
  cp::PutWireU32(out, message.to_node);
  cp::PutWireU32(out, message.from_node);
  cp::PutWireU32(out, message.packet_src);
  cp::PutWireU32(out, static_cast<uint32_t>(message.packet_hops));
  cp::PutWireU32(out, static_cast<uint32_t>(message.packet_path.size()));
  for (topo::NodeId node : message.packet_path) cp::PutWireU32(out, node);
  cp::PutWireU32(out, static_cast<uint32_t>(message.payload.size()));
  out.insert(out.end(), message.payload.begin(), message.payload.end());
}

Message DecodeMessage(const std::vector<uint8_t>& bytes) {
  Message message;
  size_t pos = 0;
  if (bytes.empty()) {
    throw util::WireFormatError("empty message frame");
  }
  uint8_t type = bytes[pos++];
  if (type > static_cast<uint8_t>(MessageType::kPacketBatch)) {
    throw util::WireFormatError("unknown message type " +
                                std::to_string(type));
  }
  message.type = static_cast<MessageType>(type);
  message.to_node = cp::GetWireU32(bytes, pos);
  message.from_node = cp::GetWireU32(bytes, pos);
  message.packet_src = cp::GetWireU32(bytes, pos);
  message.packet_hops = static_cast<int>(cp::GetWireU32(bytes, pos));
  uint32_t path_len = cp::GetWireU32(bytes, pos);
  if (path_len > (bytes.size() - pos) / 4) {
    throw util::WireFormatError("message path length " +
                                std::to_string(path_len) +
                                " exceeds the frame");
  }
  message.packet_path.reserve(path_len);
  for (uint32_t i = 0; i < path_len; ++i) {
    message.packet_path.push_back(cp::GetWireU32(bytes, pos));
  }
  uint32_t payload_len = cp::GetWireU32(bytes, pos);
  if (payload_len > bytes.size() - pos) {
    throw util::WireFormatError("message payload length " +
                                std::to_string(payload_len) +
                                " exceeds the frame");
  }
  message.payload.assign(bytes.begin() + static_cast<ptrdiff_t>(pos),
                         bytes.begin() + static_cast<ptrdiff_t>(pos) +
                             payload_len);
  pos += payload_len;
  if (pos != bytes.size()) {
    throw util::WireFormatError("trailing bytes after message frame");
  }
  return message;
}

}  // namespace s2::dist
