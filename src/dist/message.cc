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

void EncodeMessage(const Message& message, std::vector<uint8_t>& out) {
  cp::PutWireU32(out, message.to_node);
  cp::PutWireU32(out, message.from_node);
  cp::PutWireU32(out, static_cast<uint32_t>(message.payload.size()));
  out.insert(out.end(), message.payload.begin(), message.payload.end());
}

Message DecodeMessage(const std::vector<uint8_t>& bytes) {
  Message message;
  size_t pos = 0;
  message.to_node = cp::GetWireU32(bytes, pos);
  message.from_node = cp::GetWireU32(bytes, pos);
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
