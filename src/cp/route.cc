#include "cp/route.h"

#include <algorithm>

#include "util/status.h"

namespace s2::cp {

uint32_t AdminDistance(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected:
      return 0;
    case Protocol::kLocal:
      return 5;
    case Protocol::kBgp:
      return 20;
    case Protocol::kOspf:
      return 110;
  }
  return 255;
}

bool BetterRoute(const Route& a, const Route& b) {
  uint32_t ad_a = AdminDistance(a.protocol), ad_b = AdminDistance(b.protocol);
  if (ad_a != ad_b) return ad_a < ad_b;
  if (a.protocol == Protocol::kOspf && b.protocol == Protocol::kOspf) {
    if (a.metric != b.metric) return a.metric < b.metric;
  }
  // Shared attr entry: every attribute comparison ties, skip to the
  // provenance tie-breaks. Entry identity never decides an ordering.
  const bool same_attrs = a.attrs.SameEntry(b.attrs);
  if (!same_attrs) {
    const AttrTuple& ta = *a.attrs;
    const AttrTuple& tb = *b.attrs;
    if (ta.local_pref != tb.local_pref) return ta.local_pref > tb.local_pref;
    if (ta.as_path.size() != tb.as_path.size()) {
      return ta.as_path.size() < tb.as_path.size();
    }
    if (ta.origin != tb.origin) return ta.origin < tb.origin;
    if (ta.med != tb.med) return ta.med < tb.med;
  }
  if (a.learned_from != b.learned_from) return a.learned_from < b.learned_from;
  if (a.origin_node != b.origin_node) return a.origin_node < b.origin_node;
  return !same_attrs && a.as_path() < b.as_path();
}

bool EcmpEquivalent(const Route& a, const Route& b) {
  if (AdminDistance(a.protocol) != AdminDistance(b.protocol) ||
      a.metric != b.metric) {
    return false;
  }
  if (a.attrs.SameEntry(b.attrs)) return true;
  const AttrTuple& ta = *a.attrs;
  const AttrTuple& tb = *b.attrs;
  return ta.local_pref == tb.local_pref &&
         ta.as_path.size() == tb.as_path.size() && ta.origin == tb.origin &&
         ta.med == tb.med;
}

void PutWireU32(std::vector<uint8_t>& out, uint32_t v) {
  const uint8_t bytes[4] = {
      static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
      static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
  out.insert(out.end(), bytes, bytes + 4);
}

uint32_t GetWireU32(const std::vector<uint8_t>& in, size_t& pos) {
  if (pos + 4 > in.size()) {
    throw util::WireFormatError("truncated u32 at offset " +
                                std::to_string(pos));
  }
  uint32_t v = uint32_t{in[pos]} | (uint32_t{in[pos + 1]} << 8) |
               (uint32_t{in[pos + 2]} << 16) | (uint32_t{in[pos + 3]} << 24);
  pos += 4;
  return v;
}

void PutWireU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t GetWireU64(const std::vector<uint8_t>& in, size_t& pos) {
  if (pos + 8 > in.size()) {
    throw util::WireFormatError("truncated u64 at offset " +
                                std::to_string(pos));
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t{in[pos + i]} << (8 * i);
  }
  pos += 8;
  return v;
}

namespace {

void PutU32(std::vector<uint8_t>& out, uint32_t v) { PutWireU32(out, v); }

uint32_t GetU32(const std::vector<uint8_t>& in, size_t& pos) {
  return GetWireU32(in, pos);
}

uint8_t GetU8(const std::vector<uint8_t>& in, size_t& pos) {
  if (pos >= in.size()) {
    throw util::WireFormatError("truncated u8 at offset " +
                                std::to_string(pos));
  }
  return in[pos++];
}

void PutU32List(std::vector<uint8_t>& out, const std::vector<uint32_t>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (uint32_t x : v) PutU32(out, x);
}

std::vector<uint32_t> GetU32List(const std::vector<uint8_t>& in,
                                 size_t& pos) {
  uint32_t n = GetU32(in, pos);
  // Validate the length against the bytes actually present before
  // reserving: an absurd length field must error, not allocate.
  if (n > (in.size() - pos) / 4) {
    throw util::WireFormatError("u32 list of " + std::to_string(n) +
                                " exceeds " +
                                std::to_string(in.size() - pos) +
                                " remaining bytes");
  }
  std::vector<uint32_t> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) v.push_back(GetU32(in, pos));
  return v;
}

// Inline encoding cost of one tuple's attributes in the pre-table format:
// local_pref + med (4 each), origin (1), two length-prefixed u32 lists.
size_t InlineAttrBytes(const AttrTuple& tuple) {
  return 17 + 4 * tuple.as_path.size() + 4 * tuple.communities.size();
}

void PutTuple(std::vector<uint8_t>& out, const AttrTuple& tuple) {
  PutU32(out, tuple.local_pref);
  PutU32(out, tuple.med);
  out.push_back(tuple.origin);
  PutU32List(out, tuple.as_path);
  PutU32List(out, tuple.communities);
}

// The smallest possible wire footprints, used to validate counts before
// reserving (every tuple is at least 17 bytes; a route entry is at least
// a withdraw: 6 bytes in the compact v4 encoding, 7 in the generic one
// with its per-entry family byte).
constexpr size_t kMinTupleBytes = 17;
constexpr size_t kMinRouteBytesV4 = 6;
constexpr size_t kMinRouteBytesGeneric = 7;

void PutPrefixGeneric(std::vector<uint8_t>& out,
                      const util::IpPrefix& prefix) {
  out.push_back(static_cast<uint8_t>(prefix.family()));
  if (prefix.IsV4()) {
    PutU32(out, prefix.address().V4Bits());
  } else {
    PutWireU64(out, prefix.address().Lo());
    PutWireU64(out, prefix.address().Hi());
  }
  out.push_back(prefix.length());
}

util::IpPrefix GetPrefixGeneric(const std::vector<uint8_t>& bytes,
                                size_t& pos) {
  uint8_t af = GetU8(bytes, pos);
  if (af == kAfV4) {
    uint32_t addr = GetU32(bytes, pos);
    uint8_t length = GetU8(bytes, pos);
    return util::IpPrefix(util::IpAddress(addr), length);
  }
  if (af == kAfV6) {
    uint64_t lo = GetWireU64(bytes, pos);
    uint64_t hi = GetWireU64(bytes, pos);
    uint8_t length = GetU8(bytes, pos);
    return util::IpPrefix(util::IpAddress::V6(hi, lo), length);
  }
  throw util::WireFormatError("unknown address family " +
                              std::to_string(af) + " at offset " +
                              std::to_string(pos - 1));
}

// Routes-only body: the address-family byte, then count + entries
// referencing `table` by index. The batch uses the compact v4 encoding
// exactly when every prefix in it is v4 — byte-identical to the pre-v6
// format modulo the leading AF byte.
void PutRoutesBody(std::vector<uint8_t>& out,
                   const std::vector<RouteUpdate>& updates,
                   AttrTableBuilder& table) {
  bool all_v4 = true;
  for (const RouteUpdate& update : updates) {
    all_v4 = all_v4 && update.prefix.IsV4();
  }
  out.push_back(all_v4 ? kAfV4 : kAfV6);
  PutU32(out, static_cast<uint32_t>(updates.size()));
  for (const RouteUpdate& update : updates) {
    if (all_v4) {
      PutU32(out, update.prefix.address().V4Bits());
      out.push_back(update.prefix.length());
    } else {
      PutPrefixGeneric(out, update.prefix);
    }
    out.push_back(update.withdraw ? 1 : 0);
    if (update.withdraw) continue;
    const Route& r = update.route;
    out.push_back(static_cast<uint8_t>(r.protocol));
    PutU32(out, r.metric);
    PutU32(out, r.origin_node);
    PutU32(out, r.learned_from);
    PutU32(out, table.IndexOf(r));
  }
}

std::vector<RouteUpdate> GetRoutesBody(const std::vector<uint8_t>& bytes,
                                       size_t& pos, const AttrTable& table) {
  uint8_t af = GetU8(bytes, pos);
  if (af != kAfV4 && af != kAfV6) {
    throw util::WireFormatError("unknown address family " +
                                std::to_string(af) + " at offset " +
                                std::to_string(pos - 1));
  }
  const bool compact_v4 = af == kAfV4;
  uint32_t count = GetU32(bytes, pos);
  size_t min_entry = compact_v4 ? kMinRouteBytesV4 : kMinRouteBytesGeneric;
  if (count > (bytes.size() - pos) / min_entry) {
    throw util::WireFormatError("route count " + std::to_string(count) +
                                " exceeds remaining bytes");
  }
  std::vector<RouteUpdate> updates;
  updates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RouteUpdate update;
    if (compact_v4) {
      uint32_t addr = GetU32(bytes, pos);
      uint8_t length = GetU8(bytes, pos);
      update.prefix = util::IpPrefix(util::IpAddress(addr), length);
    } else {
      update.prefix = GetPrefixGeneric(bytes, pos);
    }
    update.withdraw = GetU8(bytes, pos) != 0;
    if (!update.withdraw) {
      Route& r = update.route;
      r.prefix = update.prefix;
      r.protocol = static_cast<Protocol>(GetU8(bytes, pos));
      r.metric = GetU32(bytes, pos);
      r.origin_node = GetU32(bytes, pos);
      r.learned_from = GetU32(bytes, pos);
      r.attrs = table.at(GetU32(bytes, pos));
    }
    updates.push_back(std::move(update));
  }
  return updates;
}

}  // namespace

// ------------------------------------------------- per-batch attr tables

uint32_t AttrTableBuilder::IndexOf(const Route& route) {
  const AttrTuple& tuple = route.attrs.get();
  inline_bytes_ += InlineAttrBytes(tuple);
  // Identity fast path: the same pool entry (or the static default tuple)
  // resolves without a deep compare.
  auto identity = by_identity_.find(&tuple);
  if (identity != by_identity_.end()) {
    ++reused_;
    return identity->second;
  }
  // Value dedup: distinct entries (e.g. from different pools, or the
  // default tuple vs an equal one) still share a table slot.
  size_t hash = tuple.Hash();
  for (uint32_t index : by_hash_[hash]) {
    if (*tuples_[index] == tuple) {
      ++reused_;
      by_identity_.emplace(&tuple, index);
      return index;
    }
  }
  uint32_t index = static_cast<uint32_t>(tuples_.size());
  tuples_.push_back(&tuple);
  by_identity_.emplace(&tuple, index);
  by_hash_[hash].push_back(index);
  return index;
}

void AttrTableBuilder::Serialize(std::vector<uint8_t>& out) const {
  PutU32(out, static_cast<uint32_t>(tuples_.size()));
  for (const AttrTuple* tuple : tuples_) PutTuple(out, *tuple);
}

size_t AttrTableBuilder::table_bytes() const {
  size_t bytes = 4;
  for (const AttrTuple* tuple : tuples_) bytes += InlineAttrBytes(*tuple);
  return bytes;
}

void AttrTableBuilder::CreditWireSavings(AttrPool& pool) const {
  size_t references = distinct() + reused();
  size_t packed = table_bytes() + 4 * references;
  pool.NoteWireSavings(distinct(), reused(),
                       inline_bytes_ > packed ? inline_bytes_ - packed : 0);
}

AttrTable AttrTable::Read(const std::vector<uint8_t>& bytes, size_t& pos,
                          AttrPool& pool) {
  uint32_t count = GetU32(bytes, pos);
  if (count > (bytes.size() - pos) / kMinTupleBytes) {
    throw util::WireFormatError("attr table count " + std::to_string(count) +
                                " exceeds remaining bytes");
  }
  AttrTable table;
  table.handles_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AttrTuple tuple;
    tuple.local_pref = GetU32(bytes, pos);
    tuple.med = GetU32(bytes, pos);
    tuple.origin = GetU8(bytes, pos);
    tuple.as_path = GetU32List(bytes, pos);
    tuple.communities = GetU32List(bytes, pos);
    table.handles_.push_back(pool.Intern(std::move(tuple)));
  }
  return table;
}

const AttrHandle& AttrTable::at(uint32_t index) const {
  if (index >= handles_.size()) {
    throw util::WireFormatError("attr index " + std::to_string(index) +
                                " out of range (table size " +
                                std::to_string(handles_.size()) + ")");
  }
  return handles_[index];
}

// --------------------------------------------------------- full batches

void SerializeRoutes(const std::vector<RouteUpdate>& updates,
                     std::vector<uint8_t>& out, AttrPool* stats_pool) {
  AttrTableBuilder table;
  std::vector<uint8_t> body;
  PutRoutesBody(body, updates, table);
  table.Serialize(out);
  out.insert(out.end(), body.begin(), body.end());
  if (stats_pool != nullptr) table.CreditWireSavings(*stats_pool);
}

std::vector<RouteUpdate> DeserializeRoutes(const std::vector<uint8_t>& bytes,
                                           AttrPool& pool) {
  size_t pos = 0;
  AttrTable table = AttrTable::Read(bytes, pos, pool);
  return GetRoutesBody(bytes, pos, table);
}

void PutRoutesSection(std::vector<uint8_t>& out,
                      const std::vector<RouteUpdate>& updates,
                      AttrTableBuilder& table) {
  // Reserve the length field, write the body after it, then patch it.
  const size_t at = out.size();
  PutWireU32(out, 0);
  PutRoutesBody(out, updates, table);
  const auto len = static_cast<uint32_t>(out.size() - at - 4);
  for (size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

std::vector<RouteUpdate> GetRoutesSection(const std::vector<uint8_t>& bytes,
                                          size_t& pos,
                                          const AttrTable& table) {
  uint32_t len = GetWireU32(bytes, pos);
  if (len > bytes.size() - pos) {
    throw util::WireFormatError("routes section of " + std::to_string(len) +
                                " bytes exceeds remaining input");
  }
  const size_t start = pos;
  std::vector<RouteUpdate> updates = GetRoutesBody(bytes, pos, table);
  if (pos - start != len) {
    throw util::WireFormatError("routes section of " + std::to_string(len) +
                                " bytes holds " + std::to_string(pos - start) +
                                " bytes of entries");
  }
  return updates;
}

}  // namespace s2::cp
