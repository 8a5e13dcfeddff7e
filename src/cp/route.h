// Route value types and their wire serialization.
//
// Routes are the unit of control-plane state: nodes hold candidate routes
// per (prefix, neighbor), exchange best routes in synchronous rounds, and
// spill converged shard results to persistent storage (paper §3.1/§4.5).
// The serialization here is what sidecars ship across worker boundaries
// and what the RIB store writes to disk.
//
// A Route's BGP attributes (local-pref, MED, origin, AS path, communities)
// live in a hash-consed AttrTuple referenced through an AttrHandle
// (cp/attr.h): copies share one interned tuple per domain, and the wire
// format ships each distinct tuple once per batch through a leading
// attribute table. Malformed bytes raise util::WireFormatError instead of
// aborting or allocating absurd lengths.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cp/attr.h"
#include "topo/graph.h"
#include "util/ip.h"

namespace s2::cp {

enum class Protocol : uint8_t {
  kConnected = 0,
  kLocal = 1,  // locally originated BGP state: network / aggregate / cond-adv
  kBgp = 2,
  kOspf = 3,
};

// Route preference between protocols (lower wins), Cisco-flavoured:
// connected 0, local 5, eBGP 20, OSPF 110.
uint32_t AdminDistance(Protocol protocol);

// The private 2-byte ASN range, used by remove-private-as (§2.1 VSB).
inline constexpr uint32_t kPrivateAsnFirst = 64512;
inline constexpr uint32_t kPrivateAsnLast = 65534;
inline bool IsPrivateAsn(uint32_t asn) {
  return asn >= kPrivateAsnFirst && asn <= kPrivateAsnLast;
}

struct Route {
  util::IpPrefix prefix;
  Protocol protocol = Protocol::kBgp;

  // BGP attributes, interned per domain (a null handle is the default
  // tuple: local-pref 100, MED 0, origin IGP, empty path/communities).
  AttrHandle attrs;

  // OSPF metric.
  uint32_t metric = 0;

  // Provenance: the node that originated the prefix and the neighbor this
  // node learned it from (kInvalidNode = locally originated). The FIB
  // derives the output interface from learned_from.
  topo::NodeId origin_node = topo::kInvalidNode;
  topo::NodeId learned_from = topo::kInvalidNode;

  // AttrHandle's deep equality makes this attribute-value equality, with
  // a same-entry fast path for the common case.
  bool operator==(const Route&) const = default;

  uint32_t local_pref() const { return attrs->local_pref; }
  uint32_t med() const { return attrs->med; }
  uint8_t origin() const { return attrs->origin; }
  const std::vector<uint32_t>& as_path() const { return attrs->as_path; }
  const std::vector<uint32_t>& communities() const {
    return attrs->communities;
  }
  bool HasCommunity(uint32_t community) const {
    return attrs->HasCommunity(community);
  }

  // Copy-on-write attribute mutation: applies `fn` to a copy of the tuple
  // and re-interns the result in `pool`. Construction-site convenience
  // (origination, tests); the policy path batches its edits instead.
  template <typename Fn>
  void MutateAttrs(AttrPool& pool, Fn&& fn) {
    AttrTuple tuple = attrs.get();
    fn(tuple);
    attrs = pool.Intern(std::move(tuple));
  }

  // -------------------------------------------- memory accounting (§4.5)
  // Amortized split (DESIGN.md §4): every Route copy is charged its fixed
  // footprint; the attribute tuple's bytes (AttrTuple::SharedBytes) are
  // charged once per distinct live tuple by the owning AttrPool.
  size_t UniqueBytes() const { return 64; }

  // Diagnostic total: this copy plus its (possibly shared) tuple.
  size_t EstimateBytes() const {
    return UniqueBytes() + attrs->SharedBytes();
  }
};

// Deterministic BGP decision process over two candidates of the same
// prefix: returns true when `a` is strictly preferred over `b`.
// Order: protocol admin distance, local-pref, AS-path length, origin, MED,
// then deterministic tie-breaks (learned_from, origin_node, AS-path
// lexicographic) so results never depend on arrival order. Shared attr
// entries skip the attribute comparisons wholesale (they all tie).
bool BetterRoute(const Route& a, const Route& b);

// True when `a` and `b` tie on every multipath-relevant attribute (equal
// admin distance, local-pref, AS-path length, origin, MED, metric) and may
// share the FIB entry under ECMP.
bool EcmpEquivalent(const Route& a, const Route& b);

// One entry of a route exchange: an announcement or a withdrawal.
struct RouteUpdate {
  util::IpPrefix prefix;
  bool withdraw = false;
  Route route;  // meaningful unless withdraw

  bool operator==(const RouteUpdate&) const = default;
};

// ------------------------------------------------- per-batch attr tables
// The wire format leads every batch with a table of its distinct attribute
// tuples (value-deduplicated, first-appearance order); route entries then
// reference tuples by index, so each distinct tuple crosses a worker
// boundary or hits disk once per batch.

// Collects the distinct tuples of one serialized blob. Composite formats
// (node checkpoints, sidecar route batches) share one builder across all
// their route sections: serialize the sections into a scratch body, then
// emit the table followed by the body. Referenced routes must outlive the
// builder.
class AttrTableBuilder {
 public:
  // Index of `route`'s tuple, assigned on first use.
  uint32_t IndexOf(const Route& route);

  // Appends the table (count + tuples in index order).
  void Serialize(std::vector<uint8_t>& out) const;

  size_t distinct() const { return tuples_.size(); }
  size_t reused() const { return reused_; }

  // Credits `pool`'s attr.wire_* counters with this table's effect: the
  // distinct tuples written, the references that reused one, and the
  // bytes saved against the inline-per-route encoding.
  void CreditWireSavings(AttrPool& pool) const;

 private:
  size_t table_bytes() const;

  std::vector<const AttrTuple*> tuples_;
  std::unordered_map<const AttrTuple*, uint32_t> by_identity_;
  std::unordered_map<size_t, std::vector<uint32_t>> by_hash_;
  size_t reused_ = 0;
  // Wire bytes the inline-per-route encoding would have spent on the
  // references made so far (vs 4 bytes per reference + the table).
  size_t inline_bytes_ = 0;
};

// The decoded table: tuples re-interned into the receiving domain's pool.
class AttrTable {
 public:
  // Reads a table at `pos`, interning every tuple into `pool`. Throws
  // util::WireFormatError on truncation or absurd counts.
  static AttrTable Read(const std::vector<uint8_t>& bytes, size_t& pos,
                        AttrPool& pool);

  // Throws util::WireFormatError on an out-of-range index.
  const AttrHandle& at(uint32_t index) const;
  size_t size() const { return handles_.size(); }

 private:
  std::vector<AttrHandle> handles_;
};

// Wire format of RibStore spills: attribute table first, then the route
// entries referencing it. Deserialization re-interns into `pool` — the
// reading domain's. When `stats_pool` is non-null the serializer credits
// it with the table's dedup/wire-bytes-saved effect. (Sidecar route
// batches share one table across many sections: dist::EncodeRouteBatch.)
void SerializeRoutes(const std::vector<RouteUpdate>& updates,
                     std::vector<uint8_t>& out,
                     AttrPool* stats_pool = nullptr);
std::vector<RouteUpdate> DeserializeRoutes(const std::vector<uint8_t>& bytes,
                                           AttrPool& pool);

// Little-endian wire primitives shared by the route, RIB-state, and fault
// checkpoint serializers. The getters throw util::WireFormatError on
// truncated input.
void PutWireU32(std::vector<uint8_t>& out, uint32_t v);
uint32_t GetWireU32(const std::vector<uint8_t>& bytes, size_t& pos);
void PutWireU64(std::vector<uint8_t>& out, uint64_t v);
uint64_t GetWireU64(const std::vector<uint8_t>& bytes, size_t& pos);

// The on-wire address-family byte leading every route batch body and
// section chunk. kAfV4 selects the compact legacy encoding (u32 address +
// length, valid only when every prefix in the batch is v4 — the bytes are
// identical to the pre-v6 format modulo this one leading byte); kAfV6
// selects the generic encoding with a per-entry family byte. Any other
// value raises util::WireFormatError on read.
inline constexpr uint8_t kAfV4 = static_cast<uint8_t>(util::Family::kV4);
inline constexpr uint8_t kAfV6 = static_cast<uint8_t>(util::Family::kV6);

// A length-prefixed routes chunk, embeddable in composite formats (node
// checkpoints, sidecar route batches) that continue reading past it. The
// attribute table is the enclosing format's, shared across all its
// sections. The reader parses the chunk in place and throws
// util::WireFormatError unless the entries end exactly at its length.
void PutRoutesSection(std::vector<uint8_t>& out,
                      const std::vector<RouteUpdate>& updates,
                      AttrTableBuilder& table);
std::vector<RouteUpdate> GetRoutesSection(const std::vector<uint8_t>& bytes,
                                          size_t& pos,
                                          const AttrTable& table);

}  // namespace s2::cp
