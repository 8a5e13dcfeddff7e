// Symbolic packet forwarding (paper §4.3).
//
// One ForwardingEngine runs per BDD domain: the monolithic verifier has a
// single engine over all nodes; S2 gives each worker its own engine (and
// manager), and packets crossing workers are emitted through a callback,
// serialized, and re-encoded on the receiving side (§4.3, option 2).
//
// A packet is processed at a node as (Eq. 1):
//   pkt & acl_in(ingress port), then per egress port
//   pkt & fwd(port) & acl_out(port)
// with final states Arrive / Exit / Blackhole (ACL drop, Null0, no route) /
// Loop (hop budget exhausted). ECMP replicates the matching part to every
// next hop — the exhaustive all-path exploration of Fig. 11.
//
// Packet coalescing: the Eq. 1 transformation distributes over set union,
// so packets meeting at the same node with the same source and hop count
// are merged exactly (keeping the ingress port distinct only when the
// node has an ingress ACL on it). The queue is processed in ascending hop
// levels so copies fanning out over ECMP re-merge instead of exploding
// exponentially with the path count — all paths are still explored; their
// effects are shared.
#pragma once

#include <climits>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "dp/predicates.h"

namespace s2::dp {

enum class FinalState : uint8_t { kArrive, kExit, kBlackhole, kLoop };

const char* FinalStateName(FinalState state);

struct InFlightPacket {
  topo::NodeId at = topo::kInvalidNode;    // current node
  topo::NodeId from = topo::kInvalidNode;  // ingress neighbor
  topo::NodeId src = topo::kInvalidNode;   // injection source
  int hops = 0;
  bdd::Bdd set;
  // Nodes traversed so far; maintained only in path-recording mode
  // (Fig 11: enumerate concrete forwarding paths to spot path-specific
  // anomalies such as forwarding valleys).
  std::vector<topo::NodeId> path;
};

struct FinalPacket {
  topo::NodeId src;   // injection source
  topo::NodeId node;  // where the final state was reached
  FinalState state;
  bdd::Bdd set;
  std::vector<topo::NodeId> path;  // path-recording mode only
};

// Manager-independent wire forms: the units that cross domain boundaries
// (worker to worker, worker to controller) as canonical bdd_io bytes.
struct WirePacket {
  topo::NodeId at = topo::kInvalidNode;
  topo::NodeId from = topo::kInvalidNode;
  topo::NodeId src = topo::kInvalidNode;
  int hops = 0;
  std::vector<topo::NodeId> path;  // path-recording queries only
  std::vector<uint8_t> set;

  size_t WireBytes() const { return 16 + set.size() + 4 * path.size(); }
};

struct SerializedFinal {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId node = topo::kInvalidNode;
  FinalState state = FinalState::kArrive;
  std::vector<topo::NodeId> path;  // path-recording queries only
  std::vector<uint8_t> set;

  size_t WireBytes() const { return 16 + set.size() + 4 * path.size(); }
};

WirePacket ToWire(const InFlightPacket& packet);
SerializedFinal ToWire(const FinalPacket& final);
// Re-encode the set into `manager` (bdd_io canonical decode).
InFlightPacket FromWire(const WirePacket& wire, bdd::Manager& manager);
FinalPacket FromWire(const SerializedFinal& final, bdd::Manager& manager);

class ForwardingEngine {
 public:
  struct Options {
    // TTL stand-in: a packet still in flight after this many hops is
    // declared to loop.
    int max_hops = 24;
  };

  ForwardingEngine(PacketCodec codec, Options options)
      : codec_(codec), options_(options) {}

  // Registers a node owned by this domain.
  void AddNode(topo::NodeId id, NodePredicates preds);
  bool Owns(topo::NodeId id) const { return nodes_.count(id) != 0; }

  // The registered predicates of a local node (fault checkpoints hash and
  // serialize these; bdd_io's canonical encoding makes the bytes a stable
  // fingerprint of the FIB semantics).
  const NodePredicates& node_predicates(topo::NodeId id) const {
    return nodes_.at(id);
  }

  // Installs the waypoint write rule: packets traversing `node` get
  // metadata bit `meta_bit` set (§4.4).
  void SetWaypointBit(topo::NodeId node, uint32_t meta_bit);

  // Injects a fresh symbolic packet at a local node.
  void Inject(topo::NodeId at, const bdd::Bdd& set);

  // Enqueues a packet arriving from another domain.
  void Accept(InFlightPacket packet);

  // Processes the queue to quiescence. Packets whose next hop is not local
  // go through `emit` (must be non-null if any neighbor is remote).
  using RemoteEmit = std::function<void(const InFlightPacket&)>;
  void Run(const RemoteEmit& emit);

  const std::vector<FinalPacket>& finals() const { return finals_; }
  const PacketCodec& codec() const { return codec_; }

  // Clears per-query state (queue, finals, waypoint rules, step counter)
  // while keeping the registered node predicates, so consecutive queries
  // reuse the precomputed predicates as real verifiers do.
  void ResetQueryState();

  // Path-recording mode: every packet carries its node path and finals
  // report it. Coalescing is disabled (copies with different histories
  // must stay distinct), so this costs the full path-enumeration blowup —
  // meant for targeted diagnostic queries, not all-pair sweeps.
  void set_record_paths(bool record) { record_paths_ = record; }
  bool record_paths() const { return record_paths_; }

  // Union of packet sets that arrived at `node` (Zero if none).
  bdd::Bdd ArrivedAt(topo::NodeId node) const;

  size_t steps() const { return steps_; }

 private:
  // Coalescing key: (node, effective ingress, injection source). The
  // effective ingress is kInvalidNode unless the node applies an ingress
  // ACL on that port (the only way `from` can influence processing).
  using QueueKey = std::tuple<topo::NodeId, topo::NodeId, topo::NodeId>;

  // The lowest hop level with pending packets (kIdle if none), and a drain
  // of exactly that level. Forwarding only moves packets to higher levels,
  // so draining levels in ascending order merges every copy at a level
  // before the level is processed.
  static constexpr int kIdle = INT_MAX;
  int NextLevel() const;
  void DrainLevel(int level, const RemoteEmit& emit);

  void Enqueue(const InFlightPacket& packet);
  void Process(InFlightPacket packet, const RemoteEmit& emit);
  void Final(const InFlightPacket& packet, FinalState state, bdd::Bdd set);

  PacketCodec codec_;
  Options options_;
  std::unordered_map<topo::NodeId, NodePredicates> nodes_;
  std::unordered_map<topo::NodeId, uint32_t> waypoint_bits_;
  // hop level -> merged packets at that level.
  std::map<int, std::map<QueueKey, bdd::Bdd>> queue_;
  // Path-recording mode keeps distinct packets instead (no coalescing).
  std::map<int, std::vector<InFlightPacket>> path_queue_;
  std::vector<FinalPacket> finals_;
  size_t steps_ = 0;
  bool record_paths_ = false;
};

// One shared-nothing BDD domain: a private manager and the engine over it
// (one node table per worker, §4.3 option 2). Members are declared
// manager-first, so the engine's handles die before their manager.
struct Domain {
  Domain(const HeaderLayout& layout, int max_hops,
         const bdd::Manager::Options& options)
      : manager(layout.total_bits(), options),
        engine(PacketCodec(&manager, layout),
               ForwardingEngine::Options{max_hops}) {}

  bdd::Manager manager;
  ForwardingEngine engine;
};

}  // namespace s2::dp
