// Per-node RIB: candidate routes per (prefix, neighbor), selected best /
// ECMP sets, and the on-disk RIB store used by prefix sharding.
//
// The candidate table is the memory hog the paper's per-worker accounting
// is about: every insert/replace/erase is charged to the owning domain's
// MemoryTracker, so per-worker peaks and simulated OOM fall out of real
// bookkeeping rather than a formula.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cp/route.h"
#include "util/memory_tracker.h"

namespace s2::cp {

// A RIB for one protocol on one node. Neighbors contribute at most one
// candidate per prefix (standard BGP advertises only its best); locally
// originated state uses learned_from = kInvalidNode.
//
// With hash-consed attributes each stored Route is charged only its fixed
// footprint (Route::UniqueBytes) — the shared tuple bytes are the owning
// AttrPool's to account (DESIGN.md §4).
class Rib {
 public:
  explicit Rib(util::MemoryTracker* tracker) : tracker_(tracker) {}
  ~Rib() { Clear(); }

  Rib(const Rib&) = delete;
  Rib& operator=(const Rib&) = delete;

  // Inserts/replaces the candidate from `from` for route.prefix, moving
  // `route` into the table. Marks the prefix dirty if the candidate
  // actually changed.
  void Upsert(topo::NodeId from, Route route);

  // Removes the candidate from `from` for `prefix` (no-op if absent).
  void Withdraw(topo::NodeId from, const util::IpPrefix& prefix);

  // Recomputes best/ECMP sets for all dirty prefixes. Returns the prefixes
  // whose *best set* changed (these feed the next round's exports). ECMP
  // sets keep up to `max_paths` EcmpEquivalent routes, deterministically
  // ordered; element 0 is the single best route.
  std::vector<util::IpPrefix> RecomputeDirty(int max_paths);

  // Best/ECMP set for a prefix; nullptr if no route.
  const std::vector<Route>* Best(const util::IpPrefix& prefix) const;

  // True if a route for exactly `prefix` is present (conditional
  // advertisement's existence test).
  bool Contains(const util::IpPrefix& prefix) const {
    return best_.count(prefix) != 0;
  }

  // True if any strictly-more-specific prefix covered by `prefix` has a
  // best route (aggregate activation test).
  bool HasContributor(const util::IpPrefix& prefix) const;

  const std::map<util::IpPrefix, std::vector<Route>>& all_best() const {
    return best_;
  }

  size_t candidate_count() const { return candidate_count_; }

  // Full candidate table (fault checkpoints and diagnostics).
  const std::map<util::IpPrefix, std::map<topo::NodeId, Route>>&
  candidates() const {
    return candidates_;
  }

  // ------------------------------------------------ checkpoint (src/fault)
  // Byte-exact snapshot of candidates, best sets, AND dirty marks: restoring
  // all three makes post-crash replay reproduce the exact export deltas of
  // the lost rounds (restoring candidates alone would lose the pending
  // withdrawals of prefixes that went bestless just before a barrier).
  // The attribute table is the enclosing blob's (one per node checkpoint),
  // shared across all its route sections.
  void SerializeState(std::vector<uint8_t>& out,
                      AttrTableBuilder& table) const;
  // Restores into an empty RIB, charging the tracker for every route.
  void RestoreState(const std::vector<uint8_t>& bytes, size_t& pos,
                    const AttrTable& table);

  // Drops all state (end of a shard round: results were spilled), releasing
  // the accounted memory.
  void Clear();

 private:
  void ChargeRoute(const Route& route);
  void ReleaseRoute(const Route& route);

  util::MemoryTracker* tracker_;
  // prefix -> neighbor -> candidate. Ordered maps keep iteration (and thus
  // everything downstream) deterministic.
  std::map<util::IpPrefix, std::map<topo::NodeId, Route>> candidates_;
  std::map<util::IpPrefix, std::vector<Route>> best_;
  std::unordered_set<util::IpPrefix> dirty_;
  size_t candidate_count_ = 0;
};

// Persistent storage for converged shard results (paper §3.1: "when this
// round ends, we write it to persistent storage"). All spills append to
// one segment file per store, made on the first append under TMPDIR as
// `s2-ribstore-<pid>-XXXXXX` and unlinked at once, so nothing outlives
// the process however it ends. An index maps (shard, node) to the blob's
// extent and lists each node's shards in first-write order; reads pread
// just those extents. Create, write and read failures throw
// util::StorageError (operation + errno text): RunStatus::kStorageError.
class RibStore {
 public:
  RibStore() = default;

  // An overlay store: ReadAll merges `base`'s spills — skipping prefixes
  // in `masked` — with this store's own spills; writes land in this store
  // only. The incremental what-if engine (core/incremental.h) spills the
  // re-simulated prefixes here while every untouched prefix flows through
  // verbatim from the converged base run. Callers must keep own spills
  // within `masked` so each prefix is served by exactly one layer.
  RibStore(std::shared_ptr<const RibStore> base,
           std::unordered_set<util::IpPrefix> masked);

  ~RibStore();

  RibStore(const RibStore&) = delete;
  RibStore& operator=(const RibStore&) = delete;

  // Thread-safe: workers spill concurrently. Each blob's extent is
  // reserved under the lock and written outside it. `stats_pool` (may be
  // null) is credited with the batch's attribute dedup effect.
  void Write(int shard, topo::NodeId node,
             const std::map<util::IpPrefix, std::vector<Route>>& best,
             AttrPool* stats_pool = nullptr);

  // Reads every shard's routes for `node`, merged into one map; attribute
  // tuples are re-interned into `pool` (the reading domain's). An overlay
  // store additionally merges in the base layer minus masked prefixes.
  std::map<util::IpPrefix, std::vector<Route>> ReadAll(
      topo::NodeId node, AttrPool& pool) const;

  // This store's own spills for `node` only — no base layer. What the
  // incremental engine diffs against the base run's routes.
  std::map<util::IpPrefix, std::vector<Route>> ReadOwn(
      topo::NodeId node, AttrPool& pool) const;

  // Own spills for `node` restricted to the given shard indices (no base
  // layer): lets the incremental engine read just the shards its impact
  // closure lives in instead of every blob of the node.
  std::map<util::IpPrefix, std::vector<Route>> ReadShards(
      topo::NodeId node, const std::unordered_set<int>& shards,
      AttrPool& pool) const;

  size_t bytes_written() const { return bytes_written_; }
  size_t routes_written() const { return routes_written_; }

  // Routes written for the given prefixes, summed over every (shard, node)
  // spill — maintained at Write time so the incremental engine can account
  // for the base routes its overlay masks without reading any blob.
  size_t CountRoutes(const std::unordered_set<util::IpPrefix>& prefixes)
      const;

  // Appends an already-serialized (shard, node) blob as if Write had
  // produced it. The multi-process harness uses this to re-seed a
  // respawned worker's store with the spills its dead predecessor shipped
  // to the controller. Seeding indexes the blob for ReadAll but does not
  // count toward bytes/routes_written (those count real spills, and the
  // seeded blobs were counted by the original Write in the process that
  // produced them). Re-seeding the same (shard, node) replaces the blob.
  void SeedBlob(int shard, topo::NodeId node,
                const std::vector<uint8_t>& bytes) {
    Append(shard, node, bytes);
  }

  // This store's serialized blobs of one shard, keyed by node. Worker
  // processes ship these to the controller after each shard's spill.
  std::map<topo::NodeId, std::vector<uint8_t>> OwnBlobs(int shard) const;

  // With capture enabled (before any Write), every Write also records the
  // node's FIB projection of the batch: per prefix with a *learned* front
  // route, the first-appearance dedup of learned_from — exactly the
  // next-hop list dp::Fib::Build derives, and the only part of a best set
  // the data plane consumes. Locally-originated fronts are omitted (their
  // FIB entries follow from config alone). The incremental engine enables
  // this on its overlay store so the rebuild diff never re-reads spills.
  void EnableProjectionCapture() { capture_projections_ = true; }

  // The captured projection for `node`, merged across its shard writes
  // (shards hold disjoint prefixes); nullptr if nothing was captured.
  const std::map<util::IpPrefix, std::vector<topo::NodeId>>* Projection(
      topo::NodeId node) const;

 private:
  struct Extent {
    uint64_t offset, length;
  };

  // Appends `bytes` to the segment (creating it on first use) and indexes
  // the extent under (shard, node); the caller holds no lock.
  void Append(int shard, topo::NodeId node,
              const std::vector<uint8_t>& bytes);
  static std::vector<uint8_t> ReadExtent(int fd, Extent extent);

  // Merges this store's blobs for `node` into `out`, restricted to
  // `shards` when non-null.
  void ReadOwnInto(topo::NodeId node, const std::unordered_set<int>* shards,
                   AttrPool& pool,
                   std::map<util::IpPrefix, std::vector<Route>>& out) const;

  mutable std::mutex mutex_;  // guards the segment, index and counters
  int fd_ = -1;               // the unlinked segment; -1 until first append
  uint64_t end_ = 0;          // next free offset
  std::map<std::pair<int, topo::NodeId>, Extent> extents_;
  std::unordered_map<topo::NodeId, std::vector<int>> node_shards_;
  size_t bytes_written_ = 0;
  size_t routes_written_ = 0;
  std::map<util::IpPrefix, size_t> routes_per_prefix_;
  bool capture_projections_ = false;
  std::map<topo::NodeId, std::map<util::IpPrefix, std::vector<topo::NodeId>>>
      projections_;

  // Overlay layer (both empty/null for a plain store).
  std::shared_ptr<const RibStore> base_;
  std::unordered_set<util::IpPrefix> masked_;
};

}  // namespace s2::cp
