// A reduced ordered binary decision diagram (ROBDD) engine.
//
// This is the data-plane verification substrate: symbolic packets and
// per-port forwarding/ACL predicates are BDDs (paper §4.3). S2's design
// point is one *independent* Manager per worker — BDD operations on one
// worker never contend with another worker's, and each worker's node table
// stays small — so the engine supports multiple coexisting managers and
// cross-manager transfer via bdd_io.h.
//
// Engine design (CUDD-style):
//  - Nodes live in a slab indexed by 32-bit ids; ids 0/1 are the terminals.
//  - A unique table canonicalizes (var, low, high) triples, so BDD equality
//    is id equality. It is an open-addressed array of node ids beside the
//    slab: linear probing, power-of-two capacity, load <= 1/2, keys
//    compared in place against the slab record, no per-node allocation.
//    It doubles by rehashing from the slab, and each GC sweep that frees
//    nodes rebuilds it in one pass.
//    The table never decides an id: ids come from the slab and free list
//    alone, so its layout cannot change node ids, GC points or accounting.
//  - External references are RAII `Bdd` handles that ref/deref the root.
//    Internal references (parent -> child) are counted at node creation.
//  - Dead nodes (refcount 0) are reclaimed by explicit or threshold-driven
//    garbage collection: when dead nodes exceed gc_dead_fraction of the
//    table, or when the table reaches its watermark (twice the nodes left
//    by the previous sweep). Between collections, dead nodes remain
//    structurally valid, so cache hits that resurrect them are safe.
//  - Operation results are memoized in fixed-size 2-way set-associative
//    caches (bin ops and ITE) with generational eviction: every hit stamps
//    the entry with the current generation, every GC bumps the generation,
//    and on a set conflict the older-generation way is evicted. GC keeps
//    cache entries whose operand/result nodes survived the sweep and drops
//    only entries referencing freed slots (a freed slot may be reused for a
//    different function, so a stale entry would be unsound). Cache memory
//    is a small per-manager constant and is not charged to the
//    MemoryTracker.
//  - The node table has a configurable capacity; exhausting it throws
//    SimulatedOom, reproducing the paper's "BDD node table overflow"
//    failure mode (§2.2). Node bytes are charged to an optional
//    MemoryTracker so per-worker peak memory includes BDD state; see
//    kNodeBytes for the per-node charge.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/memory_tracker.h"

namespace s2::bdd {

class Manager;

// An owning handle to a BDD root. Copyable (bumps the refcount) and
// movable. A default-constructed handle is detached and only assignable.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool valid() const { return manager_ != nullptr; }
  bool IsZero() const;
  bool IsOne() const;

  Manager* manager() const { return manager_; }
  uint32_t id() const { return node_; }

  // Canonicity makes structural equality a constant-time id compare.
  // Handles from different managers never compare equal.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.manager_ == b.manager_ && a.node_ == b.node_;
  }

  // Logical operators; both operands must come from the same manager.
  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator!() const;
  Bdd& operator&=(const Bdd& rhs);
  Bdd& operator|=(const Bdd& rhs);

  // a - b == a & !b; common enough in predicate construction to name.
  Bdd Diff(const Bdd& rhs) const;

  // True if the conjunction is nonempty, computed without materializing it
  // when a cheap answer exists.
  bool Intersects(const Bdd& rhs) const;

  // True if this implies rhs (this & !rhs == 0).
  bool Implies(const Bdd& rhs) const;

 private:
  friend class Manager;
  friend Bdd DeserializeInto(Manager&, const std::vector<uint8_t>&);
  Bdd(Manager* manager, uint32_t node);  // takes one reference

  Manager* manager_ = nullptr;
  uint32_t node_ = 0;
};

class Manager {
 public:
  struct Options {
    // Hard capacity of the node table; 0 means unbounded. The paper notes
    // the table is bounded by 2^32 in practice; benchmarks set this low to
    // surface overflow at laptop scale.
    size_t max_nodes = 0;
    // If set, node slab bytes are charged here, kNodeBytes per allocated
    // node slot.
    util::MemoryTracker* tracker = nullptr;
    // GC triggers when dead nodes exceed this fraction of allocated nodes.
    double gc_dead_fraction = 0.25;
    // Capacity of each operation cache (bin and ITE), in entries; rounded
    // up to a power of two, minimum 16. Unlike an unbounded hash map, op
    // memoization memory is a fixed per-manager constant.
    size_t op_cache_entries = size_t{1} << 14;
  };

  // Aggregate op-cache behavior across both caches since construction.
  struct CacheStats {
    size_t hits = 0;        // lookups answered from a cache
    size_t misses = 0;      // lookups that fell through to recursion
    size_t evictions = 0;   // valid entries displaced by set conflicts
    size_t gc_kept = 0;     // entries preserved across a GC sweep
    size_t gc_dropped = 0;  // entries invalidated because a GC freed a node
  };

  explicit Manager(uint32_t num_vars) : Manager(num_vars, Options{}) {}
  Manager(uint32_t num_vars, Options options);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  uint32_t num_vars() const { return num_vars_; }

  Bdd Zero();
  Bdd One();
  Bdd Var(uint32_t index);         // the function "bit index is 1"
  Bdd NotVar(uint32_t index);      // the function "bit index is 0"

  Bdd And(const Bdd& a, const Bdd& b);
  Bdd Or(const Bdd& a, const Bdd& b);
  Bdd Xor(const Bdd& a, const Bdd& b);
  Bdd Not(const Bdd& a);
  Bdd Ite(const Bdd& f, const Bdd& g, const Bdd& h);

  // The reduced node "if `var` then `high` else `low`", for callers that
  // build a diagram bottom-up by construction (dp/predicates.cc). Returns
  // `low` when low == high and the existing node for a known triple. Not a
  // GC point, so a bottom-up builder leaves no garbage behind. Throws
  // std::invalid_argument unless both children come from this manager and
  // `var` is a variable of it that precedes both children's variables.
  Bdd MakeBdd(uint32_t var, const Bdd& low, const Bdd& high);

  // Cofactor: f with variable `var` fixed to `value`.
  Bdd Restrict(const Bdd& f, uint32_t var, bool value);

  // Existential quantification over each variable in `vars`.
  Bdd Exists(const Bdd& f, const std::vector<uint32_t>& vars);

  // Builds the cube "bits of `value` over vars [first_var, first_var+n)";
  // bit i of value (LSB first) constrains variable first_var + i.
  Bdd Cube(uint32_t first_var, uint32_t n, uint64_t value);

  // Builds the predicate "the n-bit field starting at first_var, read MSB
  // first, matches `value` under `mask`" — the LPM building block.
  Bdd MaskedMatch(uint32_t first_var, uint32_t n, uint64_t value,
                  uint64_t mask);

  // Fraction of the 2^num_vars assignments satisfying f, in [0,1].
  double SatFraction(const Bdd& f);

  // One satisfying assignment, as a vector of (var, value) for the
  // variables on the chosen path (others are free). f must not be Zero.
  std::vector<std::pair<uint32_t, bool>> AnySat(const Bdd& f);

  // ------------------------------------------------- snapshot pinning / GC
  // Marks a root as part of a published snapshot surface (svc/ serving
  // domains, worker data planes). Pinning takes no reference — the
  // caller's handles keep the root alive — but every GC sweep asserts (in
  // builds with assertions) that no pinned node is ever freed, turning a
  // refcount bug on an immutable-after-converge surface into an immediate
  // failure instead of silent verdict corruption.
  void PinRoot(const Bdd& root);
  size_t pinned_roots() const { return pinned_.size(); }

  // GC hold: while held, threshold-driven collection (MaybeGc) is
  // suppressed, so dead intermediates — and the op/ITE cache entries
  // referencing them — survive between queries on a long-lived serving
  // domain and repeated queries replay as cache hits. Explicit
  // GarbageCollect() still works (serving domains collect on a query-count
  // cadence instead). Nestable; Resume with no matching Pause is a no-op.
  void PauseGc() { ++gc_hold_; }
  void ResumeGc() {
    if (gc_hold_ > 0) --gc_hold_;
  }
  bool gc_paused() const { return gc_hold_ > 0; }

  // Diagnostics / accounting.
  size_t allocated_nodes() const { return nodes_.size() - free_count_; }
  // Internal (non-terminal) nodes still referenced.
  size_t live_nodes() const;
  size_t peak_nodes() const { return peak_nodes_; }
  // Buckets in the unique table; a power of two, at least twice the
  // allocated internal nodes.
  size_t unique_slots() const { return unique_.size(); }
  const CacheStats& cache_stats() const { return cache_stats_; }
  // Current cache generation; bumped once per GC sweep.
  uint32_t generation() const { return generation_; }
  void GarbageCollect();

  // Per-node byte charge used for memory accounting. It is an accounting
  // constant, not a measurement: per-worker peak memory (the paper's
  // metric) is counted in it, so it stays fixed when the engine's layout
  // changes. Measured on x86-64 at 35k-400k nodes, slab plus refcount plus
  // unique table cost 83-88 heap bytes per node with the node-based hash
  // map this table replaced, and 32-45 bytes with the id table (the range
  // is where the vectors sit between doublings).
  static constexpr size_t kNodeBytes = 32;

 private:
  friend class Bdd;
  friend struct SerializedView;  // bdd_io needs raw node access
  friend Bdd DeserializeInto(Manager&, const std::vector<uint8_t>&);
  friend std::vector<uint8_t> Serialize(const Bdd&);

  struct Node {
    uint32_t var;
    uint32_t low;
    uint32_t high;
  };

  enum BinOp : uint8_t { kAnd = 0, kOr = 1, kXor = 2, kRestrict0 = 3 };

  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  // One memoized operation. For the bin cache the key is (a, b, c=op),
  // where Restrict entries pack (var << 1) | value into `b` — for that op
  // `b` is NOT a node id. For the ITE cache the key is (a=f, b=g, c=h).
  struct OpCacheEntry {
    uint32_t a = kEmptySlot;
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t result = 0;
    uint32_t gen = 0;
  };

  // Fixed-size 2-way set-associative memo table with generational
  // replacement. Never grows after Init; see the header comment.
  class OpCache {
   public:
    void Init(size_t entries);
    // Returns the memoized result id, or kEmptySlot on a miss. A hit
    // refreshes the entry's generation stamp.
    uint32_t Lookup(uint32_t a, uint32_t b, uint32_t c, uint32_t gen,
                    CacheStats& stats);
    void Insert(uint32_t a, uint32_t b, uint32_t c, uint32_t result,
                uint32_t gen, CacheStats& stats);
    // Drops entries for which `drop(entry)` is true; tallies the survivors
    // and casualties into `stats` (gc_kept / gc_dropped).
    template <typename DropPred>
    void Purge(DropPred drop, CacheStats& stats) {
      for (OpCacheEntry& e : slots_) {
        if (e.a == kEmptySlot) continue;
        if (drop(e)) {
          e.a = kEmptySlot;
          ++stats.gc_dropped;
        } else {
          ++stats.gc_kept;
        }
      }
    }

   private:
    size_t SetOf(uint32_t a, uint32_t b, uint32_t c) const;

    std::vector<OpCacheEntry> slots_;  // 2 ways per set, contiguous
    size_t set_mask_ = 0;
  };

  static constexpr uint32_t kZero = 0;
  static constexpr uint32_t kOne = 1;
  static constexpr uint32_t kTerminalVar = ~uint32_t{0};

  uint32_t MakeNode(uint32_t var, uint32_t low, uint32_t high);
  uint32_t AllocateSlot();

  // Unique table: the home bucket of a triple, and a rebuild into `slots`
  // buckets (a power of two) from every allocated node of the slab.
  size_t UniqueHome(uint32_t var, uint32_t low, uint32_t high) const;
  void RehashUnique(size_t slots);

  uint32_t ApplyBin(BinOp op, uint32_t a, uint32_t b);
  uint32_t IteRec(uint32_t f, uint32_t g, uint32_t h);
  uint32_t RestrictRec(uint32_t f, uint32_t var, bool value);
  double SatFractionRec(uint32_t f,
                        std::unordered_map<uint32_t, double>& memo);

  void Ref(uint32_t node);
  void Deref(uint32_t node);
  void MaybeGc();

  uint32_t VarOf(uint32_t node) const { return nodes_[node].var; }
  bool IsTerminal(uint32_t node) const { return node <= kOne; }

  uint32_t num_vars_;
  Options options_;

  std::vector<Node> nodes_;
  std::vector<uint32_t> refcounts_;
  std::vector<uint32_t> free_list_;
  size_t free_count_ = 0;
  size_t dead_count_ = 0;
  size_t peak_nodes_ = 0;
  size_t gc_watermark_ = 2 * 4096;

  // Open-addressed with linear probing; kEmptySlot marks an empty bucket.
  // Holds the id of every allocated internal node; load stays <= 1/2.
  std::vector<uint32_t> unique_;
  uint32_t unique_shift_ = 0;  // 64 - log2(unique_.size())
  OpCache bin_cache_;
  OpCache ite_cache_;
  CacheStats cache_stats_;
  uint32_t generation_ = 1;
  std::unordered_set<uint32_t> pinned_;
  uint32_t gc_hold_ = 0;
};

}  // namespace s2::bdd
