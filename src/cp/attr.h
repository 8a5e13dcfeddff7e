// Hash-consed route attributes (flyweight pattern).
//
// In a Clos DCN the universe of distinct BGP attribute tuples —
// (local_pref, med, origin, as_path, communities) — is tiny relative to
// the route count (per-layer ASNs and a handful of community tags, §2.3),
// while routes are what scale to the hundreds of millions the paper's
// per-worker accounting is about (§4.5). AttrPool interns each distinct
// tuple once per verifier domain (monolithic engine or worker) and hands
// out refcounted AttrHandle flyweights; cp::Route holds a handle instead
// of owned vectors, so candidate tables, best/ECMP sets and result maps
// share one copy of each attribute tuple instead of deep-copying it.
// LIGHTYEAR and ACORN (PAPERS.md) exploit the same attribute-redundancy
// structure to scale BGP verification.
//
// Memory accounting is amortized to match: the pool charges its domain's
// MemoryTracker the full tuple bytes once per distinct live tuple
// (AttrTuple::SharedBytes, on first intern), every Route copy is charged
// only its fixed footprint (Route::UniqueBytes), and the tuple bytes are
// released when the last handle drops (DESIGN.md §4).
//
// Thread safety: handle copy is an atomic increment and non-final
// releases are an atomic CAS decrement; the decrement that could hit
// zero is performed under the pool mutex (AttrPool::ReleaseLast), in the
// same critical section as the eviction. Intern's bucket-hit increment
// takes the same mutex, so no thread can ever observe — let alone
// resurrect — a zero-reference entry.
//
// Determinism: intern order (and thus entry identity) depends on
// execution order, so identity is used only for equality fast paths and
// never for route ordering — BetterRoute falls back to attribute-value
// comparisons whenever two handles differ.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/memory_tracker.h"

namespace s2::cp {

class AttrPool;

// The interned value: every BGP attribute a route carries that is shared
// verbatim between copies. Provenance (origin_node, learned_from) and the
// OSPF metric stay inline in Route — they differ per copy.
struct AttrTuple {
  uint32_t local_pref = 100;
  uint32_t med = 0;
  uint8_t origin = 0;  // 0=IGP < 1=EGP < 2=incomplete
  std::vector<uint32_t> as_path;
  std::vector<uint32_t> communities;  // sorted, unique

  bool operator==(const AttrTuple&) const = default;

  bool HasCommunity(uint32_t community) const;
  void AddCommunity(uint32_t community);  // keeps the set sorted/unique

  // Bytes one distinct tuple is accounted as in MemoryTrackers: charged
  // once per live pool entry, not per route copy (DESIGN.md §4).
  size_t SharedBytes() const {
    return 48 + 4 * as_path.size() + 4 * communities.size();
  }

  size_t Hash() const;
};

// The tuple every default-constructed (null) handle dereferences to:
// local_pref 100, med 0, origin IGP, empty AS path, no communities.
const AttrTuple& DefaultAttrTuple();

namespace internal {
struct AttrEntry {
  AttrTuple tuple;
  std::atomic<uint64_t> refs{0};
  size_t hash = 0;
  // The owning pool, or null once the pool died with this entry still
  // referenced (the last handle then frees the entry itself).
  std::atomic<AttrPool*> pool{nullptr};
};
}  // namespace internal

// A refcounted flyweight reference to an interned tuple. Null handles are
// valid and denote the default tuple (the pool normalizes Intern of the
// default tuple to a null handle, so the dominant trivial tuple costs
// nothing). Handles may outlive their pool: the pool's destructor orphans
// still-referenced entries, and the last handle frees an orphaned entry —
// so Route remains value-semantic when results are copied out of an
// engine whose pool is then destroyed.
class AttrHandle {
 public:
  AttrHandle() = default;
  AttrHandle(const AttrHandle& other) : entry_(other.entry_) {
    if (entry_) entry_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  AttrHandle(AttrHandle&& other) noexcept : entry_(other.entry_) {
    other.entry_ = nullptr;
  }
  AttrHandle& operator=(AttrHandle other) noexcept {
    std::swap(entry_, other.entry_);
    return *this;
  }
  ~AttrHandle() { Reset(); }

  void Reset();

  bool null() const { return entry_ == nullptr; }

  const AttrTuple& get() const {
    return entry_ ? entry_->tuple : DefaultAttrTuple();
  }
  const AttrTuple& operator*() const { return get(); }
  const AttrTuple* operator->() const { return &get(); }

  // Same pool entry (or both null/default). An identity check only — a
  // valid fast path for equality and for skipping attribute comparisons,
  // never an ordering key (entry identity is intern-order dependent).
  bool SameEntry(const AttrHandle& other) const {
    return entry_ == other.entry_;
  }

  // The pool this handle's entry lives in; null for null handles and for
  // entries orphaned by pool destruction.
  AttrPool* pool() const {
    return entry_ ? entry_->pool.load(std::memory_order_acquire) : nullptr;
  }

  // Deep equality: identity fast path, then tuple value comparison. A
  // null handle compares equal to any handle holding the default tuple,
  // and handles from different pools compare by value.
  friend bool operator==(const AttrHandle& a, const AttrHandle& b) {
    return a.entry_ == b.entry_ || a.get() == b.get();
  }

 private:
  friend class AttrPool;
  explicit AttrHandle(internal::AttrEntry* entry) : entry_(entry) {}

  internal::AttrEntry* entry_ = nullptr;
};

// The per-domain hash-consing table.
class AttrPool {
 public:
  struct Stats {
    uint64_t hits = 0;       // Intern found an existing entry (or default)
    uint64_t misses = 0;     // Intern created a new entry
    uint64_t evictions = 0;  // entries freed on refcount zero
    size_t live_entries = 0;
    size_t peak_entries = 0;
    size_t shared_bytes = 0;  // live interned tuple bytes
    size_t peak_shared_bytes = 0;
    // Wire attribute-table effect (sidecar route batches and spills).
    uint64_t wire_tuples_written = 0;
    uint64_t wire_tuples_reused = 0;
    uint64_t wire_bytes_saved = 0;

    // hits / (hits + misses); 0 when no interns happened.
    double DedupRatio() const;
  };

  // `tracker` (may be null) is charged SharedBytes per distinct live
  // tuple; it must outlive the pool. Handles may outlive the pool (their
  // entries are orphaned, see AttrHandle), but all interning must stop
  // before the pool is destroyed.
  explicit AttrPool(util::MemoryTracker* tracker = nullptr)
      : tracker_(tracker) {}
  ~AttrPool();

  AttrPool(const AttrPool&) = delete;
  AttrPool& operator=(const AttrPool&) = delete;

  // Interns `tuple`, returning a handle to the canonical copy. The
  // default tuple interns to a null handle (see AttrHandle).
  AttrHandle Intern(AttrTuple tuple);

  Stats stats() const;
  size_t live_entries() const;

  // Serializer feedback: `written` distinct tuples emitted into a batch's
  // attribute table, `reused` route references that shared one, `saved`
  // wire bytes relative to the inline-per-route encoding.
  void NoteWireSavings(uint64_t written, uint64_t reused, uint64_t saved);

 private:
  friend class AttrHandle;

  // Performs a decrement that may be the last (observed refcount 1) under
  // the intern lock, evicting the entry when it really hits zero.
  void ReleaseLast(internal::AttrEntry* entry);

  util::MemoryTracker* tracker_;
  mutable std::mutex mutex_;
  // Value hash -> entries with that hash (collisions resolved by deep
  // compare; buckets are tiny).
  std::unordered_map<size_t, std::vector<internal::AttrEntry*>> buckets_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  size_t live_entries_ = 0;
  size_t peak_entries_ = 0;
  size_t shared_bytes_ = 0;
  size_t peak_shared_bytes_ = 0;

  std::atomic<uint64_t> wire_tuples_written_{0};
  std::atomic<uint64_t> wire_tuples_reused_{0};
  std::atomic<uint64_t> wire_bytes_saved_{0};
};

}  // namespace s2::cp
