#include "cp/attr.h"

#include <algorithm>

namespace s2::cp {

bool AttrTuple::HasCommunity(uint32_t community) const {
  return std::binary_search(communities.begin(), communities.end(),
                            community);
}

void AttrTuple::AddCommunity(uint32_t community) {
  auto it = std::lower_bound(communities.begin(), communities.end(),
                             community);
  if (it == communities.end() || *it != community) {
    communities.insert(it, community);
  }
}

size_t AttrTuple::Hash() const {
  // FNV-1a over the tuple's value; collision handling is the pool's
  // deep-compare, so quality only affects bucket sizes.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(local_pref);
  mix(med);
  mix(origin);
  mix(as_path.size());
  for (uint32_t asn : as_path) mix(asn);
  mix(communities.size());
  for (uint32_t community : communities) mix(community);
  return static_cast<size_t>(h);
}

const AttrTuple& DefaultAttrTuple() {
  static const AttrTuple kDefault;
  return kDefault;
}

void AttrHandle::Reset() {
  if (entry_ == nullptr) return;
  internal::AttrEntry* entry = entry_;
  entry_ = nullptr;
  // Lock-free fast path while other references exist. The decrement that
  // could hit zero must NOT happen here: if it did, a concurrent Intern
  // could resurrect and re-kill the entry, leaving two threads racing to
  // evict the same pointer — one of them after the other freed it. So a
  // possible last-out decrement is handed to the pool, which performs it
  // under the intern lock (ReleaseLast).
  uint64_t refs = entry->refs.load(std::memory_order_acquire);
  while (refs > 1) {
    if (entry->refs.compare_exchange_weak(refs, refs - 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return;
    }
  }
  AttrPool* pool = entry->pool.load(std::memory_order_acquire);
  if (pool) {
    pool->ReleaseLast(entry);
  } else if (entry->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete entry;  // orphaned: the pool died first, we were last out
  }
}

double AttrPool::Stats::DedupRatio() const {
  uint64_t total = hits + misses;
  return total == 0 ? 0.0 : double(hits) / double(total);
}

AttrPool::~AttrPool() {
  // Surviving entries are still referenced by handles that outlive the
  // pool (e.g. RIB snapshots copied out of an engine). Orphan them — the
  // last handle frees the entry — but release their shared bytes now:
  // the accounting domain closes with the pool.
  for (auto& [hash, bucket] : buckets_) {
    for (internal::AttrEntry* entry : bucket) {
      if (tracker_) tracker_->Release(entry->tuple.SharedBytes());
      if (entry->refs.load(std::memory_order_acquire) == 0) {
        delete entry;
      } else {
        entry->pool.store(nullptr, std::memory_order_release);
      }
    }
  }
}

AttrHandle AttrPool::Intern(AttrTuple tuple) {
  if (tuple == DefaultAttrTuple()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++hits_;
    return AttrHandle();
  }
  size_t hash = tuple.Hash();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = buckets_[hash];
  for (internal::AttrEntry* entry : bucket) {
    if (entry->tuple == tuple) {
      // The increment happens under the lock; the only decrement that can
      // reach zero (ReleaseLast) also runs under it and deletes the entry
      // in the same critical section, so this entry is alive.
      entry->refs.fetch_add(1, std::memory_order_relaxed);
      ++hits_;
      return AttrHandle(entry);
    }
  }
  // Charge before inserting: a SimulatedOom leaves the pool unchanged.
  size_t bytes = tuple.SharedBytes();
  if (tracker_) tracker_->Charge(bytes);
  auto* entry = new internal::AttrEntry;
  entry->tuple = std::move(tuple);
  entry->refs.store(1, std::memory_order_relaxed);
  entry->hash = hash;
  entry->pool.store(this, std::memory_order_release);
  bucket.push_back(entry);
  ++misses_;
  ++live_entries_;
  peak_entries_ = std::max(peak_entries_, live_entries_);
  shared_bytes_ += bytes;
  peak_shared_bytes_ = std::max(peak_shared_bytes_, shared_bytes_);
  return AttrHandle(entry);
}

void AttrPool::ReleaseLast(internal::AttrEntry* entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The caller saw refcount 1, but a concurrent Intern may have taken a
  // new reference before we acquired the lock — then this is an ordinary
  // decrement. Because every zero-reaching decrement happens under this
  // mutex and is followed by removal+delete in the same critical section,
  // no Intern can ever observe (or resurrect) a zero-ref entry.
  if (entry->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  auto bucket_it = buckets_.find(entry->hash);
  auto& bucket = bucket_it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), entry));
  if (bucket.empty()) buckets_.erase(bucket_it);
  ++evictions_;
  --live_entries_;
  size_t bytes = entry->tuple.SharedBytes();
  shared_bytes_ -= bytes;
  if (tracker_) tracker_->Release(bytes);
  delete entry;
}

AttrPool::Stats AttrPool::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.live_entries = live_entries_;
    stats.peak_entries = peak_entries_;
    stats.shared_bytes = shared_bytes_;
    stats.peak_shared_bytes = peak_shared_bytes_;
  }
  stats.wire_tuples_written =
      wire_tuples_written_.load(std::memory_order_relaxed);
  stats.wire_tuples_reused =
      wire_tuples_reused_.load(std::memory_order_relaxed);
  stats.wire_bytes_saved = wire_bytes_saved_.load(std::memory_order_relaxed);
  return stats;
}

size_t AttrPool::live_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_entries_;
}

void AttrPool::NoteWireSavings(uint64_t written, uint64_t reused,
                               uint64_t saved) {
  wire_tuples_written_.fetch_add(written, std::memory_order_relaxed);
  wire_tuples_reused_.fetch_add(reused, std::memory_order_relaxed);
  wire_bytes_saved_.fetch_add(saved, std::memory_order_relaxed);
}

}  // namespace s2::cp
