#include "cp/rib.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>

#include "util/status.h"

namespace s2::cp {

void Rib::ChargeRoute(const Route& route) {
  // Amortized accounting: the copy's fixed footprint only — the shared
  // tuple bytes are charged once by the AttrPool on first intern
  // (DESIGN.md §4).
  if (tracker_) tracker_->Charge(route.UniqueBytes());
}

void Rib::ReleaseRoute(const Route& route) {
  if (tracker_) tracker_->Release(route.UniqueBytes());
}

void Rib::Upsert(topo::NodeId from, Route route) {
  auto& per_neighbor = candidates_[route.prefix];
  auto it = per_neighbor.find(from);
  if (it != per_neighbor.end() && it->second == route) return;  // unchanged
  // Charge before mutating: a SimulatedOom mid-upsert must leave the maps
  // and the accounting consistent, or Clear() releases bytes that were
  // never charged (caught by the assertions CI leg).
  ChargeRoute(route);
  dirty_.insert(route.prefix);
  if (it != per_neighbor.end()) {
    ReleaseRoute(it->second);
    it->second = std::move(route);
  } else {
    per_neighbor.emplace(from, std::move(route));
    ++candidate_count_;
  }
}

void Rib::Withdraw(topo::NodeId from, const util::IpPrefix& prefix) {
  auto it = candidates_.find(prefix);
  if (it == candidates_.end()) return;
  auto candidate = it->second.find(from);
  if (candidate == it->second.end()) return;
  ReleaseRoute(candidate->second);
  it->second.erase(candidate);
  --candidate_count_;
  if (it->second.empty()) candidates_.erase(it);
  dirty_.insert(prefix);
}

std::vector<util::IpPrefix> Rib::RecomputeDirty(int max_paths) {
  std::vector<util::IpPrefix> changed;
  for (const util::IpPrefix& prefix : dirty_) {
    std::vector<Route> selected;
    auto it = candidates_.find(prefix);
    if (it != candidates_.end() && !it->second.empty()) {
      // Deterministic order: gather and sort by the full decision process.
      std::vector<const Route*> all;
      all.reserve(it->second.size());
      for (const auto& [from, route] : it->second) all.push_back(&route);
      std::sort(all.begin(), all.end(), [](const Route* a, const Route* b) {
        return BetterRoute(*a, *b);
      });
      selected.push_back(*all[0]);
      for (size_t i = 1;
           i < all.size() && selected.size() < size_t(max_paths); ++i) {
        if (EcmpEquivalent(*all[i], *all[0])) selected.push_back(*all[i]);
      }
    }
    auto best_it = best_.find(prefix);
    const bool had = best_it != best_.end();
    if (selected.empty()) {
      if (had) {
        for (const Route& r : best_it->second) ReleaseRoute(r);
        best_.erase(best_it);
        changed.push_back(prefix);
      }
    } else if (!had || best_it->second != selected) {
      // Charge the new set before releasing the old: on SimulatedOom the
      // partial charges are rolled back and best_ is untouched.
      size_t charged = 0;
      try {
        for (; charged < selected.size(); ++charged) {
          ChargeRoute(selected[charged]);
        }
      } catch (...) {
        for (size_t i = 0; i < charged; ++i) ReleaseRoute(selected[i]);
        throw;
      }
      if (had) {
        for (const Route& r : best_it->second) ReleaseRoute(r);
      }
      best_[prefix] = std::move(selected);
      changed.push_back(prefix);
    }
  }
  dirty_.clear();
  // Sort for determinism: callers iterate this to build exports.
  std::sort(changed.begin(), changed.end());
  return changed;
}

const std::vector<Route>* Rib::Best(const util::IpPrefix& prefix) const {
  auto it = best_.find(prefix);
  return it == best_.end() ? nullptr : &it->second;
}

bool Rib::HasContributor(const util::IpPrefix& prefix) const {
  // best_ is ordered by (family, address, length); covered prefixes sort
  // at or after the aggregate's own position and within its family.
  const util::IpAddress last = prefix.LastAddress();
  for (auto it = best_.lower_bound(prefix); it != best_.end(); ++it) {
    if (!prefix.Contains(it->first)) {
      if (it->first.family() != prefix.family() ||
          it->first.address() > last) {
        break;  // past the covered address range (or into the next family)
      }
      continue;
    }
    if (it->first != prefix) return true;
  }
  return false;
}

void Rib::SerializeState(std::vector<uint8_t>& out,
                         AttrTableBuilder& table) const {
  // Candidates, grouped by contributing neighbor (map order on both levels
  // keeps the bytes deterministic).
  std::map<topo::NodeId, std::vector<RouteUpdate>> by_neighbor;
  for (const auto& [prefix, per_neighbor] : candidates_) {
    for (const auto& [from, route] : per_neighbor) {
      by_neighbor[from].push_back(RouteUpdate{prefix, false, route});
    }
  }
  PutWireU32(out, static_cast<uint32_t>(by_neighbor.size()));
  for (const auto& [from, updates] : by_neighbor) {
    PutWireU32(out, from);
    PutRoutesSection(out, updates, table);
  }
  // Best/ECMP sets, flattened in (prefix, rank) order.
  std::vector<RouteUpdate> best;
  for (const auto& [prefix, routes] : best_) {
    for (const Route& route : routes) {
      best.push_back(RouteUpdate{prefix, false, route});
    }
  }
  PutRoutesSection(out, best, table);
  // Dirty prefixes, encoded as withdraw entries (sorted: the set itself is
  // unordered and checkpoint bytes should not depend on hashing).
  std::vector<util::IpPrefix> dirty(dirty_.begin(), dirty_.end());
  std::sort(dirty.begin(), dirty.end());
  std::vector<RouteUpdate> marks;
  marks.reserve(dirty.size());
  for (const util::IpPrefix& prefix : dirty) {
    marks.push_back(RouteUpdate{prefix, true, Route{}});
  }
  PutRoutesSection(out, marks, table);
}

void Rib::RestoreState(const std::vector<uint8_t>& bytes, size_t& pos,
                       const AttrTable& table) {
  uint32_t groups = GetWireU32(bytes, pos);
  for (uint32_t g = 0; g < groups; ++g) {
    topo::NodeId from = GetWireU32(bytes, pos);
    for (RouteUpdate& update : GetRoutesSection(bytes, pos, table)) {
      ChargeRoute(update.route);
      candidates_[update.prefix].emplace(from, std::move(update.route));
      ++candidate_count_;
    }
  }
  for (RouteUpdate& update : GetRoutesSection(bytes, pos, table)) {
    ChargeRoute(update.route);
    best_[update.prefix].push_back(std::move(update.route));
  }
  for (const RouteUpdate& update : GetRoutesSection(bytes, pos, table)) {
    dirty_.insert(update.prefix);
  }
}

void Rib::Clear() {
  if (tracker_) {
    for (const auto& [prefix, per_neighbor] : candidates_) {
      for (const auto& [from, route] : per_neighbor) ReleaseRoute(route);
    }
    for (const auto& [prefix, routes] : best_) {
      for (const Route& r : routes) ReleaseRoute(r);
    }
  }
  candidates_.clear();
  best_.clear();
  dirty_.clear();
  candidate_count_ = 0;
}

// ------------------------------------------------------------- RibStore

RibStore::RibStore(std::shared_ptr<const RibStore> base,
                   std::unordered_set<util::IpPrefix> masked)
    : base_(std::move(base)), masked_(std::move(masked)) {}

RibStore::~RibStore() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

// Creates a store's segment and unlinks it at once: the descriptor is the
// only reference left, so the bytes go with the process however it ends.
int CreateSegment() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) throw util::StorageError("resolve temp dir", ec.value());
  std::string name = "s2-ribstore-" + std::to_string(::getpid()) + "-XXXXXX";
  std::string path = (dir / name).string();
  int fd = ::mkostemp(path.data(), O_CLOEXEC);
  if (fd < 0) throw util::StorageError("create " + path, errno);
  if (::unlink(path.c_str()) != 0) {
    int err = errno;
    ::close(fd);
    throw util::StorageError("unlink " + path, err);
  }
  return fd;
}

// Moves all `length` bytes with ::pwrite or ::pread, resuming short
// transfers; an error or an early end of file throws StorageError.
template <typename Io, typename Byte>
void TransferAll(Io io, int fd, Byte* data, size_t length, uint64_t offset,
                 const char* op) {
  for (size_t done = 0; done < length;) {
    ssize_t n = io(fd, data + done, length - done,
                   static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw util::StorageError(op, n == 0 ? EIO : errno);
    done += static_cast<size_t>(n);
  }
}

}  // namespace

void RibStore::Append(int shard, topo::NodeId node,
                      const std::vector<uint8_t>& bytes) {
  Extent extent{0, bytes.size()};
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) fd_ = CreateSegment();
    fd = fd_;
    extent.offset = end_;
    end_ += extent.length;
  }
  TransferAll(::pwrite, fd, bytes.data(), bytes.size(), extent.offset,
              "write spill segment");
  std::lock_guard<std::mutex> lock(mutex_);
  if (extents_.insert_or_assign({shard, node}, extent).second) {
    node_shards_[node].push_back(shard);
  }
}

std::vector<uint8_t> RibStore::ReadExtent(int fd, Extent extent) {
  std::vector<uint8_t> bytes(extent.length);
  TransferAll(::pread, fd, bytes.data(), bytes.size(), extent.offset,
              "read spill segment");
  return bytes;
}

void RibStore::Write(
    int shard, topo::NodeId node,
    const std::map<util::IpPrefix, std::vector<Route>>& best,
    AttrPool* stats_pool) {
  std::vector<RouteUpdate> updates;
  for (const auto& [prefix, routes] : best) {
    for (const Route& route : routes) {
      updates.push_back(RouteUpdate{prefix, false, route});
    }
  }
  std::vector<uint8_t> bytes;
  SerializeRoutes(updates, bytes, stats_pool);
  Append(shard, node, bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_written_ += bytes.size();
  routes_written_ += updates.size();
  for (const auto& [prefix, routes] : best) {
    routes_per_prefix_[prefix] += routes.size();
  }
  if (capture_projections_) {
    std::map<util::IpPrefix, std::vector<topo::NodeId>>& projection =
        projections_[node];
    for (const auto& [prefix, routes] : best) {
      if (routes.empty() ||
          routes.front().learned_from == topo::kInvalidNode) {
        continue;
      }
      std::vector<topo::NodeId>& hops = projection[prefix];
      for (const Route& route : routes) {
        if (std::find(hops.begin(), hops.end(), route.learned_from) ==
            hops.end()) {
          hops.push_back(route.learned_from);
        }
      }
    }
  }
}

std::map<topo::NodeId, std::vector<uint8_t>> RibStore::OwnBlobs(
    int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<topo::NodeId, std::vector<uint8_t>> blobs;
  for (auto it = extents_.lower_bound({shard, 0});
       it != extents_.end() && it->first.first == shard; ++it) {
    blobs.emplace(it->first.second, ReadExtent(fd_, it->second));
  }
  return blobs;
}

const std::map<util::IpPrefix, std::vector<topo::NodeId>>*
RibStore::Projection(topo::NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = projections_.find(node);
  return it == projections_.end() ? nullptr : &it->second;
}

size_t RibStore::CountRoutes(
    const std::unordered_set<util::IpPrefix>& prefixes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const util::IpPrefix& prefix : prefixes) {
    auto it = routes_per_prefix_.find(prefix);
    if (it != routes_per_prefix_.end()) total += it->second;
  }
  return total;
}

void RibStore::ReadOwnInto(
    topo::NodeId node, const std::unordered_set<int>* shards, AttrPool& pool,
    std::map<util::IpPrefix, std::vector<Route>>& out) const {
  std::vector<Extent> extents;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd = fd_;
    auto it = node_shards_.find(node);
    if (it == node_shards_.end()) return;
    for (int shard : it->second) {
      if (shards == nullptr || shards->count(shard) != 0) {
        extents.push_back(extents_.at({shard, node}));
      }
    }
  }
  // Shards hold disjoint prefixes, so each out[prefix] is filled from a
  // single blob and the shard order cannot change the result.
  for (const Extent& extent : extents) {
    for (RouteUpdate& update :
         DeserializeRoutes(ReadExtent(fd, extent), pool)) {
      out[update.prefix].push_back(std::move(update.route));
    }
  }
}

std::map<util::IpPrefix, std::vector<Route>> RibStore::ReadAll(
    topo::NodeId node, AttrPool& pool) const {
  std::map<util::IpPrefix, std::vector<Route>> merged;
  ReadOwnInto(node, nullptr, pool, merged);
  if (base_ != nullptr) {
    // The base layer serves every prefix outside the mask; own spills stay
    // within the mask (the overlay contract), so the layers are disjoint.
    std::map<util::IpPrefix, std::vector<Route>> from_base =
        base_->ReadAll(node, pool);
    for (auto& [prefix, routes] : from_base) {
      if (masked_.count(prefix) != 0) continue;
      merged[prefix] = std::move(routes);
    }
  }
  return merged;
}

std::map<util::IpPrefix, std::vector<Route>> RibStore::ReadOwn(
    topo::NodeId node, AttrPool& pool) const {
  std::map<util::IpPrefix, std::vector<Route>> out;
  ReadOwnInto(node, nullptr, pool, out);
  return out;
}

std::map<util::IpPrefix, std::vector<Route>> RibStore::ReadShards(
    topo::NodeId node, const std::unordered_set<int>& shards,
    AttrPool& pool) const {
  std::map<util::IpPrefix, std::vector<Route>> out;
  ReadOwnInto(node, &shards, pool, out);
  return out;
}

}  // namespace s2::cp
