// RIB tests: candidate bookkeeping, best/ECMP selection, dirty tracking,
// aggregate contributor scans, memory accounting, and the spill segment
// store used by prefix sharding.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cp/attr.h"
#include "cp/rib.h"
#include "unusable_tmpdir.h"
#include "util/status.h"

namespace s2::cp {
namespace {

AttrPool& TestPool() {
  static AttrPool* pool = new AttrPool();
  return *pool;
}

Route MakeRoute(const std::string& prefix, uint32_t local_pref,
                size_t path_len, topo::NodeId from) {
  Route r;
  r.prefix = util::MustParsePrefix(prefix);
  r.protocol = Protocol::kBgp;
  AttrTuple tuple;
  tuple.local_pref = local_pref;
  tuple.as_path.assign(path_len, 65000);
  r.attrs = TestPool().Intern(std::move(tuple));
  r.learned_from = from;
  r.origin_node = from;
  return r;
}

TEST(RibTest, UpsertSelectsBest) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 3, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 200, 5, 2));
  auto changed = rib.RecomputeDirty(1);
  ASSERT_EQ(changed.size(), 1u);
  const auto* best = rib.Best(util::MustParsePrefix("10.0.0.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->front().learned_from, 2u);  // higher local-pref
}

TEST(RibTest, EcmpKeepsUpToMaxPaths) {
  Rib rib(nullptr);
  for (topo::NodeId n = 1; n <= 5; ++n) {
    rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
  }
  rib.RecomputeDirty(3);
  const auto* best = rib.Best(util::MustParsePrefix("10.0.0.0/24"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->size(), 3u);  // capped
  // Deterministic order: lowest neighbor ids first.
  EXPECT_EQ(best->at(0).learned_from, 1u);
  EXPECT_EQ(best->at(1).learned_from, 2u);
}

TEST(RibTest, EcmpExcludesNonEquivalent) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 2, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 4, 2));  // longer path
  rib.RecomputeDirty(8);
  EXPECT_EQ(rib.Best(util::MustParsePrefix("10.0.0.0/24"))->size(), 1u);
}

TEST(RibTest, WithdrawRemovesCandidate) {
  Rib rib(nullptr);
  auto p = util::MustParsePrefix("10.0.0.0/24");
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 100, 2, 1));
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 1, 2));
  rib.RecomputeDirty(1);
  EXPECT_EQ(rib.Best(p)->front().learned_from, 2u);
  rib.Withdraw(2, p);
  auto changed = rib.RecomputeDirty(1);
  EXPECT_EQ(changed.size(), 1u);
  EXPECT_EQ(rib.Best(p)->front().learned_from, 1u);
  rib.Withdraw(1, p);
  rib.RecomputeDirty(1);
  EXPECT_EQ(rib.Best(p), nullptr);
  // Withdrawing something absent is a no-op, not an error.
  rib.Withdraw(9, p);
  EXPECT_TRUE(rib.RecomputeDirty(1).size() <= 1);
}

TEST(RibTest, UnchangedUpsertDoesNotDirty) {
  Rib rib(nullptr);
  Route r = MakeRoute("10.0.0.0/24", 100, 2, 1);
  rib.Upsert(1, r);
  rib.RecomputeDirty(1);
  rib.Upsert(1, r);  // identical
  EXPECT_TRUE(rib.RecomputeDirty(1).empty());
}

TEST(RibTest, RecomputeReportsOnlyBestChanges) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.0.0.0/24", 200, 2, 1));
  rib.RecomputeDirty(1);
  // A strictly worse candidate dirties the prefix but can't change best.
  rib.Upsert(2, MakeRoute("10.0.0.0/24", 100, 2, 2));
  EXPECT_TRUE(rib.RecomputeDirty(1).empty());
}

TEST(RibTest, ContainsAndContributors) {
  Rib rib(nullptr);
  rib.Upsert(1, MakeRoute("10.1.2.0/24", 100, 2, 1));
  rib.Upsert(1, MakeRoute("10.1.3.0/24", 100, 2, 1));
  rib.RecomputeDirty(1);
  auto agg = util::MustParsePrefix("10.1.0.0/16");
  EXPECT_FALSE(rib.Contains(agg));
  EXPECT_TRUE(rib.HasContributor(agg));
  EXPECT_FALSE(rib.HasContributor(util::MustParsePrefix("10.2.0.0/16")));
  // The aggregate itself is not its own contributor.
  Rib rib2(nullptr);
  rib2.Upsert(1, MakeRoute("10.1.0.0/16", 100, 2, 1));
  rib2.RecomputeDirty(1);
  EXPECT_FALSE(rib2.HasContributor(agg));
  EXPECT_TRUE(rib2.Contains(agg));
}

TEST(RibTest, MemoryAccountingBalances) {
  util::MemoryTracker tracker("rib");
  {
    Rib rib(&tracker);
    for (topo::NodeId n = 1; n <= 4; ++n) {
      rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
    }
    rib.RecomputeDirty(4);
    EXPECT_GT(tracker.live_bytes(), 0u);
    rib.Clear();
    EXPECT_EQ(tracker.live_bytes(), 0u);
  }
}

TEST(RibTest, BudgetOverflowThrows) {
  util::MemoryTracker tracker("rib", 1000);
  Rib rib(&tracker);
  EXPECT_THROW(
      {
        for (topo::NodeId n = 1; n <= 100; ++n) {
          rib.Upsert(n, MakeRoute("10.0.0.0/24", 100, 2, n));
        }
      },
      util::SimulatedOom);
}

TEST(RibStoreTest, WriteReadRoundTrip) {
  RibStore store;
  std::map<util::IpPrefix, std::vector<Route>> best;
  best[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1),
      MakeRoute("10.0.0.0/24", 100, 2, 2)};
  best[util::MustParsePrefix("10.0.1.0/24")] = {
      MakeRoute("10.0.1.0/24", 100, 3, 3)};
  store.Write(0, 7, best);
  EXPECT_GT(store.bytes_written(), 0u);
  EXPECT_EQ(store.routes_written(), 3u);
  auto merged = store.ReadAll(7, TestPool());
  EXPECT_EQ(merged, best);
  EXPECT_TRUE(store.ReadAll(8, TestPool()).empty());
}

TEST(RibStoreTest, MergesAcrossShards) {
  RibStore store;
  std::map<util::IpPrefix, std::vector<Route>> shard0, shard1;
  shard0[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1)};
  shard1[util::MustParsePrefix("10.0.1.0/24")] = {
      MakeRoute("10.0.1.0/24", 100, 2, 2)};
  store.Write(0, 3, shard0);
  store.Write(1, 3, shard1);
  auto merged = store.ReadAll(3, TestPool());
  EXPECT_EQ(merged.size(), 2u);
}

using Batch = std::map<util::IpPrefix, std::vector<Route>>;

// A distinct spill batch per (shard, node): two prefixes, one with a
// two-way ECMP set.
Batch ShardBatch(int shard, topo::NodeId node) {
  const std::string net =
      "10." + std::to_string(shard) + "." + std::to_string(node * 2);
  const std::string next =
      "10." + std::to_string(shard) + "." + std::to_string(node * 2 + 1);
  Batch batch;
  batch[util::MustParsePrefix(net + ".0/24")] = {
      MakeRoute(net + ".0/24", 100, 2, node + 1),
      MakeRoute(net + ".0/24", 100, 2, node + 2)};
  batch[util::MustParsePrefix(next + ".0/24")] = {
      MakeRoute(next + ".0/24", 100, 3, node + 1)};
  return batch;
}

// Temp-dir entries named like this process's spill segments.
std::set<std::string> OwnSpillEntries() {
  std::set<std::string> names;
  const std::string prefix = "s2-ribstore-" + std::to_string(::getpid()) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.insert(name);
  }
  return names;
}

// The segment is unlinked as soon as it is created: no named entry exists
// before the first write, while the store holds spills, or after it dies.
TEST(RibStoreTest, SegmentLeavesNoNamedEntry) {
  EXPECT_TRUE(OwnSpillEntries().empty());
  {
    RibStore store;
    EXPECT_TRUE(OwnSpillEntries().empty());
    store.Write(0, 3, ShardBatch(0, 3));
    store.Write(1, 4, ShardBatch(1, 4));
    EXPECT_TRUE(OwnSpillEntries().empty());
    EXPECT_EQ(store.ReadAll(3, TestPool()), ShardBatch(0, 3));
    EXPECT_EQ(store.ReadAll(4, TestPool()), ShardBatch(1, 4));
  }
  EXPECT_TRUE(OwnSpillEntries().empty());
}

// Four writers append to one segment at once; every blob must read back
// exactly (run under TSan via the sanitizer legs).
TEST(RibStoreTest, ConcurrentWritersAllReadBack) {
  constexpr int kShards = 8;
  constexpr topo::NodeId kNodes = 4;
  std::map<topo::NodeId, std::vector<Batch>> batches;
  std::map<topo::NodeId, Batch> want;
  for (topo::NodeId node = 0; node < kNodes; ++node) {
    for (int shard = 0; shard < kShards; ++shard) {
      batches[node].push_back(ShardBatch(shard, node));
      want[node].insert(batches[node].back().begin(),
                        batches[node].back().end());
    }
  }
  RibStore store;
  std::vector<std::thread> writers;
  for (topo::NodeId node = 0; node < kNodes; ++node) {
    writers.emplace_back([&store, &batches, node] {
      for (int shard = 0; shard < kShards; ++shard) {
        store.Write(shard, node, batches.at(node)[shard]);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(store.routes_written(), size_t(kShards) * kNodes * 3);
  for (topo::NodeId node = 0; node < kNodes; ++node) {
    EXPECT_EQ(store.ReadAll(node, TestPool()), want[node]) << node;
    EXPECT_EQ(store.ReadShards(node, {5}, TestPool()), ShardBatch(5, node));
  }
}

// A worker process ships one shard's blobs after that shard's spill; the
// earlier shards were shipped already.
TEST(RibStoreTest, OwnBlobsShipsOnlyTheRequestedShard) {
  RibStore store;
  for (int shard = 0; shard < 3; ++shard) {
    for (topo::NodeId node = 0; node < 2; ++node) {
      store.Write(shard, node, ShardBatch(shard, node));
    }
  }
  std::map<topo::NodeId, std::vector<uint8_t>> blobs = store.OwnBlobs(1);
  ASSERT_EQ(blobs.size(), 2u);
  RibStore seeded;
  for (const auto& [node, bytes] : blobs) seeded.SeedBlob(1, node, bytes);
  for (topo::NodeId node = 0; node < 2; ++node) {
    EXPECT_EQ(seeded.ReadAll(node, TestPool()), ShardBatch(1, node));
  }
  EXPECT_TRUE(store.OwnBlobs(3).empty());
  EXPECT_EQ(seeded.routes_written(), 0u);  // seeding is not a spill
}

// Re-seeding a (shard, node) replaces its blob; ReadAll must not serve
// both the old and the new copy.
TEST(RibStoreTest, ReseedingReplacesTheBlob) {
  RibStore source;
  source.Write(0, 3, ShardBatch(0, 3));
  source.Write(1, 3, ShardBatch(1, 3));
  const std::vector<uint8_t> first = source.OwnBlobs(0).at(3);
  const std::vector<uint8_t> second = source.OwnBlobs(1).at(3);

  RibStore store;
  store.SeedBlob(0, 3, first);
  store.SeedBlob(0, 3, first);
  EXPECT_EQ(store.ReadAll(3, TestPool()), ShardBatch(0, 3));
  store.SeedBlob(0, 3, second);
  EXPECT_EQ(store.ReadAll(3, TestPool()), ShardBatch(1, 3));
  EXPECT_EQ(store.ReadShards(3, {0}, TestPool()), ShardBatch(1, 3));
}

// A temp dir the segment cannot be created under is a StorageError that
// names the errno; once TMPDIR is usable again the same store spills.
TEST(RibStoreTest, UnusableTempDirIsAStorageError) {
  RibStore store;
  {
    testing::UnusableTmpdir tmpdir;
    try {
      store.Write(0, 3, ShardBatch(0, 3));
      ADD_FAILURE() << "Write succeeded under an unusable TMPDIR";
    } catch (const util::StorageError& error) {
      EXPECT_NE(std::string(error.what()).find(std::strerror(ENOTDIR)),
                std::string::npos)
          << error.what();
    }
  }
  store.Write(0, 3, ShardBatch(0, 3));
  EXPECT_EQ(store.ReadAll(3, TestPool()), ShardBatch(0, 3));
}

// A file-size limit cuts a spill short: the store reports the failed
// write instead of indexing a torn blob. The limit is set in a forked
// child of this test, so no other test runs under it.
TEST(RibStoreTest, ShortWriteIsAStorageError) {
  const Batch batch = ShardBatch(0, 3);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RibStore store;
    store.Write(0, 3, batch);
    // The second blob crosses the limit halfway: one short pwrite, then
    // EFBIG (SIGXFSZ ignored, so the process survives to see it).
    const rlim_t limit = store.bytes_written() * 3 / 2;
    ::signal(SIGXFSZ, SIG_IGN);
    rlimit fsize{limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &fsize) != 0) ::_exit(3);
    int code = 1;
    try {
      store.Write(1, 3, batch);
    } catch (const util::StorageError& error) {
      code = std::strstr(error.what(), std::strerror(EFBIG)) ? 0 : 2;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: no error, 2: wrong errno, 3: setrlimit failed";
}

}  // namespace
}  // namespace s2::cp
