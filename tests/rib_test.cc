// RIB tests: candidate bookkeeping, best/ECMP selection, dirty tracking,
// aggregate contributor scans, memory accounting, and the on-disk RIB
// store used by prefix sharding.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cp/attr.h"
#include "cp/rib.h"

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

// Names of this process's spill directories under the temp dir.
std::set<std::string> OwnSpillDirs() {
  std::set<std::string> names;
  const std::string prefix = "s2-ribstore-" + std::to_string(::getpid()) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.insert(name);
  }
  return names;
}

TEST(RibStoreTest, InMemoryStoreCreatesNoDirectory) {
  std::set<std::string> before = OwnSpillDirs();
  {
    RibStore store;
    store.EnableInMemorySpills();
    std::map<util::IpPrefix, std::vector<Route>> best;
    best[util::MustParsePrefix("10.0.0.0/24")] = {
        MakeRoute("10.0.0.0/24", 100, 2, 1)};
    store.Write(0, 3, best);
    EXPECT_EQ(store.ReadAll(3, TestPool()), best);
    EXPECT_EQ(OwnSpillDirs(), before);
  }
  EXPECT_EQ(OwnSpillDirs(), before);
}

TEST(RibStoreTest, DiskStoreCreatesItsDirectoryOnFirstWriteOnly) {
  std::set<std::string> before = OwnSpillDirs();
  {
    RibStore store;
    EXPECT_EQ(OwnSpillDirs(), before);  // nothing spilled yet
    std::map<util::IpPrefix, std::vector<Route>> best;
    best[util::MustParsePrefix("10.0.0.0/24")] = {
        MakeRoute("10.0.0.0/24", 100, 2, 1)};
    store.Write(0, 3, best);
    store.Write(1, 4, best);
    EXPECT_EQ(OwnSpillDirs().size(), before.size() + 1);
  }
  EXPECT_EQ(OwnSpillDirs(), before);  // the destructor removed it
}

// The first on-disk writes race to create the directory; every spill must
// still land (run under TSan via the sanitizer legs).
TEST(RibStoreTest, ConcurrentFirstWritesShareOneDirectory) {
  std::set<std::string> before = OwnSpillDirs();
  RibStore store;
  std::map<util::IpPrefix, std::vector<Route>> best;
  best[util::MustParsePrefix("10.0.0.0/24")] = {
      MakeRoute("10.0.0.0/24", 100, 2, 1)};
  std::vector<std::thread> writers;
  for (topo::NodeId node = 0; node < 4; ++node) {
    writers.emplace_back([&store, &best, node] { store.Write(0, node, best); });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(OwnSpillDirs().size(), before.size() + 1);
  for (topo::NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(store.ReadAll(node, TestPool()), best);
  }
}

}  // namespace
}  // namespace s2::cp
