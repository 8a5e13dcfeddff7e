// BDD engine tests: boolean algebra, canonicity, quantification, counting,
// garbage collection, and the node-table capacity failure mode — plus a
// property sweep checking the engine against brute-force truth tables on
// random expressions.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bdd/bdd.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/status.h"

namespace s2::bdd {
namespace {

TEST(BddTest, TerminalBasics) {
  Manager m(4);
  EXPECT_TRUE(m.Zero().IsZero());
  EXPECT_TRUE(m.One().IsOne());
  EXPECT_FALSE(m.Zero().IsOne());
  EXPECT_EQ(m.Zero(), m.Zero());
  EXPECT_NE(m.Zero().id(), m.One().id());
}

TEST(BddTest, VarAndNotVar) {
  Manager m(4);
  Bdd x = m.Var(0);
  EXPECT_EQ(!x, m.NotVar(0));
  EXPECT_EQ(x & m.NotVar(0), m.Zero());
  EXPECT_EQ(x | m.NotVar(0), m.One());
}

TEST(BddTest, AlgebraIdentities) {
  Manager m(6);
  Bdd a = m.Var(0), b = m.Var(1), c = m.Var(2);
  EXPECT_EQ(a & m.One(), a);
  EXPECT_EQ(a & m.Zero(), m.Zero());
  EXPECT_EQ(a | m.Zero(), a);
  EXPECT_EQ(a | m.One(), m.One());
  EXPECT_EQ(a ^ a, m.Zero());
  EXPECT_EQ(a & b, b & a);
  EXPECT_EQ((a & b) & c, a & (b & c));
  // De Morgan.
  EXPECT_EQ(!(a & b), !a | !b);
  EXPECT_EQ(!(a | b), !a & !b);
  // Distribution.
  EXPECT_EQ(a & (b | c), (a & b) | (a & c));
}

TEST(BddTest, CanonicityMakesEqualityStructural) {
  Manager m(5);
  Bdd a = m.Var(0), b = m.Var(1);
  Bdd f = (a & b) | (a & !b);  // == a
  EXPECT_EQ(f, a);
  EXPECT_EQ(f.id(), a.id());
}

TEST(BddTest, IteMatchesDefinition) {
  Manager m(6);
  Bdd f = m.Var(0), g = m.Var(1), h = m.Var(2);
  EXPECT_EQ(m.Ite(f, g, h), (f & g) | (!f & h));
  EXPECT_EQ(m.Ite(m.One(), g, h), g);
  EXPECT_EQ(m.Ite(m.Zero(), g, h), h);
  EXPECT_EQ(m.Ite(f, m.One(), m.Zero()), f);
  EXPECT_EQ(m.Ite(f, m.Zero(), m.One()), !f);
}

TEST(BddTest, RestrictCofactors) {
  Manager m(4);
  Bdd a = m.Var(0), b = m.Var(1);
  Bdd f = a & b;
  EXPECT_EQ(m.Restrict(f, 0, true), b);
  EXPECT_EQ(m.Restrict(f, 0, false), m.Zero());
  EXPECT_EQ(m.Restrict(f, 3, true), f);  // absent variable: no-op
}

TEST(BddTest, ExistsQuantifies) {
  Manager m(4);
  Bdd a = m.Var(0), b = m.Var(1);
  EXPECT_EQ(m.Exists(a & b, {0}), b);
  EXPECT_EQ(m.Exists(a & b, {0, 1}), m.One());
  EXPECT_EQ(m.Exists(m.Zero(), {0}), m.Zero());
}

TEST(BddTest, CubeEncodesValue) {
  Manager m(8);
  // Cube over vars [2,6) with value 0b1010: var2 (bit0=0), var3 (bit1=1)...
  Bdd cube = m.Cube(2, 4, 0b1010);
  EXPECT_EQ(cube & m.NotVar(2), cube);  // bit0 = 0
  EXPECT_EQ(cube & m.Var(3), cube);     // bit1 = 1
  EXPECT_EQ(cube & m.NotVar(4), cube);
  EXPECT_EQ(cube & m.Var(5), cube);
  EXPECT_DOUBLE_EQ(m.SatFraction(cube), 1.0 / 16.0);
}

TEST(BddTest, MaskedMatchIsMsbFirstPrefixMatch) {
  Manager m(8);
  // 8-bit field at vars [0,8): match value 0b10100000 under /3 mask.
  Bdd f = m.MaskedMatch(0, 8, 0b10100000, 0b11100000);
  // var0 is the MSB: must be 1; var1 = 0; var2 = 1; rest free.
  EXPECT_EQ(f & m.Var(0), f);
  EXPECT_EQ(f & m.NotVar(1), f);
  EXPECT_EQ(f & m.Var(2), f);
  EXPECT_DOUBLE_EQ(m.SatFraction(f), 1.0 / 8.0);
  // Empty mask matches everything.
  EXPECT_EQ(m.MaskedMatch(0, 8, 0, 0), m.One());
}

TEST(BddTest, MakeBddBuildsReducedOrderedNodes) {
  Manager m(4);
  Bdd x2 = m.Var(2);
  // Reduction rule: equal children collapse to the child itself.
  EXPECT_EQ(m.MakeBdd(0, x2, x2), x2);
  EXPECT_EQ(m.MakeBdd(1, m.One(), m.One()), m.One());
  // A known triple returns the existing node's id.
  Bdd ite = m.Ite(m.Var(1), x2, m.Zero());  // (v1 ? v2 : 0)
  size_t allocated = m.allocated_nodes();
  EXPECT_EQ(m.MakeBdd(1, m.Zero(), x2).id(), ite.id());
  EXPECT_EQ(m.MakeBdd(2, m.Zero(), m.One()).id(), x2.id());
  EXPECT_EQ(m.allocated_nodes(), allocated);
  // A fresh triple is the function it names.
  Bdd f = m.MakeBdd(0, x2, m.One());
  EXPECT_EQ(f, m.Var(0) | x2);
  // The variable must precede both children's and exist in the manager.
  EXPECT_THROW(m.MakeBdd(2, x2, m.Zero()), std::invalid_argument);
  EXPECT_THROW(m.MakeBdd(3, m.Zero(), x2), std::invalid_argument);
  EXPECT_THROW(m.MakeBdd(4, m.Zero(), m.One()), std::invalid_argument);
  Manager other(4);
  EXPECT_THROW(m.MakeBdd(0, other.Var(1), m.One()), std::invalid_argument);
}

TEST(BddTest, SatFraction) {
  Manager m(4);
  EXPECT_DOUBLE_EQ(m.SatFraction(m.Zero()), 0.0);
  EXPECT_DOUBLE_EQ(m.SatFraction(m.One()), 1.0);
  EXPECT_DOUBLE_EQ(m.SatFraction(m.Var(0)), 0.5);
  EXPECT_DOUBLE_EQ(m.SatFraction(m.Var(0) & m.Var(1)), 0.25);
  EXPECT_DOUBLE_EQ(m.SatFraction(m.Var(0) | m.Var(1)), 0.75);
}

TEST(BddTest, AnySatReturnsSatisfyingPath) {
  Manager m(4);
  Bdd f = m.Var(0) & !m.Var(2);
  auto assignment = m.AnySat(f);
  // Apply the assignment: restricting by it must give One.
  Bdd g = f;
  for (auto [var, value] : assignment) g = m.Restrict(g, var, value);
  EXPECT_TRUE(g.IsOne());
}

TEST(BddTest, DiffImpliesIntersects) {
  Manager m(4);
  Bdd a = m.Var(0), b = m.Var(0) & m.Var(1);
  EXPECT_TRUE(b.Implies(a));
  EXPECT_FALSE(a.Implies(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(!a));
  EXPECT_EQ(a.Diff(b), m.Var(0) & !m.Var(1));
}

TEST(BddTest, HandleCopySemantics) {
  Manager m(4);
  Bdd a = m.Var(0);
  Bdd copy = a;
  Bdd moved = std::move(copy);
  EXPECT_EQ(moved, a);
  EXPECT_FALSE(copy.valid());  // NOLINT(bugprone-use-after-move)
  copy = moved;
  EXPECT_EQ(copy, a);
  a = a;  // self-assignment safe
  EXPECT_TRUE(a.valid());
}

TEST(BddTest, GarbageCollectionFreesDeadNodes) {
  Manager m(16);
  size_t baseline = m.allocated_nodes();
  {
    Bdd junk = m.One();
    for (uint32_t i = 0; i < 16; ++i) junk &= (m.Var(i) | m.Var((i + 1) % 16));
    EXPECT_GT(m.allocated_nodes(), baseline);
  }
  m.GarbageCollect();
  EXPECT_EQ(m.live_nodes(), 0u);
  // Live handles survive GC and keep working.
  Bdd keep = m.Var(3) & m.Var(5);
  m.GarbageCollect();
  EXPECT_EQ(keep, m.Var(3) & m.Var(5));
}

TEST(BddTest, NodeTableCapacityThrowsSimulatedOom) {
  Manager::Options options;
  options.max_nodes = 16;  // tiny table: terminals + a handful
  Manager m(32, options);
  EXPECT_THROW(
      {
        Bdd f = m.Zero();
        for (uint32_t i = 0; i < 32; i += 2) {
          f = f | (m.Var(i) & m.Var(i + 1));
        }
      },
      util::SimulatedOom);
}

TEST(BddTest, AutomaticGcKeepsChurnBounded) {
  // Build and drop thousands of transient functions: the threshold-driven
  // GC must keep the node table from growing with the churn.
  Manager m(32);
  size_t high_water = 0;
  for (int round = 0; round < 2000; ++round) {
    Bdd f = m.Cube(0, 16, static_cast<uint64_t>(round) * 2654435761u);
    f &= m.Var(16 + round % 16);
    high_water = std::max(high_water, m.allocated_nodes());
  }
  // Each round allocates ~17 nodes; without GC the table would hold
  // ~34000. The watermark trigger keeps it near twice the live set.
  EXPECT_LT(high_water, 12000u);
  m.GarbageCollect();
  EXPECT_EQ(m.live_nodes(), 0u);
}

TEST(BddTest, PauseGcSuppressesAutomaticCollection) {
  // With GC held (the query service's serving-domain mode), the same churn
  // that trips the watermark in AutomaticGcKeepsChurnBounded must not
  // collect: the table grows and the generation never advances.
  Manager m(32);
  m.PauseGc();
  EXPECT_TRUE(m.gc_paused());
  uint32_t generation = m.generation();
  for (int round = 0; round < 2000; ++round) {
    Bdd f = m.Cube(0, 16, static_cast<uint64_t>(round) * 2654435761u);
    f &= m.Var(16 + round % 16);
  }
  EXPECT_EQ(m.generation(), generation);
  EXPECT_GT(m.allocated_nodes(), 12000u);
  // Explicit collection still works while held.
  m.GarbageCollect();
  EXPECT_EQ(m.live_nodes(), 0u);
  EXPECT_EQ(m.generation(), generation + 1);
  // Resume rearms the automatic trigger.
  m.ResumeGc();
  EXPECT_FALSE(m.gc_paused());
  size_t high_water = 0;
  for (int round = 0; round < 2000; ++round) {
    Bdd f = m.Cube(0, 16, static_cast<uint64_t>(round) * 2654435761u);
    f &= m.Var(16 + round % 16);
    high_water = std::max(high_water, m.allocated_nodes());
  }
  EXPECT_GT(m.generation(), generation + 1);
}

TEST(BddTest, PinnedRootsSurviveExplicitGc) {
  // PinRoot marks a node as part of an immutable snapshot surface; GC with
  // the root still referenced is fine, and the debug sweep assertion
  // (never reclaim a pinned slot) stays quiet.
  Manager m(16);
  Bdd root = (m.Var(0) & m.Var(1)) | m.Var(2);
  m.PinRoot(root);
  EXPECT_EQ(m.pinned_roots(), 1u);
  m.PinRoot(root);  // idempotent
  EXPECT_EQ(m.pinned_roots(), 1u);
  // Terminals and foreign/invalid handles are never pinned.
  m.PinRoot(m.One());
  m.PinRoot(Bdd());
  EXPECT_EQ(m.pinned_roots(), 1u);
  {
    Bdd junk = m.Cube(0, 12, 0x5a5a);
  }
  m.GarbageCollect();
  EXPECT_EQ(root, (m.Var(0) & m.Var(1)) | m.Var(2));
}

TEST(BddTest, FreedSlotsAreReused) {
  Manager m(8);
  {
    Bdd junk = m.Var(0) & m.Var(1) & m.Var(2);
  }
  m.GarbageCollect();
  size_t after_gc = m.allocated_nodes();
  EXPECT_EQ(after_gc, 2u);  // only the terminals survive
  Bdd again = m.Var(0) & m.Var(1) & m.Var(2);
  // Rebuilding the same function (3 var nodes + 3 conjunction nodes) must
  // reuse freed slots: the slab never grows past its previous peak.
  EXPECT_EQ(m.allocated_nodes(), after_gc + 6);
  EXPECT_LE(m.allocated_nodes(), m.peak_nodes());
}

TEST(BddTest, TrackerAccountsNodeBytes) {
  util::MemoryTracker tracker("bdd");
  Manager::Options options;
  options.tracker = &tracker;
  {
    Manager m(8, options);
    Bdd f = m.Var(0) & m.Var(1) & m.Var(2);
    EXPECT_GE(tracker.live_bytes(), 3 * Manager::kNodeBytes);
  }
  EXPECT_EQ(tracker.live_bytes(), 0u);  // manager teardown releases
}

// Property sweep: evaluate random expression trees both through the BDD
// engine and by brute-force truth-table enumeration.
class RandomExpressionTest : public ::testing::TestWithParam<uint64_t> {};

struct Expr {
  // 0..2: op and/or/xor, 3: not, 4: leaf var
  int kind;
  uint32_t var = 0;
  std::unique_ptr<Expr> lhs, rhs;
};

std::unique_ptr<Expr> RandomExpr(util::Rng& rng, int depth,
                                 uint32_t num_vars) {
  auto e = std::make_unique<Expr>();
  if (depth == 0 || rng.Below(4) == 0) {
    e->kind = 4;
    e->var = static_cast<uint32_t>(rng.Below(num_vars));
    return e;
  }
  e->kind = static_cast<int>(rng.Below(4));
  e->lhs = RandomExpr(rng, depth - 1, num_vars);
  if (e->kind != 3) e->rhs = RandomExpr(rng, depth - 1, num_vars);
  return e;
}

Bdd ToBdd(const Expr& e, Manager& m) {
  switch (e.kind) {
    case 0:
      return ToBdd(*e.lhs, m) & ToBdd(*e.rhs, m);
    case 1:
      return ToBdd(*e.lhs, m) | ToBdd(*e.rhs, m);
    case 2:
      return ToBdd(*e.lhs, m) ^ ToBdd(*e.rhs, m);
    case 3:
      return !ToBdd(*e.lhs, m);
    default:
      return m.Var(e.var);
  }
}

bool Eval(const Expr& e, uint32_t assignment) {
  switch (e.kind) {
    case 0:
      return Eval(*e.lhs, assignment) && Eval(*e.rhs, assignment);
    case 1:
      return Eval(*e.lhs, assignment) || Eval(*e.rhs, assignment);
    case 2:
      return Eval(*e.lhs, assignment) != Eval(*e.rhs, assignment);
    case 3:
      return !Eval(*e.lhs, assignment);
    default:
      return (assignment >> e.var) & 1;
  }
}

TEST_P(RandomExpressionTest, MatchesTruthTable) {
  constexpr uint32_t kVars = 6;
  util::Rng rng(GetParam());
  Manager m(kVars);
  auto expr = RandomExpr(rng, 5, kVars);
  Bdd f = ToBdd(*expr, m);
  size_t sat = 0;
  for (uint32_t assignment = 0; assignment < (1u << kVars); ++assignment) {
    bool expected = Eval(*expr, assignment);
    // Restrict the BDD by the assignment; the result must be the matching
    // terminal. Note Var(i) is the BDD "bit i is 1", and our assignment
    // packs var i at bit i.
    Bdd g = f;
    for (uint32_t v = 0; v < kVars; ++v) {
      g = m.Restrict(g, v, (assignment >> v) & 1);
    }
    ASSERT_TRUE(g.IsOne() || g.IsZero());
    EXPECT_EQ(g.IsOne(), expected) << "assignment " << assignment;
    sat += expected;
  }
  EXPECT_DOUBLE_EQ(m.SatFraction(f),
                   double(sat) / double(1u << kVars));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpressionTest,
                         ::testing::Range<uint64_t>(0, 20));

// ------------------------------------------------------------ op caches
// The generational fixed-size bin/ITE caches: hit/miss/eviction counters,
// GC purge semantics (entries over live nodes survive, entries over freed
// slots are dropped), and randomized equivalence under forced eviction and
// mid-operation GC schedules.

TEST(OpCacheTest, RepeatedOperationsHitTheCache) {
  Manager m(8);
  Bdd a = m.Var(0), b = m.Var(1);
  Bdd f = a & b;
  EXPECT_GT(m.cache_stats().misses, 0u);  // first computation missed
  size_t misses = m.cache_stats().misses;
  size_t hits = m.cache_stats().hits;
  Bdd g = a & b;  // same operands, same op: served from the cache
  EXPECT_EQ(f, g);
  EXPECT_GT(m.cache_stats().hits, hits);
  EXPECT_EQ(m.cache_stats().misses, misses);
}

TEST(OpCacheTest, GenerationAdvancesPerGc) {
  Manager m(4);
  uint32_t before = m.generation();
  m.GarbageCollect();
  EXPECT_EQ(m.generation(), before + 1);
}

TEST(OpCacheTest, GcKeepsEntriesOverLiveNodes) {
  Manager m(8);
  Bdd a = m.Var(0), b = m.Var(1);
  Bdd f = a & b;       // caches (a, b, and) -> f
  m.GarbageCollect();  // every referenced node is live: entry survives
  EXPECT_GT(m.cache_stats().gc_kept, 0u);
  size_t hits = m.cache_stats().hits;
  EXPECT_EQ(a & b, f);  // still served from the preserved entry
  EXPECT_GT(m.cache_stats().hits, hits);
}

TEST(OpCacheTest, GcDropsEntriesOverFreedSlots) {
  Manager m(8);
  {
    Bdd junk = m.Var(0) & m.Var(1) & m.Var(2);
  }
  m.GarbageCollect();  // the conjunction nodes died with the handle
  EXPECT_GT(m.cache_stats().gc_dropped, 0u);
  // A dropped entry must recompute — and the result is still correct.
  EXPECT_EQ(m.Restrict(m.Var(0) & m.Var(1), 0, true), m.Var(1));
}

std::unique_ptr<Expr> Leaf(uint32_t var) {
  auto e = std::make_unique<Expr>();
  e->kind = 4;
  e->var = var;
  return e;
}

std::unique_ptr<Expr> Combine(int kind, std::unique_ptr<Expr> lhs,
                              std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

// A random expression XOR-ed with the parity of all variables — parity has
// no small BDD, so the formula is guaranteed substantial regardless of how
// quickly RandomExpr bottomed out (the cache-pressure and GC-schedule
// assertions below need a formula whose restricts actually do work).
std::unique_ptr<Expr> RandomDeepExpr(util::Rng& rng, uint32_t num_vars) {
  std::unique_ptr<Expr> parity = Leaf(0);
  for (uint32_t v = 1; v < num_vars; ++v) {
    parity = Combine(2, std::move(parity), Leaf(v));
  }
  return Combine(2, RandomExpr(rng, 5, num_vars), std::move(parity));
}

// Forced eviction: a 16-entry cache under an 8-variable random formula
// churns constantly, yet every operation must stay truth-table exact —
// evicting can only cost recomputation, never correctness.
class RandomCachePressureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCachePressureTest, TinyCacheMatchesTruthTable) {
  constexpr uint32_t kVars = 8;
  util::Rng rng(GetParam());
  Manager::Options options;
  options.op_cache_entries = 16;
  Manager m(kVars, options);
  auto expr = RandomDeepExpr(rng, kVars);
  Bdd f = ToBdd(*expr, m);
  for (uint32_t assignment = 0; assignment < (1u << kVars); ++assignment) {
    Bdd g = f;
    for (uint32_t v = 0; v < kVars; ++v) {
      g = m.Restrict(g, v, (assignment >> v) & 1);
    }
    ASSERT_TRUE(g.IsOne() || g.IsZero());
    EXPECT_EQ(g.IsOne(), Eval(*expr, assignment))
        << "assignment " << assignment;
  }
  EXPECT_GT(m.cache_stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCachePressureTest,
                         ::testing::Range<uint64_t>(100, 110));

// Builds the expression with GarbageCollect() interleaved into the
// recursion — a hostile GC schedule firing while operand handles are live
// on the construction stack.
Bdd ToBddWithGc(const Expr& e, Manager& m, int& countdown) {
  if (--countdown <= 0) {
    m.GarbageCollect();
    countdown = 3;
  }
  switch (e.kind) {
    case 0:
      return ToBddWithGc(*e.lhs, m, countdown) &
             ToBddWithGc(*e.rhs, m, countdown);
    case 1:
      return ToBddWithGc(*e.lhs, m, countdown) |
             ToBddWithGc(*e.rhs, m, countdown);
    case 2:
      return ToBddWithGc(*e.lhs, m, countdown) ^
             ToBddWithGc(*e.rhs, m, countdown);
    case 3:
      return !ToBddWithGc(*e.lhs, m, countdown);
    default:
      return m.Var(e.var);
  }
}

class RandomGcScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGcScheduleTest, MidOperationGcMatchesTruthTable) {
  constexpr uint32_t kVars = 8;
  util::Rng rng(GetParam());
  Manager m(kVars);
  auto expr = RandomDeepExpr(rng, kVars);
  int countdown = 2 + static_cast<int>(rng.Below(4));
  Bdd f = ToBddWithGc(*expr, m, countdown);
  EXPECT_GT(m.generation(), 1u);  // the schedule actually fired
  for (uint32_t assignment = 0; assignment < (1u << kVars); ++assignment) {
    Bdd g = f;
    for (uint32_t v = 0; v < kVars; ++v) {
      g = m.Restrict(g, v, (assignment >> v) & 1);
      if (assignment % 64 == 63) m.GarbageCollect();  // mid-restrict GC too
    }
    ASSERT_TRUE(g.IsOne() || g.IsZero());
    EXPECT_EQ(g.IsOne(), Eval(*expr, assignment))
        << "assignment " << assignment;
  }
  EXPECT_GT(m.cache_stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGcScheduleTest,
                         ::testing::Range<uint64_t>(200, 210));

// ---------------------------------------------------------- unique table
// The open-addressed id table: node ids, the free-list order and memory
// accounting must not depend on how the table is laid out, and removing
// swept nodes must never lose a survivor that probes past them.

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The predicate "the top len bits of a 32-bit field equal those of value".
Bdd Prefix32(Manager& m, uint64_t value, uint32_t len) {
  uint64_t mask = ((uint64_t{1} << len) - 1) << (32 - len);
  return m.MaskedMatch(0, 32, value & mask, mask);
}

// A fixed seeded script over every operation, with explicit and
// threshold-driven GCs. The golden hash covers every returned root id and
// the node and byte accounting after each step; it was captured from the
// std::unordered_map unique table this one replaced, so it pins ids, the
// free-list order and accounting across table changes.
TEST(UniqueTableTest, ScriptPinsNodeIdsAndAccounting) {
  constexpr uint32_t kVars = 32;
  util::MemoryTracker tracker("bdd");
  Manager::Options options;
  options.tracker = &tracker;
  Manager m(kVars, options);
  const size_t initial_slots = m.unique_slots();
  util::Rng rng(20251017);
  std::vector<Bdd> pool(48, m.Zero());
  auto pick = [&]() -> Bdd& { return pool[rng.Below(pool.size())]; };
  auto prefix = [&] {
    uint32_t len = 12 + static_cast<uint32_t>(rng.Below(17));
    return Prefix32(m, rng.Next(), len);
  };
  auto var = [&] { return static_cast<uint32_t>(rng.Below(kVars)); };
  uint64_t h = 0xcbf29ce484222325ULL;
  bool load_ok = true;
  for (int step = 0; step < 11000; ++step) {
    Bdd& out = pick();
    // Unions with a fresh prefix dominate, so the table keeps growing.
    // Every draw is its own statement: argument evaluation order is
    // unspecified, and the golden hash must not depend on the compiler.
    uint64_t op =
        rng.Below(16) == 15 ? 15 : (rng.Below(3) != 0 ? 0 : rng.Below(15));
    if (op < 6) {
      out = out | prefix();
    } else if (op < 8) {
      Bdd& a = pick();
      out = m.And(a, !prefix());
    } else if (op == 8) {
      Bdd& a = pick();
      out = m.Xor(a, prefix());
    } else if (op < 11) {
      Bdd& a = pick();
      out = m.Or(a, pick());
    } else if (op == 11) {
      Bdd p = prefix();
      Bdd& a = pick();
      out = m.Ite(p, a, pick());
    } else if (op == 12) {
      Bdd& a = pick();
      uint32_t v = var();
      out = m.Restrict(a, v, rng.Below(2) == 1);
    } else if (op == 13) {
      Bdd& a = pick();
      out = m.Exists(a, {var(), var()});
    } else if (op == 14) {
      Bdd& a = pick();
      out = m.And(a, pick());
    } else if (rng.Below(8) == 0) {
      m.GarbageCollect();
    }
    h = Fnv(h, out.id());
    h = Fnv(h, m.allocated_nodes());
    h = Fnv(h, m.peak_nodes());
    h = Fnv(h, tracker.live_bytes());
    h = Fnv(h, tracker.peak_bytes());
    load_ok &= 2 * (m.allocated_nodes() - 2) <= m.unique_slots();
  }
  EXPECT_EQ(h, 0x4d88049a540e8c30ULL);
  EXPECT_TRUE(load_ok) << "unique table load above 1/2";
  EXPECT_GT(m.peak_nodes(), 50000u);
  EXPECT_GE(m.unique_slots(), 8 * initial_slots);  // >= 3 doublings
  EXPECT_GE(m.generation(), 60u);  // explicit plus threshold sweeps
}

// Functions given as lists of (value, length) prefixes to union.
using PrefixSpec = std::vector<std::pair<uint64_t, uint32_t>>;

Bdd BuildUnion(Manager& m, const PrefixSpec& spec) {
  Bdd f = m.Zero();
  for (const auto& [value, len] : spec) f |= Prefix32(m, value, len);
  return f;
}

std::vector<PrefixSpec> RandomSpecs(util::Rng& rng, size_t count) {
  std::vector<PrefixSpec> specs(count);
  for (PrefixSpec& spec : specs) {
    for (int i = 0; i < 30; ++i) {
      uint64_t value = rng.Next();
      spec.emplace_back(value, 12 + static_cast<uint32_t>(rng.Below(17)));
    }
  }
  return specs;
}

TEST(UniqueTableTest, GrowthThenSweepThenRebuildKeepsIds) {
  util::Rng rng(31);
  std::vector<PrefixSpec> specs = RandomSpecs(rng, 300);
  Manager m(32);
  std::vector<Bdd> first;
  for (const PrefixSpec& spec : specs) first.push_back(BuildUnion(m, spec));
  const size_t grown_slots = m.unique_slots();
  EXPECT_GT(m.peak_nodes(), 50000u);
  // Keep one function in eight and sweep the rest away.
  std::vector<uint32_t> first_ids;
  for (size_t i = 0; i < first.size(); ++i) {
    first_ids.push_back(first[i].id());
    if (i % 8 != 0) first[i] = Bdd();
  }
  m.GarbageCollect();
  size_t survivors = m.allocated_nodes();
  EXPECT_LT(survivors, m.peak_nodes() / 4);
  EXPECT_EQ(m.unique_slots(), grown_slots);  // the table never shrinks
  // Rebuilding finds every survivor under its old id.
  std::vector<Bdd> rebuilt;
  for (const PrefixSpec& spec : specs) rebuilt.push_back(BuildUnion(m, spec));
  for (size_t i = 0; i < specs.size(); i += 8) {
    EXPECT_EQ(rebuilt[i].id(), first_ids[i]) << "function " << i;
  }
  // No duplicate triples: after a sweep, the node count equals that of a
  // fresh manager holding the same functions.
  first.clear();
  m.GarbageCollect();
  Manager reference(32);
  std::vector<Bdd> held;
  for (const PrefixSpec& spec : specs) {
    held.push_back(BuildUnion(reference, spec));
  }
  reference.GarbageCollect();
  EXPECT_EQ(m.allocated_nodes(), reference.allocated_nodes());
  // Building everything once more finds the same roots and, once the
  // re-made intermediates are swept, leaves the same node count.
  size_t settled = m.allocated_nodes();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(BuildUnion(m, specs[i]).id(), rebuilt[i].id());
  }
  m.GarbageCollect();
  EXPECT_EQ(m.allocated_nodes(), settled);
}

// Sweeps random halves of a table held near its load limit. Membership is
// chosen independently of the hash, so swept and surviving nodes share
// probe runs; re-making every survivor's triples (Cube calls MakeNode on
// each level) must return the old ids and allocate nothing.
TEST(UniqueTableTest, SweepInsideProbeRunsKeepsSurvivorsFindable) {
  util::Rng rng(47);
  Manager m(24);
  std::vector<std::pair<uint64_t, Bdd>> live;
  for (int round = 0; round < 8; ++round) {
    while (2 * (m.allocated_nodes() + 24) <= m.unique_slots() ||
           live.size() < 64) {
      uint64_t value = rng.Next() & 0xffffff;
      live.emplace_back(value, m.Cube(0, 24, value));
    }
    rng.Shuffle(live);
    live.resize(live.size() / 2);
    m.GarbageCollect();
    size_t allocated = m.allocated_nodes();
    for (const auto& [value, cube] : live) {
      ASSERT_EQ(m.Cube(0, 24, value).id(), cube.id()) << "round " << round;
    }
    EXPECT_EQ(m.allocated_nodes(), allocated) << "round " << round;
  }
}

}  // namespace
}  // namespace s2::bdd
