#include "bdd/bdd.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "obs/trace.h"

namespace s2::bdd {

namespace {
// Slot marker for entries on the free list.
constexpr uint32_t kFreeVar = ~uint32_t{0} - 1;
// Initial unique-table buckets; the table doubles from here.
constexpr size_t kInitialUniqueSlots = 1024;
}  // namespace

// ---------------------------------------------------------------- handles

Bdd::Bdd(Manager* manager, uint32_t node) : manager_(manager), node_(node) {
  manager_->Ref(node_);
}

Bdd::Bdd(const Bdd& other) : manager_(other.manager_), node_(other.node_) {
  if (manager_) manager_->Ref(node_);
}

Bdd::Bdd(Bdd&& other) noexcept
    : manager_(other.manager_), node_(other.node_) {
  other.manager_ = nullptr;
  other.node_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.manager_) other.manager_->Ref(other.node_);
  if (manager_) manager_->Deref(node_);
  manager_ = other.manager_;
  node_ = other.node_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (manager_) manager_->Deref(node_);
  manager_ = other.manager_;
  node_ = other.node_;
  other.manager_ = nullptr;
  other.node_ = 0;
  return *this;
}

Bdd::~Bdd() {
  if (manager_) manager_->Deref(node_);
}

bool Bdd::IsZero() const { return manager_ && node_ == Manager::kZero; }
bool Bdd::IsOne() const { return manager_ && node_ == Manager::kOne; }

Bdd Bdd::operator&(const Bdd& rhs) const { return manager_->And(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return manager_->Or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return manager_->Xor(*this, rhs); }
Bdd Bdd::operator!() const { return manager_->Not(*this); }

Bdd& Bdd::operator&=(const Bdd& rhs) { return *this = *this & rhs; }
Bdd& Bdd::operator|=(const Bdd& rhs) { return *this = *this | rhs; }

Bdd Bdd::Diff(const Bdd& rhs) const { return *this & !rhs; }

bool Bdd::Intersects(const Bdd& rhs) const {
  return !(*this & rhs).IsZero();
}

bool Bdd::Implies(const Bdd& rhs) const { return Diff(rhs).IsZero(); }

// ---------------------------------------------------------------- manager

Manager::Manager(uint32_t num_vars, Options options)
    : num_vars_(num_vars), options_(options) {
  // Terminals occupy slots 0 and 1 and are permanently referenced.
  nodes_.push_back(Node{kTerminalVar, kZero, kZero});
  nodes_.push_back(Node{kTerminalVar, kOne, kOne});
  refcounts_.assign(2, 1);
  peak_nodes_ = 2;
  RehashUnique(kInitialUniqueSlots);
  bin_cache_.Init(options_.op_cache_entries);
  ite_cache_.Init(options_.op_cache_entries);
}

// --------------------------------------------------------------- op cache

void Manager::OpCache::Init(size_t entries) {
  size_t sets = 8;  // 16 entries minimum at 2 ways per set
  while (sets * 2 < entries) sets *= 2;
  set_mask_ = sets - 1;
  slots_.assign(sets * 2, OpCacheEntry{});
}

size_t Manager::OpCache::SetOf(uint32_t a, uint32_t b, uint32_t c) const {
  uint64_t h = a;
  h = h * 0x9e3779b97f4a7c15ULL + b;
  h = h * 0x9e3779b97f4a7c15ULL + c;
  h ^= h >> 32;
  return static_cast<size_t>(h) & set_mask_;
}

uint32_t Manager::OpCache::Lookup(uint32_t a, uint32_t b, uint32_t c,
                                  uint32_t gen, CacheStats& stats) {
  size_t base = SetOf(a, b, c) * 2;
  for (size_t way = 0; way < 2; ++way) {
    OpCacheEntry& e = slots_[base + way];
    if (e.a == a && e.b == b && e.c == c && e.a != kEmptySlot) {
      e.gen = gen;  // hot entries survive the next generational eviction
      ++stats.hits;
      return e.result;
    }
  }
  ++stats.misses;
  return kEmptySlot;
}

void Manager::OpCache::Insert(uint32_t a, uint32_t b, uint32_t c,
                              uint32_t result, uint32_t gen,
                              CacheStats& stats) {
  size_t base = SetOf(a, b, c) * 2;
  size_t victim = base;
  for (size_t way = 0; way < 2; ++way) {
    OpCacheEntry& e = slots_[base + way];
    if (e.a == kEmptySlot || (e.a == a && e.b == b && e.c == c)) {
      victim = base + way;
      break;
    }
    // Prefer displacing the colder (older-generation) way.
    if (e.gen < slots_[victim].gen) victim = base + way;
  }
  OpCacheEntry& e = slots_[victim];
  if (e.a != kEmptySlot && !(e.a == a && e.b == b && e.c == c)) {
    ++stats.evictions;
  }
  e = OpCacheEntry{a, b, c, result, gen};
}

Manager::~Manager() {
  // Free-list slots were already released by the sweep that freed them;
  // releasing them again here would underflow the tracker.
  if (options_.tracker && allocated_nodes() > 2) {
    options_.tracker->Release((allocated_nodes() - 2) * kNodeBytes);
  }
}

Bdd Manager::Zero() { return Bdd(this, kZero); }
Bdd Manager::One() { return Bdd(this, kOne); }

Bdd Manager::Var(uint32_t index) {
  return Bdd(this, MakeNode(index, kZero, kOne));
}

Bdd Manager::NotVar(uint32_t index) {
  return Bdd(this, MakeNode(index, kOne, kZero));
}

void Manager::Ref(uint32_t node) {
  if (IsTerminal(node)) return;
  if (refcounts_[node]++ == 0) --dead_count_;
}

void Manager::Deref(uint32_t node) {
  if (IsTerminal(node)) return;
  if (--refcounts_[node] == 0) ++dead_count_;
}

uint32_t Manager::AllocateSlot() {
  if (!free_list_.empty()) {
    // A recycled slot re-enters the live set, so it costs budget again —
    // the GC released its bytes when the slot was freed. Charge before
    // popping so a SimulatedOom leaves the free list intact.
    if (options_.tracker) options_.tracker->Charge(kNodeBytes);
    uint32_t slot = free_list_.back();
    free_list_.pop_back();
    --free_count_;
    return slot;
  }
  if (options_.max_nodes != 0 && nodes_.size() >= options_.max_nodes) {
    throw util::SimulatedOom("bdd-node-table", kNodeBytes,
                             options_.max_nodes * kNodeBytes);
  }
  if (options_.tracker) options_.tracker->Charge(kNodeBytes);
  nodes_.push_back(Node{});
  refcounts_.push_back(0);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

size_t Manager::UniqueHome(uint32_t var, uint32_t low, uint32_t high) const {
  uint64_t h = ((uint64_t{high} << 32) | low) +
               uint64_t{var} * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  // Fibonacci hashing: the product's top bits pick the bucket.
  return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> unique_shift_);
}

void Manager::RehashUnique(size_t slots) {
  unique_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(slots));
  unique_.assign(slots, kEmptySlot);
  size_t mask = slots - 1;
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var == kFreeVar) continue;
    size_t i = UniqueHome(n.var, n.low, n.high);
    while (unique_[i] != kEmptySlot) i = (i + 1) & mask;
    unique_[i] = id;
  }
}

uint32_t Manager::MakeNode(uint32_t var, uint32_t low, uint32_t high) {
  if (low == high) return low;
  size_t mask = unique_.size() - 1;
  size_t i = UniqueHome(var, low, high);
  for (; unique_[i] != kEmptySlot; i = (i + 1) & mask) {
    const Node& n = nodes_[unique_[i]];
    if (n.var == var && n.low == low && n.high == high) return unique_[i];
  }
  uint32_t slot = AllocateSlot();
  nodes_[slot] = Node{var, low, high};
  refcounts_[slot] = 0;
  ++dead_count_;  // alive once somebody references it
  Ref(low);
  Ref(high);
  // The table holds every allocated internal node (terminals excluded).
  if (2 * (allocated_nodes() - 2) > unique_.size()) {
    RehashUnique(2 * unique_.size());  // the new node included
  } else {
    unique_[i] = slot;
  }
  peak_nodes_ = std::max(peak_nodes_, allocated_nodes());
  return slot;
}

size_t Manager::live_nodes() const {
  return allocated_nodes() - dead_count_ - 2;  // exclude the terminals
}

void Manager::PinRoot(const Bdd& root) {
  if (!root.valid() || root.manager() != this) return;
  if (root.node_ <= kOne) return;  // terminals are never swept
  pinned_.insert(root.node_);
}

void Manager::MaybeGc() {
  if (gc_hold_ > 0) return;
  size_t allocated = allocated_nodes();
  if (allocated <= 4096) return;
  // Two triggers: many dead roots, or the table outgrew its watermark.
  // The second matters because dead_count_ only sees dereferenced roots —
  // their interior nodes stay internally referenced until a sweep
  // cascades, so churn-heavy workloads grow the table without ever
  // raising the dead fraction.
  bool dead_heavy = static_cast<double>(dead_count_) >
                    options_.gc_dead_fraction * static_cast<double>(allocated);
  if (dead_heavy || allocated >= gc_watermark_) {
    GarbageCollect();
    // Next growth-triggered sweep when the table doubles over the live set.
    gc_watermark_ = std::max<size_t>(2 * 4096, 2 * allocated_nodes());
  }
}

void Manager::GarbageCollect() {
  obs::Span span("bdd", "bdd.gc");
  span.Arg("allocated", static_cast<int64_t>(allocated_nodes()));
  span.Arg("dead", static_cast<int64_t>(dead_count_));
  // Entries inserted (or hit) after this sweep carry the new generation;
  // entries untouched since the previous sweep become eviction victims.
  ++generation_;
  // Sweep with a worklist: freeing a node drops its children's internal
  // references, which can cascade.
  std::vector<uint32_t> worklist;
  for (uint32_t id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var != kFreeVar && refcounts_[id] == 0) {
      worklist.push_back(id);
    }
  }
  size_t freed = 0;
  while (!worklist.empty()) {
    uint32_t id = worklist.back();
    worklist.pop_back();
    if (nodes_[id].var == kFreeVar || refcounts_[id] != 0) continue;
    // A pinned node is part of a published snapshot surface; its owner
    // holds a reference for the snapshot's lifetime, so reaching it with
    // refcount 0 means a handle was dropped behind the snapshot's back.
    assert(pinned_.find(id) == pinned_.end() &&
           "BDD GC reclaimed a pinned snapshot root");
    Node& n = nodes_[id];
    uint32_t low = n.low, high = n.high;
    n.var = kFreeVar;
    free_list_.push_back(id);
    ++free_count_;
    ++freed;
    --dead_count_;
    for (uint32_t child : {low, high}) {
      if (!IsTerminal(child)) {
        if (--refcounts_[child] == 0) {
          ++dead_count_;
          if (nodes_[child].var != kFreeVar) worklist.push_back(child);
        }
      }
    }
  }
  if (options_.tracker && freed > 0) {
    options_.tracker->Release(freed * kNodeBytes);
  }
  // Freed ids leave the unique table in one rebuild rather than one
  // backward-shift deletion each: watermark sweeps free about half the
  // table, and rebuilding sequentially from the slab is the cheaper way.
  if (freed > 0) RehashUnique(unique_.size());
  // Keep memoized results that only touch surviving nodes; drop entries
  // referencing freed slots. A freed slot is reused by a later MakeNode for
  // a different function, so a stale entry would silently corrupt results.
  // free_list_ is only refilled during this sweep and consumed afterwards,
  // so purging here precedes any reuse.
  auto gone = [&](uint32_t id) {
    return id > kOne && nodes_[id].var == kFreeVar;
  };
  bin_cache_.Purge(
      [&](const OpCacheEntry& e) {
        if (gone(e.a) || gone(e.result)) return true;
        // For kRestrict0, `b` packs (var << 1) | value, not a node id.
        return e.c != kRestrict0 && gone(e.b);
      },
      cache_stats_);
  ite_cache_.Purge(
      [&](const OpCacheEntry& e) {
        return gone(e.a) || gone(e.b) || gone(e.c) || gone(e.result);
      },
      cache_stats_);
}

uint32_t Manager::ApplyBin(BinOp op, uint32_t a, uint32_t b) {
  // Terminal rules.
  switch (op) {
    case kAnd:
      if (a == kZero || b == kZero) return kZero;
      if (a == kOne) return b;
      if (b == kOne) return a;
      if (a == b) return a;
      break;
    case kOr:
      if (a == kOne || b == kOne) return kOne;
      if (a == kZero) return b;
      if (b == kZero) return a;
      if (a == b) return a;
      break;
    case kXor:
      if (a == b) return kZero;
      if (a == kZero) return b;
      if (b == kZero) return a;
      if (a == kOne && b == kOne) return kZero;
      break;
    case kRestrict0:
      break;  // handled in RestrictRec
  }
  if (op != kRestrict0 && a > b) std::swap(a, b);  // commutative
  uint32_t cached = bin_cache_.Lookup(a, b, op, generation_, cache_stats_);
  if (cached != kEmptySlot) return cached;

  uint32_t va = VarOf(a), vb = VarOf(b);
  uint32_t top = std::min(va, vb);
  uint32_t a0 = (va == top) ? nodes_[a].low : a;
  uint32_t a1 = (va == top) ? nodes_[a].high : a;
  uint32_t b0 = (vb == top) ? nodes_[b].low : b;
  uint32_t b1 = (vb == top) ? nodes_[b].high : b;
  uint32_t low = ApplyBin(op, a0, b0);
  uint32_t high = ApplyBin(op, a1, b1);
  uint32_t result = MakeNode(top, low, high);
  bin_cache_.Insert(a, b, op, result, generation_, cache_stats_);
  return result;
}

Bdd Manager::And(const Bdd& a, const Bdd& b) {
  MaybeGc();
  return Bdd(this, ApplyBin(kAnd, a.node_, b.node_));
}

Bdd Manager::Or(const Bdd& a, const Bdd& b) {
  MaybeGc();
  return Bdd(this, ApplyBin(kOr, a.node_, b.node_));
}

Bdd Manager::Xor(const Bdd& a, const Bdd& b) {
  MaybeGc();
  return Bdd(this, ApplyBin(kXor, a.node_, b.node_));
}

Bdd Manager::Not(const Bdd& a) {
  MaybeGc();
  return Bdd(this, ApplyBin(kXor, a.node_, kOne));
}

uint32_t Manager::IteRec(uint32_t f, uint32_t g, uint32_t h) {
  if (f == kOne) return g;
  if (f == kZero) return h;
  if (g == h) return g;
  if (g == kOne && h == kZero) return f;
  if (g == kZero && h == kOne) return ApplyBin(kXor, f, kOne);
  uint32_t cached = ite_cache_.Lookup(f, g, h, generation_, cache_stats_);
  if (cached != kEmptySlot) return cached;

  uint32_t top = std::min({VarOf(f), VarOf(g), VarOf(h)});
  auto cofactor = [&](uint32_t n, bool hi) {
    return VarOf(n) == top ? (hi ? nodes_[n].high : nodes_[n].low) : n;
  };
  uint32_t low = IteRec(cofactor(f, false), cofactor(g, false),
                        cofactor(h, false));
  uint32_t high =
      IteRec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  uint32_t result = MakeNode(top, low, high);
  ite_cache_.Insert(f, g, h, result, generation_, cache_stats_);
  return result;
}

Bdd Manager::Ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  MaybeGc();
  return Bdd(this, IteRec(f.node_, g.node_, h.node_));
}

Bdd Manager::MakeBdd(uint32_t var, const Bdd& low, const Bdd& high) {
  if (low.manager_ != this || high.manager_ != this) {
    throw std::invalid_argument("MakeBdd: child from another manager");
  }
  // Terminals carry kTerminalVar, which every variable precedes.
  if (var >= num_vars_ || var >= VarOf(low.node_) ||
      var >= VarOf(high.node_)) {
    throw std::invalid_argument("MakeBdd: variable " + std::to_string(var) +
                                " does not precede its children");
  }
  return Bdd(this, MakeNode(var, low.node_, high.node_));
}

uint32_t Manager::RestrictRec(uint32_t f, uint32_t var, bool value) {
  if (IsTerminal(f) || VarOf(f) > var) return f;
  if (VarOf(f) == var) return value ? nodes_[f].high : nodes_[f].low;
  uint32_t packed = (var << 1) | (value ? 1u : 0u);
  uint32_t cached =
      bin_cache_.Lookup(f, packed, kRestrict0, generation_, cache_stats_);
  if (cached != kEmptySlot) return cached;
  uint32_t low = RestrictRec(nodes_[f].low, var, value);
  uint32_t high = RestrictRec(nodes_[f].high, var, value);
  uint32_t result = MakeNode(VarOf(f), low, high);
  bin_cache_.Insert(f, packed, kRestrict0, result, generation_, cache_stats_);
  return result;
}

Bdd Manager::Restrict(const Bdd& f, uint32_t var, bool value) {
  MaybeGc();
  return Bdd(this, RestrictRec(f.node_, var, value));
}

Bdd Manager::Exists(const Bdd& f, const std::vector<uint32_t>& vars) {
  Bdd result = f;
  for (uint32_t var : vars) {
    Bdd lo = Restrict(result, var, false);
    Bdd hi = Restrict(result, var, true);
    result = Or(lo, hi);
  }
  return result;
}

Bdd Manager::Cube(uint32_t first_var, uint32_t n, uint64_t value) {
  uint32_t node = kOne;
  for (uint32_t i = n; i-- > 0;) {
    uint32_t var = first_var + i;
    bool bit = (value >> i) & 1;
    node = bit ? MakeNode(var, kZero, node) : MakeNode(var, node, kZero);
  }
  return Bdd(this, node);
}

Bdd Manager::MaskedMatch(uint32_t first_var, uint32_t n, uint64_t value,
                         uint64_t mask) {
  uint32_t node = kOne;
  // Build from the LSB (deepest variable) up so children always have
  // strictly larger variable indices.
  for (uint32_t p = 0; p < n; ++p) {
    if (!((mask >> p) & 1)) continue;
    uint32_t var = first_var + (n - 1 - p);
    bool bit = (value >> p) & 1;
    node = bit ? MakeNode(var, kZero, node) : MakeNode(var, node, kZero);
  }
  return Bdd(this, node);
}

double Manager::SatFractionRec(uint32_t f,
                               std::unordered_map<uint32_t, double>& memo) {
  if (f == kZero) return 0.0;
  if (f == kOne) return 1.0;
  auto it = memo.find(f);
  if (it != memo.end()) return it->second;
  double result = 0.5 * (SatFractionRec(nodes_[f].low, memo) +
                         SatFractionRec(nodes_[f].high, memo));
  memo.emplace(f, result);
  return result;
}

double Manager::SatFraction(const Bdd& f) {
  std::unordered_map<uint32_t, double> memo;
  return SatFractionRec(f.node_, memo);
}

std::vector<std::pair<uint32_t, bool>> Manager::AnySat(const Bdd& f) {
  std::vector<std::pair<uint32_t, bool>> assignment;
  if (f.node_ == kZero) std::abort();  // precondition: satisfiable
  uint32_t node = f.node_;
  while (!IsTerminal(node)) {
    const Node& n = nodes_[node];
    if (n.high != kZero) {
      assignment.emplace_back(n.var, true);
      node = n.high;
    } else {
      assignment.emplace_back(n.var, false);
      node = n.low;
    }
  }
  return assignment;
}

}  // namespace s2::bdd
