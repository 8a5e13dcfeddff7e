// Microbenchmarks (google-benchmark) for the hot substrate operations
// underneath the figure harnesses: BDD apply/serialize, unique-table churn
// and GC sweeps, route serialization, the sidecar route exchange,
// route-map evaluation, best-path selection, the partitioner, and config
// parsing.
#include <benchmark/benchmark.h>

#include "bdd/bdd_io.h"
#include "config/parser.h"
#include "config/vendor.h"
#include "cp/engine.h"
#include "cp/policy.h"
#include "cp/rib.h"
#include "cp/shard.h"
#include "dist/worker.h"
#include "dp/fib.h"
#include "dp/packet.h"
#include "dp/predicates.h"
#include "obs/trace.h"
#include "topo/fattree.h"
#include "topo/partition.h"
#include "util/rng.h"

namespace {

using namespace s2;

// ------------------------------------------------------------- tracing

// The cost contract instrumented hot paths rely on: a disabled Span is one
// relaxed atomic load plus trivial construction (ISSUE budget: <2% on any
// instrumented loop).
void BM_TracerDisabledSpan(benchmark::State& state) {
  obs::Tracer::Get().Disable();
  for (auto _ : state) {
    obs::Span span("bench", "bench.disabled");
    span.Arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TracerDisabledSpan);

void BM_TracerEnabledSpan(benchmark::State& state) {
  obs::Tracer::Get().Enable();
  size_t i = 0;
  for (auto _ : state) {
    // Re-Enable (which clears the buffer) periodically so the event vector
    // doesn't grow without bound across iterations.
    if ((++i & 0x3FFF) == 0) obs::Tracer::Get().Enable();
    obs::Span span("bench", "bench.enabled");
    span.Arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
}
BENCHMARK(BM_TracerEnabledSpan);

// ------------------------------------------------------------------ BDD

void BM_BddPrefixMatch(benchmark::State& state) {
  bdd::Manager manager(32);
  dp::PacketCodec codec(&manager, dp::HeaderLayout{32, 0, 0});
  uint32_t i = 0;
  for (auto _ : state) {
    auto prefix = util::IpPrefix(
        util::IpAddress((10u << 24) | ((i++ % 4096) << 8)), 24);
    benchmark::DoNotOptimize(codec.DstIn(prefix));
  }
}
BENCHMARK(BM_BddPrefixMatch);

void BM_BddUnionOfPrefixes(benchmark::State& state) {
  bdd::Manager manager(32);
  dp::PacketCodec codec(&manager, dp::HeaderLayout{32, 0, 0});
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    bdd::Bdd acc = manager.Zero();
    for (int i = 0; i < n; ++i) {
      acc |= codec.DstIn(util::IpPrefix(
          util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BddUnionOfPrefixes)->Arg(16)->Arg(64)->Arg(256);

void BM_BddSerializeRoundTrip(benchmark::State& state) {
  bdd::Manager a(32), b(32);
  dp::PacketCodec codec(&a, dp::HeaderLayout{32, 0, 0});
  bdd::Bdd f = a.Zero();
  for (int i = 0; i < 64; ++i) {
    f |= codec.DstIn(util::IpPrefix(
        util::IpAddress((10u << 24) | (uint32_t(i) << 8)), 24));
  }
  for (auto _ : state) {
    auto bytes = bdd::Serialize(f);
    benchmark::DoNotOptimize(bdd::DeserializeInto(b, bytes));
  }
}
BENCHMARK(BM_BddSerializeRoundTrip);

// Union of n random 32-bit prefixes, /12 to /28: mostly new nodes, so
// mostly unique-table misses plus inserts.
bdd::Bdd RandomPrefixUnion(bdd::Manager& manager, util::Rng& rng, int n) {
  bdd::Bdd acc = manager.Zero();
  for (int p = 0; p < n; ++p) {
    uint32_t len = 12 + static_cast<uint32_t>(rng.Below(17));
    uint64_t mask = ((uint64_t{1} << len) - 1) << (32 - len);
    acc |= manager.MaskedMatch(0, 32, rng.Next() & mask, mask);
  }
  return acc;
}

// Unique-table churn: each iteration's union dies at once, and a GC every
// 8 iterations sweeps it out of the table again.
void BM_BddUniqueTableChurn(benchmark::State& state) {
  bdd::Manager manager(32);
  util::Rng rng(1);
  const int n = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomPrefixUnion(manager, rng, n).id());
    if (++i % 8 == 0) manager.GarbageCollect();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BddUniqueTableChurn)->Arg(256)->Arg(4096);

// One GC sweep over a table holding a fixed live set plus a freshly killed
// set of about the same size (the shape of a watermark-triggered sweep).
// Only the sweep is timed.
void BM_BddGcSweep(benchmark::State& state) {
  bdd::Manager manager(32);
  util::Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  manager.PauseGc();  // only the timed sweeps collect
  bdd::Bdd live = RandomPrefixUnion(manager, rng, n);
  size_t freed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RandomPrefixUnion(manager, rng, n);  // dropped at once: the garbage
    size_t before = manager.allocated_nodes();
    state.ResumeTiming();
    manager.GarbageCollect();
    freed += before - manager.allocated_nodes();
  }
  benchmark::DoNotOptimize(live.id());
  state.SetItemsProcessed(static_cast<int64_t>(freed));
}
BENCHMARK(BM_BddGcSweep)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------- routes

// Benchmark routes intern into a process-lifetime pool (leaked so handles
// in static benchmark state can never outlive it).
cp::AttrPool& BenchPool() {
  static cp::AttrPool* pool = new cp::AttrPool();
  return *pool;
}

cp::AttrTuple BenchTuple() {
  cp::AttrTuple tuple;
  tuple.as_path = {65001, 65002, 65003, 65004};
  tuple.communities = {100, 200, 500};
  return tuple;
}

cp::Route BenchRoute() {
  cp::Route r;
  r.prefix = util::MustParsePrefix("10.1.2.0/24");
  r.attrs = BenchPool().Intern(BenchTuple());
  r.learned_from = 3;
  return r;
}

void BM_RouteSerializeBatch(benchmark::State& state) {
  std::vector<cp::RouteUpdate> updates(
      static_cast<size_t>(state.range(0)),
      cp::RouteUpdate{BenchRoute().prefix, false, BenchRoute()});
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    cp::SerializeRoutes(updates, bytes);
    benchmark::DoNotOptimize(cp::DeserializeRoutes(bytes, BenchPool()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RouteSerializeBatch)->Arg(64)->Arg(1024);

// The largest route batch worker 0 sends worker 1 while four workers
// (METIS-like partition) converge shard 0 of a 20-shard FatTree k=12
// plan — the setup of perfbench's fattree_verify.
const std::vector<dist::RouteSection>& BenchRouteExchangeBatch() {
  static const auto* batch = [] {
    topo::FatTreeParams params;
    params.k = 12;
    config::ParsedNetwork network = config::ParseNetwork(
        config::SynthesizeConfigs(topo::MakeFatTree(params)));
    const uint32_t num_workers = 4;
    dist::SidecarFabric fabric(
        num_workers, topo::Partition(network.graph, num_workers,
                                     topo::PartitionScheme::kMetisLike)
                         .assignment);
    cp::ShardPlan plan = cp::BuildShardPlan(network, 20);
    std::vector<std::unique_ptr<dist::Worker>> workers;
    for (uint32_t w = 0; w < num_workers; ++w) {
      workers.push_back(std::make_unique<dist::Worker>(
          w, network, &fabric, dist::Worker::Options{}));
      workers.back()->BeginBgp(&plan.shard(0));
    }
    std::vector<uint8_t> largest;
    for (;;) {
      bool any = false;
      for (auto& worker : workers) any = worker->ComputeAndShip() || any;
      if (!any) break;
      // Look at worker 1's inbound batches, then queue them again.
      for (dist::Message& message : fabric.Drain(1)) {
        uint32_t from = fabric.WorkerOf(message.from_node);
        if (from == 0 && message.payload.size() > largest.size()) {
          largest = message.payload;
        }
        fabric.Send(from, std::move(message));
      }
      for (auto& worker : workers) worker->Deliver();
    }
    return new std::vector<dist::RouteSection>(
        dist::DecodeRouteBatch(largest, BenchPool()));
  }();
  return *batch;
}

// One worker-pair route batch: encode (attribute table + sections) and
// decode (re-interning each distinct tuple once).
void BM_RouteExchange(benchmark::State& state) {
  const std::vector<dist::RouteSection>& sections = BenchRouteExchangeBatch();
  cp::AttrPool receiver;
  size_t routes = 0, bytes = 0;
  for (const dist::RouteSection& section : sections) {
    routes += section.updates.size();
  }
  for (auto _ : state) {
    std::vector<uint8_t> payload;
    dist::EncodeRouteBatch(sections, payload);
    bytes = payload.size();
    benchmark::DoNotOptimize(dist::DecodeRouteBatch(payload, receiver));
  }
  state.counters["sections"] = static_cast<double>(sections.size());
  state.counters["payload_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(routes));
}
BENCHMARK(BM_RouteExchange)->Unit(benchmark::kMicrosecond);

void BM_RouteMapEvaluation(benchmark::State& state) {
  config::RouteMap map;
  map.name = "RM";
  config::RouteMapClause deny;
  deny.permit = false;
  deny.match_any_community = {999};
  config::RouteMapClause tag;
  tag.permit = true;
  tag.continue_next = true;
  tag.match_covered_by = util::MustParsePrefix("10.0.0.0/8");
  tag.add_communities = {200};
  config::RouteMapClause all;
  all.permit = true;
  map.clauses = {deny, tag, all};
  cp::Route route = BenchRoute();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cp::ApplyRouteMap(&map, route, 65000, BenchPool()));
  }
}
BENCHMARK(BM_RouteMapEvaluation);

void BM_BestPathSelection(benchmark::State& state) {
  cp::Rib rib(nullptr);
  const int candidates = static_cast<int>(state.range(0));
  // Three attribute variants, interned once — the loop measures RIB work,
  // not interning.
  std::vector<cp::Route> variants;
  for (uint32_t v = 0; v < 3; ++v) {
    cp::Route r = BenchRoute();
    r.MutateAttrs(BenchPool(),
                  [&](cp::AttrTuple& t) { t.as_path[0] = 65001 + v; });
    variants.push_back(std::move(r));
  }
  for (auto _ : state) {
    for (int n = 0; n < candidates; ++n) {
      cp::Route r = variants[static_cast<size_t>(n) % 3];
      r.learned_from = static_cast<topo::NodeId>(n);
      rib.Upsert(r.learned_from, r);
    }
    benchmark::DoNotOptimize(rib.RecomputeDirty(64));
  }
  state.SetItemsProcessed(state.iterations() * candidates);
}
BENCHMARK(BM_BestPathSelection)->Arg(8)->Arg(64);

// ------------------------------------------------------- attribute pool

// Hit path: the tuple is already interned; Intern hashes, takes the pool
// lock, and bumps a refcount.
void BM_AttrInternHit(benchmark::State& state) {
  cp::AttrPool pool;
  cp::AttrHandle keep = pool.Intern(BenchTuple());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Intern(BenchTuple()));
  }
}
BENCHMARK(BM_AttrInternHit);

// Miss path: every iteration interns a tuple the pool has never seen and
// immediately drops it, so the cycle is insert + refcount-zero eviction.
void BM_AttrInternMissEvict(benchmark::State& state) {
  cp::AttrPool pool;
  uint32_t n = 0;
  for (auto _ : state) {
    cp::AttrTuple tuple = BenchTuple();
    tuple.med = ++n;
    benchmark::DoNotOptimize(pool.Intern(std::move(tuple)));
  }
}
BENCHMARK(BM_AttrInternMissEvict);

// Copying an interned Route is a handle copy (one relaxed atomic add) —
// versus the deep vector copy every Route copy paid before interning.
void BM_RouteHandleCopy(benchmark::State& state) {
  cp::Route route = BenchRoute();
  for (auto _ : state) {
    cp::Route copy = route;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RouteHandleCopy);

void BM_RouteDeepAttrCopy(benchmark::State& state) {
  cp::AttrTuple tuple = BenchTuple();
  for (auto _ : state) {
    cp::AttrTuple copy = tuple;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RouteDeepAttrCopy);

// RIB upsert throughput with interned candidates: the common converged
// iteration re-offers an identical route (handle-identity equality).
void BM_RibUpsertSteadyState(benchmark::State& state) {
  cp::Rib rib(nullptr);
  cp::Route route = BenchRoute();
  rib.Upsert(route.learned_from, route);
  rib.RecomputeDirty(64);
  for (auto _ : state) {
    rib.Upsert(route.learned_from, route);
    benchmark::DoNotOptimize(rib.RecomputeDirty(64));
  }
}
BENCHMARK(BM_RibUpsertSteadyState);

// Sharded spill round trip: S shards × N nodes write one blob each, then
// every node's routes are read back across all shards. Blobs hold 30
// prefixes with two-way ECMP (60 routes, about 3 KB) — the mean blob of a
// 20-shard FatTree k=12 verify. Arg pairs are (shards, nodes).
void BM_RibStoreSpillReadBack(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const auto nodes = static_cast<topo::NodeId>(state.range(1));
  std::vector<std::map<util::IpPrefix, std::vector<cp::Route>>> batches(
      static_cast<size_t>(shards));
  for (int shard = 0; shard < shards; ++shard) {
    for (int i = 0; i < 30; ++i) {
      cp::Route route = BenchRoute();
      const uint32_t address =
          (10u << 24) | (uint32_t(shard) << 16) | (uint32_t(i) << 8);
      route.prefix = util::IpPrefix(util::IpAddress(address), 24);
      cp::Route second = route;
      second.learned_from = 4;
      batches[static_cast<size_t>(shard)][route.prefix] = {route, second};
    }
  }
  for (auto _ : state) {
    cp::RibStore store;
    for (int shard = 0; shard < shards; ++shard) {
      for (topo::NodeId node = 0; node < nodes; ++node) {
        store.Write(shard, node, batches[static_cast<size_t>(shard)]);
      }
    }
    for (topo::NodeId node = 0; node < nodes; ++node) {
      benchmark::DoNotOptimize(store.ReadAll(node, BenchPool()));
    }
  }
  state.SetItemsProcessed(state.iterations() * shards * nodes);
}
BENCHMARK(BM_RibStoreSpillReadBack)->Args({20, 45})->Args({8, 33});

// ------------------------------------------------------------ predicates

// Converged FIBs of FatTree k=12's edge-0-0, agg-0-0 and core-0-0 (the
// three switch roles), built once from a monolithic control-plane run.
struct FatTreeFibs {
  config::ParsedNetwork network;
  std::vector<std::pair<topo::NodeId, dp::Fib>> fibs;
};

const FatTreeFibs& BenchFatTreeFibs() {
  static const FatTreeFibs* fibs = [] {
    auto* out = new FatTreeFibs;
    topo::FatTreeParams params;
    params.k = 12;
    out->network = config::ParseNetwork(
        config::SynthesizeConfigs(topo::MakeFatTree(params)));
    cp::MonoEngine engine(out->network, nullptr);
    engine.Run(nullptr, nullptr);
    for (const char* name : {"edge-0-0", "agg-0-0", "core-0-0"}) {
      topo::NodeId id = out->network.graph.FindByName(name);
      const cp::Node& node = engine.node(id);
      out->fibs.emplace_back(
          id, dp::Fib::Build(out->network, id, node.bgp_routes(),
                             node.ospf_routes(), nullptr));
    }
    return out;
  }();
  return *fibs;
}

// One node's port predicates on a fresh manager. Creating and destroying
// the manager (its op caches alone are about 650 KB) is left out of the
// timing: a worker pays it once for all of its nodes.
// Arg: 0 = edge, 1 = aggregation, 2 = core switch.
void BM_BuildPredicates(benchmark::State& state) {
  const FatTreeFibs& fibs = BenchFatTreeFibs();
  const auto& [id, fib] = fibs.fibs[static_cast<size_t>(state.range(0))];
  const dp::HeaderLayout layout = dp::HeaderLayout::V4Only(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto manager = std::make_unique<bdd::Manager>(layout.total_bits());
    dp::PacketCodec codec(manager.get(), layout);
    state.ResumeTiming();
    dp::NodePredicates preds =
        dp::BuildPredicates(fibs.network, id, fib, codec);
    benchmark::DoNotOptimize(preds.forward.size());
    state.PauseTiming();
    state.counters["bdd_nodes"] = static_cast<double>(manager->live_nodes());
    preds = dp::NodePredicates{};
    manager.reset();
    state.ResumeTiming();
  }
  state.counters["fib_entries"] = static_cast<double>(fib.entries.size());
}
BENCHMARK(BM_BuildPredicates)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

// ----------------------------------------------------- parse & partition

void BM_ParseFatTreeConfigs(benchmark::State& state) {
  topo::FatTreeParams params;
  params.k = 6;
  auto configs = config::SynthesizeConfigs(topo::MakeFatTree(params));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::ParseNetwork(configs));
  }
  state.SetItemsProcessed(state.iterations() * configs.size());
}
BENCHMARK(BM_ParseFatTreeConfigs);

void BM_MetisLikePartition(benchmark::State& state) {
  topo::FatTreeParams params;
  params.k = static_cast<int>(state.range(0));
  topo::Network net = topo::MakeFatTree(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::Partition(
        net.graph, 8, topo::PartitionScheme::kMetisLike));
  }
}
BENCHMARK(BM_MetisLikePartition)->Arg(8)->Arg(16);

}  // namespace
