// Figure 10: distributed data plane verification — time to check all-pair
// and single-pair reachability with Batfish vs S2, split into the
// predicate-computation phase and the forwarding/checking phase.
//
// Paper shape to reproduce: S2 is faster in both phases; the predicate
// phase parallelizes best (up to ~#workers); the speedup grows with
// FatTree size; even single-pair checking benefits because the packet
// fans out across all workers (Fig 11 discussion).
#include "bench_util.h"
#include "query_service_bench.h"

using namespace s2;
using namespace s2::bench;

namespace {

ObsOptions g_obs;

dp::Query SinglePair(const config::ParsedNetwork& parsed) {
  // Two edge switches in different pods (the paper's E6 -> E19 pattern).
  dp::Query query;
  topo::NodeId src = parsed.graph.FindByName("edge-0-0");
  topo::NodeId dst = parsed.graph.FindByName("edge-1-0");
  query.sources = {src};
  query.destinations = {dst};
  query.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
  return query;
}

struct Phases {
  const char* status;
  double predicates;
  double forwarding;
};

Phases RunMono(const config::ParsedNetwork& parsed, const dp::Query& query) {
  core::MonoOptions options;
  options.cost = BenchCost();
  core::MonoVerifier mono(options);
  core::VerifyResult result = mono.Verify(parsed, {query});
  return {core::RunStatusName(result.status),
          result.dp_build.modeled_seconds,
          result.dp_forward.modeled_seconds};
}

Phases RunS2(const config::ParsedNetwork& parsed, const dp::Query& query,
             uint32_t workers) {
  dist::ControllerOptions options = S2Options(workers, kShards);
  options.worker_memory_budget = 0;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(parsed, {query});
  CaptureReport(g_obs, verifier, result);
  return {core::RunStatusName(result.status),
          result.dp_build.modeled_seconds,
          result.dp_forward.modeled_seconds};
}

// A compact fingerprint of a verdict, used to assert the parallel
// multi-query path agrees with the sequential per-query path.
std::string VerdictSummary(const dp::QueryResult& result) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "r%zu/u%zu/l%d(%zu)/b%d(%zu)",
                result.reachable_pairs, result.unreachable_pairs,
                result.loop_free ? 1 : 0, result.loop_finals,
                result.blackhole_free ? 1 : 0, result.blackhole_finals);
  return buf;
}

// Multi-query mode (EXPERIMENTS.md "dpv-parallel"): N independent
// single-pair queries over one FatTree, run through Dpo::RunQueries.
// Speedup is modeled (DESIGN.md §3 — this box has 1 core): per-query busy
// is thread-CPU time; sequential cost is the sum, parallel cost the LPT
// makespan over 8 query lanes. Exit status is nonzero if the modeled
// speedup falls below 1.5x or any parallel verdict disagrees with the
// sequential oracle.
int RunMultiQueryMode() {
  constexpr int kFatTreeK = 6;
  constexpr size_t kQueryLanes = 8;
  BuiltNetwork built = BuildFatTree(kFatTreeK);
  const config::ParsedNetwork& parsed = built.parsed;

  // ~16 single-pair queries across pod pairs and edge prefixes.
  std::vector<dp::Query> queries;
  for (int qi = 0; queries.size() < 16; ++qi) {
    int src_pod = qi % kFatTreeK;
    int dst_pod = (qi + 1 + qi / kFatTreeK) % kFatTreeK;
    if (src_pod == dst_pod) continue;
    char src_name[32], dst_name[32], prefix[32];
    std::snprintf(src_name, sizeof(src_name), "edge-%d-%d", src_pod,
                  qi % (kFatTreeK / 2));
    std::snprintf(dst_name, sizeof(dst_name), "edge-%d-%d", dst_pod,
                  (qi / 2) % (kFatTreeK / 2));
    std::snprintf(prefix, sizeof(prefix), "10.%d.%d.0/24", dst_pod,
                  (qi / 2) % (kFatTreeK / 2));
    dp::Query query;
    query.sources = {parsed.graph.FindByName(src_name)};
    query.destinations = {parsed.graph.FindByName(dst_name)};
    query.header_space.dst = util::MustParsePrefix(prefix);
    queries.push_back(std::move(query));
  }

  dist::ControllerOptions options = S2Options(8, kShards);
  options.worker_memory_budget = 0;
  options.query_lanes = kQueryLanes;
  dist::Controller controller(parsed, options);
  controller.Setup();
  controller.RunControlPlane();
  controller.BuildDataPlanes();

  // Sequential oracle first: one Controller::RunQuery per query.
  std::vector<std::string> seq_verdicts;
  for (const dp::Query& query : queries) {
    seq_verdicts.push_back(VerdictSummary(controller.RunQuery(query).result));
  }

  dist::Controller::MultiQueryOutcome multi = controller.RunQueries(queries);
  double seq_modeled = 0;
  bool verdicts_match = true;
  for (size_t q = 0; q < queries.size(); ++q) {
    seq_modeled += multi.outcomes[q].metrics.modeled_seconds;
    if (VerdictSummary(multi.outcomes[q].result) != seq_verdicts[q]) {
      verdicts_match = false;
      std::printf("VERDICT MISMATCH query %zu: seq %s vs par %s\n", q,
                  seq_verdicts[q].c_str(),
                  VerdictSummary(multi.outcomes[q].result).c_str());
    }
  }
  double par_modeled = multi.aggregate.modeled_seconds;
  double speedup = par_modeled > 0 ? seq_modeled / par_modeled : 0;

  std::printf("=== multi-query mode: %zu single-pair queries, k=%d, "
              "8 workers, %zu query lanes ===\n",
              queries.size(), kFatTreeK, kQueryLanes);
  std::printf("%-34s %s\n", "modeled sequential (sum busy):",
              core::HumanSeconds(seq_modeled).c_str());
  std::printf("%-34s %s\n", "modeled parallel (LPT makespan):",
              core::HumanSeconds(par_modeled).c_str());
  std::printf("%-34s %.2fx\n", "modeled speedup:", speedup);
  std::printf("%-34s hits=%zu misses=%zu evictions=%zu\n", "bdd op-cache:",
              multi.aggregate.bdd_cache_hits,
              multi.aggregate.bdd_cache_misses,
              multi.aggregate.bdd_cache_evictions);
  std::printf("%-34s %s\n",
              "verdicts vs sequential oracle:",
              verdicts_match ? "identical" : "MISMATCH");

  std::FILE* json = std::fopen("BENCH_dpv_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"benchmark\": \"fig10_dpv_multi_query\",\n"
        "  \"topology\": \"fattree-k%d\",\n"
        "  \"workers\": 8,\n"
        "  \"query_lanes\": %zu,\n"
        "  \"queries\": %zu,\n"
        "  \"modeled_sequential_seconds\": %.6f,\n"
        "  \"modeled_parallel_seconds\": %.6f,\n"
        "  \"modeled_speedup\": %.3f,\n"
        "  \"bdd_cache_hits\": %zu,\n"
        "  \"bdd_cache_misses\": %zu,\n"
        "  \"bdd_cache_evictions\": %zu,\n"
        "  \"verdicts_match_sequential\": %s\n"
        "}\n",
        kFatTreeK, kQueryLanes, queries.size(), seq_modeled, par_modeled,
        speedup, multi.aggregate.bdd_cache_hits,
        multi.aggregate.bdd_cache_misses,
        multi.aggregate.bdd_cache_evictions,
        verdicts_match ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_dpv_parallel.json\n");
  }
  std::printf("\n");

  if (!verdicts_match) return 1;
  if (speedup < 1.5) {
    std::printf("FAIL: modeled speedup %.2fx < 1.5x\n", speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --serve_queries=N: skip the figure sweep and run the serving-mode
  // benchmark instead (query_service_bench.h) — publish one snapshot of
  // the default DCN and answer N queries through the QueryService.
  std::optional<size_t> serve_queries;
  std::vector<char*> rest = {argv[0]};
  const std::string kServe = "--serve_queries=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, kServe.size(), kServe) == 0) {
      serve_queries = static_cast<size_t>(
          std::stoull(arg.substr(kServe.size())));
    } else {
      rest.push_back(argv[i]);
    }
  }
  g_obs = ParseObsFlags(static_cast<int>(rest.size()), rest.data());
  if (serve_queries) {
    int rc = RunQueryServiceMode(*serve_queries);
    FinishObs(g_obs);
    return rc;
  }
  std::printf("=== Figure 10: DPV — all-pair and single-pair "
              "reachability ===\n\n");
  for (int k : {6, 8, 10}) {
    BuiltNetwork built = BuildFatTree(k);
    std::printf("--- k=%d (%s) ---\n", k, PaperSize(k));
    std::printf("%-26s %9s %14s %14s\n", "configuration", "status",
                "predicates", "fwd+check");
    struct Row {
      std::string label;
      Phases phases;
    };
    dp::Query all = AllPairQuery(built.parsed);
    dp::Query single = SinglePair(built.parsed);
    Row rows[] = {
        {"batfish all-pair", RunMono(built.parsed, all)},
        {"s2-8w   all-pair", RunS2(built.parsed, all, 8)},
        {"batfish single-pair", RunMono(built.parsed, single)},
        {"s2-8w   single-pair", RunS2(built.parsed, single, 8)},
    };
    for (const Row& row : rows) {
      std::printf("%-26s %9s %14s %14s\n", row.label.c_str(),
                  row.phases.status,
                  core::HumanSeconds(row.phases.predicates).c_str(),
                  core::HumanSeconds(row.phases.forwarding).c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape: s2 beats batfish in both phases; the predicate\n"
      "phase speedup approaches the worker count; the gap widens with k;\n"
      "single-pair checks also speed up (packets fan across workers).\n\n");
  int rc = RunMultiQueryMode();
  FinishObs(g_obs);
  return rc;
}
