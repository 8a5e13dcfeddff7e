// Quickstart: verify a small FatTree with S2 in a dozen lines.
//
// Synthesizes FatTree(4) vendor configs, parses them, runs distributed
// verification with 4 workers and prefix sharding, and checks all-pair
// reachability between edge switches.
//
//   ./quickstart [k] [workers] [shards]
#include <cstdio>
#include <cstdlib>

#include "config/vendor.h"
#include "core/s2.h"
#include "topo/fattree.h"

int main(int argc, char** argv) {
  using namespace s2;

  int k = argc > 1 ? std::atoi(argv[1]) : 4;
  uint32_t workers = argc > 2 ? std::atoi(argv[2]) : 4;
  int shards = argc > 3 ? std::atoi(argv[3]) : 5;

  // 1. Synthesize a FatTree and its vendor configuration files (in a real
  //    deployment these are the files pulled from your devices).
  topo::FatTreeParams params;
  params.k = k;
  topo::Network network = topo::MakeFatTree(params);
  std::vector<std::string> configs = config::SynthesizeConfigs(network);
  std::printf("network: %s — %zu switches, %zu links, %zu config files\n",
              network.name.c_str(), network.graph.size(),
              network.graph.edge_count(), configs.size());

  // 2. The query: all-pair reachability over the edge host space.
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < network.graph.size(); ++id) {
    if (network.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }

  // 3. Verify, distributed.
  dist::ControllerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(configs, {query});

  // 4. Report.
  std::printf("status: %s\n", core::RunStatusName(result.status));
  if (!result.ok()) {
    std::printf("  %s\n", result.failure_detail.c_str());
    return 1;
  }
  const dp::QueryResult& reach = result.queries[0];
  std::printf("reachability: %zu reachable, %zu unreachable pairs\n",
              reach.reachable_pairs, reach.unreachable_pairs);
  std::printf("loop-free: %s   blackhole finals: %zu\n",
              reach.loop_free ? "yes" : "NO", reach.blackhole_finals);
  std::printf("routes computed: %zu\n", result.total_best_routes);
  std::printf("control plane: %d rounds, %s wall\n",
              result.control_plane.rounds,
              core::HumanSeconds(result.control_plane.wall_seconds).c_str());
  std::printf("per-worker peak memory: %s   cross-worker traffic: %s\n",
              core::HumanBytes(result.peak_memory_bytes).c_str(),
              core::HumanBytes(result.comm_bytes).c_str());
  return reach.unreachable_pairs == 0 ? 0 : 1;
}
