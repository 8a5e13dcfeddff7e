// Figure 8: time and peak memory to simulate growing FatTrees with prefix
// sharding on vs off (S2, 16 workers, per-worker budget).
//
// Paper shape to reproduce: below the memory wall, sharding trades a
// little time for a lower peak; at the largest size, only the sharded
// configuration finishes — the unsharded one OOMs.
#include "bench_util.h"

using namespace s2;
using namespace s2::bench;

int main(int argc, char** argv) {
  ObsOptions obs = ParseObsFlags(argc, argv);
  // Tighter than kWorkerBudget: Figure 8 isolates control-plane
  // simulation, whose unsharded peak must cross the wall at k=12.
  const size_t budget = 4u << 20;
  std::printf("=== Figure 8: sharding on/off across FatTree sizes "
              "(s2-16w, control-plane only, per-worker budget %s) ===\n\n",
              core::HumanBytes(budget).c_str());
  std::printf("%-22s %9s %14s %12s\n", "configuration", "status",
              "modeled-time", "peak-mem");
  for (int k : {6, 8, 10, 12}) {
    BuiltNetwork built = BuildFatTree(k);
    for (int shards : {0, kShards}) {
      dist::ControllerOptions options = S2Options(16, shards);
      options.worker_memory_budget = budget;
      core::S2Verifier verifier(options);
      // Control-plane simulation only (Figure 8 is a simulation figure).
      verifier.skip_data_plane_without_queries = true;
      core::VerifyResult result = verifier.Verify(built.parsed, {});
      CaptureReport(obs, verifier, result);
      std::string label = std::string(PaperSize(k)) +
                          (shards ? " sharded" : " unsharded");
      std::printf("%-22s %9s %14s %12s\n", label.c_str(),
                  core::RunStatusName(result.status),
                  result.ok() ? core::HumanSeconds(
                                    result.TotalModeledSeconds())
                                    .c_str()
                              : "-",
                  core::HumanBytes(result.peak_memory_bytes).c_str());
    }
  }
  std::printf(
      "\nexpected shape: sharding lowers the peak everywhere; at the\n"
      "largest size only the sharded run finishes.\n");
  FinishObs(obs);
  return 0;
}
