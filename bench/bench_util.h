// Shared scaffolding for the figure-reproduction benchmarks.
//
// Scale-down calibration (DESIGN.md substitution S8): the paper's testbed
// gives every worker 100 GB; exceeding it is an OOM. The defaults below
// (S2Options, MonoOptions) use a 9 MiB (9.4 MB) per-worker budget,
// kWorkerBudget. fig5_fattree_scale and fig8_sharding run FatTree
// k ∈ {6, 8, 10, 12} against a tighter 4 MiB (4.2 MB) budget, chosen so the
// OOM and timeout crossovers land at the same *relative* points as the
// paper. What fig5_fattree_scale prints at that budget (peaks per worker):
//
//   paper            here            what happens at the budget
//   FatTree40 (2000) k=6  (45 sw)    Batfish fits (1.3 MB)
//   FatTree60 (4500) k=8  (80 sw)    Batfish OOMs, S2-1w fits (1.2 MB)
//   FatTree80 (8000) k=10 (125 sw)   S2-1w fits (2.8 MB), Bonsai times out
//   FatTree90 (10K)  k=12 (180 sw)   S2-1w OOMs, S2-8w fits (805.3 KB)
//
// Bonsai's modeled compression cost and deadline are scaled the same way
// (the 2-hour wall becomes kBonsaiDeadline).
#pragma once

#include <cstdio>
#include <string>

#include "config/vendor.h"
#include "core/bonsai.h"
#include "core/mono.h"
#include "core/s2.h"
#include "obs/trace.h"
#include "topo/fattree.h"

namespace s2::bench {

inline constexpr size_t kWorkerBudget = 9u << 20;  // 9 MB ~ paper's 100 GB
inline constexpr double kBonsaiScanCost = 2e-3;    // s per node per dest
inline constexpr double kBonsaiDeadline = 0.6;     // s ~ paper's 2 hours
inline constexpr int kShards = 20;                 // the paper's default

// Paper-size label for a scaled k.
inline const char* PaperSize(int k) {
  switch (k) {
    case 6:
      return "FatTree40";
    case 8:
      return "FatTree60";
    case 10:
      return "FatTree80";
    case 12:
      return "FatTree90";
    default:
      return "FatTree??";
  }
}

// Cost model used across benchmarks: GC pressure dominated, matching the
// paper's memory-bound regime (DESIGN.md §3). gc_seconds_per_gb is scaled
// to MB-sized budgets the same way the budget itself is scaled.
inline util::CostModelParams BenchCost() {
  util::CostModelParams cost;
  cost.bandwidth_bytes_per_sec = 200e6;
  cost.gc_pressure_threshold = 0.6;
  cost.gc_seconds_per_gb = 200.0;     // scaled with the MB-sized budgets
  cost.round_latency_seconds = 5e-3;  // CPO/DPO barrier across workers
  return cost;
}

struct BuiltNetwork {
  topo::Network network;
  config::ParsedNetwork parsed;
};

inline BuiltNetwork BuildFatTree(int k) {
  topo::FatTreeParams params;
  params.k = k;
  BuiltNetwork built;
  built.network = topo::MakeFatTree(params);
  built.parsed =
      config::ParseNetwork(config::SynthesizeConfigs(built.network));
  return built;
}

// All-pair reachability over the edge host space (the paper's default
// verification task, §5.2).
inline dp::Query AllPairQuery(const config::ParsedNetwork& parsed) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < parsed.graph.size(); ++id) {
    if (parsed.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

inline core::MonoOptions MonoWithBudget(int shards = 0) {
  core::MonoOptions options;
  options.memory_budget = kWorkerBudget;
  options.num_shards = shards;
  options.cost = BenchCost();
  return options;
}

inline dist::ControllerOptions S2Options(uint32_t workers, int shards) {
  dist::ControllerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  options.worker_memory_budget = kWorkerBudget;
  options.cost = BenchCost();
  return options;
}

// ---------------------------------------------------------- observability
// Every figure benchmark accepts:
//   --trace_out=<path>   capture a Chrome trace-event JSON of the whole
//                        program (all runs of the sweep);
//   --report_out=<path>  write the RunReport JSON of the benchmark's last
//                        captured S2 run (each CaptureReport call
//                        overwrites the file, so the final run wins).
struct ObsOptions {
  std::string trace_out;
  std::string report_out;
};

inline ObsOptions ParseObsFlags(int argc, char** argv) {
  ObsOptions options;
  const std::string kTrace = "--trace_out=";
  const std::string kReport = "--report_out=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, kTrace.size(), kTrace) == 0) {
      options.trace_out = arg.substr(kTrace.size());
    } else if (arg.compare(0, kReport.size(), kReport) == 0) {
      options.report_out = arg.substr(kReport.size());
    } else {
      std::fprintf(stderr, "ignoring unknown flag: %s\n", arg.c_str());
    }
  }
  if (!options.trace_out.empty()) obs::Tracer::Get().Enable();
  return options;
}

inline void CaptureReport(const ObsOptions& options,
                          const core::S2Verifier& verifier,
                          const core::VerifyResult& result) {
  if (options.report_out.empty()) return;
  if (!verifier.WriteRunReport(result, options.report_out)) {
    std::fprintf(stderr, "failed to write %s\n", options.report_out.c_str());
  }
}

// Call once at program end: stops the tracer and writes the trace file.
inline void FinishObs(const ObsOptions& options) {
  if (options.trace_out.empty()) return;
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Disable();
  if (tracer.WriteChromeJson(options.trace_out)) {
    std::printf("\ntrace: %zu events -> %s\n", tracer.event_count(),
                options.trace_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", options.trace_out.c_str());
  }
}

// A result row in the shared table format.
inline void PrintHeader(const char* series_label) {
  std::printf("%-28s %9s %12s %12s %10s\n", series_label, "status",
              "time", "peak-mem", "routes");
}

inline void PrintRow(const std::string& label,
                     const core::VerifyResult& result) {
  std::printf("%-28s %9s %12s %12s %10zu\n", label.c_str(),
              core::RunStatusName(result.status),
              result.ok()
                  ? core::HumanSeconds(result.TotalModeledSeconds()).c_str()
                  : "-",
              core::HumanBytes(result.peak_memory_bytes).c_str(),
              result.total_best_routes);
}

}  // namespace s2::bench
