// Verification outcomes and reporting helpers shared by the three
// verifiers (S2, the monolithic baseline, Bonsai) and the benchmark
// harness. A verifier never aborts on resource exhaustion: simulated OOM
// and timeout become verdicts, matching how the paper reports "OOM" /
// "timeout" bars in Figures 4, 5, and 8. A spill storage failure likewise
// becomes kStorageError.
#pragma once

#include <string>
#include <vector>

#include "dist/cpo.h"
#include "dp/properties.h"

namespace s2::core {

enum class RunStatus {
  kOk,
  kOutOfMemory,
  kTimeout,
  kWorkerLost,
  kStorageError,
};

const char* RunStatusName(RunStatus status);

struct VerifyResult {
  RunStatus status = RunStatus::kOk;
  std::string failure_detail;  // domain/reason for a non-ok status

  // Phase metrics. For the monolithic baseline, wall == the single
  // domain's compute time and modeled adds GC penalties.
  double parse_seconds = 0;
  double partition_seconds = 0;
  dist::RoundMetrics control_plane;
  dist::RoundMetrics dp_build;     // FIB + predicate computation
  dist::RoundMetrics dp_forward;   // symbolic forwarding + verdicts

  // The paper's headline memory metric: max per-worker peak (== process
  // peak for the monolithic baseline).
  size_t peak_memory_bytes = 0;
  std::vector<size_t> worker_peaks;

  size_t total_best_routes = 0;
  // Bytes that crossed a worker boundary: fabric route batches, crossing
  // symbolic packets and gathered finals.
  size_t comm_bytes = 0;
  size_t forwarding_steps = 0;

  // Fault-tolerance counters (nonzero only when the sidecar fabric runs in
  // reliable mode — src/fault).
  size_t retransmits = 0;
  size_t frames_dropped = 0;
  size_t duplicates_suppressed = 0;
  size_t worker_recoveries = 0;

  // Results of the queries run (one entry per query).
  std::vector<dp::QueryResult> queries;

  bool ok() const { return status == RunStatus::kOk; }
  double TotalWallSeconds() const;
  double TotalModeledSeconds() const;
};

// "1.5 GB", "340 MB", "12 KB".
std::string HumanBytes(size_t bytes);
// "2.5 h", "3.1 min", "42 s", "17 ms".
std::string HumanSeconds(double seconds);

}  // namespace s2::core
