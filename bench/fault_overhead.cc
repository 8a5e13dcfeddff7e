// Overhead of the reliable-delivery envelope at zero fault rate (ISSUE
// acceptance: < 10% on the fig6 workload). Runs the k=8 fat-tree all-pair
// verification with the default direct fabric and again with sequence
// numbers, cumulative acks, and retransmit timers armed but no injector —
// the steady-state cost a real deployment would pay for fault tolerance.
//
// Also reports, for context, a faulty run (10% drop + duplication +
// reordering + two worker crashes) to show convergence still holds when
// the protocol earns its keep.
//
// --worker_mode=process switches to the multi-process worker overhead
// mode (DESIGN.md §16): the same DCN workload with workers behind real
// fork/exec'd s2_worker processes — spawn, config re-parse, control-
// channel round trips, checkpoint mirroring — vs. in-process handles,
// emitting BENCH_process_overhead.json and gating at <= 25% with
// identical verdicts.
#include <sys/resource.h>

#include "bench_util.h"
#include "dist/process.h"
#include "topo/dcn.h"

namespace s2::bench {
namespace {

constexpr int kRepeats = 5;

struct Sample {
  double wall_seconds = 0;
  double cpu_seconds = 0;  // median across repeats (robust to load spikes)
  std::vector<double> cpu_samples;
  core::VerifyResult result;
};

// Total CPU charged to this process and every child it has reaped.
// Children only show up in RUSAGE_CHILDREN after waitpid, so callers must
// sample AFTER the verifier (and its worker processes) are torn down.
double TotalCpuSeconds() {
  auto cpu = [](int who) {
    struct rusage usage;
    getrusage(who, &usage);
    return double(usage.ru_utime.tv_sec) + 1e-6 * usage.ru_utime.tv_usec +
           double(usage.ru_stime.tv_sec) + 1e-6 * usage.ru_stime.tv_usec;
  };
  return cpu(RUSAGE_SELF) + cpu(RUSAGE_CHILDREN);
}

void MeasureOnce(const ObsOptions& obs, const BuiltNetwork& built,
                 const std::vector<dp::Query>& queries,
                 const dist::ControllerOptions& options, int repeat,
                 Sample& best) {
  double cpu_before = TotalCpuSeconds();
  double seconds = 0;
  core::VerifyResult result;
  {
    core::S2Verifier verifier(options);
    util::Stopwatch watch;
    result = verifier.Verify(built.parsed, queries);
    seconds = watch.ElapsedSeconds();
    CaptureReport(obs, verifier, result);
  }
  // The verifier is dead and its workers reaped: children's CPU is visible.
  double cpu = TotalCpuSeconds() - cpu_before;
  if (repeat == 0 || seconds < best.wall_seconds) {
    best.wall_seconds = seconds;
    best.result = std::move(result);
  }
  // Median, not min: a load spike that lands on one mode's repeats would
  // survive a min on the other side and poison the ratio.
  best.cpu_samples.push_back(cpu);
  std::vector<double> sorted = best.cpu_samples;
  std::sort(sorted.begin(), sorted.end());
  best.cpu_seconds = sorted[sorted.size() / 2];
}

int Main(const ObsOptions& obs) {
  BuiltNetwork built = BuildFatTree(8);
  dp::Query query = AllPairQuery(built.parsed);

  dist::ControllerOptions direct = S2Options(8, kShards);
  dist::ControllerOptions reliable = direct;
  reliable.reliable_delivery = true;

  dist::ControllerOptions chaotic = direct;
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.05;
  plan.default_link.reorder = 0.05;
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 3, 1});
  plan.crashes.push_back({fault::CrashPhase::kControlPlaneRound, 6, 5});
  chaotic.fault_plan = plan;

  std::printf("fault_overhead: %s, 8 workers, %d shards, best of %d\n\n",
              PaperSize(8), kShards, kRepeats);
  // Interleave the modes so slow drift in machine load (shared runners)
  // biases neither side of the comparison.
  Sample base, envelope, faulty;
  for (int r = 0; r < kRepeats; ++r) {
    MeasureOnce(obs, built, {query}, direct, r, base);
    MeasureOnce(obs, built, {query}, reliable, r, envelope);
    MeasureOnce(obs, built, {query}, chaotic, r, faulty);
  }

  std::printf("%-22s %10s %12s %12s %12s %10s\n", "mode", "status", "wall",
              "retransmits", "dropped", "recovered");
  auto row = [](const char* label, const Sample& sample) {
    std::printf("%-22s %10s %12s %12zu %12zu %10zu\n", label,
                core::RunStatusName(sample.result.status),
                core::HumanSeconds(sample.wall_seconds).c_str(),
                sample.result.retransmits, sample.result.frames_dropped,
                sample.result.worker_recoveries);
  };
  row("direct", base);
  row("reliable (0 faults)", envelope);
  row("10% drop + 2 crashes", faulty);

  double overhead =
      (envelope.wall_seconds - base.wall_seconds) / base.wall_seconds;
  std::printf("\nreliable-envelope overhead at zero fault rate: %+.1f%%"
              " (target < 10%%)\n",
              overhead * 100.0);

  bool same_verdicts =
      base.result.ok() && faulty.result.ok() &&
      base.result.queries[0].reachable_pairs ==
          faulty.result.queries[0].reachable_pairs &&
      base.result.queries[0].unreachable_pairs ==
          faulty.result.queries[0].unreachable_pairs &&
      base.result.total_best_routes == faulty.result.total_best_routes;
  std::printf("faulty run verdicts match direct run: %s\n",
              same_verdicts ? "yes" : "NO — protocol bug");
  return (overhead < 0.10 && same_verdicts) ? 0 : 1;
}

int ProcessMain(const ObsOptions& obs) {
  BuiltNetwork built;
  built.network = topo::MakeDcn(topo::DcnParams{});
  built.parsed =
      config::ParseNetwork(config::SynthesizeConfigs(built.network));
  // A service-shaped workload: the all-pair query plus /14 sub-space
  // queries, so the one-time spawn + config re-parse cost of process mode
  // amortizes the way it does in any run answering more than one
  // question (a single tiny query would measure mostly fork/exec).
  std::vector<dp::Query> queries{AllPairQuery(built.parsed)};
  for (uint32_t q = 0; q < 63; ++q) {
    dp::Query sub = queries.front();
    sub.header_space.dst =
        util::IpPrefix(util::IpAddress((10u << 24) | (q << 18)), 14);
    queries.push_back(sub);
  }
  for (uint32_t q = 0; q < 32; ++q) {
    dp::Query sub = queries.front();
    sub.header_space.dst =
        util::IpPrefix(util::IpAddress((10u << 24) | (q << 17)), 15);
    queries.push_back(sub);
  }

  dist::ControllerOptions in_process = S2Options(8, /*shards=*/0);
  // Batch the queries through RunQueries (one predicate snapshot shared by
  // every query) in BOTH modes, so the comparison isolates the process
  // boundary instead of mixing in two different query engines.
  in_process.query_lanes = 4;
  dist::ControllerOptions process = in_process;
  process.worker_mode = dist::WorkerMode::kProcess;

  // One extra pair of repeats vs the other modes: the gate rides on the
  // min, and a single load spike on a small runner can poison a best-of-5.
  constexpr int kProcessRepeats = 7;
  std::printf("process_overhead: default DCN, 8 workers, %zu queries,"
              " process vs in_process, best of %d\n\n",
              queries.size(), kProcessRepeats);
  Sample base, forked;
  for (int r = 0; r < kProcessRepeats; ++r) {
    MeasureOnce(obs, built, queries, in_process, r, base);
    MeasureOnce(obs, built, queries, process, r, forked);
  }

  std::printf("%-12s %10s %12s %12s %14s %14s %10s\n", "workers", "status",
              "wall", "cpu", "reachable", "best_routes", "recovered");
  auto row = [&](const char* label, const Sample& sample) {
    std::printf("%-12s %10s %12s %12s %14zu %14zu %10zu\n", label,
                core::RunStatusName(sample.result.status),
                core::HumanSeconds(sample.wall_seconds).c_str(),
                core::HumanSeconds(sample.cpu_seconds).c_str(),
                sample.result.queries.empty()
                    ? size_t{0}
                    : sample.result.queries[0].reachable_pairs,
                sample.result.total_best_routes,
                sample.result.worker_recoveries);
  };
  row("in_process", base);
  row("process", forked);

  // Gate on CPU (controller + reaped workers), not wall: on a loaded or
  // single-core host wall clock folds scheduler stalls into whichever mode
  // ran during the spike, while CPU measures the work the process boundary
  // actually adds (exec, per-child parse, framing, checkpoint mirroring).
  double overhead =
      (forked.cpu_seconds - base.cpu_seconds) / base.cpu_seconds;
  double wall_overhead =
      (forked.wall_seconds - base.wall_seconds) / base.wall_seconds;
  bool same_verdicts =
      base.result.ok() && forked.result.ok() &&
      base.result.queries.size() == forked.result.queries.size() &&
      base.result.total_best_routes == forked.result.total_best_routes;
  for (size_t q = 0; same_verdicts && q < base.result.queries.size(); ++q) {
    const auto& a = base.result.queries[q];
    const auto& b = forked.result.queries[q];
    same_verdicts = a.reachable_pairs == b.reachable_pairs &&
                    a.unreachable_pairs == b.unreachable_pairs &&
                    a.loop_free == b.loop_free;
  }
  std::printf("\nprocess-worker cpu overhead: %+.1f%% (target <= 25%%);"
              " wall: %+.1f%%\n",
              overhead * 100.0, wall_overhead * 100.0);
  std::printf("process run verdicts match in-process run: %s\n",
              same_verdicts ? "yes" : "NO — process-mode bug");

  std::FILE* json = std::fopen("BENCH_process_overhead.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"benchmark\": \"process_overhead\",\n"
                 "  \"topology\": \"dcn-default\",\n"
                 "  \"workers\": 8,\n"
                 "  \"worker_mode\": \"process\",\n"
                 "  \"queries\": %zu,\n"
                 "  \"in_process_seconds\": %.6f,\n"
                 "  \"process_seconds\": %.6f,\n"
                 "  \"in_process_cpu_seconds\": %.6f,\n"
                 "  \"process_cpu_seconds\": %.6f,\n"
                 "  \"cpu_overhead_ratio\": %.4f,\n"
                 "  \"wall_overhead_ratio\": %.4f,\n"
                 "  \"verdicts_match\": %s,\n"
                 "  \"reachable_pairs\": %zu,\n"
                 "  \"total_best_routes\": %zu\n"
                 "}\n",
                 queries.size(), base.wall_seconds, forked.wall_seconds,
                 base.cpu_seconds, forked.cpu_seconds, overhead,
                 wall_overhead, same_verdicts ? "true" : "false",
                 base.result.queries.empty()
                     ? size_t{0}
                     : base.result.queries[0].reachable_pairs,
                 base.result.total_best_routes);
    std::fclose(json);
    std::printf("wrote BENCH_process_overhead.json\n");
  }
  return (overhead <= 0.25 && same_verdicts) ? 0 : 1;
}

}  // namespace
}  // namespace s2::bench

int main(int argc, char** argv) {
  // Peel off --worker_mode= before the shared obs flags see the argv.
  s2::dist::WorkerMode worker_mode = s2::dist::WorkerMode::kInProcess;
  std::vector<char*> rest{argv[0]};
  const std::string kWorkerMode = "--worker_mode=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, kWorkerMode.size(), kWorkerMode) == 0) {
      std::string name = arg.substr(kWorkerMode.size());
      if (!s2::dist::ParseWorkerMode(name, &worker_mode)) {
        std::fprintf(stderr, "unknown --worker_mode value: %s\n",
                     name.c_str());
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  s2::bench::ObsOptions obs =
      s2::bench::ParseObsFlags(static_cast<int>(rest.size()), rest.data());
  int rc = worker_mode == s2::dist::WorkerMode::kProcess
               ? s2::bench::ProcessMain(obs)
               : s2::bench::Main(obs);
  s2::bench::FinishObs(obs);
  return rc;
}
