// The repo benchmark: one binary, four workloads over the public S2 API.
//
//   fattree_verify       repeated cold S2Verifier::Verify of FatTree k=12
//                        (4 in-process workers, 20 shards, one all-pair
//                        edge query), checked against a MonoVerifier oracle
//                        run once in set-up;
//   fattree_verify_proc  the same input, options and query with
//                        worker_mode=process (one s2_worker child each);
//   dcn_whatif           a seeded stream of single-link and single-node
//                        failures through S2Verifier::VerifyIncremental on
//                        a DCN converged once in set-up;
//   dcn_serve            a closed loop with one client sending a seeded,
//                        source-skewed query stream to QueryService::Serve,
//                        republishing between two snapshots (the base DCN
//                        and a link-failure variant) every 512 serves.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// fattree_verify_proc finds the s2_worker binary the usual way
// ($S2_WORKER_BIN, which run.py sets, or next to this binary).
//
// Set-up (input generation, parsing, the oracle or base convergence) runs
// before the timed window; a warm-up operation fills caches. The window
// then runs operations until --seconds have passed. Every operation's
// result is checked; a wrong verdict, a missing result, a whole-network
// fallback or a leaked spill directory or child process counts as a failed
// operation.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends the first half
// of the window untraced and the second half traced: the traced half drives
// the layers through their public calls (for the verify workloads,
// Controller::Setup / RunControlPlane / BuildDataPlanes / RunQuery /
// destruction — the sequence S2Verifier::Verify runs), times each call,
// enables obs::Tracer and folds the program's own spans, and reports the
// per-layer metrics plus the tracing overhead against the untraced half.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": ..}}}
// Every workload reports every metric name of its mode (0 for a layer it
// does not exercise), so runs of different workloads line up. METRICS.md
// maps each layer metric to the end-to-end metric it should move.
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/parser.h"
#include "config/vendor.h"
#include "core/incremental.h"
#include "core/mono.h"
#include "core/s2.h"
#include "obs/trace.h"
#include "stats.h"
#include "svc/query_service.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/stopwatch.h"

namespace s2::perfbench {
namespace {

constexpr uint32_t kWorkers = 4;
constexpr int kFatTreeK = 12;
constexpr int kFatTreeShards = 20;  // the paper's default
constexpr int kDcnShards = 8;
constexpr int kInputRepeats = 25;     // input builds per run (median kept)
constexpr int kSetupRepeats = 3;      // base convergences per run (median)
constexpr size_t kOracleScenarios = 3;  // what-ifs checked against cold runs
constexpr size_t kServeSamples = 48;     // served queries checked vs batch
// The serving stream. No public trace gives the query skew of a verifier's
// callers, so these are calibrated: with them the predicate cache answers
// about 16% of serves, near the 18% a probe of this service measured.
// METRICS.md tabulates how the hit share moves with each of them.
constexpr size_t kRepublishEvery = 512;  // serves between snapshot swaps
constexpr double kSourceSkew = 0.8;      // Zipf exponent of query sources
constexpr double kDestinationSkew = 0.5;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ------------------------------------------------------------------ output

// Collects the run's metrics. Show() prints a labelled line for a reader;
// Emit() also puts the metric into the final JSON line.
class Report {
 public:
  void Show(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::printf("  %-30s %16.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  void Emit(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    if (!std::isfinite(value)) {
      std::printf("  %s is not finite; counted as a failed operation\n",
                  name.c_str());
      ops.Record(false);
      value = 0;
    }
    Show(name, value, unit, note);
    metrics_.push_back({name, value, unit});
  }

  void PrintJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ops.correct() ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

  OpCount ops;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

void Check(Report& report, bool ok, const std::string& what) {
  report.ops.Record(ok);
  if (!ok) std::printf("  FAILED: %s\n", what.c_str());
}

// ----------------------------------------------------------- measurement

// User + system CPU time of this process and its reaped children.
double CpuSeconds() {
  auto seconds = [](const rusage& usage) {
    return double(usage.ru_utime.tv_sec) + 1e-6 * usage.ru_utime.tv_usec +
           double(usage.ru_stime.tv_sec) + 1e-6 * usage.ru_stime.tv_usec;
  };
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self) + seconds(children);
}

// Peak resident set (VmHWM) of process `pid` ("self" for this one) in MiB;
// 0 once the process is gone.
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Hands freed heap back to the system and resets this process's peak
// resident set to its current size, so PeakRssMb("self") covers only what
// runs afterwards. False when the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return bool(clear);
}

// Summed peak resident sets of live child processes, in MiB.
double ChildrenPeakRssMb(const std::vector<int>& pids) {
  double total = 0;
  for (int pid : pids) total += PeakRssMb(std::to_string(pid));
  return total;
}

// Summed duration and count of the program's own obs spans, by name.
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, size_t> counts;

  void Fold(const std::vector<obs::Tracer::Event>& events) {
    for (const obs::Tracer::Event& event : events) {
      seconds[event.name] += event.dur_us * 1e-6;
      ++counts[event.name];
    }
  }
  double Seconds(const std::string& name) const {
    auto it = seconds.find(name);
    return it == seconds.end() ? 0 : it->second;
  }
  size_t Count(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
  }
};

double Share(double part, double base) { return base > 0 ? part / base : 0; }

// ------------------------------------------------------------------ inputs

struct Input {
  config::ParsedNetwork parsed;
  double generate_s = 0;  // topology + config text synthesis (median)
  double parse_s = 0;     // config::ParseNetwork (median)
};

// Builds the input kInputRepeats times and keeps the median timings.
Input BuildInput(const std::function<topo::Network()>& make) {
  Input input;
  std::vector<double> generate, parse;
  for (int rep = 0; rep < kInputRepeats; ++rep) {
    util::Stopwatch watch;
    std::vector<std::string> texts = config::SynthesizeConfigs(make());
    generate.push_back(watch.ElapsedSeconds());
    watch.Restart();
    input.parsed = config::ParseNetwork(texts);
    parse.push_back(watch.ElapsedSeconds());
  }
  input.generate_s = Median(generate);
  input.parse_s = Median(parse);
  return input;
}

topo::Network FatTree() {
  topo::FatTreeParams params;
  params.k = kFatTreeK;
  return topo::MakeFatTree(params);
}

// The DCN of bench/fig4_dcn: 3 three-layer and 2 five-layer clusters under
// a shared core, with aggregation, conditional advertisements, communities
// and mixed vendor dialects.
topo::Network Dcn() {
  topo::DcnParams params;
  params.small_clusters = 3;
  params.big_clusters = 2;
  params.tors_per_pod = 6;
  params.leafs_per_pod = 3;
  params.pods_per_cluster = 2;
  params.spines_per_cluster = 3;
  params.fabrics_per_cluster = 3;
  params.cores = 6;
  params.borders = 2;
  return topo::MakeDcn(params);
}

std::vector<topo::NodeId> EdgeNodes(const config::ParsedNetwork& parsed) {
  std::vector<topo::NodeId> edges;
  for (topo::NodeId id = 0; id < parsed.graph.size(); ++id) {
    if (parsed.graph.node(id).role == topo::Role::kEdge) edges.push_back(id);
  }
  return edges;
}

dp::Query AllPairQuery(const config::ParsedNetwork& parsed) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  query.sources = EdgeNodes(parsed);
  query.destinations = query.sources;
  return query;
}

// A single-source, single-destination query over the destination's own
// announced space.
dp::Query PairQuery(const config::ParsedNetwork& parsed, topo::NodeId src,
                    topo::NodeId dst) {
  dp::Query query;
  query.sources = {src};
  query.destinations = {dst};
  const auto& networks = parsed.configs[dst].bgp.networks;
  query.header_space.dst = networks.empty()
                               ? util::MustParsePrefix("10.0.0.0/8")
                               : networks.front();
  return query;
}

dist::ControllerOptions Options(int shards) {
  dist::ControllerOptions options;
  options.num_workers = kWorkers;
  options.num_shards = shards;
  return options;
}

// ---------------------------------------------------------------- verdicts

bool SameVerdict(const dp::QueryResult& a, const dp::QueryResult& b) {
  return a.reachable_pairs == b.reachable_pairs &&
         a.unreachable_pairs == b.unreachable_pairs &&
         a.loop_free == b.loop_free && a.blackhole_free == b.blackhole_free &&
         a.loop_finals == b.loop_finals &&
         a.blackhole_finals == b.blackhole_finals;
}

// Against the monolithic oracle, final counts compare only as present or
// absent: a set crossing a worker boundary is one final per fragment.
bool MatchesOracle(const dp::QueryResult& got, const dp::QueryResult& want) {
  return got.reachable_pairs == want.reachable_pairs &&
         got.unreachable_pairs == want.unreachable_pairs &&
         got.loop_free == want.loop_free &&
         got.blackhole_free == want.blackhole_free &&
         (got.loop_finals > 0) == (want.loop_finals > 0) &&
         (got.blackhole_finals > 0) == (want.blackhole_finals > 0);
}

std::vector<size_t> Fingerprint(const core::VerifyResult& result) {
  std::vector<size_t> print = {result.total_best_routes};
  for (const dp::QueryResult& q : result.queries) {
    print.insert(print.end(),
                 {q.reachable_pairs, q.unreachable_pairs, q.loop_finals,
                  q.blackhole_finals, size_t(q.loop_free),
                  size_t(q.blackhole_free)});
  }
  return print;
}

// ------------------------------------------------------------------- leaks

// Spill directories named s2-ribstore-<pid>-* under the temp dir; removes
// them so runs never accumulate.
size_t RemoveSpillDirs(int pid) {
  const std::string prefix = "s2-ribstore-" + std::to_string(pid) + "-";
  std::error_code ec;
  size_t found = 0;
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path(), ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      doomed.push_back(entry.path());
    }
  }
  for (const auto& path : doomed) {
    ++found;
    std::filesystem::remove_all(path, ec);
  }
  return found;
}

// Whether child `pid` has been waited for already (it is no longer our
// child). Leaves a running or zombie child untouched.
bool Reaped(int pid) {
  siginfo_t info{};
  return waitid(P_PID, static_cast<id_t>(pid), &info,
                WEXITED | WNOHANG | WNOWAIT) == -1 &&
         errno == ECHILD;
}

// Child processes the controllers spawned that are still running or were
// never reaped. Kills and reaps every one it finds.
size_t ReapLeftovers(const std::vector<int>& pids) {
  size_t leaked = 0;
  for (int pid : pids) {
    if (Reaped(pid)) continue;
    ++leaked;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
  return leaked;
}

struct Leaks {
  size_t own_spill_dirs = 0;
  size_t child_spill_dirs = 0;
  size_t unreaped_children = 0;
};

Leaks CheckLeaks(Report& report, const std::vector<int>& spawned) {
  Leaks leaks;
  leaks.own_spill_dirs = RemoveSpillDirs(getpid());
  leaks.unreaped_children = ReapLeftovers(spawned);
  // Worker processes exit with _Exit and leave their (empty) spill
  // directory behind; reported, not counted as a failure of this run.
  for (int pid : spawned) leaks.child_spill_dirs += RemoveSpillDirs(pid);
  std::printf("leaks: %zu spill directories of this process, %zu of worker "
              "processes, %zu unreaped children (of %zu spawned)\n",
              leaks.own_spill_dirs, leaks.child_spill_dirs,
              leaks.unreaped_children, spawned.size());
  Check(report, leaks.own_spill_dirs == 0, "spill directories left behind");
  Check(report, leaks.unreaped_children == 0, "worker processes not reaped");
  return leaks;
}

// Per-layer values, keyed by the names in LayerMetricNames().
using Layers = std::map<std::string, double>;

// What a workload measured. Its verifiers, snapshots and services are gone
// by the time main sees this, so the leak check runs after every owner of
// a spill directory or child process has been destroyed.
struct Measured {
  double setup_s = 0;
  std::vector<double> op_ms;   // untraced operation latencies
  std::vector<double> cpu_ms;  // CPU time of the same operations
  double window_s = 0;         // wall time of the untraced window
  // dcn_serve only: operations per part of the window and each complete
  // part's wall time. The time metrics then come from the fastest part.
  size_t part = 0;
  std::vector<double> part_s;
  double peak_worker_bytes = 0;
  double children_rss_mb = 0;  // largest summed peak of one verify's children
  Layers layers;  // --trace 1 only
  std::vector<int> spawned;
};

// ------------------------------------------------------ per-layer metrics

// Every per-layer metric name, in report order, with its unit. Each
// workload fills the ones its layers exercise; the rest report 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> kNames = {
      {"config.parse_s", "s"},
      {"dist.setup_s", "s"},
      {"cp.rounds_s", "s"},
      {"cp.rounds", "count"},
      {"cp.best_routes", "count"},
      {"cp.spill_s", "s"},
      {"cp.spill_bytes", "bytes"},
      {"cp.routes_spilled", "count"},
      {"dp.build_s", "s"},
      {"dp.forward_s", "s"},
      {"dp.forwarding_steps", "count"},
      {"dist.gather_bytes", "bytes"},
      {"dist.comm_bytes", "bytes"},
      {"dist.comm_messages", "count"},
      {"dist.teardown_s", "s"},
      {"dist.unattributed_s", "s"},
      {"dist.unattributed_share", "ratio"},
      {"bdd.gc_s", "s"},
      {"bdd.gc_count", "count"},
      {"bdd.cache_hit_ratio", "ratio"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_evictions", "count"},
      {"core.impacted_share", "ratio"},
      {"core.impacted_base", "count"},
      {"core.rebuilt_share", "ratio"},
      {"core.rebuilt_base", "count"},
      {"core.queries_reused_share", "ratio"},
      {"core.queries_base", "count"},
      {"core.partition_s", "s"},
      {"svc.hit_share", "ratio"},
      {"svc.queries", "count"},
      {"svc.hit_ms", "ms"},
      {"svc.miss_ms", "ms"},
      {"svc.scoped_worker_share", "ratio"},
      {"svc.scoped_worker_base", "count"},
      {"svc.domains_built", "count"},
      {"svc.epoch_rebuilds", "count"},
      {"svc.opcache_hit_ratio", "ratio"},
      {"svc.opcache_lookups", "count"},
      {"proc.spawns", "count"},
      {"proc.reaps", "count"},
      {"transport.retransmits", "count"},
      {"transport.wire_bytes", "bytes"},
      {"span.cp.round_s", "s"},
      {"span.cp.shard_s", "s"},
      {"span.dp.worker_build_s", "s"},
      {"span.svc.execute_s", "s"},
      {"span.svc.domain_build_s", "s"},
      {"span.incremental.verify_s", "s"},
      {"span.incremental.impact_s", "s"},
      {"span.incremental.setup_s", "s"},
      {"span.incremental.diff_s", "s"},
      {"span.incremental.snapshot_s", "s"},
      {"span.incremental.admission_s", "s"},
      {"span.incremental.queries_s", "s"},
      {"trace.op_ms", "ms"},
      {"trace.untraced_op_ms", "ms"},
      {"trace.overhead_share", "ratio"},
      {"trace.ops", "count"},
      {"leak.spill_dirs", "count"},
      {"leak.child_spill_dirs", "count"},
      {"leak.unreaped_children", "count"},
  };
  return kNames;
}

// Span-derived layer metrics, as seconds per traced operation.
void AddSpanLayers(const SpanTotals& spans, size_t ops, Layers& layers) {
  double per = ops > 0 ? 1.0 / double(ops) : 0;
  layers["bdd.gc_s"] = spans.Seconds("bdd.gc") * per;
  layers["bdd.gc_count"] = double(spans.Count("bdd.gc")) * per;
  for (const char* name :
       {"cp.round", "cp.shard", "dp.worker_build", "svc.execute",
        "svc.domain_build", "incremental.verify", "incremental.impact",
        "incremental.setup", "incremental.diff", "incremental.snapshot",
        "incremental.admission", "incremental.queries"}) {
    layers[std::string("span.") + name + "_s"] = spans.Seconds(name) * per;
  }
}

void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms,
                      Layers& layers) {
  double traced = Median(traced_ms), untraced = Median(untraced_ms);
  layers["trace.op_ms"] = traced;
  layers["trace.untraced_op_ms"] = untraced;
  layers["trace.overhead_share"] = untraced > 0 ? traced / untraced - 1 : 0;
  layers["trace.ops"] = double(traced_ms.size());
}

void EmitLayers(Report& report, const Layers& layers, const Leaks& leaks) {
  Layers all = layers;
  all["leak.spill_dirs"] = double(leaks.own_spill_dirs);
  all["leak.child_spill_dirs"] = double(leaks.child_spill_dirs);
  all["leak.unreaped_children"] = double(leaks.unreaped_children);
  std::printf("per-layer (traced run; ratios follow their base):\n");
  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = all.find(name);
    report.Emit(name, it == all.end() ? 0 : it->second, unit);
  }
}

// Runs `op` until `seconds` have passed (at least once).
void RunWindow(double seconds, const std::function<void()>& op) {
  util::Stopwatch window;
  do {
    op();
  } while (window.ElapsedSeconds() < seconds);
}

void EmitEndToEnd(Report& report, const Measured& m) {
  std::printf("end-to-end (JSON):\n");
  report.Emit("setup_s", m.setup_s, "s");
  if (m.part > 0 && !m.part_s.empty()) {
    std::string note = "(fastest of " + std::to_string(m.part_s.size()) +
                       " parts of " + std::to_string(m.part) + ")";
    report.Emit("op_p50_ms", LowestPartMedian(m.op_ms, m.part), "ms", note);
    report.Emit("ops_per_s",
                double(m.part) /
                    *std::min_element(m.part_s.begin(), m.part_s.end()),
                "1/s", note);
    report.Emit("op_cpu_ms", LowestPartMedian(m.cpu_ms, m.part), "ms", note);
  } else {
    report.Emit("op_p50_ms", Median(m.op_ms), "ms",
                "(n=" + std::to_string(m.op_ms.size()) + ")");
    report.Emit("ops_per_s",
                m.window_s > 0 ? double(m.op_ms.size()) / m.window_s : 0,
                "1/s");
    report.Emit("op_cpu_ms", Median(m.cpu_ms), "ms");
  }
  report.Emit("peak_worker_mb", m.peak_worker_bytes / kMiB, "MB");
  report.Emit("max_rss_mb", PeakRssMb("self") + m.children_rss_mb, "MB");
}

// Prints the tail percentile, or why it is refused.
void ShowTail(Report& report, const std::string& name,
              const std::vector<double>& ms, double p) {
  std::optional<double> tail = Percentile(ms, p);
  if (tail) {
    report.Show(name, *tail, "ms", "(n=" + std::to_string(ms.size()) + ")");
  } else {
    std::printf("  %-30s refused: %zu samples leave fewer than 10 beyond "
                "p%g\n",
                name.c_str(), ms.size(), p);
  }
}

// ===================================================== verify workloads

struct VerifySample {
  core::VerifyResult result;
  double wall_s = 0;
  double cpu_s = 0;
  double children_rss_mb = 0;  // summed peaks of the worker processes
};

// One cold verify, timed from S2Verifier construction through destruction.
// Worker processes are read for their peak memory before the controller
// reaps them.
VerifySample ColdVerify(const config::ParsedNetwork& parsed,
                        const dp::Query& query,
                        const dist::ControllerOptions& options,
                        std::vector<int>& spawned) {
  config::ParsedNetwork input = parsed;
  VerifySample sample;
  double cpu = CpuSeconds();
  util::Stopwatch watch;
  {
    core::S2Verifier verifier(options);
    sample.result = verifier.Verify(std::move(input), {query});
    if (dist::Controller* controller = verifier.last_controller()) {
      std::vector<int> live;
      for (size_t w = 0; w < controller->num_workers(); ++w) {
        std::vector<int> pids = controller->handle(w).spawned_pids();
        live.insert(live.end(), pids.begin(), pids.end());
      }
      sample.children_rss_mb = ChildrenPeakRssMb(live);
      spawned.insert(spawned.end(), live.begin(), live.end());
    }
  }
  sample.wall_s = watch.ElapsedSeconds();
  sample.cpu_s = CpuSeconds() - cpu;
  return sample;
}

// The same sequence S2Verifier::Verify runs, through the controller's
// public phases, each timed, with obs::Tracer on.
struct PhaseSample {
  bool ok = false;
  dp::QueryResult verdict;
  size_t best_routes = 0;
  double total_s = 0, setup_s = 0, cp_s = 0, build_s = 0, forward_s = 0,
         teardown_s = 0;
  dist::RoundMetrics cp, build, forward;
  size_t gather_bytes = 0, forwarding_steps = 0, spill_bytes = 0,
         routes_spilled = 0, comm_bytes = 0, comm_messages = 0,
         retransmits = 0, wire_bytes = 0;
  std::vector<int> pids;  // spawned worker processes
  size_t reaps = 0;       // of those, waited for by the controller
  SpanTotals spans;
};

PhaseSample PhasedVerify(const config::ParsedNetwork& parsed,
                         const dp::Query& query,
                         const dist::ControllerOptions& options) {
  config::ParsedNetwork input = parsed;
  PhaseSample s;
  obs::Tracer::Get().Enable();
  util::Stopwatch total;
  auto controller =
      std::make_unique<dist::Controller>(std::move(input), options);
  try {
    util::Stopwatch watch;
    controller->Setup();
    s.setup_s = watch.ElapsedSeconds();
    watch.Restart();
    s.cp = controller->RunControlPlane();
    s.cp_s = watch.ElapsedSeconds();
    watch.Restart();
    s.build = controller->BuildDataPlanes();
    s.build_s = watch.ElapsedSeconds();
    watch.Restart();
    dist::Controller::QueryOutcome outcome = controller->RunQuery(query);
    s.forward_s = watch.ElapsedSeconds();
    s.forward = outcome.metrics;
    s.gather_bytes = outcome.gather_bytes;
    s.forwarding_steps = outcome.forwarding_steps;
    s.verdict = std::move(outcome.result);
    s.ok = true;
  } catch (const std::exception& e) {
    std::printf("  phased verify threw: %s\n", e.what());
  }
  s.best_routes = controller->TotalBestRoutes();
  s.comm_bytes = controller->TotalCommBytes();
  for (uint32_t w = 0; w < controller->num_workers(); ++w) {
    s.comm_messages += controller->fabric().messages_sent_by(w);
  }
  if (auto store = controller->rib_store()) {
    s.spill_bytes = store->bytes_written();
    s.routes_spilled = store->routes_written();
  }
  if (controller->fabric().reliable()) {
    fault::ReliableTransport::Stats stats =
        controller->fabric().transport_stats();
    s.retransmits = stats.retransmits;
    s.wire_bytes = stats.wire_bytes;
  }
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    std::vector<int> pids = controller->handle(w).spawned_pids();
    s.pids.insert(s.pids.end(), pids.begin(), pids.end());
  }
  util::Stopwatch teardown;
  controller.reset();
  s.teardown_s = teardown.ElapsedSeconds();
  s.total_s = total.ElapsedSeconds();
  for (int pid : s.pids) s.reaps += Reaped(pid) ? 1 : 0;
  obs::Tracer::Get().Disable();
  s.spans.Fold(obs::Tracer::Get().events());
  obs::Tracer::Get().Clear();
  return s;
}

Layers VerifyLayers(const std::vector<PhaseSample>& samples) {
  Layers layers;
  auto median = [&](const std::function<double(const PhaseSample&)>& get) {
    std::vector<double> values;
    for (const PhaseSample& s : samples) values.push_back(get(s));
    return Median(values);
  };
  const PhaseSample& last = samples.back();
  layers["dist.setup_s"] = median([](auto& s) { return s.setup_s; });
  layers["cp.rounds_s"] = median([](auto& s) { return s.cp.wall_seconds; });
  layers["cp.spill_s"] =
      median([](auto& s) { return s.cp_s - s.cp.wall_seconds; });
  layers["dp.build_s"] = median([](auto& s) { return s.build_s; });
  layers["dp.forward_s"] = median([](auto& s) { return s.forward_s; });
  layers["dist.teardown_s"] = median([](auto& s) { return s.teardown_s; });
  auto unattributed = [](const PhaseSample& s) {
    return s.total_s -
           (s.setup_s + s.cp_s + s.build_s + s.forward_s + s.teardown_s);
  };
  layers["dist.unattributed_s"] = median(unattributed);
  layers["dist.unattributed_share"] =
      median([&](auto& s) { return Share(unattributed(s), s.total_s); });
  layers["cp.rounds"] = last.cp.rounds;
  layers["cp.best_routes"] = double(last.best_routes);
  layers["cp.spill_bytes"] = double(last.spill_bytes);
  layers["cp.routes_spilled"] = double(last.routes_spilled);
  layers["dp.forwarding_steps"] = double(last.forwarding_steps);
  layers["dist.gather_bytes"] = double(last.gather_bytes);
  layers["dist.comm_bytes"] = double(last.comm_bytes);
  layers["dist.comm_messages"] = double(last.comm_messages);
  double hits = double(last.cp.bdd_cache_hits + last.build.bdd_cache_hits +
                       last.forward.bdd_cache_hits);
  double misses =
      double(last.cp.bdd_cache_misses + last.build.bdd_cache_misses +
             last.forward.bdd_cache_misses);
  layers["bdd.cache_hit_ratio"] = Share(hits, hits + misses);
  layers["bdd.cache_lookups"] = hits + misses;
  layers["bdd.cache_evictions"] = double(
      last.cp.bdd_cache_evictions + last.build.bdd_cache_evictions +
      last.forward.bdd_cache_evictions);
  layers["transport.retransmits"] = double(last.retransmits);
  layers["transport.wire_bytes"] = double(last.wire_bytes);
  layers["proc.spawns"] = double(last.pids.size());
  layers["proc.reaps"] = double(last.reaps);
  SpanTotals spans;
  for (const PhaseSample& s : samples) {
    for (const auto& [name, seconds] : s.spans.seconds) {
      spans.seconds[name] += seconds;
    }
    for (const auto& [name, count] : s.spans.counts) {
      spans.counts[name] += count;
    }
  }
  AddSpanLayers(spans, samples.size(), layers);
  return layers;
}

Measured RunVerify(const Args& args, bool process, Report& report) {
  dist::ControllerOptions options = Options(kFatTreeShards);
  if (process) {
    options.worker_mode = dist::WorkerMode::kProcess;
  }
  Measured m;

  // ---- set-up: input, then the oracle.
  Input input = BuildInput(FatTree);
  const config::ParsedNetwork& parsed = input.parsed;
  dp::Query query = AllPairQuery(parsed);
  util::Stopwatch oracle_watch;
  core::VerifyResult oracle;
  {
    core::MonoVerifier mono{core::MonoOptions{}};
    oracle = mono.Verify(parsed, {query});
  }
  double oracle_s = oracle_watch.ElapsedSeconds();
  // The oracle runs once, so it is printed but left out of setup_s, which
  // holds only medians.
  m.setup_s = input.generate_s + input.parse_s;
  std::printf("input: FatTree k=%d, %zu switches, %zu edge switches; %u "
              "workers, %d shards, worker_mode=%s\n",
              kFatTreeK, parsed.graph.size(), query.sources.size(), kWorkers,
              kFatTreeShards, dist::WorkerModeName(options.worker_mode));
  std::printf("set-up: generate %.3f s, parse %.3f s (medians of %d); "
              "oracle %.3f s (%zu best routes)\n",
              input.generate_s, input.parse_s, kInputRepeats, oracle_s,
              oracle.total_best_routes);
  Check(report, oracle.ok() && oracle.queries.size() == 1,
        "oracle run failed");
  Check(report, ResetPeakRss(), "cannot reset the peak resident set");
  if (!report.ops.correct()) return m;

  // Each verify must match the oracle, and every one after the first must
  // match the first exactly.
  std::optional<core::VerifyResult> first;
  auto check = [&](bool ok, const dp::QueryResult& verdict, size_t routes) {
    bool match = ok && MatchesOracle(verdict, oracle.queries[0]) &&
                 routes == oracle.total_best_routes;
    if (first) {
      match = match && SameVerdict(verdict, first->queries[0]) &&
              routes == first->total_best_routes;
    }
    Check(report, match, "verdict or route count differs from the oracle");
  };
  auto verify = [&] {
    VerifySample s = ColdVerify(parsed, query, options, m.spawned);
    bool ok = s.result.ok() && s.result.queries.size() == 1;
    if (!s.result.ok()) {
      std::printf("  verify: %s\n", s.result.failure_detail.c_str());
    }
    check(ok, ok ? s.result.queries[0] : dp::QueryResult{},
          s.result.total_best_routes);
    return s;
  };

  // ---- warm-up: the first verify.
  first = verify().result;
  if (!report.ops.correct()) return m;

  double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  util::Stopwatch window;
  RunWindow(untraced_budget, [&] {
    VerifySample s = verify();
    m.op_ms.push_back(s.wall_s * 1e3);
    m.cpu_ms.push_back(s.cpu_s * 1e3);
    m.peak_worker_bytes =
        std::max(m.peak_worker_bytes, double(s.result.peak_memory_bytes));
    m.children_rss_mb = std::max(m.children_rss_mb, s.children_rss_mb);
  });
  m.window_s = window.ElapsedSeconds();

  std::printf("verify walls (ms):");
  for (double ms : m.op_ms) std::printf(" %.0f", ms);
  std::printf("\nend-to-end:\n");
  report.Show("verify_s", Median(m.op_ms) / 1e3, "s",
              "(median of " + std::to_string(m.op_ms.size()) + " verifies)");
  report.Show("verify_cpu_s", Median(m.cpu_ms) / 1e3, "s");
  report.Show("peak_worker_mb", m.peak_worker_bytes / kMiB, "MB");
  if (!args.trace) return m;

  std::vector<PhaseSample> phased;
  RunWindow(args.seconds - untraced_budget, [&] {
    PhaseSample s = PhasedVerify(parsed, query, options);
    check(s.ok, s.verdict, s.best_routes);
    m.spawned.insert(m.spawned.end(), s.pids.begin(), s.pids.end());
    phased.push_back(std::move(s));
  });
  m.layers = VerifyLayers(phased);
  m.layers["config.parse_s"] = input.parse_s;
  std::vector<double> traced_ms;
  for (const PhaseSample& s : phased) traced_ms.push_back(s.total_s * 1e3);
  AddTraceOverhead(traced_ms, m.op_ms, m.layers);
  return m;
}

// ======================================================== DCN workloads

// Two narrow reachability queries per TOR (a far target across the fabric
// and a nearer one) — the targeted questions of a what-if session.
std::vector<dp::Query> TorQueries(const config::ParsedNetwork& parsed) {
  std::vector<topo::NodeId> tors = EdgeNodes(parsed);
  std::vector<dp::Query> queries;
  for (size_t i = 0; i < tors.size(); ++i) {
    queries.push_back(
        PairQuery(parsed, tors[i], tors[(i + tors.size() / 2) % tors.size()]));
    queries.push_back(PairQuery(parsed, tors[i], tors[(i + 3) % tors.size()]));
  }
  return queries;
}

// A seeded stream of single-link and single-node failures, stratified by
// layer: links between layers i and j, and nodes of layer i, each appear
// in the stream in proportion to their share of all links and nodes (a
// Weyl sequence spreads the strata evenly), and the seed picks which
// element of each stratum fails. Seeds change the elements, not the mix.
std::vector<core::Scenario> ScenarioStream(const config::ParsedNetwork& parsed,
                                           uint64_t seed, size_t count) {
  const topo::Graph& graph = parsed.graph;
  std::map<std::pair<int, int>, std::vector<core::Scenario>> strata;
  for (size_t e = 0; e < graph.edge_count(); ++e) {
    const topo::Edge& edge = graph.edge(e);
    int a = graph.node(edge.a).layer, b = graph.node(edge.b).layer;
    strata[{std::min(a, b), std::max(a, b)}].push_back(
        core::RemoveLinkScenario(edge.a, edge.b));
  }
  for (topo::NodeId id = 0; id < graph.size(); ++id) {
    strata[{-1, graph.node(id).layer}].push_back(core::FailNodeScenario(id));
  }
  std::vector<const std::vector<core::Scenario>*> members;
  std::vector<std::vector<uint32_t>> picks;
  std::vector<double> cumulative;
  double total = 0;
  for (const auto& [key, scenarios] : strata) {
    members.push_back(&scenarios);
    picks.push_back(SkewedStream(seed + members.size(), count,
                                 scenarios.size(), 0.0));
    total += double(scenarios.size());
    cumulative.push_back(total);
  }
  std::vector<size_t> used(members.size(), 0);
  std::vector<core::Scenario> stream;
  for (size_t i = 0; i < count; ++i) {
    double u = std::fmod(double(i) * 0.6180339887498949, 1.0) * total;
    size_t s = std::min<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin(),
        members.size() - 1);
    stream.push_back((*members[s])[picks[s][used[s]++]]);
  }
  return stream;
}

std::map<topo::NodeId, std::vector<uint8_t>> Predicates(
    dist::Controller* controller) {
  std::map<topo::NodeId, std::vector<uint8_t>> all;
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    std::map<topo::NodeId, std::vector<uint8_t>> one =
        controller->worker(w).SnapshotPredicates();
    all.insert(one.begin(), one.end());
  }
  return all;
}

Measured RunWhatIf(const Args& args, Report& report) {
  Measured m;
  // ---- set-up: input, base convergence, oracle checks.
  Input input = BuildInput(Dcn);
  const config::ParsedNetwork& parsed = input.parsed;
  std::vector<dp::Query> queries = TorQueries(parsed);
  dist::ControllerOptions options = Options(kDcnShards);
  core::S2Verifier verifier(options);
  core::VerifyResult base;
  std::vector<double> converge;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    util::Stopwatch watch;
    base = verifier.Verify(parsed, queries);
    converge.push_back(watch.ElapsedSeconds());
  }
  double converge_s = Median(converge);
  Check(report, base.ok() && base.queries.size() == queries.size(),
        "base convergence failed");
  if (!report.ops.correct()) return m;
  util::Stopwatch oracle_watch;

  std::vector<core::Scenario> stream =
      ScenarioStream(parsed, args.seed, 1 << 13);
  // The first scenarios against a cold Verify of the edited network. These
  // also build the incremental base, so the window starts warm.
  for (size_t i = 0; i < kOracleScenarios; ++i) {
    core::S2Verifier cold(options);
    core::VerifyResult want =
        cold.Verify(core::ApplyScenario(parsed, stream[i]), queries);
    std::optional<core::IncrementalResult> got =
        verifier.VerifyIncremental(stream[i]);
    bool match = want.ok() && got.has_value() && got->result.ok() &&
                 !got->stats.full_fallback &&
                 Fingerprint(got->result) == Fingerprint(want) &&
                 got->predicates == Predicates(cold.last_controller());
    Check(report, match, "incremental what-if differs from a cold verify");
  }
  double oracle_s = oracle_watch.ElapsedSeconds();
  // The cold checks run once, so they are printed but left out of setup_s,
  // which holds only medians.
  m.setup_s = input.generate_s + input.parse_s + converge_s;
  Check(report, ResetPeakRss(), "cannot reset the peak resident set");
  std::printf("input: DCN, %zu switches, %zu links, %zu queries; %u workers, "
              "%d shards\n",
              parsed.graph.size(), parsed.graph.edge_count(), queries.size(),
              kWorkers, kDcnShards);
  std::printf("set-up: generate %.3f s, parse %.3f s (medians of %d), base "
              "convergence %.3f s (median of %d); %zu scenarios checked "
              "against cold verifies in %.3f s\n",
              input.generate_s, input.parse_s, kInputRepeats, converge_s,
              kSetupRepeats, kOracleScenarios, oracle_s);

  // A scenario seen again must give the same verdicts.
  std::map<std::vector<size_t>, std::vector<size_t>> seen;
  size_t next = 0;
  std::vector<double> traced_ms, partition_s, cp_s, build_s, forward_s;
  core::IncrementalStats sum;
  size_t rounds = 0, best_routes = 0, steps = 0, comm = 0;
  auto one = [&](bool traced) {
    const core::Scenario& scenario = stream[next++ % stream.size()];
    double cpu = CpuSeconds();
    util::Stopwatch watch;
    std::optional<core::IncrementalResult> inc =
        verifier.VerifyIncremental(scenario);
    double wall = watch.ElapsedSeconds();
    double cpu_used = CpuSeconds() - cpu;
    bool ok = inc.has_value() && inc->result.ok() &&
              inc->result.queries.size() == queries.size() &&
              !inc->stats.full_fallback;
    if (ok) {
      std::vector<size_t> key = {size_t(scenario.kind), scenario.a,
                                 scenario.b};
      auto [it, fresh] = seen.emplace(key, Fingerprint(inc->result));
      ok = fresh || it->second == Fingerprint(inc->result);
    }
    Check(report, ok, "what-if scenario failed, fell back, or changed");
    if (!inc.has_value()) return;
    m.peak_worker_bytes = std::max(m.peak_worker_bytes,
                                   double(inc->result.peak_memory_bytes));
    if (!traced) {
      m.op_ms.push_back(wall * 1e3);
      m.cpu_ms.push_back(cpu_used * 1e3);
      return;
    }
    traced_ms.push_back(wall * 1e3);
    const core::IncrementalStats& stats = inc->stats;
    sum.impacted_prefixes += stats.impacted_prefixes;
    sum.universe_prefixes += stats.universe_prefixes;
    sum.nodes_rebuilt += stats.nodes_rebuilt;
    sum.nodes_total += stats.nodes_total;
    sum.queries_reused += stats.queries_reused;
    sum.queries_total += stats.queries_total;
    partition_s.push_back(inc->result.partition_seconds);
    cp_s.push_back(inc->result.control_plane.wall_seconds);
    build_s.push_back(inc->result.dp_build.wall_seconds);
    forward_s.push_back(inc->result.dp_forward.wall_seconds);
    rounds += size_t(inc->result.control_plane.rounds);
    best_routes += inc->result.total_best_routes;
    steps += inc->result.forwarding_steps;
    comm += inc->result.comm_bytes;
  };

  double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  util::Stopwatch window;
  RunWindow(untraced_budget, [&] { one(false); });
  m.window_s = window.ElapsedSeconds();

  std::printf("end-to-end:\n");
  report.Show("whatif_p50_ms", Median(m.op_ms), "ms",
              "(n=" + std::to_string(m.op_ms.size()) + ")");
  ShowTail(report, "whatif_p90_ms", m.op_ms, 90);
  if (!args.trace) return m;

  obs::Tracer::Get().Enable();
  RunWindow(args.seconds - untraced_budget, [&] { one(true); });
  obs::Tracer::Get().Disable();
  SpanTotals spans;
  spans.Fold(obs::Tracer::Get().events());
  obs::Tracer::Get().Clear();

  Layers& layers = m.layers;
  double n = double(traced_ms.size());
  layers["config.parse_s"] = input.parse_s;
  layers["core.impacted_share"] =
      Share(double(sum.impacted_prefixes), double(sum.universe_prefixes));
  layers["core.impacted_base"] = double(sum.universe_prefixes) / n;
  layers["core.rebuilt_share"] =
      Share(double(sum.nodes_rebuilt), double(sum.nodes_total));
  layers["core.rebuilt_base"] = double(sum.nodes_total) / n;
  layers["core.queries_reused_share"] =
      Share(double(sum.queries_reused), double(sum.queries_total));
  layers["core.queries_base"] = double(sum.queries_total) / n;
  layers["core.partition_s"] = Median(partition_s);
  layers["cp.rounds_s"] = Median(cp_s);
  layers["dp.build_s"] = Median(build_s);
  layers["dp.forward_s"] = Median(forward_s);
  layers["cp.rounds"] = double(rounds) / n;
  layers["cp.best_routes"] = double(best_routes) / n;
  layers["dp.forwarding_steps"] = double(steps) / n;
  layers["dist.comm_bytes"] = double(comm) / n;
  AddSpanLayers(spans, traced_ms.size(), layers);
  AddTraceOverhead(traced_ms, m.op_ms, layers);
  return m;
}

Measured RunServe(const Args& args, Report& report) {
  Measured m;
  // ---- set-up: input, base and variant convergence, export, publish.
  Input input = BuildInput(Dcn);
  const config::ParsedNetwork& parsed = input.parsed;
  dist::ControllerOptions options = Options(kDcnShards);
  // The variant: one seeded link failed.
  const topo::Edge& failed = parsed.graph.edge(
      SkewedStream(args.seed, 1, parsed.graph.edge_count(), 0.0).front());
  config::ParsedNetwork edited = core::ApplyScenario(
      parsed, core::RemoveLinkScenario(failed.a, failed.b));
  core::S2Verifier base_verifier(options), variant_verifier(options);
  core::VerifyResult base, variant;
  std::optional<svc::Snapshot> base_snapshot, variant_snapshot;
  std::vector<double> converge;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    util::Stopwatch watch;
    base = base_verifier.Verify(parsed, {});
    base_snapshot = base_verifier.ExportSnapshot();
    variant = variant_verifier.Verify(edited, {});
    variant_snapshot = variant_verifier.ExportSnapshot();
    converge.push_back(watch.ElapsedSeconds());
  }
  util::Stopwatch publish_watch;
  Check(report,
        base.ok() && variant.ok() && base_snapshot && variant_snapshot,
        "convergence or snapshot export failed");
  if (!report.ops.correct()) return m;
  svc::SnapshotRegistry registry;
  uint64_t epoch = registry.Publish(*base_snapshot);
  svc::QueryService service(&registry, svc::QueryService::Options{});
  double converge_s = Median(converge);
  double publish_s = publish_watch.ElapsedSeconds();
  m.setup_s = input.generate_s + input.parse_s + converge_s + publish_s;
  Check(report, ResetPeakRss(), "cannot reset the peak resident set");
  m.peak_worker_bytes =
      double(std::max(base.peak_memory_bytes, variant.peak_memory_bytes));

  // ---- the seeded query stream.
  // Popular ranks go to each cluster in turn, so every seed loads the small
  // and the big clusters alike; the seed picks the TORs within a cluster.
  std::vector<topo::NodeId> tors = EdgeNodes(parsed);
  std::vector<std::vector<uint32_t>> clusters;
  for (uint32_t i = 0; i < tors.size(); ++i) {
    size_t cluster = size_t(std::max(parsed.graph.node(tors[i]).pod, 0));
    if (clusters.size() <= cluster) clusters.resize(cluster + 1);
    clusters[cluster].push_back(i);
  }
  constexpr size_t kStream = 1 << 16;
  util::Rng draws(args.seed + 2);
  std::vector<uint32_t> sources =
      ZipfDraws(draws, kStream, StratifiedRanking(args.seed, clusters),
                kSourceSkew);
  std::vector<uint32_t> destinations =
      ZipfDraws(draws, kStream, StratifiedRanking(args.seed + 1, clusters),
                kDestinationSkew);
  std::vector<dp::Query> stream;
  stream.reserve(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    uint32_t dst = destinations[i] == sources[i]
                       ? (destinations[i] + 1) % uint32_t(tors.size())
                       : destinations[i];
    stream.push_back(PairQuery(parsed, tors[sources[i]], tors[dst]));
  }
  std::printf("input: DCN, %zu switches, %zu TORs; %u workers, %d shards; "
              "variant fails %s-%s; republish every %zu serves\n",
              parsed.graph.size(), tors.size(), kWorkers, kDcnShards,
              parsed.graph.node(failed.a).name.c_str(),
              parsed.graph.node(failed.b).name.c_str(), kRepublishEvery);
  std::printf("set-up: generate %.3f s, parse %.3f s (medians of %d), "
              "converge + export both snapshots %.3f s (median of %d), "
              "publish %.6f s\n",
              input.generate_s, input.parse_s, kInputRepeats, converge_s,
              kSetupRepeats, publish_s);

  // Served results sampled for the batch comparison after the window.
  struct Sampled {
    size_t query;
    bool variant;
    dp::QueryResult served;
  };
  std::vector<Sampled> sampled;
  util::Rng sample_rng(args.seed ^ 0x5e7e5e7eULL);
  size_t next = 0;
  bool on_variant = false;
  std::vector<double> traced_ms, hit_ms, miss_ms;
  size_t op_hits = 0, op_misses = 0;  // op/ITE cache lookups while traced
  auto serve = [&](std::vector<double>* latencies, bool traced) {
    if (next > 0 && next % kRepublishEvery == 0) {
      on_variant = !on_variant;
      epoch = registry.Publish(on_variant ? *variant_snapshot
                                          : *base_snapshot);
    }
    size_t index = next++ % stream.size();
    bdd::Manager::CacheStats op_before;
    if (traced) op_before = service.OpCacheStats();
    double cpu = CpuSeconds();
    util::Stopwatch watch;
    svc::QueryService::Served served = service.Serve(stream[index]);
    double wall = watch.ElapsedSeconds();
    double cpu_used = CpuSeconds() - cpu;
    if (traced) {
      // A rebind replaces the lane's managers and their counters restart.
      bdd::Manager::CacheStats op = service.OpCacheStats();
      bool restarted = op.hits < op_before.hits || op.misses < op_before.misses;
      op_hits += restarted ? op.hits : op.hits - op_before.hits;
      op_misses += restarted ? op.misses : op.misses - op_before.misses;
    }
    Check(report, served.epoch == epoch, "serve missed the current epoch");
    if (latencies == nullptr) return;
    latencies->push_back(wall * 1e3);
    if (!traced) m.cpu_ms.push_back(cpu_used * 1e3);
    if (traced) (served.cache_hit ? hit_ms : miss_ms).push_back(wall * 1e3);
    if (sampled.size() < kServeSamples && sample_rng.Below(64) == 0) {
      sampled.push_back({index, on_variant, served.result});
    }
  };

  // Warm-up: serve both epochs once so the first pass is not timed.
  while (next < 2 * kRepublishEvery) serve(nullptr, false);

  // Each part of the window holds one base and one variant period, so every
  // part does the same mix of reads and rebinds.
  m.part = 2 * kRepublishEvery;
  double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  util::Stopwatch window, part;
  RunWindow(untraced_budget, [&] {
    serve(&m.op_ms, false);
    if (m.op_ms.size() % m.part == 0) {
      m.part_s.push_back(part.ElapsedSeconds());
      part.Restart();
    }
  });
  m.window_s = window.ElapsedSeconds();

  SpanTotals spans;
  svc::QueryService::Stats before = service.stats();
  if (args.trace) {
    obs::Tracer::Get().Enable();
    RunWindow(args.seconds - untraced_budget,
              [&] { serve(&traced_ms, true); });
    obs::Tracer::Get().Disable();
    spans.Fold(obs::Tracer::Get().events());
    obs::Tracer::Get().Clear();
  }
  svc::QueryService::Stats after = service.stats();

  // Sampled served verdicts against batch execution on the same state.
  for (const Sampled& s : sampled) {
    dist::Controller* controller = s.variant
                                       ? variant_verifier.last_controller()
                                       : base_verifier.last_controller();
    dp::QueryResult batch = controller->RunQuery(stream[s.query]).result;
    Check(report, SameVerdict(s.served, batch),
          "served verdict differs from Controller::RunQuery");
  }
  std::printf("  %zu served queries checked against Controller::RunQuery\n",
              sampled.size());

  std::printf("serve p50 per part of %zu serves (ms):", m.part);
  for (double ms : PartMedians(m.op_ms, m.part)) std::printf(" %.3f", ms);
  std::printf("\nend-to-end (whole window):\n");
  report.Show("serve_qps",
              m.window_s > 0 ? double(m.op_ms.size()) / m.window_s : 0,
              "1/s");
  report.Show("serve_p50_ms", Median(m.op_ms), "ms",
              "(n=" + std::to_string(m.op_ms.size()) + ")");
  ShowTail(report, "serve_p99_ms", m.op_ms, 99);
  report.Show("predicate_cache_hit_share",
              Share(double(before.cache_hits),
                    double(before.cache_hits + before.cache_misses)),
              "ratio", "(of " + std::to_string(before.queries) + " serves)");
  if (!args.trace) return m;

  Layers& layers = m.layers;
  double hits = double(after.cache_hits - before.cache_hits);
  double misses = double(after.cache_misses - before.cache_misses);
  layers["config.parse_s"] = input.parse_s;
  layers["svc.hit_share"] = Share(hits, hits + misses);
  layers["svc.queries"] = double(after.queries - before.queries);
  layers["svc.hit_ms"] = Median(hit_ms);
  layers["svc.miss_ms"] = Median(miss_ms);
  layers["svc.scoped_worker_share"] =
      Share(double(after.workers_scoped - before.workers_scoped),
            double(after.workers_total - before.workers_total));
  layers["svc.scoped_worker_base"] =
      double(after.workers_total - before.workers_total);
  layers["svc.domains_built"] =
      double(after.domains_built - before.domains_built);
  layers["svc.epoch_rebuilds"] =
      double(after.epoch_rebuilds - before.epoch_rebuilds);
  layers["svc.opcache_hit_ratio"] =
      Share(double(op_hits), double(op_hits + op_misses));
  layers["svc.opcache_lookups"] = double(op_hits + op_misses);
  AddSpanLayers(spans, traced_ms.size(), layers);
  AddTraceOverhead(traced_ms, m.op_ms, layers);
  return m;
}

// ------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace
}  // namespace s2::perfbench

int main(int argc, char** argv) {
  using namespace s2::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1>\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("== %s seed=%llu seconds=%g trace=%d ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  Measured measured;
  try {
    if (args.workload == "fattree_verify") {
      measured = RunVerify(args, /*process=*/false, report);
    } else if (args.workload == "fattree_verify_proc") {
      measured = RunVerify(args, /*process=*/true, report);
    } else if (args.workload == "dcn_whatif") {
      measured = RunWhatIf(args, report);
    } else if (args.workload == "dcn_serve") {
      measured = RunServe(args, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  Leaks leaks = CheckLeaks(report, measured.spawned);
  if (args.trace) {
    EmitLayers(report, measured.layers, leaks);
  } else {
    EmitEndToEnd(report, measured);
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed));
  report.PrintJson();
  return 0;
}
