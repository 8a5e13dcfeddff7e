// Multi-process worker harness (dist/process.h): differential equivalence
// against the in-process mode, and real crash/hang recovery.
//
// Children here are actual forked s2_worker OS processes; the tests SIGKILL
// them (sudden death), SIGSTOP them (hang past the liveness deadline), and
// assert the controller recovers to byte-identical state: same verdicts,
// same per-node RIB bytes (cp::Node::SerializeState), same canonical
// predicate bytes (fault::SerializePredicates) as a fault-free in-process
// run. Teardown must reap every child ever spawned — no zombies.
#include <dirent.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/s2.h"
#include "dist/controller.h"
#include "dist/process.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "unusable_tmpdir.h"
#include "util/rng.h"
#include "util/status.h"


namespace s2 {
namespace {

using dist::ControllerOptions;
using dist::ProcessWorkerHandle;
using dist::WorkerMode;

config::ParsedNetwork DefaultDcn() {
  topo::DcnParams params;
  params.small_clusters = 2;
  params.big_clusters = 1;
  params.tors_per_pod = 2;
  params.cores = 2;
  return testing::Parse(topo::MakeDcn(params));
}

dp::Query EdgeQuery(const config::ParsedNetwork& net) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

ControllerOptions BaseOptions(uint32_t workers, int shards, WorkerMode mode) {
  ControllerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  options.worker_mode = mode;
  // Short liveness deadlines so hang tests finish in milliseconds, not the
  // production multi-second defaults.
  options.process_options.heartbeat_interval_ms = 20;
  options.process_options.hang_warn_ms = 200;
  options.process_options.hang_kill_ms = 800;
  return options;
}

void ExpectSameVerdict(const dp::QueryResult& got, const dp::QueryResult& want,
                       const std::string& label) {
  EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << label;
  EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs) << label;
  EXPECT_EQ(got.loop_free, want.loop_free) << label;
}

// Every pid this handle set ever spawned must be fully gone after teardown
// (not just dead: a zombie still answers kill(pid, 0) with 0).
void ExpectNoLiveProcess(const std::vector<int>& pids) {
  EXPECT_FALSE(pids.empty());
  for (int pid : pids) {
    errno = 0;
    int rc = kill(pid, 0);
    EXPECT_EQ(rc, -1) << "pid " << pid << " still exists after teardown";
    EXPECT_EQ(errno, ESRCH) << "pid " << pid;
  }
}

// Live s2_worker children of this process, found by scanning /proc —
// lets a killer thread pick victims without touching verifier internals.
std::vector<int> FindWorkerChildren() {
  std::vector<int> pids;
  DIR* dir = opendir("/proc");
  if (dir == nullptr) return pids;
  pid_t self = getpid();
  while (dirent* entry = readdir(dir)) {
    char* end = nullptr;
    long pid = strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    if (line.find("(s2_worker)") == std::string::npos) continue;
    size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid == self && state != "Z") pids.push_back(static_cast<int>(pid));
  }
  closedir(dir);
  return pids;
}

std::vector<int> CollectPids(const dist::Controller& controller) {
  std::vector<int> pids;
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    for (int pid : controller.handle(w).spawned_pids()) pids.push_back(pid);
  }
  return pids;
}

TEST(ProcessWorkers, ModeNameRoundTrip) {
  EXPECT_STREQ(dist::WorkerModeName(WorkerMode::kInProcess), "in_process");
  EXPECT_STREQ(dist::WorkerModeName(WorkerMode::kProcess), "process");
  WorkerMode mode = WorkerMode::kInProcess;
  EXPECT_TRUE(dist::ParseWorkerMode("process", &mode));
  EXPECT_EQ(mode, WorkerMode::kProcess);
  EXPECT_TRUE(dist::ParseWorkerMode("in_process", &mode));
  EXPECT_EQ(mode, WorkerMode::kInProcess);
  EXPECT_FALSE(dist::ParseWorkerMode("bogus", &mode));
}

// Unsharded differential: verdicts, per-node RIB bytes, and canonical
// predicate bytes must match the in-process run exactly.
TEST(ProcessWorkers, DifferentialUnsharded) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(3, 0, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);

  core::S2Verifier proc(BaseOptions(3, 0, WorkerMode::kProcess));
  core::VerifyResult got = proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(got.status, core::RunStatus::kOk) << got.failure_detail;

  ASSERT_EQ(got.queries.size(), want.queries.size());
  ExpectSameVerdict(got.queries[0], want.queries[0], "unsharded");
  EXPECT_EQ(got.total_best_routes, want.total_best_routes);

  dist::Controller* want_c = in_proc.last_controller();
  dist::Controller* got_c = proc.last_controller();
  ASSERT_EQ(got_c->num_workers(), want_c->num_workers());
  for (size_t w = 0; w < want_c->num_workers(); ++w) {
    EXPECT_EQ(got_c->handle(w).Checkpoint(-1).node_state,
              want_c->handle(w).Checkpoint(-1).node_state)
        << "RIB bytes diverge on worker " << w;
    EXPECT_EQ(got_c->handle(w).SnapshotPredicates(),
              want_c->handle(w).SnapshotPredicates())
        << "predicate bytes diverge on worker " << w;
  }

  std::vector<int> pids = CollectPids(*got_c);
  // Force teardown, then every child must be reaped.
  core::VerifyResult again = proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(again.status, core::RunStatus::kOk);
  ExpectNoLiveProcess(pids);
}

// Sharded differential (prefix sharding exercises SpillBgp blob shipping
// and the private child-side spill stores).
TEST(ProcessWorkers, DifferentialSharded) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(3, 4, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);

  core::S2Verifier proc(BaseOptions(3, 4, WorkerMode::kProcess));
  core::VerifyResult got = proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(got.status, core::RunStatus::kOk) << got.failure_detail;

  ASSERT_EQ(got.queries.size(), want.queries.size());
  ExpectSameVerdict(got.queries[0], want.queries[0], "sharded");
  EXPECT_EQ(got.total_best_routes, want.total_best_routes);

  dist::Controller* want_c = in_proc.last_controller();
  dist::Controller* got_c = proc.last_controller();
  for (size_t w = 0; w < want_c->num_workers(); ++w) {
    EXPECT_EQ(got_c->handle(w).SnapshotPredicates(),
              want_c->handle(w).SnapshotPredicates())
        << "predicate bytes diverge on worker " << w;
  }
  EXPECT_GT(proc.last_controller()->process_stats()->heartbeats.load(), 0u);
}

// This process's and every child's spill-segment entries under the temp
// dir (named s2-ribstore-<pid>-*).
std::vector<std::string> SpillEntriesOf(const std::vector<int>& pids) {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    std::string name = entry.path().filename().string();
    for (int pid : pids) {
      if (name.rfind("s2-ribstore-" + std::to_string(pid) + "-", 0) == 0) {
        found.push_back(name);
      }
    }
  }
  return found;
}

// Child stores spill to an unlinked segment, so even a child SIGKILLed
// after spilling every shard leaves no named entry behind — neither do its
// respawned successor (seeded with the shipped blobs) or the survivors.
TEST(ProcessWorkers, KilledChildLeavesNoSpillSegment) {
  dp::Query query = EdgeQuery(DefaultDcn());
  std::vector<int> pids;
  {
    dist::Controller controller(DefaultDcn(),
                                BaseOptions(3, 4, WorkerMode::kProcess));
    controller.Setup();
    controller.RunControlPlane();

    auto* handle = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(1));
    ASSERT_NE(handle, nullptr);
    ASSERT_GT(handle->child_pid(), 0);
    ASSERT_EQ(kill(handle->child_pid(), SIGKILL), 0);

    controller.BuildDataPlanes();
    controller.RunQuery(query);
    EXPECT_GE(controller.worker_recoveries(), 1u);
    pids = CollectPids(controller);
    pids.push_back(getpid());
    EXPECT_EQ(SpillEntriesOf(pids), std::vector<std::string>{});
  }
  EXPECT_EQ(SpillEntriesOf(pids), std::vector<std::string>{});
}

// A spill segment that cannot be created is a structured run status in
// both worker modes; a child's errno text crosses the control channel.
TEST(ProcessWorkers, StorageErrorCrossesTheProcessBoundary) {
  dp::Query query = EdgeQuery(DefaultDcn());
  testing::UnusableTmpdir tmpdir;
  for (WorkerMode mode : {WorkerMode::kInProcess, WorkerMode::kProcess}) {
    core::S2Verifier verifier(BaseOptions(2, 2, mode));
    core::VerifyResult result = verifier.Verify(DefaultDcn(), {query});
    EXPECT_EQ(result.status, core::RunStatus::kStorageError)
        << dist::WorkerModeName(mode);
    EXPECT_NE(result.failure_detail.find(std::strerror(ENOTDIR)),
              std::string::npos)
        << dist::WorkerModeName(mode) << ": " << result.failure_detail;
  }
}

// One worker SIGKILLed between the control-plane and data-plane phases:
// liveness detects the death on the next command, recovery replays from
// the converged checkpoint, and the final state is byte-identical to a
// fault-free in-process run.
TEST(ProcessWorkers, SigkillBetweenPhasesConverges) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(3, 0, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);

  dist::Controller controller(DefaultDcn(),
                              BaseOptions(3, 0, WorkerMode::kProcess));
  controller.Setup();
  controller.RunControlPlane();

  auto* handle = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(1));
  ASSERT_NE(handle, nullptr);
  ASSERT_GT(handle->child_pid(), 0);
  ASSERT_EQ(kill(handle->child_pid(), SIGKILL), 0);

  controller.BuildDataPlanes();
  dist::Controller::QueryOutcome outcome = controller.RunQuery(query);
  ExpectSameVerdict(outcome.result, want.queries[0], "sigkill");
  EXPECT_GE(controller.worker_recoveries(), 1u);
  EXPECT_GE(controller.process_stats()->deaths_detected.load(), 1u);
  EXPECT_GE(controller.process_stats()->respawns.load(), 1u);

  dist::Controller* want_c = in_proc.last_controller();
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    EXPECT_EQ(controller.handle(w).SnapshotPredicates(),
              want_c->handle(w).SnapshotPredicates())
        << "predicate bytes diverge on worker " << w;
  }
}

// One worker SIGSTOPped (wedged, not dead): heartbeats stop, the idle
// ladder warns and then SIGKILLs past hang_kill_ms, and recovery proceeds
// exactly as for a death.
TEST(ProcessWorkers, SigstopHangIsKilledAndRecovered) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(3, 0, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);

  dist::Controller controller(DefaultDcn(),
                              BaseOptions(3, 0, WorkerMode::kProcess));
  controller.Setup();
  controller.RunControlPlane();

  auto* handle = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(2));
  ASSERT_NE(handle, nullptr);
  ASSERT_GT(handle->child_pid(), 0);
  ASSERT_EQ(kill(handle->child_pid(), SIGSTOP), 0);

  controller.BuildDataPlanes();
  dist::Controller::QueryOutcome outcome = controller.RunQuery(query);
  ExpectSameVerdict(outcome.result, want.queries[0], "sigstop");
  EXPECT_GE(controller.worker_recoveries(), 1u);
  EXPECT_GE(controller.process_stats()->hang_kills.load(), 1u);

  dist::Controller* want_c = in_proc.last_controller();
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    EXPECT_EQ(controller.handle(w).SnapshotPredicates(),
              want_c->handle(w).SnapshotPredicates())
        << "predicate bytes diverge on worker " << w;
  }
}

// Acceptance scenario: one worker SIGKILLed AND another SIGSTOPped in the
// same run; both recover and the run still matches the fault-free oracle.
TEST(ProcessWorkers, KilledAndStoppedWorkersBothRecover) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(4, 2, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);

  dist::Controller controller(DefaultDcn(),
                              BaseOptions(4, 2, WorkerMode::kProcess));
  controller.Setup();
  controller.RunControlPlane();

  auto* victim0 = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(0));
  auto* victim3 = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(3));
  ASSERT_NE(victim0, nullptr);
  ASSERT_NE(victim3, nullptr);
  ASSERT_EQ(kill(victim0->child_pid(), SIGKILL), 0);
  ASSERT_EQ(kill(victim3->child_pid(), SIGSTOP), 0);

  controller.BuildDataPlanes();
  dist::Controller::QueryOutcome outcome = controller.RunQuery(query);
  ExpectSameVerdict(outcome.result, want.queries[0], "kill+stop");
  EXPECT_GE(controller.worker_recoveries(), 2u);
  EXPECT_EQ(controller.TotalBestRoutes(), want.total_best_routes);

  dist::Controller* want_c = in_proc.last_controller();
  for (size_t w = 0; w < controller.num_workers(); ++w) {
    EXPECT_EQ(controller.handle(w).SnapshotPredicates(),
              want_c->handle(w).SnapshotPredicates())
        << "predicate bytes diverge on worker " << w;
  }
}

// Exhausted respawn budget: a worker that keeps dying aborts the run with
// a structured util::WorkerLost — never a hang, never a zombie.
TEST(ProcessWorkers, RespawnBudgetExhaustionIsStructured) {
  ControllerOptions options = BaseOptions(2, 0, WorkerMode::kProcess);
  options.process_options.max_respawns = 0;

  dist::Controller controller(DefaultDcn(), options);
  controller.Setup();
  auto* handle = dynamic_cast<ProcessWorkerHandle*>(&controller.handle(0));
  ASSERT_NE(handle, nullptr);
  ASSERT_EQ(kill(handle->child_pid(), SIGKILL), 0);
  try {
    controller.RunControlPlane();
    FAIL() << "expected util::WorkerLost";
  } catch (const util::WorkerLost& lost) {
    EXPECT_EQ(lost.worker(), 0u);
    EXPECT_NE(std::string(lost.what()).find("respawn budget"),
              std::string::npos)
        << lost.what();
  }
}

// The same bound surfaced through the facade: a kWorkerLost status on the
// result, not an exception escaping Verify. The killer thread finds its
// victim by scanning /proc for s2_worker children of this process, so it
// shares no state with the verifier at all.
TEST(ProcessWorkers, WorkerLostBecomesRunStatus) {
  ControllerOptions options = BaseOptions(2, 0, WorkerMode::kProcess);
  options.process_options.max_respawns = 0;

  auto verifier = std::make_unique<core::S2Verifier>(options);
  config::ParsedNetwork net = DefaultDcn();
  dp::Query query = EdgeQuery(net);

  std::thread killer([] {
    for (int i = 0; i < 2000; ++i) {
      std::vector<int> children = FindWorkerChildren();
      if (!children.empty()) {
        kill(children.front(), SIGKILL);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  core::VerifyResult result = verifier->Verify(std::move(net), {query});
  killer.join();
  // The kill may land anywhere — during the handle constructor, mid-phase,
  // or (rarely) after the worker's last command. If the run failed, it
  // must have failed structurally, never with an escaping exception.
  if (result.status != core::RunStatus::kOk) {
    EXPECT_EQ(result.status, core::RunStatus::kWorkerLost);
    EXPECT_NE(result.failure_detail.find("lost and unrecoverable"),
              std::string::npos)
        << result.failure_detail;
  }
  // Either way no child survives teardown.
  ASSERT_NE(verifier->last_controller(), nullptr);
  std::vector<int> pids = CollectPids(*verifier->last_controller());
  verifier.reset();
  for (int pid : pids) {
    errno = 0;
    EXPECT_EQ(kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH) << "pid " << pid;
  }
  EXPECT_TRUE(FindWorkerChildren().empty());
}

// A simulated OOM inside a child crosses the control channel and surfaces
// as the same structured status an in-process run produces.
TEST(ProcessWorkers, OomCrossesTheProcessBoundary) {
  ControllerOptions in_options = BaseOptions(2, 0, WorkerMode::kInProcess);
  in_options.worker_memory_budget = 96 * 1024;
  core::S2Verifier in_proc(in_options);
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {});
  ASSERT_EQ(want.status, core::RunStatus::kOutOfMemory);

  ControllerOptions options = BaseOptions(2, 0, WorkerMode::kProcess);
  options.worker_memory_budget = 96 * 1024;
  core::S2Verifier proc(options);
  core::VerifyResult got = proc.Verify(DefaultDcn(), {});
  EXPECT_EQ(got.status, core::RunStatus::kOutOfMemory);
  EXPECT_EQ(got.failure_detail, want.failure_detail);
}

// Randomized chaos: every run gets a mid-run SIGKILL or SIGSTOP at a
// random point while the phases execute; the verdict and predicate bytes
// must still match the fault-free oracle, and teardown must reap every
// child ever spawned.
TEST(ProcessWorkers, ChaosRandomFaultsStillConverge) {
  dp::Query query = EdgeQuery(DefaultDcn());

  core::S2Verifier in_proc(BaseOptions(3, 2, WorkerMode::kInProcess));
  core::VerifyResult want = in_proc.Verify(DefaultDcn(), {query});
  ASSERT_EQ(want.status, core::RunStatus::kOk);
  dist::Controller* want_c = in_proc.last_controller();

  std::vector<int> all_pids;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    dist::Controller controller(DefaultDcn(),
                                BaseOptions(3, 2, WorkerMode::kProcess));
    controller.Setup();

    // Snapshot the initial pids now: these children stay alive until a
    // fault or teardown, so the killer thread races only against kill(2).
    std::vector<int> pids = CollectPids(controller);
    ASSERT_EQ(pids.size(), 3u);
    int victim = pids[rng.Between(0, 2)];
    int sig = (rng.Next() & 1) ? SIGKILL : SIGSTOP;
    int delay_ms = static_cast<int>(rng.Between(0, 40));
    std::thread killer([victim, sig, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      kill(victim, sig);
    });
    // Join even if the run throws: a joinable thread destructor is
    // std::terminate, which would turn any verification failure into an
    // unexplained abort.
    struct Joiner {
      std::thread& t;
      ~Joiner() { if (t.joinable()) t.join(); }
    } joiner{killer};

    controller.RunControlPlane();
    controller.BuildDataPlanes();
    dist::Controller::QueryOutcome outcome = controller.RunQuery(query);
    killer.join();
    ExpectSameVerdict(outcome.result, want.queries[0], "chaos");
    for (size_t w = 0; w < controller.num_workers(); ++w) {
      EXPECT_EQ(controller.handle(w).SnapshotPredicates(),
                want_c->handle(w).SnapshotPredicates())
          << "predicate bytes diverge on worker " << w;
    }
    std::vector<int> spawned = CollectPids(controller);
    all_pids.insert(all_pids.end(), spawned.begin(), spawned.end());
  }
  ExpectNoLiveProcess(all_pids);
}

// Incremental what-if and snapshot export need in-process worker state;
// in process mode they must decline cleanly instead of crashing.
TEST(ProcessWorkers, RichStateApisDeclineInProcessMode) {
  core::S2Verifier proc(BaseOptions(2, 0, WorkerMode::kProcess));
  config::ParsedNetwork net = DefaultDcn();
  dp::Query query = EdgeQuery(net);
  core::VerifyResult result = proc.Verify(std::move(net), {query});
  ASSERT_EQ(result.status, core::RunStatus::kOk);
  EXPECT_FALSE(proc.ExportSnapshot().has_value());
  core::Scenario scenario;
  EXPECT_FALSE(proc.VerifyIncremental(scenario).has_value());
}

// Programmatically assembled networks (no raw config texts) cannot be
// re-parsed by a child process: Setup must refuse with a clear error.
TEST(ProcessWorkers, MissingSourceTextsIsRejected) {
  config::ParsedNetwork net = DefaultDcn();
  net.source_texts.clear();
  dist::Controller controller(std::move(net),
                              BaseOptions(2, 0, WorkerMode::kProcess));
  EXPECT_THROW(controller.Setup(), std::runtime_error);
}

}  // namespace
}  // namespace s2
