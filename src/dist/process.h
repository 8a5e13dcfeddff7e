// Multi-process workers: the controller-side harness that runs each
// dist::Worker behind a real OS process boundary (DESIGN.md §16; paper
// §3.2's "the controller observes worker liveness" — the sidecar stays
// controller-side and survives worker crashes, exactly like the paper's
// separate sidecar process).
//
// The controller fork/execs one `s2_worker` child per worker
// (dist/worker_main.cc) and speaks a length-framed control channel over a
// socketpair: commands down, responses/heartbeats/data up. All cross-worker
// routing stays in the controller's authoritative SidecarFabric (reliable
// envelope + replay logs); the child ships its outbound messages up as
// kData frames and receives its inbound batch as kDeliver frames, so a
// child's death never loses fabric custody.
//
// Liveness: every child heartbeats on an interval; the controller's
// response wait doubles as the monitor. Silence past hang_warn_ms counts a
// warning, past hang_kill_ms the child is SIGKILLed and treated as dead
// (a SIGSTOPped child is indistinguishable from a wedged one — by design).
// Death (EOF / waitpid) triggers inline recovery: respawn, re-ship the
// latest checkpoint + spill blobs + the fabric's replay log, re-apply the
// journal of non-round commands, and re-issue the interrupted command.
// After max_respawns failed respawns the run aborts with util::WorkerLost
// instead of looping forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/handle.h"

namespace s2::dist {

// How ControllerOptions runs its workers. kInProcess is the historical,
// byte-identical default; kProcess forks one s2_worker per worker.
enum class WorkerMode : uint8_t {
  kInProcess = 0,
  kProcess,
};

const char* WorkerModeName(WorkerMode mode);
// Accepts "in_process" / "process"; returns false on anything else.
bool ParseWorkerMode(const std::string& text, WorkerMode* out);

struct ProcessOptions {
  // Child heartbeat period.
  int heartbeat_interval_ms = 50;
  // Silence past this while awaiting a response counts one hang warning...
  int hang_warn_ms = 2000;
  // ...and past this the child is SIGKILLed and recovered as dead.
  int hang_kill_ms = 5000;
  // Grace between kShutdown and SIGTERM, and between SIGTERM and SIGKILL,
  // at teardown.
  int shutdown_grace_ms = 2000;
  // Liveness-triggered respawns allowed per worker before the run aborts
  // with util::WorkerLost. Explicit Recover() calls (scheduled faults) do
  // not consume this budget.
  int max_respawns = 8;
  // Path to the s2_worker binary. Empty = auto-locate: $S2_WORKER_BIN,
  // then s2_worker next to the running binary, then ../src/s2_worker.
  std::string worker_binary;
};

// Process/liveness counters shared by every handle of one controller;
// published as the proc.* and liveness.* RunReport metrics.
struct ProcessStats {
  std::atomic<uint64_t> spawns{0};
  std::atomic<uint64_t> respawns{0};
  std::atomic<uint64_t> exits_clean{0};
  std::atomic<uint64_t> sigkills{0};
  std::atomic<uint64_t> reaps{0};
  std::atomic<uint64_t> heartbeats{0};
  std::atomic<uint64_t> hang_warnings{0};
  std::atomic<uint64_t> hang_kills{0};
  std::atomic<uint64_t> deaths_detected{0};
};

// ----------------------------------------------------------- wire format
//
// The control channel is a stream of [u32 LE length | payload] frames;
// payloads are CtrlFrame encodings. DecodeCtrlFrame throws
// util::WireFormatError on truncation, unknown type/command/status bytes,
// out-of-range flags, length fields exceeding the remaining bytes, and
// trailing garbage — it never trusts a length enough to allocate past the
// input (fuzzed alongside the message/checkpoint codecs).

enum class CtrlType : uint8_t {
  kHello = 1,          // child -> controller once after exec
  kHeartbeat = 2,      // child -> controller on a timer
  kCommand = 3,        // controller -> child
  kResponse = 4,       // child -> controller, terminates a command
  kData = 5,           // child -> controller: one outbound fabric message
  kDeliver = 6,        // controller -> child: one inbound fabric message
  kCheckpointAck = 7,  // child -> controller: response carrying a checkpoint
  kDrain = 8,          // both ways: flush marker for teardown
  kShutdown = 9,       // controller -> child: exit cleanly
};

enum class WorkerCommand : uint8_t {
  kInit = 1,
  kBeginOspf = 2,
  kFinishOspf = 3,
  kBeginBgp = 4,
  kComputeAndShip = 5,
  kDeliver = 6,
  kSpillBgp = 7,
  kRetainBgp = 8,
  kBuildDataPlane = 9,
  kSnapshotPredicates = 10,
  kCheckpoint = 11,
  kCheckpointDataPlane = 12,
  kRestore = 13,
  kResetPeak = 14,
  kCountRoutes = 15,
};

enum class CtrlStatus : uint8_t {
  kOk = 0,
  kOom = 1,           // payload: EncodeOomError
  kTimeout = 2,       // payload: what() string
  kError = 3,         // payload: what() string
  kStorageError = 4,  // payload: what() string
};

struct CtrlFrame {
  CtrlType type = CtrlType::kHeartbeat;

  // kHello.
  uint32_t worker = 0;
  uint32_t protocol = 0;
  uint64_t pid = 0;

  // kHeartbeat.
  uint64_t seq = 0;

  // kCommand / kResponse / kCheckpointAck.
  WorkerCommand command = WorkerCommand::kInit;
  int32_t shard = -1;   // kBeginBgp / kSpillBgp / kCheckpoint
  int32_t round = 0;    // kDeliver command: the batch's fabric round
  uint32_t count = 0;   // kDeliver command: messages shipped ahead of it
  CtrlStatus status = CtrlStatus::kOk;  // responses
  uint8_t flag = 0;     // response boolean (ComputeAndShip's "produced")

  // Response metrics trailer: the child's tracker/cache state after the
  // command, mirrored into the handle.
  double phase_seconds = 0;
  uint64_t live_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  // Command-specific scalar (spilled/counted routes).
  uint64_t aux = 0;

  // kData / kDeliver: one EncodeMessage blob. Commands/responses: the
  // command-specific blob (init spec, restore spec, checkpoint bytes,
  // spill blobs, predicate map, error detail).
  uint32_t dest = 0;  // kData: destination worker
  std::vector<uint8_t> payload;
};

constexpr uint32_t kCtrlProtocolVersion = 1;

std::vector<uint8_t> EncodeCtrlFrame(const CtrlFrame& frame);
CtrlFrame DecodeCtrlFrame(const std::vector<uint8_t>& bytes);

// Everything a child needs to reconstruct the run: the worker re-parses
// the configs and re-derives the shard plan, so neither the network nor
// any prefix set ever crosses the wire.
struct WorkerInitSpec {
  uint32_t num_workers = 0;
  uint32_t index = 0;
  uint64_t memory_budget = 0;
  uint64_t max_bdd_nodes = 0;
  // Resolved dp::HeaderLayout (the controller resolves LayoutForNetwork
  // before spawning; children must not re-derive it from configs).
  uint32_t layout_dst_bits = 32;
  uint32_t layout_src_bits = 0;
  uint32_t layout_meta_bits = 0;
  uint32_t layout_family_bits = 0;
  int32_t max_hops = 24;
  uint32_t dp_lanes = 1;
  int32_t num_shards = 0;
  uint64_t seed = 1;
  uint32_t heartbeat_interval_ms = 50;
  // node -> worker, the partition result (not re-derived: the controller's
  // partitioner owns it).
  std::vector<uint32_t> assignment;
  // The raw device configs (config::ParsedNetwork::source_texts).
  std::vector<std::string> config_texts;
};

std::vector<uint8_t> EncodeWorkerInitSpec(const WorkerInitSpec& spec);
WorkerInitSpec DecodeWorkerInitSpec(const std::vector<uint8_t>& bytes);

// One serialized (shard, node) spill blob, shipped child -> controller in
// SpillBgp responses and controller -> child in restore specs.
struct SpillBlob {
  int32_t shard = 0;
  topo::NodeId node = 0;
  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> EncodeSpillBlobs(const std::vector<SpillBlob>& blobs);
std::vector<SpillBlob> DecodeSpillBlobs(const std::vector<uint8_t>& bytes);

// The kRestore payload: checkpoint + spills + replay log + replay bound.
struct WorkerRestoreSpec {
  int32_t shard_index = -1;  // checkpoint.shard, for plan resolution
  int32_t to_round = 0;      // replay [checkpoint.fabric_round, to_round)
  std::vector<uint8_t> checkpoint;  // EncodeWorkerCheckpoint bytes
  std::vector<SpillBlob> spills;
  std::vector<fault::LoggedDelivery> log;
};

std::vector<uint8_t> EncodeWorkerRestoreSpec(const WorkerRestoreSpec& spec);
WorkerRestoreSpec DecodeWorkerRestoreSpec(const std::vector<uint8_t>& bytes);

// node -> blob map (SnapshotPredicates responses).
std::vector<uint8_t> EncodeNodeBlobMap(
    const std::map<topo::NodeId, std::vector<uint8_t>>& blobs);
std::map<topo::NodeId, std::vector<uint8_t>> DecodeNodeBlobMap(
    const std::vector<uint8_t>& bytes);

// kOom error payload: enough to rethrow an identical util::SimulatedOom
// controller-side.
std::vector<uint8_t> EncodeOomError(const std::string& domain,
                                    uint64_t requested, uint64_t budget);
void DecodeOomError(const std::vector<uint8_t>& bytes, std::string* domain,
                    uint64_t* requested, uint64_t* budget);

// Reads/writes one [u32 LE length | payload] frame on a stream fd.
// WriteFrameFd returns false on a broken pipe; ReadFrameFd returns false
// on clean EOF at a frame boundary and throws util::WireFormatError on a
// truncated frame or an absurd length.
bool WriteFrameFd(int fd, const std::vector<uint8_t>& payload);
bool ReadFrameFd(int fd, std::vector<uint8_t>* payload);

// Resolves the s2_worker binary: $S2_WORKER_BIN, then `configured`, then
// candidates next to /proc/self/exe. Throws std::runtime_error when
// nothing executable is found.
std::string LocateWorkerBinary(const std::string& configured);

// ------------------------------------------------------- process handle
//
// The controller-side face of one worker process. Every WorkerHandle call
// becomes a command round trip; the wait for the response is also the
// liveness monitor, and a detected death or hang recovers inline so the
// CPO/DPO above never see the fault (until the respawn budget runs out).
class ProcessWorkerHandle : public WorkerHandle {
 public:
  ProcessWorkerHandle(uint32_t index, std::string binary,
                      std::vector<uint8_t> init_blob, SidecarFabric* fabric,
                      ProcessOptions options, ProcessStats* stats,
                      size_t memory_budget);
  ~ProcessWorkerHandle() override;

  ProcessWorkerHandle(const ProcessWorkerHandle&) = delete;
  ProcessWorkerHandle& operator=(const ProcessWorkerHandle&) = delete;

  void BeginOspf() override;
  void FinishOspf() override;
  void BeginBgp(const cp::PrefixSet* shard, int shard_index) override;
  bool ComputeAndShip() override;
  void Deliver() override;
  void SpillBgp(cp::RibStore& store, int shard) override;
  void RetainBgp() override;

  void BuildDataPlane(const cp::RibStore* store) override;
  std::map<topo::NodeId, std::vector<uint8_t>> SnapshotPredicates() override;
  bool has_data_plane() const override { return has_data_plane_; }

  fault::WorkerCheckpoint Checkpoint(int shard) override;
  void CheckpointDataPlane(fault::WorkerCheckpoint& checkpoint) override;
  void Recover(const fault::WorkerCheckpoint& checkpoint,
               const cp::PrefixSet* shard, int to_round,
               const std::vector<fault::LoggedDelivery>& log) override;
  size_t recoveries() const override { return recoveries_; }

  double last_phase_seconds() const override { return last_phase_seconds_; }
  size_t live_bytes() const override { return live_bytes_; }
  size_t peak_bytes() const override;
  void ResetPeak() override;
  double gc_pressure() const override;
  util::MemoryTracker& query_tracker() override { return query_tracker_; }
  bdd::Manager::CacheStats bdd_cache_stats() const override {
    return cache_stats_;
  }
  // Queries run controller-side in process mode (Dpo::RunQueries over
  // snapshot bytes), so the per-worker engine step counter has nothing to
  // count here.
  size_t forwarding_steps() const override { return 0; }
  // Attribute interning happens inside the child; the pool's shadow
  // counters are not mirrored (the attr.* report metrics read zero in
  // process mode).
  cp::AttrPool::Stats attr_stats() const override { return {}; }
  size_t CountBestRoutes() const override;
  std::vector<int> spawned_pids() const override { return spawned_pids_; }

  Worker* local() override { return nullptr; }

  // Graceful teardown: drain, shutdown, escalate SIGTERM -> SIGKILL, reap.
  // Idempotent; the destructor calls it and never throws.
  void Shutdown();

  // The child's current pid (-1 after Shutdown); tests stop/kill it to
  // stage hangs and crashes.
  int child_pid() const { return pid_; }

 private:
  // Commands whose effects are not reproduced by round replay; re-applied
  // in order after a restore.
  struct JournalEntry {
    WorkerCommand command = WorkerCommand::kInit;
    int32_t shard = -1;
  };

  // Thrown internally when the child dies or is hang-killed mid-command;
  // caught by the RoundTrip retry loop.
  struct ChildFailure {
    std::string reason;
  };

  void Spawn(bool is_respawn);
  void ReapChild();
  void KillChild();
  // Pops one complete frame payload from the receive buffer.
  bool TakeRxFrame(std::vector<uint8_t>* payload);

  // Sends `frame`, awaits the matching response, recovering and retrying
  // per the command's replay semantics on failure. `reissue` = false for
  // commands whose effect the restore replay already reproduces (Deliver).
  CtrlFrame RoundTrip(const CtrlFrame& frame, bool reissue = true);
  // One attempt: throws ChildFailure on death/hang, never recovers.
  CtrlFrame SendAndAwait(const CtrlFrame& frame);
  void WriteFrame(const CtrlFrame& frame);
  // Waits for one frame with the liveness deadline ladder; throws
  // ChildFailure on death, hang-kill, or protocol corruption.
  CtrlFrame AwaitFrame();
  void AwaitHello();

  // Applies a response's metrics trailer to the handle mirrors.
  void AbsorbMetrics(const CtrlFrame& response);
  // Stages/commits the child's kData output (committed only after the ok
  // response so a mid-command death leaves the fabric untouched).
  void CommitStaged();
  [[noreturn]] void ThrowResponseError(const CtrlFrame& response);

  // Inline recovery: reap, respawn (respecting max_respawns), re-init,
  // restore from the mirrored checkpoint + spills + fabric replay log,
  // re-apply the journal. `to_round_override` >= 0 replaces the default
  // fabric_->CurrentRound() bound (Deliver's batch_round + 1).
  void RecoverInline(const std::string& reason, int to_round_override);
  void ShipRestore(const fault::WorkerCheckpoint& checkpoint, int to_round,
                   const std::vector<fault::LoggedDelivery>& log);
  void ReplayJournal();
  void Journal(WorkerCommand command, int32_t shard);

  uint32_t index_;
  std::string binary_;
  std::vector<uint8_t> init_blob_;
  SidecarFabric* fabric_;
  ProcessOptions options_;
  ProcessStats* stats_;

  int pid_ = -1;
  int fd_ = -1;
  std::vector<int> spawned_pids_;
  size_t recoveries_ = 0;
  int respawns_used_ = 0;
  bool shut_down_ = false;
  // Respawn budget exhausted: the run already aborted with WorkerLost;
  // metric reads on the way out serve cached values instead of respawning.
  bool lost_ = false;

  // Stream reassembly buffer for the non-blocking parent end.
  std::vector<uint8_t> rx_;

  std::vector<Message> staged_;

  // Child metric mirrors (updated from every response trailer).
  double last_phase_seconds_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
  bdd::Manager::CacheStats cache_stats_;
  bool has_data_plane_ = false;

  // The latest full checkpoint, mirrored with the same merge semantics as
  // Controller::CheckpointWorkers so inline recovery never depends on the
  // controller noticing the fault.
  fault::WorkerCheckpoint mirror_;
  bool mirror_valid_ = false;

  // Spill blobs the child shipped (re-seeded into a respawned child) and
  // the route count they carried (TotalBestRoutes in sharded runs).
  std::map<std::pair<int32_t, topo::NodeId>, std::vector<uint8_t>> spills_;
  uint64_t spilled_routes_ = 0;

  std::vector<JournalEntry> journal_;

  // Charged by controller-side per-query BDD domains (Dpo::RunQueries);
  // same budget as the child's tracker so query OOMs stay comparable.
  size_t memory_budget_ = 0;
  util::MemoryTracker query_tracker_;
};

}  // namespace s2::dist
