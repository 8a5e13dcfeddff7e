// s2_worker: the per-worker process the controller fork/execs in
// ControllerOptions::worker_mode == kProcess (dist/process.h).
//
// Speaks the length-framed control channel on --control_fd: says hello,
// heartbeats on a timer, then serves commands until kShutdown or EOF.
// Re-derives everything heavy from the init spec — the configs are
// re-parsed and the shard plan rebuilt with the controller's seed — so
// only raw texts, the node assignment, and blobs ever cross the wire.
//
// Cross-worker routing stays controller-side: this process's sidecar
// fabric is a private, direct-mode instance used purely as the Worker's
// outbox/inbox; its queues are drained into kData frames after every
// compute and refilled from kDeliver frames before every deliver.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "config/parser.h"
#include "cp/shard.h"
#include "dist/process.h"
#include "dist/worker.h"
#include "util/status.h"

namespace s2::dist {
namespace {

struct ChildState {
  WorkerInitSpec spec;
  std::optional<config::ParsedNetwork> network;
  std::optional<cp::ShardPlan> plan;
  std::shared_ptr<cp::RibStore> store;
  std::unique_ptr<SidecarFabric> fabric;
  std::unique_ptr<Worker> worker;
  Worker::Options worker_options;
};

class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  // False once the channel is closed or the controller is gone.
  bool Write(const CtrlFrame& frame) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) return false;
    return WriteFrameFd(fd_, EncodeCtrlFrame(frame));
  }

  // Closes the channel under the write lock, so a heartbeat in flight
  // never writes to a closed (or reused) descriptor.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  std::mutex mutex_;  // heartbeat thread vs command loop
};

const cp::PrefixSet* ResolveShard(ChildState& state, int shard) {
  if (shard < 0) return nullptr;
  if (!state.plan || shard >= static_cast<int>(state.plan->num_shards())) {
    throw std::runtime_error("shard index out of range: " +
                             std::to_string(shard));
  }
  return &state.plan->shard(shard);
}

void InitState(ChildState& state, const WorkerInitSpec& spec) {
  if (spec.config_texts.empty()) {
    throw std::runtime_error(
        "process-mode workers need the raw config texts "
        "(ParsedNetwork::source_texts) to rebuild the network");
  }
  state.spec = spec;
  state.network = config::ParseNetwork(spec.config_texts);
  if (spec.num_shards > 0) {
    state.plan = cp::BuildShardPlan(*state.network, spec.num_shards,
                                    spec.seed);
    cp::RepairShardPlan(*state.network, *state.plan);
  }
  state.store = std::make_shared<cp::RibStore>();
  state.fabric = std::make_unique<SidecarFabric>(spec.num_workers,
                                                 spec.assignment);
  state.worker_options.memory_budget = spec.memory_budget;
  state.worker_options.max_bdd_nodes = spec.max_bdd_nodes;
  state.worker_options.layout.dst_bits = spec.layout_dst_bits;
  state.worker_options.layout.src_bits = spec.layout_src_bits;
  state.worker_options.layout.meta_bits = spec.layout_meta_bits;
  state.worker_options.layout.family_bits = spec.layout_family_bits;
  state.worker_options.max_hops = spec.max_hops;
  state.worker = std::make_unique<Worker>(spec.index, *state.network,
                                          state.fabric.get(),
                                          state.worker_options);
}

// Drains the private fabric's outbound queues and ships every message up
// as a kData frame (committed controller-side only after the ok response).
void ShipOutbound(ChildState& state, FrameWriter& writer) {
  for (uint32_t dest = 0; dest < state.spec.num_workers; ++dest) {
    if (dest == state.spec.index) continue;
    for (Message& message : state.fabric->Drain(dest)) {
      CtrlFrame data;
      data.type = CtrlType::kData;
      data.dest = dest;
      EncodeMessage(message, data.payload);
      if (!writer.Write(data)) {
        throw std::runtime_error("controller went away mid-ship");
      }
    }
  }
}

void Restore(ChildState& state, const WorkerRestoreSpec& spec) {
  fault::WorkerCheckpoint checkpoint =
      fault::DecodeWorkerCheckpoint(spec.checkpoint);
  // Fresh store seeded with the dead predecessor's spills, fresh worker
  // restored from the checkpoint — exactly what a cold process would have
  // held at the barrier — then the lost rounds replayed.
  state.store = std::make_shared<cp::RibStore>();
  for (const SpillBlob& blob : spec.spills) {
    state.store->SeedBlob(blob.shard, blob.node, blob.bytes);
  }
  state.worker = std::make_unique<Worker>(state.spec.index, *state.network,
                                          state.fabric.get(),
                                          state.worker_options);
  state.worker->Restore(checkpoint, ResolveShard(state, spec.shard_index));
  state.worker->ReplayDelivered(checkpoint.fabric_round, spec.to_round,
                                spec.log);
  if (checkpoint.has_data_plane) state.worker->RestoreDataPlane(checkpoint);
}

int RunWorker(int fd, uint32_t index, int heartbeat_ms) {
  FrameWriter writer(fd);

  CtrlFrame hello;
  hello.type = CtrlType::kHello;
  hello.worker = index;
  hello.protocol = kCtrlProtocolVersion;
  hello.pid = static_cast<uint64_t>(getpid());
  if (!writer.Write(hello)) return 1;

  std::atomic<bool> stop{false};
  std::thread heartbeat([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, heartbeat_ms)));
      CtrlFrame beat;
      beat.type = CtrlType::kHeartbeat;
      beat.seq = ++seq;
      if (!writer.Write(beat)) return;  // controller is gone
    }
  });

  ChildState state;
  std::vector<Message> pending;  // kDeliver frames ahead of the command
  int exit_code = 0;

  for (;;) {
    std::vector<uint8_t> payload;
    bool have = false;
    try {
      have = ReadFrameFd(fd, &payload);
    } catch (const util::WireFormatError&) {
      exit_code = 1;
      break;
    }
    if (!have) break;  // controller closed the channel

    CtrlFrame frame;
    try {
      frame = DecodeCtrlFrame(payload);
    } catch (const util::WireFormatError&) {
      exit_code = 1;
      break;
    }

    if (frame.type == CtrlType::kDeliver) {
      try {
        pending.push_back(DecodeMessage(frame.payload));
      } catch (const util::WireFormatError&) {
        exit_code = 1;
        break;
      }
      continue;
    }
    if (frame.type == CtrlType::kDrain) {
      CtrlFrame echo;
      echo.type = CtrlType::kDrain;
      writer.Write(echo);
      continue;
    }
    if (frame.type == CtrlType::kShutdown) break;
    if (frame.type != CtrlType::kCommand) continue;

    CtrlFrame response;
    response.type = CtrlType::kResponse;
    response.command = frame.command;
    response.status = CtrlStatus::kOk;
    try {
      Worker* worker = state.worker.get();
      auto need_worker = [&]() -> Worker& {
        if (worker == nullptr) {
          throw std::runtime_error("command before kInit");
        }
        return *worker;
      };
      switch (frame.command) {
        case WorkerCommand::kInit:
          InitState(state, DecodeWorkerInitSpec(frame.payload));
          break;
        case WorkerCommand::kBeginOspf:
          need_worker().BeginOspf();
          break;
        case WorkerCommand::kFinishOspf:
          need_worker().FinishOspf();
          break;
        case WorkerCommand::kBeginBgp:
          need_worker().BeginBgp(ResolveShard(state, frame.shard));
          break;
        case WorkerCommand::kComputeAndShip:
          response.flag = need_worker().ComputeAndShip() ? 1 : 0;
          ShipOutbound(state, writer);
          break;
        case WorkerCommand::kDeliver: {
          if (frame.count != pending.size()) {
            throw std::runtime_error(
                "deliver count does not match shipped frames");
          }
          Worker& w = need_worker();
          for (Message& message : pending) {
            state.fabric->Send(state.spec.index, std::move(message));
          }
          pending.clear();
          w.Deliver();
          break;
        }
        case WorkerCommand::kSpillBgp: {
          Worker& w = need_worker();
          size_t routes_before = state.store->routes_written();
          w.SpillBgp(*state.store, frame.shard);
          response.aux = state.store->routes_written() - routes_before;
          std::vector<SpillBlob> blobs;
          for (auto& [node, bytes] : state.store->OwnBlobs(frame.shard)) {
            blobs.push_back(SpillBlob{frame.shard, node, std::move(bytes)});
          }
          response.payload = EncodeSpillBlobs(blobs);
          break;
        }
        case WorkerCommand::kRetainBgp:
          need_worker().RetainBgp();
          break;
        case WorkerCommand::kBuildDataPlane:
          need_worker().BuildDataPlane(
              state.plan ? state.store.get() : nullptr);
          break;
        case WorkerCommand::kSnapshotPredicates:
          response.payload =
              EncodeNodeBlobMap(need_worker().SnapshotPredicates());
          break;
        case WorkerCommand::kCheckpoint:
          response.type = CtrlType::kCheckpointAck;
          response.payload = fault::EncodeWorkerCheckpoint(
              need_worker().Checkpoint(frame.shard));
          break;
        case WorkerCommand::kCheckpointDataPlane: {
          response.type = CtrlType::kCheckpointAck;
          fault::WorkerCheckpoint dp;
          need_worker().CheckpointDataPlane(dp);
          response.payload = fault::EncodeWorkerCheckpoint(dp);
          break;
        }
        case WorkerCommand::kRestore:
          need_worker();
          Restore(state, DecodeWorkerRestoreSpec(frame.payload));
          pending.clear();
          break;
        case WorkerCommand::kResetPeak:
          need_worker().tracker().ResetPeak();
          break;
        case WorkerCommand::kCountRoutes: {
          Worker& w = need_worker();
          uint64_t total = 0;
          for (topo::NodeId id : w.local_nodes()) {
            for (const auto& [prefix, routes] : w.node(id).bgp_routes()) {
              total += routes.size();
            }
          }
          response.aux = total;
          break;
        }
      }
    } catch (const util::SimulatedOom& e) {
      response.status = CtrlStatus::kOom;
      response.payload = EncodeOomError(e.domain(), e.requested(), e.budget());
    } catch (const util::SimulatedTimeout& e) {
      response.status = CtrlStatus::kTimeout;
      const char* what = e.what();
      response.payload.assign(what, what + strlen(what));
    } catch (const util::StorageError& e) {
      response.status = CtrlStatus::kStorageError;
      const char* what = e.what();
      response.payload.assign(what, what + strlen(what));
    } catch (const std::exception& e) {
      response.status = CtrlStatus::kError;
      const char* what = e.what();
      response.payload.assign(what, what + strlen(what));
    }

    if (state.worker) {
      response.phase_seconds = state.worker->last_phase_seconds();
      response.live_bytes = state.worker->tracker().live_bytes();
      response.peak_bytes = state.worker->tracker().peak_bytes();
      bdd::Manager::CacheStats stats = state.worker->bdd_cache_stats();
      response.cache_hits = stats.hits;
      response.cache_misses = stats.misses;
      response.cache_evictions = stats.evictions;
    }
    if (!writer.Write(response)) break;  // controller is gone
  }

  stop.store(true, std::memory_order_relaxed);
  writer.Close();
  // Crash-only exit: every byte the controller needs is already on the
  // wire, and the checkpoint/journal path must work regardless of how this
  // process dies — so don't burn CPU tearing down BDD managers and RIBs
  // (or waiting out the heartbeat timer) just to exit. _Exit skips the
  // heartbeat join and all destructors.
  std::_Exit(exit_code);
}

}  // namespace
}  // namespace s2::dist

int main(int argc, char** argv) {
  // The controller may die first; a write to a closed channel must surface
  // as an error return, not a process-killing signal.
  signal(SIGPIPE, SIG_IGN);

  int fd = -1;
  uint32_t worker = 0;
  int heartbeat_ms = 50;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--control_fd=")) {
      fd = atoi(v);
    } else if (const char* v = value("--worker=")) {
      worker = static_cast<uint32_t>(atoi(v));
    } else if (const char* v = value("--heartbeat_ms=")) {
      heartbeat_ms = atoi(v);
    }
  }
  if (fd < 0) {
    fprintf(stderr, "usage: s2_worker --control_fd=N --worker=W "
                    "[--heartbeat_ms=MS]\n");
    return 2;
  }
  return s2::dist::RunWorker(fd, worker, heartbeat_ms);
}
