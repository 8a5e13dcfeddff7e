#include "dist/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "cp/route.h"
#include "util/status.h"

namespace s2::dist {

namespace {

using cp::GetWireU32;
using cp::GetWireU64;
using cp::PutWireU32;
using cp::PutWireU64;

// The framing layer refuses lengths above this before allocating: no
// legitimate control payload (checkpoints included) approaches it, and a
// corrupt length must not turn into a giant allocation.
constexpr uint32_t kMaxFramePayload = 1u << 30;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PutBlob(std::vector<uint8_t>& out, const std::vector<uint8_t>& blob) {
  PutWireU32(out, static_cast<uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

std::vector<uint8_t> GetBlob(const std::vector<uint8_t>& bytes, size_t& pos) {
  uint32_t len = GetWireU32(bytes, pos);
  if (len > bytes.size() - pos) {
    throw util::WireFormatError("control blob length exceeds input");
  }
  std::vector<uint8_t> blob(bytes.begin() + pos, bytes.begin() + pos + len);
  pos += len;
  return blob;
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutWireU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string GetString(const std::vector<uint8_t>& bytes, size_t& pos) {
  uint32_t len = GetWireU32(bytes, pos);
  if (len > bytes.size() - pos) {
    throw util::WireFormatError("control string length exceeds input");
  }
  std::string s(bytes.begin() + pos, bytes.begin() + pos + len);
  pos += len;
  return s;
}

void PutF64(std::vector<uint8_t>& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutWireU64(out, bits);
}

double GetF64(const std::vector<uint8_t>& bytes, size_t& pos) {
  uint64_t bits = GetWireU64(bytes, pos);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

WorkerCommand GetCommandByte(const std::vector<uint8_t>& bytes, size_t& pos) {
  if (pos >= bytes.size()) {
    throw util::WireFormatError("control frame truncated before command");
  }
  uint8_t raw = bytes[pos++];
  if (raw < static_cast<uint8_t>(WorkerCommand::kInit) ||
      raw > static_cast<uint8_t>(WorkerCommand::kCountRoutes)) {
    throw util::WireFormatError("unknown worker command byte");
  }
  return static_cast<WorkerCommand>(raw);
}

void CheckConsumed(const std::vector<uint8_t>& bytes, size_t pos,
                   const char* what) {
  if (pos != bytes.size()) {
    throw util::WireFormatError(std::string("trailing bytes after ") + what);
  }
}

}  // namespace

const char* WorkerModeName(WorkerMode mode) {
  switch (mode) {
    case WorkerMode::kInProcess:
      return "in_process";
    case WorkerMode::kProcess:
      return "process";
  }
  return "unknown";
}

bool ParseWorkerMode(const std::string& text, WorkerMode* out) {
  if (text == "in_process") {
    *out = WorkerMode::kInProcess;
    return true;
  }
  if (text == "process") {
    *out = WorkerMode::kProcess;
    return true;
  }
  return false;
}

// ----------------------------------------------------------- frame codec

std::vector<uint8_t> EncodeCtrlFrame(const CtrlFrame& frame) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case CtrlType::kHello:
      PutWireU32(out, frame.worker);
      PutWireU32(out, frame.protocol);
      PutWireU64(out, frame.pid);
      break;
    case CtrlType::kHeartbeat:
      PutWireU64(out, frame.seq);
      break;
    case CtrlType::kCommand:
      out.push_back(static_cast<uint8_t>(frame.command));
      PutWireU32(out, static_cast<uint32_t>(frame.shard));
      PutWireU32(out, static_cast<uint32_t>(frame.round));
      PutWireU32(out, frame.count);
      PutBlob(out, frame.payload);
      break;
    case CtrlType::kResponse:
    case CtrlType::kCheckpointAck:
      out.push_back(static_cast<uint8_t>(frame.command));
      out.push_back(static_cast<uint8_t>(frame.status));
      out.push_back(frame.flag);
      PutF64(out, frame.phase_seconds);
      PutWireU64(out, frame.live_bytes);
      PutWireU64(out, frame.peak_bytes);
      PutWireU64(out, frame.cache_hits);
      PutWireU64(out, frame.cache_misses);
      PutWireU64(out, frame.cache_evictions);
      PutWireU64(out, frame.aux);
      PutBlob(out, frame.payload);
      break;
    case CtrlType::kData:
      PutWireU32(out, frame.dest);
      PutBlob(out, frame.payload);
      break;
    case CtrlType::kDeliver:
      PutBlob(out, frame.payload);
      break;
    case CtrlType::kDrain:
    case CtrlType::kShutdown:
      break;
  }
  return out;
}

CtrlFrame DecodeCtrlFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    throw util::WireFormatError("empty control frame");
  }
  size_t pos = 0;
  uint8_t raw_type = bytes[pos++];
  if (raw_type < static_cast<uint8_t>(CtrlType::kHello) ||
      raw_type > static_cast<uint8_t>(CtrlType::kShutdown)) {
    throw util::WireFormatError("unknown control frame type byte");
  }
  CtrlFrame frame;
  frame.type = static_cast<CtrlType>(raw_type);
  switch (frame.type) {
    case CtrlType::kHello:
      frame.worker = GetWireU32(bytes, pos);
      frame.protocol = GetWireU32(bytes, pos);
      frame.pid = GetWireU64(bytes, pos);
      break;
    case CtrlType::kHeartbeat:
      frame.seq = GetWireU64(bytes, pos);
      break;
    case CtrlType::kCommand:
      frame.command = GetCommandByte(bytes, pos);
      frame.shard = static_cast<int32_t>(GetWireU32(bytes, pos));
      frame.round = static_cast<int32_t>(GetWireU32(bytes, pos));
      frame.count = GetWireU32(bytes, pos);
      frame.payload = GetBlob(bytes, pos);
      break;
    case CtrlType::kResponse:
    case CtrlType::kCheckpointAck: {
      frame.command = GetCommandByte(bytes, pos);
      if (pos + 2 > bytes.size()) {
        throw util::WireFormatError("control response truncated");
      }
      uint8_t raw_status = bytes[pos++];
      if (raw_status > static_cast<uint8_t>(CtrlStatus::kStorageError)) {
        throw util::WireFormatError("unknown control status byte");
      }
      frame.status = static_cast<CtrlStatus>(raw_status);
      frame.flag = bytes[pos++];
      if (frame.flag > 1) {
        throw util::WireFormatError("control response flag out of range");
      }
      frame.phase_seconds = GetF64(bytes, pos);
      frame.live_bytes = GetWireU64(bytes, pos);
      frame.peak_bytes = GetWireU64(bytes, pos);
      frame.cache_hits = GetWireU64(bytes, pos);
      frame.cache_misses = GetWireU64(bytes, pos);
      frame.cache_evictions = GetWireU64(bytes, pos);
      frame.aux = GetWireU64(bytes, pos);
      frame.payload = GetBlob(bytes, pos);
      break;
    }
    case CtrlType::kData:
      frame.dest = GetWireU32(bytes, pos);
      frame.payload = GetBlob(bytes, pos);
      break;
    case CtrlType::kDeliver:
      frame.payload = GetBlob(bytes, pos);
      break;
    case CtrlType::kDrain:
    case CtrlType::kShutdown:
      break;
  }
  CheckConsumed(bytes, pos, "control frame");
  return frame;
}

// ------------------------------------------------------------ spec codecs

std::vector<uint8_t> EncodeWorkerInitSpec(const WorkerInitSpec& spec) {
  std::vector<uint8_t> out;
  PutWireU32(out, spec.num_workers);
  PutWireU32(out, spec.index);
  PutWireU64(out, spec.memory_budget);
  PutWireU64(out, spec.max_bdd_nodes);
  PutWireU32(out, spec.layout_dst_bits);
  PutWireU32(out, spec.layout_src_bits);
  PutWireU32(out, spec.layout_meta_bits);
  PutWireU32(out, spec.layout_family_bits);
  PutWireU32(out, static_cast<uint32_t>(spec.max_hops));
  PutWireU32(out, spec.dp_lanes);
  PutWireU32(out, static_cast<uint32_t>(spec.num_shards));
  PutWireU64(out, spec.seed);
  PutWireU32(out, spec.heartbeat_interval_ms);
  PutWireU32(out, static_cast<uint32_t>(spec.assignment.size()));
  for (uint32_t w : spec.assignment) PutWireU32(out, w);
  PutWireU32(out, static_cast<uint32_t>(spec.config_texts.size()));
  for (const std::string& text : spec.config_texts) PutString(out, text);
  return out;
}

WorkerInitSpec DecodeWorkerInitSpec(const std::vector<uint8_t>& bytes) {
  WorkerInitSpec spec;
  size_t pos = 0;
  spec.num_workers = GetWireU32(bytes, pos);
  spec.index = GetWireU32(bytes, pos);
  spec.memory_budget = GetWireU64(bytes, pos);
  spec.max_bdd_nodes = GetWireU64(bytes, pos);
  spec.layout_dst_bits = GetWireU32(bytes, pos);
  spec.layout_src_bits = GetWireU32(bytes, pos);
  spec.layout_meta_bits = GetWireU32(bytes, pos);
  spec.layout_family_bits = GetWireU32(bytes, pos);
  spec.max_hops = static_cast<int32_t>(GetWireU32(bytes, pos));
  spec.dp_lanes = GetWireU32(bytes, pos);
  spec.num_shards = static_cast<int32_t>(GetWireU32(bytes, pos));
  spec.seed = GetWireU64(bytes, pos);
  spec.heartbeat_interval_ms = GetWireU32(bytes, pos);
  uint32_t workers = GetWireU32(bytes, pos);
  if (workers > (bytes.size() - pos) / 4) {
    throw util::WireFormatError("init spec assignment count exceeds input");
  }
  spec.assignment.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    spec.assignment.push_back(GetWireU32(bytes, pos));
  }
  uint32_t texts = GetWireU32(bytes, pos);
  if (texts > (bytes.size() - pos) / 4) {
    throw util::WireFormatError("init spec text count exceeds input");
  }
  spec.config_texts.reserve(texts);
  for (uint32_t i = 0; i < texts; ++i) {
    spec.config_texts.push_back(GetString(bytes, pos));
  }
  CheckConsumed(bytes, pos, "init spec");
  return spec;
}

std::vector<uint8_t> EncodeSpillBlobs(const std::vector<SpillBlob>& blobs) {
  std::vector<uint8_t> out;
  PutWireU32(out, static_cast<uint32_t>(blobs.size()));
  for (const SpillBlob& blob : blobs) {
    PutWireU32(out, static_cast<uint32_t>(blob.shard));
    PutWireU32(out, blob.node);
    PutBlob(out, blob.bytes);
  }
  return out;
}

std::vector<SpillBlob> DecodeSpillBlobs(const std::vector<uint8_t>& bytes) {
  size_t pos = 0;
  uint32_t count = GetWireU32(bytes, pos);
  if (count > (bytes.size() - pos) / 12) {
    throw util::WireFormatError("spill blob count exceeds input");
  }
  std::vector<SpillBlob> blobs;
  blobs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SpillBlob blob;
    blob.shard = static_cast<int32_t>(GetWireU32(bytes, pos));
    blob.node = GetWireU32(bytes, pos);
    blob.bytes = GetBlob(bytes, pos);
    blobs.push_back(std::move(blob));
  }
  CheckConsumed(bytes, pos, "spill blobs");
  return blobs;
}

std::vector<uint8_t> EncodeWorkerRestoreSpec(const WorkerRestoreSpec& spec) {
  std::vector<uint8_t> out;
  PutWireU32(out, static_cast<uint32_t>(spec.shard_index));
  PutWireU32(out, static_cast<uint32_t>(spec.to_round));
  PutBlob(out, spec.checkpoint);
  PutBlob(out, EncodeSpillBlobs(spec.spills));
  PutWireU32(out, static_cast<uint32_t>(spec.log.size()));
  for (const fault::LoggedDelivery& entry : spec.log) {
    PutWireU32(out, static_cast<uint32_t>(entry.round));
    std::vector<uint8_t> message;
    EncodeMessage(entry.message, message);
    PutBlob(out, message);
  }
  return out;
}

WorkerRestoreSpec DecodeWorkerRestoreSpec(const std::vector<uint8_t>& bytes) {
  WorkerRestoreSpec spec;
  size_t pos = 0;
  spec.shard_index = static_cast<int32_t>(GetWireU32(bytes, pos));
  spec.to_round = static_cast<int32_t>(GetWireU32(bytes, pos));
  spec.checkpoint = GetBlob(bytes, pos);
  spec.spills = DecodeSpillBlobs(GetBlob(bytes, pos));
  uint32_t entries = GetWireU32(bytes, pos);
  if (entries > (bytes.size() - pos) / 8) {
    throw util::WireFormatError("restore log count exceeds input");
  }
  spec.log.reserve(entries);
  for (uint32_t i = 0; i < entries; ++i) {
    fault::LoggedDelivery entry;
    entry.round = static_cast<int32_t>(GetWireU32(bytes, pos));
    entry.message = DecodeMessage(GetBlob(bytes, pos));
    spec.log.push_back(std::move(entry));
  }
  CheckConsumed(bytes, pos, "restore spec");
  return spec;
}

std::vector<uint8_t> EncodeNodeBlobMap(
    const std::map<topo::NodeId, std::vector<uint8_t>>& blobs) {
  std::vector<uint8_t> out;
  PutWireU32(out, static_cast<uint32_t>(blobs.size()));
  for (const auto& [node, bytes] : blobs) {
    PutWireU32(out, node);
    PutBlob(out, bytes);
  }
  return out;
}

std::map<topo::NodeId, std::vector<uint8_t>> DecodeNodeBlobMap(
    const std::vector<uint8_t>& bytes) {
  size_t pos = 0;
  uint32_t count = GetWireU32(bytes, pos);
  if (count > (bytes.size() - pos) / 8) {
    throw util::WireFormatError("node blob count exceeds input");
  }
  std::map<topo::NodeId, std::vector<uint8_t>> blobs;
  for (uint32_t i = 0; i < count; ++i) {
    topo::NodeId node = GetWireU32(bytes, pos);
    blobs[node] = GetBlob(bytes, pos);
  }
  CheckConsumed(bytes, pos, "node blob map");
  return blobs;
}

std::vector<uint8_t> EncodeOomError(const std::string& domain,
                                    uint64_t requested, uint64_t budget) {
  std::vector<uint8_t> out;
  PutString(out, domain);
  PutWireU64(out, requested);
  PutWireU64(out, budget);
  return out;
}

void DecodeOomError(const std::vector<uint8_t>& bytes, std::string* domain,
                    uint64_t* requested, uint64_t* budget) {
  size_t pos = 0;
  *domain = GetString(bytes, pos);
  *requested = GetWireU64(bytes, pos);
  *budget = GetWireU64(bytes, pos);
  CheckConsumed(bytes, pos, "oom error");
}

// --------------------------------------------------------- stream framing

bool WriteFrameFd(int fd, const std::vector<uint8_t>& payload) {
  uint8_t header[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<uint8_t>(len);
  header[1] = static_cast<uint8_t>(len >> 8);
  header[2] = static_cast<uint8_t>(len >> 16);
  header[3] = static_cast<uint8_t>(len >> 24);
  auto write_all = [fd](const uint8_t* data, size_t size) {
    size_t sent = 0;
    while (sent < size) {
      ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  };
  if (!write_all(header, sizeof(header))) return false;
  return write_all(payload.data(), payload.size());
}

bool ReadFrameFd(int fd, std::vector<uint8_t>* payload) {
  auto read_all = [fd](uint8_t* data, size_t size, bool* clean_eof) {
    size_t got = 0;
    while (got < size) {
      ssize_t n = read(fd, data + got, size - got);
      if (n == 0) {
        *clean_eof = (got == 0);
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        *clean_eof = (got == 0);
        return false;
      }
      got += static_cast<size_t>(n);
    }
    return true;
  };
  uint8_t header[4];
  bool clean = false;
  if (!read_all(header, sizeof(header), &clean)) {
    if (clean) return false;
    throw util::WireFormatError("control stream truncated mid-frame");
  }
  uint32_t len = static_cast<uint32_t>(header[0]) |
                 static_cast<uint32_t>(header[1]) << 8 |
                 static_cast<uint32_t>(header[2]) << 16 |
                 static_cast<uint32_t>(header[3]) << 24;
  if (len > kMaxFramePayload) {
    throw util::WireFormatError("control frame length is absurd");
  }
  payload->resize(len);
  if (len > 0 && !read_all(payload->data(), len, &clean)) {
    throw util::WireFormatError("control stream truncated mid-frame");
  }
  return true;
}

// ------------------------------------------------------------- locating

std::string LocateWorkerBinary(const std::string& configured) {
  auto executable = [](const std::string& path) {
    return !path.empty() && access(path.c_str(), X_OK) == 0;
  };
  if (const char* env = getenv("S2_WORKER_BIN"); env != nullptr && *env) {
    if (executable(env)) return env;
    throw std::runtime_error(std::string("S2_WORKER_BIN is set but not "
                                         "executable: ") +
                             env);
  }
  if (!configured.empty()) {
    if (executable(configured)) return configured;
    throw std::runtime_error("worker_binary is not executable: " + configured);
  }
  char self[4096];
  ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    size_t slash = dir.rfind('/');
    if (slash != std::string::npos) dir.resize(slash);
    for (const char* relative :
         {"/s2_worker", "/../src/s2_worker", "/../../src/s2_worker"}) {
      std::string candidate = dir + relative;
      if (executable(candidate)) return candidate;
    }
  }
  throw std::runtime_error(
      "cannot locate the s2_worker binary (set S2_WORKER_BIN or "
      "ProcessOptions::worker_binary)");
}

// ------------------------------------------------------- process handle

ProcessWorkerHandle::ProcessWorkerHandle(uint32_t index, std::string binary,
                                         std::vector<uint8_t> init_blob,
                                         SidecarFabric* fabric,
                                         ProcessOptions options,
                                         ProcessStats* stats,
                                         size_t memory_budget)
    : index_(index),
      binary_(std::move(binary)),
      init_blob_(std::move(init_blob)),
      fabric_(fabric),
      options_(options),
      stats_(stats),
      memory_budget_(memory_budget),
      query_tracker_("worker-" + std::to_string(index) + "-query",
                     memory_budget) {
  try {
    Spawn(/*is_respawn=*/false);
    CtrlFrame init;
    init.type = CtrlType::kCommand;
    init.command = WorkerCommand::kInit;
    init.payload = init_blob_;
    CtrlFrame response = SendAndAwait(init);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
  } catch (const ChildFailure& failure) {
    ReapChild();
    throw util::WorkerLost(index_, "failed to start worker process: " +
                                       failure.reason);
  }
}

ProcessWorkerHandle::~ProcessWorkerHandle() {
  try {
    Shutdown();
  } catch (...) {
    // Destructors never throw; Shutdown's SIGKILL fallback already
    // guarantees the child is gone.
  }
}

// ------------------------------------------------------------- lifecycle

void ProcessWorkerHandle::Spawn(bool is_respawn) {
  // A fresh channel is a fresh stream: a predecessor killed mid-write
  // leaves a partial frame in rx_, and any stale byte would desync the new
  // child's hello into protocol garbage.
  rx_.clear();
  staged_.clear();
  // SOCK_CLOEXEC atomically: handles spawn concurrently (parallel Setup,
  // inline recovery under pool threads), and a sibling fork between
  // socketpair and a later fcntl would inherit both ends — a leaked child
  // write end would keep this channel from ever delivering EOF, blinding
  // death detection. The child re-enables its own end before exec.
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed: " +
                             std::string(strerror(errno)));
  }
  // Build every argv string before fork: the controller is multithreaded,
  // and allocating between fork and exec can deadlock on a malloc lock
  // another thread held at fork time.
  std::string arg_fd = "--control_fd=" + std::to_string(sv[1]);
  std::string arg_worker = "--worker=" + std::to_string(index_);
  std::string arg_heartbeat =
      "--heartbeat_ms=" + std::to_string(options_.heartbeat_interval_ms);
  char* argv[5];
  argv[0] = const_cast<char*>(binary_.c_str());
  argv[1] = const_cast<char*>(arg_fd.c_str());
  argv[2] = const_cast<char*>(arg_worker.c_str());
  argv[3] = const_cast<char*>(arg_heartbeat.c_str());
  argv[4] = nullptr;

  pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    throw std::runtime_error("fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    close(sv[0]);
    fcntl(sv[1], F_SETFD, 0);  // the control fd must survive the exec
    execv(binary_.c_str(), argv);
    _exit(127);
  }
  close(sv[1]);
  fcntl(sv[0], F_SETFL, O_NONBLOCK);
  fd_ = sv[0];
  pid_ = pid;
  spawned_pids_.push_back(pid);
  stats_->spawns.fetch_add(1, std::memory_order_relaxed);
  if (is_respawn) stats_->respawns.fetch_add(1, std::memory_order_relaxed);
  AwaitHello();
}

void ProcessWorkerHandle::ReapChild() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  if (pid_ < 0) return;
  int status = 0;
  pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == 0) {
    // Still running (hang-kill in flight, or the death was an EOF from an
    // exit not yet visible). SIGKILL is idempotent; reap synchronously.
    kill(pid_, SIGKILL);
    stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
    r = waitpid(pid_, &status, 0);
  }
  if (r == pid_) {
    stats_->reaps.fetch_add(1, std::memory_order_relaxed);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      stats_->exits_clean.fetch_add(1, std::memory_order_relaxed);
    }
  }
  pid_ = -1;
}

void ProcessWorkerHandle::KillChild() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
}

void ProcessWorkerHandle::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (pid_ < 0) return;
  int64_t grace = options_.shutdown_grace_ms;
  if (fd_ >= 0) {
    // Best-effort graceful path: flush with a drain echo, then ask the
    // child to exit. Any failure just advances the escalation ladder.
    try {
      CtrlFrame drain;
      drain.type = CtrlType::kDrain;
      WriteFrame(drain);
      int64_t deadline = NowMs() + grace;
      while (NowMs() < deadline) {
        struct pollfd pfd = {fd_, POLLIN, 0};
        int timeout = static_cast<int>(deadline - NowMs());
        if (poll(&pfd, 1, timeout < 0 ? 0 : timeout) <= 0) break;
        uint8_t buf[4096];
        ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0) break;
        rx_.insert(rx_.end(), buf, buf + n);
        bool drained = false;
        std::vector<uint8_t> payload;
        while (TakeRxFrame(&payload)) {
          CtrlFrame frame = DecodeCtrlFrame(payload);
          if (frame.type == CtrlType::kDrain) {
            drained = true;
            break;
          }
        }
        if (drained) break;
      }
      CtrlFrame shutdown;
      shutdown.type = CtrlType::kShutdown;
      WriteFrame(shutdown);
    } catch (...) {
      // Fall through to the signal ladder.
    }
  }
  // Wait for a clean exit, then escalate SIGTERM -> SIGKILL. waitpid always
  // runs, so no zombie survives regardless of how the child went down.
  int status = 0;
  auto wait_until = [&](int64_t deadline) {
    while (NowMs() < deadline) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) return true;
      struct timespec ts = {0, 2 * 1000 * 1000};
      nanosleep(&ts, nullptr);
    }
    return false;
  };
  bool reaped = wait_until(NowMs() + grace);
  if (!reaped) {
    kill(pid_, SIGTERM);
    reaped = wait_until(NowMs() + grace);
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    stats_->sigkills.fetch_add(1, std::memory_order_relaxed);
    waitpid(pid_, &status, 0);
  }
  stats_->reaps.fetch_add(1, std::memory_order_relaxed);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    stats_->exits_clean.fetch_add(1, std::memory_order_relaxed);
  }
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  pid_ = -1;
}

// ------------------------------------------------------------ stream I/O

bool ProcessWorkerHandle::TakeRxFrame(std::vector<uint8_t>* payload) {
  if (rx_.size() < 4) return false;
  uint32_t len = static_cast<uint32_t>(rx_[0]) |
                 static_cast<uint32_t>(rx_[1]) << 8 |
                 static_cast<uint32_t>(rx_[2]) << 16 |
                 static_cast<uint32_t>(rx_[3]) << 24;
  if (len > kMaxFramePayload) {
    throw util::WireFormatError("control frame length is absurd");
  }
  if (rx_.size() < 4 + static_cast<size_t>(len)) return false;
  payload->assign(rx_.begin() + 4, rx_.begin() + 4 + len);
  rx_.erase(rx_.begin(), rx_.begin() + 4 + len);
  return true;
}

void ProcessWorkerHandle::WriteFrame(const CtrlFrame& frame) {
  std::vector<uint8_t> payload = EncodeCtrlFrame(frame);
  std::vector<uint8_t> wire;
  wire.reserve(4 + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  wire.push_back(static_cast<uint8_t>(len));
  wire.push_back(static_cast<uint8_t>(len >> 8));
  wire.push_back(static_cast<uint8_t>(len >> 16));
  wire.push_back(static_cast<uint8_t>(len >> 24));
  wire.insert(wire.end(), payload.begin(), payload.end());

  // Non-blocking send with a bounded wait: a SIGSTOPped child stops
  // reading, the socket buffer fills, and an unbounded blocking write
  // would wedge the controller — the exact failure mode this harness
  // exists to bound.
  size_t sent = 0;
  int64_t deadline = NowMs() + options_.hang_kill_ms;
  while (sent < wire.size()) {
    ssize_t n = send(fd_, wire.data() + sent, wire.size() - sent,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      // EPIPE/ECONNRESET here is how a SIGKILLed child usually announces
      // itself: the very next command hits the broken pipe.
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      throw ChildFailure{"control channel write failed: " +
                         std::string(strerror(errno))};
    }
    if (NowMs() >= deadline) {
      stats_->hang_kills.fetch_add(1, std::memory_order_relaxed);
      KillChild();
      throw ChildFailure{"worker stopped reading its control channel"};
    }
    struct pollfd pfd = {fd_, POLLOUT, 0};
    poll(&pfd, 1, 10);
  }
}

CtrlFrame ProcessWorkerHandle::AwaitFrame() {
  int64_t last_activity = NowMs();
  bool warned = false;
  for (;;) {
    std::vector<uint8_t> payload;
    while (TakeRxFrame(&payload)) {
      CtrlFrame frame = DecodeCtrlFrame(payload);
      if (frame.type == CtrlType::kHeartbeat) {
        stats_->heartbeats.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (frame.type == CtrlType::kHello) continue;
      return frame;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int r = poll(&pfd, 1, 10);
    if (r > 0) {
      uint8_t buf[65536];
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rx_.insert(rx_.end(), buf, buf + n);
        last_activity = NowMs();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      // EOF or a hard error: the child is gone.
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      throw ChildFailure{"worker process closed its control channel"};
    }
    // Quiet tick: check for death without EOF, then walk the hang ladder.
    int status = 0;
    if (pid_ >= 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      stats_->reaps.fetch_add(1, std::memory_order_relaxed);
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      pid_ = -1;
      throw ChildFailure{"worker process exited mid-command"};
    }
    int64_t idle = NowMs() - last_activity;
    if (!warned && idle > options_.hang_warn_ms) {
      warned = true;
      stats_->hang_warnings.fetch_add(1, std::memory_order_relaxed);
    }
    if (idle > options_.hang_kill_ms) {
      stats_->hang_kills.fetch_add(1, std::memory_order_relaxed);
      stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
      KillChild();
      throw ChildFailure{"worker missed its heartbeat deadline (hung)"};
    }
  }
}

void ProcessWorkerHandle::AwaitHello() {
  int64_t deadline = NowMs() + options_.hang_kill_ms + 10000;
  for (;;) {
    std::vector<uint8_t> payload;
    bool have = false;
    try {
      have = TakeRxFrame(&payload);
    } catch (const util::WireFormatError& e) {
      throw ChildFailure{e.what()};
    }
    if (have) {
      CtrlFrame frame;
      try {
        frame = DecodeCtrlFrame(payload);
      } catch (const util::WireFormatError& e) {
        // Same policy as SendAndAwait: protocol garbage means an
        // arbitrarily misbehaving child, never an escaping decode error.
        KillChild();
        throw ChildFailure{std::string("control protocol corrupted: ") +
                           e.what()};
      }
      if (frame.type == CtrlType::kHello) {
        if (frame.protocol != kCtrlProtocolVersion) {
          throw ChildFailure{"worker spoke protocol version " +
                             std::to_string(frame.protocol)};
        }
        if (frame.worker != index_) {
          throw ChildFailure{"worker hello carried the wrong index"};
        }
        return;
      }
      continue;  // stray heartbeat before the hello
    }
    if (NowMs() >= deadline) {
      KillChild();
      throw ChildFailure{"worker never said hello"};
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    if (poll(&pfd, 1, 20) > 0) {
      uint8_t buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        rx_.insert(rx_.end(), buf, buf + n);
      } else if (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        throw ChildFailure{"worker process died before hello (exec failure "
                           "or crash at startup)"};
      }
    }
  }
}

// -------------------------------------------------------- command plumbing

CtrlFrame ProcessWorkerHandle::SendAndAwait(const CtrlFrame& frame) {
  staged_.clear();
  try {
    WriteFrame(frame);
    for (;;) {
      CtrlFrame incoming = AwaitFrame();
      if (incoming.type == CtrlType::kData) {
        // Stage: committed into the fabric only after the ok response, so
        // a mid-command death cannot leave half a round in flight.
        staged_.push_back(DecodeMessage(incoming.payload));
        continue;
      }
      if (incoming.type == CtrlType::kResponse ||
          incoming.type == CtrlType::kCheckpointAck) {
        if (incoming.command != frame.command) {
          throw util::WireFormatError(
              "control response for a different command");
        }
        if (incoming.status == CtrlStatus::kOk) AbsorbMetrics(incoming);
        return incoming;
      }
      if (incoming.type == CtrlType::kDrain) continue;
      throw util::WireFormatError("unexpected control frame type");
    }
  } catch (const util::WireFormatError& e) {
    // Protocol corruption is indistinguishable from an arbitrarily
    // misbehaving child: kill it and let recovery take over.
    stats_->deaths_detected.fetch_add(1, std::memory_order_relaxed);
    KillChild();
    throw ChildFailure{std::string("control protocol corrupted: ") +
                       e.what()};
  }
}

void ProcessWorkerHandle::AbsorbMetrics(const CtrlFrame& response) {
  last_phase_seconds_ = response.phase_seconds;
  live_bytes_ = response.live_bytes;
  peak_bytes_ = response.peak_bytes;
  cache_stats_.hits = response.cache_hits;
  cache_stats_.misses = response.cache_misses;
  cache_stats_.evictions = response.cache_evictions;
}

void ProcessWorkerHandle::CommitStaged() {
  // Arrival order: the child drained its private fabric per destination in
  // order, and DeliverBatch is arrival-order-insensitive anyway.
  for (Message& message : staged_) {
    fabric_->Send(index_, std::move(message));
  }
  staged_.clear();
}

void ProcessWorkerHandle::ThrowResponseError(const CtrlFrame& response) {
  std::string detail(response.payload.begin(), response.payload.end());
  switch (response.status) {
    case CtrlStatus::kOom: {
      std::string domain;
      uint64_t requested = 0;
      uint64_t budget = 0;
      DecodeOomError(response.payload, &domain, &requested, &budget);
      throw util::SimulatedOom(domain, requested, budget);
    }
    case CtrlStatus::kTimeout:
      throw util::SimulatedTimeout("worker " + std::to_string(index_) +
                                   ": " + detail);
    case CtrlStatus::kStorageError:
      throw util::StorageError("worker " + std::to_string(index_) + ": " +
                               detail);
    default:
      throw std::runtime_error("worker " + std::to_string(index_) +
                               " reported: " + detail);
  }
}

CtrlFrame ProcessWorkerHandle::RoundTrip(const CtrlFrame& frame,
                                         bool reissue) {
  for (;;) {
    try {
      CtrlFrame response = SendAndAwait(frame);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      CommitStaged();
      return response;
    } catch (const ChildFailure& failure) {
      staged_.clear();
      RecoverInline(failure.reason, /*to_round_override=*/-1);
      if (!reissue) return CtrlFrame{};
    }
  }
}

// --------------------------------------------------------------- recovery

void ProcessWorkerHandle::RecoverInline(const std::string& reason,
                                        int to_round_override) {
  std::string why = reason;
  for (;;) {
    ReapChild();
    if (++respawns_used_ > options_.max_respawns) {
      lost_ = true;
      throw util::WorkerLost(index_, why + " (respawn budget of " +
                                         std::to_string(options_.max_respawns) +
                                         " exhausted)");
    }
    try {
      Spawn(/*is_respawn=*/true);
      CtrlFrame init;
      init.type = CtrlType::kCommand;
      init.command = WorkerCommand::kInit;
      init.payload = init_blob_;
      CtrlFrame response = SendAndAwait(init);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      if (mirror_valid_) {
        int to_round = to_round_override >= 0 ? to_round_override
                                              : fabric_->CurrentRound();
        ShipRestore(mirror_, to_round, fabric_->ReplayLog(index_));
      }
      ReplayJournal();
      staged_.clear();
      ++recoveries_;
      return;
    } catch (const ChildFailure& next) {
      why = next.reason;
    }
  }
}

void ProcessWorkerHandle::ShipRestore(
    const fault::WorkerCheckpoint& checkpoint, int to_round,
    const std::vector<fault::LoggedDelivery>& log) {
  WorkerRestoreSpec spec;
  spec.shard_index = checkpoint.shard;
  spec.to_round = to_round;
  spec.checkpoint = fault::EncodeWorkerCheckpoint(checkpoint);
  for (const auto& [key, bytes] : spills_) {
    spec.spills.push_back(SpillBlob{key.first, key.second, bytes});
  }
  spec.log = log;
  CtrlFrame restore;
  restore.type = CtrlType::kCommand;
  restore.command = WorkerCommand::kRestore;
  restore.payload = EncodeWorkerRestoreSpec(spec);
  CtrlFrame response = SendAndAwait(restore);
  if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
  has_data_plane_ = checkpoint.has_data_plane;
  staged_.clear();
}

void ProcessWorkerHandle::ReplayJournal() {
  for (const JournalEntry& entry : journal_) {
    if (entry.command == WorkerCommand::kBuildDataPlane && mirror_valid_ &&
        mirror_.has_data_plane) {
      // RestoreDataPlane already rebuilt the engines from checkpointed
      // predicate bytes; a recompute would be wasted (and, for a hybrid
      // build, wrong).
      continue;
    }
    CtrlFrame frame;
    frame.type = CtrlType::kCommand;
    frame.command = entry.command;
    frame.shard = entry.shard;
    CtrlFrame response = SendAndAwait(frame);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
    if (entry.command == WorkerCommand::kSpillBgp) {
      // Refresh the blob cache; the route count was already credited by
      // the original spill.
      for (SpillBlob& blob : DecodeSpillBlobs(response.payload)) {
        spills_[{blob.shard, blob.node}] = std::move(blob.bytes);
      }
    }
    if (entry.command == WorkerCommand::kBuildDataPlane) {
      has_data_plane_ = true;
    }
    // Journal commands ship no fabric traffic; anything staged would be a
    // duplicate of already-committed messages.
    staged_.clear();
  }
}

void ProcessWorkerHandle::Journal(WorkerCommand command, int32_t shard) {
  journal_.push_back(JournalEntry{command, shard});
}

// --------------------------------------------------------- WorkerHandle

void ProcessWorkerHandle::BeginOspf() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBeginOspf;
  RoundTrip(frame);
  Journal(WorkerCommand::kBeginOspf, -1);
}

void ProcessWorkerHandle::FinishOspf() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kFinishOspf;
  RoundTrip(frame);
  Journal(WorkerCommand::kFinishOspf, -1);
}

void ProcessWorkerHandle::BeginBgp(const cp::PrefixSet* /*shard*/,
                                   int shard_index) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBeginBgp;
  frame.shard = shard_index;
  RoundTrip(frame);
  Journal(WorkerCommand::kBeginBgp, shard_index);
}

bool ProcessWorkerHandle::ComputeAndShip() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kComputeAndShip;
  CtrlFrame response = RoundTrip(frame);
  return response.flag != 0;
}

void ProcessWorkerHandle::Deliver() {
  // Sample the round BEFORE draining: the drain is what logs this batch,
  // and it logs under the pre-drain round.
  int batch_round = fabric_->CurrentRound();
  std::vector<Message> batch = fabric_->Drain(index_);
  try {
    for (const Message& message : batch) {
      CtrlFrame data;
      data.type = CtrlType::kDeliver;
      EncodeMessage(message, data.payload);
      WriteFrame(data);
    }
    CtrlFrame command;
    command.type = CtrlType::kCommand;
    command.command = WorkerCommand::kDeliver;
    command.round = batch_round;
    command.count = static_cast<uint32_t>(batch.size());
    CtrlFrame response = SendAndAwait(command);
    if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
    staged_.clear();
  } catch (const ChildFailure& failure) {
    // The batch was drained, so it is in the replay log under batch_round;
    // recovering to batch_round + 1 replays it. Re-issuing the command
    // would deliver it twice.
    staged_.clear();
    RecoverInline(failure.reason, batch_round + 1);
  }
}

void ProcessWorkerHandle::SpillBgp(cp::RibStore& /*store*/, int shard) {
  // The authoritative spill bytes live in the child's own store; the
  // controller-side store is bypassed (TotalBestRoutes sums the handles'
  // counts instead of its routes_written).
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kSpillBgp;
  frame.shard = shard;
  CtrlFrame response = RoundTrip(frame);
  for (SpillBlob& blob : DecodeSpillBlobs(response.payload)) {
    spills_[{blob.shard, blob.node}] = std::move(blob.bytes);
  }
  spilled_routes_ += response.aux;
  Journal(WorkerCommand::kSpillBgp, shard);
}

void ProcessWorkerHandle::RetainBgp() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kRetainBgp;
  RoundTrip(frame);
  Journal(WorkerCommand::kRetainBgp, -1);
}

void ProcessWorkerHandle::BuildDataPlane(const cp::RibStore* /*store*/) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kBuildDataPlane;
  RoundTrip(frame);
  has_data_plane_ = true;
  Journal(WorkerCommand::kBuildDataPlane, -1);
}

std::map<topo::NodeId, std::vector<uint8_t>>
ProcessWorkerHandle::SnapshotPredicates() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kSnapshotPredicates;
  CtrlFrame response = RoundTrip(frame);
  return DecodeNodeBlobMap(response.payload);
}

fault::WorkerCheckpoint ProcessWorkerHandle::Checkpoint(int shard) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kCheckpoint;
  frame.shard = shard;
  CtrlFrame response = RoundTrip(frame);
  fault::WorkerCheckpoint fresh =
      fault::DecodeWorkerCheckpoint(response.payload);
  // Mirror Controller::CheckpointWorkers' merge: CP checkpoints never
  // invalidate a data-plane snapshot, and the fabric round is stamped at
  // the barrier. The mirror is what inline recovery restores from, so it
  // must stay byte-equal to the controller's copy.
  fresh.has_data_plane = mirror_valid_ && mirror_.has_data_plane;
  if (fresh.has_data_plane) {
    fresh.predicate_state = mirror_.predicate_state;
    fresh.fib_bytes = mirror_.fib_bytes;
  }
  fresh.fabric_round = fabric_->CurrentRound();
  mirror_ = fresh;
  mirror_valid_ = true;
  // A full checkpoint captures everything the journal was protecting.
  journal_.clear();
  return fresh;
}

void ProcessWorkerHandle::CheckpointDataPlane(
    fault::WorkerCheckpoint& checkpoint) {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kCheckpointDataPlane;
  CtrlFrame response = RoundTrip(frame);
  fault::WorkerCheckpoint dp = fault::DecodeWorkerCheckpoint(response.payload);
  checkpoint.has_data_plane = true;
  checkpoint.predicate_state = dp.predicate_state;
  checkpoint.fib_bytes = dp.fib_bytes;
  if (mirror_valid_) {
    mirror_.has_data_plane = true;
    mirror_.predicate_state = std::move(dp.predicate_state);
    mirror_.fib_bytes = dp.fib_bytes;
  }
}

void ProcessWorkerHandle::Recover(
    const fault::WorkerCheckpoint& checkpoint, const cp::PrefixSet* /*shard*/,
    int to_round, const std::vector<fault::LoggedDelivery>& log) {
  // A scheduled fault (or a test) wants this worker dead and rebuilt: kill
  // the healthy child for real. Explicit recoveries are counted by the
  // controller and do not consume the liveness respawn budget.
  KillChild();
  ReapChild();
  for (;;) {
    try {
      Spawn(/*is_respawn=*/true);
      CtrlFrame init;
      init.type = CtrlType::kCommand;
      init.command = WorkerCommand::kInit;
      init.payload = init_blob_;
      CtrlFrame response = SendAndAwait(init);
      if (response.status != CtrlStatus::kOk) ThrowResponseError(response);
      mirror_ = checkpoint;
      mirror_valid_ = true;
      ShipRestore(checkpoint, to_round, log);
      ReplayJournal();
      staged_.clear();
      return;
    } catch (const ChildFailure& failure) {
      ReapChild();
      if (++respawns_used_ > options_.max_respawns) {
        lost_ = true;
        throw util::WorkerLost(index_, failure.reason +
                                           " (respawn budget exhausted)");
      }
    }
  }
}

// ---------------------------------------------------------------- metrics

size_t ProcessWorkerHandle::peak_bytes() const {
  return std::max<size_t>(peak_bytes_, query_tracker_.peak_bytes());
}

void ProcessWorkerHandle::ResetPeak() {
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kResetPeak;
  RoundTrip(frame);
  query_tracker_.ResetPeak();
}

double ProcessWorkerHandle::gc_pressure() const {
  if (memory_budget_ == 0) return 0;
  return static_cast<double>(live_bytes_) /
         static_cast<double>(memory_budget_);
}

size_t ProcessWorkerHandle::CountBestRoutes() const {
  // Sharded runs: converged routes were spilled (and counted) shard by
  // shard; the retained-RIB count below would read back zero.
  if (spilled_routes_ > 0) return spilled_routes_;
  // A lost worker (respawn budget exhausted) keeps its cached count: the
  // run already failed with WorkerLost, and metric collection on the way
  // out must not try to respawn it again.
  if (lost_ || shut_down_) return spilled_routes_;
  CtrlFrame frame;
  frame.type = CtrlType::kCommand;
  frame.command = WorkerCommand::kCountRoutes;
  CtrlFrame response =
      const_cast<ProcessWorkerHandle*>(this)->RoundTrip(frame);
  return response.aux;
}

}  // namespace s2::dist
