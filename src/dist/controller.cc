#include "dist/controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "dp/predicates.h"
#include "obs/trace.h"

namespace s2::dist {

Controller::Controller(config::ParsedNetwork network,
                       ControllerOptions options)
    : network_(std::move(network)), options_(options) {}

Controller::~Controller() = default;

void Controller::Setup() {
  obs::Span span("controller", "controller.partition");
  // Resolve the header layout against the network's address families up
  // front: every manager/codec below (workers, gather, snapshots)
  // must agree on variable numbering.
  options_.layout = dp::LayoutForNetwork(network_, options_.layout);
  span.Arg("workers", options_.num_workers);
  span.Arg("shards", options_.num_shards);
  partition_ = topo::Partition(network_.graph, options_.num_workers,
                               options_.scheme, options_.seed);
  fabric_ = std::make_unique<SidecarFabric>(options_.num_workers,
                                            partition_.assignment);
  if (options_.fault_plan) {
    injector_ = std::make_unique<fault::FaultInjector>(*options_.fault_plan);
  }
  const bool process = options_.worker_mode == WorkerMode::kProcess;
  if (injector_ != nullptr || options_.reliable_delivery || process) {
    static const fault::FaultPlan kDefaultTuning;
    // Process mode always keeps the replay log: recovery from a real
    // worker death needs the lost rounds' deliveries whether or not a
    // fault plan scheduled the death.
    fabric_->EnableReliableDelivery(
        injector_ ? injector_->plan() : kDefaultTuning, injector_.get(),
        /*keep_replay_log=*/injector_ != nullptr || process);
  }

  size_t threads = options_.pool_threads;
  if (threads == 0) {
    threads = std::min<size_t>(options_.num_workers,
                               std::max(1u,
                                        std::thread::hardware_concurrency()));
  }
  pool_ = std::make_unique<util::ThreadPool>(threads);

  worker_options_.memory_budget = options_.worker_memory_budget;
  worker_options_.max_bdd_nodes = options_.max_bdd_nodes;
  worker_options_.layout = options_.layout;
  worker_options_.max_hops = options_.max_hops;
  handles_.clear();
  if (process) {
    if (network_.source_texts.empty()) {
      throw std::runtime_error(
          "worker_mode=process needs the raw config texts "
          "(ParsedNetwork::source_texts) so worker processes can re-parse "
          "the network; programmatically assembled networks must run "
          "in_process");
    }
    process_stats_ = std::make_unique<ProcessStats>();
    std::string binary =
        LocateWorkerBinary(options_.process_options.worker_binary);
    WorkerInitSpec spec;
    spec.num_workers = options_.num_workers;
    spec.memory_budget = options_.worker_memory_budget;
    spec.max_bdd_nodes = options_.max_bdd_nodes;
    spec.layout_dst_bits = options_.layout.dst_bits;
    spec.layout_src_bits = options_.layout.src_bits;
    spec.layout_meta_bits = options_.layout.meta_bits;
    spec.layout_family_bits = options_.layout.family_bits;
    spec.max_hops = options_.max_hops;
    spec.num_shards = options_.num_shards;
    spec.seed = options_.seed;
    spec.heartbeat_interval_ms = static_cast<uint32_t>(
        std::max(1, options_.process_options.heartbeat_interval_ms));
    spec.assignment = partition_.assignment;
    spec.config_texts = network_.source_texts;
    // Spawn in parallel: each construction is a fork/exec plus a blocking
    // hello + init round trip (the child re-parses every config), so a
    // sequential loop would serialize ~all of process-mode startup.
    handles_.resize(options_.num_workers);
    try {
      pool_->ParallelFor(options_.num_workers, [&](size_t w) {
        WorkerInitSpec local = spec;
        local.index = static_cast<uint32_t>(w);
        handles_[w] = std::make_unique<ProcessWorkerHandle>(
            static_cast<uint32_t>(w), binary, EncodeWorkerInitSpec(local),
            fabric_.get(), options_.process_options, process_stats_.get(),
            options_.worker_memory_budget);
      });
    } catch (...) {
      // A failed spawn leaves null slots; metric reads on the abort path
      // iterate handles_, so drop them before the exception escapes.
      handles_.erase(std::remove(handles_.begin(), handles_.end(), nullptr),
                     handles_.end());
      throw;
    }
  } else {
    for (uint32_t w = 0; w < options_.num_workers; ++w) {
      handles_.push_back(std::make_unique<LocalWorkerHandle>(
          w, network_, fabric_.get(), worker_options_));
    }
  }
  checkpoints_.assign(options_.num_workers, fault::WorkerCheckpoint{});

  FaultHooks hooks;
  if (injector_ != nullptr) {
    hooks.injector = injector_.get();
    hooks.checkpoint_interval = injector_->plan().checkpoint_interval;
  } else if (process) {
    // No fault plan, but real faults can still happen: checkpoint every
    // few rounds so inline recovery has a fresh restore point.
    hooks.checkpoint_interval = 4;
  }
  if (injector_ != nullptr || process) {
    hooks.checkpoint = [this](int shard) { CheckpointWorkers(shard); };
    hooks.recover = [this](uint32_t w) { RecoverWorker(w); };
  }
  cpo_ = std::make_unique<Cpo>(&handles_, fabric_.get(), pool_.get(),
                               options_.cost, options_.max_rounds,
                               std::move(hooks));
  dpo_ = std::make_unique<Dpo>(&handles_, fabric_.get(), pool_.get(),
                               options_.cost, worker_options_);

  if (options_.num_shards > 0) {
    plan_ = cp::BuildShardPlan(network_, options_.num_shards,
                               options_.seed);
    // §7 fallback: a freshly built plan is already dependency-closed, but
    // repair defensively so externally cached/edited plans can't split
    // dependent prefixes.
    cp::RepairShardPlan(network_, *plan_);
    store_ = std::make_shared<cp::RibStore>();
  }

  gather_manager_ =
      std::make_unique<bdd::Manager>(options_.layout.total_bits());
}

RoundMetrics Controller::RunControlPlane() {
  obs::Span span("controller", "controller.control_plane");
  bool any_ospf = false;
  for (const config::ViConfig& config : network_.configs) {
    any_ospf = any_ospf || config.ospf.enabled;
  }
  RoundMetrics metrics =
      cpo_->Run(any_ospf, plan_ ? &*plan_ : nullptr, store_.get());
  // Final snapshot of the converged (idle) control plane: crashes fired
  // during the data-plane phase recover from here.
  if (injector_ != nullptr ||
      options_.worker_mode == WorkerMode::kProcess) {
    CheckpointWorkers(-1);
  }
  return metrics;
}

void Controller::OverrideShardPlan(cp::ShardPlan plan,
                                   std::shared_ptr<cp::RibStore> store) {
  if (options_.worker_mode == WorkerMode::kProcess) {
    throw std::logic_error(
        "OverrideShardPlan: incremental what-if needs in-process workers "
        "(worker processes derive their shard plan from the init spec)");
  }
  plan_ = std::move(plan);
  store_ = std::move(store);
}

RoundMetrics Controller::BuildDataPlanes() {
  obs::Span span("controller", "controller.dp_build");
  RoundMetrics metrics = dpo_->BuildDataPlanes(store_.get());
  if (injector_ != nullptr ||
      options_.worker_mode == WorkerMode::kProcess) {
    for (uint32_t w = 0; w < handles_.size(); ++w) {
      handles_[w]->CheckpointDataPlane(checkpoints_[w]);
      fabric_->MarkCheckpoint(w);
    }
  }
  if (injector_ != nullptr) {
    for (uint32_t w : injector_->TakeCrashes(fault::CrashPhase::kDataPlaneBuild,
                                             /*round=*/0)) {
      RecoverWorker(w);
    }
  }
  return metrics;
}

RoundMetrics Controller::BuildDataPlanesHybrid(
    const std::unordered_set<topo::NodeId>& rebuild,
    const Worker::ReusableDataPlane& reuse) {
  if (options_.worker_mode == WorkerMode::kProcess) {
    throw std::logic_error(
        "BuildDataPlanesHybrid: incremental what-if needs in-process "
        "workers");
  }
  obs::Span span("controller", "controller.dp_build");
  RoundMetrics metrics =
      dpo_->BuildDataPlanesHybrid(store_.get(), rebuild, reuse);
  if (injector_ != nullptr) {
    for (uint32_t w = 0; w < handles_.size(); ++w) {
      handles_[w]->CheckpointDataPlane(checkpoints_[w]);
      fabric_->MarkCheckpoint(w);
    }
    for (uint32_t w : injector_->TakeCrashes(fault::CrashPhase::kDataPlaneBuild,
                                             /*round=*/0)) {
      RecoverWorker(w);
    }
  }
  return metrics;
}

Controller::QueryOutcome Controller::RunQuery(const dp::Query& query) {
  if (options_.worker_mode == WorkerMode::kProcess) {
    // Queries evaluate controller-side over gathered predicate state
    // (Dpo::RunQueries) — the per-worker forwarding walk lives in the
    // child processes, which don't ship per-packet traversal. The
    // multi-query path already works handle-free.
    MultiQueryOutcome multi = RunQueries({query});
    return std::move(multi.outcomes.front());
  }
  obs::Span span("controller", "controller.query");
  dp::PacketCodec gather_codec(gather_manager_.get(), options_.layout);
  Dpo::QueryRun run = dpo_->RunQuery(query, gather_codec);
  QueryOutcome outcome;
  outcome.metrics = run.metrics;
  outcome.gather_bytes = run.gather_bytes;
  outcome.forwarding_steps = run.forwarding_steps;
  outcome.result =
      dp::EvaluateQuery(query, gather_codec, run.finals, network_);
  // Queries mutate no durable worker state; truncating the replay logs at
  // the query barrier keeps them from growing across a query sweep.
  if (injector_ != nullptr) {
    for (uint32_t w = 0; w < handles_.size(); ++w) {
      checkpoints_[w].fabric_round = fabric_->CurrentRound();
      fabric_->MarkCheckpoint(w);
    }
  }
  return outcome;
}

Controller::MultiQueryOutcome Controller::RunQueries(
    const std::vector<dp::Query>& queries) {
  obs::Span span("controller", "controller.query");
  span.Arg("queries", static_cast<int64_t>(queries.size()));
  dp::PacketCodec gather_codec(gather_manager_.get(), options_.layout);
  size_t lanes = options_.query_lanes;
  if (lanes == 0) lanes = std::min<size_t>(queries.size(), 8);
  Dpo::MultiQueryRun multi = dpo_->RunQueries(queries, gather_codec, lanes);
  MultiQueryOutcome outcome;
  outcome.aggregate = multi.aggregate;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOutcome one;
    one.metrics = multi.runs[q].metrics;
    one.gather_bytes = multi.runs[q].gather_bytes;
    one.forwarding_steps = multi.runs[q].forwarding_steps;
    one.result = dp::EvaluateQuery(queries[q], gather_codec,
                                   multi.runs[q].finals, network_);
    outcome.outcomes.push_back(std::move(one));
  }
  return outcome;
}

// ------------------------------------------------------- fault tolerance

void Controller::CheckpointWorkers(int shard) {
  // Workers snapshot independently, and in process mode each snapshot is
  // a control-channel round trip: take them in parallel.
  pool_->ParallelFor(handles_.size(), [&](size_t w) {
    bool had_data_plane = checkpoints_[w].has_data_plane;
    auto predicates = std::move(checkpoints_[w].predicate_state);
    size_t fib_bytes = checkpoints_[w].fib_bytes;
    checkpoints_[w] = handles_[w]->Checkpoint(shard);
    // Control-plane checkpoints never invalidate a data-plane snapshot —
    // the engines are untouched by CP rounds.
    checkpoints_[w].has_data_plane = had_data_plane;
    checkpoints_[w].predicate_state = std::move(predicates);
    checkpoints_[w].fib_bytes = fib_bytes;
    checkpoints_[w].fabric_round = fabric_->CurrentRound();
    fabric_->MarkCheckpoint(static_cast<uint32_t>(w));
  });
}

void Controller::RecoverWorker(uint32_t w) {
  const fault::WorkerCheckpoint& checkpoint = checkpoints_[w];
  std::vector<fault::LoggedDelivery> log = fabric_->ReplayLog(w);
  const cp::PrefixSet* shard =
      (checkpoint.shard >= 0 && plan_) ? &plan_->shard(checkpoint.shard)
                                       : nullptr;
  handles_[w]->Recover(checkpoint, shard, fabric_->CurrentRound(), log);
  dpo_->DropSnapshots();
  ++worker_recoveries_;
}

size_t Controller::TotalBestRoutes() const {
  // In process mode the children spill into their own private stores; the
  // controller-side store_ sees no writes, so always ask the handles.
  if (store_ && options_.worker_mode == WorkerMode::kInProcess) {
    return store_->routes_written();
  }
  size_t total = 0;
  for (const auto& worker : handles_) total += worker->CountBestRoutes();
  return total;
}

size_t Controller::MaxWorkerPeakBytes() const {
  // Worker peaks are reset per shard round to attribute them; the CPO
  // remembers the highest one it saw.
  size_t peak = cpo_ ? cpo_->observed_peak() : 0;
  for (const auto& worker : handles_) {
    peak = std::max(peak, worker->peak_bytes());
  }
  return peak;
}

std::vector<size_t> Controller::WorkerPeakBytes() const {
  std::vector<size_t> peaks;
  peaks.reserve(handles_.size());
  for (const auto& worker : handles_) {
    peaks.push_back(worker->peak_bytes());
  }
  return peaks;
}

void Controller::PublishMetrics(obs::Registry& registry) const {
  registry.SetCounter("controller.num_workers",
                      static_cast<int64_t>(handles_.size()));
  registry.SetCounter("controller.worker_recoveries",
                      static_cast<int64_t>(worker_recoveries()));
  registry.SetCounter("mem.max_worker_peak_bytes",
                      static_cast<int64_t>(MaxWorkerPeakBytes()));
  std::vector<size_t> peaks = WorkerPeakBytes();
  for (size_t w = 0; w < peaks.size(); ++w) {
    std::string tag = ".w" + std::to_string(w);
    registry.SetCounter("mem.worker_peak_bytes" + tag,
                        static_cast<int64_t>(peaks[w]));
    if (fabric_) {
      registry.SetCounter("fabric.bytes_sent" + tag,
                          static_cast<int64_t>(fabric_->bytes_sent_by(w)));
      registry.SetCounter(
          "fabric.messages_sent" + tag,
          static_cast<int64_t>(fabric_->messages_sent_by(w)));
      registry.SetCounter(
          "fabric.max_queue_depth" + tag,
          static_cast<int64_t>(fabric_->max_queue_depth(w)));
    }
  }
  if (fabric_) {
    registry.SetCounter("fabric.total_bytes",
                        static_cast<int64_t>(fabric_->total_bytes()));
    if (fabric_->reliable()) {
      fault::ReliableTransport::Stats stats = fabric_->transport_stats();
      registry.SetCounter("transport.data_frames",
                          static_cast<int64_t>(stats.data_frames));
      registry.SetCounter("transport.retransmits",
                          static_cast<int64_t>(stats.retransmits));
      registry.SetCounter("transport.acks",
                          static_cast<int64_t>(stats.acks));
      registry.SetCounter("transport.wire_bytes",
                          static_cast<int64_t>(stats.wire_bytes));
      registry.SetCounter("transport.dropped",
                          static_cast<int64_t>(stats.dropped));
      registry.SetCounter("transport.duplicated",
                          static_cast<int64_t>(stats.duplicated));
      registry.SetCounter("transport.delayed",
                          static_cast<int64_t>(stats.delayed));
      registry.SetCounter("transport.reordered",
                          static_cast<int64_t>(stats.reordered));
      registry.SetCounter(
          "transport.duplicates_suppressed",
          static_cast<int64_t>(stats.duplicates_suppressed));
      registry.SetCounter("transport.out_of_order",
                          static_cast<int64_t>(stats.out_of_order));
    }
  }
  if (cpo_) {
    const std::vector<ShardMetrics>& shards = cpo_->shard_metrics();
    registry.SetCounter("cp.shards_run",
                        static_cast<int64_t>(shards.size()));
    for (size_t s = 0; s < shards.size(); ++s) {
      std::string prefix = "cp.shard." + std::to_string(s);
      registry.SetCounter(prefix + ".rounds",
                          static_cast<int64_t>(shards[s].rounds.rounds));
      registry.SetCounter(
          prefix + ".comm_bytes",
          static_cast<int64_t>(shards[s].rounds.comm_bytes));
      registry.SetGauge(prefix + ".modeled_seconds",
                        shards[s].rounds.modeled_seconds);
      registry.SetCounter(
          prefix + ".max_worker_peak_bytes",
          static_cast<int64_t>(shards[s].max_worker_peak));
    }
  }
  registry.SetLabel("controller.worker_mode",
                    WorkerModeName(options_.worker_mode));
  if (process_stats_ != nullptr) {
    const ProcessStats& ps = *process_stats_;
    registry.SetCounter("proc.spawns",
                        static_cast<int64_t>(ps.spawns.load()));
    registry.SetCounter("proc.respawns",
                        static_cast<int64_t>(ps.respawns.load()));
    registry.SetCounter("proc.exits_clean",
                        static_cast<int64_t>(ps.exits_clean.load()));
    registry.SetCounter("proc.sigkills",
                        static_cast<int64_t>(ps.sigkills.load()));
    registry.SetCounter("proc.reaps",
                        static_cast<int64_t>(ps.reaps.load()));
    registry.SetCounter("liveness.heartbeats",
                        static_cast<int64_t>(ps.heartbeats.load()));
    registry.SetCounter("liveness.hang_warnings",
                        static_cast<int64_t>(ps.hang_warnings.load()));
    registry.SetCounter("liveness.hang_kills",
                        static_cast<int64_t>(ps.hang_kills.load()));
    registry.SetCounter("liveness.deaths_detected",
                        static_cast<int64_t>(ps.deaths_detected.load()));
  }
  registry.SetCounter("routes.total_best",
                      static_cast<int64_t>(TotalBestRoutes()));

  // Attribute-pool counters, summed over worker interning domains. The
  // dedup ratio is hits/(hits+misses) over all Intern calls; wire savings
  // compare the packed attribute-table encoding against inline tuples.
  cp::AttrPool::Stats attr{};
  for (const auto& worker : handles_) {
    cp::AttrPool::Stats s = worker->attr_stats();
    attr.hits += s.hits;
    attr.misses += s.misses;
    attr.evictions += s.evictions;
    attr.live_entries += s.live_entries;
    attr.peak_entries += s.peak_entries;
    attr.shared_bytes += s.shared_bytes;
    attr.peak_shared_bytes += s.peak_shared_bytes;
    attr.wire_tuples_written += s.wire_tuples_written;
    attr.wire_tuples_reused += s.wire_tuples_reused;
    attr.wire_bytes_saved += s.wire_bytes_saved;
  }
  registry.SetCounter("attr.intern_hits", static_cast<int64_t>(attr.hits));
  registry.SetCounter("attr.intern_misses",
                      static_cast<int64_t>(attr.misses));
  registry.SetCounter("attr.evictions",
                      static_cast<int64_t>(attr.evictions));
  registry.SetCounter("attr.pool_live_entries",
                      static_cast<int64_t>(attr.live_entries));
  registry.SetCounter("attr.pool_peak_entries",
                      static_cast<int64_t>(attr.peak_entries));
  registry.SetCounter("attr.shared_peak_bytes",
                      static_cast<int64_t>(attr.peak_shared_bytes));
  registry.SetCounter("attr.wire_tuples_written",
                      static_cast<int64_t>(attr.wire_tuples_written));
  registry.SetCounter("attr.wire_tuples_reused",
                      static_cast<int64_t>(attr.wire_tuples_reused));
  registry.SetCounter("attr.wire_bytes_saved",
                      static_cast<int64_t>(attr.wire_bytes_saved));
  registry.SetGauge("attr.dedup_ratio", attr.DedupRatio());
}

}  // namespace s2::dist
