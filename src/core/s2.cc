#include "core/s2.h"

#include <fstream>

#include "core/report.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace s2::core {

VerifyResult S2Verifier::Verify(const std::vector<std::string>& config_texts,
                                const std::vector<dp::Query>& queries) {
  util::Stopwatch watch;
  config::ParsedNetwork network;
  {
    obs::Span span("controller", "controller.parse");
    span.Arg("configs", static_cast<int64_t>(config_texts.size()));
    network = config::ParseNetwork(config_texts);
  }
  double parse_seconds = watch.ElapsedSeconds();
  VerifyResult result = Verify(std::move(network), queries);
  result.parse_seconds = parse_seconds;
  return result;
}

VerifyResult S2Verifier::Verify(config::ParsedNetwork network,
                                const std::vector<dp::Query>& queries) {
  VerifyResult result;
  last_queries_ = queries;
  last_results_.clear();
  incremental_base_.reset();
  controller_ =
      std::make_unique<dist::Controller>(std::move(network), options_);
  try {
    util::Stopwatch watch;
    controller_->Setup();
    result.partition_seconds = watch.ElapsedSeconds();

    result.control_plane = controller_->RunControlPlane();
    if (queries.empty() && skip_data_plane_without_queries) {
      result.peak_memory_bytes = controller_->MaxWorkerPeakBytes();
      result.worker_peaks = controller_->WorkerPeakBytes();
      result.comm_bytes += controller_->TotalCommBytes();
      result.total_best_routes = controller_->TotalBestRoutes();
      if (controller_->fabric().reliable()) {
        fault::ReliableTransport::Stats stats =
            controller_->fabric().transport_stats();
        result.retransmits = stats.retransmits;
        result.frames_dropped = stats.dropped;
        result.duplicates_suppressed = stats.duplicates_suppressed;
        result.worker_recoveries = controller_->worker_recoveries();
      }
      return result;
    }
    result.dp_build = controller_->BuildDataPlanes();
    if (options_.query_lanes > 1 && queries.size() > 1) {
      // Query-level parallelism: all queries at once; dp_forward carries
      // the aggregate (modeled = LPT makespan over the query lanes).
      dist::Controller::MultiQueryOutcome multi =
          controller_->RunQueries(queries);
      result.dp_forward.Add(multi.aggregate);
      for (dist::Controller::QueryOutcome& outcome : multi.outcomes) {
        result.comm_bytes += outcome.metrics.comm_bytes + outcome.gather_bytes;
        result.forwarding_steps += outcome.forwarding_steps;
        result.queries.push_back(std::move(outcome.result));
      }
    } else {
      for (const dp::Query& query : queries) {
        dist::Controller::QueryOutcome outcome = controller_->RunQuery(query);
        result.dp_forward.Add(outcome.metrics);
        result.comm_bytes += outcome.metrics.comm_bytes + outcome.gather_bytes;
        result.forwarding_steps += outcome.forwarding_steps;
        result.queries.push_back(std::move(outcome.result));
      }
    }
  } catch (const util::SimulatedOom& oom) {
    result.status = RunStatus::kOutOfMemory;
    result.failure_detail = oom.what();
  } catch (const util::SimulatedTimeout& timeout) {
    result.status = RunStatus::kTimeout;
    result.failure_detail = timeout.what();
  } catch (const util::WorkerLost& lost) {
    // A process-backed worker died (or hung) more times than the respawn
    // budget allows: the run is abandoned with a structured status rather
    // than a hang or a crash.
    result.status = RunStatus::kWorkerLost;
    result.failure_detail = lost.what();
  } catch (const util::StorageError& error) {
    result.status = RunStatus::kStorageError;
    result.failure_detail = error.what();
  }
  result.peak_memory_bytes = controller_->MaxWorkerPeakBytes();
  result.worker_peaks = controller_->WorkerPeakBytes();
  result.comm_bytes += controller_->TotalCommBytes();
  result.total_best_routes = controller_->TotalBestRoutes();
  if (controller_->fabric().reliable()) {
    fault::ReliableTransport::Stats stats =
        controller_->fabric().transport_stats();
    result.retransmits = stats.retransmits;
    result.frames_dropped = stats.dropped;
    result.duplicates_suppressed = stats.duplicates_suppressed;
    result.worker_recoveries = controller_->worker_recoveries();
  }
  last_results_ = result.queries;
  return result;
}

std::optional<IncrementalResult> S2Verifier::VerifyIncremental(
    const Scenario& scenario) const {
  if (!controller_) return std::nullopt;
  // Incremental what-if reads rich in-process worker state (RIBs, FIB
  // engines) the process-mode control channel doesn't expose.
  if (controller_->options().worker_mode != dist::WorkerMode::kInProcess) {
    return std::nullopt;
  }
  for (size_t w = 0; w < controller_->num_workers(); ++w) {
    if (!controller_->worker(w).has_data_plane()) return std::nullopt;
  }
  if (controller_->num_workers() == 0) return std::nullopt;
  if (last_queries_.size() != last_results_.size()) return std::nullopt;
  if (!incremental_base_.has_value()) {
    incremental_base_ =
        MakeIncrementalBase(*controller_, last_queries_, last_results_);
  }
  return core::VerifyIncremental(*incremental_base_, scenario);
}

std::optional<svc::Snapshot> S2Verifier::ExportSnapshot() const {
  if (!controller_) return std::nullopt;
  // Snapshot capture walks in-process worker predicate state directly.
  if (controller_->options().worker_mode != dist::WorkerMode::kInProcess) {
    return std::nullopt;
  }
  for (size_t w = 0; w < controller_->num_workers(); ++w) {
    if (!controller_->worker(w).has_data_plane()) return std::nullopt;
  }
  if (controller_->num_workers() == 0) return std::nullopt;
  return svc::CaptureSnapshot(*controller_);
}

std::string S2Verifier::RunReportJson(const VerifyResult& result) const {
  obs::Registry registry;
  registry.SetLabel("schema", "s2.run_report.v1");
  PublishVerifyResult(result, registry);
  if (controller_) controller_->PublishMetrics(registry);
  return registry.ToJson();
}

bool S2Verifier::WriteRunReport(const VerifyResult& result,
                                const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << RunReportJson(result) << "\n";
  return static_cast<bool>(out);
}

}  // namespace s2::core
