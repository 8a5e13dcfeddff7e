// Minimal error-or-value plumbing used at module boundaries where a
// failure is an expected outcome (parse errors, simulated OOM, timeouts,
// spill storage failures) rather than a programming error.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace s2::util {

// Thrown by MemoryTracker when a domain exceeds its simulated budget.
// Verifier facades catch this and report an OOM verdict, mirroring the
// paper's out-of-memory bars in Figures 4/5/8.
class SimulatedOom : public std::runtime_error {
 public:
  SimulatedOom(std::string domain, size_t requested, size_t budget)
      : std::runtime_error("simulated OOM in domain '" + domain +
                           "': requested " + std::to_string(requested) +
                           " bytes against budget " + std::to_string(budget)),
        domain_(std::move(domain)),
        requested_(requested),
        budget_(budget) {}

  const std::string& domain() const { return domain_; }
  // Exposed so a worker process can ship the failure across the control
  // channel and the controller can rethrow an identical exception.
  size_t requested() const { return requested_; }
  size_t budget() const { return budget_; }

 private:
  std::string domain_;
  size_t requested_ = 0;
  size_t budget_ = 0;
};

// Thrown by engines when the modeled runtime exceeds a configured deadline
// (mirrors the paper's 2-hour timeout on Bonsai / Batfish).
class SimulatedTimeout : public std::runtime_error {
 public:
  explicit SimulatedTimeout(const std::string& what)
      : std::runtime_error("simulated timeout: " + what) {}
};

// Thrown by the multi-process worker harness (dist/process.*) when a
// worker keeps dying faster than it can be respawned: after the
// configured respawn budget is exhausted the run aborts with this
// structured error instead of looping (or hanging) forever.
class WorkerLost : public std::runtime_error {
 public:
  WorkerLost(uint32_t worker, const std::string& reason)
      : std::runtime_error("worker " + std::to_string(worker) +
                           " lost and unrecoverable: " + reason),
        worker_(worker) {}

  uint32_t worker() const { return worker_; }

 private:
  uint32_t worker_;
};

// Thrown by the wire deserializers (cp/route.cc, dist/message.cc,
// fault/checkpoint.cc) on truncated input or length fields that exceed the
// remaining bytes. Internally produced bytes never trip this; it exists so
// corrupt or hostile input fails with a catchable error instead of an
// abort or an absurd-length allocation.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what)
      : std::runtime_error("malformed wire bytes: " + what) {}
};

// Thrown by cp::RibStore when its spill segment cannot be created,
// written or read back (a TMPDIR that is not a directory, a full disk, a
// file-size limit). Verifier facades report it as
// RunStatus::kStorageError instead of aborting the process.
class StorageError : public std::runtime_error {
 public:
  // `op` names the failed operation; `err` is its errno.
  StorageError(const std::string& op, int err)
      : std::runtime_error("storage error: " + op + ": " +
                           std::strerror(err)) {}
  // Rebuilds an error from its what() text (a worker process's report).
  explicit StorageError(const std::string& what) : std::runtime_error(what) {}
};

// A value-or-error result. Kept deliberately tiny; only the handful of
// fallible boundaries use it (config parsing chiefly).
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  static Result Error(std::string message) {
    return Result(ErrorTag{}, std::move(message));
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  const std::string& error() const { return std::get<ErrorString>(v_).msg; }

 private:
  struct ErrorTag {};
  struct ErrorString {
    std::string msg;
  };
  Result(ErrorTag, std::string message)
      : v_(ErrorString{std::move(message)}) {}

  std::variant<T, ErrorString> v_;
};

}  // namespace s2::util
