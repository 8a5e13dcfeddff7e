#include "core/results.h"

#include <cstdio>

namespace s2::core {

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kOutOfMemory:
      return "OOM";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kWorkerLost:
      return "worker_lost";
    case RunStatus::kStorageError:
      return "storage_error";
  }
  return "?";
}

double VerifyResult::TotalWallSeconds() const {
  return parse_seconds + partition_seconds + control_plane.wall_seconds +
         dp_build.wall_seconds + dp_forward.wall_seconds;
}

double VerifyResult::TotalModeledSeconds() const {
  return parse_seconds + partition_seconds + control_plane.modeled_seconds +
         dp_build.modeled_seconds + dp_forward.modeled_seconds;
}

std::string HumanBytes(size_t bytes) {
  char buf[32];
  double b = static_cast<double>(bytes);
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

std::string HumanSeconds(double seconds) {
  char buf[32];
  if (seconds >= 3600) {
    std::snprintf(buf, sizeof(buf), "%.2f h", seconds / 3600);
  } else if (seconds >= 60) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60);
  } else if (seconds >= 1) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  }
  return buf;
}

}  // namespace s2::core
