// Scoped TMPDIR that no spill segment can be created under.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace s2::testing {

// Points TMPDIR at a path below a regular file for the object's lifetime,
// so resolving the temp dir fails with ENOTDIR — unlike permission bits,
// this holds for root too. Child processes spawned meanwhile inherit it.
// The destructor restores the previous TMPDIR and removes the file.
class UnusableTmpdir {
 public:
  UnusableTmpdir() {
    if (const char* old = std::getenv("TMPDIR")) {
      had_old_ = true;
      old_ = old;
    }
    file_ = std::filesystem::temp_directory_path() /
            ("s2-not-a-dir-" + std::to_string(::getpid()));
    std::ofstream(file_) << "not a directory\n";
    ::setenv("TMPDIR", (file_ / "tmp").c_str(), 1);
  }
  ~UnusableTmpdir() {
    if (had_old_) {
      ::setenv("TMPDIR", old_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::error_code ec;
    std::filesystem::remove(file_, ec);
  }

  UnusableTmpdir(const UnusableTmpdir&) = delete;
  UnusableTmpdir& operator=(const UnusableTmpdir&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
  std::filesystem::path file_;
};

}  // namespace s2::testing
