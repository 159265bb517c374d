// One scratch directory per test process, under the gtest temp root: the
// process id is in its name, so two test processes started at once never
// share a path, and it is removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace bohr::temp_dir {

/// This process's directory, created on first use.
inline const std::filesystem::path& process_dir() {
  struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("bohr-test-" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside this process's directory, emptied of whatever an
/// earlier test left there and not yet created.
inline std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir = process_dir() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace bohr::temp_dir
