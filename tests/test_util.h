// Copyright 2026 The rvar Authors.
//
// Shared test helpers. ctest runs every TEST/TEST_F as its own process,
// several at once under `ctest -j`, so a fixed scratch path lets one test's
// cleanup delete another's live files. ScopedTempDir gives each test a
// directory of its own, named after the test and the process id.

#ifndef RVAR_TESTS_TEST_UTIL_H_
#define RVAR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rvar {

/// \brief An empty directory under the system temp directory, unique to the
/// running test and process, removed with everything in it on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "rvar_";
    name += info != nullptr ? TestName(info) : "suite";
    name += '_';
    name += std::to_string(::getpid());
    path_ = (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// `path()/name`.
  std::string Path(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  // "Suite.Test", with the '/' of parameterized names made path-safe.
  static std::string TestName(const ::testing::TestInfo* info) {
    std::string name =
        std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return name;
  }

  std::string path_;
};

}  // namespace rvar

#endif  // RVAR_TESTS_TEST_UTIL_H_
