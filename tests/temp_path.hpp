#pragma once
/// \file temp_path.hpp
/// Shared helper for tests that write files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace hdtest {

/// A path under the system temp directory unique to the running test case
/// and process: <stem>_<test name>_<pid><suffix>. gtest_discover_tests runs
/// every case as its own process, so a fixed name races under `ctest -j`
/// (one case's cleanup deletes a sibling's file mid-test), and so would two
/// runs of one suite on the same machine.
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& suffix = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized cases
  return std::filesystem::temp_directory_path() /
         (stem + "_" + name + "_" + std::to_string(::getpid()) + suffix);
}

}  // namespace hdtest
