#ifndef QOF_TESTS_TEMP_PATH_H_
#define QOF_TESTS_TEMP_PATH_H_

#include <string>

#include <gtest/gtest.h>

namespace qof {

/// A file path under the gtest temp dir that belongs to the running test
/// alone: ctest runs every case as its own process, in parallel under
/// `ctest -j`, so a fixed name shared by two cases lets one delete or
/// overwrite the other's file mid-run. The suite and test name prefix
/// `name`. Call it from a test body or fixture SetUp, where a test is
/// running.
inline std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

}  // namespace qof

#endif  // QOF_TESTS_TEMP_PATH_H_
