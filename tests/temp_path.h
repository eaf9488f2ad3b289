// Per-test temp file paths for tests that write fixtures to disk.
#ifndef DESICCANT_TESTS_TEMP_PATH_H_
#define DESICCANT_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace desiccant {

// `<TempDir>/<suite>.<test>.<pid>.<name>`: ctest runs each test case in its
// own process, in parallel, so a fixed name would be written and read by
// several cases at once. The caller removes the file when the test ends.
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." + info->name() + "." +
         std::to_string(::getpid()) + "." + name;
}

}  // namespace desiccant

#endif  // DESICCANT_TESTS_TEMP_PATH_H_
