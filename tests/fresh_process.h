// InFreshProcess(body): runs `body` in a new process, for tests that need
// the process-wide threshold cache (CachedAppThresholds) cold. A test
// binary run whole shares one cache across its tests, so without this a
// test would depend on which tests ran before it.
//
// The child is a gtest "threadsafe" death-test child: it re-executes this
// binary, re-runs the enclosing test up to this call, then runs `body` with
// every assertion intercepted. It prints each failed assertion to stderr,
// which the parent shows as the death test's output, and exits 1 if any
// failed, 0 otherwise. Code before the call runs in both processes.

#ifndef RHYTHM_TESTS_FRESH_PROCESS_H_
#define RHYTHM_TESTS_FRESH_PROCESS_H_

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>

namespace rhythm {
namespace testing {

[[noreturn]] inline void RunAndExit(const std::function<void()>& body) {
  ::testing::TestPartResultArray results;
  {
    ::testing::ScopedFakeTestPartResultReporter intercept(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ALL_THREADS, &results);
    body();
  }
  int failed = 0;
  for (int i = 0; i < results.size(); ++i) {
    const ::testing::TestPartResult& result = results.GetTestPartResult(i);
    if (result.failed()) {
      ++failed;
      std::fprintf(stderr, "%s:%d: %s\n", result.file_name() ? result.file_name() : "?",
                   result.line_number(), result.message());
    }
  }
  std::exit(failed == 0 ? 0 : 1);
}

inline void InFreshProcess(const std::function<void()>& body) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(RunAndExit(body), ::testing::ExitedWithCode(0), "");
}

}  // namespace testing
}  // namespace rhythm

#endif  // RHYTHM_TESTS_FRESH_PROCESS_H_
