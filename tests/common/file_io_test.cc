// The checked whole-file reader and writers. WriteFileAtomic is only ever
// pointed at paths inside a private temp directory: aimed at a device node,
// its rename would replace the node itself.

#include "src/common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace rhythm {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int StagingFilesIn(const fs::path& dir) {
  int count = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++count;
    }
  }
  return count;
}

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("rhythm_file_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FileIoTest, WriteFileWritesAndReplaces) {
  const std::string path = (dir_ / "out.json").string();
  ASSERT_TRUE(WriteFile(path, "{\"first\":1}\n"));
  EXPECT_EQ(ReadAll(path), "{\"first\":1}\n");
  ASSERT_TRUE(WriteFile(path, "x"));
  EXPECT_EQ(ReadAll(path), "x");
}

TEST_F(FileIoTest, WriteFileFailsInMissingDirectory) {
  EXPECT_FALSE(WriteFile((dir_ / "missing" / "out.json").string(), "x"));
}

TEST_F(FileIoTest, WriteFileFailsWhenCloseFails) {
  // /dev/full accepts the open and the buffered write; the flush at close
  // fails with ENOSPC.
  if (!fs::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  EXPECT_FALSE(WriteFile("/dev/full", "bytes that never land\n"));
}

TEST_F(FileIoTest, WriteFileAtomicReplacesAndLeavesNoStagingFile) {
  const std::string path = (dir_ / "snapshot.json").string();
  ASSERT_TRUE(WriteFileAtomic(path, "old"));
  ASSERT_TRUE(WriteFileAtomic(path, "new contents"));
  EXPECT_EQ(ReadAll(path), "new contents");
  EXPECT_EQ(StagingFilesIn(dir_), 0);
}

TEST_F(FileIoTest, WriteFileAtomicFailsInMissingDirectory) {
  EXPECT_FALSE(WriteFileAtomic((dir_ / "missing" / "snapshot.json").string(), "x"));
  EXPECT_FALSE(fs::exists(dir_ / "missing"));
  EXPECT_EQ(StagingFilesIn(dir_), 0);
}

TEST_F(FileIoTest, WriteFileAtomicOntoDirectoryKeepsTargetAndRemovesStaging) {
  // The staging write succeeds and the rename fails (EISDIR).
  const fs::path target = dir_ / "taken";
  fs::create_directories(target / "child");
  EXPECT_FALSE(WriteFileAtomic(target.string(), "x"));
  EXPECT_TRUE(fs::is_directory(target / "child"));
  EXPECT_EQ(StagingFilesIn(dir_), 0);
}

TEST_F(FileIoTest, ReadFileReturnsExactlyTheBytesWritten) {
  // Binary bytes (a NUL, no final newline) across several read chunks.
  std::string bytes(100000, 'r');
  bytes[7] = '\0';
  bytes[50000] = '\xff';
  const std::string path = (dir_ / "bytes.bin").string();
  ASSERT_TRUE(WriteFile(path, bytes));
  std::string read = "stale";
  ASSERT_TRUE(ReadFile(path, &read));
  EXPECT_EQ(read, bytes);
  ASSERT_TRUE(WriteFile(path, ""));
  ASSERT_TRUE(ReadFile(path, &read));
  EXPECT_TRUE(read.empty());
}

TEST_F(FileIoTest, ReadFileFailsForAMissingPath) {
  std::string read = "untouched";
  EXPECT_FALSE(ReadFile((dir_ / "missing.json").string(), &read));
  EXPECT_EQ(read, "untouched");
}

TEST_F(FileIoTest, ReadFileFailsForADirectory) {
  // fopen accepts a directory; its first read fails.
  std::string read = "untouched";
  EXPECT_FALSE(ReadFile(dir_.string(), &read));
  EXPECT_EQ(read, "untouched");
}

TEST_F(FileIoTest, ReadFdReadsAPipeToItsEndAndLeavesItOpen) {
  // What `rhythmd --oneshot -` reads when a body is piped to it.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string body = "{\"app\":\"Redis\"}";
  ASSERT_EQ(::write(fds[1], body.data(), body.size()), static_cast<ssize_t>(body.size()));
  ::close(fds[1]);
  std::string read = "stale";
  EXPECT_TRUE(ReadFd(fds[0], &read));
  EXPECT_EQ(read, body);
  EXPECT_EQ(::close(fds[0]), 0);  // still open.
}

TEST_F(FileIoTest, ReadFdFailsForADirectory) {
  // `rhythmd --oneshot - < /tmp`: the shell opens the directory as stdin.
  const int fd = ::open(dir_.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::string read = "untouched";
  EXPECT_FALSE(ReadFd(fd, &read));
  EXPECT_EQ(read, "untouched");
  ::close(fd);
}

}  // namespace
}  // namespace rhythm
