#include "src/common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace rhythm {

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  return std::fclose(file) == 0 && written;
}

bool ReadFile(const std::string& path, std::string* bytes) {
  // POSIX reads, not stdio: no FILE and no stdio buffer to allocate, which
  // is most of the cost of a small file such as a threshold-cache entry.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool read = ReadFd(fd, bytes);
  ::close(fd);
  return read;
}

bool ReadFd(int fd, std::string* bytes) {
  std::string text;
  char chunk[1 << 14];
  ssize_t read = 0;
  while ((read = ::read(fd, chunk, sizeof(chunk))) != 0) {
    if (read > 0) {
      text.append(chunk, static_cast<size_t>(read));
    } else if (errno != EINTR) {
      return false;  // EISDIR for a directory, which opens.
    }
  }
  *bytes = std::move(text);
  return true;
}

bool WriteFileAtomic(const std::string& path, const std::string& bytes) {
  // pid plus a process-local counter: writers in other processes sharing
  // the directory and other threads of this one never collide.
  static std::atomic<uint64_t> sequence{0};
  const std::string staging = path + ".tmp." + std::to_string(::getpid()) + "." +
                              std::to_string(sequence.fetch_add(1));
  if (WriteFile(staging, bytes) && std::rename(staging.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(staging.c_str());
  return false;
}

}  // namespace rhythm
