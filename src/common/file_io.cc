#include "src/common/file_io.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace rhythm {

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  return std::fclose(file) == 0 && written;
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
