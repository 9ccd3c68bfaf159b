#include "src/common/env.h"

#include <cstdlib>
#include <thread>

#include "src/common/parse_exact.h"

namespace rhythm {

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] == '1';
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  int parsed = fallback;
  return value != nullptr && ParseExact(value, &parsed) ? parsed : fallback;
}

bool FastMode() { return EnvFlag("RHYTHM_FAST"); }

int DefaultJobCount() {
  const int jobs = EnvInt("RHYTHM_JOBS", 0);
  if (jobs > 0) {
    return jobs;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

int DefaultShardCount(int jobs) {
  const int shards = EnvInt("RHYTHM_SHARDS", 0);
  if (shards > 0) {
    return shards;
  }
  return jobs > 0 ? jobs : DefaultJobCount();
}

}  // namespace rhythm
