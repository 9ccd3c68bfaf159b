// rhythm_perfbench: the benchmark program. perfbench/run.py builds it and
// runs it once per measurement:
//
//   rhythm_perfbench --workload cluster_diurnal|whatif_serve --seed N
//                    --seconds S --trace 0|1 --cache-dir DIR --out-dir DIR
//   rhythm_perfbench --prepare --cache-dir DIR
//
// The last line of standard output is the result as one JSON object; the
// lines before it describe the run. Exit code 0 only when every output
// check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Failed requests are infinitely slow; JSON has no infinity, so a failed
// run reports 1e300 (and exits non-zero anyway).
std::string JsonNumber(double value) { return Num(std::isfinite(value) ? value : 1e300); }

int Usage() {
  std::fprintf(stderr,
               "usage: rhythm_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--cache-dir DIR --out-dir DIR\n"
               "       rhythm_perfbench --prepare --cache-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--cache-dir") {
      options.cache_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  // The benchmark pins its own parallelism and cache mode; these knobs
  // would silently change what is measured.
  for (const char* knob : {"RHYTHM_JOBS", "RHYTHM_SHARDS", "RHYTHM_FAST"}) {
    ::unsetenv(knob);
  }
  if (options.cache_dir.empty()) {
    return Usage();
  }
  if (prepare) {
    if (!PrepareClusterCache(options.cache_dir)) {
      std::fprintf(stderr, "prepare: could not fill %s\n", options.cache_dir.c_str());
      return 1;
    }
    return 0;
  }
  if (options.out_dir.empty() || !(options.seconds > 0.0)) {
    return Usage();
  }

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  Result result;
  if (options.workload == "cluster_diurnal") {
    result = RunClusterDiurnal(options, traced);
  } else if (options.workload == "whatif_serve") {
    result = RunWhatIfServe(options, traced);
  } else {
    return Usage();
  }

  std::vector<std::pair<std::string, std::string>> config = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", Num(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"cpu_model", CpuModel()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", "g++ " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
  };
  config.insert(config.end(), result.config.begin(), result.config.end());
  for (const auto& [key, value] : config) {
    std::printf("config %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("metric %-32s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed; failed_share %.6f ratio\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + (options.trace ? "-traced" : "");
  if (traced != nullptr) {
    std::printf("self time by span (s): name count total self\n");
    for (const Tracer::Totals& totals : tracer.SelfTimes()) {
      std::printf("span %-24s %8llu %12.6f %12.6f\n", totals.name.c_str(),
                  static_cast<unsigned long long>(totals.count), totals.total_s,
                  totals.self_s);
    }
    if (tracer.Write(stem + ".spans.json")) {
      std::printf("spans written to %s.spans.json\n", stem.c_str());
    }
  }

  std::string metrics = "{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    metrics += i > 0 ? "," : "";
    metrics += JsonString(metric.name) + ":{\"value\":" + JsonNumber(metric.value) +
               ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  metrics += "}";
  const bool correct = result.failed == 0;
  const std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                           ",\"attempted\":" + std::to_string(result.attempted) +
                           ",\"failed\":" + std::to_string(result.failed) +
                           ",\"metrics\":" + metrics + "}";
  std::ofstream record(stem + ".result.json", std::ios::trunc);
  record << "{\"config\":{";
  for (size_t i = 0; i < config.size(); ++i) {
    record << (i > 0 ? "," : "") << JsonString(config[i].first) << ":"
           << JsonString(config[i].second);
  }
  record << "},\"result\":" << line << "}\n";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rhythm_perfbench: %s\n", error.what());
    return 2;
  }
}
