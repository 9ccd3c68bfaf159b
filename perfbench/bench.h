// Shared pieces of the benchmark program: process measurements, percentiles,
// the result a workload returns, and the in-memory span recorder used by the
// traced mode. The program links the library and observes it only through
// its public API and hooks; nothing here is compiled into the library.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Steady-clock seconds since an arbitrary origin.
double NowS();
// User + system CPU seconds of the whole process (all threads).
double ProcessCpuS();
// VmHWM (peak resident set) of this process in MB.
double PeakRssMb();
// Returns freed heap memory to the OS and resets VmHWM to the current RSS
// through /proc/self/clear_refs, so a later PeakRssMb() reports the peak of
// the interval that starts now.
bool ResetPeakRss();

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Number of samples strictly above the q-quantile: how many samples the
// percentile rests on.
size_t SamplesBeyond(const std::vector<double>& values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced run; `notes` are the
// human-readable lines printed before the result (sample counts, checks).
struct Result {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  // Self-description: the run's configuration, recorded with every result.
  std::vector<std::pair<std::string, std::string>> config;

  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  void Config(const std::string& key, const std::string& value);
  // Counts one checked operation; `ok` false counts it as failed too.
  void Check(bool ok, const std::string& what);
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string cache_dir;  // the cluster workload's threshold cache.
  std::string out_dir;    // where result and trace files go.
};

// One recorded span. Times are NowS() seconds; `parent` indexes the span
// list (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  int64_t request = -1;
};

// In-memory span recorder for the traced mode. Thread-safe; spans are kept
// until the run ends and then written out in one piece.
class Tracer {
 public:
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent = -1, int64_t request = -1);
  std::vector<Span> spans() const;
  // Per span name: count, total duration and total self time (duration
  // minus the part of it that child spans cover).
  struct Totals {
    std::string name;
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Totals> SelfTimes() const;
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Result RunClusterDiurnal(const Options& options, Tracer* tracer);
Result RunWhatIfServe(const Options& options, Tracer* tracer);
// Fills the cluster workload's threshold cache (a separate step, so no timed
// run ever characterizes). Returns false on failure.
bool PrepareClusterCache(const std::string& cache_dir);

// "%.17g" — every digit of a double.
std::string Num(double value);

// The benchmark's own input generator (SplitMix64), so generated inputs do
// not move when the library's Rng changes.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Exponential(double mean);
  bool Chance(double p) { return Uniform01() < p; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
