#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "perfbench/bench.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  // Freed heap pages still count as resident until trimmed, and how many
  // there are depends on the heap layout earlier work left behind.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Quantile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::Exponential(double mean) {
  double u = Uniform01();
  while (u <= 0.0) {
    u = Uniform01();
  }
  return -mean * std::log(u);
}

void Result::Add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Result::Note(const std::string& line) { notes.push_back(line); }

void Result::Config(const std::string& key, const std::string& value) {
  config.emplace_back(key, value);
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok && ++failed <= 20) {
    Note("CHECK FAILED: " + what);
  }
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, int64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Tracer::Totals> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& span : all) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < all.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = span.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, cursor);
      const double to = std::min(end, span.end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    Totals& totals = by_name[span.name];
    totals.name = span.name;
    ++totals.count;
    totals.total_s += span.end - span.start;
    totals.self_s += (span.end - span.start) - covered;
  }
  std::vector<Totals> out;
  for (auto& [name, totals] : by_name) {
    out.push_back(totals);
  }
  std::sort(out.begin(), out.end(),
            [](const Totals& a, const Totals& b) { return a.self_s > b.self_s; });
  return out;
}

bool Tracer::Write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  double origin = all.empty() ? 0.0 : all.front().start;
  for (const Span& span : all) {
    origin = std::min(origin, span.start);
  }
  out << "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_s\":" << Num(span.start - origin)
        << ",\"end_s\":" << Num(span.end - origin) << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

}  // namespace perfbench
