#include "src/workload/trace_file_profile.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "src/common/file_io.h"

namespace rhythm {

namespace {
constexpr char kHeader[] = "rhythm-load v1";
}  // namespace

bool TraceFileProfile::Load(const std::string& path, double duration_s) {
  points_.clear();
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return false;
  }
  char line[128];
  if (std::fgets(line, sizeof(line), file) == nullptr ||
      std::strncmp(line, kHeader, std::strlen(kHeader)) != 0) {
    std::fclose(file);
    return false;
  }
  bool ok = true;
  double last_time = -1.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    double time = 0.0;
    double load = 0.0;
    if (std::sscanf(line, "%lf,%lf", &time, &load) != 2 || time < last_time) {
      ok = false;
      break;
    }
    last_time = time;
    points_.push_back(Point{time, std::clamp(load, 0.0, 1.0)});
  }
  std::fclose(file);
  if (!ok || points_.empty()) {
    points_.clear();
    return false;
  }
  if (duration_s > 0.0 && points_.back().time > 0.0) {
    const double scale = duration_s / points_.back().time;
    for (Point& point : points_) {
      point.time *= scale;
    }
  }
  return true;
}

void TraceFileProfile::AddPoint(double time_s, double load) {
  points_.push_back(Point{time_s, std::clamp(load, 0.0, 1.0)});
}

double TraceFileProfile::LoadAt(double t) const {
  if (points_.empty()) {
    return 0.0;
  }
  if (t <= points_.front().time) {
    return points_.front().load;
  }
  if (t >= points_.back().time) {
    return points_.back().load;
  }
  // Binary search for the segment containing t, then interpolate.
  const auto after = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double value, const Point& point) { return value < point.time; });
  const Point& hi = *after;
  const Point& lo = *(after - 1);
  if (hi.time <= lo.time) {
    return lo.load;
  }
  const double alpha = (t - lo.time) / (hi.time - lo.time);
  return lo.load + alpha * (hi.load - lo.load);
}

bool TraceFileProfile::Save(const std::string& path) const {
  std::ostringstream text;
  text << kHeader << '\n' << std::fixed << std::setprecision(6);  // %.6f
  for (const Point& point : points_) {
    text << point.time << ',' << point.load << '\n';
  }
  return WriteFile(path, text.str());
}

}  // namespace rhythm
