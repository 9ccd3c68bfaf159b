#include "src/obs/exporters.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/bemodel/be_job_spec.h"
#include "src/common/json.h"
#include "src/control/top_controller.h"
#include "src/fault/fault_schedule.h"

namespace rhythm {
namespace {

// Shared JSON primitives (src/common/json.h): %.17g doubles and string
// escaping, the same routines the serving daemon renders with.
std::string Num(double value) { return JsonNum(value); }
std::string EscapeJson(const std::string& text) { return JsonEscape(text); }

// Compact formatting for human-readable output.
std::string Short(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// The per-kind name of the `code` byte ("AllowBEGrowth", "cpu-llc",
// "PodCrash", ...). Decorative in JSONL; the numeric fields are authoritative.
std::string CodeName(const ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kDecision:
      return BeActionName(static_cast<BeAction>(event.code));
    case ObsKind::kActuation:
      return ObsKnobName(static_cast<ObsKnob>(event.code));
    case ObsKind::kFault:
      return FaultKindName(static_cast<FaultKind>(event.code));
    case ObsKind::kSloViolation:
      return ObsSloScopeName(static_cast<ObsSloScope>(event.code));
    case ObsKind::kBeLifecycle:
      return ObsBeOpName(static_cast<ObsBeOp>(event.code));
    case ObsKind::kPlacement:
      return ObsPlacementOpName(static_cast<ObsPlacementOp>(event.code));
  }
  return "?";
}

std::string DetailName(const ObsEvent& event) {
  switch (event.kind) {
    case ObsKind::kDecision:
      return ObsDecisionPhaseName(static_cast<ObsDecisionPhase>(event.detail));
    case ObsKind::kActuation:
      return event.detail != 0 ? "ok" : "failed";
    case ObsKind::kFault:
      return ObsFaultEdgeName(static_cast<ObsFaultEdge>(event.detail));
    case ObsKind::kPlacement:
      // The co-located BE for placed/churned groups; empty for epoch marks,
      // solo and unplaced groups (no BE landed).
      switch (static_cast<ObsPlacementOp>(event.code)) {
        case ObsPlacementOp::kGroupPlaced:
        case ObsPlacementOp::kChurn:
        case ObsPlacementOp::kFailover:
          return BeJobKindName(static_cast<BeJobKind>(event.detail));
        case ObsPlacementOp::kDegraded:
          return event.detail != 0 ? "enter" : "exit";
        case ObsPlacementOp::kEpochBegin:
        case ObsPlacementOp::kGroupSolo:
        case ObsPlacementOp::kGroupUnplaced:
        case ObsPlacementOp::kMachineDown:
        case ObsPlacementOp::kMachineUp:
        case ObsPlacementOp::kGroupDown:
          return "";
      }
      return "";
    case ObsKind::kSloViolation:
    case ObsKind::kBeLifecycle:
      return "";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Minimal JSON field extraction for the flat objects *we* write. Handles
// arbitrary key order and skips unknown keys; not a general JSON parser.

// Position just past `"key":`, or npos.
size_t FindKey(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::string::npos;
  }
  return at + needle.size();
}

bool ParseNumber(const std::string& line, const char* key, double* out) {
  const size_t at = FindKey(line, key);
  if (at == std::string::npos) {
    return false;
  }
  *out = std::strtod(line.c_str() + at, nullptr);
  return true;
}

double RequireNumber(const std::string& line, const char* key) {
  double value = 0.0;
  if (!ParseNumber(line, key, &value)) {
    throw std::runtime_error("recording JSONL: missing numeric field '" +
                             std::string(key) + "' in: " + line);
  }
  return value;
}

// Integer fields are read as integers, exactly for any value of T: digits
// that do not fit T, or that continue as a fraction or exponent, throw.
template <typename T>
bool ParseInteger(const std::string& line, const char* key, T* out) {
  const size_t at = FindKey(line, key);
  if (at == std::string::npos) {
    return false;
  }
  const char* end = line.data() + line.size();
  const auto [stop, error] = std::from_chars(line.data() + at, end, *out);
  if (error != std::errc() ||
      (stop != end && *stop != ',' && *stop != '}')) {
    throw std::runtime_error("recording JSONL: field '" + std::string(key) +
                             "' is not an integer in range in: " + line);
  }
  return true;
}

template <typename T>
T RequireInteger(const std::string& line, const char* key) {
  T value{};
  if (!ParseInteger(line, key, &value)) {
    throw std::runtime_error("recording JSONL: missing integer field '" +
                             std::string(key) + "' in: " + line);
  }
  return value;
}

// Reads the string literal starting at line[at] == '"'. Advances *at past the
// closing quote.
std::string ReadStringAt(const std::string& line, size_t* at) {
  if (*at >= line.size() || line[*at] != '"') {
    throw std::runtime_error("recording JSONL: expected string in: " + line);
  }
  std::string out;
  for (size_t i = *at + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      *at = i + 1;
      return out;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 1 >= line.size()) {
      break;
    }
    const char esc = line[++i];
    switch (esc) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (i + 4 >= line.size()) {
          throw std::runtime_error("recording JSONL: bad \\u escape in: " + line);
        }
        const std::string hex = line.substr(i + 1, 4);
        out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
        i += 4;
        break;
      }
      default:
        out += esc;  // \" and \\ (and anything else verbatim).
    }
  }
  throw std::runtime_error("recording JSONL: unterminated string in: " + line);
}

bool ParseString(const std::string& line, const char* key, std::string* out) {
  size_t at = FindKey(line, key);
  if (at == std::string::npos) {
    return false;
  }
  *out = ReadStringAt(line, &at);
  return true;
}

// Parses `"key":["a","b",...]`.
std::vector<std::string> ParseStringArray(const std::string& line, const char* key) {
  std::vector<std::string> out;
  size_t at = FindKey(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '[') {
    return out;
  }
  ++at;
  while (at < line.size() && line[at] != ']') {
    if (line[at] == ',' || std::isspace(static_cast<unsigned char>(line[at]))) {
      ++at;
      continue;
    }
    out.push_back(ReadStringAt(line, &at));
  }
  return out;
}

// Parses `"points":[[t,v],[t,v],...]` into a TimeSeries.
TimeSeries ParsePoints(const std::string& line) {
  TimeSeries series;
  size_t at = FindKey(line, "points");
  if (at == std::string::npos || at >= line.size() || line[at] != '[') {
    return series;
  }
  ++at;  // outer '['.
  while (at < line.size() && line[at] != ']') {
    if (line[at] != '[') {
      ++at;
      continue;
    }
    ++at;  // inner '['.
    char* end = nullptr;
    const double time = std::strtod(line.c_str() + at, &end);
    at = static_cast<size_t>(end - line.c_str());
    while (at < line.size() && (line[at] == ',' || line[at] == ' ')) {
      ++at;
    }
    const double value = std::strtod(line.c_str() + at, &end);
    at = static_cast<size_t>(end - line.c_str());
    series.Add(time, value);
    while (at < line.size() && line[at] != ']') {
      ++at;
    }
    if (at < line.size()) {
      ++at;  // inner ']'.
    }
  }
  return series;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

std::string DescribeEvent(const ObsEvent& event) {
  std::ostringstream out;
  char stamp[64];
  std::snprintf(stamp, sizeof(stamp), "t=%9.3f", event.time_s);
  out << stamp << " machine=" << event.machine << ' ' << ObsKindName(event.kind) << ' '
      << CodeName(event);
  switch (event.kind) {
    case ObsKind::kDecision:
      out << " phase=" << DetailName(event) << " load=" << Short(event.a)
          << " slack=" << Short(event.b) << " loadlimit=" << Short(event.c)
          << " slacklimit=" << Short(event.d);
      break;
    case ObsKind::kActuation: {
      out << ' ' << DetailName(event);
      switch (static_cast<ObsKnob>(event.code)) {
        case ObsKnob::kCpuLlc:
          out << " cores" << (event.a >= 0 ? "+" : "") << Short(event.a) << " ways"
              << (event.b >= 0 ? "+" : "") << Short(event.b);
          break;
        case ObsKnob::kMemory:
          out << " gb" << (event.a >= 0 ? "+" : "") << Short(event.a);
          break;
        case ObsKnob::kFrequency:
          out << " ghz=" << Short(event.a);
          break;
        case ObsKnob::kSuspend:
        case ObsKnob::kResume:
          out << " instances=" << Short(event.a);
          break;
        case ObsKnob::kStop:
          out << " killed=" << Short(event.a);
          break;
        case ObsKnob::kLaunch:
          out << " launched=" << Short(event.a);
          break;
      }
      break;
    }
    case ObsKind::kFault:
      out << ' ' << DetailName(event);
      if (event.a != 0.0) {
        out << " magnitude=" << Short(event.a);
      }
      if (event.b != 0.0) {
        out << " duration=" << Short(event.b);
      }
      break;
    case ObsKind::kSloViolation:
      out << " slack=" << Short(event.a) << " tail_ms=" << Short(event.b);
      break;
    case ObsKind::kBeLifecycle:
      out << " count=" << Short(event.a);
      if (event.b != 0.0) {
        out << " pending=" << Short(event.b);
      }
      break;
    case ObsKind::kPlacement:
      switch (static_cast<ObsPlacementOp>(event.code)) {
        case ObsPlacementOp::kEpochBegin:
          out << " epoch=" << Short(event.a) << " load_scale=" << Short(event.b);
          break;
        case ObsPlacementOp::kMachineDown:
          out << " start=" << Short(event.a) << " downtime=" << Short(event.b);
          break;
        case ObsPlacementOp::kMachineUp:
          out << " rejoin=" << Short(event.a);
          break;
        case ObsPlacementOp::kFailover: {
          const std::string be = DetailName(event);
          if (!be.empty()) {
            out << ' ' << be;
          }
          out << " group=" << Short(event.a) << " pods=" << Short(event.b)
              << " incarnation=" << Short(event.c)
              << " latency_s=" << Short(event.d);
          break;
        }
        case ObsPlacementOp::kGroupDown:
          out << " group=" << Short(event.a) << " pods=" << Short(event.b);
          break;
        case ObsPlacementOp::kDegraded:
          out << ' ' << DetailName(event) << " down=" << Short(event.a)
              << " dead_fraction=" << Short(event.b);
          break;
        default: {
          const std::string be = DetailName(event);
          if (!be.empty()) {
            out << ' ' << be;
          }
          out << " group=" << Short(event.a) << " pods=" << Short(event.b)
              << " score=" << Short(event.c) << " load=" << Short(event.d);
          break;
        }
      }
      break;
  }
  return out.str();
}

std::string ToJsonl(const Recording& recording) {
  std::ostringstream out;
  const RecordingMeta& meta = recording.meta;
  out << "{\"type\":\"meta\",\"app\":\"" << EscapeJson(meta.app) << "\",\"be\":\""
      << EscapeJson(meta.be) << "\",\"controller\":\"" << EscapeJson(meta.controller)
      << "\",\"seed\":" << meta.seed << ",\"sla_ms\":" << Num(meta.sla_ms)
      << ",\"period_s\":" << Num(meta.controller_period_s) << ",\"pods\":[";
  for (size_t i = 0; i < meta.pods.size(); ++i) {
    out << (i ? "," : "") << '"' << EscapeJson(meta.pods[i]) << '"';
  }
  out << "],\"events_total\":" << recording.events_total
      << ",\"events_dropped\":" << recording.events_dropped << "}\n";

  for (const ObsEvent& event : recording.events) {
    out << "{\"type\":\"event\",\"t\":" << Num(event.time_s)
        << ",\"machine\":" << event.machine
        << ",\"k\":" << static_cast<int>(event.kind)
        << ",\"code\":" << static_cast<int>(event.code)
        << ",\"detail\":" << static_cast<int>(event.detail) << ",\"a\":" << Num(event.a)
        << ",\"b\":" << Num(event.b) << ",\"c\":" << Num(event.c)
        << ",\"d\":" << Num(event.d) << ",\"label\":\""
        << EscapeJson(std::string(ObsKindName(event.kind)) + " " + CodeName(event))
        << "\"}\n";
  }

  for (const auto& metric : recording.metrics) {
    out << "{\"type\":\"metric\",\"name\":\"" << EscapeJson(metric.name)
        << "\",\"mtype\":" << static_cast<int>(metric.type)
        << ",\"q\":" << Num(metric.quantile) << ",\"obs\":" << metric.observations
        << ",\"current\":" << Num(metric.current) << ",\"points\":[";
    const auto& points = metric.timeline.points();
    for (size_t i = 0; i < points.size(); ++i) {
      out << (i ? "," : "") << '[' << Num(points[i].time) << ',' << Num(points[i].value)
          << ']';
    }
    out << "]}\n";
  }
  return out.str();
}

Recording FromJsonl(const std::string& jsonl) {
  Recording recording;
  bool saw_meta = false;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::string type;
    if (!ParseString(line, "type", &type)) {
      throw std::runtime_error("recording JSONL: line without \"type\": " + line);
    }
    if (type == "meta") {
      saw_meta = true;
      ParseString(line, "app", &recording.meta.app);
      ParseString(line, "be", &recording.meta.be);
      ParseString(line, "controller", &recording.meta.controller);
      ParseInteger(line, "seed", &recording.meta.seed);
      ParseNumber(line, "sla_ms", &recording.meta.sla_ms);
      ParseNumber(line, "period_s", &recording.meta.controller_period_s);
      recording.meta.pods = ParseStringArray(line, "pods");
      ParseInteger(line, "events_total", &recording.events_total);
      ParseInteger(line, "events_dropped", &recording.events_dropped);
    } else if (type == "event") {
      ObsEvent event;
      event.time_s = RequireNumber(line, "t");
      event.machine = RequireInteger<int32_t>(line, "machine");
      event.kind = static_cast<ObsKind>(RequireInteger<uint8_t>(line, "k"));
      event.code = RequireInteger<uint8_t>(line, "code");
      event.detail = RequireInteger<uint8_t>(line, "detail");
      event.a = RequireNumber(line, "a");
      event.b = RequireNumber(line, "b");
      event.c = RequireNumber(line, "c");
      event.d = RequireNumber(line, "d");
      recording.events.push_back(event);
    } else if (type == "metric") {
      MetricsRegistry::Metric metric;
      if (!ParseString(line, "name", &metric.name)) {
        throw std::runtime_error("recording JSONL: metric without name: " + line);
      }
      uint8_t type = 0;
      if (ParseInteger(line, "mtype", &type)) {
        metric.type = static_cast<MetricType>(type);
      }
      ParseNumber(line, "q", &metric.quantile);
      ParseInteger(line, "obs", &metric.observations);
      ParseNumber(line, "current", &metric.current);
      metric.timeline = ParsePoints(line);
      recording.metrics.push_back(std::move(metric));
    }
    // Unknown types: skipped for forward compatibility.
  }
  if (!saw_meta) {
    throw std::runtime_error("recording JSONL: no meta line found");
  }
  return recording;
}

std::string ToPerfettoJson(const Recording& recording) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"app\":\""
      << EscapeJson(recording.meta.app) << "\",\"be\":\"" << EscapeJson(recording.meta.be)
      << "\",\"controller\":\"" << EscapeJson(recording.meta.controller)
      << "\",\"seed\":" << recording.meta.seed << "},\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const std::string& json) {
    out << (first ? "\n" : ",\n") << json;
    first = false;
  };

  // Process tracks: pid 0 = cluster-wide, pid m+1 = machine m.
  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cluster\"}}");
  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":-1}}");
  for (int pod = 0; pod < recording.pod_count(); ++pod) {
    std::ostringstream line;
    line << "{\"ph\":\"M\",\"pid\":" << pod + 1
         << ",\"name\":\"process_name\",\"args\":{\"name\":\"machine " << pod << " — "
         << EscapeJson(recording.meta.pods[static_cast<size_t>(pod)]) << "\"}}";
    emit(line.str());
  }

  // Decisions become slices as wide as the control period; everything else is
  // an instant. tid 1 = controller, tid 2 = actuations, tid 3 = events.
  const double decision_us = recording.meta.controller_period_s * 1e6;
  for (const ObsEvent& event : recording.events) {
    const int pid = event.machine >= 0 ? event.machine + 1 : 0;
    const double ts = event.time_s * 1e6;
    std::ostringstream line;
    switch (event.kind) {
      case ObsKind::kDecision:
        line << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":" << Num(ts)
             << ",\"dur\":" << Num(decision_us) << ",\"cat\":\"decision\",\"name\":\""
             << EscapeJson(CodeName(event)) << "\",\"args\":{\"phase\":\""
             << DetailName(event) << "\",\"load\":" << Num(event.a)
             << ",\"slack\":" << Num(event.b) << ",\"loadlimit\":" << Num(event.c)
             << ",\"slacklimit\":" << Num(event.d) << "}}";
        break;
      case ObsKind::kActuation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":2,\"ts\":" << Num(ts)
             << ",\"cat\":\"actuation\",\"name\":\"" << EscapeJson(CodeName(event))
             << (event.detail != 0 ? "" : " FAILED") << "\",\"args\":{\"a\":" << Num(event.a)
             << ",\"b\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kFault:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"fault\",\"name\":\"" << EscapeJson(CodeName(event)) << ' '
             << DetailName(event) << "\",\"args\":{\"magnitude\":" << Num(event.a)
             << ",\"duration_s\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kSloViolation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"slo\",\"name\":\"SLO violation (" << CodeName(event)
             << ")\",\"args\":{\"slack\":" << Num(event.a)
             << ",\"tail_ms\":" << Num(event.b) << "}}";
        break;
      case ObsKind::kBeLifecycle:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"be\",\"name\":\"be " << CodeName(event)
             << "\",\"args\":{\"count\":" << Num(event.a) << "}}";
        break;
      case ObsKind::kPlacement:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << Num(ts)
             << ",\"cat\":\"placement\",\"name\":\"place " << CodeName(event)
             << "\",\"args\":{\"group\":" << Num(event.a) << ",\"pods\":" << Num(event.b)
             << ",\"score\":" << Num(event.c) << ",\"load\":" << Num(event.d) << "}}";
        break;
    }
    emit(line.str());
  }

  // Metric timelines as counter tracks. Per-pod metrics ("pod3.cpu_util") go
  // on their machine's track; everything else on the cluster track.
  for (const auto& metric : recording.metrics) {
    int pid = 0;
    if (metric.name.compare(0, 3, "pod") == 0) {
      const size_t dot = metric.name.find('.');
      if (dot != std::string::npos && dot > 3) {
        pid = std::atoi(metric.name.c_str() + 3) + 1;
      }
    }
    for (const auto& point : metric.timeline.points()) {
      std::ostringstream line;
      line << "{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << Num(point.time * 1e6)
           << ",\"name\":\"" << EscapeJson(metric.name) << "\",\"args\":{\"value\":"
           << Num(point.value) << "}}";
      emit(line.str());
    }
  }

  out << "\n]}\n";
  return out.str();
}

std::string ToMetricsCsv(const Recording& recording) {
  std::ostringstream out;
  out << "time_s";
  size_t rows = 0;
  for (const auto& metric : recording.metrics) {
    out << ',' << metric.name;
    rows = std::max(rows, metric.timeline.size());
  }
  out << '\n';
  // Timelines are aligned (one Snapshot stamps every metric); late-registered
  // metrics simply leave early cells blank.
  for (size_t row = 0; row < rows; ++row) {
    double time = 0.0;
    for (const auto& metric : recording.metrics) {
      if (row < metric.timeline.size()) {
        time = metric.timeline.points()[row].time;
        break;
      }
    }
    out << Num(time);
    for (const auto& metric : recording.metrics) {
      const auto& points = metric.timeline.points();
      out << ',';
      if (row < points.size()) {
        out << Num(points[row].value);
      }
    }
    out << '\n';
  }
  return out.str();
}

bool WriteJsonl(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToJsonl(recording));
}

bool WritePerfettoTrace(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToPerfettoJson(recording));
}

bool WriteMetricsCsv(const Recording& recording, const std::string& path) {
  return WriteFile(path, ToMetricsCsv(recording));
}

void ExportRecording(const Recording& recording, const ObsOptions& obs) {
  if (!obs.enabled) {
    return;
  }
  if (!obs.export_jsonl.empty() && !WriteJsonl(recording, obs.export_jsonl)) {
    throw std::runtime_error("cannot write recording to " + obs.export_jsonl);
  }
  if (!obs.export_perfetto.empty() &&
      !WritePerfettoTrace(recording, obs.export_perfetto)) {
    throw std::runtime_error("cannot write trace to " + obs.export_perfetto);
  }
  if (!obs.export_metrics_csv.empty() &&
      !WriteMetricsCsv(recording, obs.export_metrics_csv)) {
    throw std::runtime_error("cannot write metrics to " +
                             obs.export_metrics_csv);
  }
}

Recording LoadJsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read recording: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJsonl(buffer.str());
}

}  // namespace rhythm
