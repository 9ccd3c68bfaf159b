#include "src/obs/exporters.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/bemodel/be_job_spec.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/common/parse_exact.h"
#include "src/control/top_controller.h"
#include "src/fault/fault_schedule.h"

namespace rhythm {
namespace {

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
// JSONL loading: each line goes through the strict reader (src/common/json.h)
// and fields are read from the parsed object by type.

// A double field holds a number, or null for NaN and ±inf (JsonNum's rule),
// which reads back as NaN.
bool Read(const JsonValue& value, double* out) {
  if (value.is_null()) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (!value.is_number()) {
    return false;
  }
  *out = value.number;
  return true;
}

bool Read(const JsonValue& value, std::string* out) {
  if (!value.is_string()) {
    return false;
  }
  *out = value.string;
  return true;
}

// Integer fields are read exactly for any value of T: a fraction, an
// exponent or digits that do not fit T fail.
template <typename T>
bool Read(const JsonValue& value, T* out) {
  return value.GetInt(out);
}

bool Read(const JsonValue& value, std::vector<std::string>* out) {
  if (!value.is_array()) {
    return false;
  }
  out->resize(value.array.size());
  for (size_t i = 0; i < value.array.size(); ++i) {
    if (!Read(value.array[i], &(*out)[i])) {
      return false;
    }
  }
  return true;
}

// Metric points: [[t,v],[t,v],...].
bool Read(const JsonValue& value, TimeSeries* out) {
  if (!value.is_array()) {
    return false;
  }
  for (const JsonValue& point : value.array) {
    double time = 0.0;
    double level = 0.0;
    if (!point.is_array() || point.array.size() != 2 ||
        !Read(point.array[0], &time) || !Read(point.array[1], &level)) {
      return false;
    }
    out->Add(time, level);
  }
  return true;
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
  out << "{\"type\":\"meta\",\"app\":\"" << JsonEscape(meta.app) << "\",\"be\":\""
      << JsonEscape(meta.be) << "\",\"controller\":\"" << JsonEscape(meta.controller)
      << "\",\"seed\":" << meta.seed << ",\"sla_ms\":" << JsonNum(meta.sla_ms)
      << ",\"period_s\":" << JsonNum(meta.controller_period_s) << ",\"pods\":[";
  for (size_t i = 0; i < meta.pods.size(); ++i) {
    out << (i ? "," : "") << '"' << JsonEscape(meta.pods[i]) << '"';
  }
  out << "],\"events_total\":" << recording.events_total
      << ",\"events_dropped\":" << recording.events_dropped << "}\n";

  for (const ObsEvent& event : recording.events) {
    out << "{\"type\":\"event\",\"t\":" << JsonNum(event.time_s)
        << ",\"machine\":" << event.machine
        << ",\"k\":" << static_cast<int>(event.kind)
        << ",\"code\":" << static_cast<int>(event.code)
        << ",\"detail\":" << static_cast<int>(event.detail) << ",\"a\":" << JsonNum(event.a)
        << ",\"b\":" << JsonNum(event.b) << ",\"c\":" << JsonNum(event.c)
        << ",\"d\":" << JsonNum(event.d) << ",\"label\":\""
        << JsonEscape(std::string(ObsKindName(event.kind)) + " " + CodeName(event))
        << "\"}\n";
  }

  for (const auto& metric : recording.metrics) {
    out << "{\"type\":\"metric\",\"name\":\"" << JsonEscape(metric.name)
        << "\",\"mtype\":" << static_cast<int>(metric.type)
        << ",\"q\":" << JsonNum(metric.quantile) << ",\"obs\":" << metric.observations
        << ",\"current\":" << JsonNum(metric.current) << ",\"points\":[";
    const auto& points = metric.timeline.points();
    for (size_t i = 0; i < points.size(); ++i) {
      out << (i ? "," : "") << '[' << JsonNum(points[i].time) << ',' << JsonNum(points[i].value)
          << ']';
    }
    out << "]}\n";
  }
  return out.str();
}

Recording FromJsonl(const std::string& jsonl) {
  Recording recording;
  RecordingMeta& meta = recording.meta;
  bool saw_meta = false;
  std::string text;
  JsonValue line;
  const auto fail = [&text](const std::string& what) {
    throw std::runtime_error("recording JSONL: " + what + " in: " + text);
  };
  // Reads field `key` of the current line into *out; false when absent. A
  // field of the wrong type, or an integer outside its type, throws.
  const auto get = [&](const char* key, auto* out) {
    const JsonValue* value = line.Find(key);
    if (value != nullptr && !Read(*value, out)) {
      fail(std::string("field '") + key + "' has the wrong type or range");
    }
    return value != nullptr;
  };
  const auto need = [&](const char* key, auto* out) {
    if (!get(key, out)) {
      fail(std::string("missing field '") + key + "'");
    }
  };
  std::istringstream in(jsonl);
  while (std::getline(in, text)) {
    if (text.empty()) {
      continue;
    }
    std::string error;
    if (!ParseJson(text, &line, &error) || !line.is_object()) {
      fail(error.empty() ? "line is not a JSON object" : error);
    }
    std::string type;
    need("type", &type);
    if (type == "meta") {
      saw_meta = true;
      get("app", &meta.app);
      get("be", &meta.be);
      get("controller", &meta.controller);
      get("seed", &meta.seed);
      get("sla_ms", &meta.sla_ms);
      get("period_s", &meta.controller_period_s);
      get("pods", &meta.pods);
      get("events_total", &recording.events_total);
      get("events_dropped", &recording.events_dropped);
    } else if (type == "event") {
      ObsEvent event;
      uint8_t kind = 0;
      need("t", &event.time_s);
      need("machine", &event.machine);
      need("k", &kind);
      if (kind >= kObsKindCount) {
        fail("unknown event kind " + std::to_string(kind));
      }
      event.kind = static_cast<ObsKind>(kind);
      need("code", &event.code);
      need("detail", &event.detail);
      need("a", &event.a);
      need("b", &event.b);
      need("c", &event.c);
      need("d", &event.d);
      recording.events.push_back(event);
    } else if (type == "metric") {
      MetricsRegistry::Metric metric;
      uint8_t metric_type = 0;
      need("name", &metric.name);
      if (get("mtype", &metric_type)) {
        metric.type = static_cast<MetricType>(metric_type);
      }
      get("q", &metric.quantile);
      get("obs", &metric.observations);
      get("current", &metric.current);
      get("points", &metric.timeline);
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
      << JsonEscape(recording.meta.app) << "\",\"be\":\"" << JsonEscape(recording.meta.be)
      << "\",\"controller\":\"" << JsonEscape(recording.meta.controller)
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
         << JsonEscape(recording.meta.pods[static_cast<size_t>(pod)]) << "\"}}";
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
        line << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":" << JsonNum(ts)
             << ",\"dur\":" << JsonNum(decision_us) << ",\"cat\":\"decision\",\"name\":\""
             << JsonEscape(CodeName(event)) << "\",\"args\":{\"phase\":\""
             << DetailName(event) << "\",\"load\":" << JsonNum(event.a)
             << ",\"slack\":" << JsonNum(event.b) << ",\"loadlimit\":" << JsonNum(event.c)
             << ",\"slacklimit\":" << JsonNum(event.d) << "}}";
        break;
      case ObsKind::kActuation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":2,\"ts\":" << JsonNum(ts)
             << ",\"cat\":\"actuation\",\"name\":\"" << JsonEscape(CodeName(event))
             << (event.detail != 0 ? "" : " FAILED") << "\",\"args\":{\"a\":" << JsonNum(event.a)
             << ",\"b\":" << JsonNum(event.b) << "}}";
        break;
      case ObsKind::kFault:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << JsonNum(ts)
             << ",\"cat\":\"fault\",\"name\":\"" << JsonEscape(CodeName(event)) << ' '
             << DetailName(event) << "\",\"args\":{\"magnitude\":" << JsonNum(event.a)
             << ",\"duration_s\":" << JsonNum(event.b) << "}}";
        break;
      case ObsKind::kSloViolation:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << JsonNum(ts)
             << ",\"cat\":\"slo\",\"name\":\"SLO violation (" << CodeName(event)
             << ")\",\"args\":{\"slack\":" << JsonNum(event.a)
             << ",\"tail_ms\":" << JsonNum(event.b) << "}}";
        break;
      case ObsKind::kBeLifecycle:
        line << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << JsonNum(ts)
             << ",\"cat\":\"be\",\"name\":\"be " << CodeName(event)
             << "\",\"args\":{\"count\":" << JsonNum(event.a) << "}}";
        break;
      case ObsKind::kPlacement:
        line << "{\"ph\":\"i\",\"s\":\"" << (event.machine >= 0 ? 'p' : 'g')
             << "\",\"pid\":" << pid << ",\"tid\":3,\"ts\":" << JsonNum(ts)
             << ",\"cat\":\"placement\",\"name\":\"place " << CodeName(event)
             << "\",\"args\":{\"group\":" << JsonNum(event.a) << ",\"pods\":" << JsonNum(event.b)
             << ",\"score\":" << JsonNum(event.c) << ",\"load\":" << JsonNum(event.d) << "}}";
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
      int pod = 0;
      if (dot != std::string::npos &&
          ParseExact(std::string_view(metric.name).substr(3, dot - 3), &pod)) {
        pid = pod + 1;
      }
    }
    for (const auto& point : metric.timeline.points()) {
      std::ostringstream line;
      line << "{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << JsonNum(point.time * 1e6)
           << ",\"name\":\"" << JsonEscape(metric.name) << "\",\"args\":{\"value\":"
           << JsonNum(point.value) << "}}";
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
    out << ExactNum(time);
    for (const auto& metric : recording.metrics) {
      const auto& points = metric.timeline.points();
      out << ',';
      if (row < points.size()) {
        out << ExactNum(points[row].value);
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
  std::string text;
  if (!ReadFile(path, &text)) {
    throw std::runtime_error("cannot read recording: " + path);
  }
  return FromJsonl(text);
}

}  // namespace rhythm
