#include "src/fault/fault_schedule_io.h"

#include <sstream>
#include <stdexcept>

#include "src/common/file_io.h"
#include "src/common/json.h"

namespace rhythm {

namespace {

constexpr FaultKind kAllKinds[] = {
    FaultKind::kPodCrash,        FaultKind::kTelemetryDropout,  FaultKind::kTelemetryFreeze,
    FaultKind::kActuationDrop,   FaultKind::kBeInstanceFailure, FaultKind::kLoadSpike,
    FaultKind::kBeAdmissionHold, FaultKind::kMachineFailure,    FaultKind::kMachineRestart,
};

}  // namespace

bool ParseFaultKind(const std::string& name, FaultKind* kind) {
  for (FaultKind candidate : kAllKinds) {
    if (name == FaultKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::string FaultScheduleToText(const FaultSchedule& schedule) {
  std::ostringstream out;
  out << "# rhythm-fault-schedule v1\n";
  out << "# kind pod start_s duration_s magnitude\n";
  for (const FaultEvent& event : schedule.events) {
    out << FaultKindName(event.kind) << ' ' << event.pod << ' ' << ExactNum(event.start_s) << ' '
        << ExactNum(event.duration_s) << ' ' << ExactNum(event.magnitude) << '\n';
  }
  return out.str();
}

FaultSchedule FaultScheduleFromText(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip trailing CR (files may round-trip through CRLF tooling).
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind_name;
    FaultEvent event;
    if (!(fields >> kind_name >> event.pod >> event.start_s >> event.duration_s >>
          event.magnitude)) {
      throw std::invalid_argument("FaultScheduleFromText: line " + std::to_string(line_number) +
                                  " is not 'kind pod start duration magnitude': " + line);
    }
    if (!ParseFaultKind(kind_name, &event.kind)) {
      throw std::invalid_argument("FaultScheduleFromText: line " + std::to_string(line_number) +
                                  " has unknown fault kind '" + kind_name + "'");
    }
    std::string rest;
    if (fields >> rest) {
      throw std::invalid_argument("FaultScheduleFromText: line " + std::to_string(line_number) +
                                  " has trailing content '" + rest + "'");
    }
    schedule.Add(event);
  }
  return schedule;
}

void SaveFaultSchedule(const FaultSchedule& schedule, const std::string& path) {
  if (!WriteFile(path, FaultScheduleToText(schedule))) {
    throw std::runtime_error("SaveFaultSchedule: cannot write " + path);
  }
}

FaultSchedule LoadFaultSchedule(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    throw std::runtime_error("LoadFaultSchedule: cannot open " + path);
  }
  return FaultScheduleFromText(text);
}

}  // namespace rhythm
