// Text round-trip for FaultSchedule: the interchange format behind minimized
// chaos repros (tests/fault/repros/) and the chaos_fuzz CLI's --repro-out.
//
// One event per line, fields in schedule order:
//
//   # rhythm-fault-schedule v1
//   PodCrash 1 30 20 0.3            <- kind pod start_s duration_s magnitude
//   LoadSpike 0 55 20 0.25
//
// Doubles are printed with %.17g so a schedule survives Save/Load
// bit-exactly (the same trial replays bit-identically from the file). Blank
// lines and lines starting with '#' are ignored, which lets repro files
// carry human-readable context (and lets repro_io layer trial metadata on
// top of the same format).

#ifndef RHYTHM_SRC_FAULT_FAULT_SCHEDULE_IO_H_
#define RHYTHM_SRC_FAULT_FAULT_SCHEDULE_IO_H_

#include <string>

#include "src/fault/fault_schedule.h"

namespace rhythm {

// Serializes the schedule (in insertion order) to the text format above.
std::string FaultScheduleToText(const FaultSchedule& schedule);

// Parses the text format; throws std::invalid_argument naming the offending
// line on any malformed input (unknown kind, missing field, trailing junk).
FaultSchedule FaultScheduleFromText(const std::string& text);

// File variants. Save writes through WriteFile and throws
// std::runtime_error naming the path when the file cannot be written; Load
// throws std::runtime_error when the file cannot be read.
void SaveFaultSchedule(const FaultSchedule& schedule, const std::string& path);
FaultSchedule LoadFaultSchedule(const std::string& path);

// Inverse of FaultKindName. Returns true and sets `kind` on a match.
bool ParseFaultKind(const std::string& name, FaultKind* kind);

}  // namespace rhythm

#endif  // RHYTHM_SRC_FAULT_FAULT_SCHEDULE_IO_H_
