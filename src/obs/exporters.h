// Recording exporters and the JSONL loader.
//
// Three formats, all dependency-free:
//   * JSONL   — one self-describing JSON object per line ("meta", then every
//               "event", then every "metric" timeline). This is the
//               round-trip format: FromJsonl(ToJsonl(r)) reproduces the
//               recording, and tools/obs_query consumes it.
//   * Perfetto/Chrome trace-event JSON — open in https://ui.perfetto.dev or
//               chrome://tracing. One process track per machine, controller
//               decisions as duration slices, faults/actuations/SLO breaches
//               as instants, metric timelines as counter tracks.
//   * CSV     — metric timelines as a plain table (time column + one column
//               per metric) for spreadsheets / gnuplot.
//
// Doubles are printed with %.17g so values survive the round trip exactly.
// JSON has no NaN or infinity: the JSON formats write them as null, which
// FromJsonl reads back as NaN (so ±inf loads as NaN). CSV keeps nan/inf.

#ifndef RHYTHM_SRC_OBS_EXPORTERS_H_
#define RHYTHM_SRC_OBS_EXPORTERS_H_

#include <string>

#include "src/obs/recording.h"

namespace rhythm {

// In-memory serializers (tests use these; the Write* wrappers add file IO).
std::string ToJsonl(const Recording& recording);
std::string ToPerfettoJson(const Recording& recording);
std::string ToMetricsCsv(const Recording& recording);

// Parses the JSONL format back into a Recording, each line with the strict
// JSON reader (src/common/json.h). Throws std::runtime_error with line
// context on malformed input. Lines of unknown "type" are skipped so the
// format can grow forward-compatibly.
Recording FromJsonl(const std::string& jsonl);

// File wrappers; return false on IO failure (they do not throw for IO).
bool WriteJsonl(const Recording& recording, const std::string& path);
bool WritePerfettoTrace(const Recording& recording, const std::string& path);
bool WriteMetricsCsv(const Recording& recording, const std::string& path);

// Writes `recording` to every export path `obs` names (nothing when obs is
// disabled) — the one export step of trials and cluster runs. Throws
// std::runtime_error naming the first path it cannot write.
void ExportRecording(const Recording& recording, const ObsOptions& obs);

// Loads a JSONL recording from disk; throws std::runtime_error when the file
// cannot be read or parsed.
Recording LoadJsonl(const std::string& path);

// Human-readable one-line description of an event ("t=42.0 machine=1
// decision AllowBEGrowth load=0.45 slack=0.31 ..."); shared by obs_query and
// the diagnostics.
std::string DescribeEvent(const ObsEvent& event);

}  // namespace rhythm

#endif  // RHYTHM_SRC_OBS_EXPORTERS_H_
