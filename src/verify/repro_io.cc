#include "src/verify/repro_io.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "src/bemodel/be_job_spec.h"
#include "src/common/file_io.h"
#include "src/common/json.h"
#include "src/fault/fault_schedule_io.h"
#include "src/workload/load_profile.h"

namespace rhythm {

namespace {

int ParseEnumInt(const std::string& value, int limit, const char* key) {
  std::istringstream in(value);
  int parsed = -1;
  if (!(in >> parsed) || parsed < 0 || parsed >= limit) {
    throw std::invalid_argument("ChaosRepro: directive '" + std::string(key) +
                                "' out of range: " + value);
  }
  return parsed;
}

double ParseDouble(const std::string& value, const char* key) {
  std::istringstream in(value);
  double parsed = 0.0;
  if (!(in >> parsed)) {
    throw std::invalid_argument("ChaosRepro: directive '" + std::string(key) +
                                "' is not a number: " + value);
  }
  return parsed;
}

uint64_t ParseU64(const std::string& value, const char* key) {
  std::istringstream in(value);
  uint64_t parsed = 0;
  if (!(in >> parsed)) {
    throw std::invalid_argument("ChaosRepro: directive '" + std::string(key) +
                                "' is not an unsigned integer: " + value);
  }
  return parsed;
}

}  // namespace

RunRequest ReproToRequest(const ChaosRepro& repro) {
  RunRequest request;
  request.app = repro.app;
  request.be = repro.be;
  request.controller = repro.controller;
  request.seed = repro.run_seed;
  request.load = repro.load;
  request.warmup_s = repro.warmup_s;
  request.measure_s = repro.measure_s;
  request.faults = std::make_shared<FaultSchedule>(repro.schedule);
  if (repro.has_diurnal) {
    request.profile = std::make_shared<DiurnalTrace>(repro.warmup_s + repro.measure_s,
                                                     repro.diurnal_min, repro.diurnal_max);
  }
  if (repro.has_pressure) {
    request.custom_be = std::make_shared<BeJobSpec>(MakeAdversarialBeSpec(repro.pressure));
  }
  request.hardening = repro.hardening;
  request.verify.mode = InvariantMode::kCollect;
  request.verify.synthetic_tail_tripwire_ms = repro.tripwire_ms;
  request.verify.recovery_horizon_s = repro.recovery_horizon_s;
  request.label = std::string("repro ") + LcAppKindName(repro.app) +
                  " seed=" + std::to_string(repro.run_seed);
  return request;
}

ChaosRepro ReproFromRequest(const RunRequest& request) {
  if (request.faults == nullptr) {
    throw std::invalid_argument("ReproFromRequest: the request carries no fault schedule");
  }
  ChaosRepro repro;
  repro.app = request.app;
  repro.be = request.be;
  repro.controller = request.controller;
  repro.run_seed = request.seed;
  repro.load = request.load;
  repro.warmup_s = request.warmup_s;
  repro.measure_s = request.measure_s;
  repro.tripwire_ms = request.verify.synthetic_tail_tripwire_ms;
  repro.recovery_horizon_s = request.verify.recovery_horizon_s;
  repro.hardening = request.hardening;
  if (request.custom_be != nullptr) {
    repro.has_pressure = true;
    repro.pressure = request.custom_be->pressure;
  }
  // A diurnal profile cannot be recovered from the abstract LoadProfile*;
  // callers that drove the run with one set has_diurnal themselves (the
  // adversary corpus does).
  repro.schedule = *request.faults;
  return repro;
}

std::string ChaosReproToText(const ChaosRepro& repro) {
  std::ostringstream out;
  out << "# rhythm-fault-schedule v1\n";
  out << "# chaos repro: " << LcAppKindName(repro.app) << " + " << BeJobKindName(repro.be)
      << " under " << ControllerKindName(repro.controller) << "\n";
  out << "#! app " << static_cast<int>(repro.app) << "\n";
  out << "#! be " << static_cast<int>(repro.be) << "\n";
  out << "#! controller " << static_cast<int>(repro.controller) << "\n";
  out << "#! run_seed " << repro.run_seed << "\n";
  out << "#! load " << ExactNum(repro.load) << "\n";
  out << "#! warmup_s " << ExactNum(repro.warmup_s) << "\n";
  out << "#! measure_s " << ExactNum(repro.measure_s) << "\n";
  // An infinite tripwire (monitor default) is expressed by omission — stream
  // round-trips of "inf" are not portable.
  if (std::isfinite(repro.tripwire_ms)) {
    out << "#! tripwire_ms " << ExactNum(repro.tripwire_ms) << "\n";
  }
  out << "#! recovery_horizon_s " << ExactNum(repro.recovery_horizon_s) << "\n";
  if (repro.has_diurnal) {
    out << "#! diurnal " << ExactNum(repro.diurnal_min) << ' ' << ExactNum(repro.diurnal_max)
        << "\n";
  }
  if (repro.has_pressure) {
    out << "#! pressure " << ExactNum(repro.pressure.cpu) << ' ' << ExactNum(repro.pressure.llc)
        << ' ' << ExactNum(repro.pressure.dram) << ' ' << ExactNum(repro.pressure.net) << "\n";
  }
  if (repro.hardening.readmission_jitter) {
    out << "#! harden_jitter 1\n";
  }
  if (repro.hardening.oscillation_guard) {
    out << "#! harden_osc 1\n";
  }
  if (repro.has_expectations) {
    out << "#! expect_slack_ticks " << repro.expect_slack_ticks << "\n";
    out << "#! expect_worst_tail_ratio " << ExactNum(repro.expect_worst_tail_ratio) << "\n";
    out << "#! expect_be_throughput " << ExactNum(repro.expect_be_throughput) << "\n";
  }
  out << "# kind pod start_s duration_s magnitude\n";
  for (const FaultEvent& event : repro.schedule.events) {
    out << FaultKindName(event.kind) << ' ' << event.pod << ' ' << ExactNum(event.start_s) << ' '
        << ExactNum(event.duration_s) << ' ' << ExactNum(event.magnitude) << '\n';
  }
  return out.str();
}

ChaosRepro ChaosReproFromText(const std::string& text) {
  ChaosRepro repro;
  // Event lines first (the schedule parser skips every '#' line, directives
  // included), then the directives layered on top.
  repro.schedule = FaultScheduleFromText(text);

  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line.compare(first, 2, "#!") != 0) {
      continue;
    }
    std::istringstream fields(line.substr(first + 2));
    std::string key, value;
    if (!(fields >> key >> value)) {
      throw std::invalid_argument("ChaosRepro: line " + std::to_string(line_number) +
                                  " is not '#! key value': " + line);
    }
    if (key == "app") {
      repro.app = static_cast<LcAppKind>(ParseEnumInt(value, 6, "app"));
    } else if (key == "be") {
      repro.be = static_cast<BeJobKind>(ParseEnumInt(value, 9, "be"));
    } else if (key == "controller") {
      repro.controller = static_cast<ControllerKind>(ParseEnumInt(value, 3, "controller"));
    } else if (key == "run_seed") {
      repro.run_seed = ParseU64(value, "run_seed");
    } else if (key == "load") {
      repro.load = ParseDouble(value, "load");
    } else if (key == "warmup_s") {
      repro.warmup_s = ParseDouble(value, "warmup_s");
    } else if (key == "measure_s") {
      repro.measure_s = ParseDouble(value, "measure_s");
    } else if (key == "tripwire_ms") {
      repro.tripwire_ms = ParseDouble(value, "tripwire_ms");
    } else if (key == "recovery_horizon_s") {
      repro.recovery_horizon_s = ParseDouble(value, "recovery_horizon_s");
    } else if (key == "diurnal") {
      std::string max_value;
      if (!(fields >> max_value)) {
        throw std::invalid_argument("ChaosRepro: line " + std::to_string(line_number) +
                                    " needs '#! diurnal <min> <max>'");
      }
      repro.has_diurnal = true;
      repro.diurnal_min = ParseDouble(value, "diurnal");
      repro.diurnal_max = ParseDouble(max_value, "diurnal");
    } else if (key == "pressure") {
      std::string llc, dram, net;
      if (!(fields >> llc >> dram >> net)) {
        throw std::invalid_argument("ChaosRepro: line " + std::to_string(line_number) +
                                    " needs '#! pressure <cpu> <llc> <dram> <net>'");
      }
      repro.has_pressure = true;
      repro.pressure.cpu = ParseDouble(value, "pressure");
      repro.pressure.llc = ParseDouble(llc, "pressure");
      repro.pressure.dram = ParseDouble(dram, "pressure");
      repro.pressure.net = ParseDouble(net, "pressure");
    } else if (key == "harden_jitter") {
      repro.hardening.readmission_jitter = ParseEnumInt(value, 2, "harden_jitter") != 0;
    } else if (key == "harden_osc") {
      repro.hardening.oscillation_guard = ParseEnumInt(value, 2, "harden_osc") != 0;
    } else if (key == "expect_slack_ticks") {
      repro.has_expectations = true;
      repro.expect_slack_ticks = ParseU64(value, "expect_slack_ticks");
    } else if (key == "expect_worst_tail_ratio") {
      repro.has_expectations = true;
      repro.expect_worst_tail_ratio = ParseDouble(value, "expect_worst_tail_ratio");
    } else if (key == "expect_be_throughput") {
      repro.has_expectations = true;
      repro.expect_be_throughput = ParseDouble(value, "expect_be_throughput");
    } else {
      throw std::invalid_argument("ChaosRepro: line " + std::to_string(line_number) +
                                  " has unknown directive '" + key + "'");
    }
  }
  return repro;
}

void SaveChaosRepro(const ChaosRepro& repro, const std::string& path) {
  if (!WriteFile(path, ChaosReproToText(repro))) {
    throw std::runtime_error("SaveChaosRepro: cannot write " + path);
  }
}

ChaosRepro LoadChaosRepro(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    throw std::runtime_error("LoadChaosRepro: cannot open " + path);
  }
  return ChaosReproFromText(text);
}

}  // namespace rhythm
