#include "src/serve/whatif.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/common/json.h"
#include "src/control/cluster_supervisor.h"
#include "src/fault/fault_schedule_io.h"
#include "src/place/interference_score.h"
#include "src/place/placement_policy.h"

namespace rhythm {
namespace {

// "E-commerce" -> "ecommerce": the normalization behind name lookup.
std::string Normalize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

// Largest cluster a query may describe. The engine and /v1/placements
// allocate per-machine state up front, so an unbounded count from a client
// would size those allocations.
constexpr int64_t kMaxMachines = 1000000;
// Most LC groups a query may demand, per lc_demand entry and summed over
// all of them: group expansion allocates one entry per group.
constexpr int64_t kMaxGroups = 1000000;

[[noreturn]] void Reject(const std::string& what) {
  throw std::invalid_argument("whatif: " + what);
}

// An integer field narrowed to int, checked in int64_t first (IntOr
// saturates, so every magnitude reaches the check).
int IntField(const JsonValue& object, const std::string& key, int fallback,
             const char* context) {
  const int64_t value = object.IntOr(key, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    Reject(std::string(context) + ": \"" + key + "\" is out of range");
  }
  return static_cast<int>(value);
}

// A seed: any uint64_t integer literal exactly; any other number as IntOr
// reads it, converted to uint64_t.
uint64_t SeedField(const JsonValue& object, const std::string& key,
                   uint64_t fallback) {
  const JsonValue* value = object.Find(key);
  uint64_t seed = fallback;
  if (value != nullptr && value->is_number() && !value->GetInt(&seed)) {
    seed = static_cast<uint64_t>(object.IntOr(key, 0));
  }
  return seed;
}

// Typos in a what-if body should come back as 422s naming the key, not be
// silently ignored — a query that "works" while dropping its fault schedule
// is worse than one that fails loudly.
void RejectUnknownKeys(const JsonValue& object,
                       const std::vector<std::string>& allowed,
                       const char* context) {
  for (const auto& [key, value] : object.object) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      Reject(std::string(context) + ": unknown key \"" + key + "\"");
    }
  }
}

double RequireNumber(const JsonValue& object, const std::string& key,
                     const char* context) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    Reject(std::string(context) + ": \"" + key + "\" must be a number");
  }
  return value->number;
}

std::shared_ptr<const FaultSchedule> ParseFaults(const JsonValue& array,
                                                 const char* context) {
  if (!array.is_array()) {
    Reject(std::string(context) + ": \"faults\" must be an array");
  }
  FaultSchedule schedule;
  for (const JsonValue& entry : array.array) {
    if (!entry.is_object()) {
      Reject(std::string(context) + ": fault entries must be objects");
    }
    RejectUnknownKeys(entry,
                      {"kind", "pod", "machine", "start_s", "duration_s",
                       "magnitude"},
                      "fault");
    const std::string kind_name = entry.StringOr("kind", "");
    FaultEvent event;
    if (!ParseFaultKind(kind_name, &event.kind)) {
      Reject("fault: unknown kind \"" + kind_name + "\"");
    }
    // "machine" is the cluster-scope spelling of the same field.
    event.pod = IntField(entry, "pod", IntField(entry, "machine", 0, "fault"),
                         "fault");
    event.start_s = entry.NumberOr("start_s", 0.0);
    event.duration_s = entry.NumberOr("duration_s", 0.0);
    event.magnitude = entry.NumberOr("magnitude", 0.0);
    schedule.Add(event);
  }
  if (schedule.events.empty()) {
    return nullptr;
  }
  return std::make_shared<FaultSchedule>(std::move(schedule));
}

ControlHardening ParseHardening(const JsonValue& object) {
  if (!object.is_object()) {
    Reject("\"hardening\" must be an object");
  }
  RejectUnknownKeys(object, {"readmission_jitter", "oscillation_guard"},
                    "hardening");
  ControlHardening hardening;
  hardening.readmission_jitter = object.BoolOr("readmission_jitter", false);
  hardening.oscillation_guard = object.BoolOr("oscillation_guard", false);
  return hardening;
}

std::shared_ptr<const LoadProfile> ParseLoadProfile(const JsonValue& object) {
  if (!object.is_object()) {
    Reject("\"load_profile\" must be an object");
  }
  RejectUnknownKeys(object,
                    {"kind", "load", "duration_s", "min_load", "max_load"},
                    "load_profile");
  const std::string kind = Normalize(object.StringOr("kind", ""));
  if (kind == "constant") {
    return std::make_shared<ConstantLoad>(
        RequireNumber(object, "load", "load_profile"));
  }
  if (kind == "diurnal") {
    // DiurnalTrace's preconditions, checked here so a body answers 422
    // instead of aborting the process.
    const double duration_s = RequireNumber(object, "duration_s", "load_profile");
    const double min_load = RequireNumber(object, "min_load", "load_profile");
    const double max_load = RequireNumber(object, "max_load", "load_profile");
    const char* bad =
        duration_s <= 0.0     ? "\"duration_s\" must be positive"
        : min_load < 0.0      ? "\"min_load\" must be at least 0"
        : max_load > 1.0      ? "\"max_load\" must be at most 1"
        : min_load > max_load ? "\"min_load\" must not exceed \"max_load\""
                              : nullptr;
    if (bad != nullptr) {
      Reject(std::string("load_profile: ") + bad);
    }
    return std::make_shared<DiurnalTrace>(duration_s, min_load, max_load);
  }
  Reject("load_profile: kind must be \"constant\" or \"diurnal\"");
}

RunRequest ParseTrial(const JsonValue& body) {
  RejectUnknownKeys(body,
                    {"kind", "app", "be", "controller", "seed", "load",
                     "warmup_s", "measure_s", "label", "load_profile",
                     "faults", "thresholds", "hardening", "invariants"},
                    "trial");
  RunRequest request;
  const std::string app = body.StringOr("app", "");
  if (!app.empty() && !ParseLcAppKindName(app, &request.app)) {
    Reject("unknown app \"" + app + "\"");
  }
  const std::string be = body.StringOr("be", "");
  if (!be.empty() && !ParseBeJobKindName(be, &request.be)) {
    Reject("unknown be \"" + be + "\"");
  }
  const std::string controller = body.StringOr("controller", "");
  if (!controller.empty() &&
      !ParseControllerKindName(controller, &request.controller)) {
    Reject("unknown controller \"" + controller + "\"");
  }
  request.seed = SeedField(body, "seed", 11);
  request.load = body.NumberOr("load", request.load);
  request.warmup_s = body.NumberOr("warmup_s", request.warmup_s);
  request.measure_s = body.NumberOr("measure_s", request.measure_s);
  request.label = body.StringOr("label", "");
  if (const JsonValue* profile = body.Find("load_profile")) {
    request.profile = ParseLoadProfile(*profile);
  }
  if (const JsonValue* faults = body.Find("faults")) {
    request.faults = ParseFaults(*faults, "trial");
  }
  if (const JsonValue* hardening = body.Find("hardening")) {
    request.hardening = ParseHardening(*hardening);
  }
  if (const JsonValue* thresholds = body.Find("thresholds")) {
    if (!thresholds->is_array()) {
      Reject("\"thresholds\" must be an array of {loadlimit, slacklimit}");
    }
    for (const JsonValue& entry : thresholds->array) {
      if (!entry.is_object()) {
        Reject("threshold entries must be objects");
      }
      RejectUnknownKeys(entry, {"loadlimit", "slacklimit"}, "thresholds");
      ServpodThresholds pod;
      pod.loadlimit = RequireNumber(entry, "loadlimit", "thresholds");
      pod.slacklimit = RequireNumber(entry, "slacklimit", "thresholds");
      request.thresholds.push_back(pod);
    }
  }
  if (const JsonValue* invariants = body.Find("invariants")) {
    const std::string mode =
        invariants->is_string() ? Normalize(invariants->string) : "";
    if (mode == "collect") {
      request.verify.mode = InvariantMode::kCollect;
    } else if (mode != "off") {
      Reject("\"invariants\" must be \"off\" or \"collect\"");
    }
  }
  return request;
}

ClusterSpec ParseClusterSpec(const JsonValue& body) {
  const int64_t machines_in = body.IntOr("machines", 32);
  if (machines_in <= 0 || machines_in > kMaxMachines) {
    Reject("\"machines\" must be in [1, " + std::to_string(kMaxMachines) + "]");
  }
  const int machines = static_cast<int>(machines_in);
  if (body.BoolOr("synthetic", false)) {
    const uint64_t spec_seed =
        SeedField(body, "synthetic_seed", SeedField(body, "seed", 11));
    return SyntheticClusterSpec(machines, spec_seed);
  }
  const JsonValue* demand = body.Find("lc_demand");
  if (demand == nullptr) {
    return DefaultEvalClusterSpec(machines);
  }
  if (!demand->is_array() || demand->array.empty()) {
    Reject("\"lc_demand\" must be a non-empty array");
  }
  ClusterSpec spec;
  spec.machines = machines;
  int64_t total_groups = 0;
  for (const JsonValue& entry : demand->array) {
    if (!entry.is_object()) {
      Reject("lc_demand entries must be objects");
    }
    RejectUnknownKeys(entry, {"app", "count", "load"}, "lc_demand");
    LcGroupDemand group;
    const std::string app = entry.StringOr("app", "");
    if (!ParseLcAppKindName(app, &group.app)) {
      Reject("lc_demand: unknown app \"" + app + "\"");
    }
    const int64_t count = entry.IntOr("count", 1);
    if (count < 0 || count > kMaxGroups) {
      Reject("lc_demand: \"count\" must be in [0, " +
             std::to_string(kMaxGroups) + "]");
    }
    total_groups += count;
    if (total_groups > kMaxGroups) {
      Reject("lc_demand: counts sum to more than " +
             std::to_string(kMaxGroups) + " groups");
    }
    group.count = static_cast<int>(count);
    group.load = entry.NumberOr("load", group.load);
    spec.lc_demand.push_back(group);
  }
  if (const JsonValue* backlog = body.Find("be_backlog")) {
    if (!backlog->is_array()) {
      Reject("\"be_backlog\" must be an array");
    }
    for (const JsonValue& entry : backlog->array) {
      if (!entry.is_object()) {
        Reject("be_backlog entries must be objects");
      }
      RejectUnknownKeys(entry, {"be", "weight"}, "be_backlog");
      BeBacklogShare share;
      const std::string be = entry.StringOr("be", "");
      if (!ParseBeJobKindName(be, &share.be)) {
        Reject("be_backlog: unknown be \"" + be + "\"");
      }
      share.weight = entry.NumberOr("weight", share.weight);
      spec.be_backlog.push_back(share);
    }
  }
  return spec;
}

ClusterRunRequest ParseCluster(const JsonValue& body) {
  RejectUnknownKeys(body,
                    {"kind", "machines", "synthetic", "synthetic_seed",
                     "lc_demand", "be_backlog", "policy", "controller", "seed",
                     "warmup_s", "measure_s", "epochs", "epoch_load_scale",
                     "faults", "supervisor", "hardening", "label",
                     "include_groups"},
                    "cluster");
  ClusterRunRequest request;
  request.spec = ParseClusterSpec(body);
  request.policy = body.StringOr("policy", request.policy);
  const std::string controller = body.StringOr("controller", "");
  if (!controller.empty() &&
      !ParseControllerKindName(controller, &request.controller)) {
    Reject("unknown controller \"" + controller + "\"");
  }
  request.seed = SeedField(body, "seed", 11);
  request.warmup_s = body.NumberOr("warmup_s", request.warmup_s);
  request.measure_s = body.NumberOr("measure_s", request.measure_s);
  request.epochs = IntField(body, "epochs", request.epochs, "cluster");
  request.label = body.StringOr("label", "");
  if (const JsonValue* scales = body.Find("epoch_load_scale")) {
    if (!scales->is_array()) {
      Reject("\"epoch_load_scale\" must be an array of numbers");
    }
    for (const JsonValue& entry : scales->array) {
      if (!entry.is_number()) {
        Reject("\"epoch_load_scale\" must be an array of numbers");
      }
      request.epoch_load_scale.push_back(entry.number);
    }
  }
  if (const JsonValue* hardening = body.Find("hardening")) {
    request.hardening = ParseHardening(*hardening);
  }
  if (const JsonValue* faults = body.Find("faults")) {
    request.faults = ParseFaults(*faults, "cluster");
  }
  if (const JsonValue* supervisor = body.Find("supervisor")) {
    if (supervisor->is_bool()) {
      request.supervisor.enabled = supervisor->boolean;
    } else if (supervisor->is_object()) {
      RejectUnknownKeys(*supervisor,
                        {"enabled", "migration_budget",
                         "readmission_backoff_s", "degraded_dead_fraction"},
                        "supervisor");
      request.supervisor.enabled = supervisor->BoolOr("enabled", true);
      if (const JsonValue* budget = supervisor->Find("migration_budget")) {
        if (!budget->is_number()) {
          Reject("supervisor: \"migration_budget\" must be a number");
        }
        request.supervisor.migration_budget =
            IntField(*supervisor, "migration_budget", 0, "supervisor");
      }
      request.supervisor.readmission_backoff_s = supervisor->NumberOr(
          "readmission_backoff_s", request.supervisor.readmission_backoff_s);
      request.supervisor.degraded_dead_fraction = supervisor->NumberOr(
          "degraded_dead_fraction", request.supervisor.degraded_dead_fraction);
    } else {
      Reject("\"supervisor\" must be a bool or an object");
    }
  }
  return request;
}

}  // namespace

bool ParseLcAppKindName(const std::string& name, LcAppKind* out) {
  const std::string wanted = Normalize(name);
  for (LcAppKind kind : AllLcAppKinds()) {
    if (Normalize(LcAppKindName(kind)) == wanted) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ParseBeJobKindName(const std::string& name, BeJobKind* out) {
  const std::string wanted = Normalize(name);
  for (BeJobKind kind : AllBeJobKinds()) {
    if (Normalize(BeJobKindName(kind)) == wanted) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ParseControllerKindName(const std::string& name, ControllerKind* out) {
  const std::string wanted = Normalize(name);
  for (ControllerKind kind :
       {ControllerKind::kNone, ControllerKind::kRhythm, ControllerKind::kHeracles}) {
    if (Normalize(ControllerKindName(kind)) == wanted) {
      *out = kind;
      return true;
    }
  }
  return false;
}

WhatIfQuery ParseWhatIfQuery(const JsonValue& body) {
  if (!body.is_object()) {
    Reject("body must be a JSON object");
  }
  WhatIfQuery query;
  const std::string kind = Normalize(body.StringOr("kind", "trial"));
  if (kind == "trial") {
    query.kind = WhatIfQuery::Kind::kTrial;
    query.trial = ParseTrial(body);
  } else if (kind == "cluster") {
    query.kind = WhatIfQuery::Kind::kCluster;
    query.cluster = ParseCluster(body);
    query.include_groups = body.BoolOr("include_groups", false);
  } else {
    Reject("\"kind\" must be \"trial\" or \"cluster\"");
  }
  return query;
}

std::string RunSummaryJson(const RunSummary& summary) {
  JsonWriter w;
  w.BeginObject()
      .Key("emu").Number(summary.emu)
      .Key("lc_throughput").Number(summary.lc_throughput)
      .Key("be_throughput").Number(summary.be_throughput)
      .Key("cpu_util").Number(summary.cpu_util)
      .Key("membw_util").Number(summary.membw_util)
      .Key("worst_tail_ms").Number(summary.worst_tail_ms)
      .Key("worst_tail_ratio").Number(summary.worst_tail_ratio)
      .Key("sla_violations").UInt(summary.sla_violations)
      .Key("be_kills").UInt(summary.be_kills)
      .Key("crashes").UInt(summary.crashes)
      .Key("crash_be_losses").UInt(summary.crash_be_losses)
      .Key("be_withdrawals").UInt(summary.be_withdrawals)
      .Key("stale_ticks").UInt(summary.stale_ticks)
      .Key("failed_actuations").UInt(summary.failed_actuations)
      .Key("backoff_holds").UInt(summary.backoff_holds)
      .Key("jitter_holds").UInt(summary.jitter_holds)
      .Key("oscillation_trips").UInt(summary.oscillation_trips)
      .Key("slack_violation_ticks").UInt(summary.slack_violation_ticks)
      .Key("recovery_s").Number(summary.recovery_s)
      .Key("recovered").Bool(summary.recovered)
      .Key("invariant_violations_total").UInt(summary.invariant_violations_total)
      .Key("pods").BeginArray();
  for (const PodSummary& pod : summary.pods) {
    w.BeginObject()
        .Key("be_throughput").Number(pod.be_throughput)
        .Key("cpu_util").Number(pod.cpu_util)
        .Key("membw_util").Number(pod.membw_util)
        .Key("be_instances").Number(pod.be_instances)
        .EndObject();
  }
  w.EndArray().EndObject();
  return std::move(w).str();
}

std::string ClusterSummaryJson(const ClusterSummary& summary,
                               bool include_groups) {
  JsonWriter w;
  w.BeginObject()
      .Key("policy").String(summary.policy)
      .Key("machines").Int(summary.machines)
      .Key("machines_used").Int(summary.machines_used)
      .Key("epochs").Int(summary.epochs)
      .Key("groups_total").Int(summary.groups_total)
      .Key("groups_placed").Int(summary.groups_placed)
      .Key("groups_unplaced").Int(summary.groups_unplaced)
      .Key("solo_groups").Int(summary.solo_groups)
      .Key("emu").Number(summary.emu)
      .Key("lc_throughput").Number(summary.lc_throughput)
      .Key("be_throughput").Number(summary.be_throughput)
      .Key("cpu_util").Number(summary.cpu_util)
      .Key("membw_util").Number(summary.membw_util)
      .Key("sla_violations").UInt(summary.sla_violations)
      .Key("be_kills").UInt(summary.be_kills)
      .Key("slo_violation_rate").Number(summary.slo_violation_rate)
      .Key("worst_tail_ratio").Number(summary.worst_tail_ratio)
      .Key("placement_churn").Int(summary.placement_churn)
      .Key("machines_failed").Int(summary.machines_failed)
      .Key("machines_restarted").Int(summary.machines_restarted)
      .Key("machines_down_end").Int(summary.machines_down_end)
      .Key("groups_disrupted").Int(summary.groups_disrupted)
      .Key("groups_failed_over").Int(summary.groups_failed_over)
      .Key("groups_lost").Int(summary.groups_lost)
      .Key("pods_migrated").Int(summary.pods_migrated)
      .Key("down_group_seconds").Number(summary.down_group_seconds)
      .Key("worst_failover_latency_s").Number(summary.worst_failover_latency_s)
      .Key("degraded_barriers").Int(summary.degraded_barriers)
      .Key("cluster_invariant_violations_total")
      .UInt(summary.cluster_invariant_violations_total)
      .Key("per_app").BeginArray();
  for (const AppClusterStats& app : summary.per_app) {
    w.BeginObject()
        .Key("app").String(LcAppKindName(app.app))
        .Key("trials").Int(app.trials)
        .Key("unplaced").Int(app.unplaced)
        .Key("emu").Number(app.emu)
        .Key("lc_throughput").Number(app.lc_throughput)
        .Key("sla_violations").UInt(app.sla_violations)
        .Key("slo_violation_rate").Number(app.slo_violation_rate)
        .Key("worst_tail_ratio").Number(app.worst_tail_ratio)
        .EndObject();
  }
  w.EndArray();
  if (include_groups) {
    w.Key("groups").BeginArray();
    for (const GroupOutcome& group : summary.groups) {
      w.BeginObject()
          .Key("epoch").Int(group.epoch)
          .Key("group").Int(group.group)
          .Key("app").String(LcAppKindName(group.app))
          .Key("placed").Bool(group.placed)
          .Key("solo").Bool(group.run_solo)
          .Key("first_machine").Int(group.first_machine)
          .Key("pods").Int(group.pods)
          .Key("load").Number(group.load)
          .Key("score").Number(group.score)
          .Key("incarnation").Int(group.incarnation)
          .Key("start_s").Number(group.start_s)
          .Key("served_measure_s").Number(group.served_measure_s)
          .Key("disrupted").Bool(group.disrupted)
          .Key("emu").Number(group.summary.emu);
      if (group.placed && !group.run_solo) {
        w.Key("be").String(BeJobKindName(group.be));
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return std::move(w).str();
}

std::string WhatIfResponseJson(const WhatIfQuery& query,
                               const RunSummary& summary) {
  JsonWriter w;
  w.BeginObject()
      .Key("kind").String("trial")
      .Key("app").String(LcAppKindName(query.trial.app))
      .Key("be").String(BeJobKindName(query.trial.be))
      .Key("controller").String(ControllerKindName(query.trial.controller))
      .Key("seed").UInt(query.trial.seed)
      .Key("warmup_s").Number(query.trial.warmup_s)
      .Key("measure_s").Number(query.trial.measure_s);
  if (!query.trial.label.empty()) {
    w.Key("label").String(query.trial.label);
  }
  w.Key("summary").Raw(RunSummaryJson(summary)).EndObject();
  return std::move(w).str();
}

std::string WhatIfResponseJson(const WhatIfQuery& query,
                               const ClusterSummary& summary) {
  JsonWriter w;
  w.BeginObject()
      .Key("kind").String("cluster")
      .Key("policy").String(query.cluster.policy)
      .Key("controller").String(ControllerKindName(query.cluster.controller))
      .Key("seed").UInt(query.cluster.seed)
      .Key("epochs").Int(query.cluster.epochs)
      .Key("warmup_s").Number(query.cluster.warmup_s)
      .Key("measure_s").Number(query.cluster.measure_s);
  if (!query.cluster.label.empty()) {
    w.Key("label").String(query.cluster.label);
  }
  w.Key("summary")
      .Raw(ClusterSummaryJson(summary, query.include_groups))
      .EndObject();
  return std::move(w).str();
}

std::string PlacementsResponseJson(const JsonValue& body) {
  if (!body.is_object()) {
    Reject("body must be a JSON object");
  }
  RejectUnknownKeys(body,
                    {"machines", "synthetic", "synthetic_seed", "lc_demand",
                     "be_backlog", "seed", "policies", "load_scale", "epoch"},
                    "placements");
  const ClusterSpec spec = ParseClusterSpec(body);
  const uint64_t seed = SeedField(body, "seed", 11);
  const double load_scale = body.NumberOr("load_scale", 1.0);
  const int epoch = IntField(body, "epoch", 0, "placements");

  std::vector<std::string> policies = PlacementPolicyNames();
  if (const JsonValue* names = body.Find("policies")) {
    if (!names->is_array() || names->array.empty()) {
      Reject("\"policies\" must be a non-empty array of names");
    }
    policies.clear();
    for (const JsonValue& entry : names->array) {
      if (!entry.is_string()) {
        Reject("\"policies\" must be a non-empty array of names");
      }
      policies.push_back(entry.string);
    }
  }

  // The cluster engine's epoch view and placement step, with models cached
  // per app and a fresh roster per policy.
  auto models = std::make_shared<std::map<LcAppKind, AppPlacementModel>>();
  const ClusterView view = EpochView(
      spec, epoch, load_scale,
      [models](LcAppKind app) -> const AppPlacementModel& {
        auto found = models->find(app);
        if (found == models->end()) {
          found = models->emplace(app, DefaultPlacementModel(app)).first;
        }
        return found->second;
      });

  JsonWriter w;
  w.BeginObject()
      .Key("machines").Int(spec.machines)
      .Key("groups").Int(spec.TotalGroups())
      .Key("pods").Int(spec.TotalPods())
      .Key("seed").UInt(seed)
      .Key("load_scale").Number(load_scale)
      .Key("policies").BeginArray();
  for (const std::string& name : policies) {
    std::unique_ptr<PlacementPolicy> policy = MakePlacementPolicy(name, seed);
    MachineRoster roster(spec.machines);
    int placed = 0;
    int machines_used = 0;
    JsonWriter decisions_json;
    decisions_json.BeginArray();
    for (const GroupPlacement& placement :
         PlaceGroups(*policy, view, roster, /*force_solo=*/false)) {
      const PendingGroup& group = view.pending[static_cast<size_t>(placement.group)];
      const bool fits = placement.first_machine >= 0;
      decisions_json.BeginObject()
          .Key("group").Int(group.group)
          .Key("app").String(LcAppKindName(group.app))
          .Key("pods").Int(group.pods)
          .Key("load").Number(group.load)
          .Key("solo").Bool(placement.run_solo)
          .Key("score").Number(placement.score)
          .Key("placed").Bool(fits)
          .Key("first_machine").Int(placement.first_machine);
      if (!placement.run_solo) {
        decisions_json.Key("be").String(BeJobKindName(placement.be));
      }
      decisions_json.EndObject();
      if (fits) {
        ++placed;
        machines_used =
            std::max(machines_used, placement.first_machine + group.pods);
      }
    }
    decisions_json.EndArray();
    w.BeginObject()
        .Key("policy").String(name)
        .Key("groups_placed").Int(placed)
        .Key("machines_used").Int(machines_used)
        .Key("decisions").Raw(decisions_json.str())
        .EndObject();
  }
  w.EndArray().EndObject();
  return std::move(w).str();
}

}  // namespace rhythm
