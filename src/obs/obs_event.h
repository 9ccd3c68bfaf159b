// Structured observability events and the sink interface they flow through.
//
// Header-only and dependency-light on purpose: the emitting layers
// (MachineAgent, BeScheduler, FaultInjector, Deployment) include this header
// and test a null pointer — they never link against the obs library that
// implements the concrete FlightRecorder. An ObsEvent is a fixed-size POD
// (no strings, no heap) so the flight recorder's ring buffer can hold tens
// of thousands of them with a single allocation at construction.
//
// Emission rules, enforced by convention and the golden bit-identity test:
// an emitter may only *read* state it already computed for the simulation
// itself, and must draw no randomness — recording a run leaves it
// byte-identical to an unrecorded one.

#ifndef RHYTHM_SRC_OBS_OBS_EVENT_H_
#define RHYTHM_SRC_OBS_OBS_EVENT_H_

#include <cstdint>

namespace rhythm {

// Top-level event families. The `code`/`detail` bytes refine each family
// (see the per-family code enums below).
enum class ObsKind : uint8_t {
  kDecision = 0,      // one controller decision, with its inputs.
  kActuation = 1,     // one command issued against a resource knob.
  kFault = 2,         // fault-injection edge (window begin/end or instant).
  kSloViolation = 3,  // negative slack observed (accounting or controller).
  kBeLifecycle = 4,   // BE instance population changes outside actuations.
  kPlacement = 5,     // cluster placement decision (src/place).
};
inline constexpr int kObsKindCount = 6;

// kDecision: `code` carries the BeAction (cast), `detail` the decision path.
enum class ObsDecisionPhase : uint8_t {
  kNormal = 0,           // the slack-band walk of Algorithm 2.
  kStaleFailsafe = 1,    // stale/NaN telemetry forced SuspendBE.
  kBackoffHold = 2,      // band said grow, kill backoff converted it to hold.
  kReadmitJitter = 3,    // empty-pod launch deferred to its stagger phase.
  kOscillationGuard = 4, // grow/cut thrash detector held growth.
};

// kActuation: `code` names the knob, `detail` is 1 on verified success and 0
// when actuation verification caught a lost/failed command.
enum class ObsKnob : uint8_t {
  kCpuLlc = 0,     // cores + CAT ways step (a = cores delta, b = ways delta).
  kMemory = 1,     // 100 MB memory step (a = GB delta).
  kFrequency = 2,  // DVFS step (a = new BE GHz).
  kSuspend = 3,    // SuspendAll (a = instances affected).
  kResume = 4,     // ResumeAll after a suspend (a = instances running).
  kStop = 5,       // StopAll (a = instances killed).
  kLaunch = 6,     // LaunchInstance (a = 1 on success).
};

// kFault: `code` carries the FaultKind (cast), `detail` the edge.
enum class ObsFaultEdge : uint8_t {
  kBegin = 0,    // window activation (crash, blackout, freeze, drop window).
  kEnd = 1,      // window deactivation (reboot, blackout end, ...).
  kInstant = 2,  // point events: BE-instance death, one dropped actuation.
};

// kSloViolation: `code` says which loop observed it.
enum class ObsSloScope : uint8_t {
  kAccounting = 0,  // accounting tick saw negative slack (exists w/o agents).
  kController = 1,  // an agent's control tick decided on negative slack.
};

// kBeLifecycle: population changes not driven by this machine's controller.
enum class ObsBeOp : uint8_t {
  kDispatch = 0,         // cluster scheduler admitted an instance here.
  kCrashLoss = 1,        // instances died with their crashed machine.
  kInstanceFailure = 2,  // one instance died on its own (OOM/preempt).
  kWithdraw = 3,         // admission hold opened: instances withdrawn.
  kReadmit = 4,          // admission hold closed: the pod may admit again.
};

// kPlacement: one cluster-placement decision (src/place). `code` carries the
// op below, `detail` the BeJobKind (cast) for placed/churned groups.
// Payload: a = group index, b = pod count, c = policy score, d = offered load.
// `machine` is the group's first machine (-1 when unplaced / epoch-scope).
enum class ObsPlacementOp : uint8_t {
  kEpochBegin = 0,     // placement epoch boundary (a = epoch, b = load scale).
  kGroupPlaced = 1,    // group landed with a co-located BE.
  kGroupSolo = 2,      // group landed with BEs forbidden (threshold guard).
  kGroupUnplaced = 3,  // no machines left for this group.
  kChurn = 4,          // assignment changed vs the previous epoch.
  // 5 is unused: JSONL recordings store `code` as a number, so the ops
  // below keep their values.
  // -- Failure-domain edges (cluster-scope machine faults, DESIGN.md §14) --
  // Machine lost at a barrier. machine = index, a = the schedule's start_s,
  // b = planned downtime seconds (0 = permanent kMachineFailure).
  kMachineDown = 6,
  // Machine rejoined empty. machine = index, a = the scheduled rejoin time.
  kMachineUp = 7,
  // A disrupted group re-placed by the ClusterSupervisor. machine = the
  // replacement's first machine, a = group index, b = pod count,
  // c = incarnation number, d = failover latency seconds (barrier time minus
  // the loss event's start_s); detail = BeJobKind unless the replacement
  // runs solo.
  kFailover = 8,
  // A disrupted group that could not be re-placed (budget or capacity).
  // machine = the dead first machine, a = group index, b = pod count.
  kGroupDown = 9,
  // Degraded-mode transition (dead fraction crossed the survivability
  // threshold). machine = -1, a = machines down, b = dead fraction,
  // detail = 1 entering, 0 leaving.
  kDegraded = 10,
};

// One recorded event. Fixed 48-byte POD; `a..d` are payload fields whose
// meaning depends on (kind, code) — see the enums above and the JSONL
// exporter, which labels them per kind.
struct ObsEvent {
  double time_s = 0.0;  // simulated time of the emission.
  int32_t machine = -1; // Servpod/machine index; -1 for cluster-wide events.
  ObsKind kind = ObsKind::kDecision;
  uint8_t code = 0;
  uint8_t detail = 0;
  uint8_t reserved = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
};

// Receives events from the instrumented layers. Implementations must be
// strictly passive: no mutation of simulation state, no RNG draws.
class ObsSink {
 public:
  virtual ~ObsSink() = default;
  virtual void Record(const ObsEvent& event) = 0;
};

// -- Naming helpers (inline so emitters stay link-free) ----------------------

inline const char* ObsKindName(ObsKind kind) {
  switch (kind) {
    case ObsKind::kDecision:
      return "decision";
    case ObsKind::kActuation:
      return "actuation";
    case ObsKind::kFault:
      return "fault";
    case ObsKind::kSloViolation:
      return "slo";
    case ObsKind::kBeLifecycle:
      return "be";
    case ObsKind::kPlacement:
      return "placement";
  }
  return "?";
}

inline const char* ObsDecisionPhaseName(ObsDecisionPhase phase) {
  switch (phase) {
    case ObsDecisionPhase::kNormal:
      return "normal";
    case ObsDecisionPhase::kStaleFailsafe:
      return "stale-failsafe";
    case ObsDecisionPhase::kBackoffHold:
      return "backoff-hold";
    case ObsDecisionPhase::kReadmitJitter:
      return "readmit-jitter";
    case ObsDecisionPhase::kOscillationGuard:
      return "oscillation-guard";
  }
  return "?";
}

inline const char* ObsKnobName(ObsKnob knob) {
  switch (knob) {
    case ObsKnob::kCpuLlc:
      return "cpu-llc";
    case ObsKnob::kMemory:
      return "memory";
    case ObsKnob::kFrequency:
      return "frequency";
    case ObsKnob::kSuspend:
      return "suspend";
    case ObsKnob::kResume:
      return "resume";
    case ObsKnob::kStop:
      return "stop";
    case ObsKnob::kLaunch:
      return "launch";
  }
  return "?";
}

inline const char* ObsFaultEdgeName(ObsFaultEdge edge) {
  switch (edge) {
    case ObsFaultEdge::kBegin:
      return "begin";
    case ObsFaultEdge::kEnd:
      return "end";
    case ObsFaultEdge::kInstant:
      return "instant";
  }
  return "?";
}

inline const char* ObsSloScopeName(ObsSloScope scope) {
  switch (scope) {
    case ObsSloScope::kAccounting:
      return "accounting";
    case ObsSloScope::kController:
      return "controller";
  }
  return "?";
}

inline const char* ObsBeOpName(ObsBeOp op) {
  switch (op) {
    case ObsBeOp::kDispatch:
      return "dispatch";
    case ObsBeOp::kCrashLoss:
      return "crash-loss";
    case ObsBeOp::kInstanceFailure:
      return "instance-failure";
    case ObsBeOp::kWithdraw:
      return "withdraw";
    case ObsBeOp::kReadmit:
      return "readmit";
  }
  return "?";
}

inline const char* ObsPlacementOpName(ObsPlacementOp op) {
  switch (op) {
    case ObsPlacementOp::kEpochBegin:
      return "epoch-begin";
    case ObsPlacementOp::kGroupPlaced:
      return "placed";
    case ObsPlacementOp::kGroupSolo:
      return "solo";
    case ObsPlacementOp::kGroupUnplaced:
      return "unplaced";
    case ObsPlacementOp::kChurn:
      return "churn";
    case ObsPlacementOp::kMachineDown:
      return "machine-down";
    case ObsPlacementOp::kMachineUp:
      return "machine-up";
    case ObsPlacementOp::kFailover:
      return "failover";
    case ObsPlacementOp::kGroupDown:
      return "group-down";
    case ObsPlacementOp::kDegraded:
      return "degraded";
  }
  return "?";
}

}  // namespace rhythm

#endif  // RHYTHM_SRC_OBS_OBS_EVENT_H_
