// Runtime model of a deployed LC service.
//
// Generates an open-loop Poisson request stream at the profile's load,
// walks each request through the call graph sampling per-Servpod local
// times, and tracks the end-to-end tail latency over a sliding window.
// When an EventSink is attached it synthesizes the kernel events
// (ACCEPT/RECV/SEND/CLOSE with context and message identifiers) the request
// tracer consumes, including unrelated-process noise.
//
// Interference enters through an inflation provider: a callable returning
// the current service-time dilation factor for each Servpod, wired to the
// interference model by the cluster (identity during solo runs). The request
// walk keeps each pod's factor until the provider's owner calls
// InflationChanged(): the factor depends only on machine, BE and fault state,
// which changes at ticks and a few events, while requests arrive thousands
// of times per simulated second.

#ifndef RHYTHM_SRC_WORKLOAD_LC_SERVICE_H_
#define RHYTHM_SRC_WORKLOAD_LC_SERVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/percentile_window.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sim/simulator.h"
#include "src/trace/events.h"
#include "src/workload/app_catalog.h"
#include "src/workload/load_profile.h"

namespace rhythm {

class LcService {
 public:
  struct Config {
    uint64_t seed = 42;
    bool record_sojourns = false;
    EventSink* sink = nullptr;        // kernel-event emission when non-null.
    double tail_window_s = 20.0;      // sliding window for tail queries.
    double noise_events_per_request = 0.0;  // unrelated-process events.
    // Persistent TCP connections between neighbour pods: inter-pod messages
    // reuse one connection per edge, so concurrent requests share message
    // identifiers (the §3.3 ambiguity the mean-based analyzer tolerates).
    bool persistent_tcp = false;
  };

  LcService(Simulator* sim, AppSpec app, const Config& config);

  const AppSpec& app() const { return app_; }

  // The load profile must outlive the service.
  void SetLoadProfile(const LoadProfile* profile) { profile_ = profile; }

  // Per-Servpod service-time inflation (>= 1); identity when unset.
  void SetInflationProvider(std::function<double(int pod)> provider) {
    inflation_ = std::move(provider);
    InflationChanged();
  }

  // Marks every pod's kept inflation stale; the next request to visit a pod
  // asks the provider again. Call it whenever anything the provider reads
  // may have changed. For Deployment's provider (machine state, the BE
  // runtime, the fault injector's failover state) that is every path below,
  // each a simulator event or a call made between runs:
  //   * AccountingTick and ControllerTick: LC activity, BE steps and
  //     publication, agent actuations (and their actuation-drop gates), BE
  //     scheduler dispatch;
  //   * OnPodCrash and OnPodReboot: crash BE losses and admission, and
  //     FailoverInflation, which changes only on the crash edges that call
  //     them;
  //   * the admission-hold and BE-failure handlers;
  //   * LaunchBeAtPod;
  //   * the non-const machine(pod), be(pod) and agent(pod) accessors, through
  //     which the bubble profiler, DVFS sweeps and TrialHooks::after_start
  //     mutate between runs.
  void InflationChanged();

  // Starts the arrival process; requests keep arriving until Stop().
  void Start();
  void Stop();

  // -- Signals consumed by controllers and metrics ---------------------------

  // Offered load fraction right now.
  double CurrentLoad() const;

  // Tail latency (ms) at quantile q over the sliding window.
  double TailLatencyMs(double q = 0.99);

  // True (unthinned) request rate into Servpod `pod` (req/s).
  double PodLambda(int pod) const;

  // Current utilization of Servpod `pod`'s station (>=1 means overload).
  double PodUtilization(int pod) const;

  // LC activity at Servpod `pod` for machine accounting.
  double PodBusyCores(int pod) const;
  double PodMembwGbs(int pod) const;
  double PodNetGbps(int pod) const;

  // Inflation factor `pod` has right now, from the provider (never the kept
  // value: the ticks read it while they are still changing the machine).
  double PodInflation(int pod) const;

  // Hiccup dilation currently active at `pod` (1.0 outside bursts).
  double PodHiccupFactor(int pod) const;

  // -- Profiling --------------------------------------------------------------

  void ResetSojourns();
  const RunningStats& PodSojournStats(int pod) const { return sojourns_[pod]; }
  const RunningStats& LatencyStats() const { return latency_stats_; }
  uint64_t completed_requests() const { return completed_; }

 private:
  // Walks `node` starting at `start`: samples this pod's down/up work and
  // recursively executes children. Returns the node's finish time and adds
  // this pod's local time into `sojourn_acc[pod]`. `in_msg` is the message
  // that delivered the request to this pod (null at the root, where the
  // client connection is synthesized).
  double WalkNode(const CallNode& node, double start, double load,
                  std::vector<double>& sojourn_acc, uint64_t request_id, int parent_pod,
                  const MessageId* in_msg);

  // Message identifier for a hop src->dst; unique per call unless
  // persistent_tcp makes concurrent requests share it.
  MessageId MakeHopMessage(int src_pod, int dst_pod);

  void ScheduleNextArrival();
  void HandleArrival();
  void EmitNoise(double now);
  void ScheduleNextHiccup(int pod);

  uint32_t PodIp(int pod) const { return 0x0a000001u + static_cast<uint32_t>(pod); }
  static constexpr uint32_t kClientIp = 0x0a0000ffu;

  Simulator* sim_;
  AppSpec app_;
  Config config_;
  Rng rng_;
  const LoadProfile* profile_ = nullptr;
  std::function<double(int pod)> inflation_;
  // Per-pod inflation the request walk uses; NaN until the walk next visits
  // the pod after InflationChanged(). Only the walk fills it.
  std::vector<double> walk_inflation_;
  std::vector<double> visits_;
  // One model per Servpod, built once — constructing a ComponentModel copies
  // the spec (including its name string), which the pre-overhaul WalkNode
  // paid per node visit.
  std::vector<ComponentModel> models_;
  // Per-pod memo of the deterministic local-time parameters keyed on the
  // exact (load, inflation, lambda) inputs; recomputed only when the machine
  // state or offered load actually changes (tick granularity), not per
  // request. NaN keys never compare equal, so the first visit always fills.
  struct PodMath {
    double load;
    double inflation;
    double lambda;
    ComponentModel::LocalParams params;
  };
  std::vector<PodMath> pod_math_;
  // Request-mix selection table: weights and stable node pointers flattened
  // from app_.request_mix, plus the total weight summed once at construction
  // (the pre-overhaul arrival path re-summed it per request).
  std::vector<std::pair<double, const CallNode*>> mix_table_;
  double mix_total_weight_ = 0.0;
  // Scratch sojourn accumulator reused across arrivals (zeroed per request)
  // instead of a fresh heap allocation each time.
  std::vector<double> sojourn_scratch_;
  std::vector<double> hiccup_until_;
  std::vector<double> hiccup_factor_;
  std::vector<RunningStats> sojourns_;
  RunningStats latency_stats_;
  PercentileWindow window_;
  bool running_ = false;
  uint64_t completed_ = 0;
  uint64_t next_request_id_ = 1;
  uint16_t next_ephemeral_port_ = 10000;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_WORKLOAD_LC_SERVICE_H_
