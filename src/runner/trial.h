// Trial: one RunRequest playing out step by step. Run() (src/runner/runner.h)
// is exactly `Trial t(request, hooks); t.Start(); t.AdvanceTo(t.end_time());
// return t.Finish();` — the partitioned cluster engine uses the same object
// but interleaves AdvanceTo calls across many trials, advancing each group's
// deployment window by window between shard barriers. Because both paths run
// the identical construction/advance/summarize code and Simulator::RunUntil
// clamps the clock to the requested horizon, a trial advanced in any number
// of windows is bit-identical to one advanced in a single call.
//
// Lifetime: the request (and anything it shares — profiles, schedules,
// custom BE specs) must outlive the trial. The trial owns everything it
// runs on: its deployment builds a fresh simulator, so no state carries
// from one trial to the next.

#ifndef RHYTHM_SRC_RUNNER_TRIAL_H_
#define RHYTHM_SRC_RUNNER_TRIAL_H_

#include <memory>

#include "src/cluster/metrics.h"
#include "src/runner/run_request.h"
#include "src/runner/runner.h"

namespace rhythm {

class FlightRecorder;
class InvariantMonitor;
class SpikedLoadProfile;

class Trial {
 public:
  // Validates the request (std::invalid_argument on a malformed one) and
  // builds the deployment, monitor and recorder. Nothing runs yet.
  explicit Trial(const RunRequest& request, TrialHooks hooks = {});
  ~Trial();

  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  // Starts the arrival process and periodic tasks; fires the after_start
  // hook. Must be called once, before AdvanceTo/Finish.
  void Start();

  // Advances the deployment's local clock to `time_s`, clamped to
  // [now, end_time()]. Crossing the warmup boundary snapshots the
  // measurement baselines (t0, kill/violation counters) at exactly
  // warmup_s, regardless of how the caller's windows align with it.
  void AdvanceTo(double time_s);

  // The trial's local end of time: warmup_s + measure_s.
  double end_time() const { return end_time_; }
  double now() const;
  bool started() const { return started_; }

  // Advances to end_time() if not there yet, finalizes the invariant
  // monitor (which may throw in fail-fast mode), summarizes the
  // measurement window, writes any obs exports and fires the remaining
  // hooks. Must be called at most once.
  RunSummary Finish();

  // Summarizes [warmup boundary, now) without advancing, finalizing the
  // monitor or exporting — the harvest path for a trial killed mid-run (the
  // cluster engine uses it when machine loss disrupts a group). Collected
  // invariant violations are included; a trial killed before its warmup
  // boundary returns a default summary (it never measured). The trial stays
  // usable afterwards, though the engine destroys it right away.
  RunSummary Harvest() const;

  bool measuring() const { return measuring_; }

  const RunRequest& request() const { return request_; }
  Deployment& deployment() { return *deployment_; }
  const Deployment& deployment() const { return *deployment_; }

 private:
  const RunRequest& request_;
  TrialHooks hooks_;
  double end_time_ = 0.0;

  std::unique_ptr<InvariantMonitor> monitor_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<ConstantLoad> constant_;
  std::unique_ptr<SpikedLoadProfile> spiked_;
  const LoadProfile* profile_ = nullptr;
  std::unique_ptr<Deployment> deployment_;

  bool started_ = false;
  bool finished_ = false;
  // Measurement-window baselines, captured when the clock first reaches
  // warmup_s.
  bool measuring_ = false;
  double t0_ = 0.0;
  uint64_t kills_before_ = 0;
  uint64_t violations_before_ = 0;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_RUNNER_TRIAL_H_
