// Discrete-event simulation engine.
//
// The simulator owns a virtual clock and an event queue ordered by
// (time, sequence). Sequence numbers break ties deterministically in FIFO
// order, which keeps runs bit-reproducible regardless of how many events
// share a timestamp.
//
// Events carry their closures in a small-buffer-optimized InlineFunction, so
// scheduling a typical arrival-chain or tick closure performs no heap
// allocation. Periodic tasks live in a side table and the in-flight firing
// only references the task id: re-arming never copies the captured action.

#ifndef RHYTHM_SRC_SIM_SIMULATOR_H_
#define RHYTHM_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/common/inline_callable.h"

namespace rhythm {

class Simulator {
 public:
  using Action = InlineFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time in seconds.
  double Now() const { return now_; }

  // Schedules `action` to run `delay` seconds from now. Negative delays are
  // clamped to zero (run "immediately", after already-queued events at Now).
  void Schedule(double delay, Action action);

  // Schedules `action` at an absolute time; times in the past are clamped to
  // Now.
  void ScheduleAt(double time, Action action);

  // Schedules `action` every `period` seconds starting at `start`. The task
  // keeps re-arming itself until the simulation stops or `Cancel` is called
  // on the returned id.
  uint64_t SchedulePeriodic(double start, double period, Action action);

  // Cancels a periodic task. Pending one-shot firings of the task are
  // suppressed. The task's table entry is compacted away when its last
  // pending firing drains (each periodic has exactly one event in flight),
  // so cancellations never accumulate across a long run.
  void CancelPeriodic(uint64_t id);

  // Runs events until the queue is empty or the clock passes `end_time`.
  // Events scheduled exactly at `end_time` are executed.
  void RunUntil(double end_time);

  // Runs a single event; returns false if the queue is empty.
  bool Step();

  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }
  // Cancelled periodic ids whose final pending firing has not drained yet
  // (exposed so tests can assert the bookkeeping compacts).
  size_t cancelled_pending_count() const;
  // Live (armed, not cancelled) periodic tasks.
  size_t periodic_task_count() const;

 private:
  struct Event {
    double time;
    uint64_t seq;
    Action action;
  };

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // One self-re-arming task. The action is stored here exactly once; the
  // queued firing captures only [this, id].
  struct PeriodicTask {
    double next_time;
    double period;
    Action action;
    bool cancelled = false;
  };

  double now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_periodic_id_ = 1;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::unordered_map<uint64_t, PeriodicTask> periodics_;

  void ArmPeriodic(uint64_t id, double time);
  void FirePeriodic(uint64_t id);
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_SIM_SIMULATOR_H_
