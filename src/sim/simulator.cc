#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace rhythm {

void Simulator::Schedule(double delay, Action action) {
  ScheduleAt(now_ + std::max(delay, 0.0), std::move(action));
}

void Simulator::ScheduleAt(double time, Action action) {
  queue_.push(Event{std::max(time, now_), next_seq_++, std::move(action)});
}

uint64_t Simulator::SchedulePeriodic(double start, double period, Action action) {
  RHYTHM_CHECK(period > 0.0);
  const uint64_t id = next_periodic_id_++;
  periodics_.emplace(id, PeriodicTask{std::max(start, now_), period, std::move(action)});
  ArmPeriodic(id, std::max(start, now_));
  return id;
}

void Simulator::ArmPeriodic(uint64_t id, double time) {
  ScheduleAt(time, [this, id] { FirePeriodic(id); });
}

void Simulator::FirePeriodic(uint64_t id) {
  auto it = periodics_.find(id);
  if (it == periodics_.end()) {
    return;
  }
  // A periodic task has exactly one event in flight, so this firing is a
  // cancelled task's last: drop the table entry with it.
  if (it->second.cancelled) {
    periodics_.erase(it);
    return;
  }
  it->second.action();
  // The action may have cancelled tasks or scheduled new periodics (which
  // can rehash the table) — re-find before re-arming in place.
  it = periodics_.find(id);
  if (it == periodics_.end()) {
    return;
  }
  it->second.next_time += it->second.period;
  ArmPeriodic(id, it->second.next_time);
}

void Simulator::CancelPeriodic(uint64_t id) {
  // Ids never handed out — or whose last firing already drained — have no
  // table entry, so there is nothing to mark.
  const auto it = periodics_.find(id);
  if (it != periodics_.end()) {
    it->second.cancelled = true;
  }
}

size_t Simulator::cancelled_pending_count() const {
  size_t count = 0;
  for (const auto& [id, task] : periodics_) {
    if (task.cancelled) {
      ++count;
    }
  }
  return count;
}

size_t Simulator::periodic_task_count() const {
  return periodics_.size() - cancelled_pending_count();
}

void Simulator::RunUntil(double end_time) {
  while (!queue_.empty() && queue_.top().time <= end_time) {
    Step();
  }
  now_ = std::max(now_, end_time);
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  // Moving out of the priority queue requires a const_cast because top() is
  // const; the pop immediately afterwards makes this safe.
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = std::max(now_, event.time);
  ++executed_;
  event.action();
  return true;
}

}  // namespace rhythm
