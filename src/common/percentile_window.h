// Sliding-window tail-latency tracker.
//
// The paper measures the 99th percentile latency per second over a sliding
// window; the controllers consume that signal every 2 s. This tracker keeps
// the samples of the last `window` seconds and answers percentile queries
// exactly.
//
// Implementation: one FIFO of (time, latency), used for expiration and
// nothing else. Every finished request adds a sample while the controllers
// read about once per thousand adds, so adds stay a push_back and a query
// pays the selection. A q-quantile over n samples reads only the n - lo
// largest (lo = floor(q * (n - 1))), so a query copies just the latencies
// at or above a floor carried over from the previous query into a scratch
// vector (reused across queries) and selects the needed order statistics
// there with nth_element. The floor is set `need` ranks below the previous
// answer, so a p99 query over ~6,000 samples copies a few hundred; when
// fewer samples than the query needs reach the floor (the latency level
// dropped), it copies all of them. Leaving out only samples below every
// kept one cannot move an order statistic, so both paths give the same
// doubles. A per-(timestamp, q) memo makes the accounting tick, controller
// tick and reboot handler reads at the same simulated instant pay for one
// selection only. The interpolation is PercentileInplace's
// (src/common/stats.cc) on the same order statistics, so answers are the
// same doubles as the sort-based math.

#ifndef RHYTHM_SRC_COMMON_PERCENTILE_WINDOW_H_
#define RHYTHM_SRC_COMMON_PERCENTILE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace rhythm {

class PercentileWindow {
 public:
  // window: horizon in seconds over which samples are retained.
  explicit PercentileWindow(double window_seconds = 10.0) : window_(window_seconds) {}

  // Records a latency sample observed at simulated time `now` (seconds).
  void Add(double now, double latency);

  // Drops samples older than `now - window`.
  void Expire(double now);

  // Exact q-quantile of the retained samples (0 if empty). Expires first.
  double Quantile(double now, double q);

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double window_seconds() const { return window_; }

  // Query-cost introspection for tests and micro-benchmarks.
  struct QueryStats {
    uint64_t queries = 0;    // Quantile calls on a non-empty window.
    uint64_t memo_hits = 0;  // answered from the per-timestamp memo.
  };
  const QueryStats& query_stats() const { return query_stats_; }

 private:
  struct Sample {
    double time;
    double latency;
  };

  double window_;
  std::deque<Sample> samples_;  // FIFO, in insertion order (for expiration).
  std::vector<double> scratch_;  // selection buffer, reused across queries.
  // Samples below the floor are left out of the next selection unless too
  // few samples reach it; see Quantile.
  double floor_ = -std::numeric_limits<double>::infinity();

  // Memo of the last computed quantile: valid until samples change.
  bool memo_valid_ = false;
  double memo_now_ = 0.0;
  double memo_q_ = 0.0;
  double memo_value_ = 0.0;

  QueryStats query_stats_;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_PERCENTILE_WINDOW_H_
