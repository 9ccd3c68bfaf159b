// Sojourn-time extraction from kernel events (paper §3.3).
//
// A Servpod's sojourn for one visit is the local processing time: the gaps
// between each inbound event (ACCEPT/RECV) and the next outbound event
// (SEND/CLOSE) on the same context. Under nonblocking threads or persistent
// TCP connections the per-visit pairing can mismatch, but the *sum* of
// outbound timestamps minus the sum of inbound timestamps per pod is
// invariant under any pairing permutation — which is exactly why the paper's
// contribution analyzer consumes mean sojourn times (Equations 1-3). The
// aggregate extractor below computes that invariant directly, and because
// it only keeps per-pod sums it can run as the capture sink itself: the
// profiler folds each event in as it is recorded and never buffers a trace.

#ifndef RHYTHM_SRC_TRACE_SOJOURN_EXTRACTOR_H_
#define RHYTHM_SRC_TRACE_SOJOURN_EXTRACTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/trace/events.h"

namespace rhythm {

// Identifies which Servpod an LC event belongs to, and filters noise.
struct TracerConfig {
  uint32_t program_base = 100;  // LC programs are [base, base + num_pods).
  int num_pods = 0;
  uint16_t server_port_base = 8000;  // pod i listens on base + i.
};

// Pod index for the event, or -1 when the event belongs to an unrelated
// process (noise to be filtered by the context identifier).
int PodOfEvent(const KernelEvent& event, const TracerConfig& config);

struct SojournSummary {
  // Mean local sojourn per visit, seconds, per pod.
  std::vector<double> mean_sojourn_s;
  // Number of visits observed per pod.
  std::vector<uint64_t> visits;
  // Number of requests (ACCEPT events at the entry pod).
  uint64_t requests = 0;
  // Events discarded by the context-identifier noise filter.
  uint64_t noise_filtered = 0;
};

// Aggregate, pairing-mismatch-immune extraction as a streaming sink: each
// Record() adds one event to the per-pod sums, and Summary() divides them,
//   mean = (sum outbound timestamps - sum inbound timestamps) / visits.
// Memory is O(pods) however long the capture runs.
class MeanSojournSink : public EventSink {
 public:
  explicit MeanSojournSink(const TracerConfig& config);

  void Record(const KernelEvent& event) override;
  // Forgets every event recorded so far (e.g. the end of a warm-up).
  void Reset();
  // The summary of the events recorded since construction or Reset().
  SojournSummary Summary() const;

 private:
  TracerConfig config_;
  SojournSummary sums_;           // mean_sojourn_s stays zero until Summary().
  std::vector<double> net_time_;  // sum outbound - sum inbound, per pod.
};

// The same extraction over a buffered trace: the events fed through a
// MeanSojournSink in order.
SojournSummary ExtractMeanSojourns(std::span<const KernelEvent> events,
                                   const TracerConfig& config);

// Order-based per-visit pairing: within each context identifier, each
// inbound event is matched to the next outbound event by timestamp order.
// Exact in blocking mode; subject to the mismatches discussed in §3.3 under
// nonblocking threads — returned values are per-visit sojourns whose *mean*
// equals the aggregate extraction regardless.
std::vector<std::vector<double>> ExtractPairedSojourns(std::span<const KernelEvent> events,
                                                       const TracerConfig& config);

}  // namespace rhythm

#endif  // RHYTHM_SRC_TRACE_SOJOURN_EXTRACTOR_H_
