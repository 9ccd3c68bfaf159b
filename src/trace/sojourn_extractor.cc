#include "src/trace/sojourn_extractor.h"

#include <algorithm>
#include <map>

namespace rhythm {

namespace {

bool IsInbound(EventType type) {
  return type == EventType::kAccept || type == EventType::kRecv;
}

}  // namespace

int PodOfEvent(const KernelEvent& event, const TracerConfig& config) {
  const uint32_t program = event.context.program;
  if (program < config.program_base ||
      program >= config.program_base + static_cast<uint32_t>(config.num_pods)) {
    return -1;
  }
  return static_cast<int>(program - config.program_base);
}

MeanSojournSink::MeanSojournSink(const TracerConfig& config) : config_(config) { Reset(); }

void MeanSojournSink::Record(const KernelEvent& event) {
  const int pod = PodOfEvent(event, config_);
  if (pod < 0) {
    ++sums_.noise_filtered;
    return;
  }
  if (IsInbound(event.type)) {
    net_time_[pod] -= event.timestamp;
    // A visit begins when the pod's server port receives a request (as
    // opposed to receiving a downstream reply on an ephemeral port).
    if (event.message.receiver_port ==
        static_cast<uint16_t>(config_.server_port_base + pod)) {
      ++sums_.visits[pod];
    }
    if (event.type == EventType::kAccept) {
      ++sums_.requests;
    }
  } else {
    net_time_[pod] += event.timestamp;
  }
}

void MeanSojournSink::Reset() {
  sums_ = SojournSummary{};
  sums_.mean_sojourn_s.assign(config_.num_pods, 0.0);
  sums_.visits.assign(config_.num_pods, 0);
  net_time_.assign(config_.num_pods, 0.0);
}

SojournSummary MeanSojournSink::Summary() const {
  SojournSummary summary = sums_;
  for (int pod = 0; pod < config_.num_pods; ++pod) {
    if (summary.visits[pod] > 0) {
      summary.mean_sojourn_s[pod] = net_time_[pod] / static_cast<double>(summary.visits[pod]);
    }
  }
  return summary;
}

SojournSummary ExtractMeanSojourns(std::span<const KernelEvent> events,
                                   const TracerConfig& config) {
  MeanSojournSink sink(config);
  for (const KernelEvent& event : events) {
    sink.Record(event);
  }
  return sink.Summary();
}

std::vector<std::vector<double>> ExtractPairedSojourns(std::span<const KernelEvent> events,
                                                       const TracerConfig& config) {
  std::vector<std::vector<double>> sojourns(config.num_pods);

  // Sort a copy by timestamp (capture order in the real tool).
  std::vector<KernelEvent> sorted(events.begin(), events.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KernelEvent& a, const KernelEvent& b) {
                     return a.timestamp < b.timestamp;
                   });

  // Per-context queue of pending inbound timestamps: each outbound event is
  // paired with the oldest pending inbound on the same context identifier.
  std::map<ContextId, std::vector<double>> pending;
  for (const KernelEvent& event : sorted) {
    const int pod = PodOfEvent(event, config);
    if (pod < 0) {
      continue;
    }
    if (IsInbound(event.type)) {
      pending[event.context].push_back(event.timestamp);
    } else {
      auto it = pending.find(event.context);
      if (it == pending.end() || it->second.empty()) {
        continue;  // unmatched outbound (e.g. truncated capture window).
      }
      const double in_time = it->second.front();
      it->second.erase(it->second.begin());
      sojourns[pod].push_back(event.timestamp - in_time);
    }
  }
  return sojourns;
}

}  // namespace rhythm
