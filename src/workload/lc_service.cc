#include "src/workload/lc_service.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace rhythm {

// Per-component latency hiccups (GC pauses, compaction stalls, page-cache
// writeback): short bursts during which a pod's service times dilate. They
// make the per-second 99th percentile *unstable* — the paper's premise ("the
// fluctuations constitute the heavy-tail") and the reason riding the SLA
// edge costs violations. The interval is exponential per pod.
constexpr double kHiccupMeanIntervalS = 15.0;
constexpr double kHiccupMinDurationS = 0.3;
constexpr double kHiccupMaxDurationS = 0.6;
constexpr double kHiccupMinFactor = 1.15;
constexpr double kHiccupMaxFactor = 1.35;

LcService::LcService(Simulator* sim, AppSpec app, const Config& config)
    : sim_(sim),
      app_(std::move(app)),
      config_(config),
      rng_(config.seed),
      window_(config.tail_window_s) {
  RHYTHM_CHECK(sim != nullptr);
  visits_ = app_.VisitCounts();
  sojourns_.resize(app_.components.size());
  hiccup_until_.assign(app_.components.size(), -1.0);
  hiccup_factor_.assign(app_.components.size(), 1.0);
  models_.reserve(app_.components.size());
  for (const ComponentSpec& spec : app_.components) {
    models_.emplace_back(spec);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  walk_inflation_.assign(app_.components.size(), nan);
  pod_math_.assign(app_.components.size(), PodMath{nan, nan, nan, {}});
  sojourn_scratch_.assign(app_.components.size(), 0.0);
  // The summation order matches the old per-arrival loop, so the Uniform
  // draw's upper bound is the identical double.
  mix_table_.reserve(app_.request_mix.size());
  for (const auto& [weight, node] : app_.request_mix) {
    mix_total_weight_ += weight;
    mix_table_.emplace_back(weight, &node);
  }
}

void LcService::Start() {
  RHYTHM_CHECK(profile_ != nullptr);
  if (running_) {
    return;
  }
  running_ = true;
  ScheduleNextArrival();
  for (int pod = 0; pod < app_.pod_count(); ++pod) {
    ScheduleNextHiccup(pod);
  }
}

void LcService::ScheduleNextHiccup(int pod) {
  sim_->Schedule(rng_.Exponential(kHiccupMeanIntervalS), [this, pod] {
    if (!running_) {
      return;
    }
    hiccup_until_[pod] =
        sim_->Now() + rng_.Uniform(kHiccupMinDurationS, kHiccupMaxDurationS);
    hiccup_factor_[pod] = rng_.Uniform(kHiccupMinFactor, kHiccupMaxFactor);
    ScheduleNextHiccup(pod);
  });
}

double LcService::PodHiccupFactor(int pod) const {
  return sim_->Now() < hiccup_until_[pod] ? hiccup_factor_[pod] : 1.0;
}

void LcService::Stop() { running_ = false; }

double LcService::CurrentLoad() const {
  return profile_ != nullptr ? std::clamp(profile_->LoadAt(sim_->Now()), 0.0, 1.0) : 0.0;
}

double LcService::TailLatencyMs(double q) { return window_.Quantile(sim_->Now(), q); }

double LcService::PodLambda(int pod) const {
  return CurrentLoad() * app_.maxload_qps * visits_[pod];
}

double LcService::PodInflation(int pod) const {
  return inflation_ ? std::max(1.0, inflation_(pod)) : 1.0;
}

void LcService::InflationChanged() {
  std::fill(walk_inflation_.begin(), walk_inflation_.end(),
            std::numeric_limits<double>::quiet_NaN());
}

double LcService::PodUtilization(int pod) const {
  return models_[pod].Utilization(PodLambda(pod), CurrentLoad(), PodInflation(pod));
}

double LcService::PodBusyCores(int pod) const {
  return models_[pod].BusyCores(PodLambda(pod), CurrentLoad(), PodInflation(pod));
}

double LcService::PodMembwGbs(int pod) const {
  return app_.components[pod].peak_membw_gbs * CurrentLoad();
}

double LcService::PodNetGbps(int pod) const {
  return app_.components[pod].peak_net_gbps * CurrentLoad();
}

void LcService::ScheduleNextArrival() {
  if (!running_) {
    return;
  }
  const double load = CurrentLoad();
  const double rate = std::max(load * app_.sim_qps_cap, 1e-3);
  sim_->Schedule(rng_.Exponential(1.0 / rate), [this] {
    if (!running_) {
      return;
    }
    HandleArrival();
    ScheduleNextArrival();
  });
}

void LcService::HandleArrival() {
  const double now = sim_->Now();
  const double load = CurrentLoad();
  const uint64_t request_id = next_request_id_++;
  std::vector<double>& sojourn_acc = sojourn_scratch_;
  std::fill(sojourn_acc.begin(), sojourn_acc.end(), 0.0);
  // Pick the request's call path: the single catalog path, or a weighted
  // class from the request mix. The sequential-subtraction walk is kept
  // bit-for-bit (prefix-sum comparisons round differently at the margins);
  // only the total, which the old code re-summed per arrival, is hoisted.
  const CallNode* root = &app_.call_root;
  if (!mix_table_.empty()) {
    double draw = rng_.Uniform(0.0, mix_total_weight_);
    for (const auto& [weight, node] : mix_table_) {
      draw -= weight;
      if (draw <= 0.0) {
        root = node;
        break;
      }
    }
  }
  const double finish = WalkNode(*root, now, load, sojourn_acc, request_id,
                                 /*parent_pod=*/-1, /*in_msg=*/nullptr);
  const double latency_ms = (finish - now) * 1000.0;
  window_.Add(finish, latency_ms);
  latency_stats_.Add(latency_ms);
  ++completed_;
  if (config_.record_sojourns) {
    for (size_t i = 0; i < sojourn_acc.size(); ++i) {
      if (sojourn_acc[i] > 0.0) {
        sojourns_[i].Add(sojourn_acc[i] * 1000.0);
      }
    }
  }
  if (config_.sink != nullptr && config_.noise_events_per_request > 0.0) {
    EmitNoise(now);
  }
}

MessageId LcService::MakeHopMessage(int src_pod, int dst_pod) {
  const uint32_t src_ip = src_pod < 0 ? kClientIp : PodIp(src_pod);
  MessageId msg{.sender_ip = src_ip,
                .sender_port = 0,
                .receiver_ip = PodIp(dst_pod),
                .receiver_port = static_cast<uint16_t>(8000 + dst_pod),
                .message_size = 0};
  if (config_.persistent_tcp && src_pod >= 0) {
    // One long-lived connection per edge: every request on this hop shares
    // the identifier (fixed port and size).
    msg.sender_port = static_cast<uint16_t>(20000 + src_pod * 64 + dst_pod);
    msg.message_size = 256;
  } else {
    msg.sender_port = next_ephemeral_port_++;
    if (next_ephemeral_port_ > 60000) {
      next_ephemeral_port_ = 10000;
    }
    msg.message_size = 128u + static_cast<uint32_t>(rng_.UniformInt(512));
  }
  return msg;
}

double LcService::WalkNode(const CallNode& node, double start, double load,
                           std::vector<double>& sojourn_acc, uint64_t request_id,
                           int parent_pod, const MessageId* in_msg) {
  const int pod = node.component;
  // `load` is the arrival's CurrentLoad(): the clock does not advance inside
  // a walk, so re-reading the profile per node (as the pre-overhaul code
  // did) returned the identical value.
  const double lambda = load * app_.maxload_qps * visits_[pod];
  if (std::isnan(walk_inflation_[pod])) {
    walk_inflation_[pod] = PodInflation(pod);
  }
  const double inflation = walk_inflation_[pod];
  PodMath& math = pod_math_[pod];
  if (math.load != load || math.inflation != inflation || math.lambda != lambda) {
    math.params = models_[pod].ComputeLocalParams(lambda, load, inflation);
    math.load = load;
    math.inflation = inflation;
    math.lambda = lambda;
  }
  // A hiccup stalls requests in flight (GC pause, compaction): it dilates
  // the sampled local time directly rather than the station's equilibrium
  // (a sub-second burst does not move the queueing operating point).
  const double local_ms =
      ComponentModel::SampleWithParams(math.params, rng_) * PodHiccupFactor(pod);
  const double local_s = local_ms / 1000.0;
  sojourn_acc[pod] += local_s;

  // The local work is split around the downstream calls: request parsing /
  // dispatch before, response assembly after.
  const double down_s = 0.45 * local_s;
  const double up_s = local_s - down_s;

  EventSink* sink = config_.sink;
  ContextId ctx;
  MessageId request_msg;
  if (sink != nullptr) {
    ctx = ContextId{.host_ip = PodIp(pod),
                    .program = 100u + static_cast<uint32_t>(pod),
                    .process_id = 1000u + static_cast<uint32_t>(pod),
                    // One worker thread per in-flight request in blocking
                    // mode; the id ties the pod's RECV/SEND pairs together.
                    .thread_id = static_cast<uint32_t>(request_id % 64)};
    request_msg = in_msg != nullptr ? *in_msg : MakeHopMessage(-1, pod);
    sink->Record(KernelEvent{.type = parent_pod < 0 ? EventType::kAccept : EventType::kRecv,
                             .timestamp = start,
                             .context = ctx,
                             .message = request_msg});
  }

  // Recurses into `child` with matched SEND/RECV event pairs on both sides
  // of each hop (same message identifier, as a shared TCP connection gives).
  auto call_child = [&](const CallNode& child, double at) -> double {
    MessageId down_msg;
    if (sink != nullptr) {
      down_msg = MakeHopMessage(pod, child.component);
      sink->Record(KernelEvent{
          .type = EventType::kSend, .timestamp = at, .context = ctx, .message = down_msg});
    }
    const double child_end = WalkNode(child, at, load, sojourn_acc, request_id, pod,
                                      sink != nullptr ? &down_msg : nullptr);
    if (sink != nullptr) {
      // The child's reply travels back on the reversed connection tuple.
      const MessageId up_msg{.sender_ip = down_msg.receiver_ip,
                             .sender_port = down_msg.receiver_port,
                             .receiver_ip = down_msg.sender_ip,
                             .receiver_port = down_msg.sender_port,
                             .message_size = down_msg.message_size + 1};
      sink->Record(KernelEvent{
          .type = EventType::kRecv, .timestamp = child_end, .context = ctx, .message = up_msg});
    }
    return child_end;
  };

  double children_end = start + down_s;
  if (!node.children.empty()) {
    if (node.parallel_children) {
      double max_end = children_end;
      for (const CallNode& child : node.children) {
        max_end = std::max(max_end, call_child(child, children_end));
      }
      children_end = max_end;
    } else {
      for (const CallNode& child : node.children) {
        children_end = call_child(child, children_end);
      }
    }
  }

  const double finish = children_end + up_s;
  if (sink != nullptr) {
    // Reply to the caller: reversed connection tuple of the request message
    // (the child-side SEND the parent's RECV above pairs with).
    const MessageId reply{.sender_ip = request_msg.receiver_ip,
                          .sender_port = request_msg.receiver_port,
                          .receiver_ip = request_msg.sender_ip,
                          .receiver_port = request_msg.sender_port,
                          .message_size = request_msg.message_size + 1};
    sink->Record(KernelEvent{.type = parent_pod < 0 ? EventType::kClose : EventType::kSend,
                             .timestamp = finish,
                             .context = ctx,
                             .message = reply});
  }
  return finish;
}

void LcService::EmitNoise(double now) {
  const uint64_t n = rng_.Poisson(config_.noise_events_per_request);
  for (uint64_t i = 0; i < n; ++i) {
    const int pod = static_cast<int>(rng_.UniformInt(app_.components.size()));
    // Unrelated program on the same host: must be filtered out by the
    // tracer's context-identifier check.
    config_.sink->Record(KernelEvent{
        .type = rng_.Bernoulli(0.5) ? EventType::kRecv : EventType::kSend,
        .timestamp = now + rng_.Uniform(0.0, 0.005),
        .context = ContextId{.host_ip = PodIp(pod),
                             .program = 999,
                             .process_id = 9990u + static_cast<uint32_t>(rng_.UniformInt(8)),
                             .thread_id = static_cast<uint32_t>(rng_.UniformInt(16))},
        .message = MessageId{.sender_ip = PodIp(pod),
                             .sender_port = static_cast<uint16_t>(40000 + rng_.UniformInt(1000)),
                             .receiver_ip = 0x0b000001u,
                             .receiver_port = 443,
                             .message_size = static_cast<uint32_t>(rng_.UniformInt(4096))}});
  }
}

void LcService::ResetSojourns() {
  for (RunningStats& s : sojourns_) {
    s.Reset();
  }
  latency_stats_.Reset();
}

}  // namespace rhythm
