#include "src/trace/sojourn_extractor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace rhythm {
namespace {

ContextId Ctx(int pod, uint32_t tid = 0) {
  return ContextId{.host_ip = 0x0a000001u + static_cast<uint32_t>(pod),
                   .program = 100u + static_cast<uint32_t>(pod),
                   .process_id = 1000u + static_cast<uint32_t>(pod),
                   .thread_id = tid};
}

MessageId ServerMsg(int pod, uint16_t sport = 1234) {
  return MessageId{.sender_ip = 0x0a0000ffu,
                   .sender_port = sport,
                   .receiver_ip = 0x0a000001u + static_cast<uint32_t>(pod),
                   .receiver_port = static_cast<uint16_t>(8000 + pod),
                   .message_size = 100};
}

KernelEvent Event(EventType type, double t, int pod, const MessageId& msg, uint32_t tid = 0) {
  return KernelEvent{.type = type, .timestamp = t, .context = Ctx(pod, tid), .message = msg};
}

TracerConfig Config(int pods) { return TracerConfig{.program_base = 100, .num_pods = pods}; }

TEST(PodOfEventTest, MapsProgramsAndFiltersNoise) {
  const TracerConfig config = Config(3);
  KernelEvent event = Event(EventType::kRecv, 0.0, 1, ServerMsg(1));
  EXPECT_EQ(PodOfEvent(event, config), 1);
  event.context.program = 999;
  EXPECT_EQ(PodOfEvent(event, config), -1);
  event.context.program = 99;
  EXPECT_EQ(PodOfEvent(event, config), -1);
  event.context.program = 103;  // beyond num_pods.
  EXPECT_EQ(PodOfEvent(event, config), -1);
}

TEST(ExtractMeanSojournsTest, SingleBlockingVisit) {
  // Pod 0: ACCEPT at 1.0, CLOSE at 1.5 -> sojourn 0.5 s.
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 1.0, 0, ServerMsg(0)),
      Event(EventType::kClose, 1.5, 0, ServerMsg(0)),
  };
  const SojournSummary summary = ExtractMeanSojourns(events, Config(1));
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_EQ(summary.visits[0], 1u);
  EXPECT_NEAR(summary.mean_sojourn_s[0], 0.5, 1e-12);
}

TEST(ExtractMeanSojournsTest, MiddlePodExcludesDownstreamTime) {
  // Pod 0 receives at 0, sends to pod 1 at 0.1 (0.1 local), pod 1 processes
  // 0.3, pod 0 receives reply at 0.4 and responds at 0.45 (0.05 local).
  const MessageId hop{.sender_ip = 1, .sender_port = 50, .receiver_ip = 2,
                      .receiver_port = 8001, .message_size = 10};
  // The reply to pod 0 lands on its *ephemeral* port (it is a downstream
  // response, not a new visit on the server port).
  const MessageId hop_reply{.sender_ip = 2, .sender_port = 8001, .receiver_ip = 1,
                            .receiver_port = 50, .message_size = 11};
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 0.0, 0, ServerMsg(0)),
      Event(EventType::kSend, 0.1, 0, hop),
      Event(EventType::kRecv, 0.1, 1, hop),
      Event(EventType::kSend, 0.4, 1, hop_reply),
      Event(EventType::kRecv, 0.4, 0, hop_reply),
      Event(EventType::kClose, 0.45, 0, ServerMsg(0)),
  };
  const SojournSummary summary = ExtractMeanSojourns(events, Config(2));
  EXPECT_NEAR(summary.mean_sojourn_s[0], 0.15, 1e-12);  // 0.1 + 0.05, not 0.45.
  // Pod 1's inbound came in on the hop message (ephemeral receiver port),
  // not its server port... the hop targets port 8001 == pod 1's server port.
  EXPECT_EQ(summary.visits[1], 1u);
  EXPECT_NEAR(summary.mean_sojourn_s[1], 0.3, 1e-12);
}

TEST(ExtractMeanSojournsTest, NoiseFiltered) {
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 1.0, 0, ServerMsg(0)),
      Event(EventType::kClose, 2.0, 0, ServerMsg(0)),
  };
  KernelEvent noise = Event(EventType::kSend, 1.5, 0, ServerMsg(0));
  noise.context.program = 999;
  events.push_back(noise);
  const SojournSummary summary = ExtractMeanSojourns(events, Config(1));
  EXPECT_EQ(summary.noise_filtered, 1u);
  EXPECT_NEAR(summary.mean_sojourn_s[0], 1.0, 1e-12);
}

// The paper's §3.3 identity: with nonblocking threads the per-request
// pairing can mismatch, but the mean over all requests is unaffected because
// sum(SEND) - sum(RECV) is pairing-invariant.
TEST(ExtractMeanSojournsTest, NonblockingMismatchImmunity) {
  // Two requests interleave on one thread: A in at 0, B in at 0.1;
  // B's reply out at 0.3, A's out at 0.6 (out-of-order completion).
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 0.0, 0, ServerMsg(0, 10), /*tid=*/5),
      Event(EventType::kAccept, 0.1, 0, ServerMsg(0, 11), /*tid=*/5),
      Event(EventType::kClose, 0.3, 0, ServerMsg(0, 11), /*tid=*/5),
      Event(EventType::kClose, 0.6, 0, ServerMsg(0, 10), /*tid=*/5),
  };
  const SojournSummary summary = ExtractMeanSojourns(events, Config(1));
  // True sojourns: A = 0.6, B = 0.2; mean = 0.4 regardless of pairing.
  EXPECT_EQ(summary.visits[0], 2u);
  EXPECT_NEAR(summary.mean_sojourn_s[0], 0.4, 1e-12);
}

TEST(ExtractPairedSojournsTest, BlockingModeExact) {
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 0.0, 0, ServerMsg(0, 10), /*tid=*/1),
      Event(EventType::kClose, 0.5, 0, ServerMsg(0, 10), /*tid=*/1),
      Event(EventType::kAccept, 1.0, 0, ServerMsg(0, 11), /*tid=*/2),
      Event(EventType::kClose, 1.2, 0, ServerMsg(0, 11), /*tid=*/2),
  };
  const auto sojourns = ExtractPairedSojourns(events, Config(1));
  ASSERT_EQ(sojourns[0].size(), 2u);
  EXPECT_NEAR(sojourns[0][0], 0.5, 1e-12);
  EXPECT_NEAR(sojourns[0][1], 0.2, 1e-12);
}

TEST(ExtractPairedSojournsTest, NonblockingMismatchPreservesSumAndMean) {
  // Same interleaving as above, single context: order-based pairing yields
  // A->0.3 and B->0.5 (both wrong individually) but the sum 0.8 is right.
  std::vector<KernelEvent> events = {
      Event(EventType::kAccept, 0.0, 0, ServerMsg(0, 10), /*tid=*/5),
      Event(EventType::kAccept, 0.1, 0, ServerMsg(0, 11), /*tid=*/5),
      Event(EventType::kClose, 0.3, 0, ServerMsg(0, 11), /*tid=*/5),
      Event(EventType::kClose, 0.6, 0, ServerMsg(0, 10), /*tid=*/5),
  };
  const auto sojourns = ExtractPairedSojourns(events, Config(1));
  ASSERT_EQ(sojourns[0].size(), 2u);
  EXPECT_NEAR(sojourns[0][0], 0.3, 1e-12);  // mismatched pairing...
  EXPECT_NEAR(sojourns[0][1], 0.5, 1e-12);
  EXPECT_NEAR(sojourns[0][0] + sojourns[0][1], 0.8, 1e-12);  // ...sum exact.
}

TEST(ExtractPairedSojournsTest, UnmatchedOutboundIgnored) {
  std::vector<KernelEvent> events = {
      Event(EventType::kSend, 0.5, 0, ServerMsg(0)),  // truncated capture.
      Event(EventType::kAccept, 1.0, 0, ServerMsg(0)),
      Event(EventType::kClose, 1.4, 0, ServerMsg(0)),
  };
  const auto sojourns = ExtractPairedSojourns(events, Config(1));
  ASSERT_EQ(sojourns[0].size(), 1u);
  EXPECT_NEAR(sojourns[0][0], 0.4, 1e-12);
}

TEST(ExtractMeanSojournsTest, EmptyInput) {
  const SojournSummary summary = ExtractMeanSojourns({}, Config(2));
  EXPECT_EQ(summary.requests, 0u);
  EXPECT_EQ(summary.mean_sojourn_s[0], 0.0);
  EXPECT_EQ(summary.mean_sojourn_s[1], 0.0);
}

// -- MeanSojournSink against the buffered extraction --------------------------

// The extraction loop as it ran over a whole buffered capture before the
// profiler streamed events into a sink; the sink must reproduce it bit for
// bit (same sums, added in the same order).
SojournSummary BufferedMeanSojourns(std::span<const KernelEvent> events,
                                    const TracerConfig& config) {
  SojournSummary summary;
  summary.mean_sojourn_s.assign(config.num_pods, 0.0);
  summary.visits.assign(config.num_pods, 0);
  std::vector<double> net_time(config.num_pods, 0.0);
  for (const KernelEvent& event : events) {
    const int pod = PodOfEvent(event, config);
    if (pod < 0) {
      ++summary.noise_filtered;
      continue;
    }
    if (event.type == EventType::kAccept || event.type == EventType::kRecv) {
      net_time[pod] -= event.timestamp;
      if (event.message.receiver_port ==
          static_cast<uint16_t>(config.server_port_base + pod)) {
        ++summary.visits[pod];
      }
      if (event.type == EventType::kAccept) {
        ++summary.requests;
      }
    } else {
      net_time[pod] += event.timestamp;
    }
  }
  for (int pod = 0; pod < config.num_pods; ++pod) {
    if (summary.visits[pod] > 0) {
      summary.mean_sojourn_s[pod] = net_time[pod] / static_cast<double>(summary.visits[pod]);
    }
  }
  return summary;
}

// A seeded stream mixing LC programs with noise programs below and above the
// LC range, all four event types, and inbound messages landing on the pod's
// server port, another pod's server port or an ephemeral port.
std::vector<KernelEvent> RandomEvents(uint64_t seed, const TracerConfig& config, int count) {
  Rng rng(seed);
  std::vector<KernelEvent> events;
  events.reserve(count);
  double t = rng.Uniform(0.0, 1000.0);
  for (int i = 0; i < count; ++i) {
    KernelEvent event;
    event.type = static_cast<EventType>(rng.UniformInt(4));
    t += rng.Exponential(0.001);
    // Now and then out of timestamp order, as merged per-host captures are.
    event.timestamp = rng.UniformInt(8) == 0 ? t - rng.Uniform(0.0, 0.5) : t;
    const uint64_t program = rng.UniformInt(config.num_pods + 6);
    if (program < 3) {
      event.context.program = config.program_base - 1 - static_cast<uint32_t>(program);
    } else if (program < 6) {
      event.context.program = config.program_base + static_cast<uint32_t>(config.num_pods) +
                              static_cast<uint32_t>(program - 3);
    } else {
      event.context.program = config.program_base + static_cast<uint32_t>(program - 6);
    }
    event.context.thread_id = static_cast<uint32_t>(rng.UniformInt(4));
    const uint64_t port = rng.UniformInt(3);
    const int pod = static_cast<int>(event.context.program - config.program_base);
    if (port == 0 && pod >= 0 && pod < config.num_pods) {
      event.message.receiver_port = static_cast<uint16_t>(config.server_port_base + pod);
    } else if (port == 1) {
      event.message.receiver_port = static_cast<uint16_t>(
          config.server_port_base + static_cast<int>(rng.UniformInt(config.num_pods)));
    } else {
      event.message.receiver_port = static_cast<uint16_t>(32768 + rng.UniformInt(28000));
    }
    event.message.sender_port = static_cast<uint16_t>(32768 + rng.UniformInt(28000));
    event.message.message_size = static_cast<uint32_t>(rng.UniformInt(4096));
    events.push_back(event);
  }
  return events;
}

void ExpectBitIdentical(const SojournSummary& actual, const SojournSummary& expected) {
  ASSERT_EQ(actual.mean_sojourn_s.size(), expected.mean_sojourn_s.size());
  for (size_t pod = 0; pod < expected.mean_sojourn_s.size(); ++pod) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.mean_sojourn_s[pod]),
              std::bit_cast<uint64_t>(expected.mean_sojourn_s[pod]))
        << "pod " << pod << ": " << actual.mean_sojourn_s[pod] << " vs "
        << expected.mean_sojourn_s[pod];
  }
  EXPECT_EQ(actual.visits, expected.visits);
  EXPECT_EQ(actual.requests, expected.requests);
  EXPECT_EQ(actual.noise_filtered, expected.noise_filtered);
}

TEST(MeanSojournSinkTest, MatchesBufferedExtractionAcrossAReset) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const TracerConfig config{.program_base = static_cast<uint32_t>(100 + 50 * (seed % 3)),
                              .num_pods = 1 + static_cast<int>(seed % 6),
                              .server_port_base = static_cast<uint16_t>(seed % 2 ? 8000 : 9100)};
    const std::vector<KernelEvent> events = RandomEvents(seed, config, 2000);
    const size_t reset_at = static_cast<size_t>(seed * 37 % events.size());

    MeanSojournSink sink(config);
    for (size_t i = 0; i < reset_at; ++i) {
      sink.Record(events[i]);
    }
    sink.Reset();
    for (size_t i = reset_at; i < events.size(); ++i) {
      sink.Record(events[i]);
    }
    const std::span<const KernelEvent> after_reset(events.data() + reset_at,
                                                   events.size() - reset_at);
    const SojournSummary expected = BufferedMeanSojourns(after_reset, config);
    ExpectBitIdentical(sink.Summary(), expected);
    ExpectBitIdentical(ExtractMeanSojourns(after_reset, config), expected);
  }
}

TEST(MeanSojournSinkTest, SummaryDoesNotDisturbTheSums) {
  const TracerConfig config = Config(3);
  const std::vector<KernelEvent> events = RandomEvents(99, config, 500);
  MeanSojournSink sink(config);
  for (size_t i = 0; i < events.size(); ++i) {
    sink.Record(events[i]);
    if (i % 50 == 0) {
      ExpectBitIdentical(sink.Summary(), BufferedMeanSojourns(
                                             std::span(events.data(), i + 1), config));
    }
  }
  ExpectBitIdentical(sink.Summary(), BufferedMeanSojourns(events, config));
}

TEST(MeanSojournSinkTest, ResetForgetsEverything) {
  const TracerConfig config = Config(2);
  MeanSojournSink sink(config);
  for (const KernelEvent& event : RandomEvents(5, config, 300)) {
    sink.Record(event);
  }
  sink.Reset();
  ExpectBitIdentical(sink.Summary(), BufferedMeanSojourns({}, config));
}

}  // namespace
}  // namespace rhythm
