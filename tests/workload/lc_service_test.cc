#include "src/workload/lc_service.h"

#include <gtest/gtest.h>

#include "src/trace/event_log.h"

namespace rhythm {
namespace {

TEST(LcServiceTest, ArrivalRateMatchesLoad) {
  Simulator sim;
  LcService::Config config;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.5);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(60.0);
  // Expected ~0.5 * 1300 * 60 = 39000 completions (Poisson, +-2%).
  EXPECT_NEAR(static_cast<double>(service.completed_requests()), 39000.0, 1500.0);
}

TEST(LcServiceTest, StopHaltsArrivals) {
  Simulator sim;
  LcService::Config config;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.5);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(10.0);
  service.Stop();
  const uint64_t at_stop = service.completed_requests();
  sim.RunUntil(20.0);
  EXPECT_EQ(service.completed_requests(), at_stop);
}

TEST(LcServiceTest, TailLatencyReasonableAtLowLoad) {
  Simulator sim;
  LcService::Config config;
  config.tail_window_s = 30.0;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.25);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(35.0);
  const double p99 = service.TailLatencyMs();
  EXPECT_GT(p99, 40.0);    // well above the ~45 ms mean path...
  EXPECT_LT(p99, 250.0);   // ...but below the SLA at a quarter load.
  const double p50 = service.TailLatencyMs(0.5);
  EXPECT_LT(p50, p99);
}

TEST(LcServiceTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    LcService::Config config;
    config.seed = 123;
    LcService service(&sim, MakeApp(LcAppKind::kSolr), config);
    ConstantLoad profile(0.4);
    service.SetLoadProfile(&profile);
    service.Start();
    sim.RunUntil(30.0);
    return std::make_pair(service.completed_requests(), service.TailLatencyMs());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(LcServiceTest, InflationRaisesLatencyAndUtilization) {
  auto tail_with_inflation = [](double inflation) {
    Simulator sim;
    LcService::Config config;
    config.tail_window_s = 30.0;
    LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
    service.SetInflationProvider([inflation](int pod) { return pod == 3 ? inflation : 1.0; });
    ConstantLoad profile(0.5);
    service.SetLoadProfile(&profile);
    service.Start();
    sim.RunUntil(35.0);
    return service.TailLatencyMs();
  };
  EXPECT_GT(tail_with_inflation(2.0), tail_with_inflation(1.0) * 1.2);

  Simulator sim;
  LcService::Config config;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  service.SetInflationProvider([](int) { return 2.0; });
  ConstantLoad profile(0.5);
  service.SetLoadProfile(&profile);
  EXPECT_NEAR(service.PodUtilization(3), 2.0 * service.PodLambda(3) *
                  ComponentModel(service.app().components[3]).EffectiveServiceMs(0.5, 1.0) /
                  1000.0 / service.app().components[3].workers,
              1e-9);
}

TEST(LcServiceTest, PodLambdaUsesRealRateNotThinned) {
  Simulator sim;
  LcService::Config config;
  LcService service(&sim, MakeApp(LcAppKind::kRedis), config);
  ConstantLoad profile(0.5);
  service.SetLoadProfile(&profile);
  // Master sees the full 43 kQPS even though the simulated stream is capped.
  EXPECT_NEAR(service.PodLambda(0), 43000.0, 1.0);
  // Slave is visited twice per request (fan-out of two shards).
  EXPECT_NEAR(service.PodLambda(1), 86000.0, 1.0);
}

TEST(LcServiceTest, SojournRecordingMatchesCatalogMeans) {
  Simulator sim;
  LcService::Config config;
  config.record_sojourns = true;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.1);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(60.0);
  const AppSpec app = MakeApp(LcAppKind::kEcommerce);
  for (int pod = 0; pod < app.pod_count(); ++pod) {
    const double expected = ComponentModel(app.components[pod]).EffectiveServiceMs(0.1, 1.0);
    EXPECT_NEAR(service.PodSojournStats(pod).mean(), expected, expected * 0.1)
        << app.components[pod].name;
  }
}

TEST(LcServiceTest, ActivityScalesWithLoad) {
  Simulator sim;
  LcService::Config config;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad low(0.2);
  service.SetLoadProfile(&low);
  const double busy_low = service.PodBusyCores(1);
  const double membw_low = service.PodMembwGbs(1);
  ConstantLoad high(0.8);
  service.SetLoadProfile(&high);
  EXPECT_GT(service.PodBusyCores(1), busy_low * 2.0);
  EXPECT_GT(service.PodMembwGbs(1), membw_low * 2.0);
  EXPECT_GT(service.PodNetGbps(1), 0.0);
}

TEST(LcServiceTest, EventEmissionBalanced) {
  Simulator sim;
  EventLog log;
  LcService::Config config;
  config.sink = &log;
  LcService service(&sim, MakeApp(LcAppKind::kEcommerce), config);
  ConstantLoad profile(0.1);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(10.0);
  // A 4-pod chain emits per request: 1 ACCEPT + 1 CLOSE at the root,
  // 3 RECV+SEND pairs inbound plus 3 SEND+RECV pairs for replies = 14.
  size_t accepts = 0;
  size_t closes = 0;
  size_t sends = 0;
  size_t recvs = 0;
  for (const KernelEvent& event : log.events()) {
    switch (event.type) {
      case EventType::kAccept:
        ++accepts;
        break;
      case EventType::kClose:
        ++closes;
        break;
      case EventType::kSend:
        ++sends;
        break;
      case EventType::kRecv:
        ++recvs;
        break;
    }
  }
  EXPECT_GT(accepts, 100u);
  EXPECT_EQ(accepts, closes);
  EXPECT_EQ(sends, recvs);
  EXPECT_EQ(sends, accepts * 6);
}

TEST(LcServiceTest, NoiseEventsEmittedWhenConfigured) {
  Simulator sim;
  EventLog log;
  LcService::Config config;
  config.sink = &log;
  config.noise_events_per_request = 1.0;
  LcService service(&sim, MakeApp(LcAppKind::kSolr), config);
  ConstantLoad profile(0.2);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(10.0);
  size_t noise = 0;
  for (const KernelEvent& event : log.events()) {
    if (event.context.program == 999) {
      ++noise;
    }
  }
  EXPECT_GT(noise, 100u);
}

}  // namespace
}  // namespace rhythm
