#include "src/serve/whatif.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/place/cluster_engine.h"
#include "src/runner/runner.h"
#include "src/serve/daemon.h"
#include "tests/serve/http_client.h"

namespace rhythm {
namespace {

using testing::Fetch;
using testing::TestResponse;

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << error;
  return value;
}

// Short windows keep the suite fast; thresholds come from the shared disk
// cache (RHYTHM_THRESHOLD_CACHE, set by the test harness).
constexpr char kTrialBody[] =
    "{\"app\":\"Redis\",\"be\":\"wordcount\",\"seed\":7,"
    "\"warmup_s\":2,\"measure_s\":8}";

TEST(ParseNamesTest, CatalogNamesRoundTripNormalized) {
  LcAppKind app;
  EXPECT_TRUE(ParseLcAppKindName("E-commerce", &app));
  EXPECT_EQ(app, LcAppKind::kEcommerce);
  EXPECT_TRUE(ParseLcAppKindName("ecommerce", &app));
  EXPECT_EQ(app, LcAppKind::kEcommerce);
  EXPECT_TRUE(ParseLcAppKindName("SNMS", &app));
  EXPECT_FALSE(ParseLcAppKindName("warcraft", &app));

  BeJobKind be;
  EXPECT_TRUE(ParseBeJobKindName("stream-llc(big)", &be));
  EXPECT_EQ(be, BeJobKind::kStreamLlcBig);
  EXPECT_TRUE(ParseBeJobKindName("STREAMLLCBIG", &be));
  EXPECT_EQ(be, BeJobKind::kStreamLlcBig);
  EXPECT_FALSE(ParseBeJobKindName("", &be));

  ControllerKind controller;
  EXPECT_TRUE(ParseControllerKindName("Heracles", &controller));
  EXPECT_EQ(controller, ControllerKind::kHeracles);
  EXPECT_TRUE(ParseControllerKindName("none", &controller));
  EXPECT_EQ(controller, ControllerKind::kNone);

  // Every catalog name parses back to its own kind (inverse property).
  for (LcAppKind kind : AllLcAppKinds()) {
    LcAppKind parsed;
    ASSERT_TRUE(ParseLcAppKindName(LcAppKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  for (BeJobKind kind : AllBeJobKinds()) {
    BeJobKind parsed;
    ASSERT_TRUE(ParseBeJobKindName(BeJobKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
}

TEST(ParseWhatIfTest, TrialFieldsLand) {
  const WhatIfQuery query = ParseWhatIfQuery(MustParse(
      "{\"kind\":\"trial\",\"app\":\"Solr\",\"be\":\"iperf\","
      "\"controller\":\"none\",\"seed\":99,\"load\":0.6,\"warmup_s\":3,"
      "\"measure_s\":11,\"label\":\"cell-a\","
      "\"thresholds\":[{\"loadlimit\":0.8,\"slacklimit\":0.15}],"
      "\"hardening\":{\"oscillation_guard\":true},"
      "\"faults\":[{\"kind\":\"PodCrash\",\"pod\":1,\"start_s\":4,"
      "\"duration_s\":2,\"magnitude\":1}]}"));
  EXPECT_EQ(query.kind, WhatIfQuery::Kind::kTrial);
  EXPECT_EQ(query.trial.app, LcAppKind::kSolr);
  EXPECT_EQ(query.trial.be, BeJobKind::kIperf);
  EXPECT_EQ(query.trial.controller, ControllerKind::kNone);
  EXPECT_EQ(query.trial.seed, 99u);
  EXPECT_DOUBLE_EQ(query.trial.load, 0.6);
  EXPECT_DOUBLE_EQ(query.trial.warmup_s, 3.0);
  EXPECT_DOUBLE_EQ(query.trial.measure_s, 11.0);
  EXPECT_EQ(query.trial.label, "cell-a");
  ASSERT_EQ(query.trial.thresholds.size(), 1u);
  EXPECT_DOUBLE_EQ(query.trial.thresholds[0].loadlimit, 0.8);
  EXPECT_TRUE(query.trial.hardening.oscillation_guard);
  EXPECT_FALSE(query.trial.hardening.readmission_jitter);
  ASSERT_NE(query.trial.faults, nullptr);
  ASSERT_EQ(query.trial.faults->events.size(), 1u);
  EXPECT_EQ(query.trial.faults->events[0].kind, FaultKind::kPodCrash);
}

TEST(ParseWhatIfTest, ClusterFieldsLand) {
  const WhatIfQuery query = ParseWhatIfQuery(MustParse(
      "{\"kind\":\"cluster\",\"machines\":12,\"policy\":\"bin-packing\","
      "\"seed\":5,\"epochs\":2,\"epoch_load_scale\":[1.0,0.5],"
      "\"warmup_s\":2,\"measure_s\":9,\"include_groups\":true,"
      "\"lc_demand\":[{\"app\":\"Redis\",\"count\":2,\"load\":0.4}],"
      "\"be_backlog\":[{\"be\":\"wordcount\",\"weight\":2}],"
      "\"supervisor\":{\"enabled\":true,\"migration_budget\":3},"
      "\"faults\":[{\"kind\":\"MachineFailure\",\"machine\":1,"
      "\"start_s\":5,\"duration_s\":20}]}"));
  EXPECT_EQ(query.kind, WhatIfQuery::Kind::kCluster);
  EXPECT_TRUE(query.include_groups);
  EXPECT_EQ(query.cluster.spec.machines, 12);
  EXPECT_EQ(query.cluster.policy, "bin-packing");
  EXPECT_EQ(query.cluster.epochs, 2);
  ASSERT_EQ(query.cluster.epoch_load_scale.size(), 2u);
  EXPECT_DOUBLE_EQ(query.cluster.epoch_load_scale[1], 0.5);
  ASSERT_EQ(query.cluster.spec.lc_demand.size(), 1u);
  EXPECT_EQ(query.cluster.spec.lc_demand[0].app, LcAppKind::kRedis);
  ASSERT_EQ(query.cluster.spec.be_backlog.size(), 1u);
  EXPECT_TRUE(query.cluster.supervisor.enabled);
  EXPECT_EQ(query.cluster.supervisor.migration_budget, 3);
  ASSERT_NE(query.cluster.faults, nullptr);
  EXPECT_EQ(query.cluster.faults->events[0].kind, FaultKind::kMachineFailure);
  EXPECT_EQ(query.cluster.faults->events[0].pod, 1);
}

TEST(ParseWhatIfTest, RejectsBadBodies) {
  EXPECT_THROW(ParseWhatIfQuery(MustParse("[1,2]")), std::invalid_argument);
  EXPECT_THROW(ParseWhatIfQuery(MustParse("{\"kind\":\"banana\"}")),
               std::invalid_argument);
  EXPECT_THROW(ParseWhatIfQuery(MustParse("{\"app\":\"warcraft\"}")),
               std::invalid_argument);
  EXPECT_THROW(ParseWhatIfQuery(MustParse("{\"typo_key\":1}")),
               std::invalid_argument);
  EXPECT_THROW(
      ParseWhatIfQuery(MustParse("{\"thresholds\":[{\"loadlimit\":0.5}]}")),
      std::invalid_argument);
  EXPECT_THROW(
      ParseWhatIfQuery(MustParse("{\"faults\":[{\"kind\":\"Quake\"}]}")),
      std::invalid_argument);
  EXPECT_THROW(ParseWhatIfQuery(MustParse(
                   "{\"load_profile\":{\"kind\":\"sawtooth\"}}")),
               std::invalid_argument);
  EXPECT_THROW(ParseWhatIfQuery(MustParse(
                   "{\"kind\":\"cluster\",\"lc_demand\":[]}")),
               std::invalid_argument);
  for (const char* machines : {"0", "-3", "1000001"}) {
    EXPECT_THROW(ParseWhatIfQuery(MustParse(
                     std::string("{\"kind\":\"cluster\",\"machines\":") +
                     machines + "}")),
                 std::invalid_argument)
        << machines;
  }
}

// The std::invalid_argument message ParseWhatIfQuery rejects `body` with.
std::string RejectionOf(const std::string& body) {
  try {
    ParseWhatIfQuery(MustParse(body));
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "accepted: " << body;
  return "";
}

TEST(ParseWhatIfTest, BoundsLcDemandCounts) {
  const std::string prefix = "{\"kind\":\"cluster\",\"lc_demand\":[";
  for (const char* entries :
       {"{\"app\":\"Redis\",\"count\":1000000000}",
        "{\"app\":\"Redis\",\"count\":-1}",
        "{\"app\":\"Redis\",\"count\":600000},"
        "{\"app\":\"Solr\",\"count\":600000}"}) {
    EXPECT_NE(RejectionOf(prefix + entries + "]}").find("lc_demand"),
              std::string::npos)
        << entries;
  }
  const WhatIfQuery largest = ParseWhatIfQuery(
      MustParse(prefix + "{\"app\":\"Redis\",\"count\":1000000}]}"));
  EXPECT_EQ(largest.cluster.spec.TotalGroups(), 1000000);
}

TEST(ParseWhatIfTest, OutOfRangeIntegersAreRejectedNotConverted) {
  EXPECT_NE(RejectionOf("{\"kind\":\"cluster\",\"machines\":1e300}")
                .find("machines"),
            std::string::npos);
  EXPECT_NE(RejectionOf("{\"kind\":\"cluster\","
                        "\"supervisor\":{\"migration_budget\":1e300}}")
                .find("migration_budget"),
            std::string::npos);
  EXPECT_NE(RejectionOf("{\"kind\":\"cluster\",\"epochs\":4294967297}")
                .find("epochs"),
            std::string::npos);
  EXPECT_NE(RejectionOf("{\"faults\":[{\"kind\":\"PodCrash\","
                        "\"pod\":-3e9}]}")
                .find("pod"),
            std::string::npos);
  // A seed past int64_t saturates instead of converting undefinedly.
  const WhatIfQuery trial =
      ParseWhatIfQuery(MustParse("{\"app\":\"Redis\",\"seed\":1e30}"));
  EXPECT_EQ(trial.trial.seed,
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
  EXPECT_THROW(PlacementsResponseJson(MustParse("{\"epoch\":1e12}")),
               std::invalid_argument);
}

TEST(ParseWhatIfTest, LoadProfilesConstruct) {
  const WhatIfQuery constant = ParseWhatIfQuery(MustParse(
      "{\"load_profile\":{\"kind\":\"constant\",\"load\":0.7}}"));
  ASSERT_NE(constant.trial.profile, nullptr);
  EXPECT_DOUBLE_EQ(constant.trial.profile->LoadAt(100.0), 0.7);

  const WhatIfQuery diurnal = ParseWhatIfQuery(MustParse(
      "{\"load_profile\":{\"kind\":\"diurnal\",\"duration_s\":600,"
      "\"min_load\":0.2,\"max_load\":0.8}}"));
  ASSERT_NE(diurnal.trial.profile, nullptr);
}

// A diurnal load profile; each bound below breaks one DiurnalTrace
// precondition, which must come back as a rejection naming the key, not
// as a process abort.
std::string DiurnalBody(const char* duration_s, const char* min_load,
                        const char* max_load) {
  return std::string("{\"app\":\"Redis\",\"controller\":\"none\",") +
         "\"load_profile\":{\"kind\":\"diurnal\",\"duration_s\":" +
         duration_s + ",\"min_load\":" + min_load +
         ",\"max_load\":" + max_load + "}}";
}

TEST(ParseWhatIfTest, DiurnalDurationMustBePositive) {
  for (const char* duration_s : {"0", "-60"}) {
    EXPECT_NE(RejectionOf(DiurnalBody(duration_s, "0.2", "0.9"))
                  .find("duration_s"),
              std::string::npos)
        << duration_s;
  }
}

TEST(ParseWhatIfTest, DiurnalMinLoadMustNotBeNegative) {
  EXPECT_NE(RejectionOf(DiurnalBody("600", "-0.1", "0.9")).find("min_load"),
            std::string::npos);
}

TEST(ParseWhatIfTest, DiurnalMaxLoadMustNotExceedOne) {
  EXPECT_NE(RejectionOf(DiurnalBody("600", "0.2", "1.5")).find("max_load"),
            std::string::npos);
}

TEST(ParseWhatIfTest, DiurnalMinLoadMustNotExceedMaxLoad) {
  EXPECT_NE(RejectionOf(DiurnalBody("600", "0.8", "0.3")).find("min_load"),
            std::string::npos);
  // The edges themselves are valid.
  EXPECT_NE(ParseWhatIfQuery(MustParse(DiurnalBody("1", "0", "1"))).trial.profile,
            nullptr);
}

TEST(WhatIfRenderTest, ResponseJsonReparsesAndEchoesTheRequest) {
  WhatIfQuery query;
  query.trial.seed = 3;
  query.trial.label = "echo";
  RunSummary summary;
  summary.emu = 0.75;
  summary.pods.resize(2);
  const JsonValue doc = MustParse(WhatIfResponseJson(query, summary));
  EXPECT_EQ(doc.StringOr("kind", ""), "trial");
  EXPECT_EQ(doc.IntOr("seed", 0), 3);
  EXPECT_EQ(doc.StringOr("label", ""), "echo");
  const JsonValue* body = doc.Find("summary");
  ASSERT_NE(body, nullptr);
  EXPECT_DOUBLE_EQ(body->NumberOr("emu", 0.0), 0.75);
  ASSERT_NE(body->Find("pods"), nullptr);
  EXPECT_EQ(body->Find("pods")->array.size(), 2u);
}

TEST(WhatIfEvalTest, TrialMatchesBatchRunBitExactly) {
  WhatIfEvalOptions options;
  const std::string served = EvalWhatIfJson(kTrialBody, options);

  // The equivalent hand-built batch run.
  RunRequest request;
  request.app = LcAppKind::kRedis;
  request.be = BeJobKind::kWordcount;
  request.seed = 7;
  request.warmup_s = 2;
  request.measure_s = 8;
  const RunSummary batch = rhythm::Run(request);

  const JsonValue doc = MustParse(served);
  const JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  // %.17g round trip: parsed doubles are bit-equal to the batch values.
  EXPECT_EQ(summary->NumberOr("emu", -1.0), batch.emu);
  EXPECT_EQ(summary->NumberOr("be_throughput", -1.0), batch.be_throughput);
  EXPECT_EQ(summary->NumberOr("worst_tail_ms", -1.0), batch.worst_tail_ms);
  EXPECT_EQ(static_cast<uint64_t>(summary->IntOr("sla_violations", 99)),
            batch.sla_violations);

  // And the whole body is reproducible.
  EXPECT_EQ(served, EvalWhatIfJson(kTrialBody, options));
}

TEST(WhatIfEvalTest, ClusterMatchesBatchRunBitExactly) {
  const std::string body =
      "{\"kind\":\"cluster\",\"machines\":6,\"policy\":\"rhythm-aware\","
      "\"seed\":4,\"warmup_s\":2,\"measure_s\":8,"
      "\"lc_demand\":[{\"app\":\"Redis\",\"count\":2,\"load\":0.4}],"
      "\"be_backlog\":[{\"be\":\"wordcount\",\"weight\":1}]}";
  WhatIfEvalOptions options;
  const std::string served = EvalWhatIfJson(body, options);

  ClusterRunRequest request;
  request.spec.machines = 6;
  request.spec.lc_demand = {{LcAppKind::kRedis, 2, 0.4}};
  request.spec.be_backlog = {{BeJobKind::kWordcount, 1.0}};
  request.policy = "rhythm-aware";
  request.seed = 4;
  request.warmup_s = 2;
  request.measure_s = 8;
  const ClusterSummary batch = RunCluster(request);

  const JsonValue doc = MustParse(served);
  const JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->NumberOr("emu", -1.0), batch.emu);
  EXPECT_EQ(summary->NumberOr("slo_violation_rate", -1.0),
            batch.slo_violation_rate);
  EXPECT_EQ(summary->IntOr("groups_placed", -1), batch.groups_placed);
  // Groups list only on request.
  EXPECT_EQ(summary->Find("groups"), nullptr);
}

// Seeds past 2^53 have no exact double: a group trial's 64-bit derived
// seed must replay through /v1/whatif as itself.
TEST(WhatIfEvalTest, SeedsPastTwoTo53EchoAndMatchBatchRuns) {
  WhatIfEvalOptions options;
  for (const uint64_t seed :
       {(uint64_t{1} << 53) + 1, std::numeric_limits<uint64_t>::max()}) {
    const std::string literal = std::to_string(seed);
    WhatIfQuery trial;
    trial.trial.app = LcAppKind::kRedis;
    trial.trial.be = BeJobKind::kWordcount;
    trial.trial.seed = seed;
    trial.trial.warmup_s = 2;
    trial.trial.measure_s = 8;
    EXPECT_EQ(EvalWhatIfJson("{\"app\":\"Redis\",\"be\":\"wordcount\","
                             "\"seed\":" + literal +
                                 ",\"warmup_s\":2,\"measure_s\":8}",
                             options),
              WhatIfResponseJson(trial, rhythm::Run(trial.trial)))
        << seed;

    WhatIfQuery cluster;
    cluster.kind = WhatIfQuery::Kind::kCluster;
    cluster.cluster.spec.machines = 6;
    cluster.cluster.spec.lc_demand = {{LcAppKind::kRedis, 2, 0.4}};
    cluster.cluster.spec.be_backlog = {{BeJobKind::kWordcount, 1.0}};
    cluster.cluster.seed = seed;
    cluster.cluster.warmup_s = 2;
    cluster.cluster.measure_s = 8;
    EXPECT_EQ(EvalWhatIfJson("{\"kind\":\"cluster\",\"machines\":6,"
                             "\"seed\":" + literal +
                                 ",\"warmup_s\":2,\"measure_s\":8,"
                                 "\"lc_demand\":[{\"app\":\"Redis\","
                                 "\"count\":2,\"load\":0.4}],"
                                 "\"be_backlog\":[{\"be\":\"wordcount\","
                                 "\"weight\":1}]}",
                             options),
              WhatIfResponseJson(cluster, RunCluster(cluster.cluster)))
        << seed;
  }
  // The synthetic spec's seed is read the same way.
  const WhatIfQuery synthetic = ParseWhatIfQuery(MustParse(
      "{\"kind\":\"cluster\",\"synthetic\":true,\"machines\":8,"
      "\"synthetic_seed\":18446744073709551615}"));
  const ClusterSpec want =
      SyntheticClusterSpec(8, std::numeric_limits<uint64_t>::max());
  const ClusterSpec& got = synthetic.cluster.spec;
  ASSERT_EQ(got.lc_demand.size(), want.lc_demand.size());
  for (size_t i = 0; i < want.lc_demand.size(); ++i) {
    EXPECT_EQ(got.lc_demand[i].app, want.lc_demand[i].app);
    EXPECT_EQ(got.lc_demand[i].load, want.lc_demand[i].load);
  }
}

TEST(PlacementsTest, EvaluatesEveryRegisteredPolicy) {
  const JsonValue body = MustParse("{\"machines\":16,\"seed\":3}");
  const JsonValue doc = MustParse(PlacementsResponseJson(body));
  EXPECT_EQ(doc.IntOr("machines", 0), 16);
  const JsonValue* policies = doc.Find("policies");
  ASSERT_NE(policies, nullptr);
  ASSERT_EQ(policies->array.size(), PlacementPolicyNames().size());
  for (const JsonValue& entry : policies->array) {
    EXPECT_GT(entry.IntOr("groups_placed", 0), 0)
        << entry.StringOr("policy", "?");
    const JsonValue* decisions = entry.Find("decisions");
    ASSERT_NE(decisions, nullptr);
    const int total_pods = doc.IntOr("pods", 0);
    (void)total_pods;
    for (const JsonValue& decision : decisions->array) {
      if (decision.BoolOr("placed", false)) {
        EXPECT_GE(decision.IntOr("first_machine", -1), 0);
      } else {
        EXPECT_EQ(decision.IntOr("first_machine", 0), -1);
      }
    }
  }
  // Deterministic at a fixed seed.
  EXPECT_EQ(PlacementsResponseJson(body), PlacementsResponseJson(body));
}

TEST(PlacementsTest, PolicySubsetAndUnknownPolicy) {
  const JsonValue one = MustParse(
      "{\"machines\":8,\"policies\":[\"bin-packing\"]}");
  const JsonValue doc = MustParse(PlacementsResponseJson(one));
  ASSERT_EQ(doc.Find("policies")->array.size(), 1u);
  EXPECT_THROW(
      PlacementsResponseJson(MustParse("{\"policies\":[\"astrology\"]}")),
      std::invalid_argument);
  for (const char* body : {"{\"machines\":0}", "{\"machines\":-3}",
                           "{\"machines\":1000001}"}) {
    EXPECT_THROW(PlacementsResponseJson(MustParse(body)), std::invalid_argument)
        << body;
  }
}

// N parallel clients posting the identical query must all receive
// byte-identical bodies, equal to the batch evaluation. Runs under TSan in
// CI (the tsan job's test regex includes ServeConcurrency).
TEST(ServeConcurrencyTest, ParallelIdenticalQueriesGetIdenticalBytes) {
  DaemonOptions options;
  options.server.port = 0;
  options.server.threads = 4;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const int port = daemon.port();

  WhatIfEvalOptions eval;
  const std::string expected = EvalWhatIfJson(kTrialBody, eval);

  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port, &bodies, i] {
      const TestResponse response =
          Fetch(port, "POST", "/v1/whatif", kTrialBody);
      if (response.ok && response.status == 200) {
        bodies[static_cast<size_t>(i)] = response.body;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  daemon.Stop();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(bodies[static_cast<size_t>(i)], expected) << "client " << i;
  }
}

TEST(DaemonEndpointTest, SchemaErrorsMapToCleanStatuses) {
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const int port = daemon.port();

  EXPECT_EQ(Fetch(port, "GET", "/healthz").body, "{\"status\":\"ok\"}");
  EXPECT_EQ(Fetch(port, "POST", "/v1/whatif", "{nope").status, 400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/whatif", "{\"app\":\"warcraft\"}").status,
            422);
  EXPECT_EQ(Fetch(port, "POST", "/v1/whatif", "{\"bogus\":1}").status, 422);
  EXPECT_EQ(Fetch(port, "GET", "/v1/whatif").status, 405);
  EXPECT_EQ(Fetch(port, "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(port, "POST", "/v1/placements", "{\"machines\":0}").status,
            422);
  EXPECT_EQ(Fetch(port, "GET", "/healthz").status, 200);

  const TestResponse metrics = Fetch(port, "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("rhythmd_uptime_seconds"), std::string::npos);
  EXPECT_NE(metrics.body.find("rhythmd_queries_rejected_total"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find("rhythmd_request_latency_ms{endpoint=\"whatif\""),
      std::string::npos);
  daemon.Stop();
}

TEST(DaemonEndpointTest, OversizedDemandIs422AndTheDaemonStaysUp) {
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const int port = daemon.port();

  const std::string huge =
      "{\"lc_demand\":[{\"app\":\"Redis\",\"count\":1000000000}]}";
  const TestResponse placements = Fetch(port, "POST", "/v1/placements", huge);
  EXPECT_EQ(placements.status, 422);
  EXPECT_NE(placements.body.find("lc_demand"), std::string::npos);
  EXPECT_EQ(Fetch(port, "POST", "/v1/whatif",
                  "{\"kind\":\"cluster\"," + huge.substr(1))
                .status,
            422);
  EXPECT_EQ(Fetch(port, "GET", "/healthz").status, 200);
  daemon.Stop();
}

TEST(DaemonEndpointTest, OutOfBoundsLoadProfileIs422AndTheDaemonStaysUp) {
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  const int port = daemon.port();

  const TestResponse zero =
      Fetch(port, "POST", "/v1/whatif", DiurnalBody("0", "0.2", "0.9"));
  EXPECT_EQ(zero.status, 422);
  EXPECT_NE(zero.body.find("duration_s"), std::string::npos);
  EXPECT_EQ(Fetch(port, "POST", "/v1/whatif", DiurnalBody("600", "0.2", "1.5"))
                .status,
            422);
  EXPECT_EQ(Fetch(port, "GET", "/healthz").status, 200);
  daemon.Stop();
}

}  // namespace
}  // namespace rhythm
