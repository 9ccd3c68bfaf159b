#include "src/obs/exporters.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/obs/obs_event.h"
#include "src/obs/recording.h"

namespace rhythm {
namespace {

// A synthetic recording exercising every event family, awkward doubles
// (non-terminating binary fractions, negatives), and both metric shapes.
Recording MakeRecording() {
  Recording recording;
  recording.meta.app = "E-commerce";
  recording.meta.be = "wordcount";
  recording.meta.controller = "Rhythm";
  recording.meta.seed = 42;
  recording.meta.sla_ms = 250.0;
  recording.meta.controller_period_s = 2.0;
  recording.meta.pods = {"Haproxy", "Tomcat \"edge\"", "MySQL"};
  recording.events_total = 100;
  recording.events_dropped = 96;

  ObsEvent decision;
  decision.time_s = 1.0 / 3.0;
  decision.machine = 2;
  decision.kind = ObsKind::kDecision;
  decision.code = 1;
  decision.detail = static_cast<uint8_t>(ObsDecisionPhase::kBackoffHold);
  decision.a = 0.6;
  decision.b = -0.1234567890123456789;
  decision.c = 0.75;
  decision.d = 0.167;
  recording.events.push_back(decision);

  ObsEvent actuation;
  actuation.time_s = 2.0;
  actuation.machine = 0;
  actuation.kind = ObsKind::kActuation;
  actuation.code = static_cast<uint8_t>(ObsKnob::kStop);
  actuation.detail = 1;
  actuation.a = 3.0;
  recording.events.push_back(actuation);

  ObsEvent fault;
  fault.time_s = 2.5;
  fault.machine = -1;
  fault.kind = ObsKind::kFault;
  fault.code = 0;
  fault.detail = static_cast<uint8_t>(ObsFaultEdge::kBegin);
  fault.a = 0.5;
  fault.b = 60.0;
  recording.events.push_back(fault);

  ObsEvent slo;
  slo.time_s = 3.0;
  slo.machine = 1;
  slo.kind = ObsKind::kSloViolation;
  slo.code = static_cast<uint8_t>(ObsSloScope::kAccounting);
  slo.a = -0.07;
  slo.b = 271.25;
  recording.events.push_back(slo);

  ObsEvent be;
  be.time_s = 4.0;
  be.machine = 1;
  be.kind = ObsKind::kBeLifecycle;
  be.code = static_cast<uint8_t>(ObsBeOp::kCrashLoss);
  be.a = 2.0;
  recording.events.push_back(be);

  MetricsRegistry::Metric gauge;
  gauge.name = "slack";
  gauge.type = MetricType::kGauge;
  gauge.current = -0.25;
  gauge.timeline.Add(1.0, 0.3);
  gauge.timeline.Add(2.0, 1.0 / 7.0);
  recording.metrics.push_back(gauge);

  MetricsRegistry::Metric hist;
  hist.name = "tail_ms_p99";
  hist.type = MetricType::kHistogram;
  hist.quantile = 0.99;
  hist.observations = 12345;
  hist.timeline.Add(1.0, 180.0);
  recording.metrics.push_back(hist);

  return recording;
}

TEST(Exporters, JsonlRoundTripIsExact) {
  const Recording original = MakeRecording();
  const Recording copy = FromJsonl(ToJsonl(original));

  EXPECT_EQ(copy.meta.app, original.meta.app);
  EXPECT_EQ(copy.meta.be, original.meta.be);
  EXPECT_EQ(copy.meta.controller, original.meta.controller);
  EXPECT_EQ(copy.meta.seed, original.meta.seed);
  EXPECT_EQ(copy.meta.sla_ms, original.meta.sla_ms);
  EXPECT_EQ(copy.meta.controller_period_s, original.meta.controller_period_s);
  ASSERT_EQ(copy.meta.pods, original.meta.pods);  // incl. escaped quotes.
  EXPECT_EQ(copy.events_total, original.events_total);
  EXPECT_EQ(copy.events_dropped, original.events_dropped);

  ASSERT_EQ(copy.events.size(), original.events.size());
  for (size_t i = 0; i < original.events.size(); ++i) {
    const ObsEvent& want = original.events[i];
    const ObsEvent& got = copy.events[i];
    EXPECT_EQ(got.time_s, want.time_s) << "event " << i;
    EXPECT_EQ(got.machine, want.machine);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.detail, want.detail);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);  // %.17g must reproduce the exact double.
    EXPECT_EQ(got.c, want.c);
    EXPECT_EQ(got.d, want.d);
  }

  ASSERT_EQ(copy.metrics.size(), original.metrics.size());
  for (size_t i = 0; i < original.metrics.size(); ++i) {
    const auto& want = original.metrics[i];
    const auto& got = copy.metrics[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.quantile, want.quantile);
    EXPECT_EQ(got.observations, want.observations);
    EXPECT_EQ(got.current, want.current);
    ASSERT_EQ(got.timeline.size(), want.timeline.size());
    for (size_t p = 0; p < want.timeline.size(); ++p) {
      EXPECT_EQ(got.timeline.points()[p].time, want.timeline.points()[p].time);
      EXPECT_EQ(got.timeline.points()[p].value, want.timeline.points()[p].value);
    }
  }
}

TEST(Exporters, FromJsonlSkipsUnknownTypesAndThrowsOnGarbage) {
  const Recording original = MakeRecording();
  std::string jsonl = ToJsonl(original);
  jsonl += "{\"type\":\"future-extension\",\"x\":1}\n";
  const Recording copy = FromJsonl(jsonl);  // unknown type: skipped.
  EXPECT_EQ(copy.events.size(), original.events.size());

  EXPECT_THROW(FromJsonl("{\"type\":\"event\",\"t\":oops}\n"), std::runtime_error);
  EXPECT_THROW(FromJsonl("not json at all\n"), std::runtime_error);
}

TEST(Exporters, JsonlIntegerFieldsRoundTripExactly) {
  // Integers above 2^53 have no exact double; they must not pass through one.
  Recording original = MakeRecording();
  for (uint64_t value : {(uint64_t{1} << 53) + 1,
                         std::numeric_limits<uint64_t>::max()}) {
    original.meta.seed = value;
    original.events_total = value;
    original.metrics.back().observations = value;
    const Recording copy = FromJsonl(ToJsonl(original));
    EXPECT_EQ(copy.meta.seed, value);
    EXPECT_EQ(copy.events_total, value);
    EXPECT_EQ(copy.metrics.back().observations, value);
  }
}

TEST(Exporters, FromJsonlRejectsOutOfRangeIntegers) {
  const std::string meta = "{\"type\":\"meta\",\"app\":\"x\"}\n";
  auto event = [&meta](const std::string& machine, const std::string& code) {
    return meta + "{\"type\":\"event\",\"t\":1,\"machine\":" + machine +
           ",\"k\":0,\"code\":" + code +
           ",\"detail\":0,\"a\":0,\"b\":0,\"c\":0,\"d\":0}\n";
  };
  EXPECT_EQ(FromJsonl(event("-1", "255")).events.front().machine, -1);
  EXPECT_THROW(FromJsonl(event("2147483648", "0")), std::runtime_error);
  EXPECT_THROW(FromJsonl(event("1e30", "0")), std::runtime_error);
  EXPECT_THROW(FromJsonl(event("0", "256")), std::runtime_error);
  EXPECT_THROW(FromJsonl("{\"type\":\"meta\",\"seed\":1e30}\n"),
               std::runtime_error);
  EXPECT_THROW(
      FromJsonl("{\"type\":\"meta\",\"seed\":18446744073709551616}\n"),
      std::runtime_error);
}

TEST(Exporters, FromJsonlRejectsMalformedFieldsAndLines) {
  const std::string meta = "{\"type\":\"meta\",\"app\":\"x\"}\n";
  const std::string event =
      "{\"type\":\"event\",\"t\":1,\"machine\":0,\"k\":0,\"code\":0,"
      "\"detail\":0,\"a\":1.5,\"b\":0,\"c\":0,\"d\":0}";
  EXPECT_EQ(FromJsonl(meta + event + "\n").events.front().a, 1.5);

  // Junk after or instead of a number, a line missing or doubling its
  // closing brace, an unknown kind and a quoted number are each an error.
  auto with = [&event](const std::string& from, const std::string& to) {
    std::string line = event;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  for (const std::string& bad :
       {with("\"t\":1", "\"t\":oops"), with("\"a\":1.5", "\"a\":1.5garbage"),
        event.substr(0, event.size() - 1), with("\"k\":0", "\"k\":200"),
        with("\"a\":1.5", "\"a\":\"1.5\""), event + "}"}) {
    EXPECT_THROW(FromJsonl(meta + bad + "\n"), std::runtime_error) << bad;
  }
  EXPECT_THROW(FromJsonl(meta + "{\"type\":\"metric\",\"name\":\"m\","
                                "\"points\":[[1,2],[3]]}\n"),
               std::runtime_error);
}

TEST(Exporters, NonFiniteDoublesWriteNullAndLoadAsNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Recording original = MakeRecording();
  original.events[0].a = nan;
  original.events[1].time_s = std::numeric_limits<double>::infinity();
  original.metrics[0].timeline.Add(3.0, nan);
  original.metrics[0].current = -std::numeric_limits<double>::infinity();

  const std::string jsonl = ToJsonl(original);
  EXPECT_EQ(jsonl.find("nan"), std::string::npos);
  EXPECT_EQ(jsonl.find("inf"), std::string::npos);
  const Recording copy = FromJsonl(jsonl);
  EXPECT_TRUE(std::isnan(copy.events[0].a));
  EXPECT_EQ(copy.events[0].b, original.events[0].b);
  EXPECT_TRUE(std::isnan(copy.events[1].time_s));  // ±inf loads as NaN.
  EXPECT_TRUE(std::isnan(copy.metrics[0].current));
  ASSERT_EQ(copy.metrics[0].timeline.size(), 3u);
  EXPECT_TRUE(std::isnan(copy.metrics[0].timeline.points()[2].value));

  // Every JSON export is JSON the strict reader accepts.
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(ToPerfettoJson(original), &doc, &error)) << error;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_TRUE(ParseJson(line, &doc, &error)) << error << " in: " << line;
  }
  // CSV is not JSON and keeps printf's spelling.
  EXPECT_NE(ToMetricsCsv(original).find("nan"), std::string::npos);
}

TEST(Exporters, PerfettoTraceLooksLikeChromeJson) {
  const std::string json = ToPerfettoJson(MakeRecording());
  // Structural sanity: the trace container, one slice ("X"), instants ("i"),
  // counters ("C") and process-name metadata must all be present.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("Tomcat"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Exporters, MetricsCsvHasHeaderAndRows) {
  const std::string csv = ToMetricsCsv(MakeRecording());
  EXPECT_EQ(csv.compare(0, 4, "time"), 0);
  EXPECT_NE(csv.find("slack"), std::string::npos);
  EXPECT_NE(csv.find("tail_ms_p99"), std::string::npos);
  // Two distinct snapshot times -> two data rows after the header.
  size_t lines = 0;
  for (char ch : csv) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(Exporters, DescribeEventIsHumanReadable) {
  const Recording recording = MakeRecording();
  const std::string decision = DescribeEvent(recording.events[0]);
  EXPECT_NE(decision.find("decision"), std::string::npos);
  EXPECT_NE(decision.find("backoff-hold"), std::string::npos);
  EXPECT_NE(decision.find("machine=2"), std::string::npos);
  const std::string stop = DescribeEvent(recording.events[1]);
  EXPECT_NE(stop.find("stop"), std::string::npos);
  const std::string fault = DescribeEvent(recording.events[2]);
  EXPECT_NE(fault.find("begin"), std::string::npos);
}

}  // namespace
}  // namespace rhythm
