// Per-application threshold properties, parameterized over the catalog: the
// qualitative structure the paper reports must hold for every LC service,
// not just E-commerce.

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "src/cluster/app_thresholds.h"
#include "src/workload/app_catalog.h"

namespace rhythm {
namespace {

// The catalog's bottleneck pod (largest expected contribution) and a
// representative tolerant pod per application.
struct AppStructure {
  LcAppKind app;
  const char* bottleneck;
  const char* tolerant;
};

const AppStructure kStructures[] = {
    {LcAppKind::kEcommerce, "MySQL", "Amoeba"},
    {LcAppKind::kRedis, "Master", "Slave"},
    {LcAppKind::kSolr, "Apache+Solr", "Zookeeper"},
    {LcAppKind::kElasticsearch, "Index", "Kibana"},
    {LcAppKind::kElgg, "MySQL", "Memcached"},
    {LcAppKind::kSnms, "userservice", "frontend"},
};

class PerAppThresholds : public ::testing::TestWithParam<AppStructure> {};

TEST_P(PerAppThresholds, BottleneckThrottledHarderThanTolerantPod) {
  const AppStructure& structure = GetParam();
  const AppSpec app = MakeApp(structure.app);
  const AppThresholds& thresholds = CachedAppThresholds(structure.app);
  const int bottleneck = app.PodIndex(structure.bottleneck);
  const int tolerant = app.PodIndex(structure.tolerant);
  ASSERT_GE(bottleneck, 0);
  ASSERT_GE(tolerant, 0);
  // The bottleneck pod's machine suspends BEs at lower load...
  EXPECT_LE(thresholds.pods[bottleneck].loadlimit, thresholds.pods[tolerant].loadlimit);
  // ...and demands more slack before BEs may grow.
  EXPECT_GE(thresholds.pods[bottleneck].slacklimit, thresholds.pods[tolerant].slacklimit);
  // The contribution ordering drives it.
  EXPECT_GE(thresholds.contributions[bottleneck].contribution,
            thresholds.contributions[tolerant].contribution);
}

TEST_P(PerAppThresholds, BottleneckLoadlimitBelowHeraclesUniform) {
  // The component-distinguishable insight: at least one pod needs *more*
  // protection than the uniform 0.85 (and gets it), while at least one
  // tolerates load beyond it.
  const AppStructure& structure = GetParam();
  const AppSpec app = MakeApp(structure.app);
  const AppThresholds& thresholds = CachedAppThresholds(structure.app);
  EXPECT_LT(thresholds.pods[app.PodIndex(structure.bottleneck)].loadlimit, 0.85);
  EXPECT_GE(thresholds.pods[app.PodIndex(structure.tolerant)].loadlimit, 0.85);
}

// gtest lists each case with its printed parameter, and CMake's test
// discovery builds the ctest name from that text: print the app with
// non-alphanumerics dropped ("Ecommerce", "Redis", ...), not the pod-name
// pointers, whose load addresses change from run to run.
void PrintTo(const AppStructure& structure, std::ostream* os) {
  for (const char* c = LcAppKindName(structure.app); *c != '\0'; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c))) {
      *os << *c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, PerAppThresholds, ::testing::ValuesIn(kStructures));

// The range check needs only the application, so it is parameterized by the
// app kind alone.
class PerAppThresholdRanges : public ::testing::TestWithParam<LcAppKind> {};

TEST_P(PerAppThresholdRanges, AllValuesInRange) {
  const AppThresholds& thresholds = CachedAppThresholds(GetParam());
  for (const ServpodThresholds& pod : thresholds.pods) {
    EXPECT_GE(pod.loadlimit, 0.05);
    EXPECT_LE(pod.loadlimit, 0.95);
    EXPECT_GE(pod.slacklimit, 0.10);
    EXPECT_LE(pod.slacklimit, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, PerAppThresholdRanges, ::testing::ValuesIn(AllLcAppKinds()));

}  // namespace
}  // namespace rhythm
