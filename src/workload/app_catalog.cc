#include "src/workload/app_catalog.h"

#include "src/common/logging.h"

namespace rhythm {

std::vector<double> AppSpec::VisitCounts() const {
  std::vector<double> visits(components.size(), 0.0);
  if (request_mix.empty()) {
    AccumulateVisits(call_root, visits);
    return visits;
  }
  double total_weight = 0.0;
  for (const auto& [weight, root] : request_mix) {
    total_weight += weight;
  }
  for (const auto& [weight, root] : request_mix) {
    std::vector<double> class_visits(components.size(), 0.0);
    AccumulateVisits(root, class_visits);
    for (size_t pod = 0; pod < visits.size(); ++pod) {
      visits[pod] += class_visits[pod] * weight / total_weight;
    }
  }
  return visits;
}

int AppSpec::PodIndex(const std::string& component_name) const {
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i].name == component_name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

// Calibration notes: worker counts are sized so the bottleneck pod runs at
// ~0.90 utilization at MaxLoad *including* the load-dependent service
// dilation, which places the solo-run 99th percentile just below the SLA at
// MaxLoad (the paper's SLA definition) while leaving the overload knee for
// interference to trigger.

AppSpec MakeEcommerce() {
  AppSpec app;
  app.kind = LcAppKind::kEcommerce;
  app.name = "E-commerce";
  app.maxload_qps = 1300.0;
  app.sla_ms = 250.0;
  app.containers = 16;
  app.sim_qps_cap = 1300.0;

  // HAProxy: tiny mean, relatively large variance (paper §3.4: <5% of overall
  // latency but >20% of the variance share). Network-facing.
  app.components.push_back(ComponentSpec{
      .name = "Haproxy",
      .base_service_ms = 1.2,
      .sigma = 0.85,
      .sigma_slope = 0.80,
      .sigma_power = 24.0,
      .workers = 4,
      .sensitivity = {.cpu = 0.30, .llc = 0.20, .dram = 0.15, .net = 0.85, .freq = 0.30},
      .peak_busy_cores = 3.0,
      .peak_membw_gbs = 2.0,
      .peak_net_gbps = 3.0,
  });
  // Tomcat: the big application tier; strongly frequency-sensitive (Fig 2b's
  // DVFS group) and moderately cache-sensitive.
  app.components.push_back(ComponentSpec{
      .name = "Tomcat",
      .base_service_ms = 30.0,
      .sigma = 0.30,
      .load_slope = 0.25,
      .load_power = 2.0,
      .sigma_slope = 2.50,
      .sigma_power = 28.0,
      .workers = 75,
      .sensitivity = {.cpu = 0.50, .llc = 0.50, .dram = 0.35, .net = 0.20, .freq = 1.10},
      .peak_busy_cores = 16.0,
      .peak_membw_gbs = 8.0,
      .peak_net_gbps = 1.0,
  });
  // Amoeba (DB proxy): small and very stable — the smallest CoV of the four
  // (Fig 6b).
  app.components.push_back(ComponentSpec{
      .name = "Amoeba",
      .base_service_ms = 3.3,
      .sigma = 0.12,
      .sigma_slope = 1.50,
      .sigma_power = 16.0,
      .workers = 9,
      .sensitivity = {.cpu = 0.20, .llc = 0.15, .dram = 0.10, .net = 0.30, .freq = 0.20},
      .peak_busy_cores = 3.0,
      .peak_membw_gbs = 2.0,
      .peak_net_gbps = 1.0,
  });
  // MySQL: smaller mean than Tomcat at low load but the steepest load growth
  // and the largest variance; most sensitive to DRAM-bandwidth and LLC
  // pressure (Fig 2b: 435.8% / 35x differences vs Tomcat).
  app.components.push_back(ComponentSpec{
      .name = "MySQL",
      .base_service_ms = 22.0,
      .sigma = 0.45,
      .load_slope = 2.20,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 101,
      .sensitivity = {.cpu = 0.70, .llc = 1.40, .dram = 1.90, .net = 0.90, .freq = 0.45},
      .peak_busy_cores = 14.0,
      .peak_membw_gbs = 14.0,
      .peak_net_gbps = 0.8,
  });

  // Chain: client -> Haproxy -> Tomcat -> Amoeba -> MySQL.
  app.call_root = CallNode{
      .component = 0,
      .children = {CallNode{
          .component = 1,
          .children = {CallNode{
              .component = 2,
              .children = {CallNode{.component = 3}},
          }},
      }},
  };
  return app;
}

AppSpec MakeRedis() {
  AppSpec app;
  app.kind = LcAppKind::kRedis;
  app.name = "Redis";
  app.maxload_qps = 86000.0;
  app.sla_ms = 1.15;
  app.containers = 18;
  app.sim_qps_cap = 4000.0;  // thinned; statistics depend on load fraction.

  // Master: distributes requests and operates on data; relies on LLC, memory
  // and network bandwidth (Fig 2a: up to 28x more sensitive than Slave under
  // stream-llc(big)).
  app.components.push_back(ComponentSpec{
      .name = "Master",
      .base_service_ms = 0.17,
      .sigma = 0.35,
      .load_slope = 1.30,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 38,
      .sensitivity = {.cpu = 0.95, .llc = 1.70, .dram = 1.50, .net = 1.20, .freq = 0.60},
      .peak_busy_cores = 12.0,
      .peak_membw_gbs = 20.0,
      .peak_net_gbps = 4.0,
  });
  // Slave: replica serving reads; markedly less sensitive (loadlimit 0.91).
  app.components.push_back(ComponentSpec{
      .name = "Slave",
      .base_service_ms = 0.15,
      .sigma = 0.28,
      .load_slope = 0.15,
      .load_power = 2.0,
      .sigma_slope = 2.00,
      .sigma_power = 32.0,
      .workers = 58,
      .sensitivity = {.cpu = 0.22, .llc = 0.35, .dram = 0.40, .net = 0.35, .freq = 0.35},
      .peak_busy_cores = 10.0,
      .peak_membw_gbs = 16.0,
      .peak_net_gbps = 3.0,
  });

  // Fan-out: Master dispatches to two Slave shards in parallel.
  app.call_root = CallNode{
      .component = 0,
      .parallel_children = true,
      .children = {CallNode{.component = 1}, CallNode{.component = 1}},
  };
  return app;
}

AppSpec MakeSolr() {
  AppSpec app;
  app.kind = LcAppKind::kSolr;
  app.name = "Solr";
  app.maxload_qps = 400.0;
  app.sla_ms = 350.0;
  app.containers = 15;
  app.sim_qps_cap = 400.0;

  app.components.push_back(ComponentSpec{
      .name = "Apache+Solr",
      .base_service_ms = 49.0,
      .sigma = 0.45,
      .load_slope = 1.00,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 44,
      .sensitivity = {.cpu = 0.75, .llc = 1.10, .dram = 1.20, .net = 0.50, .freq = 0.80},
      .peak_busy_cores = 16.0,
      .peak_membw_gbs = 16.0,
      .peak_net_gbps = 1.2,
  });
  // Zookeeper: coordination only — tiny, stable, extremely tolerant
  // (loadlimit 0.93, slacklimit 0.035; the most BE-friendly pod in Fig 9).
  app.components.push_back(ComponentSpec{
      .name = "Zookeeper",
      .base_service_ms = 2.4,
      .sigma = 0.10,
      .sigma_slope = 4.00,
      .sigma_power = 36.0,
      .workers = 4,
      .sensitivity = {.cpu = 0.10, .llc = 0.10, .dram = 0.06, .net = 0.12, .freq = 0.10},
      .peak_busy_cores = 2.0,
      .peak_membw_gbs = 1.0,
      .peak_net_gbps = 0.3,
  });

  app.call_root = CallNode{
      .component = 0,
      .children = {CallNode{.component = 1}},
  };
  return app;
}

AppSpec MakeElasticsearch() {
  AppSpec app;
  app.kind = LcAppKind::kElasticsearch;
  app.name = "Elasticsearch";
  app.maxload_qps = 750.0;
  app.sla_ms = 200.0;
  app.containers = 12;
  app.sim_qps_cap = 750.0;

  app.components.push_back(ComponentSpec{
      .name = "Index",
      .base_service_ms = 26.0,
      .sigma = 0.45,
      .load_slope = 1.00,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 44,
      .sensitivity = {.cpu = 0.70, .llc = 1.20, .dram = 1.50, .net = 0.60, .freq = 0.70},
      .peak_busy_cores = 16.0,
      .peak_membw_gbs = 18.0,
      .peak_net_gbps = 1.0,
  });
  // Kibana: dashboard frontend; moderate tolerance (loadlimit 0.90).
  app.components.push_back(ComponentSpec{
      .name = "Kibana",
      .base_service_ms = 13.0,
      .sigma = 0.28,
      .load_slope = 0.15,
      .sigma_slope = 2.00,
      .sigma_power = 32.0,
      .workers = 20,
      .sensitivity = {.cpu = 0.30, .llc = 0.30, .dram = 0.25, .net = 0.30, .freq = 0.35},
      .peak_busy_cores = 6.0,
      .peak_membw_gbs = 4.0,
      .peak_net_gbps = 0.8,
  });

  app.call_root = CallNode{
      .component = 1,
      .children = {CallNode{.component = 0}},
  };
  return app;
}

AppSpec MakeElgg() {
  AppSpec app;
  app.kind = LcAppKind::kElgg;
  app.name = "Elgg";
  app.maxload_qps = 200.0;
  app.sla_ms = 320.0;
  app.containers = 8;
  app.sim_qps_cap = 200.0;

  app.components.push_back(ComponentSpec{
      .name = "Nginx+PHP-FPM",
      .base_service_ms = 56.0,
      .sigma = 0.35,
      .load_slope = 0.30,
      .sigma_slope = 1.50,
      .sigma_power = 24.0,
      .workers = 17,
      .sensitivity = {.cpu = 0.65, .llc = 0.60, .dram = 0.50, .net = 0.45, .freq = 0.90},
      .peak_busy_cores = 14.0,
      .peak_membw_gbs = 8.0,
      .peak_net_gbps = 1.0,
  });
  // Memcached: small and fast, LLC-leaning footprint but small contribution
  // (loadlimit 0.87).
  app.components.push_back(ComponentSpec{
      .name = "Memcached",
      .base_service_ms = 2.0,
      .sigma = 0.24,
      .sigma_slope = 2.50,
      .sigma_power = 32.0,
      .workers = 3,
      .sensitivity = {.cpu = 0.30, .llc = 0.60, .dram = 0.35, .net = 0.50, .freq = 0.25},
      .peak_busy_cores = 3.0,
      .peak_membw_gbs = 6.0,
      .peak_net_gbps = 0.8,
  });
  app.components.push_back(ComponentSpec{
      .name = "MySQL",
      .base_service_ms = 21.0,
      .sigma = 0.42,
      .load_slope = 1.40,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 11,
      .sensitivity = {.cpu = 0.70, .llc = 1.30, .dram = 1.80, .net = 0.80, .freq = 0.45},
      .peak_busy_cores = 10.0,
      .peak_membw_gbs = 12.0,
      .peak_net_gbps = 0.5,
  });

  // Nginx consults Memcached, then MySQL on misses (sequential chain).
  app.call_root = CallNode{
      .component = 0,
      .children = {CallNode{.component = 1}, CallNode{.component = 2}},
  };
  return app;
}

AppSpec MakeSnms() {
  AppSpec app;
  app.kind = LcAppKind::kSnms;
  app.name = "SNMS";
  app.maxload_qps = 1500.0;
  app.sla_ms = 380.0;
  app.containers = 30;
  app.sim_qps_cap = 1500.0;
  app.builtin_tracing = true;  // jaeger provides sojourn times directly.

  // Three Servpods (§5.3.2): contributions come out ~0.14 (frontend),
  // ~0.295 (mediaservice), ~0.565 (userservice).
  app.components.push_back(ComponentSpec{
      .name = "frontend",
      .base_service_ms = 9.4,
      .sigma = 0.30,
      .load_slope = 0.10,
      .sigma_slope = 1.50,
      .sigma_power = 16.0,
      .workers = 23,
      .sensitivity = {.cpu = 0.35, .llc = 0.30, .dram = 0.25, .net = 0.60, .freq = 0.40},
      .peak_busy_cores = 8.0,
      .peak_membw_gbs = 4.0,
      .peak_net_gbps = 1.5,
  });
  app.components.push_back(ComponentSpec{
      .name = "mediaservice",
      .base_service_ms = 35.0,
      .sigma = 0.40,
      .load_slope = 0.80,
      .sigma_slope = 1.50,
      .sigma_power = 16.0,
      .workers = 105,
      .sensitivity = {.cpu = 0.55, .llc = 0.70, .dram = 0.80, .net = 0.50, .freq = 0.55},
      .peak_busy_cores = 14.0,
      .peak_membw_gbs = 12.0,
      .peak_net_gbps = 1.0,
  });
  app.components.push_back(ComponentSpec{
      .name = "userservice",
      .base_service_ms = 41.0,
      .sigma = 0.42,
      .load_slope = 1.20,
      .load_power = 2.2,
      .sigma_slope = 0.60,
      .sigma_power = 8.0,
      .workers = 148,
      .sensitivity = {.cpu = 0.75, .llc = 1.10, .dram = 1.30, .net = 0.70, .freq = 0.65},
      .peak_busy_cores = 16.0,
      .peak_membw_gbs = 14.0,
      .peak_net_gbps = 1.0,
  });

  app.call_root = CallNode{
      .component = 0,
      .children = {CallNode{.component = 1}, CallNode{.component = 2}},
  };
  return app;
}

}  // namespace

AppSpec MakeEcommerceWithCacheMix(double hit_fraction) {
  AppSpec app = MakeEcommerce();
  // Cache hit: HAProxy forwards, Tomcat answers from its page cache.
  const CallNode hit_path{
      .component = 0,
      .children = {CallNode{.component = 1}},
  };
  app.request_mix = {{hit_fraction, hit_path}, {1.0 - hit_fraction, app.call_root}};
  return app;
}

AppSpec MakeApp(LcAppKind kind) {
  switch (kind) {
    case LcAppKind::kEcommerce:
      return MakeEcommerce();
    case LcAppKind::kRedis:
      return MakeRedis();
    case LcAppKind::kSolr:
      return MakeSolr();
    case LcAppKind::kElasticsearch:
      return MakeElasticsearch();
    case LcAppKind::kElgg:
      return MakeElgg();
    case LcAppKind::kSnms:
      return MakeSnms();
  }
  RHYTHM_CHECK(false);
  return MakeEcommerce();
}

const std::vector<LcAppKind>& AllLcAppKinds() {
  static const std::vector<LcAppKind>* kinds = new std::vector<LcAppKind>{
      LcAppKind::kEcommerce, LcAppKind::kRedis,  LcAppKind::kSolr,
      LcAppKind::kElasticsearch, LcAppKind::kElgg, LcAppKind::kSnms,
  };
  return *kinds;
}

const char* LcAppKindName(LcAppKind kind) {
  switch (kind) {
    case LcAppKind::kEcommerce:
      return "E-commerce";
    case LcAppKind::kRedis:
      return "Redis";
    case LcAppKind::kSolr:
      return "Solr";
    case LcAppKind::kElasticsearch:
      return "Elasticsearch";
    case LcAppKind::kElgg:
      return "Elgg";
    case LcAppKind::kSnms:
      return "SNMS";
  }
  return "?";
}

bool LcAppKindFromName(const std::string& name, LcAppKind* out) {
  for (LcAppKind kind : AllLcAppKinds()) {
    if (name == LcAppKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace rhythm
