// Catalog of the six LC applications evaluated in the paper (Table 1):
//
//   E-commerce (TPC-W): HAProxy -> Tomcat -> Amoeba -> MySQL, 1300 QPS,
//     SLA 250 ms, 16 containers.
//   Redis (fan-out key-value store): Master -> {Slave, Slave}, 86 kQPS,
//     SLA 1.15 ms, 18 containers.
//   Solr (search): Apache+Solr, Zookeeper, 400 QPS, SLA 350 ms.
//   Elasticsearch (index engine): Index, Kibana, 750 QPS, SLA 200 ms.
//   Elgg (social network): Nginx+PHP-FPM, Memcached, MySQL, 200 QPS,
//     SLA 320 ms.
//   SNMS (DeathStarBench social-network microservices): mediaservice (13
//     microservices), frontend (3), userservice (14), grouped into three
//     Servpods as in §5.3.2; 1500 QPS, SLA 380 ms.
//
// Each component is one Servpod deployed on its own machine. Model
// parameters (service times, variance shapes, sensitivities) are calibrated
// so the solo-run 99th percentile approaches the SLA at MaxLoad and the
// interference ordering matches the paper's §2 characterization.

#ifndef RHYTHM_SRC_WORKLOAD_APP_CATALOG_H_
#define RHYTHM_SRC_WORKLOAD_APP_CATALOG_H_

#include <string>
#include <vector>

#include "src/workload/call_graph.h"
#include "src/workload/component.h"

namespace rhythm {

enum class LcAppKind { kEcommerce, kRedis, kSolr, kElasticsearch, kElgg, kSnms };

struct AppSpec {
  LcAppKind kind;
  std::string name;
  double maxload_qps = 1000.0;
  double sla_ms = 250.0;
  int containers = 8;
  // Simulated request rate at 100% load. High-QPS services are thinned (the
  // latency model depends on the load *fraction*, so a sampled stream gives
  // identical statistics at a fraction of the event cost).
  double sim_qps_cap = 1300.0;
  std::vector<ComponentSpec> components;  // one entry per Servpod.
  CallNode call_root;
  // Optional request-class mix (§3.3: "user requests may be processed by
  // different paths of the service call"): when non-empty, each request
  // follows one of these weighted call trees instead of call_root. Weights
  // need not sum to 1; they are normalized.
  std::vector<std::pair<double, CallNode>> request_mix;
  bool builtin_tracing = false;  // SNMS ships jaeger; no Rhythm tracer needed.

  int pod_count() const { return static_cast<int>(components.size()); }
  // Mean visits per request for each component (weighted over the request
  // mix when one is configured).
  std::vector<double> VisitCounts() const;
  int PodIndex(const std::string& component_name) const;
};

AppSpec MakeApp(LcAppKind kind);

// E-commerce with a page-cache request mix: `hit_fraction` of requests are
// served by HAProxy -> Tomcat alone (cached page), the rest walk the full
// chain to MySQL. Used by the path-classification example and tests; the
// evaluation figures use the single-path MakeApp catalog.
AppSpec MakeEcommerceWithCacheMix(double hit_fraction);

const std::vector<LcAppKind>& AllLcAppKinds();
const char* LcAppKindName(LcAppKind kind);
// Exact inverse of LcAppKindName: false, with *out untouched, for any other
// spelling ("Redis" names kRedis; "redis" names nothing).
bool LcAppKindFromName(const std::string& name, LcAppKind* out);

}  // namespace rhythm

#endif  // RHYTHM_SRC_WORKLOAD_APP_CATALOG_H_
