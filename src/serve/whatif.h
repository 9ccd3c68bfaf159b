// What-if query translation: JSON bodies in, RunRequest/ClusterRunRequest
// out, summaries back as JSON. This is the seam that makes served results
// provably equal to batch results — the daemon's HTTP handler and the
// `rhythmd --oneshot` batch path call exactly these functions, and every
// double is rendered with the shared %.17g writer (src/common/json.h), so a
// served body and the equivalent batch run's body are byte-identical at the
// same seed.
//
// Schema violations throw std::invalid_argument with a human-readable
// message; the daemon maps them to 422 responses.

#ifndef RHYTHM_SRC_SERVE_WHATIF_H_
#define RHYTHM_SRC_SERVE_WHATIF_H_

#include <string>

#include "src/common/json.h"
#include "src/place/cluster_engine.h"
#include "src/runner/run_request.h"

namespace rhythm {

// One parsed /v1/whatif body: either a single co-location trial or a full
// cluster evaluation ("kind": "trial" | "cluster", default trial).
struct WhatIfQuery {
  enum class Kind { kTrial, kCluster };
  Kind kind = Kind::kTrial;
  RunRequest trial;
  ClusterRunRequest cluster;
  // Cluster responses include the per-group outcome list only on request
  // ("include_groups": true) — large clusters make it big.
  bool include_groups = false;
};

// Catalog-name lookup, normalized (case-insensitive, punctuation ignored):
// "e-commerce", "Ecommerce" and "E-COMMERCE" all name LcAppKind::kEcommerce.
bool ParseLcAppKindName(const std::string& name, LcAppKind* out);
bool ParseBeJobKindName(const std::string& name, BeJobKind* out);
bool ParseControllerKindName(const std::string& name, ControllerKind* out);

// Parses a /v1/whatif body (already JSON-decoded).
WhatIfQuery ParseWhatIfQuery(const JsonValue& body);

// Summary rendering (pure, %.17g doubles).
std::string RunSummaryJson(const RunSummary& summary);
std::string ClusterSummaryJson(const ClusterSummary& summary, bool include_groups);

// Full response bodies: the echoed request header + the summary.
std::string WhatIfResponseJson(const WhatIfQuery& query, const RunSummary& summary);
std::string WhatIfResponseJson(const WhatIfQuery& query,
                               const ClusterSummary& summary);

// /v1/placements: evaluates registered placement policies on the posted
// spec — placement decisions only, no trials, so it answers in microseconds.
// Body: {"machines", "synthetic"|"lc_demand"+"be_backlog", "seed",
// "policies": [names], "load_scale", "epoch"}. Returns the response JSON.
std::string PlacementsResponseJson(const JsonValue& body);

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_WHATIF_H_
