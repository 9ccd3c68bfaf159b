// Committed rollup of cluster_diurnal at its default seed (printed with
// %.17g). A run at this seed must reproduce it exactly; any other seed is
// checked only through standalone group trials and call-to-call equality.

#ifndef PERFBENCH_EXPECTED_ROLLUP_H_
#define PERFBENCH_EXPECTED_ROLLUP_H_

#include <cstdint>

namespace perfbench {

inline constexpr uint64_t kExpectedRollupSeed = 1;
inline constexpr const char* kExpectedRollup =
    "emu=0.87963772359664327 lc_throughput=0.4135249999999997 "
    "be_throughput=0.46611272359664396 slo_violation_rate=0 groups_placed=231 "
    "placement_churn=6";

}  // namespace perfbench

#endif  // PERFBENCH_EXPECTED_ROLLUP_H_
