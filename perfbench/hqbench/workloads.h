#ifndef HEDGEQ_PERFBENCH_WORKLOADS_H_
#define HEDGEQ_PERFBENCH_WORKLOADS_H_

#include "hqbench/harness.h"

namespace hedgeq::perfbench {

// Each workload builds its seeded inputs (timing that as setup), measures
// for options.seconds, checks every answer against an independent
// reference, and records into `report` its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run).

void RunEvalLarge(const RunOptions& options, Report& report);
void RunCompileSchema(const RunOptions& options, Report& report);
void RunServeMixed(const RunOptions& options, Report& report);

}  // namespace hedgeq::perfbench

#endif  // HEDGEQ_PERFBENCH_WORKLOADS_H_
