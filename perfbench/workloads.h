// The benchmark's three workloads and their measured metrics (see README.md).
//
//   batch-heavy     RMAT 2^16 x32, even_edge P=16, BSP: eight jobs submitted at once,
//                   in rounds on fresh engines. Large partitions push trigger batches
//                   past the pool threshold.
//   online-queries  RMAT 2^11 x8, even_edge P=32, BSP, max_jobs 16: an open loop of
//                   bfs/sssp/khop/ppr queries on hub vertices, arriving as a seeded
//                   Poisson process. Small partitions keep the trigger inline; per-job
//                   costs dominate.
//   replay-async    RMAT 2^14 x16, greedy P=32, async staleness 1, checkpoint every 8:
//                   ServiceDriver replays bursty, step-clocked traces with coalescing.
//
// An untraced run reports the end-to-end metrics. A traced run re-executes the same
// submissions on TracedEngine and reports per-layer metrics, after checking that the
// traced execution is identical to the untraced one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = true;     // Every result matched its reference (and, traced, the guard).
  uint64_t attempted = 0;  // Jobs (requests on replay-async) attempted.
  uint64_t failed = 0;     // Failed, shed, cancelled, or disagreeing with the reference.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Human-readable diagnostics, printed before the JSON.
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Pre: args.workload is one of WorkloadNames().
RunResult RunWorkload(const RunArgs& args);

// Saturated throughput of the online-queries configuration in queries per second: a
// closed loop that keeps max_jobs queries in flight for `seconds`. Used to choose the
// open-loop arrival rate.
double MeasureOnlineCapacity(uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
