// Statistics and measurement helpers of the benchmark: nearest-rank percentiles, the
// seeded Poisson arrival schedule of the open-loop workload, and the process RSS reader.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of a sample: the smallest sample with at least p% of the
// samples at or below it. `beyond` counts the samples strictly after that rank, which
// says whether the percentile is backed by enough tail samples to be reported.
struct Percentile {
  double value = 0.0;
  size_t rank = 0;    // 1-based rank of `value` in the sorted sample.
  size_t beyond = 0;  // Samples ranked after it.
};

// p in (0, 100]. An empty sample gives {0, 0, 0}.
Percentile NearestRank(std::vector<double> samples, double p);

// Median as the nearest-rank 50th percentile.
double Median(std::vector<double> samples);

// Due times in seconds after the start of an open-loop run, ascending: a Poisson
// process of `rate_per_s` arrivals per second over [0, duration_s), conditioned on
// drawing exactly round(rate_per_s * duration_s) arrivals, drawn from `seed`. The same
// seed always gives the same schedule.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s, uint64_t seed);

// The process's peak resident set size in MiB (VmHWM in /proc/self/status), or a
// negative value when the file cannot be read or holds no VmHWM line.
double PeakRssMib();

// Parses the VmHWM line of a /proc/<pid>/status text into MiB; negative when absent.
double ParseVmHwmMib(const std::string& status_text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
