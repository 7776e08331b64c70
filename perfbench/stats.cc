#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/prng.h"

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, double p) {
  Percentile out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.rank = rank;
  out.beyond = n - rank;
  return out;
}

double Median(std::vector<double> samples) { return NearestRank(std::move(samples), 50.0).value; }

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s, uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) {
    return due;
  }
  // A Poisson process conditioned on its count: the expected number of arrivals, each
  // at a uniform time in the window. Gaps stay exponential, and every seed offers the
  // same load, so throughput does not vary with the count a seed happens to draw.
  const size_t count = static_cast<size_t>(std::llround(rate_per_s * duration_s));
  cgraph::Xoshiro256 rng(seed);
  due.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    due.push_back(rng.NextDouble() * duration_s);
  }
  std::sort(due.begin(), due.end());
  return due;
}

double ParseVmHwmMib(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // "VmHWM:     12345 kB"
      const long long kib = std::atoll(line.c_str() + 6);
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return -1.0;
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  if (!in) {
    return -1.0;
  }
  std::stringstream text;
  text << in.rdbuf();
  return ParseVmHwmMib(text.str());
}

}  // namespace perfbench
