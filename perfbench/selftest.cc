// Self-tests of the benchmark's own helpers (percentiles, the Poisson schedule, the
// RSS reader and the span recorder). Exit status 0 when all pass; perfbench/run.py
// runs this binary before every workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/tracer.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestNearestRank() {
  using perfbench::NearestRank;
  const perfbench::Percentile empty = NearestRank({}, 50.0);
  Expect(empty.value == 0.0 && empty.rank == 0 && empty.beyond == 0, "empty sample");
  // 1..100 shuffled: p50 is 50 with 50 beyond, p99 is 99 with 1 beyond.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(static_cast<double>((i * 37) % 100 + 1));
  }
  const perfbench::Percentile p50 = NearestRank(v, 50.0);
  Expect(p50.value == 50.0 && p50.rank == 50 && p50.beyond == 50, "p50 of 1..100");
  const perfbench::Percentile p99 = NearestRank(v, 99.0);
  Expect(p99.value == 99.0 && p99.beyond == 1, "p99 of 1..100");
  const perfbench::Percentile p100 = NearestRank(v, 100.0);
  Expect(p100.value == 100.0 && p100.beyond == 0, "p100 is the maximum");
  // Ten beyond the p99 needs at least 1000 samples.
  std::vector<double> big(1000, 1.0);
  Expect(NearestRank(big, 99.0).beyond == 10, "1000 samples leave 10 beyond p99");
  Expect(NearestRank(std::vector<double>(999, 1.0), 99.0).beyond == 9,
         "999 samples leave 9 beyond p99");
  Expect(NearestRank({3.0}, 1.0).value == 3.0, "single sample");
  Expect(perfbench::Median({5.0, 1.0, 3.0}) == 3.0, "median of three");
}

void TestPoisson() {
  const std::vector<double> a = perfbench::PoissonSchedule(50.0, 200.0, 7);
  const std::vector<double> b = perfbench::PoissonSchedule(50.0, 200.0, 7);
  const std::vector<double> c = perfbench::PoissonSchedule(50.0, 200.0, 8);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) {
    sorted = sorted && a[i] >= a[i - 1];
  }
  Expect(sorted && !a.empty() && a.front() >= 0.0 && a.back() < 200.0,
         "schedule is ascending inside [0, duration)");
  Expect(a.size() == 10000 && c.size() == 10000, "count is rate times duration");
  // Half the arrivals fall in each half of the window, within 4 sigma (sigma = 50).
  const size_t first_half = static_cast<size_t>(
      std::lower_bound(a.begin(), a.end(), 100.0) - a.begin());
  Expect(first_half > 4800 && first_half < 5200, "arrival rate is uniform over the window");
  // Exponential gaps: the coefficient of variation is about 1.
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  Expect(std::fabs(cv - 1.0) < 0.05, "gap coefficient of variation near 1");
  Expect(perfbench::PoissonSchedule(0.0, 10.0, 1).empty(), "zero rate gives no arrivals");
}

void TestRss() {
  Expect(perfbench::ParseVmHwmMib("Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n") == 2.0,
         "VmHWM parsed as MiB");
  Expect(perfbench::ParseVmHwmMib("VmRSS:\t 1024 kB\n") < 0.0, "missing VmHWM is negative");
  const double before = perfbench::PeakRssMib();
  Expect(before > 0.0, "peak RSS of this process is readable");
  // Touch 64 MiB: the high-water mark must grow by most of it.
  std::vector<char> block(64u << 20, 1);
  for (size_t i = 0; i < block.size(); i += 4096) {
    block[i] = static_cast<char>(i);
  }
  const double after = perfbench::PeakRssMib();
  Expect(after - before > 48.0 && block[4096] == 0, "peak RSS tracks a 64 MiB allocation");
}

void TestTracer() {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan outer(&tracer, "outer");
    { perfbench::ScopedSpan inner(&tracer, "inner"); }
    { perfbench::ScopedSpan inner(&tracer, "inner"); }
  }
  const auto totals = tracer.Summarize();
  Expect(totals.at("inner").count == 2 && totals.at("outer").count == 1, "span counts");
  const auto& spans = tracer.spans();
  Expect(spans.size() == 3 && spans[1].parent == 0 && spans[2].parent == 0,
         "children point at their parent");
  const double outer_total = totals.at("outer").total_ms;
  const double inner_total = totals.at("inner").total_ms;
  Expect(std::fabs(totals.at("outer").self_ms - (outer_total - inner_total)) < 1e-9,
         "self time is duration minus children");
  Expect(totals.at("outer").top_level_ms == outer_total && totals.at("inner").top_level_ms == 0.0,
         "top-level time counts parentless spans only");
  perfbench::ScopedSpan none(nullptr, "ignored");  // A null tracer records nothing.
}

}  // namespace

int main() {
  TestNearestRank();
  TestPoisson();
  TestRss();
  TestTracer();
  if (g_failures == 0) {
    std::printf("perfbench selftest: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
