// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --capacity --seed N --seconds S
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer metrics.
// Exit status: 0 when every result matched its reference, 1 otherwise, 2 on usage
// errors (no JSON line then).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench --capacity --seed N --seconds S\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool capacity = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--capacity") {
      capacity = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) {
        return Usage("--seed expects a non-negative integer");
      }
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 3600) {
        return Usage("--seconds expects an integer in [1, 3600]");
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) {
        return Usage("--trace expects 0 or 1");
      }
      args.trace = n == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  if (capacity) {
    std::printf("online-queries capacity: %.2f queries/s\n",
                perfbench::MeasureOnlineCapacity(args.seed, args.seconds));
    return 0;
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known) {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  const perfbench::RunResult result = perfbench::RunWorkload(args);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
