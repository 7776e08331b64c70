// In-memory span and counter recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the engine's layers from the benchmark's own
// code (the engine itself carries no profiler). Each span has a name, a start, an end
// and the span that was open when it began. Spans stay in memory until the run ends;
// Summarize() then folds them into per-name totals of self time — a span's duration
// minus the time its child spans cover. Single-threaded: only the driver thread opens
// spans.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // A string literal; never owned.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // Index of the enclosing span, -1 at top level.
  };

  // Per-name aggregate over all closed spans.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    double top_level_ms = 0.0;  // Duration of the spans with no parent.
    uint64_t count = 0;
  };

  Tracer();

  // Opens a span nested in the innermost open one; returns its index for End().
  int32_t Begin(const char* name);
  // Closes the span `id`, which must be the innermost open one.
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations in microseconds of every span named `name`, in record order.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Totals per span name. Self time subtracts direct children only; children never
  // overlap one another because one thread records them in sequence.
  std::map<std::string, Totals> Summarize() const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
