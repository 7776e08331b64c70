#include "perfbench/tracer.h"

#include <cstdlib>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  // Pre-size the span log so recording rarely reallocates inside a timed region.
  spans_.reserve(1 << 20);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(int32_t id) {
  const int64_t now = NowNs();
  if (open_.empty() || open_.back() != id) {
    std::abort();  // Spans must nest; anything else is a bug in the driver.
  }
  open_.pop_back();
  spans_[id].end_ns = now;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    Totals& t = totals[s.name];
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    if (s.parent < 0) {
      t.top_level_ms += static_cast<double>(dur) / 1e6;
    }
    t.count += 1;
  }
  return totals;
}

}  // namespace perfbench
