#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/traced_engine.h"
#include "perfbench/tracer.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/reference.h"
#include "src/common/prng.h"
#include "src/common/timer.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/partition/partitioner.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"

namespace perfbench {
namespace {

using cgraph::EdgeList;
using cgraph::EngineOptions;
using cgraph::ExecutionMode;
using cgraph::JobId;
using cgraph::JobStats;
using cgraph::LtpEngine;
using cgraph::PartitionedGraph;
using cgraph::PartitionerKind;
using cgraph::VertexId;
using cgraph::WallTimer;

// 3 pool workers plus the driver thread, which also drains batches: four busy threads
// on a four-core host.
constexpr uint32_t kWorkers = 3;
// k of kcore and khop jobs.
constexpr uint32_t kK = 4;

struct Spec {
  const char* name;
  uint32_t scale;
  uint32_t edge_factor;
  PartitionerKind partitioner;
  uint32_t partitions;
  ExecutionMode mode;
  uint64_t checkpoint_every;
  uint32_t max_jobs;
};

const Spec kBatchHeavy{"batch-heavy", 16, 32, PartitionerKind::kEvenEdge, 16,
                       ExecutionMode::kBsp, 0, 64};
const Spec kOnline{"online-queries", 11, 8, PartitionerKind::kEvenEdge, 32,
                   ExecutionMode::kBsp, 0, 16};
const Spec kReplay{"replay-async", 14, 16, PartitionerKind::kGreedy, 32,
                   ExecutionMode::kAsync, 8, 64};

// batch-heavy: the eight-program mix, all submitted at t0.
const char* const kBatchPrograms[] = {"pagerank", "ppr", "sssp", "bfs",
                                      "khop",     "wcc", "kcore", "scc"};

// online-queries: the open-loop arrival rate. MeasureOnlineCapacity (perfbench
// --capacity, 16 queries kept in flight) measured a saturated capacity of about
// kOnlineCapacityPerS queries/s for this configuration on a 4-core x86-64 host. The
// loop offers about a quarter of it: at half capacity queueing amplified run-to-run
// speed noise into 10-40% swings of the latency percentiles between runs of one seed,
// at a quarter they repeat within a few percent.
constexpr double kOnlineCapacityPerS = 480.0;
constexpr double kOnlineRatePerS = 120.0;
// Point queries dominate the mix: in every block of kOnlineBlock queries, in seeded
// order, one is ppr (a whole-graph diffusion about ten times as costly as the others)
// and the rest are bfs, sssp and khop in equal shares. Exact shares keep the number of
// costly queries, which decides the latency tail, the same for every seed.
const char* const kOnlinePointPrograms[] = {"bfs", "sssp", "khop"};
constexpr size_t kOnlineBlock = 40;
constexpr size_t kOnlineSources = 64;

// replay-async: requests per replayed trace, burst size, and mean gap in steps.
constexpr size_t kReplayRequests = 400;
constexpr uint64_t kReplayBurst = 32;
constexpr uint64_t kReplayGap = 2;
const char* const kReplayPrograms[] = {"sssp", "bfs", "wcc", "kcore", "khop"};
constexpr size_t kReplaySources = 64;

EngineOptions OptionsFor(const Spec& spec, uint32_t workers) {
  EngineOptions options;
  options.num_workers = workers;
  options.max_jobs = spec.max_jobs;
  options.partitioner = spec.partitioner;
  options.execution_mode = spec.mode;
  options.staleness = 1;
  options.checkpoint_every = spec.checkpoint_every;
  return options;
}

// Times the placement plan separately from the rest of the build.
class TimedPartitioner final : public cgraph::Partitioner {
 public:
  TimedPartitioner(std::unique_ptr<cgraph::Partitioner> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  PartitionerKind kind() const override { return inner_->kind(); }
  cgraph::EdgePartitioning Partition(const EdgeList& edges, uint32_t num_parts,
                                     const cgraph::PartitionOptions& options) const override {
    ScopedSpan span(tracer_, "partition.plan");
    return inner_->Partition(edges, num_parts, options);
  }
  uint64_t EdgeCapacity(uint64_t num_edges, uint32_t num_parts,
                        const cgraph::PartitionOptions& options) const override {
    return inner_->EdgeCapacity(num_edges, num_parts, options);
  }

 private:
  std::unique_ptr<cgraph::Partitioner> inner_;
  Tracer* tracer_;
};

struct Setup {
  EdgeList edges;
  PartitionedGraph graph;
};

std::unique_ptr<Setup> BuildSetup(const Spec& spec, uint64_t seed, Tracer* tracer) {
  auto setup = std::make_unique<Setup>();
  {
    ScopedSpan span(tracer, "graph.generate");
    cgraph::RmatOptions rmat;
    rmat.scale = spec.scale;
    rmat.edge_factor = spec.edge_factor;
    rmat.seed = seed;
    setup->edges = cgraph::GenerateRmat(rmat);
  }
  {
    ScopedSpan span(tracer, "partition.build");
    cgraph::PartitionOptions options;
    options.num_partitions = spec.partitions;
    options.partitioner = spec.partitioner;
    const TimedPartitioner partitioner(cgraph::MakePartitioner(spec.partitioner), tracer);
    setup->graph = cgraph::PartitionedGraphBuilder::Build(setup->edges, options, partitioner);
  }
  return setup;
}

// Median wall seconds of graph generation, partitioning and engine construction over
// at least three set-ups, more while they total under two seconds (a small graph's
// set-up takes milliseconds and needs many repetitions for a steady median). Keeps the
// last one.
double TimeSetups(const Spec& spec, uint64_t seed, std::unique_ptr<Setup>* keep) {
  std::vector<double> seconds;
  WallTimer total;
  while (seconds.size() < 3 || (total.ElapsedSeconds() < 2.0 && seconds.size() < 500)) {
    keep->reset();  // Free the previous set-up first so every repetition starts alike.
    WallTimer timer;
    std::unique_ptr<Setup> setup = BuildSetup(spec, seed, nullptr);
    { LtpEngine engine(&setup->graph, OptionsFor(spec, kWorkers)); }
    seconds.push_back(timer.ElapsedSeconds());
    *keep = std::move(setup);
  }
  return Median(seconds);
}

// ---------------------------------------------------------------------------------
// Reference results and the correctness check.

class References {
 public:
  explicit References(const EdgeList& edges) : graph_(cgraph::Graph::FromEdges(edges)) {}

  // Cached by (program, source); source-free programs share one entry.
  const std::vector<double>& Get(const std::string& program, VertexId source) {
    const bool sourced = program == "sssp" || program == "bfs" || program == "khop" ||
                         program == "ppr";
    const std::string key = program + "#" + std::to_string(sourced ? source : 0);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, Compute(program, source)).first;
    }
    return it->second;
  }

 private:
  std::vector<double> Compute(const std::string& program, VertexId source) const {
    if (program == "pagerank") {
      return cgraph::ReferencePageRank(graph_, 0.85, 1e-4);  // MakeProgram's settings.
    }
    if (program == "ppr") {
      return cgraph::ReferencePersonalizedPageRank(graph_, source, 0.85, 1e-7);
    }
    if (program == "sssp") {
      return cgraph::ReferenceSssp(graph_, source);
    }
    if (program == "bfs") {
      return cgraph::ReferenceBfs(graph_, source);
    }
    if (program == "khop") {
      return cgraph::ReferenceKHop(graph_, source, kK);
    }
    if (program == "wcc") {
      return cgraph::CanonicalizeLabels(cgraph::ReferenceWcc(graph_));
    }
    if (program == "scc") {
      return cgraph::CanonicalizeLabels(cgraph::ReferenceScc(graph_));
    }
    if (program == "kcore") {
      return cgraph::ReferenceKCore(graph_, kK);
    }
    std::fprintf(stderr, "perfbench: no reference for program %s\n", program.c_str());
    std::abort();
  }

  cgraph::Graph graph_;
  std::map<std::string, std::vector<double>> cache_;
};

struct Query {
  std::string program;
  VertexId source = 0;
};

// A finished job's output as the check needs it: FinalAux for kcore (membership),
// FinalValues otherwise. Empty when the job did not complete.
struct JobResult {
  Query query;
  bool completed = false;
  std::vector<double> values;
};

template <class Engine>
JobResult Capture(const Engine& engine, JobId id, const Query& query) {
  JobResult result;
  result.query = query;
  const JobStats& stats = engine.job(id).stats();
  result.completed = !(stats.shed || stats.failed || stats.cancelled);
  if (result.completed) {
    result.values = query.program == "kcore" ? engine.FinalAux(id) : engine.FinalValues(id);
  }
  return result;
}

// Per-program tolerance: exact for the min/max programs and labelings; PageRank-style
// programs sum floating-point mass in a different order than the reference, so they
// get a small absolute tolerance well below their convergence epsilon.
bool Matches(const JobResult& result, References& refs, std::string* why) {
  if (!result.completed) {
    *why = result.query.program + " did not complete";
    return false;
  }
  const std::string& program = result.query.program;
  const std::vector<double>& want = refs.Get(program, result.query.source);
  std::vector<double> got = result.values;
  if (program == "wcc" || program == "scc") {
    got = cgraph::CanonicalizeLabels(got);
  } else if (program == "kcore") {
    for (double& aux : got) {
      aux = aux == 0.0 ? 1.0 : 0.0;  // aux 0 = still in the core; reference 1 = member.
    }
  }
  if (got.size() != want.size()) {
    *why = program + ": size " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
    return false;
  }
  const double tolerance = program == "pagerank" ? 1e-6 : program == "ppr" ? 1e-9 : 0.0;
  for (size_t v = 0; v < got.size(); ++v) {
    const bool same = got[v] == want[v] || std::fabs(got[v] - want[v]) <= tolerance;
    if (!same) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s source %u: vertex %zu got %.17g want %.17g",
                    program.c_str(), result.query.source, v, got[v], want[v]);
      *why = buf;
      return false;
    }
  }
  return true;
}

// Checks every result; counts mismatches into result->failed.
void CheckResults(const std::vector<JobResult>& results, References& refs, RunResult* out) {
  for (const JobResult& r : results) {
    std::string why;
    if (!Matches(r, refs, &why)) {
      out->failed += 1;
      out->correct = false;
      if (out->notes.size() < 20) {
        out->notes.push_back("mismatch: " + why);
      }
    }
  }
}

// ---------------------------------------------------------------------------------
// Engine drivers shared by the untraced and traced runs.

// LtpEngine behind TracedEngine's interface.
class Untraced {
 public:
  Untraced(const PartitionedGraph* graph, const EngineOptions& options)
      : engine_(graph, options) {}
  JobId Submit(std::unique_ptr<cgraph::VertexProgram> program) {
    return engine_.Submit(std::move(program)).id();
  }
  JobId SubmitAt(std::unique_ptr<cgraph::VertexProgram> program, uint64_t step) {
    return engine_.SubmitAt(std::move(program), step).id();
  }
  bool Step() { return engine_.Step(); }
  uint64_t current_step() const { return engine_.current_step(); }
  size_t num_jobs() const { return engine_.num_jobs(); }
  const cgraph::Job& job(JobId id) const { return engine_.job(id); }
  std::vector<double> FinalValues(JobId id) const { return engine_.FinalValues(id); }
  std::vector<double> FinalAux(JobId id) const { return engine_.FinalAux(id); }
  cgraph::RunReport Report() const { return engine_.Report(); }

 private:
  LtpEngine engine_;
};

// One submission of a recorded schedule: the query and the engine step it was made at.
struct Submission {
  Query query;
  uint64_t step = 0;
};

struct ReplayOutcome {
  double wall_s = 0.0;
  std::vector<JobResult> results;  // By job id.
};

// Re-issues a recorded schedule: every submission is made once the engine reaches its
// step, through Submit (online-queries) or SubmitAt (ServiceDriver's path), then the
// engine is stepped until idle. Reproduces the recorded run's step-by-step schedule.
template <class Engine>
ReplayOutcome Replay(Engine& engine, const std::vector<Submission>& subs, bool submit_at) {
  ReplayOutcome out;
  auto submit = [&](const Submission& s) {
    auto program = cgraph::MakeProgram(s.query.program, s.query.source, kK);
    if (submit_at) {
      engine.SubmitAt(std::move(program), s.step);
    } else {
      engine.Submit(std::move(program));
    }
  };
  WallTimer timer;
  size_t next = 0;
  for (;;) {
    while (next < subs.size() && subs[next].step <= engine.current_step()) {
      submit(subs[next++]);
    }
    if (!engine.Step()) {
      if (next < subs.size()) {
        submit(subs[next++]);
        continue;
      }
      break;
    }
  }
  out.wall_s = timer.ElapsedSeconds();
  for (JobId id = 0; id < engine.num_jobs(); ++id) {
    out.results.push_back(Capture(engine, id, subs[id].query));
  }
  return out;
}

// The identity guard: the traced run must execute exactly what the untraced run did.
bool SameExecution(const std::vector<JobStats>& a, const std::vector<JobResult>& ra,
                   const std::vector<JobStats>& b, const std::vector<JobResult>& rb,
                   std::string* why) {
  if (a.size() != b.size() || ra.size() != rb.size() || a.size() != ra.size()) {
    *why = "job counts differ";
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].iterations != b[i].iterations || a[i].vertex_computes != b[i].vertex_computes ||
        a[i].edge_traversals != b[i].edge_traversals ||
        a[i].push_updates != b[i].push_updates || a[i].compute_units != b[i].compute_units) {
      *why = "job " + std::to_string(i) + " (" + a[i].job_name + "): compute columns differ";
      return false;
    }
    const std::vector<double>& va = ra[i].values;
    const std::vector<double>& vb = rb[i].values;
    if (va.size() != vb.size()) {
      *why = "job " + std::to_string(i) + " (" + a[i].job_name + "): value counts differ";
      return false;
    }
    if (!va.empty() && std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
      double worst = 0.0;
      for (size_t v = 0; v < va.size(); ++v) {
        worst = std::max(worst, std::fabs(va[v] - vb[v]) / std::max(1.0, std::fabs(va[v])));
      }
      // Pooled trigger batches add PageRank-style contributions into shared slots in
      // a run-dependent order, so two untraced runs also differ in the last bits of
      // these sums. Everything else must match to the byte.
      const bool float_sum = a[i].job_name == "pagerank" || a[i].job_name == "ppr";
      if (!float_sum || worst > 1e-12) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " (max relative difference %.3g)", worst);
        *why = "job " + std::to_string(i) + " (" + a[i].job_name + "): final values differ" +
               buf;
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------------
// Metric assembly.

void Add(RunResult* out, const char* name, const char* unit, double value) {
  out->metrics.push_back(Metric{name, unit, value});
}

// One measured round: a batch round, one replay, or the whole open loop.
struct Round {
  double wall_s = 0.0;
  double correct = 0.0;  // Jobs (requests) that completed and matched the reference.
  std::vector<double> latencies_ms;
};

struct EndToEnd {
  double setup_s = 0.0;
  std::vector<Round> rounds;
};

// Throughput and latency percentiles are taken per round and reported as the median
// over the run's rounds, so a round slowed by a noisy neighbour does not move them.
void AddEndToEnd(const EndToEnd& e, RunResult* out) {
  std::vector<double> rates, p50s, p99s;
  size_t samples = 0;
  size_t min_beyond = SIZE_MAX;
  for (const Round& r : e.rounds) {
    rates.push_back(r.wall_s > 0.0 ? r.correct / r.wall_s : 0.0);
    p50s.push_back(NearestRank(r.latencies_ms, 50.0).value);
    const Percentile p99 = NearestRank(r.latencies_ms, 99.0);
    p99s.push_back(p99.value);
    samples += r.latencies_ms.size();
    min_beyond = std::min(min_beyond, p99.beyond);
  }
  Add(out, "setup_s", "s", e.setup_s);
  Add(out, "completed_per_s", "1/s", Median(rates));
  Add(out, "latency_p50_ms", "ms", Median(p50s));
  Add(out, "latency_p99_ms", "ms", Median(p99s));
  Add(out, "peak_rss_mb", "MiB", PeakRssMib());
  const double attempted = static_cast<double>(out->attempted);
  Add(out, "correct_frac", "ratio",
      attempted > 0.0 ? (attempted - static_cast<double>(out->failed)) / attempted : 0.0);
  char note[240];
  std::snprintf(note, sizeof(note),
                "%zu rounds, %zu latency samples; each round's p99 has at least %zu beyond "
                "it; failed_frac %.6g (%llu of %llu)",
                e.rounds.size(), samples, e.rounds.empty() ? 0 : min_beyond,
                attempted > 0.0 ? static_cast<double>(out->failed) / attempted : 0.0,
                static_cast<unsigned long long>(out->failed),
                static_cast<unsigned long long>(out->attempted));
  out->notes.push_back(note);
}

// Layer figures a traced run reports on every workload; a layer the workload does not
// exercise reports 0.
struct LayerInputs {
  const Tracer* tracer = nullptr;  // Spans of the set-up and of the traced execution.
  const TracedEngine* engine = nullptr;  // After the traced execution.
  const PartitionedGraph* graph = nullptr;
  double speedup_w3_over_w1 = 0.0;
  double overhead_frac = 0.0;
  double service_run_ms = 0.0;
  double service_dedup_ratio = 0.0;
  double service_p99_steps = 0.0;
  double gen_lag_p99_ms = 0.0;
  double idle_frac = 0.0;
};

void AddLayers(const LayerInputs& in, RunResult* out) {
  const std::map<std::string, Tracer::Totals> totals = in.tracer->Summarize();
  auto self_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms;
  };
  const cgraph::RunReport report = in.engine->Report();
  uint64_t computes = 0, traversals = 0, redrain = 0, iterations = 0, updates = 0;
  uint64_t deferred = 0, checkpoints = 0, checkpoint_bytes = 0, wait_steps = 0;
  for (const JobStats& j : report.jobs) {
    computes += j.vertex_computes;
    traversals += j.edge_traversals;
    redrain += j.redrain_computes;
    iterations += j.iterations;
    updates += j.push_updates;
    deferred += j.deferred_pushes;
    checkpoints += j.checkpoints_taken;
    checkpoint_bytes += j.checkpoint_bytes;
    wait_steps += j.wait_steps;
  }
  const double jobs = static_cast<double>(report.jobs.size());
  // Engine time: every step plus admissions made by Submit outside a step.
  auto top_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.top_level_ms;
  };
  const double admit_ms = self_ms("job_manager.admit");
  const double engine_ms = top_ms("engine.step") + top_ms("job_manager.admit");
  const std::vector<double> step_us = in.tracer->DurationsUs("engine.step");
  const cgraph::PartitionQuality& q = in.graph->quality();

  Add(out, "graph.generate_ms", "ms", self_ms("graph.generate"));
  Add(out, "partition.plan_ms", "ms", self_ms("partition.plan"));
  Add(out, "partition.build_ms", "ms", self_ms("partition.build"));
  Add(out, "partition.replication_factor", "ratio", q.replication_factor);
  Add(out, "partition.mirror_count", "count", static_cast<double>(q.mirror_count));
  Add(out, "partition.edge_balance", "ratio", q.edge_balance);
  Add(out, "job_manager.admit_ms", "ms", admit_ms);
  Add(out, "job_manager.admissions", "count", jobs);
  Add(out, "job_manager.mark_ms", "ms", self_ms("job_manager.mark"));
  Add(out, "job_manager.wait_steps_mean", "steps",
      jobs > 0 ? static_cast<double>(wait_steps) / jobs : 0.0);
  Add(out, "load.pick_ms", "ms", self_ms("load.pick"));
  Add(out, "load.group_ms", "ms", self_ms("load.group"));
  Add(out, "load.structure_ms", "ms", self_ms("load.structure"));
  Add(out, "load.release_ms", "ms", self_ms("load.release"));
  const double loads = static_cast<double>(in.engine->structure_loads());
  Add(out, "load.structure_loads", "count", loads);
  Add(out, "load.jobs_per_load", "ratio",
      loads > 0 ? static_cast<double>(in.engine->jobs_served_by_loads()) / loads : 0.0);
  const double trigger_ms = self_ms("trigger.run");
  Add(out, "trigger.run_ms", "ms", trigger_ms);
  Add(out, "trigger.vertex_computes", "count", static_cast<double>(computes));
  Add(out, "trigger.edge_traversals", "count", static_cast<double>(traversals));
  Add(out, "trigger.ns_per_compute", "ns",
      computes > 0 ? trigger_ms * 1e6 / static_cast<double>(computes) : 0.0);
  Add(out, "trigger.redrain_computes", "count", static_cast<double>(redrain));
  const double collect_ms = self_ms("push.collect");
  const double push_ms = self_ms("push.push");
  Add(out, "push.collect_ms", "ms", collect_ms);
  Add(out, "push.push_ms", "ms", push_ms);
  Add(out, "push.iterations", "count", static_cast<double>(iterations));
  Add(out, "push.updates", "count", static_cast<double>(updates));
  Add(out, "push.deferred", "count", static_cast<double>(deferred));
  Add(out, "engine.steps", "count", static_cast<double>(in.engine->current_step()));
  Add(out, "engine.time_ms", "ms", engine_ms);
  Add(out, "engine.step_p50_us", "us", NearestRank(step_us, 50.0).value);
  Add(out, "engine.step_p99_us", "us", NearestRank(step_us, 99.0).value);
  Add(out, "engine.trigger_share", "ratio", engine_ms > 0.0 ? trigger_ms / engine_ms : 0.0);
  Add(out, "engine.push_admit_share", "ratio",
      engine_ms > 0.0 ? (collect_ms + push_ms + admit_ms) / engine_ms : 0.0);
  Add(out, "runtime.speedup_w3_over_w1", "ratio", in.speedup_w3_over_w1);
  Add(out, "cache.bytes_below_cache", "bytes", static_cast<double>(report.BytesBelowCache()));
  Add(out, "cache.llc_miss_rate", "ratio", report.cache.miss_rate());
  Add(out, "checkpoint.count", "count", static_cast<double>(checkpoints));
  Add(out, "checkpoint.bytes", "bytes", static_cast<double>(checkpoint_bytes));
  Add(out, "service.run_ms", "ms", in.service_run_ms);
  Add(out, "service.dedup_ratio", "ratio", in.service_dedup_ratio);
  Add(out, "service.p99_latency_steps", "steps", in.service_p99_steps);
  Add(out, "driver.gen_lag_p99_ms", "ms", in.gen_lag_p99_ms);
  Add(out, "driver.idle_frac", "ratio", in.idle_frac);
  Add(out, "trace.overhead_frac", "ratio", in.overhead_frac);
}

// Runs the identity guard and records its verdict.
void Guard(const std::vector<JobStats>& untraced_stats,
           const std::vector<JobResult>& untraced_results, const TracedEngine& traced,
           const std::vector<JobResult>& traced_results, RunResult* out) {
  const std::vector<JobStats> traced_stats = traced.Report().jobs;
  std::string why;
  if (!SameExecution(untraced_stats, untraced_results, traced_stats, traced_results, &why)) {
    out->correct = false;
    out->notes.push_back("identity guard failed, traced numbers rejected: " + why);
  } else {
    out->notes.push_back("identity guard passed: " + std::to_string(traced_stats.size()) +
                         " jobs byte-identical to the untraced run");
  }
}

// ---------------------------------------------------------------------------------
// batch-heavy

// Out-degree of every vertex.
std::vector<uint32_t> OutDegrees(const EdgeList& edges) {
  std::vector<uint32_t> degree(edges.num_vertices(), 0);
  for (const cgraph::Edge& edge : edges.edges()) {
    ++degree[edge.src];
  }
  return degree;
}

// Sourced jobs start at the highest out-degree vertex (lowest id on ties): from a hub
// a traversal reaches the giant component at once, so its cost varies little between
// the graphs of different seeds.
std::vector<Query> BatchQueries(const EdgeList& edges) {
  const std::vector<uint32_t> degree = OutDegrees(edges);
  const VertexId source = static_cast<VertexId>(
      std::max_element(degree.begin(), degree.end()) - degree.begin());
  std::vector<Query> queries;
  for (const char* program : kBatchPrograms) {
    queries.push_back(Query{program, source});
  }
  return queries;
}

struct BatchRound {
  double wall_s = 0.0;
  double submit_lag_max_ms = 0.0;
  std::vector<double> latencies_ms;
  std::vector<JobResult> results;
};

// Submits every query at once and steps until all have finished. Latency runs from
// the round's start, when every job was due.
template <class Engine>
BatchRound RunBatchRound(Engine& engine, const std::vector<Query>& queries) {
  BatchRound round;
  WallTimer clock;
  std::vector<JobId> ids;
  for (const Query& q : queries) {
    round.submit_lag_max_ms = std::max(round.submit_lag_max_ms, clock.ElapsedMillis());
    ids.push_back(engine.Submit(cgraph::MakeProgram(q.program, q.source, kK)));
  }
  round.results.resize(queries.size());
  std::vector<bool> seen(queries.size(), false);
  size_t remaining = queries.size();
  while (remaining > 0) {
    const bool progressed = engine.Step();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!seen[i] && engine.job(ids[i]).finished()) {
        seen[i] = true;
        round.latencies_ms.push_back(clock.ElapsedMillis());
        round.results[i] = Capture(engine, ids[i], queries[i]);
        --remaining;
      }
    }
    if (!progressed && remaining > 0) {
      std::fprintf(stderr, "perfbench: engine idle with unfinished jobs\n");
      std::abort();
    }
  }
  round.wall_s = clock.ElapsedSeconds();
  return round;
}

RunResult RunBatchHeavy(const RunArgs& args) {
  RunResult out;
  std::unique_ptr<Setup> setup;
  EndToEnd e;
  e.setup_s = TimeSetups(kBatchHeavy, args.seed, &setup);
  const std::vector<Query> queries = BatchQueries(setup->edges);
  References refs(setup->edges);
  for (const Query& q : queries) {
    refs.Get(q.program, q.source);  // Computed before timing starts.
  }

  if (!args.trace) {
    // Rounds on fresh engines until the measured time is spent; results are checked
    // between rounds, outside the measured time.
    double measured_s = 0.0;
    while (measured_s < args.seconds || e.rounds.empty()) {
      Untraced engine(&setup->graph, OptionsFor(kBatchHeavy, kWorkers));
      const BatchRound round = RunBatchRound(engine, queries);
      measured_s += round.wall_s;
      const uint64_t failed_before = out.failed;
      out.attempted += queries.size();
      CheckResults(round.results, refs, &out);
      e.rounds.push_back(Round{round.wall_s,
                               static_cast<double>(queries.size() - (out.failed - failed_before)),
                               round.latencies_ms});
    }
    AddEndToEnd(e, &out);
    return out;
  }

  // Traced: a warm-up round (first-touch page faults would otherwise land on the
  // first measured round), an untraced round (the guard's reference and the overhead
  // base), an untraced round with a single worker, and a traced round. Each engine is
  // gone before the next is built, since finished jobs keep their memory.
  Tracer tracer;
  std::unique_ptr<Setup> traced_setup = BuildSetup(kBatchHeavy, args.seed, &tracer);
  const PartitionedGraph* graph = &traced_setup->graph;
  auto untraced_round = [&](uint32_t workers, std::vector<JobStats>* jobs) {
    Untraced engine(graph, OptionsFor(kBatchHeavy, workers));
    BatchRound round = RunBatchRound(engine, queries);
    if (jobs != nullptr) {
      *jobs = engine.Report().jobs;
    }
    return round;
  };
  untraced_round(kWorkers, nullptr);
  std::vector<JobStats> base_jobs;
  const BatchRound untraced = untraced_round(kWorkers, &base_jobs);
  const double w1_wall = untraced_round(1, nullptr).wall_s;
  TracedEngine traced(graph, OptionsFor(kBatchHeavy, kWorkers), &tracer);
  const BatchRound traced_round = RunBatchRound(traced, queries);

  out.attempted = queries.size();
  CheckResults(untraced.results, refs, &out);
  LayerInputs in;
  in.tracer = &tracer;
  in.engine = &traced;
  in.graph = graph;
  Guard(base_jobs, untraced.results, traced, traced_round.results, &out);
  in.speedup_w3_over_w1 = w1_wall / untraced.wall_s;
  in.overhead_frac = traced_round.wall_s / untraced.wall_s - 1.0;
  in.gen_lag_p99_ms = untraced.submit_lag_max_ms;
  AddLayers(in, &out);
  return out;
}

// ---------------------------------------------------------------------------------
// online-queries

// Queries ask about popular vertices: each draws its source uniformly among the
// kOnlineSources highest out-degree vertices. From a hub every program reaches the
// giant component, so a query's cost depends little on which hub it names, and a
// run's latency percentiles little on the seed.
std::vector<Query> OnlineQueries(const EdgeList& edges, size_t count, uint64_t seed) {
  const std::vector<uint32_t> degree = OutDegrees(edges);
  std::vector<VertexId> hubs(edges.num_vertices());
  for (VertexId v = 0; v < edges.num_vertices(); ++v) {
    hubs[v] = v;
  }
  const size_t pool = std::min<size_t>(kOnlineSources, hubs.size());
  std::partial_sort(hubs.begin(), hubs.begin() + pool, hubs.end(), [&](VertexId a, VertexId b) {
    return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
  });
  hubs.resize(pool);
  cgraph::Xoshiro256 rng(seed ^ 0x6f6e6c696e65ULL);
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) {
    const size_t slot = i % kOnlineBlock;
    const char* program = slot == 0 ? "ppr" : kOnlinePointPrograms[slot % 3];
    queries.push_back(Query{program, hubs[rng.NextBounded(hubs.size())]});
  }
  // Shuffle within each block (Fisher-Yates), keeping every block's mix exact.
  for (size_t begin = 0; begin < count; begin += kOnlineBlock) {
    const size_t end = std::min(count, begin + kOnlineBlock);
    for (size_t i = end - 1; i > begin; --i) {
      std::swap(queries[i].program, queries[begin + rng.NextBounded(i - begin + 1)].program);
    }
  }
  return queries;
}

// How long before a due time the idle open loop stops sleeping and spins.
constexpr double kSpinSeconds = 0.002;

struct OpenLoop {
  double wall_s = 0.0;   // Start of the schedule to the last completion.
  double idle_s = 0.0;   // Time with no runnable work, waiting for the next arrival.
  std::vector<double> latencies_ms;
  std::vector<double> lags_ms;  // Submission time minus due time.
  std::vector<Submission> submissions;
  std::vector<JobResult> results;  // By job id.
};

// Submits each query when it falls due, steps the engine in between, and sleeps when
// the engine is idle before the next arrival. Latency runs from the due time.
OpenLoop RunOpenLoop(Untraced& engine, const std::vector<Query>& queries,
                     const std::vector<double>& due) {
  OpenLoop loop;
  const size_t n = queries.size();
  std::vector<JobId> ids(n, cgraph::kInvalidJob);
  std::vector<size_t> inflight;
  loop.results.resize(n);
  size_t next = 0;
  size_t done = 0;
  WallTimer clock;
  while (done < n) {
    double now = clock.ElapsedSeconds();
    while (next < n && due[next] <= now) {
      loop.lags_ms.push_back((now - due[next]) * 1e3);
      loop.submissions.push_back(Submission{queries[next], engine.current_step()});
      ids[next] = engine.Submit(cgraph::MakeProgram(queries[next].program,
                                                    queries[next].source, kK));
      inflight.push_back(next);
      ++next;
      now = clock.ElapsedSeconds();
    }
    const bool progressed = engine.Step();
    size_t keep = 0;
    for (size_t idx : inflight) {
      if (engine.job(ids[idx]).finished()) {
        loop.latencies_ms.push_back((clock.ElapsedSeconds() - due[idx]) * 1e3);
        loop.results[ids[idx]] = Capture(engine, ids[idx], queries[idx]);
        ++done;
      } else {
        inflight[keep++] = idx;
      }
    }
    inflight.resize(keep);
    if (!progressed && done < n) {
      if (next >= n) {
        std::fprintf(stderr, "perfbench: engine idle with unfinished queries\n");
        std::abort();
      }
      // Sleep to just short of the next due time, then spin: a sleeping thread wakes
      // up to a millisecond late, which would land on that query's latency.
      WallTimer idle;
      const double wait = due[next] - clock.ElapsedSeconds();
      if (wait > kSpinSeconds) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait - kSpinSeconds));
      }
      while (clock.ElapsedSeconds() < due[next]) {
      }
      loop.idle_s += idle.ElapsedSeconds();
    }
  }
  loop.wall_s = clock.ElapsedSeconds();
  return loop;
}

RunResult RunOnline(const RunArgs& args) {
  RunResult out;
  std::unique_ptr<Setup> setup;
  EndToEnd e;
  e.setup_s = TimeSetups(kOnline, args.seed, &setup);
  const std::vector<double> due = PoissonSchedule(kOnlineRatePerS, args.seconds, args.seed);
  const std::vector<Query> queries = OnlineQueries(setup->edges, due.size(), args.seed);
  References refs(setup->edges);
  for (const Query& q : queries) {
    refs.Get(q.program, q.source);
  }
  out.attempted = queries.size();

  if (!args.trace) {
    Untraced engine(&setup->graph, OptionsFor(kOnline, kWorkers));
    const OpenLoop loop = RunOpenLoop(engine, queries, due);
    CheckResults(loop.results, refs, &out);
    e.rounds.push_back(
        Round{loop.wall_s, static_cast<double>(queries.size() - out.failed), loop.latencies_ms});
    AddEndToEnd(e, &out);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "open loop: %zu queries at %.1f/s (capacity %.1f/s); idle_frac %.4f",
                  queries.size(), kOnlineRatePerS, kOnlineCapacityPerS,
                  loop.wall_s > 0.0 ? loop.idle_s / loop.wall_s : 0.0);
    out.notes.push_back(note);
    return out;
  }

  // Traced: the open loop untraced, then its recorded schedule replayed step for step
  // untraced on 3 and on 1 worker(s) and on TracedEngine. Each engine is gone before
  // the next is built, since finished jobs keep their memory.
  Tracer tracer;
  std::unique_ptr<Setup> traced_setup = BuildSetup(kOnline, args.seed, &tracer);
  const PartitionedGraph* graph = &traced_setup->graph;
  OpenLoop loop;
  std::vector<JobStats> base_jobs;
  {
    Untraced base(graph, OptionsFor(kOnline, kWorkers));
    loop = RunOpenLoop(base, queries, due);
    base_jobs = base.Report().jobs;
  }
  CheckResults(loop.results, refs, &out);
  auto replay_wall = [&](uint32_t workers) {
    Untraced engine(graph, OptionsFor(kOnline, workers));
    return Replay(engine, loop.submissions, false).wall_s;
  };
  const double w3_wall = replay_wall(kWorkers);
  const double w1_wall = replay_wall(1);
  TracedEngine traced(graph, OptionsFor(kOnline, kWorkers), &tracer);
  const ReplayOutcome traced_replay = Replay(traced, loop.submissions, false);

  LayerInputs in;
  in.tracer = &tracer;
  in.engine = &traced;
  in.graph = graph;
  Guard(base_jobs, loop.results, traced, traced_replay.results, &out);
  in.speedup_w3_over_w1 = w1_wall / w3_wall;
  in.overhead_frac = traced_replay.wall_s / w3_wall - 1.0;
  in.gen_lag_p99_ms = NearestRank(loop.lags_ms, 99.0).value;
  in.idle_frac = loop.wall_s > 0.0 ? loop.idle_s / loop.wall_s : 0.0;
  AddLayers(in, &out);
  return out;
}

// ---------------------------------------------------------------------------------
// replay-async

std::vector<cgraph::ServiceRequest> ReplayTrace(const EdgeList& edges, uint64_t seed) {
  cgraph::TraceGenOptions options;
  options.num_requests = kReplayRequests;
  options.pattern = cgraph::ArrivalPattern::kBursty;
  options.seed = seed;
  options.mean_gap = kReplayGap;
  options.burst_size = kReplayBurst;
  options.programs.assign(std::begin(kReplayPrograms), std::end(kReplayPrograms));
  options.sources = cgraph::PickSourcePool(edges, kReplaySources);
  std::vector<cgraph::ServiceRequest> trace = cgraph::GenerateArrivalTrace(options);
  // Every program gets an equal share, in rotation, so the trace's cost depends little
  // on the seed; the seed still draws the sources and the arrival steps.
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].program = kReplayPrograms[i % std::size(kReplayPrograms)];
  }
  return trace;
}

struct ServiceRun {
  cgraph::ServiceReport report;
  std::vector<JobStats> jobs;
  std::vector<JobResult> job_results;   // By job id.
  std::vector<Submission> submissions;  // One per engine job, in job-id order.
};

ServiceRun RunService(const PartitionedGraph* graph,
                      const std::vector<cgraph::ServiceRequest>& trace) {
  ServiceRun run;
  LtpEngine engine(graph, OptionsFor(kReplay, kWorkers));
  cgraph::ServiceOptions options;
  options.queue_bound = 0;  // Unbounded: no request is shed at the door.
  options.coalesce = true;
  options.k = kK;
  cgraph::ServiceDriver driver(&engine, options);
  run.report = driver.Run(trace);
  // Every request that did not attach to an in-flight job submitted one, in trace
  // order, at its arrival step.
  for (size_t i = 0; i < trace.size(); ++i) {
    const cgraph::RequestOutcome& o = run.report.outcomes[i];
    if (!o.coalesced && o.job != cgraph::kInvalidJob) {
      run.submissions.push_back(
          Submission{Query{trace[i].program, trace[i].source}, trace[i].arrival_step});
    }
  }
  for (JobId id = 0; id < engine.num_jobs(); ++id) {
    run.jobs.push_back(engine.job(id).stats());
    run.job_results.push_back(Capture(engine, id, run.submissions.at(id).query));
  }
  return run;
}

// Checks every request: a completed request must carry its job's verified result.
void CheckRequests(const ServiceRun& run, References& refs, RunResult* out) {
  std::vector<int> job_ok(run.job_results.size(), -1);
  for (const cgraph::RequestOutcome& o : run.report.outcomes) {
    out->attempted += 1;
    if (o.shed || o.failed || o.job == cgraph::kInvalidJob) {
      out->failed += 1;
      out->correct = false;
      continue;
    }
    if (job_ok[o.job] < 0) {
      std::string why;
      job_ok[o.job] = Matches(run.job_results[o.job], refs, &why) ? 1 : 0;
      if (job_ok[o.job] == 0 && out->notes.size() < 20) {
        out->notes.push_back("mismatch: " + why);
      }
    }
    if (job_ok[o.job] == 0) {
      out->failed += 1;
      out->correct = false;
    }
  }
}

RunResult RunReplay(const RunArgs& args) {
  RunResult out;
  std::unique_ptr<Setup> setup;
  EndToEnd e;
  e.setup_s = TimeSetups(kReplay, args.seed, &setup);
  References refs(setup->edges);
  auto trace_for = [&](uint64_t replay) {
    std::vector<cgraph::ServiceRequest> trace =
        ReplayTrace(setup->edges, args.seed * 1000003 + replay);
    for (const cgraph::ServiceRequest& r : trace) {
      refs.Get(r.program, r.source);  // Computed outside the measured replay.
    }
    return trace;
  };

  if (!args.trace) {
    // Replays on fresh engines until the measured time is spent, each of its own trace,
    // so the per-round medians average over several request streams. Arrivals are
    // clocked by engine steps, so a trace runs the same schedule on every commit; a
    // request's wall latency is its step latency times its replay's wall time per step.
    double measured_s = 0.0;
    for (uint64_t replay = 0; measured_s < args.seconds || e.rounds.empty(); ++replay) {
      const std::vector<cgraph::ServiceRequest> trace = trace_for(replay);
      const ServiceRun run = RunService(&setup->graph, trace);
      Round round;
      round.wall_s = run.report.wall_seconds;
      measured_s += round.wall_s;
      const double ms_per_step =
          run.report.final_step > 0
              ? round.wall_s * 1e3 / static_cast<double>(run.report.final_step)
              : 0.0;
      const uint64_t failed_before = out.failed;
      CheckRequests(run, refs, &out);
      round.correct = static_cast<double>(trace.size() - (out.failed - failed_before));
      for (const cgraph::RequestOutcome& o : run.report.outcomes) {
        if (!o.shed && !o.failed) {
          round.latencies_ms.push_back(static_cast<double>(o.finish_step - o.arrival_step) *
                                       ms_per_step);
        }
      }
      e.rounds.push_back(std::move(round));
    }
    AddEndToEnd(e, &out);
    return out;
  }

  // Traced: one ServiceDriver replay untraced, then its engine submissions replayed
  // untraced on 3 and on 1 worker(s) and on TracedEngine, one engine at a time.
  Tracer tracer;
  std::unique_ptr<Setup> traced_setup = BuildSetup(kReplay, args.seed, &tracer);
  const PartitionedGraph* graph = &traced_setup->graph;
  const ServiceRun run = RunService(graph, trace_for(0));
  CheckRequests(run, refs, &out);
  auto replay_wall = [&](uint32_t workers) {
    Untraced engine(graph, OptionsFor(kReplay, workers));
    return Replay(engine, run.submissions, true).wall_s;
  };
  const double w3_wall = replay_wall(kWorkers);
  const double w1_wall = replay_wall(1);
  TracedEngine traced(graph, OptionsFor(kReplay, kWorkers), &tracer);
  const ReplayOutcome traced_replay = Replay(traced, run.submissions, true);

  LayerInputs in;
  in.tracer = &tracer;
  in.engine = &traced;
  in.graph = graph;
  Guard(run.jobs, run.job_results, traced, traced_replay.results, &out);
  in.speedup_w3_over_w1 = w1_wall / w3_wall;
  in.overhead_frac = traced_replay.wall_s / w3_wall - 1.0;
  in.service_run_ms = run.report.wall_seconds * 1e3;
  in.service_dedup_ratio = run.report.dedup_ratio;
  in.service_p99_steps = run.report.p99_latency_steps;
  AddLayers(in, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {kBatchHeavy.name, kOnline.name,
                                                 kReplay.name};
  return names;
}

RunResult RunWorkload(const RunArgs& args) {
  if (args.workload == kBatchHeavy.name) {
    return RunBatchHeavy(args);
  }
  if (args.workload == kOnline.name) {
    return RunOnline(args);
  }
  return RunReplay(args);
}

double MeasureOnlineCapacity(uint64_t seed, double seconds) {
  std::unique_ptr<Setup> setup = BuildSetup(kOnline, seed, nullptr);
  const std::vector<Query> queries = OnlineQueries(setup->edges, 1 << 16, seed);
  Untraced engine(&setup->graph, OptionsFor(kOnline, kWorkers));
  std::vector<JobId> inflight;
  size_t next = 0;
  uint64_t completed = 0;
  WallTimer clock;
  while (clock.ElapsedSeconds() < seconds && next < queries.size()) {
    while (inflight.size() < kOnline.max_jobs && next < queries.size()) {
      const Query& q = queries[next++];
      inflight.push_back(engine.Submit(cgraph::MakeProgram(q.program, q.source, kK)));
    }
    engine.Step();
    size_t keep = 0;
    for (JobId id : inflight) {
      if (engine.job(id).finished()) {
        ++completed;
      } else {
        inflight[keep++] = id;
      }
    }
    inflight.resize(keep);
  }
  return static_cast<double>(completed) / clock.ElapsedSeconds();
}

}  // namespace perfbench
