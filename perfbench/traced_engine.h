// The traced engine driver: LtpEngine::Step rebuilt from the engine's public layer
// classes (JobManager, LoadStage, TriggerStage, PushStage) with a span around every
// call into a layer. It constructs the layers exactly as LtpEngine's constructor does
// and issues the same calls in the same order, so a run on it executes the same
// schedule as LtpEngine on the same submissions. The benchmark's identity guard
// checks that claim on every traced run by comparing per-job compute columns and
// final values against an untraced LtpEngine run.
//
// Omitted on purpose: fault injection, job step budgets and per-job failure routing.
// The benchmark arms no faults, sets no budget, and a per-job failure would surface
// as an identity-guard or reference mismatch.

#ifndef PERFBENCH_TRACED_ENGINE_H_
#define PERFBENCH_TRACED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/tracer.h"
#include "src/cache/memory_hierarchy.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/core/job_manager.h"
#include "src/core/load_stage.h"
#include "src/core/push_stage.h"
#include "src/core/scheduler.h"
#include "src/core/trigger_stage.h"
#include "src/core/vertex_program.h"
#include "src/metrics/run_report.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/global_table.h"

namespace perfbench {

class TracedEngine {
 public:
  // `graph` and `tracer` are borrowed and must outlive the engine.
  TracedEngine(const cgraph::PartitionedGraph* graph, const cgraph::EngineOptions& options,
               Tracer* tracer);
  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  // As LtpEngine::Submit / SubmitAt.
  cgraph::JobId Submit(std::unique_ptr<cgraph::VertexProgram> program);
  cgraph::JobId SubmitAt(std::unique_ptr<cgraph::VertexProgram> program,
                         uint64_t arrival_step);
  // As LtpEngine::Step, one span per layer call.
  bool Step();

  uint64_t current_step() const { return step_; }
  size_t num_jobs() const { return manager_->num_jobs(); }
  const cgraph::Job& job(cgraph::JobId id) const { return manager_->job(id); }
  // Master-replica readback, as LtpEngine::FinalValues / FinalAux.
  std::vector<double> FinalValues(cgraph::JobId id) const;
  std::vector<double> FinalAux(cgraph::JobId id) const;
  // Per-job stats and hierarchy totals, as LtpEngine::Report.
  cgraph::RunReport Report() const;

  // Shared structure loads issued (one per version group) and the jobs they served.
  uint64_t structure_loads() const { return structure_loads_; }
  uint64_t jobs_served_by_loads() const { return jobs_served_; }

 private:
  void ProcessPartition(cgraph::PartitionId p) CGRAPH_REQUIRES_DRIVER;
  // Per-vertex value (or aux) of each vertex's master replica.
  std::vector<double> ReadMasters(cgraph::JobId id, bool aux) const;

  const cgraph::PartitionedGraph* graph_;
  cgraph::EngineOptions options_;
  Tracer* tracer_;

  // Declared in LtpEngine's order so teardown runs in the same order.
  std::unique_ptr<cgraph::MemoryHierarchy> hierarchy_;
  std::unique_ptr<cgraph::GlobalTable> global_table_;
  std::unique_ptr<cgraph::Scheduler> scheduler_;
  std::unique_ptr<cgraph::ThreadPool> pool_;
  std::unique_ptr<cgraph::JobManager> manager_;
  std::unique_ptr<cgraph::PushStage> push_;
  std::unique_ptr<cgraph::LoadStage> load_;
  std::unique_ptr<cgraph::TriggerStage> trigger_;

  std::vector<bool> eligible_;
  uint64_t step_ = 0;
  double total_elapsed_ = 0.0;
  uint64_t structure_loads_ = 0;
  uint64_t jobs_served_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ENGINE_H_
