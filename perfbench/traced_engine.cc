#include "perfbench/traced_engine.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/common/timer.h"

namespace perfbench {

using cgraph::g_driver_role;
using cgraph::Job;
using cgraph::JobId;
using cgraph::LoadStage;
using cgraph::PartitionId;
using cgraph::ScopedThreadRole;

TracedEngine::TracedEngine(const cgraph::PartitionedGraph* graph,
                           const cgraph::EngineOptions& options, Tracer* tracer)
    : graph_(graph), options_(options), tracer_(tracer) {
  const cgraph::PartitionedGraph& base = *graph_;
  hierarchy_ = std::make_unique<cgraph::MemoryHierarchy>(options_.hierarchy);
  global_table_ =
      std::make_unique<cgraph::GlobalTable>(base.num_partitions(), options_.max_jobs);
  scheduler_ = std::make_unique<cgraph::Scheduler>(base, options_.use_scheduler,
                                                   options_.theta_scale);
  pool_ = std::make_unique<cgraph::ThreadPool>(options_.num_workers);
  manager_ = std::make_unique<cgraph::JobManager>(base, global_table_.get(),
                                                  scheduler_.get(), pool_.get(), options_);
  push_ = std::make_unique<cgraph::PushStage>(base, hierarchy_.get(), manager_.get(),
                                              options_);
  load_ = std::make_unique<cgraph::LoadStage>(base, nullptr, global_table_.get(),
                                              scheduler_.get(), hierarchy_.get(),
                                              manager_.get(), options_);
  trigger_ = std::make_unique<cgraph::TriggerStage>(pool_.get(), hierarchy_.get(), options_);
  eligible_.assign(base.num_partitions(), true);
}

JobId TracedEngine::Submit(std::unique_ptr<cgraph::VertexProgram> program) {
  ScopedThreadRole role(g_driver_role);
  const JobId id = manager_->Submit(std::move(program), 0, step_);
  ScopedSpan span(tracer_, "job_manager.admit");
  manager_->AdmitDue(step_);
  return id;
}

JobId TracedEngine::SubmitAt(std::unique_ptr<cgraph::VertexProgram> program,
                             uint64_t arrival_step) {
  ScopedThreadRole role(g_driver_role);
  return manager_->Submit(std::move(program), 0, arrival_step);
}

bool TracedEngine::Step() {
  ScopedThreadRole role(g_driver_role);
  ScopedSpan step_span(tracer_, "engine.step");
  cgraph::WallTimer timer;
  manager_->set_elapsed_seconds(total_elapsed_);
  for (;;) {
    {
      ScopedSpan span(tracer_, "job_manager.admit");
      manager_->AdmitDue(step_);
    }
    manager_->CancelOverBudget(step_);
    PartitionId p;
    {
      ScopedSpan span(tracer_, "load.pick");
      p = load_->PickNext(eligible_);
    }
    if (p == cgraph::kInvalidPartition) {
      if (!manager_->HasWaiting()) {
        return false;
      }
      step_ = std::max(step_, manager_->NextArrivalStep());
      continue;
    }
    ProcessPartition(p);
    ++step_;
    manager_->set_current_step(step_);
    total_elapsed_ += timer.ElapsedSeconds();
    return true;
  }
}

void TracedEngine::ProcessPartition(PartitionId p) {
  std::span<const LoadStage::VersionGroup> groups;
  {
    ScopedSpan span(tracer_, "load.group");
    groups = load_->FormGroups(p);
  }
  for (const LoadStage::VersionGroup& group : groups) {
    structure_loads_ += 1;
    jobs_served_ += group.jobs.size();
    {
      ScopedSpan span(tracer_, "load.structure");
      load_->LoadStructure(p, group);
    }
    {
      ScopedSpan span(tracer_, "trigger.run");
      trigger_->Run(p, *group.structure, group.jobs);
    }
    {
      ScopedSpan span(tracer_, "load.release");
      load_->Release(p, group);
    }
    for (Job* job : group.jobs) {
      if (job->finished()) {
        continue;
      }
      {
        ScopedSpan span(tracer_, "push.collect");
        push_->CollectMirrorRecords(*job, p);
      }
      bool boundary;
      {
        ScopedSpan span(tracer_, "job_manager.mark");
        boundary = manager_->MarkProcessed(*job, p);
      }
      if (boundary) {
        ScopedSpan span(tracer_, "push.push");
        push_->Push(*job);
      }
    }
  }
}

std::vector<double> TracedEngine::FinalValues(JobId id) const { return ReadMasters(id, false); }

std::vector<double> TracedEngine::FinalAux(JobId id) const { return ReadMasters(id, true); }

std::vector<double> TracedEngine::ReadMasters(JobId id, bool aux) const {
  const Job& job = manager_->job(id);
  std::vector<double> values(graph_->num_vertices(), 0.0);
  for (cgraph::VertexId v = 0; v < graph_->num_vertices(); ++v) {
    const cgraph::ReplicaRef master = graph_->master_of(v);
    const cgraph::VertexState& state = job.table().partition(master.partition)[master.local];
    values[v] = aux ? state.aux : state.value;
  }
  return values;
}

cgraph::RunReport TracedEngine::Report() const {
  cgraph::RunReport report;
  report.executor_name = "perfbench-traced";
  report.workers = options_.num_workers;
  report.wall_seconds = total_elapsed_;
  for (JobId id = 0; id < manager_->num_jobs(); ++id) {
    report.jobs.push_back(manager_->job(id).stats());
  }
  report.cache = hierarchy_->cache().stats();
  report.memory = hierarchy_->memory().stats();
  report.partition = graph_->quality();
  return report;
}

}  // namespace perfbench
