#ifndef SPONGEFILES_MAPRED_JOB_TRACKER_H_
#define SPONGEFILES_MAPRED_JOB_TRACKER_H_

#include <deque>
#include <memory>
#include <vector>

#include "cluster/dfs.h"
#include "mapred/job.h"
#include "mapred/map_task.h"
#include "mapred/task_attempt.h"
#include "sim/sync.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// The cluster's job scheduler: one instance per cluster, shared by every
// concurrently running job (the slot pools are the shared resource — a
// background job's tasks soak up whatever map slots the measured job
// leaves free, exactly the paper's multi-tenant setup).
//
// Scheduling model: delay scheduling for maps (the locality technique the
// paper's production clusters run): a map waits up to its job's
// locality_wait for a slot on the node holding its DFS block, then takes
// any free slot and reads the block remotely. Reduce tasks are placed
// round-robin unless the job pins them (JobConfig::reduce_pins). Failed
// tasks are retried up to max_attempts, which is how the framework
// recovers a task whose SpongeFile chunk was lost to a machine failure
// (section 3.1).
//
// Execution is attempt-based: every run of a logical task is a TaskAttempt
// with its own registry id, spill namespace, and result sink. A per-task
// driver coroutine owns the sequential retry chain and reports exactly one
// outcome on the job's outcome channel; the speculation monitor (when
// JobConfig::speculation.enabled) launches backup attempts for stragglers,
// and the first attempt to commit through the AttemptSet barrier wins —
// the loser is killed, deregistered, and its sponge chunks fall to the
// ordinary dead-task GC.
class JobTracker {
 public:
  JobTracker(sponge::SpongeEnv* env, cluster::Dfs* dfs);

  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  // Runs a job to completion (or first unrecoverable task failure).
  // Multiple jobs may run concurrently from separate coroutines.
  sim::Task<Result<JobResult>> Run(JobConfig config);

 private:
  // A map task waiting for a slot. Event-driven (no polling): the task is
  // assigned when (a) a slot frees on its preferred node, (b) its
  // locality deadline fires with a free slot somewhere, or (c) a slot
  // frees anywhere after the deadline moved it to the relaxed queue.
  struct PendingMap {
    size_t preferred = 0;
    std::unique_ptr<sim::Event> assigned;
    size_t node = 0;
    bool done = false;
  };

  // One logical task's outcome, reported exactly once by its primary
  // driver. A cancelled or losing backup attempt never reports, so it
  // cannot clobber the job status.
  struct TaskOutcome {
    int index = 0;
    Status status;
  };

  // Scheduling state of one logical map task: its attempts plus the
  // committed winner's results.
  struct MapTaskState {
    const InputSplit* split = nullptr;
    int index = 0;
    AttemptSet attempts;
    MapOutput output;
    TaskStats stats;
  };

  struct ReduceTaskState {
    size_t partition = 0;
    AttemptSet attempts;
    std::vector<Record> output;
    TaskStats stats;
  };

  // Primary drivers: own the slot, run the sequential retry chain, report
  // the single task outcome.
  sim::Task<> RunOneMap(const JobConfig* config, MapTaskState* state,
                        sim::Channel<TaskOutcome>* outcomes,
                        sim::WaitGroup* wg);
  sim::Task<> RunOneReduce(const JobConfig* config,
                           std::vector<MapOutput>* outputs,
                           ReduceTaskState* state,
                           sim::Channel<TaskOutcome>* outcomes,
                           sim::WaitGroup* wg);

  // Backup drivers: run one speculative attempt on a slot the monitor
  // already reserved, commit if they win, and stay silent otherwise.
  sim::Task<> RunMapBackup(const JobConfig* config, MapTaskState* state,
                           size_t node, sim::WaitGroup* wg);
  sim::Task<> RunReduceBackup(const JobConfig* config,
                              std::vector<MapOutput>* outputs,
                              ReduceTaskState* state, size_t node,
                              sim::WaitGroup* wg);

  // The straggler watcher for one wave: every check_period, compares each
  // open task's best progress against the wave median and launches a
  // backup on a free slot on a node no live attempt of the task occupies.
  sim::Task<> SpeculationLoop(const JobConfig* config, TaskKind kind,
                              std::deque<MapTaskState>* maps,
                              std::deque<ReduceTaskState>* reduces,
                              std::vector<MapOutput>* outputs,
                              const bool* wave_done, sim::WaitGroup* wg);

  // Synchronously grabs a slot for a backup attempt (the monitor must not
  // wait in a slot queue); false when the node has no free slot.
  bool TryReserveBackupSlot(TaskKind kind, size_t node);

  size_t MapNodeFor(const InputSplit& split) const;
  size_t ReduceNodeFor(const JobConfig& config, size_t partition) const;

  // Acquires a map slot for `task` honoring delay scheduling; resolves
  // task->node.
  sim::Task<> AcquireMapSlot(std::shared_ptr<PendingMap> task,
                             Duration locality_wait);
  void ReleaseMapSlot(size_t node);
  void AssignMap(PendingMap* task, size_t node);
  sim::Task<> DeadlineWake(std::shared_ptr<PendingMap> task);

  sponge::SpongeEnv* env_;
  cluster::Dfs* dfs_;
  std::vector<int> free_map_slots_;
  std::vector<std::deque<std::shared_ptr<PendingMap>>> pending_local_;
  std::deque<std::shared_ptr<PendingMap>> relaxed_;
  std::vector<std::unique_ptr<sim::Semaphore>> reduce_slots_;
  size_t next_map_node_ = 0;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_JOB_TRACKER_H_
