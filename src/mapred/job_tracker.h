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
// with its own registry id, spill namespace, and result sink. Maps and
// reduces run through the same drivers, one wave per kind: a per-task
// primary driver owns the sequential retry chain and reports exactly one
// outcome on the wave's outcome channel; the speculation monitor (when
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

  // Scheduling state of one logical task: its attempts plus the
  // committed winner's results.
  struct TaskState {
    TaskState(int i, const InputSplit* s) : index(i), split(s) {}

    int index;                 // split index or reduce partition
    const InputSplit* split;   // maps only
    size_t preferred = 0;      // set once, by the primary driver
    AttemptSet attempts;
    MapOutput map_output;
    std::vector<Record> reduce_output;
    TaskStats stats;
  };

  // One wave of same-kind tasks and what their drivers share. It
  // outlives every driver and the monitor: RunWave returns only after
  // `workers` (all of them) clears.
  struct Wave {
    Wave(sim::Engine* engine, TaskKind k, const JobConfig* job,
         std::vector<MapOutput>* inputs)
        : kind(k),
          config(job),
          map_outputs(inputs),
          outcomes(engine),
          workers(engine) {}

    TaskKind kind;
    const JobConfig* config;
    std::vector<MapOutput>* map_outputs;  // the reduces' input
    std::deque<TaskState> tasks;
    // Exactly one status per task, from its primary driver. A cancelled
    // or losing backup never reports, so it cannot clobber the job status.
    sim::Channel<Status> outcomes;
    sim::WaitGroup workers;
    bool done = false;
  };

  // Runs the wave's tasks (plus the speculation monitor) to completion;
  // returns the first failed task's status.
  sim::Task<Status> RunWave(Wave* wave);

  // Primary driver: owns the slot, runs the sequential retry chain, and
  // reports the task's single outcome.
  sim::Task<> RunPrimary(Wave* wave, TaskState* task);

  // Backup driver: runs one speculative attempt on a slot the monitor
  // already reserved, commits if it wins, and stays silent otherwise.
  sim::Task<> RunBackup(Wave* wave, TaskState* task, size_t node);

  // The straggler watcher for one wave: every check_period, compares each
  // open task's best progress against the wave median and launches a
  // backup on a free slot on a node no live attempt of the task occupies.
  sim::Task<> SpeculationLoop(Wave* wave);

  // The only code that knows the task kind: where a task prefers to run,
  // how its slots are taken and returned, and which task class runs an
  // attempt.
  size_t PreferredNode(const Wave& wave, const TaskState& task);
  sim::Task<size_t> AcquireSlot(const Wave* wave, const TaskState* task);
  void ReleaseSlot(TaskKind kind, size_t node);
  // Synchronously grabs a slot for a backup attempt (the monitor must not
  // wait in a slot queue); false when the node has no free slot.
  bool TryReserveBackupSlot(TaskKind kind, size_t node);
  // Runs `attempt` and, if it is the first to commit, moves its output
  // and stats into `task`. Returns the attempt's status.
  sim::Task<Status> RunAttempt(Wave* wave, TaskState* task,
                               TaskAttempt* attempt);

  // Delay scheduling's hand-offs.
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
