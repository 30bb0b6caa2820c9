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
// Slots: per task kind, each node's free-slot count and FIFO of waiting
// tasks. A waiting task is only a queue entry (a map past its locality
// wait also in relaxed_) and gets its driver with its slot. A freed slot
// goes to the node's oldest waiter, then (maps only) the oldest relaxed.
// A waiter whose job was cancelled reports where it is handed a slot and
// leaves the slot to the next.
//
// Execution is attempt-based: every run of a logical task is a TaskAttempt
// with its own registry id, spill namespace, and result sink. Maps and
// reduces run through the same drivers, one wave per kind: a per-task
// primary driver owns the slot and the sequential retry chain and reports
// exactly one outcome on the wave's outcome channel; the speculation
// monitor (when JobConfig::speculation.enabled) launches backup attempts
// for stragglers, and the first attempt to commit through the AttemptSet
// barrier wins — the loser is killed, deregistered, and its sponge chunks
// fall to the ordinary dead-task GC.
class JobTracker {
 public:
  JobTracker(sponge::SpongeEnv* env, cluster::Dfs* dfs);

  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  // Runs a job to completion (or first unrecoverable task failure).
  // Multiple jobs may run concurrently from separate coroutines.
  sim::Task<Result<JobResult>> Run(JobConfig config);

 private:
  struct Wave;

  // Scheduling state of one logical task: its attempts plus the
  // committed winner's results.
  struct TaskState {
    TaskState(Wave* w, int i, const InputSplit* s)
        : wave(w), index(i), split(s) {}

    Wave* wave;
    int index;                 // split index or reduce partition
    const InputSplit* split;   // maps only
    size_t preferred = 0;      // set once, when the wave starts
    // Queued for a slot. A map in both its node's queue and relaxed_
    // leaves a stale entry in one, skipped on pop, purged at wave end.
    bool waiting = false;
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
    // Cleared when the wave ends, for a locality deadline firing later.
    std::shared_ptr<bool> live = std::make_shared<bool>(true);
  };

  // Per node: free slots and waiting tasks, oldest first. A free slot
  // implies an empty queue.
  struct SlotTable {
    std::vector<int> free;
    std::vector<std::deque<TaskState*>> waiting;
  };

  // Runs the wave's tasks (plus the speculation monitor) to completion;
  // returns the first failed task's status.
  sim::Task<Status> RunWave(Wave* wave);

  // Primary driver, spawned once the task holds a slot on `node`: runs
  // the sequential retry chain, returns the slot, and reports the task's
  // single outcome.
  sim::Task<> RunPrimary(Wave* wave, TaskState* task, size_t node);

  // Backup driver: runs one speculative attempt on a slot the monitor
  // already took, commits if it wins, and stays silent otherwise.
  sim::Task<> RunBackup(Wave* wave, TaskState* task, size_t node);

  // The straggler watcher for one wave: every check_period, compares each
  // open task's best progress against the wave median and launches a
  // backup on a free slot on a node no live attempt of the task occupies
  // (it never waits in a slot queue).
  sim::Task<> SpeculationLoop(Wave* wave);

  // A map wave's locality deadline: its maps all queue in the instant the
  // wave starts, so one deadline serves them all.
  sim::Task<> RelaxLocality(std::shared_ptr<bool> live, Wave* wave);

  size_t PreferredNode(const Wave& wave, const TaskState& task);
  SlotTable& slots(TaskKind kind) { return slots_[static_cast<int>(kind)]; }
  // Takes a free slot on `node` for `task` and spawns its primary driver.
  void Dispatch(TaskState* task, size_t node);
  // Reports a waiting task of a cancelled job as RunPrimary would before
  // its first attempt, at the `node` whose slot it was handed, without
  // taking that slot or spawning a driver.
  void FinishCancelled(TaskState* task, size_t node);
  // Dispatches the oldest waiting task in `queue`, if any, to `node`;
  // waiting tasks of cancelled jobs ahead of it finish on the way.
  bool DispatchOldest(std::deque<TaskState*>* queue, size_t node);
  void ReleaseSlot(TaskKind kind, size_t node);
  // Runs `attempt` and, if it is the first to commit, moves its output
  // and stats into `task`. Returns the attempt's status.
  sim::Task<Status> RunAttempt(Wave* wave, TaskState* task,
                               TaskAttempt* attempt);

  sponge::SpongeEnv* env_;
  cluster::Dfs* dfs_;
  SlotTable slots_[2];  // by TaskKind
  std::deque<TaskState*> relaxed_;  // maps past their locality wait
  size_t next_map_node_ = 0;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_JOB_TRACKER_H_
