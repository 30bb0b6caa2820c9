#ifndef SPONGEFILES_MAPRED_TASK_ATTEMPT_H_
#define SPONGEFILES_MAPRED_TASK_ATTEMPT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// Classifies why a failed attempt is being re-run: "timeout" (RPC deadline
// chains), "checksum" (corrupted data detected on read), "chunk-lost"
// (other unavailable sponge data — crashed server, open breaker),
// "aborted", "resource-exhausted", or "other".
const char* TaskRerunReason(const Status& status);

// Bumps mapred.task.rerun.reason{reason=...}. Called by the JobTracker
// right before launching a sequential retry — backups and final failures
// are not re-runs and stay uncounted, so the counter total equals
// launched-minus-first attempts of the primary chains.
void CountTaskRerun(const Status& status);

enum class TaskKind { kMap, kReduce };

// Names one attempt of one logical task, Hadoop-style: a logical task may
// run several times (sequential retries after failures, plus at most a few
// concurrent speculative backups), and everything an attempt touches —
// sponge chunks, spill files, trace spans — is keyed by the attempt, not
// the logical task. `attempt_id` is the TaskRegistry id this attempt
// registered under; it becomes the ChunkOwner of every sponge chunk the
// attempt spills, so a losing attempt's chunks are reclaimed by the
// ordinary dead-task GC the moment the attempt deregisters.
struct TaskAttemptId {
  std::string job;
  TaskKind kind = TaskKind::kMap;
  int task_index = 0;
  int attempt = 1;  // 1-based; > 1 for retries and backups
  size_t node = 0;
  uint64_t attempt_id = 0;  // TaskRegistry id == ChunkOwner.task_id

  // "job.m3.a2" — stable, collision-free label for spill-file prefixes
  // and trace spans.
  std::string ToString() const;
};

// One in-flight (or finished) attempt. The embedded sponge::TaskContext is
// the attempt-scoped identity handed to spillers and SpongeFiles; killing
// the attempt flips ctx.killed, which the task observes at its next
// operation boundary. Progress counters are written by the running task
// and read by the JobTracker's speculation monitor; both sides live on the
// same deterministic engine, so plain fields suffice.
struct TaskAttempt {
  TaskAttemptId id;
  sponge::TaskContext ctx;
  bool backup = false;     // launched by the speculation monitor
  bool finished = false;   // driver observed the attempt's result
  SimTime started_at = 0;

  // Progress estimator inputs: bytes scanned/shuffled plus records pushed
  // through the map function or reducer. Comparable across attempts of
  // the same wave because every attempt does the same accounting.
  uint64_t records_processed = 0;
  uint64_t bytes_processed = 0;

  uint64_t progress() const { return bytes_processed + records_processed; }
  bool killed() const { return ctx.killed; }
  void Kill() { ctx.killed = true; }
  void Note(uint64_t records, uint64_t bytes) {
    records_processed += records;
    bytes_processed += bytes;
  }
};

// Shared bookkeeping for every attempt of one logical task: the attempts
// launched so far and the first-commit-wins barrier. Owned by the
// JobTracker's per-task state; attempts have stable addresses for the
// lifetime of the set.
class AttemptSet {
 public:
  AttemptSet() = default;
  AttemptSet(const AttemptSet&) = delete;
  AttemptSet& operator=(const AttemptSet&) = delete;

  // Starts attempt number launched()+1 on `node`: registers an attempt id
  // with the environment's task registry (making the attempt "alive" for
  // chunk-GC purposes) and returns the attempt. The caller must balance
  // with Finish() when the attempt's driver observes its result.
  TaskAttempt* Launch(sponge::SpongeEnv* env, const std::string& job,
                      TaskKind kind, int task_index, size_t node,
                      bool backup);

  // Deregisters the attempt from the task registry (its sponge chunks
  // become dead-task garbage unless it committed) and marks it finished.
  void Finish(sponge::SpongeEnv* env, TaskAttempt* attempt);

  // First-commit-wins barrier: true iff `attempt` is the first to commit.
  // The winner's live competitors are killed (they abort at their next
  // checkpoint) and counted in mapred.speculation.cancelled when the race
  // involved a backup.
  bool TryCommit(TaskAttempt* attempt);

  // Kills every unfinished attempt (job cancellation / permanent failure).
  void KillAll();

  bool committed() const { return winner_ != nullptr; }
  const TaskAttempt* winner() const { return winner_; }
  int launched() const { return static_cast<int>(attempts_.size()); }
  int backups() const { return backups_; }
  // The primary driver's sequential-retry budget excludes backups.
  int primary_attempts() const { return launched() - backups_; }

  // The unfinished non-backup attempt currently running, if any (what the
  // monitor measures for straggling).
  TaskAttempt* RunningPrimary() const;

  // Progress of the most advanced attempt; a committed task reports its
  // winner's final progress so it keeps anchoring the job median.
  uint64_t BestProgress() const;

  const std::vector<std::unique_ptr<TaskAttempt>>& attempts() const {
    return attempts_;
  }

 private:
  std::vector<std::unique_ptr<TaskAttempt>> attempts_;
  TaskAttempt* winner_ = nullptr;
  int backups_ = 0;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_TASK_ATTEMPT_H_
