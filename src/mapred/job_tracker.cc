#include "mapred/job_tracker.h"

#include <algorithm>

#include "mapred/reduce_task.h"

namespace spongefiles::mapred {
namespace {

// Speculation's fixed policy (the settable half is SpeculationConfig): a
// task is straggling when its best progress * kLagFactor is below the
// wave's median progress, and it gets at most kMaxBackupsPerTask backups.
constexpr double kLagFactor = 2.0;
constexpr int kMaxBackupsPerTask = 1;

}  // namespace

JobTracker::JobTracker(sponge::SpongeEnv* env, cluster::Dfs* dfs)
    : env_(env), dfs_(dfs) {
  for (size_t i = 0; i < env->cluster()->size(); ++i) {
    const auto& node_config = env->cluster()->node(i).config();
    free_map_slots_.push_back(node_config.map_slots);
    pending_local_.emplace_back();
    reduce_slots_.push_back(std::make_unique<sim::Semaphore>(
        env->engine(), node_config.reduce_slots));
  }
}

void JobTracker::AssignMap(PendingMap* task, size_t node) {
  task->done = true;
  task->node = node;
  --free_map_slots_[node];
  task->assigned->Set();
}

sim::Task<> JobTracker::DeadlineWake(std::shared_ptr<PendingMap> task) {
  if (task->done) co_return;
  // Past the locality wait: take any free slot now, or join the relaxed
  // queue so the next freed slot anywhere picks this task up.
  for (size_t node = 0; node < free_map_slots_.size(); ++node) {
    if (free_map_slots_[node] > 0) {
      AssignMap(task.get(), node);
      co_return;
    }
  }
  relaxed_.push_back(std::move(task));
}

size_t JobTracker::PreferredNode(const Wave& wave, const TaskState& task) {
  if (wave.kind == TaskKind::kReduce) {
    for (const auto& [partition, node] : wave.config->reduce_pins) {
      if (partition == static_cast<size_t>(task.index)) return node;
    }
    return static_cast<size_t>(task.index) % env_->cluster()->size();
  }
  auto location = dfs_->BlockLocation(task.split->dfs_file, task.split->offset);
  if (location.ok()) return *location;
  // Non-DFS input: spread round-robin.
  return next_map_node_++ % env_->cluster()->size();
}

sim::Task<size_t> JobTracker::AcquireSlot(const Wave* wave,
                                          const TaskState* task) {
  if (wave->kind == TaskKind::kReduce) {
    co_await reduce_slots_[task->preferred]->Acquire();
    co_return task->preferred;
  }
  // Delay scheduling: hold out for a data-local slot for up to
  // locality_wait, then take any free slot (the split is then fetched
  // over the network, which the DFS read path charges automatically).
  auto pending = std::make_shared<PendingMap>();
  pending->preferred = task->preferred;
  pending->assigned = std::make_unique<sim::Event>(env_->engine());
  if (free_map_slots_[pending->preferred] > 0) {
    AssignMap(pending.get(), pending->preferred);
    co_return pending->node;
  }
  pending_local_[pending->preferred].push_back(pending);
  Duration locality_wait = wave->config->locality_wait;
  if (locality_wait > 0) {
    env_->engine()->SpawnAt(env_->engine()->now() + locality_wait,
                            DeadlineWake(pending));
  }
  co_await pending->assigned->Wait();
  co_return pending->node;
}

void JobTracker::ReleaseSlot(TaskKind kind, size_t node) {
  if (kind == TaskKind::kReduce) {
    reduce_slots_[node]->Release();
    return;
  }
  ++free_map_slots_[node];
  // Oldest data-local waiter first.
  while (!pending_local_[node].empty()) {
    std::shared_ptr<PendingMap> task = pending_local_[node].front();
    pending_local_[node].pop_front();
    if (task->done) continue;  // assigned elsewhere already
    AssignMap(task.get(), node);
    return;
  }
  // Then anyone whose locality wait already expired.
  while (!relaxed_.empty()) {
    std::shared_ptr<PendingMap> task = relaxed_.front();
    relaxed_.pop_front();
    if (task->done) continue;
    AssignMap(task.get(), node);
    return;
  }
}

bool JobTracker::TryReserveBackupSlot(TaskKind kind, size_t node) {
  if (kind == TaskKind::kMap) {
    if (free_map_slots_[node] <= 0) return false;
    --free_map_slots_[node];
    return true;
  }
  return reduce_slots_[node]->TryAcquire();
}

sim::Task<Status> JobTracker::RunAttempt(Wave* wave, TaskState* task,
                                         TaskAttempt* attempt) {
  // The one commit site: the first attempt through the barrier moves its
  // output and stats into the task. A race loser's output is simply
  // dropped; its spill files delete on destruction, and its registry id
  // is already gone.
  auto commit = [&](auto outcome, auto* output) -> Status {
    task->attempts.Finish(env_, attempt);
    if (!outcome.ok()) return outcome.status();
    if (task->attempts.TryCommit(attempt)) {
      outcome->stats.attempts = task->attempts.launched();
      outcome->stats.speculative = attempt->backup;
      outcome->stats.data_local = attempt->id.node == task->preferred;
      *output = std::move(outcome->output);
      task->stats = std::move(outcome->stats);
    }
    return Status::OK();
  };
  if (wave->kind == TaskKind::kMap) {
    MapTask map_task(env_, dfs_, wave->config, task->split, attempt);
    co_return commit(co_await map_task.Run(), &task->map_output);
  }
  ReduceTask reduce_task(env_, wave->config, wave->map_outputs,
                         static_cast<size_t>(task->index), attempt);
  co_return commit(co_await reduce_task.Run(), &task->reduce_output);
}

sim::Task<> JobTracker::RunPrimary(Wave* wave, TaskState* task) {
  const JobConfig* config = wave->config;
  task->preferred = PreferredNode(*wave, *task);
  Status last;
  if (config->cancelled()) {
    task->stats.completed = false;
  } else {
    size_t node = co_await AcquireSlot(wave, task);
    task->stats.node = node;
    task->stats.data_local = node == task->preferred;
    // A backup may have committed while this chain waited.
    while (!task->attempts.committed()) {
      if (config->cancelled()) {
        task->stats.completed = false;
        break;
      }
      TaskAttempt* attempt = task->attempts.Launch(
          env_, config->name, wave->kind, task->index, node,
          /*backup=*/false);
      last = co_await RunAttempt(wave, task, attempt);
      if (last.ok()) break;
      if (last.code() == StatusCode::kAborted) {
        if (config->cancelled()) {
          task->stats.completed = false;
          last = Status::OK();
          break;
        }
        if (attempt->killed()) {
          // Killed mid-run: either a backup committed (the task is done)
          // or the job is tearing down; either way the chain stops here.
          if (task->attempts.committed()) last = Status::OK();
          break;
        }
      }
      if (task->attempts.primary_attempts() >= config->max_attempts) break;
      // Falling through to another Launch: this is a real re-run, count
      // it with the failure that caused it.
      CountTaskRerun(last);
    }
    if (!last.ok()) task->attempts.KillAll();
    ReleaseSlot(wave->kind, node);
  }
  wave->outcomes.Push(last);
  wave->workers.Done();
}

sim::Task<> JobTracker::RunBackup(Wave* wave, TaskState* task, size_t node) {
  // The monitor reserved our slot on `node` before spawning us.
  if (!task->attempts.committed() && !wave->config->cancelled()) {
    TaskAttempt* attempt =
        task->attempts.Launch(env_, wave->config->name, wave->kind,
                              task->index, node, /*backup=*/true);
    // A backup never reports an outcome: failures and lost races are
    // silent, the primary chain owns the task's status.
    (void)co_await RunAttempt(wave, task, attempt);
  }
  ReleaseSlot(wave->kind, node);
  wave->workers.Done();
}

sim::Task<> JobTracker::SpeculationLoop(Wave* wave) {
  const JobConfig* config = wave->config;
  sim::Engine* engine = env_->engine();
  const size_t count = wave->tasks.size();
  const size_t nodes = free_map_slots_.size();
  while (!wave->done) {
    co_await engine->Delay(config->speculation.check_period);
    if (wave->done || config->cancelled()) break;
    // Median best-progress across the wave's logical tasks; committed
    // tasks keep anchoring it with their final progress. With all tasks
    // near zero (wave just started) there is nothing to compare yet.
    std::vector<uint64_t> progress;
    progress.reserve(count);
    for (const TaskState& task : wave->tasks) {
      progress.push_back(task.attempts.BestProgress());
    }
    std::sort(progress.begin(), progress.end());
    uint64_t median = progress[count / 2];
    if (median == 0) continue;
    for (TaskState& task : wave->tasks) {
      const AttemptSet& set = task.attempts;
      if (set.committed()) continue;
      if (set.backups() >= kMaxBackupsPerTask) continue;
      TaskAttempt* primary = set.RunningPrimary();
      if (primary == nullptr) continue;  // between retries / awaiting slot
      if (engine->now() - primary->started_at <
          config->speculation.min_attempt_age) {
        continue;
      }
      if (static_cast<double>(set.BestProgress()) * kLagFactor >=
          static_cast<double>(median)) {
        continue;
      }
      // Straggler: place the backup on a free slot on a node no live
      // attempt of this task occupies (lowest index first, deterministic).
      size_t chosen = nodes;
      for (size_t node = 0; node < nodes; ++node) {
        bool occupied = false;
        for (const auto& attempt : set.attempts()) {
          if (!attempt->finished && attempt->id.node == node) {
            occupied = true;
            break;
          }
        }
        if (occupied) continue;
        if (TryReserveBackupSlot(wave->kind, node)) {
          chosen = node;
          break;
        }
      }
      if (chosen == nodes) continue;  // no slot this round
      wave->workers.Add(1);
      engine->Spawn(RunBackup(wave, &task, chosen));
    }
  }
  wave->workers.Done();
}

sim::Task<Status> JobTracker::RunWave(Wave* wave) {
  sim::Engine* engine = env_->engine();
  wave->workers.Add(static_cast<int64_t>(wave->tasks.size()));
  for (TaskState& task : wave->tasks) {
    engine->Spawn(RunPrimary(wave, &task));
  }
  if (wave->config->speculation.enabled && wave->tasks.size() >= 2) {
    wave->workers.Add(1);
    engine->Spawn(SpeculationLoop(wave));
  }
  Status status;
  for (size_t i = 0; i < wave->tasks.size(); ++i) {
    std::optional<Status> outcome = co_await wave->outcomes.Pop();
    if (outcome.has_value() && !outcome->ok() && status.ok()) {
      status = *outcome;
    }
  }
  wave->done = true;
  // The WaitGroup (its event is one-shot, hence one per wave) counts
  // every driver plus the monitor: once it clears, no coroutine still
  // references the wave. For reduces this also drains a losing attempt
  // still mid-shuffle before the map outputs are deleted.
  co_await wave->workers.Wait();
  co_return status;
}

sim::Task<Result<JobResult>> JobTracker::Run(JobConfig config) {
  sim::Engine* engine = env_->engine();
  SimTime start = engine->now();
  JobResult result;

  if (config.input == nullptr) co_return InvalidArgument("job needs input");
  std::vector<InputSplit> splits = config.input->Splits();

  Wave maps(engine, TaskKind::kMap, &config, nullptr);
  for (size_t i = 0; i < splits.size(); ++i) {
    maps.tasks.emplace_back(static_cast<int>(i), &splits[i]);
  }
  Status status = co_await RunWave(&maps);
  if (!status.ok()) co_return status;

  result.map_tasks.reserve(maps.tasks.size());
  std::vector<MapOutput> map_outputs;
  map_outputs.reserve(maps.tasks.size());
  for (TaskState& task : maps.tasks) {
    result.map_tasks.push_back(task.stats);
    map_outputs.push_back(std::move(task.map_output));
  }

  if (config.reducer_factory) {
    Wave reduces(engine, TaskKind::kReduce, &config, &map_outputs);
    for (int p = 0; p < config.num_reducers; ++p) {
      reduces.tasks.emplace_back(p, nullptr);
    }
    status = co_await RunWave(&reduces);
    if (!status.ok()) co_return status;

    result.reduce_tasks.reserve(reduces.tasks.size());
    for (TaskState& task : reduces.tasks) {
      result.reduce_tasks.push_back(task.stats);
      // Job output is assembled in partition order (not completion
      // order), so reruns — and races under speculation — are
      // byte-identical.
      result.output.insert(result.output.end(),
                           std::make_move_iterator(task.reduce_output.begin()),
                           std::make_move_iterator(task.reduce_output.end()));
    }
  }

  // Job finished: the framework cleans up the map outputs (and with them
  // any on-disk spill directories, per section 3.1.3).
  for (MapOutput& output : map_outputs) {
    for (auto& partition : output.partitions) {
      if (partition != nullptr) co_await partition->Delete();
    }
  }

  result.runtime = engine->now() - start;
  co_return result;
}

}  // namespace spongefiles::mapred
