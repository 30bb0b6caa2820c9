#include "mapred/task_attempt.h"

#include <string>

#include "obs/metrics.h"
#include "sponge/rpc_client.h"

namespace spongefiles::mapred {

const char* TaskRerunReason(const Status& status) {
  if (sponge::IsRpcTimeout(status)) return "timeout";
  // Checksum mismatches surface as UNAVAILABLE too (the chunk is equally
  // lost), but corruption and crashes are different operational problems;
  // split them by the message the verifier attaches.
  if (status.message().find("checksum") != std::string::npos) {
    return "checksum";
  }
  switch (status.code()) {
    case StatusCode::kUnavailable:
      return "chunk-lost";
    case StatusCode::kAborted:
      return "aborted";
    case StatusCode::kResourceExhausted:
      return "resource-exhausted";
    default:
      return "other";
  }
}

void CountTaskRerun(const Status& status) {
  obs::Registry::Default()
      .counter("mapred.task.rerun.reason",
               {{"reason", TaskRerunReason(status)}})
      ->Increment();
}

namespace {

// mapred.speculation.{launched,won,cancelled}, registered together on
// first use.
struct SpeculationCounters {
  obs::Counter* launched;
  obs::Counter* won;
  obs::Counter* cancelled;
};

const SpeculationCounters& Speculation() {
  static obs::Registry& registry = obs::Registry::Default();
  static const SpeculationCounters counters{
      registry.counter("mapred.speculation.launched"),
      registry.counter("mapred.speculation.won"),
      registry.counter("mapred.speculation.cancelled")};
  return counters;
}

}  // namespace

std::string TaskAttemptId::ToString() const {
  return job + (kind == TaskKind::kMap ? ".m" : ".r") +
         std::to_string(task_index) + ".a" + std::to_string(attempt);
}

TaskAttempt* AttemptSet::Launch(sponge::SpongeEnv* env, const std::string& job,
                                TaskKind kind, int task_index, size_t node,
                                bool backup) {
  auto attempt = std::make_unique<TaskAttempt>();
  attempt->id.job = job;
  attempt->id.kind = kind;
  attempt->id.task_index = task_index;
  attempt->id.attempt = launched() + 1;
  attempt->id.node = node;
  attempt->ctx = env->StartTask(node);
  attempt->id.attempt_id = attempt->ctx.task_id;
  attempt->backup = backup;
  attempt->started_at = env->engine()->now();
  if (backup) {
    ++backups_;
    Speculation().launched->Increment();
  }
  attempts_.push_back(std::move(attempt));
  return attempts_.back().get();
}

void AttemptSet::Finish(sponge::SpongeEnv* env, TaskAttempt* attempt) {
  if (attempt->finished) return;
  attempt->finished = true;
  env->EndTask(attempt->ctx);
}

bool AttemptSet::TryCommit(TaskAttempt* attempt) {
  if (winner_ != nullptr) return false;
  winner_ = attempt;
  for (const auto& other : attempts_) {
    if (other.get() == attempt || other->finished || other->killed()) {
      continue;
    }
    other->Kill();
    // Only races created by speculation count as cancellations; a lone
    // primary has no competitors to kill.
    if (other->backup || attempt->backup) {
      Speculation().cancelled->Increment();
    }
  }
  if (attempt->backup) Speculation().won->Increment();
  return true;
}

void AttemptSet::KillAll() {
  for (const auto& attempt : attempts_) {
    if (!attempt->finished) attempt->Kill();
  }
}

TaskAttempt* AttemptSet::RunningPrimary() const {
  for (const auto& attempt : attempts_) {
    if (!attempt->finished && !attempt->backup) return attempt.get();
  }
  return nullptr;
}

uint64_t AttemptSet::BestProgress() const {
  uint64_t best = 0;
  for (const auto& attempt : attempts_) {
    if (attempt->progress() > best) best = attempt->progress();
  }
  return best;
}

}  // namespace spongefiles::mapred
