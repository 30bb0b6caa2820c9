#include "mapred/reduce_task.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::mapred {

ReduceTask::ReduceTask(sponge::SpongeEnv* env, const JobConfig* config,
                       std::vector<MapOutput>* map_outputs, size_t partition,
                       TaskAttempt* attempt)
    : env_(env),
      config_(config),
      map_outputs_(map_outputs),
      partition_(partition),
      attempt_(attempt),
      node_(attempt->id.node) {}

uint64_t ReduceTask::ReduceHeap() const {
  if (config_->reduce_heap_bytes > 0) return config_->reduce_heap_bytes;
  return env_->cluster()->node(node_).config().heap_per_slot;
}

std::unique_ptr<Spiller> ReduceTask::MakeSpiller() {
  // Attempt-unique prefix: concurrent attempts of one partition must not
  // share spill files (or sponge chunk names).
  std::string prefix = attempt_->id.ToString();
  if (config_->spill_mode == SpillMode::kSponge) {
    return std::make_unique<SpongeSpiller>(env_, &attempt_->ctx, prefix);
  }
  return std::make_unique<DiskSpiller>(env_->engine(),
                                       &env_->cluster()->node(node_).fs(),
                                       prefix);
}

sim::Task<Status> ReduceTask::SpillMemorySegments() {
  if (memory_segments_.empty()) co_return Status::OK();
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), node_,
                      attempt_->id.attempt_id, "mapred", "reduce.spill");
  span.Arg("bytes", memory_bytes_);
  span.Arg("segments", static_cast<uint64_t>(memory_segments_.size()));
  std::unique_ptr<SpillFile> run;
  if (memory_segments_.size() == 1) {
    // A single segment is already a sorted run; stream it out directly.
    SpillFileSource source(std::move(memory_segments_[0]));
    auto written = co_await WriteSortedRun(
        spiller_.get(), "run" + std::to_string(next_run_++), &source);
    co_await source.Done();
    if (!written.ok()) co_return written.status();
    run = std::move(*written);
  } else {
    std::vector<std::unique_ptr<RecordSource>> inputs;
    for (auto& segment : memory_segments_) {
      inputs.push_back(
          std::make_unique<SpillFileSource>(std::move(segment)));
    }
    MergeStream merge(std::move(inputs));
    auto written = co_await WriteSortedRun(
        spiller_.get(), "run" + std::to_string(next_run_++), &merge);
    co_await merge.Done();
    if (!written.ok()) co_return written.status();
    run = std::move(*written);
  }
  memory_segments_.clear();
  memory_bytes_ = 0;
  spilled_segments_.push_back(std::move(run));
  co_return Status::OK();
}

sim::Task<Status> ReduceTask::FetchSegment(MapOutput* output) {
  DiskSpillFile* source = output->partitions[partition_].get();
  if (source == nullptr || source->size() == 0) co_return Status::OK();
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), node_,
                      attempt_->id.attempt_id, "mapred",
                      "reduce.fetch_segment");
  span.Arg("from", static_cast<uint64_t>(output->node));
  span.Arg("bytes", source->size());

  uint64_t heap = ReduceHeap();
  uint64_t shuffle_buffer = static_cast<uint64_t>(
      config_->shuffle_buffer_fraction * static_cast<double>(heap));
  if (memory_bytes_ + source->size() > shuffle_buffer) {
    CO_RETURN_IF_ERROR(co_await SpillMemorySegments());
  }

  // An independent cursor per attempt: the map-side copy is shared by
  // every attempt of this partition and survives until the job ends.
  DiskSpillReader reader = source->OpenReader();
  auto segment = std::make_unique<MemorySpillFile>(env_->engine());
  while (true) {
    auto chunk = co_await reader.ReadNext();
    if (!chunk.ok()) co_return chunk.status();
    if (chunk->empty()) break;
    uint64_t n = chunk->size();
    if (output->node != node_) {
      co_await env_->cluster()->network().Transfer(output->node, node_, n);
    }
    attempt_->Note(0, n);
    CO_RETURN_IF_ERROR(co_await segment->Append(std::move(*chunk)));
    if (attempt_->killed()) co_return Aborted("attempt killed");
  }
  CO_RETURN_IF_ERROR(co_await segment->Close());
  memory_bytes_ += segment->size();
  memory_segments_.push_back(std::move(segment));
  co_return Status::OK();
}

sim::Task<Status> ReduceTask::IntermediateMergeRounds() {
  size_t factor = spiller_->merge_factor();
  while (spilled_segments_.size() > factor) {
    obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), node_,
                        attempt_->id.attempt_id, "mapred",
                        "reduce.merge_round");
    span.Arg("segments", static_cast<uint64_t>(spilled_segments_.size()));
    // Merge the `factor` smallest segments (Hadoop's polyphase heuristic)
    // into a new run.
    std::sort(spilled_segments_.begin(), spilled_segments_.end(),
              [](const std::unique_ptr<SpillFile>& a,
                 const std::unique_ptr<SpillFile>& b) {
                return a->size() < b->size();
              });
    std::vector<std::unique_ptr<RecordSource>> inputs;
    for (size_t i = 0; i < factor; ++i) {
      inputs.push_back(std::make_unique<SpillFileSource>(
          std::move(spilled_segments_[i])));
    }
    spilled_segments_.erase(spilled_segments_.begin(),
                            spilled_segments_.begin() +
                                static_cast<long>(factor));
    MergeStream merge(std::move(inputs));
    auto written = co_await WriteSortedRun(
        spiller_.get(), "merge" + std::to_string(next_run_++), &merge);
    co_await merge.Done();
    if (!written.ok()) co_return written.status();
    spilled_segments_.push_back(std::move(*written));
  }
  co_return Status::OK();
}

sim::Task<Status> ReduceTask::DriveReducer(RecordSource* stream,
                                           std::vector<Record>* job_output,
                                           TaskStats* stats) {
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), node_,
                      attempt_->id.attempt_id, "mapred", "reduce.reduce");
  CpuMeter cpu(env_->engine());
  ReduceContext ctx;
  ctx.engine = env_->engine();
  ctx.spiller = spiller_.get();
  ctx.task = &attempt_->ctx;
  ctx.cpu = &cpu;
  ctx.output = job_output;
  ctx.heap_bytes = ReduceHeap();
  CO_RETURN_IF_ERROR(co_await reducer_->Start(&ctx));

  bool in_key = false;
  std::string current_key;
  Record record;
  while (true) {
    auto has = co_await stream->Next(&record);
    if (!has.ok()) co_return has.status();
    if (!*has) break;
    if (attempt_->killed()) co_return Aborted("attempt killed");
    ++stats->input_records;
    uint64_t bytes = SerializedSize(record);
    stats->input_bytes += bytes;
    attempt_->Note(1, bytes);
    if (!in_key || record.key != current_key) {
      if (in_key) CO_RETURN_IF_ERROR(co_await reducer_->FinishKey());
      current_key = record.key;
      in_key = true;
      CO_RETURN_IF_ERROR(co_await reducer_->StartKey(current_key));
    }
    co_await cpu.Charge(config_->reduce_cpu_per_record);
    if (reducer_->AddValue(std::move(record))) {
      CO_RETURN_IF_ERROR(co_await reducer_->Spill());
    }
  }
  if (in_key) CO_RETURN_IF_ERROR(co_await reducer_->FinishKey());
  CO_RETURN_IF_ERROR(co_await reducer_->Finish());
  co_await cpu.Flush();
  co_return Status::OK();
}

sim::Task<Result<ReduceAttemptResult>> ReduceTask::Run() {
  static obs::Counter* const tasks_counter = obs::Registry::Default().counter(
      "mapred.tasks", {{"kind", "reduce"}});
  tasks_counter->Increment();
  sim::Engine* engine = env_->engine();
  SimTime start = engine->now();
  ReduceAttemptResult result;
  result.stats.node = node_;
  spiller_ = MakeSpiller();
  reducer_ = config_->reducer_factory();
  obs::SpanGuard span(&obs::Tracer::Default(), engine, node_,
                      attempt_->id.attempt_id, "mapred", "reduce.task");
  span.Arg("partition", static_cast<uint64_t>(partition_));

  auto finish = [&](Status status) {
    result.stats.spill = spiller_->stats();
    result.stats.runtime = engine->now() - start;
    return status;
  };

  // 1. Shuffle.
  {
    obs::SpanGuard shuffle_span(&obs::Tracer::Default(), engine, node_,
                                attempt_->id.attempt_id, "mapred",
                                "reduce.shuffle");
    for (MapOutput& output : *map_outputs_) {
      if (config_->cancelled()) {
        co_return finish(Aborted("job cancelled"));
      }
      if (attempt_->killed()) co_return finish(Aborted("attempt killed"));
      Status fetched = co_await FetchSegment(&output);
      if (!fetched.ok()) co_return finish(fetched);
    }
  }

  // 2. Nothing is retained in memory for the merge by default
  // (reduce_retain_fraction = 0): spill what the shuffle buffer holds.
  uint64_t heap = ReduceHeap();
  uint64_t retain = static_cast<uint64_t>(
      config_->reduce_retain_fraction * static_cast<double>(heap));
  if (memory_bytes_ > retain) {
    Status spilled = co_await SpillMemorySegments();
    if (!spilled.ok()) co_return finish(spilled);
  }

  // 3. Multi-round merge while too many runs remain.
  Status merged = co_await IntermediateMergeRounds();
  if (!merged.ok()) co_return finish(merged);

  // 4. Final merge streams into the reducer.
  std::vector<std::unique_ptr<RecordSource>> inputs;
  for (auto& segment : memory_segments_) {
    inputs.push_back(std::make_unique<SpillFileSource>(std::move(segment)));
  }
  memory_segments_.clear();
  for (auto& segment : spilled_segments_) {
    inputs.push_back(std::make_unique<SpillFileSource>(std::move(segment)));
  }
  spilled_segments_.clear();
  MergeStream merge(std::move(inputs));
  Status reduced = co_await DriveReducer(&merge, &result.output,
                                         &result.stats);
  co_await merge.Done();
  Status status = finish(reduced);
  if (!status.ok()) co_return status;
  co_return result;
}

}  // namespace spongefiles::mapred
