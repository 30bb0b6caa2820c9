#include "mapred/map_task.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::mapred {

namespace {
constexpr uint64_t kScanUnit = 4ull * 1024 * 1024;  // DFS read granularity

size_t DefaultPartition(const Record& record, int num_reducers) {
  uint64_t h = 14695981039346656037ull;
  for (char c : record.key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % static_cast<uint64_t>(num_reducers));
}
}  // namespace

MapTask::MapTask(sponge::SpongeEnv* env, cluster::Dfs* dfs,
                 const JobConfig* config, const InputSplit* split,
                 TaskAttempt* attempt)
    : env_(env),
      dfs_(dfs),
      config_(config),
      split_(split),
      attempt_(attempt),
      node_(attempt->id.node) {
  buffer_.resize(static_cast<size_t>(config->num_reducers));
  spilled_.resize(static_cast<size_t>(config->num_reducers));
  partition_records_.resize(static_cast<size_t>(config->num_reducers), 0);
  // Attempt-unique prefix: two live attempts of one task must never share
  // spill files (they may even land on the same node across retries).
  spiller_ = std::make_unique<DiskSpiller>(
      env->engine(), &env->cluster()->node(node_).fs(),
      attempt->id.ToString());
}

size_t MapTask::PartitionOf(const Record& record) const {
  if (config_->partitioner) {
    return config_->partitioner(record, config_->num_reducers);
  }
  return DefaultPartition(record, config_->num_reducers);
}

sim::Task<Status> MapTask::SortAndSpill() {
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), node_,
                      attempt_->id.attempt_id, "mapred", "map.sort_spill");
  span.Arg("bytes", buffer_bytes_);
  ++spill_count_;
  for (size_t p = 0; p < buffer_.size(); ++p) {
    if (buffer_[p].empty()) continue;
    SortRecords(&buffer_[p],
                [](const Record& a, const Record& b) { return a.key < b.key; });
    VectorSource source(std::move(buffer_[p]));
    buffer_[p] = {};
    auto run = co_await WriteDiskRun(
        "spill" + std::to_string(spill_count_) + ".p" + std::to_string(p),
        &source);
    if (!run.ok()) co_return run.status();
    spilled_[p].push_back(std::move(*run));
  }
  buffer_bytes_ = 0;
  co_return Status::OK();
}

sim::Task<Result<std::unique_ptr<DiskSpillFile>>> MapTask::WriteDiskRun(
    std::string name, RecordSource* source) {
  auto file = spiller_->CreateDiskFile(name);
  if (!file.ok()) co_return file.status();
  CO_RETURN_IF_ERROR(co_await WriteRun(file->get(), source));
  co_return std::move(*file);
}

sim::Task<Result<MapAttemptResult>> MapTask::Run() {
  static obs::Counter* const tasks_counter = obs::Registry::Default().counter(
      "mapred.tasks", {{"kind", "map"}});
  tasks_counter->Increment();
  sim::Engine* engine = env_->engine();
  CpuMeter cpu(engine);
  MapAttemptResult result;
  result.stats.node = node_;
  SimTime start = engine->now();
  obs::SpanGuard span(&obs::Tracer::Default(), engine, node_,
                      attempt_->id.attempt_id, "mapred", "map.task");
  span.Arg("split_bytes", split_->bytes);

  // Stream the split off the DFS, charging scan CPU as we go.
  for (uint64_t off = 0; off < split_->bytes; off += kScanUnit) {
    if (config_->cancelled()) {
      co_return Aborted("job cancelled");
    }
    if (attempt_->killed()) co_return Aborted("attempt killed");
    uint64_t n = std::min<uint64_t>(kScanUnit, split_->bytes - off);
    Status read = co_await dfs_->Read(split_->dfs_file, node_,
                                      split_->offset + off, n);
    if (!read.ok()) co_return read;
    attempt_->Note(0, n);
    co_await cpu.Charge(TransferTime(n, config_->map_scan_bandwidth));
  }
  result.stats.input_bytes = split_->bytes;

  // Apply the map function and fill the sort buffer.
  std::vector<Record> records =
      split_->generate ? split_->generate() : std::vector<Record>{};
  result.stats.input_records = records.size();
  std::vector<Record> mapped;
  for (Record& record : records) {
    if (attempt_->killed()) co_return Aborted("attempt killed");
    co_await cpu.Charge(config_->map_cpu_per_record);
    attempt_->Note(1, 0);
    mapped.clear();
    if (config_->map_fn) {
      config_->map_fn(std::move(record), &mapped);
    } else {
      mapped.push_back(std::move(record));
    }
    for (Record& out : mapped) {
      uint64_t bytes = SerializedSize(out);
      size_t partition = PartitionOf(out);
      ++partition_records_[partition];
      buffer_[partition].push_back(std::move(out));
      buffer_bytes_ += bytes;
      if (buffer_bytes_ >= config_->io_sort_mb) {
        CO_RETURN_IF_ERROR(co_await SortAndSpill());
      }
    }
  }
  if (buffer_bytes_ > 0) {
    CO_RETURN_IF_ERROR(co_await SortAndSpill());
  }

  // Merge this attempt's spills into one sorted run per partition.
  MapOutput* output = &result.output;
  output->node = node_;
  output->partitions.resize(spilled_.size());
  output->partition_records = partition_records_;
  for (size_t p = 0; p < spilled_.size(); ++p) {
    if (spilled_[p].empty()) continue;
    if (spilled_[p].size() == 1) {
      output->partitions[p] = std::move(spilled_[p][0]);
      continue;
    }
    if (attempt_->killed()) co_return Aborted("attempt killed");
    std::vector<std::unique_ptr<RecordSource>> inputs;
    for (auto& file : spilled_[p]) {
      inputs.push_back(std::make_unique<SpillFileSource>(std::move(file)));
    }
    MergeStream merge(std::move(inputs));
    auto merged = co_await WriteDiskRun("out.p" + std::to_string(p), &merge);
    co_await merge.Done();
    if (!merged.ok()) co_return merged.status();
    output->partitions[p] = std::move(*merged);
  }

  co_await cpu.Flush();
  result.stats.spill = spiller_->stats();
  result.stats.runtime = engine->now() - start;
  output->spiller = std::move(spiller_);
  co_return result;
}

}  // namespace spongefiles::mapred
