#include "pig/data_bag.h"

#include "pig/memory_manager.h"

namespace spongefiles::pig {

DataBag::DataBag(MemoryManager* manager, mapred::Spiller* spiller,
                 mapred::CpuMeter* cpu, std::string name,
                 uint64_t spill_chunk_bytes, Duration per_tuple_cpu)
    : manager_(manager),
      spiller_(spiller),
      cpu_(cpu),
      name_(std::move(name)),
      spill_chunk_bytes_(spill_chunk_bytes),
      per_tuple_cpu_(per_tuple_cpu) {
  manager_->Register(this);
}

DataBag::~DataBag() {
  if (!destroyed_) manager_->Unregister(this);
}

bool DataBag::Push(Tuple tuple) {
  memory_bytes_ += mapred::SerializedSize(tuple);
  memory_.push_back(std::move(tuple));
  ++count_;
  return manager_->over_budget();
}

sim::Task<Status> DataBag::WriteSpillFile(
    ByteRuns* pending, std::vector<std::unique_ptr<mapred::SpillFile>>* out) {
  if (pending->empty()) co_return Status::OK();
  auto file = spiller_->Create(name_ + ".bag" + std::to_string(next_spill_++));
  if (!file.ok()) co_return file.status();
  uint64_t bytes = pending->size();
  CO_RETURN_IF_ERROR(co_await (*file)->Append(std::move(*pending)));
  *pending = ByteRuns{};
  CO_RETURN_IF_ERROR(co_await (*file)->Close());
  spilled_bytes_ += bytes;
  out->push_back(std::move(*file));
  co_return Status::OK();
}

sim::Task<Status> DataBag::SpillTuples(
    std::vector<Tuple> tuples,
    std::vector<std::unique_ptr<mapred::SpillFile>>* out) {
  ByteRuns pending;
  for (const Tuple& tuple : tuples) {
    mapred::SerializeRecord(tuple, &pending);
    if (pending.size() >= spill_chunk_bytes_) {
      CO_RETURN_IF_ERROR(co_await WriteSpillFile(&pending, out));
    }
  }
  co_return co_await WriteSpillFile(&pending, out);
}

sim::Task<Status> DataBag::SpillMemory() {
  if (memory_.empty()) co_return Status::OK();
  std::vector<Tuple> tuples = std::move(memory_);
  memory_.clear();
  memory_bytes_ = 0;
  co_return co_await SpillTuples(std::move(tuples), &spill_files_);
}

sim::Task<Status> DataBag::ForEach(std::function<Status(const Tuple&)> fn,
                                   bool respill) {
  std::vector<std::unique_ptr<mapred::SpillFile>> files =
      std::move(spill_files_);
  spill_files_.clear();
  spilled_bytes_ = 0;

  ByteRuns pending;
  for (auto& file : files) {
    mapred::SpillFileSource source(std::move(file));
    Tuple tuple;
    Status status;
    while (status.ok()) {
      auto has = co_await source.Next(&tuple);
      if (!has.ok()) {
        status = has.status();
        break;
      }
      if (!*has) break;
      co_await cpu_->Charge(per_tuple_cpu_);
      status = fn(tuple);
      if (!status.ok() || !respill) continue;
      mapred::SerializeRecord(tuple, &pending);
      if (pending.size() >= spill_chunk_bytes_) {
        status = co_await WriteSpillFile(&pending, &spill_files_);
      }
    }
    // Done() on every exit, failures included: a sponge-backed file may
    // still have a chunk prefetch in flight, and only Delete() waits for
    // it before the file is destroyed.
    co_await source.Done();
    CO_RETURN_IF_ERROR(status);
  }
  CO_RETURN_IF_ERROR(co_await WriteSpillFile(&pending, &spill_files_));
  if (!respill) {
    // The spilled portion has been consumed; only memory tuples remain.
    count_ = memory_.size();
  }

  for (const Tuple& tuple : memory_) {
    co_await cpu_->Charge(per_tuple_cpu_);
    CO_RETURN_IF_ERROR(fn(tuple));
  }
  co_return Status::OK();
}

sim::Task<Status> DataBag::SortedForEach(
    std::function<bool(const Tuple&, const Tuple&)> less,
    std::function<Status(const Tuple&)> fn) {
  // Run generation: each spill chunk (<= C bytes) fits in memory; sort it
  // into a fresh sorted run. In-memory tuples form one more run.
  std::vector<std::unique_ptr<mapred::SpillFile>> files =
      std::move(spill_files_);
  spill_files_.clear();

  std::vector<std::unique_ptr<mapred::SpillFile>> runs;
  for (auto& file : files) {
    mapred::SpillFileSource source(std::move(file));
    std::vector<Tuple> tuples;
    Tuple tuple;
    Status status;
    while (true) {
      auto has = co_await source.Next(&tuple);
      if (!has.ok()) {
        status = has.status();
        break;
      }
      if (!*has) break;
      co_await cpu_->Charge(per_tuple_cpu_);
      tuples.push_back(std::move(tuple));
    }
    co_await source.Done();  // on failure too, as in ForEach
    CO_RETURN_IF_ERROR(status);
    mapred::SortRecords(&tuples, less);
    CO_RETURN_IF_ERROR(co_await SpillTuples(std::move(tuples), &runs));
  }
  mapred::SortRecords(&memory_, less);

  // K-way merge of the sorted runs plus the in-memory run, streaming
  // through `fn`. Note the merge orders by `less` on whole tuples, not by
  // record key, so we merge manually here. A cursor advances without
  // suspending unless its run must read its next chunk.
  struct Cursor {
    std::unique_ptr<mapred::RecordSource> source;
    Tuple head;
    bool has = false;
  };
  std::vector<Cursor> cursors(runs.size() + 1);
  for (size_t i = 0; i < runs.size(); ++i) {
    cursors[i].source =
        std::make_unique<mapred::SpillFileSource>(std::move(runs[i]));
  }
  cursors.back().source =
      std::make_unique<mapred::VectorSource>(std::move(memory_));
  Status status;
  for (Cursor& cursor : cursors) {
    auto has = co_await cursor.source->Next(&cursor.head);
    if (!has.ok()) {
      status = has.status();
      break;
    }
    cursor.has = *has;
  }
  while (status.ok()) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (cursor.has &&
          (best == nullptr || less(cursor.head, best->head))) {
        best = &cursor;
      }
    }
    if (best == nullptr) break;
    co_await cpu_->Charge(per_tuple_cpu_);
    status = fn(best->head);
    if (!status.ok()) break;
    auto has = co_await best->source->Next(&best->head);
    if (!has.ok()) {
      status = has.status();
      break;
    }
    best->has = *has;
  }
  // Every run may have a prefetch in flight when the merge fails.
  for (Cursor& cursor : cursors) co_await cursor.source->Done();
  CO_RETURN_IF_ERROR(status);
  memory_.clear();
  memory_bytes_ = 0;
  count_ = 0;
  co_return Status::OK();
}

sim::Task<> DataBag::Destroy() {
  if (destroyed_) co_return;
  destroyed_ = true;
  manager_->Unregister(this);
  for (auto& file : spill_files_) {
    if (file != nullptr) co_await file->Delete();
  }
  spill_files_.clear();
  memory_.clear();
  memory_bytes_ = 0;
}

}  // namespace spongefiles::pig
