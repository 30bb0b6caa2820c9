#include "pig/data_bag.h"

#include <algorithm>

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

sim::Task<Status> DataBag::Add(Tuple tuple) {
  uint64_t bytes = mapred::SerializedSize(tuple);
  memory_.push_back(std::move(tuple));
  memory_bytes_ += bytes;
  ++count_;
  // Growth may push the JVM over its limit, triggering the upcall.
  co_return co_await manager_->MaybeSpill();
}

sim::Task<Status> DataBag::SpillTuples(
    std::vector<Tuple> tuples,
    std::vector<std::unique_ptr<mapred::SpillFile>>* out) {
  ByteRuns pending;
  auto flush = [&]() -> sim::Task<Status> {
    if (pending.empty()) co_return Status::OK();
    auto file = spiller_->Create(name_ + ".bag" +
                                 std::to_string(next_spill_++));
    if (!file.ok()) co_return file.status();
    uint64_t bytes = pending.size();
    CO_RETURN_IF_ERROR(co_await (*file)->Append(std::move(pending)));
    pending = ByteRuns{};
    CO_RETURN_IF_ERROR(co_await (*file)->Close());
    spilled_bytes_ += bytes;
    out->push_back(std::move(*file));
    co_return Status::OK();
  };
  for (const Tuple& tuple : tuples) {
    mapred::SerializeRecord(tuple, &pending);
    if (pending.size() >= spill_chunk_bytes_) {
      CO_RETURN_IF_ERROR(co_await flush());
    }
  }
  CO_RETURN_IF_ERROR(co_await flush());
  co_return Status::OK();
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
  // lint: ref-ok(awaited inline by the traversal; the tuple outlives each call)
  auto respill_tuple = [&](const Tuple& tuple) -> sim::Task<Status> {
    mapred::SerializeRecord(tuple, &pending);
    if (pending.size() >= spill_chunk_bytes_) {
      auto file = spiller_->Create(name_ + ".bag" +
                                   std::to_string(next_spill_++));
      if (!file.ok()) co_return file.status();
      uint64_t bytes = pending.size();
      CO_RETURN_IF_ERROR(co_await (*file)->Append(std::move(pending)));
      pending = ByteRuns{};
      CO_RETURN_IF_ERROR(co_await (*file)->Close());
      spilled_bytes_ += bytes;
      spill_files_.push_back(std::move(*file));
    }
    co_return Status::OK();
  };

  for (auto& file : files) {
    mapred::SpillFileSource source(std::move(file));
    Tuple tuple;
    while (true) {
      auto has = co_await source.Next(&tuple);
      if (!has.ok()) co_return has.status();
      if (!*has) break;
      co_await cpu_->Charge(per_tuple_cpu_);
      CO_RETURN_IF_ERROR(fn(tuple));
      if (respill) CO_RETURN_IF_ERROR(co_await respill_tuple(tuple));
    }
    co_await source.Done();
  }
  if (respill && !pending.empty()) {
    auto file =
        spiller_->Create(name_ + ".bag" + std::to_string(next_spill_++));
    if (!file.ok()) co_return file.status();
    uint64_t bytes = pending.size();
    CO_RETURN_IF_ERROR(co_await (*file)->Append(std::move(pending)));
    CO_RETURN_IF_ERROR(co_await (*file)->Close());
    spilled_bytes_ += bytes;
    spill_files_.push_back(std::move(*file));
  }
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
    while (true) {
      auto has = co_await source.Next(&tuple);
      if (!has.ok()) co_return has.status();
      if (!*has) break;
      co_await cpu_->Charge(per_tuple_cpu_);
      tuples.push_back(std::move(tuple));
    }
    co_await source.Done();
    std::sort(tuples.begin(), tuples.end(), less);
    CO_RETURN_IF_ERROR(co_await SpillTuples(std::move(tuples), &runs));
  }
  std::sort(memory_.begin(), memory_.end(), less);

  // K-way merge of the sorted runs plus the in-memory run, streaming
  // through `fn`. Note the merge orders by `less` on whole tuples, not by
  // record key, so we merge manually here.
  struct Cursor {
    std::unique_ptr<mapred::SpillFileSource> source;  // null: memory run
    size_t memory_index = 0;
    Tuple head;
    bool has = false;
  };
  std::vector<Cursor> cursors;
  for (auto& run : runs) {
    Cursor cursor;
    cursor.source =
        std::make_unique<mapred::SpillFileSource>(std::move(run));
    cursors.push_back(std::move(cursor));
  }
  cursors.emplace_back();  // the in-memory run

  // lint: ref-ok(awaited inline; the cursor lives in the enclosing merge frame)
  auto advance = [&](Cursor& cursor) -> sim::Task<Status> {
    if (cursor.source != nullptr) {
      auto has = co_await cursor.source->Next(&cursor.head);
      if (!has.ok()) co_return has.status();
      cursor.has = *has;
    } else if (cursor.memory_index < memory_.size()) {
      cursor.head = std::move(memory_[cursor.memory_index++]);
      cursor.has = true;
    } else {
      cursor.has = false;
    }
    co_return Status::OK();
  };
  for (Cursor& cursor : cursors) {
    CO_RETURN_IF_ERROR(co_await advance(cursor));
  }
  while (true) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (cursor.has &&
          (best == nullptr || less(cursor.head, best->head))) {
        best = &cursor;
      }
    }
    if (best == nullptr) break;
    co_await cpu_->Charge(per_tuple_cpu_);
    CO_RETURN_IF_ERROR(fn(best->head));
    CO_RETURN_IF_ERROR(co_await advance(*best));
  }
  for (Cursor& cursor : cursors) {
    if (cursor.source != nullptr) co_await cursor.source->Done();
  }
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
