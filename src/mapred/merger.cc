#include "mapred/merger.h"

#include <algorithm>

#include "obs/metrics.h"

namespace spongefiles::mapred {

sim::Task<Result<bool>> RecordSource::FillUntilNext(Record* out) {
  do {
    auto more = co_await Fill();
    if (!more.ok()) co_return more.status();
    if (!*more) co_return false;
  } while (!TryNext(out));
  co_return true;
}

sim::Task<Result<bool>> SpillFileSource::Fill() {
  if (!exhausted_) {
    auto chunk = co_await file_->ReadNext();
    if (!chunk.ok()) co_return chunk.status();
    if (!chunk->empty()) {
      parser_.Feed(std::move(*chunk));
      co_return true;
    }
    exhausted_ = true;
  }
  if (parser_.pending_bytes() != 0) {
    co_return Internal("truncated record at end of spill file");
  }
  co_return false;
}

sim::Task<> SpillFileSource::Done() { co_await file_->Delete(); }

bool VectorSource::TryNext(Record* out) {
  if (next_ >= records_.size()) return false;
  *out = std::move(records_[next_++]);
  return true;
}

sim::Task<Result<bool>> VectorSource::Fill() { co_return false; }

sim::Task<> VectorSource::Done() {
  records_.clear();
  co_return;
}

namespace {
// Heap order: a min-heap by key (std heap algorithms build max-heaps).
bool HeapAfter(const MergeStream::Head& a, const MergeStream::Head& b) {
  return b.record.key < a.record.key;
}
}  // namespace

sim::Task<Status> MergeStream::Prime() {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    Record record;
    auto has = co_await inputs_[i]->Next(&record);
    if (!has.ok()) co_return has.status();
    if (*has) heap_.push_back(Head{std::move(record), i});
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapAfter);
  primed_ = true;
  co_return Status::OK();
}

bool MergeStream::TryNext(Record* out) {
  if (has_ready_) {
    std::swap(*out, ready_);
    has_ready_ = false;
    return true;
  }
  if (!primed_ || stashed_ || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
  Head& head = heap_.back();
  if (!inputs_[head.input]->TryNext(&refill_)) {
    stashed_ = true;  // refilling needs I/O: hand the head out after Fill
    return false;
  }
  std::swap(*out, head.record);
  std::swap(head.record, refill_);
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  return true;
}

sim::Task<Result<bool>> MergeStream::Fill() {
  if (!primed_) {
    Status primed = co_await Prime();
    if (!primed.ok()) co_return primed;
    co_return !heap_.empty();
  }
  if (!stashed_) co_return has_ready_ || !heap_.empty();
  auto has = co_await inputs_[heap_.back().input]->Next(&refill_);
  if (!has.ok()) co_return has.status();
  stashed_ = false;
  std::swap(ready_, heap_.back().record);
  has_ready_ = true;
  if (*has) {
    std::swap(heap_.back().record, refill_);
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  } else {
    heap_.pop_back();
  }
  co_return true;
}

sim::Task<> MergeStream::Done() {
  for (auto& input : inputs_) co_await input->Done();
}

sim::Task<Status> WriteRun(SpillFile* file, RecordSource* source) {
  ByteRuns pending;
  Record record;
  while (true) {
    auto has = co_await source->Next(&record);
    if (!has.ok()) co_return has.status();
    if (!*has) break;
    SerializeRecord(record, &pending);
    if (pending.size() >= kMiB) {
      Status appended = co_await file->Append(std::move(pending));
      if (!appended.ok()) co_return appended;
      pending = ByteRuns{};
    }
  }
  if (!pending.empty()) {
    Status appended = co_await file->Append(std::move(pending));
    if (!appended.ok()) co_return appended;
  }
  Status closed = co_await file->Close();
  if (!closed.ok()) co_return closed;
  static obs::Counter* const runs_counter =
      obs::Registry::Default().counter("mapred.merge.runs_written");
  static obs::Histogram* const run_bytes_histogram =
      obs::Registry::Default().histogram("mapred.merge.run_bytes");
  runs_counter->Increment();
  run_bytes_histogram->Record(file->size());
  co_return Status::OK();
}

sim::Task<Result<std::unique_ptr<SpillFile>>> WriteSortedRun(
    Spiller* spiller, std::string name, RecordSource* source) {
  auto created = spiller->Create(name);
  if (!created.ok()) co_return created.status();
  std::unique_ptr<SpillFile> file = std::move(*created);
  CO_RETURN_IF_ERROR(co_await WriteRun(file.get(), source));
  co_return file;
}

}  // namespace spongefiles::mapred
