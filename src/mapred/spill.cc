#include "mapred/spill.h"

#include <limits>

#include "obs/metrics.h"
#include "sponge/sponge_file.h"

namespace spongefiles::mapred {

namespace {

obs::Counter* SpillModeCounter(SpillMode mode) {
  static obs::Counter* const disk = obs::Registry::Default().counter(
      "mapred.spill.bytes", {{"mode", "disk"}});
  static obs::Counter* const sponge = obs::Registry::Default().counter(
      "mapred.spill.bytes", {{"mode", "sponge"}});
  return mode == SpillMode::kDisk ? disk : sponge;
}

}  // namespace

void SpillStats::Add(const SpillStats& other) {
  bytes_spilled += other.bytes_spilled;
  files_created += other.files_created;
  sponge_chunks += other.sponge_chunks;
  sponge_chunks_local += other.sponge_chunks_local;
  sponge_chunks_remote += other.sponge_chunks_remote;
  sponge_chunks_ssd += other.sponge_chunks_ssd;
  sponge_chunks_disk += other.sponge_chunks_disk;
  sponge_chunks_dfs += other.sponge_chunks_dfs;
  sponge_bytes_local += other.sponge_bytes_local;
  sponge_bytes_remote += other.sponge_bytes_remote;
  sponge_bytes_ssd += other.sponge_bytes_ssd;
  sponge_bytes_disk += other.sponge_bytes_disk;
  sponge_bytes_dfs += other.sponge_bytes_dfs;
  fragmentation_bytes += other.fragmentation_bytes;
  stale_list_retries += other.stale_list_retries;
}

DiskSpillFile::~DiskSpillFile() {
  if (!deleted_) (void)fs_->Delete(file_id_);
}

sim::Task<Status> DiskSpillFile::Append(ByteRuns data) {
  if (closed_) co_return FailedPrecondition("append after close");
  uint64_t n = data.size();
  content_.Append(std::move(data));
  size_ += n;
  stats_->bytes_spilled += n;
  SpillModeCounter(SpillMode::kDisk)->Increment(n);
  co_return co_await fs_->Append(file_id_, n);
}

sim::Task<Status> DiskSpillFile::Close() {
  closed_ = true;
  co_return Status::OK();
}

sim::Task<> DiskSpillFile::Delete() {
  if (!deleted_) {
    (void)fs_->Delete(file_id_);
    deleted_ = true;
    content_.Clear();
  }
  co_return;
}

DiskSpillReader::DiskSpillReader(DiskSpillFile* file)
    : file_(file), cursor_(&file->content_) {}

sim::Task<Result<ByteRuns>> DiskSpillReader::ReadNext() {
  if (!file_->closed_) co_return FailedPrecondition("read before close");
  const uint64_t offset = cursor_.position();
  if (offset >= file_->size_) co_return ByteRuns{};
  uint64_t n = std::min<uint64_t>(kMiB, file_->size_ - offset);
  Status read = co_await file_->fs_->Read(file_->file_id_, offset, n);
  if (!read.ok()) co_return read;
  co_return cursor_.Take(n);
}

namespace {

// SpongeFile-backed spill file.
class SpongeSpillFile : public SpillFile {
 public:
  SpongeSpillFile(sponge::SpongeEnv* env, sponge::TaskContext* task,
                  const std::string& name, SpillStats* stats)
      : file_(env, task, name), stats_(stats) {}

  sim::Task<Status> Append(ByteRuns data) override {
    uint64_t n = data.size();
    Status status = co_await file_.Append(std::move(data));
    if (status.ok()) {
      stats_->bytes_spilled += n;
      SpillModeCounter(SpillMode::kSponge)->Increment(n);
    }
    co_return status;
  }

  sim::Task<Status> Close() override {
    Status status = co_await file_.Close();
    if (status.ok() && !counted_) {
      counted_ = true;
      const auto& s = file_.stats();
      stats_->sponge_chunks += s.total_chunks();
      stats_->sponge_chunks_local += s.chunks_local_memory;
      stats_->sponge_chunks_remote += s.chunks_remote_memory;
      stats_->sponge_chunks_ssd += s.chunks_local_ssd;
      stats_->sponge_chunks_disk += s.chunks_local_disk;
      stats_->sponge_chunks_dfs += s.chunks_dfs;
      stats_->sponge_bytes_local += s.bytes_local_memory;
      stats_->sponge_bytes_remote += s.bytes_remote_memory;
      stats_->sponge_bytes_ssd += s.bytes_local_ssd;
      stats_->sponge_bytes_disk += s.bytes_local_disk;
      stats_->sponge_bytes_dfs += s.bytes_dfs;
      stats_->fragmentation_bytes += s.fragmentation_bytes;
      stats_->stale_list_retries += s.stale_list_retries;
    }
    co_return status;
  }

  sim::Task<Result<ByteRuns>> ReadNext() override {
    return file_.ReadNext();
  }

  sim::Task<> Delete() override { return file_.Delete(); }

  uint64_t size() const override { return file_.size(); }

 private:
  sponge::SpongeFile file_;
  SpillStats* stats_;
  bool counted_ = false;
};

}  // namespace

Result<std::unique_ptr<SpillFile>> DiskSpiller::Create(
    const std::string& name) {
  auto file = CreateDiskFile(name);
  if (!file.ok()) return file.status();
  return std::unique_ptr<SpillFile>(std::move(*file));
}

Result<std::unique_ptr<DiskSpillFile>> DiskSpiller::CreateDiskFile(
    const std::string& name) {
  auto file_id =
      fs_->Create(name_prefix_ + "." + name + "." + std::to_string(next_id_++));
  if (!file_id.ok()) return file_id.status();
  ++stats_.files_created;
  return std::make_unique<DiskSpillFile>(fs_, *file_id, &stats_);
}

Result<std::unique_ptr<SpillFile>> SpongeSpiller::Create(
    const std::string& name) {
  ++stats_.files_created;
  return std::unique_ptr<SpillFile>(new SpongeSpillFile(
      env_, task_,
      name_prefix_ + "." + name + "." + std::to_string(next_id_++), &stats_));
}

sim::Task<Status> MemorySpillFile::Append(ByteRuns data) {
  if (closed_) co_return FailedPrecondition("append after close");
  uint64_t n = data.size();
  content_.Append(std::move(data));
  size_ += n;
  co_await engine_->Delay(TransferTime(n, memory_bandwidth_));
  co_return Status::OK();
}

sim::Task<Status> MemorySpillFile::Close() {
  closed_ = true;
  co_return Status::OK();
}

sim::Task<Result<ByteRuns>> MemorySpillFile::ReadNext() {
  if (!closed_) co_return FailedPrecondition("read before close");
  const uint64_t offset = cursor_.position();
  if (offset >= size_) co_return ByteRuns{};
  uint64_t n = std::min<uint64_t>(read_unit_, size_ - offset);
  co_await engine_->Delay(TransferTime(n, memory_bandwidth_));
  co_return cursor_.Take(n);
}

sim::Task<> MemorySpillFile::Delete() {
  content_.Clear();
  co_return;
}

}  // namespace spongefiles::mapred
