#ifndef SPONGEFILES_MAPRED_SPILL_H_
#define SPONGEFILES_MAPRED_SPILL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "cluster/local_fs.h"
#include "common/byte_runs.h"
#include "common/status.h"
#include "sim/task.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// A spill target with SpongeFile semantics: write once sequentially,
// close, read back once sequentially, delete. The two implementations are
// the baseline (local disk through the node's buffer cache, stock Hadoop)
// and SpongeFiles; a third, memory-backed one holds a reduce task's
// in-memory shuffle segments so the merge machinery can treat every
// segment uniformly.
class SpillFile {
 public:
  virtual ~SpillFile() = default;

  virtual sim::Task<Status> Append(ByteRuns data) = 0;
  virtual sim::Task<Status> Close() = 0;
  // Next sequential piece of the file; empty ByteRuns at EOF.
  virtual sim::Task<Result<ByteRuns>> ReadNext() = 0;
  virtual sim::Task<> Delete() = 0;
  virtual uint64_t size() const = 0;
};

// Where a task's spills go; what Figures 4-6 vary.
enum class SpillMode { kDisk, kSponge };

// Aggregate spill accounting for one task (Table 2's columns).
struct SpillStats {
  uint64_t bytes_spilled = 0;
  uint64_t files_created = 0;
  uint64_t sponge_chunks = 0;
  uint64_t sponge_chunks_local = 0;
  uint64_t sponge_chunks_remote = 0;
  uint64_t sponge_chunks_ssd = 0;
  uint64_t sponge_chunks_disk = 0;
  uint64_t sponge_chunks_dfs = 0;
  // Logical bytes the sponge cascade placed on each medium (sums to
  // bytes_spilled for a pure-sponge task).
  uint64_t sponge_bytes_local = 0;
  uint64_t sponge_bytes_remote = 0;
  uint64_t sponge_bytes_ssd = 0;
  uint64_t sponge_bytes_disk = 0;
  uint64_t sponge_bytes_dfs = 0;
  uint64_t fragmentation_bytes = 0;
  uint64_t stale_list_retries = 0;

  void Add(const SpillStats& other);
};

// Creates spill files for one task and accumulates their statistics.
class Spiller {
 public:
  virtual ~Spiller() = default;

  virtual Result<std::unique_ptr<SpillFile>> Create(
      const std::string& name) = 0;

  // Maximum segments merged at once. Disk merging is bounded by
  // io.sort.factor (10) to limit concurrent streams and their seeks;
  // SpongeFile merging has no seeks to avoid, so it is unbounded and the
  // merge happens in a single round (paper section 4.2.3).
  virtual size_t merge_factor() const = 0;

  SpillStats& stats() { return stats_; }
  const SpillStats& stats() const { return stats_; }

 protected:
  SpillStats stats_;
};

class DiskSpillFile;

// An independent sequential read cursor over a closed disk spill file.
// Every reader owns its position, so concurrent consumers — two attempts
// of the same reduce task shuffling one map output — never disturb each
// other or the file's own cursor. Readers borrow the file: the file must
// outlive them (the JobTracker keeps map outputs alive until every
// attempt has drained).
class DiskSpillReader {
 public:
  explicit DiskSpillReader(DiskSpillFile* file);
  // Next sequential piece; empty ByteRuns at EOF.
  sim::Task<Result<ByteRuns>> ReadNext();

 private:
  DiskSpillFile* file_;
  ByteRuns::Cursor cursor_;
};

// A spill file on the task node's local filesystem: content kept
// alongside the LocalFs file that provides timing and capacity
// accounting. Map outputs live here, and only these are read more than
// once (OpenReader).
class DiskSpillFile final : public SpillFile {
 public:
  DiskSpillFile(cluster::LocalFs* fs, uint64_t file_id, SpillStats* stats)
      : fs_(fs), file_id_(file_id), stats_(stats) {}
  // Pinned: the read cursors point into this object's content.
  DiskSpillFile(const DiskSpillFile&) = delete;
  DiskSpillFile& operator=(const DiskSpillFile&) = delete;
  ~DiskSpillFile() override;

  sim::Task<Status> Append(ByteRuns data) override;
  sim::Task<Status> Close() override;
  sim::Task<Result<ByteRuns>> ReadNext() override {
    return reader_.ReadNext();
  }
  sim::Task<> Delete() override;
  uint64_t size() const override { return size_; }

  // An independent cursor over the closed file (shuffle sources: map
  // outputs are fetched concurrently by every attempt of every reduce).
  DiskSpillReader OpenReader() { return DiskSpillReader(this); }

 private:
  friend class DiskSpillReader;

  cluster::LocalFs* fs_;
  uint64_t file_id_;
  SpillStats* stats_;
  ByteRuns content_;
  uint64_t size_ = 0;
  // The file's own read position. Appends before Close() only add runs
  // after it, so a cursor still at the start stays valid.
  DiskSpillReader reader_{this};
  bool closed_ = false;
  bool deleted_ = false;
};

// Baseline: spill files on the task node's local filesystem (through the
// buffer cache, exactly like stock Hadoop/Pig intermediate files).
class DiskSpiller : public Spiller {
 public:
  // io.sort.factor's stock value.
  static constexpr size_t kMergeFactor = 10;

  DiskSpiller(sim::Engine* engine, cluster::LocalFs* fs,
              std::string name_prefix)
      : engine_(engine), fs_(fs), name_prefix_(std::move(name_prefix)) {}

  Result<std::unique_ptr<SpillFile>> Create(const std::string& name) override;
  // Create, typed for callers that reread the file (map outputs).
  Result<std::unique_ptr<DiskSpillFile>> CreateDiskFile(
      const std::string& name);
  size_t merge_factor() const override { return kMergeFactor; }

 private:
  sim::Engine* engine_;
  cluster::LocalFs* fs_;
  std::string name_prefix_;
  uint64_t next_id_ = 0;
};

// SpongeFile-backed spilling (the paper's contribution).
class SpongeSpiller : public Spiller {
 public:
  SpongeSpiller(sponge::SpongeEnv* env, sponge::TaskContext* task,
                std::string name_prefix)
      : env_(env), task_(task), name_prefix_(std::move(name_prefix)) {}

  Result<std::unique_ptr<SpillFile>> Create(const std::string& name) override;
  size_t merge_factor() const override {
    return std::numeric_limits<size_t>::max();
  }

 private:
  sponge::SpongeEnv* env_;
  sponge::TaskContext* task_;
  std::string name_prefix_;
  uint64_t next_id_ = 0;
};

// A purely in-memory segment (a reduce task's shuffle buffer contents).
// Reads cost only heap copy time.
class MemorySpillFile : public SpillFile {
 public:
  MemorySpillFile(sim::Engine* engine, uint64_t read_unit = kMiB,
                  double memory_bandwidth = 3.0 * 1024 * 1024 * 1024)
      : engine_(engine),
        read_unit_(read_unit),
        memory_bandwidth_(memory_bandwidth) {}
  // Pinned: the read cursor points into this object's content.
  MemorySpillFile(const MemorySpillFile&) = delete;
  MemorySpillFile& operator=(const MemorySpillFile&) = delete;

  sim::Task<Status> Append(ByteRuns data) override;
  sim::Task<Status> Close() override;
  sim::Task<Result<ByteRuns>> ReadNext() override;
  sim::Task<> Delete() override;
  uint64_t size() const override { return size_; }

 private:
  sim::Engine* engine_;
  uint64_t read_unit_;
  double memory_bandwidth_;
  ByteRuns content_;
  uint64_t size_ = 0;
  // The read position. Appends before Close() only add runs after it, so
  // a cursor still at the start stays valid.
  ByteRuns::Cursor cursor_{&content_};
  bool closed_ = false;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_SPILL_H_
