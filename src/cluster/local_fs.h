#ifndef SPONGEFILES_CLUSTER_LOCAL_FS_H_
#define SPONGEFILES_CLUSTER_LOCAL_FS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cluster/buffer_cache.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// A node-local filesystem used for spill files, map outputs and DFS block
// storage. It tracks capacity and per-file sizes and charges IO time
// through the node's buffer cache and disk; file *contents* live with their
// owners (spill files and sponge chunks carry their own ByteRuns), keeping
// a single source of truth for data while the filesystem provides timing
// and space accounting.
class LocalFs {
 public:
  LocalFs(BufferCache* cache, uint64_t capacity)
      : cache_(cache), capacity_(capacity) {}

  LocalFs(const LocalFs&) = delete;
  LocalFs& operator=(const LocalFs&) = delete;

  // Creates an empty file and returns its id. Fails if the name exists.
  Result<uint64_t> Create(const std::string& name);

  // Reserves space and charges the write path for appending `bytes`.
  // Returns RESOURCE_EXHAUSTED (before any time passes) if the disk is
  // full.
  sim::Task<Status> Append(uint64_t file_id, uint64_t bytes);

  // Charges the read path for `bytes` at `offset`. Reading past EOF is an
  // OUT_OF_RANGE error.
  sim::Task<Status> Read(uint64_t file_id, uint64_t offset, uint64_t bytes);

  // Sets the file's size without charging IO time (pre-loaded datasets).
  Status Truncate(uint64_t file_id, uint64_t size);

  // Forces the file's dirty cache blocks to disk.
  sim::Task<Status> Sync(uint64_t file_id);

  // Deletes the file: frees its space and drops its cache blocks without
  // writeback.
  Status Delete(uint64_t file_id);

  // Size of an existing file, or NOT_FOUND.
  Result<uint64_t> Size(uint64_t file_id) const;

  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  uint64_t free_space() const { return capacity_ - used_; }
  size_t file_count() const { return files_.size(); }

 private:
  struct File {
    std::string name;
    uint64_t size = 0;
  };

  BufferCache* cache_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, File> files_;
  std::unordered_map<std::string, uint64_t> by_name_;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_LOCAL_FS_H_
