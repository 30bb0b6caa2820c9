#ifndef SPONGEFILES_CLUSTER_BUFFER_CACHE_H_
#define SPONGEFILES_CLUSTER_BUFFER_CACHE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "cluster/disk.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// An OS page-cache model in front of a Disk. All file IO on a node flows
// through it; its capacity is whatever physical memory is left after task
// heaps, the sponge pool, and any pinned memory (the "memory pressure"
// scenario in Table 1 pins 12 GB, shrinking this cache to almost nothing).
//
// The design mirrors the Linux behaviours the evaluation depends on:
//  * write-back: writes land in cache as dirty blocks and cost only a
//    memory copy until the dirty share exceeds a threshold, at which point
//    the writer flushes synchronously (throttling);
//  * deleted files discard their dirty blocks without any disk IO, which is
//    why small short-lived spill files are nearly free when memory is big;
//  * segmented LRU (inactive/active lists): blocks enter the inactive list
//    on first touch and are promoted on a second touch, so a huge one-pass
//    streaming scan (the 1 TB background grep) cannot evict a spill file
//    that is written and then read back.
struct BufferCacheConfig {
  uint64_t capacity = 0;              // bytes of cacheable memory
  uint64_t block_size = kMiB;         // cache granularity
  double memory_bandwidth = 3.0 * 1024 * 1024 * 1024;  // hit-path copy speed
  double dirty_threshold = 0.4;       // of capacity, before write throttling
  double active_fraction = 0.5;       // share reserved for the active list
  // With no cache to speak of, the OS loses readahead and write
  // coalescing: IO reaches the disk in these small fragments instead of
  // whole requests (this is what turns Table 1's 174 ms contended spill
  // into 499 ms under memory pressure).
  uint64_t uncached_read_unit = 256 * 1024;
  uint64_t uncached_write_unit = 128 * 1024;
};

class BufferCache {
 public:
  BufferCache(sim::Engine* engine, Disk* disk, const BufferCacheConfig& config)
      : engine_(engine), disk_(disk), config_(config) {}

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  // Writes `bytes` at `offset` of `file` through the cache. With space, the
  // cost is a memory copy; under dirty pressure or with a tiny cache the
  // writer pays for disk writes inline.
  sim::Task<> Write(uint64_t file, uint64_t offset, uint64_t bytes);

  // Reads `bytes` at `offset` of `file`; cached blocks cost a memory copy,
  // misses go to the disk (one request per contiguous miss range).
  sim::Task<> Read(uint64_t file, uint64_t offset, uint64_t bytes);

  // Drops every cached block of `file`, discarding dirty ones (the file was
  // deleted; Linux never writes back pages of unlinked files).
  void Drop(uint64_t file);

  // Flushes all dirty blocks of `file` to disk (fsync).
  sim::Task<> Flush(uint64_t file);

  void set_capacity(uint64_t capacity) { config_.capacity = capacity; }
  uint64_t capacity() const { return config_.capacity; }

  // --- statistics ---
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t bytes_absorbed() const { return bytes_absorbed_; }
  uint64_t dirty_bytes() const { return dirty_bytes_; }
  uint64_t cached_bytes() const { return cached_bytes_; }

 private:
  struct BlockKey {
    uint64_t file;
    uint64_t index;
    bool operator==(const BlockKey& other) const {
      return file == other.file && index == other.index;
    }
  };
  struct BlockKeyHash {
    size_t operator()(const BlockKey& k) const {
      return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ull ^ k.index);
    }
  };
  struct Block {
    BlockKey key;
    bool dirty = false;
    bool active = false;  // which LRU list it is on
    std::list<BlockKey>::iterator lru_it;
  };

  // Returns the block if cached, nullptr otherwise.
  Block* Find(const BlockKey& key);

  // Inserts or touches a block; handles promotion and eviction. Any dirty
  // blocks that must be evicted are flushed via the returned awaitable
  // chain, so callers co_await the returned task. `key` is by value: a
  // coroutine must not hold references into its caller's frame.
  sim::Task<> Touch(BlockKey key, bool mark_dirty);

  // Evicts from the given list until the cache fits; flushes dirty victims.
  sim::Task<> EvictIfNeeded();

  sim::Task<> FlushDirtyIfThrottled();

  uint64_t NumBlocks(uint64_t bytes) const {
    return (bytes + config_.block_size - 1) / config_.block_size;
  }

  sim::Engine* engine_;
  Disk* disk_;
  BufferCacheConfig config_;

  std::unordered_map<BlockKey, Block, BlockKeyHash> blocks_;
  // LRU lists: front = most recently used.
  std::list<BlockKey> inactive_;
  std::list<BlockKey> active_;
  // Blocks in dirty-marking order; stale entries are skipped lazily.
  std::deque<BlockKey> dirty_fifo_;
  uint64_t cached_bytes_ = 0;
  uint64_t active_bytes_ = 0;
  uint64_t dirty_bytes_ = 0;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t bytes_absorbed_ = 0;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_BUFFER_CACHE_H_
