#ifndef SPONGEFILES_CLUSTER_NODE_H_
#define SPONGEFILES_CLUSTER_NODE_H_

#include <cstdint>
#include <memory>

#include "cluster/buffer_cache.h"
#include "cluster/disk.h"
#include "cluster/local_fs.h"
#include "cluster/ssd.h"
#include "common/units.h"
#include "sim/engine.h"

namespace spongefiles::cluster {

// Static memory layout of a worker node. Mirrors the paper's testbed: each
// node runs T task slots with fixed JVM heaps, reserves a shared sponge
// pool outside the heaps, and whatever physical memory remains backs the
// OS buffer cache. The "memory pressure" micro-benchmark pins memory,
// shrinking the cache.
struct NodeConfig {
  uint64_t physical_memory = 16ull * 1024 * 1024 * 1024;
  int map_slots = 2;
  int reduce_slots = 1;
  uint64_t heap_per_slot = 1024ull * 1024 * 1024;
  uint64_t sponge_memory = 1024ull * 1024 * 1024;
  uint64_t pinned_memory = 0;              // simulated external pressure
  uint64_t os_reserved = 512ull * 1024 * 1024;
  uint64_t disk_capacity = 300ull * 1024 * 1024 * 1024;
  DiskConfig disk;
  // Local SSD for the spill cascade's middle rung; capacity 0 (the
  // default) means the node has no SSD and the cascade skips the rung.
  SsdConfig ssd;
  BufferCacheConfig cache;  // capacity is derived, other knobs honored
};

// One worker machine: a disk behind a buffer cache, a local filesystem,
// and bookkeeping for the memory split. The sponge pool object itself
// lives in src/sponge (it needs the allocator logic); the node only
// carves out its capacity.
class Node {
 public:
  Node(sim::Engine* engine, size_t id, size_t rack, const NodeConfig& config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  size_t id() const { return id_; }
  size_t rack() const { return rack_; }
  const NodeConfig& config() const { return config_; }

  Disk& disk() { return *disk_; }
  bool has_ssd() const { return ssd_->present(); }
  Ssd& ssd() { return *ssd_; }
  BufferCache& cache() { return *cache_; }
  LocalFs& fs() { return *fs_; }

  // Physical memory left for the buffer cache after heaps, sponge, pinned
  // memory and the OS reservation.
  uint64_t cache_capacity() const;

  int total_slots() const { return config_.map_slots + config_.reduce_slots; }

 private:
  size_t id_;
  size_t rack_;
  NodeConfig config_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Ssd> ssd_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<LocalFs> fs_;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_NODE_H_
