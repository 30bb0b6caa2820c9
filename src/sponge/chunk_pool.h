#ifndef SPONGEFILES_SPONGE_CHUNK_POOL_H_
#define SPONGEFILES_SPONGE_CHUNK_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/byte_runs.h"
#include "common/status.h"
#include "common/units.h"

namespace spongefiles {
namespace sim {
class Engine;
}  // namespace sim

namespace sponge {

// Identifies the task that owns a chunk: the analogue of the (process id,
// IP address) pair the paper stores per chunk slot, used by the garbage
// collector to detect chunks orphaned by dead tasks.
struct ChunkOwner {
  uint64_t task_id = 0;  // 0 means the slot is free
  size_t node = 0;       // node where the owning task runs
  // Marks a redundant second copy placed by the replication subsystem.
  // Replicas share the owning task's id — GC liveness is keyed by task_id,
  // so a dead attempt's replicas are reclaimed along with its primaries —
  // but carry a distinct identity so diagnostics and ownership checks can
  // tell the copies apart.
  bool replica = false;

  bool operator==(const ChunkOwner& other) const {
    return task_id == other.task_id && node == other.node &&
           replica == other.replica;
  }
};

// A handle to one chunk slot. For bulk chunks (level 0) `segment`/`index`
// name a pool segment and a slot within it, exactly as before the tiered
// rebuild; for small size classes (level >= 1) `segment` names a slab of
// that level and `index` a slot within the slab. Aggregate-initializing
// just {segment, index} therefore still denotes a bulk chunk.
struct ChunkHandle {
  uint32_t segment = 0;
  uint32_t index = 0;
  uint32_t level = 0;  // 0 = bulk class; i >= 1 = i-th small size class

  bool operator==(const ChunkHandle& other) const {
    return segment == other.segment && index == other.index &&
           level == other.level;
  }
};

struct ChunkPoolConfig {
  uint64_t pool_size = 1024ull * 1024 * 1024;  // 1 GB sponge per node
  uint64_t chunk_size = 1024ull * 1024;        // bulk 1 MB chunks
  // Mirror of the JVM's 2 GB memory-mapped-file limit that forces the pool
  // to be built from multiple mapped segments.
  uint64_t max_segment_size = 2048ull * 1024 * 1024;
  // Small size classes (slot bytes, ascending), for the header-ish partial
  // chunks that used to burn a whole bulk chunk. Classes are carved on
  // demand: when a small level runs dry it converts one free bulk chunk
  // into a slab of chunk_size / class_bytes slots, and a slab whose slots
  // all free returns its backing chunk to the bulk level — no capacity is
  // statically reserved. Classes that do not divide chunk_size (or are not
  // smaller than it) are dropped at construction.
  std::vector<uint64_t> small_classes = {64 * 1024, 256 * 1024};
  // Compatibility mode: one level of chunk_size slots behind one global
  // lock, the paper's original pool (bench_selfperf --pool=flat).
  bool flat = false;
  // Simulated occupancy of one pool critical section (free-list pop/push
  // plus metadata update). Every operation holds its level's lock for this
  // long in simulated time; allocations additionally *wait* for the lock
  // when a concurrent operation holds it — the convoy the per-level locks
  // exist to break. In flat mode a single lock serializes every operation
  // on the node and an allocation's critical section also covers the
  // linear segment scan (twice the hold). 0 disables the model.
  Duration lock_hold = Micros(2);
};

// The shared sponge-memory pool of one node, rebuilt (ISSUE 10) as a
// tiered, size-classed allocator after ligra's multi-level chunk_allocator
// and the temporal-slab design: a bulk level of chunk_size slots living in
// mapped segments, plus small size-class levels whose slabs are carved on
// demand from free bulk chunks. Each level has its own free list and its
// own (simulated) lock; tasks on the node use the pool directly through
// mapped memory, remote tasks go through the node's SpongeServer.
//
// The pool charges no simulated time itself — it is called from both
// coroutine and plain contexts — but it models lock contention: every
// operation advances its level's lock-busy horizon, and the wait+hold an
// allocation incurred is accumulated for the caller to collect via
// TakeLockWait() and pay as a Delay. Built without an engine (unit tests)
// the lock model is off.
class ChunkPool {
 public:
  explicit ChunkPool(const ChunkPoolConfig& config,
                     sim::Engine* engine = nullptr);

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // Finds a free slot in the smallest size class that fits `bytes` (0 or
  // anything above the largest small class means a bulk chunk), records
  // `owner` in its metadata entry, and returns its handle;
  // RESOURCE_EXHAUSTED when nothing fits. A small-class request falls
  // upward through larger classes (and finally bulk) when its own level is
  // dry and no bulk chunk is free to carve.
  Result<ChunkHandle> Allocate(const ChunkOwner& owner, uint64_t bytes = 0);

  // Marks the chunk free and drops its contents. Freeing a free chunk or a
  // chunk owned by someone else is an error.
  Status Free(ChunkHandle handle, const ChunkOwner& owner);

  // Frees regardless of owner (garbage collector path).
  Status ForceFree(ChunkHandle handle);

  // Content accessors; the handle must be allocated.
  ByteRuns* chunk_data(ChunkHandle handle);
  Result<ChunkOwner> OwnerOf(ChunkHandle handle) const;

  // Every allocated chunk with its owner. Walks the per-level allocated
  // indexes, so the scan is O(live chunks), not O(total slots) — the GC
  // sweep, quota enforcement, and the repair scanner all ride on this.
  std::vector<std::pair<ChunkHandle, ChunkOwner>> AllocatedChunks() const;

  // Drops all contents and marks everything free (node crash). Small-class
  // slabs dissolve back into bulk chunks.
  void Reset();

  // Simulated lock wait+hold accumulated by Allocate calls since the last
  // collection; the caller (the allocating task or the serving RPC) pays
  // it as a Delay. Frees advance the lock horizon but charge nobody.
  Duration TakeLockWait();

  // Slot capacity of the class `handle` lives in (bulk: chunk_size).
  uint64_t slot_bytes(ChunkHandle handle) const;
  // Slot bytes an allocation of `bytes` would occupy (placement gates).
  uint64_t class_bytes_for(uint64_t bytes) const;

  // Chunks currently held per task, all levels, O(log tasks) — quota
  // checks used to scan the whole pool for this.
  uint64_t HeldByTask(uint64_t task_id) const;

  uint64_t chunk_size() const { return config_.chunk_size; }
  // Bulk slot count — the pool's capacity in chunk_size units. Constant:
  // carving moves capacity between levels but never changes it.
  uint64_t total_chunks() const { return total_chunks_; }
  // Bulk slots neither allocated nor carved into a slab.
  uint64_t free_chunks() const { return free_chunks_; }
  // Free bytes across every level: free bulk chunks plus free small slots
  // in carved slabs.
  uint64_t free_bytes() const;
  // The bulk-class subset of free_bytes (what a full-size spill chunk can
  // actually use; the tracker reports both).
  uint64_t free_bulk_bytes() const { return free_chunks_ * config_.chunk_size; }
  size_t segments() const { return segments_.size(); }

  // 1 + small-class count (1 in flat mode).
  size_t levels() const { return 1 + small_levels_.size(); }
  uint64_t level_class_bytes(size_t level) const;
  uint64_t allocated_count() const { return allocated_count_; }
  // Live internal fragmentation: slot bytes minus requested bytes, summed
  // over allocated slots whose request size was declared.
  uint64_t frag_bytes() const { return frag_bytes_; }
  uint64_t slabs_carved() const { return slabs_carved_; }
  uint64_t slabs_released() const { return slabs_released_; }
  Duration lock_wait_total() const { return lock_wait_total_; }

 private:
  struct Slot {
    ChunkOwner owner;  // task_id == 0 => free
    ByteRuns data;
    uint64_t req_bytes = 0;  // declared size, for fragmentation accounting
  };
  struct Segment {
    std::vector<Slot> slots;
    // Free-slot free list (indices into slots; excludes carved slots).
    std::vector<uint32_t> free_list;
    std::vector<uint8_t> carved;  // slot backs a small-class slab
    // Allocated-slot index: ordered so scans stay deterministic.
    std::set<uint32_t> allocated;
  };
  // One bulk chunk carved into chunk_size / class_bytes small slots.
  struct Slab {
    uint32_t backing_segment = 0;
    uint32_t backing_index = 0;
    bool active = false;
    std::vector<Slot> slots;
    std::vector<uint32_t> free_list;
    std::set<uint32_t> allocated;
  };
  struct SmallLevel {
    uint64_t class_bytes = 0;
    std::vector<Slab> slabs;
    std::vector<uint32_t> retired;  // inactive slab indices, reused first
    std::set<uint32_t> open;        // active slabs with a free slot
    uint64_t free_slots = 0;
    SimTime lock_free_at = 0;
  };

  // Advances `lock_free_at` past one critical section of `hold` and
  // returns the wait+hold incurred (0 without an engine).
  Duration AcquireLock(SimTime* lock_free_at, Duration hold);
  Result<ChunkHandle> AllocateBulk(const ChunkOwner& owner, uint64_t bytes);
  Result<ChunkHandle> AllocateSmall(uint32_t level, const ChunkOwner& owner,
                                    uint64_t bytes);
  // Converts one free bulk chunk into a slab for `level`; false when the
  // bulk level is exhausted.
  bool CarveSlab(SmallLevel* level);
  void ReleaseSlab(SmallLevel* level, uint32_t slab_index);
  Status ForceFreeBulk(ChunkHandle handle);
  Status ForceFreeSmall(ChunkHandle handle);
  const Slot* FindSlot(ChunkHandle handle) const;
  Slot* FindSlot(ChunkHandle handle) {
    return const_cast<Slot*>(
        static_cast<const ChunkPool*>(this)->FindSlot(handle));
  }
  void NoteAllocated(const ChunkOwner& owner, uint64_t class_bytes,
                     uint64_t req_bytes);
  void NoteFreed(const ChunkOwner& owner, uint64_t class_bytes,
                 uint64_t req_bytes);

  ChunkPoolConfig config_;
  sim::Engine* engine_;
  std::vector<Segment> segments_;
  std::vector<SmallLevel> small_levels_;
  uint64_t total_chunks_ = 0;
  uint64_t free_chunks_ = 0;
  uint64_t allocated_count_ = 0;
  uint64_t frag_bytes_ = 0;
  uint64_t slabs_carved_ = 0;
  uint64_t slabs_released_ = 0;
  // Per-task held-chunk counts (ordered: deterministic iteration).
  std::map<uint64_t, uint64_t> held_by_task_;
  SimTime bulk_lock_free_at_ = 0;
  Duration pending_lock_wait_ = 0;
  Duration lock_wait_total_ = 0;
};

}  // namespace sponge
}  // namespace spongefiles

// Hashes for handle/owner keyed containers (replica bookkeeping, tests,
// leak checks) so call sites stop linear-scanning or re-keying via pairs.
template <>
struct std::hash<spongefiles::sponge::ChunkHandle> {
  size_t operator()(
      const spongefiles::sponge::ChunkHandle& handle) const noexcept {
    uint64_t packed = (static_cast<uint64_t>(handle.level) << 58) ^
                      (static_cast<uint64_t>(handle.segment) << 32) ^
                      handle.index;
    // SplitMix64 finalizer: cheap, well-distributed for dense indices.
    packed ^= packed >> 30;
    packed *= 0xbf58476d1ce4e5b9ull;
    packed ^= packed >> 27;
    packed *= 0x94d049bb133111ebull;
    packed ^= packed >> 31;
    return static_cast<size_t>(packed);
  }
};

template <>
struct std::hash<spongefiles::sponge::ChunkOwner> {
  size_t operator()(
      const spongefiles::sponge::ChunkOwner& owner) const noexcept {
    uint64_t packed = owner.task_id * 0x9e3779b97f4a7c15ull;
    packed ^= static_cast<uint64_t>(owner.node) + (owner.replica ? 1 : 0) +
              (packed << 6) + (packed >> 2);
    return static_cast<size_t>(packed);
  }
};

#endif  // SPONGEFILES_SPONGE_CHUNK_POOL_H_
