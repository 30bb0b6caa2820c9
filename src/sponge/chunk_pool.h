#ifndef SPONGEFILES_SPONGE_CHUNK_POOL_H_
#define SPONGEFILES_SPONGE_CHUNK_POOL_H_

#include <cstdint>
#include <functional>
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

// A handle to one chunk slot: a pool segment and a slot within it.
struct ChunkHandle {
  uint32_t segment = 0;
  uint32_t index = 0;

  bool operator==(const ChunkHandle& other) const {
    return segment == other.segment && index == other.index;
  }
};

struct ChunkPoolConfig {
  uint64_t pool_size = 1024ull * 1024 * 1024;  // 1 GB sponge per node
  uint64_t chunk_size = 1024ull * 1024;        // 1 MB chunks
  // Mirror of the JVM's 2 GB memory-mapped-file limit that forces the pool
  // to be built from multiple mapped segments.
  uint64_t max_segment_size = 2048ull * 1024 * 1024;
  // Simulated occupancy of one pool critical section (free-list pop/push
  // plus metadata update). Every operation holds the pool's global lock
  // for this long in simulated time; allocations additionally *wait* for
  // the lock when a concurrent operation holds it. 0 disables the model.
  Duration lock_hold = Micros(2);
};

// The shared sponge-memory pool of one node (paper section 3.1.1): mapped
// segments carved into fixed chunk_size slots, per-slot owner metadata,
// and one global lock. Tasks on the node use the pool directly through
// mapped memory; remote tasks go through the node's SpongeServer.
//
// The pool charges no simulated time itself — it is called from both
// coroutine and plain contexts — but it models lock contention: every
// operation advances the lock-busy horizon, and the wait+hold an
// allocation incurred is accumulated for the caller to collect via
// TakeLockWait() and pay as a Delay. Built without an engine (unit tests)
// the lock model is off.
class ChunkPool {
 public:
  explicit ChunkPool(const ChunkPoolConfig& config,
                     sim::Engine* engine = nullptr);

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // Finds a free slot, records `owner` in its metadata entry, and returns
  // its handle; RESOURCE_EXHAUSTED when the pool is full. `bytes` is the
  // declared size of the data the caller will store (0 = undeclared); a
  // declared size below chunk_size counts its unused tail as waste in
  // `sponge.pool.frag_bytes`.
  Result<ChunkHandle> Allocate(const ChunkOwner& owner, uint64_t bytes = 0);

  // Marks the chunk free and drops its contents. Freeing a free chunk or a
  // chunk owned by someone else is an error.
  Status Free(ChunkHandle handle, const ChunkOwner& owner);

  // Frees regardless of owner (garbage collector path).
  Status ForceFree(ChunkHandle handle);

  // Content accessors; the handle must be allocated.
  ByteRuns* chunk_data(ChunkHandle handle);
  Result<ChunkOwner> OwnerOf(ChunkHandle handle) const;

  // Every allocated chunk with its owner. Walks the per-segment allocated
  // indexes, so the scan is O(live chunks), not O(total slots) — the GC
  // sweep and the repair scanner both ride on this.
  std::vector<std::pair<ChunkHandle, ChunkOwner>> AllocatedChunks() const;

  // Drops all contents and marks everything free (node crash).
  void Reset();

  // Simulated lock wait+hold accumulated by Allocate calls since the last
  // collection; the caller (the allocating task or the serving RPC) pays
  // it as a Delay. Frees advance the lock horizon but charge nobody.
  Duration TakeLockWait();

  uint64_t chunk_size() const { return config_.chunk_size; }
  uint64_t total_chunks() const { return total_chunks_; }
  uint64_t free_chunks() const { return free_chunks_; }
  uint64_t free_bytes() const { return free_chunks_ * config_.chunk_size; }
  size_t segments() const { return segments_.size(); }
  uint64_t allocated_count() const { return total_chunks_ - free_chunks_; }
  Duration lock_wait_total() const { return lock_wait_total_; }

 private:
  struct Slot {
    ChunkOwner owner;  // task_id == 0 => free
    ByteRuns data;
  };
  struct Segment {
    std::vector<Slot> slots;
    std::vector<uint32_t> free_list;  // indices into slots
    // Allocated-slot index: ordered so scans stay deterministic.
    std::set<uint32_t> allocated;
  };

  // Advances the lock-busy horizon past one critical section and returns
  // the wait+hold incurred (0 without an engine).
  Duration AcquireLock();
  const Slot* FindSlot(ChunkHandle handle) const;
  Slot* FindSlot(ChunkHandle handle) {
    return const_cast<Slot*>(
        static_cast<const ChunkPool*>(this)->FindSlot(handle));
  }

  ChunkPoolConfig config_;
  sim::Engine* engine_;
  std::vector<Segment> segments_;
  uint64_t total_chunks_ = 0;
  uint64_t free_chunks_ = 0;
  SimTime lock_free_at_ = 0;
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
    uint64_t packed =
        (static_cast<uint64_t>(handle.segment) << 32) ^ handle.index;
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
