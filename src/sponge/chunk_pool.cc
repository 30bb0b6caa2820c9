#include "sponge/chunk_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace spongefiles::sponge {

namespace {

struct PoolMetrics {
  obs::Counter* allocs;
  obs::Counter* alloc_failures;
  obs::Counter* frees;
  obs::Gauge* used_chunks;
  // Internal fragmentation: the unused tail (chunk_size - bytes) of every
  // allocation whose declared size was below chunk_size.
  obs::Counter* frag_bytes;
  // Simulated lock wait+hold charged to allocating callers.
  obs::Counter* lock_wait_us;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics metrics = {
      obs::Registry::Default().counter("sponge.pool.allocs"),
      obs::Registry::Default().counter("sponge.pool.alloc_failures"),
      obs::Registry::Default().counter("sponge.pool.frees"),
      obs::Registry::Default().gauge("sponge.pool.used_chunks"),
      obs::Registry::Default().counter("sponge.pool.frag_bytes"),
      obs::Registry::Default().counter("sponge.pool.lock_wait_us"),
  };
  return metrics;
}

}  // namespace

ChunkPool::ChunkPool(const ChunkPoolConfig& config, sim::Engine* engine)
    : config_(config), engine_(engine) {
  uint64_t chunks_total = config.pool_size / config.chunk_size;
  uint64_t chunks_per_segment =
      std::max<uint64_t>(1, config.max_segment_size / config.chunk_size);
  while (chunks_total > 0) {
    uint64_t n = std::min(chunks_total, chunks_per_segment);
    Segment segment;
    segment.slots.resize(n);
    segment.free_list.reserve(n);
    // Reverse order so allocation proceeds from low indices first.
    for (uint64_t i = n; i-- > 0;) {
      segment.free_list.push_back(static_cast<uint32_t>(i));
    }
    segments_.push_back(std::move(segment));
    chunks_total -= n;
    total_chunks_ += n;
  }
  free_chunks_ = total_chunks_;
}

Duration ChunkPool::AcquireLock() {
  if (engine_ == nullptr || config_.lock_hold <= 0) return 0;
  SimTime now = engine_->now();
  Duration wait = lock_free_at_ > now ? lock_free_at_ - now : 0;
  lock_free_at_ = now + wait + config_.lock_hold;
  return wait + config_.lock_hold;
}

Result<ChunkHandle> ChunkPool::Allocate(const ChunkOwner& owner,
                                        uint64_t bytes) {
  if (owner.task_id == 0) return InvalidArgument("owner task_id must be != 0");
  Duration charged = AcquireLock();
  pending_lock_wait_ += charged;
  lock_wait_total_ += charged;
  if (charged > 0) {
    Metrics().lock_wait_us->Increment(static_cast<uint64_t>(charged));
  }
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    Segment& segment = segments_[s];
    if (segment.free_list.empty()) continue;
    uint32_t index = segment.free_list.back();
    segment.free_list.pop_back();
    segment.slots[index].owner = owner;
    segment.allocated.insert(index);
    --free_chunks_;
    if (bytes != 0 && bytes < config_.chunk_size) {
      Metrics().frag_bytes->Increment(config_.chunk_size - bytes);
    }
    Metrics().allocs->Increment();
    Metrics().used_chunks->Add(1);
    return ChunkHandle{s, index};
  }
  Metrics().alloc_failures->Increment();
  return ResourceExhausted("sponge pool full");
}

const ChunkPool::Slot* ChunkPool::FindSlot(ChunkHandle handle) const {
  if (handle.segment >= segments_.size()) return nullptr;
  const Segment& segment = segments_[handle.segment];
  if (handle.index >= segment.slots.size()) return nullptr;
  return &segment.slots[handle.index];
}

Status ChunkPool::Free(ChunkHandle handle, const ChunkOwner& owner) {
  const Slot* slot = FindSlot(handle);
  if (slot == nullptr) return InvalidArgument("bad chunk handle");
  if (slot->owner.task_id == 0) {
    return FailedPrecondition("double free of sponge chunk");
  }
  if (!(slot->owner == owner)) {
    return FailedPrecondition("chunk owned by another task");
  }
  return ForceFree(handle);
}

Status ChunkPool::ForceFree(ChunkHandle handle) {
  Slot* slot = FindSlot(handle);
  if (slot == nullptr) return InvalidArgument("bad chunk handle");
  if (slot->owner.task_id == 0) {
    return FailedPrecondition("double free of sponge chunk");
  }
  // Frees advance the lock horizon (occupying the critical section that
  // the next allocation convoys behind) but charge no one directly.
  AcquireLock();
  slot->owner = ChunkOwner{};
  slot->data.Clear();
  Segment& segment = segments_[handle.segment];
  segment.free_list.push_back(handle.index);
  segment.allocated.erase(handle.index);
  ++free_chunks_;
  Metrics().frees->Increment();
  Metrics().used_chunks->Sub(1);
  return Status::OK();
}

ByteRuns* ChunkPool::chunk_data(ChunkHandle handle) {
  Slot* slot = FindSlot(handle);
  if (slot == nullptr || slot->owner.task_id == 0) return nullptr;
  return &slot->data;
}

Result<ChunkOwner> ChunkPool::OwnerOf(ChunkHandle handle) const {
  const Slot* slot = FindSlot(handle);
  if (slot == nullptr) return InvalidArgument("bad chunk handle");
  if (slot->owner.task_id == 0) return NotFound("chunk is free");
  return slot->owner;
}

std::vector<std::pair<ChunkHandle, ChunkOwner>> ChunkPool::AllocatedChunks()
    const {
  std::vector<std::pair<ChunkHandle, ChunkOwner>> out;
  out.reserve(allocated_count());
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = segments_[s];
    for (uint32_t i : segment.allocated) {
      out.push_back({ChunkHandle{s, i}, segment.slots[i].owner});
    }
  }
  return out;
}

Duration ChunkPool::TakeLockWait() {
  Duration wait = pending_lock_wait_;
  pending_lock_wait_ = 0;
  return wait;
}

void ChunkPool::Reset() {
  Metrics().used_chunks->Sub(static_cast<int64_t>(allocated_count()));
  for (Segment& segment : segments_) {
    segment.free_list.clear();
    segment.allocated.clear();
    for (uint64_t i = segment.slots.size(); i-- > 0;) {
      segment.slots[i].owner = ChunkOwner{};
      segment.slots[i].data.Clear();
      segment.free_list.push_back(static_cast<uint32_t>(i));
    }
  }
  free_chunks_ = total_chunks_;
  lock_free_at_ = 0;
  pending_lock_wait_ = 0;
}

}  // namespace spongefiles::sponge
