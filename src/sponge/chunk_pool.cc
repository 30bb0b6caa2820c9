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
  // Reclaimed internal fragmentation: bytes a small-class allocation did
  // NOT burn compared to the flat pool's full bulk chunk.
  obs::Counter* frag_bytes;
  // Live internal fragmentation (slot bytes minus requested bytes).
  obs::Gauge* frag_current_bytes;
  // Simulated lock wait+hold charged to allocating callers.
  obs::Counter* lock_wait_us;
  obs::Counter* slabs_carved;
  obs::Counter* slabs_released;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics metrics = {
      obs::Registry::Default().counter("sponge.pool.allocs"),
      obs::Registry::Default().counter("sponge.pool.alloc_failures"),
      obs::Registry::Default().counter("sponge.pool.frees"),
      obs::Registry::Default().gauge("sponge.pool.used_chunks"),
      obs::Registry::Default().counter("sponge.pool.frag_bytes"),
      obs::Registry::Default().gauge("sponge.pool.frag_current_bytes"),
      obs::Registry::Default().counter("sponge.pool.lock_wait_us"),
      obs::Registry::Default().counter("sponge.pool.slabs_carved"),
      obs::Registry::Default().counter("sponge.pool.slabs_released"),
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
    segment.carved.assign(n, 0);
    // Reverse order so allocation proceeds from low indices first.
    for (uint64_t i = n; i-- > 0;) {
      segment.free_list.push_back(static_cast<uint32_t>(i));
    }
    segments_.push_back(std::move(segment));
    chunks_total -= n;
    total_chunks_ += n;
  }
  free_chunks_ = total_chunks_;

  if (!config.flat) {
    std::vector<uint64_t> classes = config.small_classes;
    std::sort(classes.begin(), classes.end());
    for (uint64_t class_bytes : classes) {
      if (class_bytes == 0 || class_bytes >= config.chunk_size) continue;
      if (config.chunk_size % class_bytes != 0) continue;
      if (!small_levels_.empty() &&
          small_levels_.back().class_bytes == class_bytes) {
        continue;
      }
      SmallLevel level;
      level.class_bytes = class_bytes;
      small_levels_.push_back(std::move(level));
    }
  }
}

Duration ChunkPool::AcquireLock(SimTime* lock_free_at, Duration hold) {
  if (engine_ == nullptr || config_.lock_hold <= 0) return 0;
  SimTime now = engine_->now();
  Duration wait = *lock_free_at > now ? *lock_free_at - now : 0;
  *lock_free_at = now + wait + hold;
  return wait + hold;
}

uint64_t ChunkPool::class_bytes_for(uint64_t bytes) const {
  if (bytes != 0) {
    for (const SmallLevel& level : small_levels_) {
      if (bytes <= level.class_bytes) return level.class_bytes;
    }
  }
  return config_.chunk_size;
}

uint64_t ChunkPool::level_class_bytes(size_t level) const {
  if (level == 0 || level > small_levels_.size()) return config_.chunk_size;
  return small_levels_[level - 1].class_bytes;
}

void ChunkPool::NoteAllocated(const ChunkOwner& owner, uint64_t class_bytes,
                              uint64_t req_bytes) {
  ++allocated_count_;
  ++held_by_task_[owner.task_id];
  uint64_t frag = req_bytes != 0 && req_bytes < class_bytes
                      ? class_bytes - req_bytes
                      : 0;
  frag_bytes_ += frag;
  if (frag != 0) Metrics().frag_current_bytes->Add(static_cast<int64_t>(frag));
  if (class_bytes < config_.chunk_size) {
    Metrics().frag_bytes->Increment(config_.chunk_size - class_bytes);
  }
  Metrics().allocs->Increment();
  Metrics().used_chunks->Add(1);
}

void ChunkPool::NoteFreed(const ChunkOwner& owner, uint64_t class_bytes,
                          uint64_t req_bytes) {
  --allocated_count_;
  auto held = held_by_task_.find(owner.task_id);
  if (held != held_by_task_.end() && --held->second == 0) {
    held_by_task_.erase(held);
  }
  uint64_t frag = req_bytes != 0 && req_bytes < class_bytes
                      ? class_bytes - req_bytes
                      : 0;
  frag_bytes_ -= frag;
  if (frag != 0) Metrics().frag_current_bytes->Sub(static_cast<int64_t>(frag));
  Metrics().frees->Increment();
  Metrics().used_chunks->Sub(1);
}

Result<ChunkHandle> ChunkPool::Allocate(const ChunkOwner& owner,
                                        uint64_t bytes) {
  if (owner.task_id == 0) return InvalidArgument("owner task_id must be != 0");
  if (bytes != 0) {
    // Smallest class that fits, falling upward through larger classes when
    // a level is dry and no bulk chunk is free to carve a new slab from.
    for (uint32_t level = 1; level <= small_levels_.size(); ++level) {
      if (bytes > small_levels_[level - 1].class_bytes) continue;
      Result<ChunkHandle> handle = AllocateSmall(level, owner, bytes);
      if (handle.ok()) return handle;
    }
  }
  return AllocateBulk(owner, bytes);
}

Result<ChunkHandle> ChunkPool::AllocateBulk(const ChunkOwner& owner,
                                            uint64_t bytes) {
  // Flat mode's single lock also covers the linear segment scan.
  Duration charged = AcquireLock(
      &bulk_lock_free_at_,
      config_.flat ? config_.lock_hold * 2 : config_.lock_hold);
  pending_lock_wait_ += charged;
  lock_wait_total_ += charged;
  if (charged > 0) Metrics().lock_wait_us->Increment(static_cast<uint64_t>(charged));
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    Segment& segment = segments_[s];
    if (segment.free_list.empty()) continue;
    uint32_t index = segment.free_list.back();
    segment.free_list.pop_back();
    Slot& slot = segment.slots[index];
    slot.owner = owner;
    slot.req_bytes = bytes;
    segment.allocated.insert(index);
    --free_chunks_;
    NoteAllocated(owner, config_.chunk_size, bytes);
    return ChunkHandle{s, index, 0};
  }
  Metrics().alloc_failures->Increment();
  return ResourceExhausted("sponge pool full");
}

bool ChunkPool::CarveSlab(SmallLevel* level) {
  // Take one free bulk chunk (under the bulk lock) and split it into
  // chunk_size / class_bytes slots.
  Duration charged = AcquireLock(&bulk_lock_free_at_, config_.lock_hold);
  pending_lock_wait_ += charged;
  lock_wait_total_ += charged;
  if (charged > 0) Metrics().lock_wait_us->Increment(static_cast<uint64_t>(charged));
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    Segment& segment = segments_[s];
    if (segment.free_list.empty()) continue;
    uint32_t index = segment.free_list.back();
    segment.free_list.pop_back();
    segment.carved[index] = 1;
    --free_chunks_;

    uint32_t slab_index;
    if (!level->retired.empty()) {
      slab_index = level->retired.back();
      level->retired.pop_back();
    } else {
      slab_index = static_cast<uint32_t>(level->slabs.size());
      level->slabs.emplace_back();
    }
    Slab& slab = level->slabs[slab_index];
    uint64_t n = config_.chunk_size / level->class_bytes;
    slab.backing_segment = s;
    slab.backing_index = index;
    slab.active = true;
    slab.slots.assign(n, Slot{});
    slab.free_list.clear();
    slab.free_list.reserve(n);
    for (uint64_t i = n; i-- > 0;) {
      slab.free_list.push_back(static_cast<uint32_t>(i));
    }
    slab.allocated.clear();
    level->open.insert(slab_index);
    level->free_slots += n;
    ++slabs_carved_;
    Metrics().slabs_carved->Increment();
    return true;
  }
  return false;
}

void ChunkPool::ReleaseSlab(SmallLevel* level, uint32_t slab_index) {
  Slab& slab = level->slabs[slab_index];
  level->open.erase(slab_index);
  level->free_slots -= slab.slots.size();
  Segment& segment = segments_[slab.backing_segment];
  segment.carved[slab.backing_index] = 0;
  segment.free_list.push_back(slab.backing_index);
  ++free_chunks_;
  slab.active = false;
  slab.slots.clear();
  slab.free_list.clear();
  slab.allocated.clear();
  level->retired.push_back(slab_index);
  ++slabs_released_;
  Metrics().slabs_released->Increment();
}

Result<ChunkHandle> ChunkPool::AllocateSmall(uint32_t level_index,
                                             const ChunkOwner& owner,
                                             uint64_t bytes) {
  SmallLevel& level = small_levels_[level_index - 1];
  Duration charged = AcquireLock(&level.lock_free_at, config_.lock_hold);
  pending_lock_wait_ += charged;
  lock_wait_total_ += charged;
  if (charged > 0) Metrics().lock_wait_us->Increment(static_cast<uint64_t>(charged));
  if (level.open.empty() && !CarveSlab(&level)) {
    return ResourceExhausted("size class dry and no bulk chunk to carve");
  }
  uint32_t slab_index = *level.open.begin();
  Slab& slab = level.slabs[slab_index];
  uint32_t index = slab.free_list.back();
  slab.free_list.pop_back();
  Slot& slot = slab.slots[index];
  slot.owner = owner;
  slot.req_bytes = bytes;
  slab.allocated.insert(index);
  if (slab.free_list.empty()) level.open.erase(slab_index);
  --level.free_slots;
  NoteAllocated(owner, level.class_bytes, bytes);
  return ChunkHandle{slab_index, index, level_index};
}

const ChunkPool::Slot* ChunkPool::FindSlot(ChunkHandle handle) const {
  if (handle.level == 0) {
    if (handle.segment >= segments_.size()) return nullptr;
    const Segment& segment = segments_[handle.segment];
    if (handle.index >= segment.slots.size()) return nullptr;
    if (segment.carved[handle.index]) return nullptr;
    return &segment.slots[handle.index];
  }
  if (handle.level > small_levels_.size()) return nullptr;
  const SmallLevel& level = small_levels_[handle.level - 1];
  if (handle.segment >= level.slabs.size()) return nullptr;
  const Slab& slab = level.slabs[handle.segment];
  if (!slab.active || handle.index >= slab.slots.size()) return nullptr;
  return &slab.slots[handle.index];
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
  if (handle.level == 0) return ForceFreeBulk(handle);
  return ForceFreeSmall(handle);
}

Status ChunkPool::ForceFreeBulk(ChunkHandle handle) {
  Slot* slot = FindSlot(handle);
  if (slot == nullptr) return InvalidArgument("bad chunk handle");
  if (slot->owner.task_id == 0) {
    return FailedPrecondition("double free of sponge chunk");
  }
  // Frees advance the lock horizon (occupying the critical section that
  // the next allocation convoys behind) but charge no one directly.
  AcquireLock(&bulk_lock_free_at_, config_.lock_hold);
  ChunkOwner owner = slot->owner;
  uint64_t req = slot->req_bytes;
  slot->owner = ChunkOwner{};
  slot->req_bytes = 0;
  slot->data.Clear();
  Segment& segment = segments_[handle.segment];
  segment.free_list.push_back(handle.index);
  segment.allocated.erase(handle.index);
  ++free_chunks_;
  NoteFreed(owner, config_.chunk_size, req);
  return Status::OK();
}

Status ChunkPool::ForceFreeSmall(ChunkHandle handle) {
  Slot* slot = FindSlot(handle);
  if (slot == nullptr) return InvalidArgument("bad chunk handle");
  if (slot->owner.task_id == 0) {
    return FailedPrecondition("double free of sponge chunk");
  }
  SmallLevel& level = small_levels_[handle.level - 1];
  AcquireLock(&level.lock_free_at, config_.lock_hold);
  Slab& slab = level.slabs[handle.segment];
  ChunkOwner owner = slot->owner;
  uint64_t req = slot->req_bytes;
  slot->owner = ChunkOwner{};
  slot->req_bytes = 0;
  slot->data.Clear();
  slab.free_list.push_back(handle.index);
  slab.allocated.erase(handle.index);
  level.open.insert(handle.segment);
  ++level.free_slots;
  NoteFreed(owner, level.class_bytes, req);
  // A fully-free slab dissolves back into a bulk chunk, so small classes
  // borrow bulk capacity only while they actually hold data.
  if (slab.allocated.empty()) ReleaseSlab(&level, handle.segment);
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

uint64_t ChunkPool::slot_bytes(ChunkHandle handle) const {
  if (handle.level == 0 || handle.level > small_levels_.size()) {
    return config_.chunk_size;
  }
  return small_levels_[handle.level - 1].class_bytes;
}

uint64_t ChunkPool::free_bytes() const {
  uint64_t bytes = free_chunks_ * config_.chunk_size;
  for (const SmallLevel& level : small_levels_) {
    bytes += level.free_slots * level.class_bytes;
  }
  return bytes;
}

uint64_t ChunkPool::HeldByTask(uint64_t task_id) const {
  auto held = held_by_task_.find(task_id);
  return held == held_by_task_.end() ? 0 : held->second;
}

std::vector<std::pair<ChunkHandle, ChunkOwner>> ChunkPool::AllocatedChunks()
    const {
  std::vector<std::pair<ChunkHandle, ChunkOwner>> out;
  out.reserve(allocated_count_);
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = segments_[s];
    for (uint32_t i : segment.allocated) {
      out.push_back({ChunkHandle{s, i, 0}, segment.slots[i].owner});
    }
  }
  for (uint32_t level = 1; level <= small_levels_.size(); ++level) {
    const SmallLevel& small = small_levels_[level - 1];
    for (uint32_t slab_index = 0; slab_index < small.slabs.size();
         ++slab_index) {
      const Slab& slab = small.slabs[slab_index];
      if (!slab.active) continue;
      for (uint32_t i : slab.allocated) {
        out.push_back({ChunkHandle{slab_index, i, level}, slab.slots[i].owner});
      }
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
  Metrics().used_chunks->Sub(static_cast<int64_t>(allocated_count_));
  if (frag_bytes_ != 0) {
    Metrics().frag_current_bytes->Sub(static_cast<int64_t>(frag_bytes_));
  }
  for (Segment& segment : segments_) {
    segment.free_list.clear();
    segment.allocated.clear();
    for (uint64_t i = segment.slots.size(); i-- > 0;) {
      segment.slots[i].owner = ChunkOwner{};
      segment.slots[i].req_bytes = 0;
      segment.slots[i].data.Clear();
      segment.carved[i] = 0;
      segment.free_list.push_back(static_cast<uint32_t>(i));
    }
  }
  for (SmallLevel& level : small_levels_) {
    level.slabs.clear();
    level.retired.clear();
    level.open.clear();
    level.free_slots = 0;
    level.lock_free_at = 0;
  }
  free_chunks_ = total_chunks_;
  allocated_count_ = 0;
  frag_bytes_ = 0;
  held_by_task_.clear();
  bulk_lock_free_at_ = 0;
  pending_lock_wait_ = 0;
}

}  // namespace spongefiles::sponge
