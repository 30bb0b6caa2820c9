#include "cluster/buffer_cache.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace spongefiles::cluster {

namespace {

struct CacheCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* absorbed_bytes;
};

const CacheCounters& Counters() {
  static const CacheCounters counters = {
      obs::Registry::Default().counter("cluster.cache.hits"),
      obs::Registry::Default().counter("cluster.cache.misses"),
      obs::Registry::Default().counter("cluster.cache.absorbed_bytes"),
  };
  return counters;
}

}  // namespace

BufferCache::Block* BufferCache::Find(const BlockKey& key) {
  auto it = blocks_.find(key);
  return it == blocks_.end() ? nullptr : &it->second;
}

sim::Task<> BufferCache::Write(uint64_t file, uint64_t offset,
                               uint64_t bytes) {
  if (bytes == 0) co_return;
  if (config_.capacity < config_.block_size) {
    // Effectively no cache: write through to disk synchronously, in small
    // fragments (no coalescing without page-cache batching). Fragments of
    // one stream stay contiguous, so the cost shows up only when other
    // streams interleave — exactly the memory-pressure effect.
    for (uint64_t off = 0; off < bytes;
         off += config_.uncached_write_unit) {
      uint64_t n = std::min<uint64_t>(config_.uncached_write_unit,
                                      bytes - off);
      co_await disk_->Write(file, offset + off, n);
    }
    co_return;
  }
  // Memory-copy cost for landing the data in cache.
  co_await engine_->Delay(TransferTime(bytes, config_.memory_bandwidth));
  uint64_t first = offset / config_.block_size;
  uint64_t last = (offset + bytes - 1) / config_.block_size;
  for (uint64_t b = first; b <= last; ++b) {
    co_await Touch(BlockKey{file, b}, /*mark_dirty=*/true);
  }
  bytes_absorbed_ += bytes;
  Counters().absorbed_bytes->Increment(bytes);
  co_await FlushDirtyIfThrottled();
}

sim::Task<> BufferCache::Read(uint64_t file, uint64_t offset,
                              uint64_t bytes) {
  if (bytes == 0) co_return;
  if (config_.capacity < config_.block_size) {
    // No cache: no readahead; reads reach the disk in small fragments.
    for (uint64_t off = 0; off < bytes; off += config_.uncached_read_unit) {
      uint64_t n = std::min<uint64_t>(config_.uncached_read_unit,
                                      bytes - off);
      co_await disk_->Read(file, offset + off, n);
    }
    co_return;
  }
  uint64_t first = offset / config_.block_size;
  uint64_t last = (offset + bytes - 1) / config_.block_size;
  // Group contiguous misses into single disk requests so an uncached
  // sequential scan still enjoys sequential bandwidth.
  uint64_t miss_start = 0;
  uint64_t miss_blocks = 0;
  uint64_t hit_blocks = 0;
  auto flush_miss_range = [&]() -> sim::Task<> {
    if (miss_blocks == 0) co_return;
    co_await disk_->Read(file, miss_start * config_.block_size,
                         miss_blocks * config_.block_size);
    misses_ += miss_blocks;
    Counters().misses->Increment(miss_blocks);
    miss_blocks = 0;
  };
  for (uint64_t b = first; b <= last; ++b) {
    BlockKey key{file, b};
    if (Find(key) != nullptr) {
      co_await flush_miss_range();
      ++hit_blocks;
      ++hits_;
      Counters().hits->Increment();
      co_await Touch(key, /*mark_dirty=*/false);
    } else {
      if (miss_blocks == 0) miss_start = b;
      ++miss_blocks;
      co_await Touch(key, /*mark_dirty=*/false);
    }
  }
  co_await flush_miss_range();
  if (hit_blocks > 0) {
    // Copy-out cost for the cached portion.
    co_await engine_->Delay(
        TransferTime(hit_blocks * config_.block_size,
                     config_.memory_bandwidth));
  }
}

sim::Task<> BufferCache::Touch(BlockKey key, bool mark_dirty) {
  Block* block = Find(key);
  if (block != nullptr) {
    if (block->active) {
      active_.erase(block->lru_it);
      active_.push_front(key);
      block->lru_it = active_.begin();
    } else {
      // Second touch: promote to the active list.
      inactive_.erase(block->lru_it);
      active_.push_front(key);
      block->lru_it = active_.begin();
      block->active = true;
      active_bytes_ += config_.block_size;
    }
    if (mark_dirty && !block->dirty) {
      block->dirty = true;
      dirty_bytes_ += config_.block_size;
      dirty_fifo_.push_back(key);
    }
    co_return;
  }
  // First touch: insert on the inactive (probationary) list.
  inactive_.push_front(key);
  Block entry;
  entry.key = key;
  entry.dirty = mark_dirty;
  entry.active = false;
  entry.lru_it = inactive_.begin();
  blocks_.emplace(key, entry);
  cached_bytes_ += config_.block_size;
  if (mark_dirty) {
    dirty_bytes_ += config_.block_size;
    dirty_fifo_.push_back(key);
  }
  co_await EvictIfNeeded();
}

sim::Task<> BufferCache::EvictIfNeeded() {
  while (cached_bytes_ > config_.capacity) {
    // Prefer evicting from the inactive list; fall back to shrinking the
    // active list when it exceeds its share (or inactive is empty).
    bool from_active =
        inactive_.empty() ||
        active_bytes_ >
            static_cast<uint64_t>(config_.active_fraction *
                                  static_cast<double>(config_.capacity));
    std::list<BlockKey>& list = from_active ? active_ : inactive_;
    if (list.empty()) co_return;  // cache smaller than one block
    BlockKey victim = list.back();
    auto it = blocks_.find(victim);
    bool dirty = it->second.dirty;
    list.pop_back();
    if (it->second.active) active_bytes_ -= config_.block_size;
    blocks_.erase(it);
    cached_bytes_ -= config_.block_size;
    if (dirty) {
      dirty_bytes_ -= config_.block_size;
      co_await disk_->Write(victim.file, victim.index * config_.block_size,
                            config_.block_size);
    }
  }
}

sim::Task<> BufferCache::FlushDirtyIfThrottled() {
  uint64_t threshold = static_cast<uint64_t>(
      config_.dirty_threshold * static_cast<double>(config_.capacity));
  while (dirty_bytes_ > threshold && !dirty_fifo_.empty()) {
    // Flush the oldest dirty block. Entries whose block was since cleaned,
    // evicted or dropped are skipped lazily.
    BlockKey key = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    Block* block = Find(key);
    if (block == nullptr || !block->dirty) continue;
    block->dirty = false;
    dirty_bytes_ -= config_.block_size;
    co_await disk_->Write(key.file, key.index * config_.block_size,
                          config_.block_size);
  }
}

sim::Task<> BufferCache::Flush(uint64_t file) {
  // Collect this file's dirty blocks, then write them in index order.
  std::vector<uint64_t> dirty;
  // lint: iter-ok(collects dirty block indexes only; sorted before any IO below)
  for (auto& [key, block] : blocks_) {
    if (key.file == file && block.dirty) dirty.push_back(key.index);
  }
  std::sort(dirty.begin(), dirty.end());
  for (uint64_t index : dirty) {
    Block* block = Find(BlockKey{file, index});
    if (block == nullptr || !block->dirty) continue;
    block->dirty = false;
    dirty_bytes_ -= config_.block_size;
    co_await disk_->Write(file, index * config_.block_size,
                          config_.block_size);
  }
}

void BufferCache::Drop(uint64_t file) {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->first.file == file) {
      if (it->second.dirty) dirty_bytes_ -= config_.block_size;
      if (it->second.active) {
        active_.erase(it->second.lru_it);
        active_bytes_ -= config_.block_size;
      } else {
        inactive_.erase(it->second.lru_it);
      }
      cached_bytes_ -= config_.block_size;
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace spongefiles::cluster
