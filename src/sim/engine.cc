#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace spongefiles::sim {

namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

// Heap order: earlier time first; FIFO by schedule sequence within an
// instant.
inline bool Before(SimTime a_at, uint64_t a_seq, SimTime b_at,
                   uint64_t b_seq) {
  if (a_at != b_at) return a_at < b_at;
  return a_seq < b_seq;
}

}  // namespace

// Wraps a detached task so the frame marks itself detached before running.
// (The wrapper frame is what Spawn schedules; it awaits the real task.)
// On completion the wrapper returns its registry slot *before*
// final_suspend destroys the frame, so the registry only ever holds
// destroyable frames.
Task<> RunDetachedWrapper(Engine* engine, uint32_t slot, Task<> task) {
  co_await task;
  engine->ReleaseDetached(slot);
}

void Engine::SpawnAt(SimTime at, Task<> task) {
  SPONGE_CHECK(at >= now_) << "SpawnAt in the past: " << at << " < " << now_;
  // Claim the slot first: the wrapper's frame captures the slot index it
  // will release on completion.
  uint32_t slot;
  if (!detached_free_.empty()) {
    slot = detached_free_.back();
    detached_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(detached_slots_.size());
    detached_slots_.emplace_back();
  }
  Task<> wrapper = RunDetachedWrapper(this, slot, std::move(task));
  auto handle = wrapper.Release();
  handle.promise().detached = true;
  detached_slots_[slot] = DetachedSlot{next_detached_id_++, handle};
  ++detached_live_;
  ScheduleHandle(at, handle);
}

void Engine::ReleaseDetached(uint32_t slot) {
  detached_slots_[slot].handle = nullptr;
  detached_free_.push_back(slot);
  --detached_live_;
}

size_t Engine::DrainDetached() {
  // Discard pending events first: they reference frames about to be
  // destroyed (and destroying a parent already reclaims any suspended
  // child a queued handle might point into).
  heap_.clear();
  ring_head_ = ring_tail_ = 0;
  timer_seq_.clear();
  timer_free_.clear();
  // Snapshot the live frames and reset the registry before destroying, so
  // the loop is immune to destructor side effects (a frame-local
  // destructor must not spawn, but be defensive).
  std::vector<DetachedSlot> live;
  live.reserve(detached_live_);
  for (const DetachedSlot& slot : detached_slots_) {
    if (slot.handle) live.push_back(slot);
  }
  detached_slots_.clear();
  detached_free_.clear();
  detached_live_ = 0;
  std::sort(live.begin(), live.end(),
            [](const DetachedSlot& a, const DetachedSlot& b) {
              return a.id < b.id;
            });
  for (const DetachedSlot& slot : live) slot.handle.destroy();
  return live.size();
}

void Engine::ScheduleHandle(SimTime at, std::coroutine_handle<> h) {
  SPONGE_CHECK(at >= now_) << "schedule in the past: " << at << " < " << now_;
  if (at == now_) {
    // Same-instant fast path: no heap sift, no seq needed — the ring is
    // FIFO, and every already-heaped event at this instant was scheduled
    // earlier (smaller seq), so "drain heap@now first, then ring" is exact
    // schedule order.
    RingPush(h);
  } else {
    HeapPush(Event{at, next_seq_++ << kTimerSlotBits, h});
  }
}

// ---- cancellable timers ---------------------------------------------------

TimerId Engine::ScheduleTimer(SimTime at, std::coroutine_handle<> h) {
  // A timer at now() would have to go through the ring, which cannot
  // cancel; every caller arms a strictly positive timeout.
  SPONGE_CHECK(at > now_) << "timer not in the future: " << at
                          << " <= " << now_;
  uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(timer_seq_.size());
    SPONGE_CHECK(slot < kTimerSlotMask) << "too many pending timers";
    timer_seq_.push_back(0);
  }
  uint64_t seq = (next_seq_++ << kTimerSlotBits) | (slot + 1);
  timer_seq_[slot] = seq;
  HeapPush(Event{at, seq, h});
  return seq;
}

bool Engine::CancelTimer(TimerId id) {
  // Slot 0 - 1 wraps to a huge index, so id 0 fails the bounds check.
  size_t slot = (id & kTimerSlotMask) - 1;
  if (slot >= timer_seq_.size() || timer_seq_[slot] != id) return false;
  timer_seq_[slot] = 0;
  return true;
}

std::coroutine_handle<> Engine::PopTimed() {
  Event ev = HeapPop();
  uint64_t tag = ev.seq & kTimerSlotMask;
  if (tag == 0) return ev.handle;
  auto slot = static_cast<uint32_t>(tag - 1);
  bool armed = timer_seq_[slot] == ev.seq;
  timer_seq_[slot] = 0;
  timer_free_.push_back(slot);
  if (!armed) return nullptr;
  // The fired timer is this event; its handle runs from the ring.
  RingPush(ev.handle);
  return std::noop_coroutine();
}

// ---- timed-event store ----------------------------------------------------

void Engine::HeapPush(Event ev) {
  heap_.push_back(ev);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) >> 2;
    if (!Before(heap_[i].at, heap_[i].seq, heap_[parent].at,
                heap_[parent].seq)) {
      break;
    }
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Engine::Event Engine::HeapPop() {
  Event top = heap_.front();
  Event last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Percolate the hole down, moving `last` as little as possible: a
    // 4-ary heap halves the tree depth of the binary heap and keeps the
    // children of a node on one cache line pair.
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      size_t end = std::min(first + 4, n);
      for (size_t j = first + 1; j < end; ++j) {
        if (Before(heap_[j].at, heap_[j].seq, heap_[best].at,
                   heap_[best].seq)) {
          best = j;
        }
      }
      if (!Before(heap_[best].at, heap_[best].seq, last.at, last.seq)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

// ---- same-instant FIFO ring -----------------------------------------------

void Engine::RingPush(std::coroutine_handle<> h) {
  if (ring_.empty()) ring_.resize(1024);
  size_t cap = ring_.size();
  if (((ring_tail_ + 1) & (cap - 1)) == ring_head_) {
    // Full: double the slab, linearizing the live range to the front.
    std::vector<std::coroutine_handle<>> bigger(cap * 2);
    size_t n = 0;
    for (size_t i = ring_head_; i != ring_tail_; i = (i + 1) & (cap - 1)) {
      bigger[n++] = ring_[i];
    }
    ring_ = std::move(bigger);
    ring_head_ = 0;
    ring_tail_ = n;
    cap = ring_.size();
  }
  ring_[ring_tail_] = h;
  ring_tail_ = (ring_tail_ + 1) & (cap - 1);
}

std::coroutine_handle<> Engine::RingPop() {
  std::coroutine_handle<> h = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  return h;
}

// ---- run loops ------------------------------------------------------------

uint64_t Engine::RunEvents(SimTime deadline) {
  uint64_t processed = 0;
  for (;;) {
    std::coroutine_handle<> h;
    if (now_ <= deadline && !heap_.empty() && heap_.front().at == now_) {
      h = PopTimed();
    } else if (now_ <= deadline && !RingEmpty()) {
      h = RingPop();
    } else if (!heap_.empty() && heap_.front().at <= deadline) {
      now_ = heap_.front().at;
      h = PopTimed();
    } else {
      break;
    }
    if (!h) continue;  // a cancelled timer's tombstone
    ++processed;
    ++events_processed_;
    h.resume();
  }
  return processed;
}

uint64_t Engine::Run() { return RunEvents(kNoEvent); }

uint64_t Engine::RunUntil(SimTime deadline) {
  uint64_t processed = RunEvents(deadline);
  if (now_ < deadline) now_ = deadline;
  return processed;
}

}  // namespace spongefiles::sim
