#ifndef SPONGEFILES_SIM_ENGINE_H_
#define SPONGEFILES_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace spongefiles::sim {

// Names one cancellable timer (Engine::ScheduleTimer). Ids are never
// reused within an engine's lifetime, and 0 names no timer.
using TimerId = uint64_t;

// A deterministic discrete-event engine. Simulated activities are
// coroutines (Task<T>); they advance simulated time by awaiting Delay and
// the synchronization primitives in sim/sync.h.
//
// Determinism: events scheduled for the same instant fire in schedule
// order (FIFO by a monotonically increasing sequence number).
//
// Fast path (see DESIGN.md "Performance engineering"): timed events live in
// a pooled 4-ary min-heap ordered by (time, seq); events scheduled for the
// *current* instant — zero-delay yields, symmetric hand-offs — skip the
// heap entirely and go through a FIFO ring, making the dominant event class
// O(1). The two structures together preserve exact seq order: every heap
// event at time T was scheduled before now() reached T, so it precedes
// every ring event (all enqueued at now() == T). Both structures recycle
// their slabs — steady-state scheduling allocates nothing.
//
// Cancellable timers share the heap with plain events. A timer's seq
// carries its slot in the low kTimerSlotBits (0 for a plain event) under
// the schedule counter, so (at, seq) order is the same as without the tag
// and Event stays 24 bytes; the counter keeps 40 bits, 2^40 timed
// schedules per engine. CancelTimer leaves the event in the heap as a
// tombstone; popping it advances now() as any event would, but resumes
// nothing and is not counted.
class Engine {
 private:
  struct Event {
    SimTime at;
    uint64_t seq;  // schedule counter << kTimerSlotBits | timer slot + 1
    std::coroutine_handle<> handle;
  };
  static_assert(sizeof(Event) == 24, "timers must not grow Event");

  static constexpr int kTimerSlotBits = 24;
  static constexpr uint64_t kTimerSlotMask =
      (uint64_t{1} << kTimerSlotBits) - 1;

  // Spawn wrappers still in flight. Slots are recycled through a free list
  // (O(1) register/release, no hashing); each slot keeps the monotonically
  // increasing spawn id so DrainDetached can destroy frames in spawn order
  // even after slot reuse has shuffled the vector.
  struct DetachedSlot {
    uint64_t id = 0;
    std::coroutine_handle<> handle;  // null when the slot is free
  };

 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() { DrainDetached(); }

  SimTime now() const { return now_; }

  // ---- spawning ----------------------------------------------------------

  // Detaches `task` and schedules it to start at the current time. The
  // coroutine frame self-destructs when the task completes.
  void Spawn(Task<> task) { SpawnAt(now_, std::move(task)); }

  // Detaches `task` and schedules it to start at absolute time `at`
  // (must be >= now()).
  void SpawnAt(SimTime at, Task<> task);

  // ---- running ------------------------------------------------------------

  // Runs until the event queue drains. Returns the number of events
  // processed. Activities blocked on sync primitives with no pending
  // wake-ups simply never resume (e.g. a server loop awaiting a closed-over
  // channel); callers shut such loops down via their own stop mechanisms.
  uint64_t Run();

  // Runs until the event queue drains or simulated time would exceed
  // `deadline`; events after the deadline remain queued. On return now()
  // reads at least `deadline`.
  uint64_t RunUntil(SimTime deadline);

  // ---- scheduling primitives ---------------------------------------------

  // Schedules `h` to resume at absolute simulated time `at` (>= now()).
  // This is the primitive all awaitables build on.
  void ScheduleHandle(SimTime at, std::coroutine_handle<> h);

  // Schedules `h` to be woken at absolute time `at` (> now()) unless
  // CancelTimer gets there first. A firing timer queues `h` on the
  // same-instant ring, behind every wake-up already queued at that instant
  // — the place a coroutine woken at `at` would queue it through
  // Event::Set — so a wake-up queued later in the same instant still
  // follows it.
  TimerId ScheduleTimer(SimTime at, std::coroutine_handle<> h);

  // Disarms `id`. Returns true if it was pending; false if it already
  // fired, was already cancelled, or is 0.
  bool CancelTimer(TimerId id);

  // Teardown pass: destroys every still-live detached coroutine (service
  // loops parked on their next period, RPCs abandoned on a hung server,
  // ...) after discarding the pending events and timers, so no frame
  // leaks when the simulation ends mid-flight. Destroying a spawn wrapper
  // cascades down its await chain, reclaiming the whole suspended stack.
  // Frames are destroyed in spawn order. Returns the number of top-level
  // frames destroyed.
  size_t DrainDetached();

  // Detached frames currently live (diagnostics and tests).
  size_t detached_live() const { return detached_live_; }

  // Timer slots allocated, armed or tombstoned or free (diagnostics and
  // tests: the free list keeps this at the peak of pending timers).
  size_t timer_slots() const { return timer_seq_.size(); }

  // Awaitable: suspends the caller for `d` simulated microseconds
  // (d >= 0; a zero delay still yields through the event queue).
  auto Delay(Duration d) {
    struct Awaiter {
      Engine* engine;
      Duration d;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->ScheduleHandle(engine->now() + d, h);
      }
      void await_resume() const {}
    };
    return Awaiter{this, d < 0 ? 0 : d};
  }

  // Number of events processed so far (diagnostics).
  uint64_t events_processed() const { return events_processed_; }

 private:
  void HeapPush(Event ev);
  // Requires a non-empty heap; returns the (time, seq)-least event.
  Event HeapPop();
  // Pops the heap's least event and returns what to resume: its handle;
  // for a fired timer, a no-op (the handle goes to the ring); for a
  // tombstone, null. Frees the timer slot either way.
  std::coroutine_handle<> PopTimed();
  void RingPush(std::coroutine_handle<> h);
  std::coroutine_handle<> RingPop();
  bool RingEmpty() const { return ring_head_ == ring_tail_; }

  // The run loop: executes events with at <= `deadline` (heap-at-now
  // first, then ring, then advance). Exact schedule order; see
  // ScheduleHandle.
  uint64_t RunEvents(SimTime deadline);

  void ReleaseDetached(uint32_t slot);

  friend Task<> RunDetachedWrapper(Engine* engine, uint32_t slot,
                                   Task<> task);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_detached_id_ = 0;
  uint64_t events_processed_ = 0;

  std::vector<Event> heap_;  // 4-ary min-heap by (at, seq)

  // Power-of-two circular buffer of handles resuming at now_.
  std::vector<std::coroutine_handle<>> ring_;
  size_t ring_head_ = 0;
  size_t ring_tail_ = 0;

  // timer_seq_[slot] is the seq of the armed timer holding the slot, or 0
  // once it is cancelled. A slot is free again only when its event pops.
  std::vector<uint64_t> timer_seq_;
  std::vector<uint32_t> timer_free_;

  std::vector<DetachedSlot> detached_slots_;
  std::vector<uint32_t> detached_free_;
  size_t detached_live_ = 0;
};

}  // namespace spongefiles::sim

#endif  // SPONGEFILES_SIM_ENGINE_H_
