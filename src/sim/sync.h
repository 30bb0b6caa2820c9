#ifndef SPONGEFILES_SIM_SYNC_H_
#define SPONGEFILES_SIM_SYNC_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "sim/engine.h"

namespace spongefiles::sim {

// Synchronization primitives for simulated tasks. All wake-ups go through
// the engine's event queue at the current simulated time, so resumption
// order is deterministic (FIFO) and never re-enters the caller's stack.

class WaitList;

// One suspended coroutine queued on a WaitList. Every awaiter below is a
// WaitNode living in the awaiting coroutine's frame for exactly as long as
// the wait, so queueing allocates nothing. A node destroyed while still
// queued (its frame torn down by Engine::DrainDetached) unlinks itself, so
// a later wake-up skips it.
class WaitNode {
 public:
  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;
  ~WaitNode();

  std::coroutine_handle<> handle;

 private:
  friend class WaitList;
  WaitList* list_ = nullptr;  // null unless queued
  WaitNode* prev_ = nullptr;
  WaitNode* next_ = nullptr;
};

// An intrusive FIFO of WaitNodes. A list destroyed before its nodes (the
// primitive's owner torn down first) detaches them, so either teardown
// order is safe.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList();

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

  // Queues `node` at the back, to resume `h` when popped.
  void Push(WaitNode* node, std::coroutine_handle<> h);
  // Unlinks and returns the longest-queued node. Requires !empty().
  WaitNode* Pop();
  void Remove(WaitNode* node);

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  size_t size_ = 0;
};

// A level-triggered one-shot event. Waiters block until Set() is called;
// once set, Wait() completes immediately.
class Event {
 public:
  explicit Event(Engine* engine) : engine_(engine) {}

  void Set();
  bool is_set() const { return set_; }

  auto Wait() {
    struct Awaiter : WaitNode {
      explicit Awaiter(Event* e) : event(e) {}
      Event* event;
      bool await_ready() const { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.Push(this, h);
      }
      void await_resume() const {}
    };
    return Awaiter(this);
  }

 private:
  Engine* engine_;
  bool set_ = false;
  WaitList waiters_;
};

// A counting semaphore with FIFO handoff: Release wakes the longest-waiting
// acquirer, which is guaranteed to obtain the permit (no barging).
class Semaphore {
 public:
  Semaphore(Engine* engine, int64_t permits)
      : engine_(engine), permits_(permits) {}

  void Release(int64_t n = 1);

  // Non-blocking acquire: takes a permit only if one is free and no task
  // is queued ahead (no barging past the FIFO).
  bool TryAcquire() {
    if (permits_ > 0 && waiters_.empty()) {
      --permits_;
      return true;
    }
    return false;
  }

  int64_t available() const { return permits_; }
  size_t waiters() const { return waiters_.size(); }

  auto Acquire() {
    struct Awaiter : WaitNode {
      explicit Awaiter(Semaphore* s) : sem(s) {}
      Semaphore* sem;
      bool await_ready() {
        if (sem->permits_ > 0 && sem->waiters_.empty()) {
          --sem->permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.Push(this, h);
      }
      void await_resume() const {}
    };
    return Awaiter(this);
  }

 private:
  Engine* engine_;
  int64_t permits_;
  WaitList waiters_;
};

// A FIFO mutex for simulated tasks.
class Mutex {
 public:
  explicit Mutex(Engine* engine) : sem_(engine, 1) {}

  auto Lock() { return sem_.Acquire(); }
  void Unlock() { sem_.Release(); }

 private:
  Semaphore sem_;
};

// Completion counter: Add(n) registers work, Done() retires one unit, and
// Wait() blocks until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine* engine) : event_(engine) {}

  void Add(int64_t n = 1) { count_ += n; }
  void Done();

  auto Wait() { return event_.Wait(); }

  int64_t count() const { return count_; }

 private:
  Event event_;
  int64_t count_ = 0;
};

// An unbounded FIFO queue of T with awaitable Pop. Close() wakes all
// blocked consumers; Pop on a closed, drained channel yields nullopt.
// Items are handed directly to the longest-waiting consumer, so a consumer
// that arrives later can never steal an item from one already woken.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine* engine) : engine_(engine) {}

  void Push(T item) {
    if (!waiters_.empty()) {
      auto* waiter = static_cast<PopAwaiter*>(waiters_.Pop());
      waiter->item = std::move(item);
      engine_->ScheduleHandle(engine_->now(), waiter->handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  void Close() {
    closed_ = true;
    while (!waiters_.empty()) {
      engine_->ScheduleHandle(engine_->now(), waiters_.Pop()->handle);
    }
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }

  // Awaitable returning std::optional<T>; nullopt means closed-and-empty.
  auto Pop() { return PopAwaiter(this); }

 private:
  struct PopAwaiter : WaitNode {
    explicit PopAwaiter(Channel* c) : ch(c) {}
    Channel* ch;
    std::optional<T> item;

    bool await_ready() const {
      return (ch->waiters_.empty() && !ch->items_.empty()) || ch->closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch->waiters_.Push(this, h);
    }
    std::optional<T> await_resume() {
      if (item.has_value()) return std::move(item);
      // Ready path, or woken by Close: a closed channel drains queued
      // items first.
      if (!ch->items_.empty()) {
        T front = std::move(ch->items_.front());
        ch->items_.pop_front();
        return front;
      }
      return std::nullopt;
    }
  };

  Engine* engine_;
  bool closed_ = false;
  std::deque<T> items_;
  WaitList waiters_;
};

}  // namespace spongefiles::sim

#endif  // SPONGEFILES_SIM_SYNC_H_
