#include "sim/sync.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/task.h"

// Counts this executable's heap allocations while `counting` is set, so a
// test can assert that a code path allocates nothing. Every replaceable
// non-aligned form is replaced, so each block is freed by the allocator
// that made it.
namespace {
bool counting = false;
size_t allocations = 0;

void* CountedAlloc(std::size_t n) {
  if (counting) ++allocations;
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair an inlined free() with a
// `new` expression and warn about the mismatch.
[[gnu::noinline]] void Free(void* p) { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace spongefiles::sim {
namespace {

Task<> Waiter(Event* event, std::vector<int>* log, int id) {
  co_await event->Wait();
  log->push_back(id);
}

Task<> Setter(Engine* engine, Event* event, Duration d) {
  co_await engine->Delay(d);
  event->Set();
}

TEST(EventTest, WaitersResumeOnSet) {
  Engine engine;
  Event event(&engine);
  std::vector<int> log;
  engine.Spawn(Waiter(&event, &log, 1));
  engine.Spawn(Waiter(&event, &log, 2));
  engine.Spawn(Setter(&engine, &event, Millis(10)));
  engine.Run();
  EXPECT_EQ(engine.now(), Millis(10));
  EXPECT_EQ(log, std::vector<int>({1, 2}));
  EXPECT_TRUE(event.is_set());
}

TEST(EventTest, WaitAfterSetCompletesImmediately) {
  Engine engine;
  Event event(&engine);
  event.Set();
  std::vector<int> log;
  engine.Spawn(Waiter(&event, &log, 7));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({7}));
  EXPECT_EQ(engine.now(), 0);
}

Task<> HoldSemaphore(Engine* engine, Semaphore* sem, std::vector<int>* log,
                     int id, Duration hold) {
  co_await sem->Acquire();
  log->push_back(id);
  co_await engine->Delay(hold);
  sem->Release();
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 1);
  std::vector<int> log;
  engine.Spawn(HoldSemaphore(&engine, &sem, &log, 1, Millis(10)));
  engine.Spawn(HoldSemaphore(&engine, &sem, &log, 2, Millis(10)));
  engine.Spawn(HoldSemaphore(&engine, &sem, &log, 3, Millis(10)));
  engine.Run();
  // Serialized: total time 30ms, FIFO order.
  EXPECT_EQ(engine.now(), Millis(30));
  EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

TEST(SemaphoreTest, MultiplePermitsAllowParallelism) {
  Engine engine;
  Semaphore sem(&engine, 2);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn(HoldSemaphore(&engine, &sem, &log, i, Millis(10)));
  }
  engine.Run();
  // Two at a time: 20ms total.
  EXPECT_EQ(engine.now(), Millis(20));
  EXPECT_EQ(log.size(), 4u);
}

TEST(SemaphoreTest, FifoHandoffNoBarging) {
  Engine engine;
  Semaphore sem(&engine, 1);
  std::vector<int> log;
  engine.Spawn(HoldSemaphore(&engine, &sem, &log, 1, Millis(10)));
  engine.Spawn(HoldSemaphore(&engine, &sem, &log, 2, Millis(1)));
  // Task 3 arrives later but before task 2 finishes; must run after 2.
  engine.SpawnAt(Millis(5), HoldSemaphore(&engine, &sem, &log, 3, Millis(1)));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

Task<> LockUnlock(Engine* engine, Mutex* mu, int* counter, int* max_inside) {
  co_await mu->Lock();
  ++*counter;
  *max_inside = std::max(*max_inside, *counter);
  // lint: lock-ok(suspends in the critical section to prove exclusion holds)
  co_await engine->Delay(Millis(1));
  --*counter;
  mu->Unlock();
}

TEST(MutexTest, MutualExclusion) {
  Engine engine;
  Mutex mu(&engine);
  int counter = 0;
  int max_inside = 0;
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(LockUnlock(&engine, &mu, &counter, &max_inside));
  }
  engine.Run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(counter, 0);
}

Task<> Producer(Engine* engine, Channel<int>* ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await engine->Delay(Millis(1));
    ch->Push(i);
  }
  ch->Close();
}

Task<> Consumer(Channel<int>* ch, std::vector<int>* got) {
  while (true) {
    std::optional<int> item = co_await ch->Pop();
    if (!item.has_value()) break;
    got->push_back(*item);
  }
}

TEST(ChannelTest, ProducerConsumerDeliversAllInOrder) {
  Engine engine;
  Channel<int> ch(&engine);
  std::vector<int> got;
  engine.Spawn(Consumer(&ch, &got));
  engine.Spawn(Producer(&engine, &ch, 100));
  engine.Run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(ChannelTest, MultipleConsumersShareItems) {
  Engine engine;
  Channel<int> ch(&engine);
  std::vector<int> a;
  std::vector<int> b;
  engine.Spawn(Consumer(&ch, &a));
  engine.Spawn(Consumer(&ch, &b));
  engine.Spawn(Producer(&engine, &ch, 50));
  engine.Run();
  EXPECT_EQ(a.size() + b.size(), 50u);
  // No item lost or duplicated.
  std::vector<int> all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(all[i], i);
}

TEST(ChannelTest, PopDrainsBufferedItemsAfterClose) {
  Engine engine;
  Channel<std::string> ch(&engine);
  ch.Push("a");
  ch.Push("b");
  ch.Close();
  std::vector<std::string> got;
  auto consume = [](Channel<std::string>* c,
                    std::vector<std::string>* out) -> Task<> {
    while (true) {
      auto item = co_await c->Pop();
      if (!item) break;
      out->push_back(*item);
    }
  };
  engine.Spawn(consume(&ch, &got));
  engine.Run();
  EXPECT_EQ(got, std::vector<std::string>({"a", "b"}));
}

Task<> WgWorker(Engine* engine, WaitGroup* wg, Duration d, int* done) {
  co_await engine->Delay(d);
  ++*done;
  wg->Done();
}

Task<> WgWaiter(WaitGroup* wg, int* done, int* observed) {
  co_await wg->Wait();
  *observed = *done;
}

TEST(WaitGroupTest, WaitBlocksUntilAllDone) {
  Engine engine;
  WaitGroup wg(&engine);
  int done = 0;
  int observed = -1;
  wg.Add(3);
  engine.Spawn(WgWaiter(&wg, &done, &observed));
  engine.Spawn(WgWorker(&engine, &wg, Millis(5), &done));
  engine.Spawn(WgWorker(&engine, &wg, Millis(10), &done));
  engine.Spawn(WgWorker(&engine, &wg, Millis(15), &done));
  engine.Run();
  EXPECT_EQ(observed, 3);
  EXPECT_EQ(engine.now(), Millis(15));
}

constexpr int kManyWaiters = 64;

TEST(EventTest, SetWakesManyWaitersInArrivalOrder) {
  Engine engine;
  Event event(&engine);
  std::vector<int> log;
  for (int i = 0; i < kManyWaiters; ++i) {
    engine.SpawnAt(Micros(i), Waiter(&event, &log, i));
  }
  engine.Spawn(Setter(&engine, &event, Millis(1)));
  engine.Run();
  ASSERT_EQ(log.size(), static_cast<size_t>(kManyWaiters));
  for (int i = 0; i < kManyWaiters; ++i) EXPECT_EQ(log[i], i);
}

Task<> AcquireOnce(Semaphore* sem, std::vector<int>* log, int id) {
  co_await sem->Acquire();
  log->push_back(id);
}

TEST(SemaphoreTest, ReleaseHandsPermitsInArrivalOrder) {
  Engine engine;
  Semaphore sem(&engine, 0);
  std::vector<int> log;
  for (int i = 0; i < kManyWaiters; ++i) {
    engine.SpawnAt(Micros(i), AcquireOnce(&sem, &log, i));
  }
  engine.Run();
  EXPECT_EQ(sem.waiters(), static_cast<size_t>(kManyWaiters));
  // Odd-sized batches: each one wakes the longest waiters.
  for (int released = 0; released < kManyWaiters; released += 3) {
    sem.Release(std::min(3, kManyWaiters - released));
    engine.Run();
    ASSERT_EQ(log.size(),
              static_cast<size_t>(std::min(released + 3, kManyWaiters)));
  }
  for (int i = 0; i < kManyWaiters; ++i) EXPECT_EQ(log[i], i);
  EXPECT_EQ(sem.waiters(), 0u);
  EXPECT_EQ(sem.available(), 0);
}

Task<> PopOnce(Channel<int>* ch, std::vector<std::pair<int, int>>* got,
               int id) {
  std::optional<int> item = co_await ch->Pop();
  got->push_back({id, item.value_or(-1)});
}

TEST(ChannelTest, PushHandsItemsToConsumersInArrivalOrder) {
  Engine engine;
  Channel<int> ch(&engine);
  std::vector<std::pair<int, int>> got;
  for (int i = 0; i < kManyWaiters; ++i) {
    engine.SpawnAt(Micros(i), PopOnce(&ch, &got, i));
  }
  engine.Run();
  for (int i = 0; i < kManyWaiters; ++i) ch.Push(100 + i);
  engine.Run();
  ASSERT_EQ(got.size(), static_cast<size_t>(kManyWaiters));
  for (int i = 0; i < kManyWaiters; ++i) {
    EXPECT_EQ(got[i], std::make_pair(i, 100 + i));
  }
  EXPECT_EQ(ch.size(), 0u);
}

// Starts a lazy task by hand and returns its frame, parked at its first
// suspension; destroying the frame is what Engine::DrainDetached does. The
// frame is not detached: the caller destroys it, finished or not.
std::coroutine_handle<> StartParked(Task<> task) {
  std::coroutine_handle<> frame = task.Release();
  frame.resume();
  return frame;
}

TEST(EventTest, DestroyedWaiterIsUnlinkedAndSkipped) {
  Engine engine;
  Event event(&engine);
  std::vector<int> log;
  std::coroutine_handle<> first = StartParked(Waiter(&event, &log, 1));
  std::coroutine_handle<> doomed = StartParked(Waiter(&event, &log, 2));
  std::coroutine_handle<> third = StartParked(Waiter(&event, &log, 3));
  doomed.destroy();
  event.Set();
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 3}));
  first.destroy();
  third.destroy();
}

TEST(SemaphoreTest, DestroyedWaiterIsUnlinkedAndSkipped) {
  Engine engine;
  Semaphore sem(&engine, 0);
  std::vector<int> log;
  std::coroutine_handle<> first = StartParked(AcquireOnce(&sem, &log, 1));
  std::coroutine_handle<> doomed = StartParked(AcquireOnce(&sem, &log, 2));
  std::coroutine_handle<> third = StartParked(AcquireOnce(&sem, &log, 3));
  EXPECT_EQ(sem.waiters(), 3u);
  doomed.destroy();
  EXPECT_EQ(sem.waiters(), 2u);
  sem.Release(2);
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 3}));
  EXPECT_EQ(sem.waiters(), 0u);
  EXPECT_EQ(sem.available(), 0);
  first.destroy();
  third.destroy();
}

// The other teardown order: the primitive goes first, then the frame
// still parked on it.
TEST(EventTest, WaiterOutlivingItsEventDetachesCleanly) {
  Engine engine;
  auto event = std::make_unique<Event>(&engine);
  std::vector<int> log;
  std::coroutine_handle<> parked = StartParked(Waiter(event.get(), &log, 1));
  event.reset();
  parked.destroy();
  EXPECT_TRUE(log.empty());
}

Task<> WaitThenAcquire(Event* event, Semaphore* sem, int* passed) {
  co_await event->Wait();
  co_await sem->Acquire();
  ++*passed;
}

// Runs kManyWaiters tasks that wait on a fresh Event and then a fresh
// Semaphore; returns the allocations counted from constructing the two
// primitives through the last wake-up. The task frames are made before
// counting starts.
size_t CountWaitAllocations(Engine* engine, int* passed) {
  allocations = 0;
  counting = true;
  Event event(engine);
  Semaphore sem(engine, 0);
  counting = false;
  for (int i = 0; i < kManyWaiters; ++i) {
    engine->Spawn(WaitThenAcquire(&event, &sem, passed));
  }
  counting = true;
  engine->Run();
  event.Set();
  engine->Run();
  sem.Release(kManyWaiters);
  engine->Run();
  counting = false;
  return allocations;
}

TEST(WaitAllocationTest, EventAndSemaphoreWaitsAllocateNothing) {
  Engine engine;
  int passed = 0;
  // The first round grows the engine's own queues to this load.
  CountWaitAllocations(&engine, &passed);
  EXPECT_EQ(CountWaitAllocations(&engine, &passed), 0u);
  EXPECT_EQ(passed, 2 * kManyWaiters);
}

}  // namespace
}  // namespace spongefiles::sim
