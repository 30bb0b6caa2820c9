#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.h"

namespace spongefiles::sim {
namespace {

Task<> Sleeper(Engine* engine, Duration d, std::vector<int>* log, int id) {
  co_await engine->Delay(d);
  log->push_back(id);
}

TEST(EngineTest, TimeStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
}

TEST(EngineTest, DelayAdvancesTime) {
  Engine engine;
  std::vector<int> log;
  engine.Spawn(Sleeper(&engine, Millis(5), &log, 1));
  engine.Run();
  EXPECT_EQ(engine.now(), Millis(5));
  EXPECT_EQ(log, std::vector<int>({1}));
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> log;
  engine.Spawn(Sleeper(&engine, Millis(30), &log, 3));
  engine.Spawn(Sleeper(&engine, Millis(10), &log, 1));
  engine.Spawn(Sleeper(&engine, Millis(20), &log, 2));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

TEST(EngineTest, SameTimeFifoBySpawnOrder) {
  Engine engine;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn(Sleeper(&engine, Millis(7), &log, i));
  }
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({0, 1, 2, 3, 4}));
}

TEST(EngineTest, ZeroDelayYields) {
  Engine engine;
  std::vector<int> log;
  engine.Spawn(Sleeper(&engine, 0, &log, 1));
  engine.Run();
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(log, std::vector<int>({1}));
}

Task<> SequentialDelays(Engine* engine, std::vector<SimTime>* times) {
  co_await engine->Delay(Millis(1));
  times->push_back(engine->now());
  co_await engine->Delay(Millis(2));
  times->push_back(engine->now());
  co_await engine->Delay(Millis(3));
  times->push_back(engine->now());
}

TEST(EngineTest, DelaysAccumulate) {
  Engine engine;
  std::vector<SimTime> times;
  engine.Spawn(SequentialDelays(&engine, &times));
  engine.Run();
  EXPECT_EQ(times,
            std::vector<SimTime>({Millis(1), Millis(3), Millis(6)}));
}

Task<int> Compute(Engine* engine, int x) {
  co_await engine->Delay(Millis(1));
  co_return x * 2;
}

Task<> AwaitChild(Engine* engine, int* out) {
  *out = co_await Compute(engine, 21);
}

TEST(EngineTest, ChildTaskReturnsValue) {
  Engine engine;
  int out = 0;
  engine.Spawn(AwaitChild(&engine, &out));
  engine.Run();
  EXPECT_EQ(out, 42);
}

Task<int> Fib(Engine* engine, int n) {
  if (n <= 1) co_return n;
  int a = co_await Fib(engine, n - 1);
  int b = co_await Fib(engine, n - 2);
  co_return a + b;
}

Task<> AwaitFib(Engine* engine, int* out) { *out = co_await Fib(engine, 12); }

TEST(EngineTest, DeepNestedAwaits) {
  Engine engine;
  int out = 0;
  engine.Spawn(AwaitFib(&engine, &out));
  engine.Run();
  EXPECT_EQ(out, 144);
}

TEST(EngineTest, SpawnAtStartsLater) {
  Engine engine;
  std::vector<int> log;
  engine.SpawnAt(Millis(100), Sleeper(&engine, Millis(1), &log, 9));
  engine.Run();
  EXPECT_EQ(engine.now(), Millis(101));
  EXPECT_EQ(log, std::vector<int>({9}));
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<int> log;
  engine.Spawn(Sleeper(&engine, Millis(10), &log, 1));
  engine.Spawn(Sleeper(&engine, Millis(50), &log, 2));
  engine.RunUntil(Millis(20));
  EXPECT_EQ(log, std::vector<int>({1}));
  EXPECT_EQ(engine.now(), Millis(20));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 2}));
}

Task<> SpawnFromInside(Engine* engine, std::vector<int>* log) {
  log->push_back(1);
  engine->Spawn(Sleeper(engine, Millis(1), log, 2));
  co_await engine->Delay(Millis(5));
  log->push_back(3);
}

TEST(EngineTest, TasksCanSpawnTasks) {
  Engine engine;
  std::vector<int> log;
  engine.Spawn(SpawnFromInside(&engine, &log));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

struct DrainProbe {
  bool* destroyed;
  ~DrainProbe() { *destroyed = true; }
};

Task<> ParkForever(Engine* engine, bool* destroyed) {
  DrainProbe probe{destroyed};
  // Parks a century out; only DrainDetached can reclaim the frame (and
  // must run this local's destructor when it does).
  co_await engine->Delay(Minutes(100.0 * 365 * 24 * 60));
}

TEST(EngineTest, DrainDetachedReclaimsParkedCoroutines) {
  Engine engine;
  bool destroyed = false;
  std::vector<int> log;
  engine.Spawn(ParkForever(&engine, &destroyed));
  engine.Spawn(Sleeper(&engine, Millis(1), &log, 1));
  engine.RunUntil(Millis(10));
  // The sleeper finished and removed itself; the parked frame is live.
  EXPECT_EQ(log, std::vector<int>({1}));
  EXPECT_EQ(engine.detached_live(), 1u);
  EXPECT_FALSE(destroyed);
  EXPECT_EQ(engine.DrainDetached(), 1u);
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(engine.detached_live(), 0u);
  // Idempotent: nothing left to reclaim.
  EXPECT_EQ(engine.DrainDetached(), 0u);
}

TEST(EngineTest, ManyTasksComplete) {
  Engine engine;
  std::vector<int> log;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    engine.Spawn(Sleeper(&engine, Millis(i % 97), &log, i));
  }
  engine.Run();
  EXPECT_EQ(log.size(), static_cast<size_t>(n));
}

// ---- event-engine fast path (same-instant ring + 4-ary heap) --------------

Task<> YieldThenLog(Engine* engine, std::vector<int>* log, int id,
                    int yields) {
  for (int i = 0; i < yields; ++i) co_await engine->Delay(0);
  log->push_back(id);
}

TEST(EngineTest, SameInstantFifoAcrossRingAndHeap) {
  // Mixes the two ways an event lands at the same instant: scheduled ahead
  // of time (heap, when now < at) and scheduled at now (ring). All heap
  // events at T were scheduled before time reached T, so they must fire
  // before every zero-delay yield enqueued at T — and within each class,
  // in schedule order.
  Engine engine;
  std::vector<int> log;
  // Heap residents for t=5ms, scheduled at t=0 in order 0,1,2.
  for (int i = 0; i < 3; ++i) {
    engine.Spawn(Sleeper(&engine, Millis(5), &log, i));
  }
  // This one also sleeps to t=5ms (scheduled third) and then re-yields at
  // t=5ms twice through the ring before logging.
  auto late = [](Engine* eng, std::vector<int>* out) -> Task<> {
    co_await eng->Delay(Millis(5));
    co_await eng->Delay(0);
    co_await eng->Delay(0);
    out->push_back(99);
  };
  engine.Spawn(late(&engine, &log));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({0, 1, 2, 99}));
  EXPECT_EQ(engine.now(), Millis(5));
}

TEST(EngineTest, InterleavedZeroDelayYieldsStayFifo) {
  // Several coroutines ping-ponging through zero-delay yields at the same
  // instant must interleave round-robin (each yield re-enqueues behind the
  // others), not batch per-coroutine.
  Engine engine;
  std::vector<int> log;
  auto lane = [](Engine* eng, std::vector<int>* out, int id) -> Task<> {
    for (int round = 0; round < 3; ++round) {
      out->push_back(id * 10 + round);
      co_await eng->Delay(0);
    }
  };
  engine.Spawn(lane(&engine, &log, 1));
  engine.Spawn(lane(&engine, &log, 2));
  engine.Run();
  EXPECT_EQ(log,
            std::vector<int>({10, 20, 11, 21, 12, 22}));
}

TEST(EngineTest, RingGrowsPastInitialCapacityWithoutReordering) {
  // More same-instant events than the ring's initial slab (1024) forces the
  // grow-and-linearize path mid-drain; FIFO order must survive it.
  Engine engine;
  std::vector<int> log;
  const int n = 5000;
  log.reserve(n);
  for (int i = 0; i < n; ++i) {
    engine.Spawn(YieldThenLog(&engine, &log, i, /*yields=*/2));
  }
  engine.Run();
  ASSERT_EQ(log.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(log[i], i);
  EXPECT_EQ(engine.now(), 0);
}

TEST(EngineTest, ZeroDelayEventStormSmoke) {
  // ~1M zero-delay events through the same-instant path, with a timed
  // event sprinkled per lane so the heap stays engaged. Guards against
  // regressions where the ring/heap interplay drops, duplicates, or
  // reorders work at scale.
  Engine engine;
  uint64_t before = engine.events_processed();
  std::vector<int> log;
  const int lanes = 8;
  const int yields = 125000;
  auto lane = [](Engine* eng, int id, int n, uint64_t* acc) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await eng->Delay((i % 16) == id ? 1 : 0);
      ++*acc;
    }
  };
  uint64_t acc = 0;
  for (int id = 0; id < lanes; ++id) {
    engine.Spawn(lane(&engine, id, yields, &acc));
  }
  engine.Run();
  EXPECT_EQ(acc, static_cast<uint64_t>(lanes) * yields);
  // Every yield is one event, plus each lane's spawn wrapper start.
  EXPECT_GE(engine.events_processed() - before,
            static_cast<uint64_t>(lanes) * yields);
  EXPECT_GT(engine.now(), 0);
  EXPECT_EQ(engine.detached_live(), 0u);
}

// ---- detached-frame registry (slot map) -----------------------------------

struct OrderProbe {
  std::vector<int>* order;
  int id;
  ~OrderProbe() { order->push_back(id); }
};

Task<> ParkWithProbe(Engine* engine, std::vector<int>* order, int id) {
  OrderProbe probe{order, id};
  co_await engine->Delay(Minutes(100.0 * 365 * 24 * 60));
}

TEST(EngineTest, DrainDetachedDestroysInSpawnOrderAfterSlotReuse) {
  // Finish a batch of early tasks so their registry slots get recycled,
  // then park frames in the recycled slots. DrainDetached must destroy
  // survivors in spawn order (monotone id), not slot order.
  Engine engine;
  std::vector<int> finished_log;
  std::vector<int> destroy_order;
  engine.Spawn(ParkWithProbe(&engine, &destroy_order, 0));
  for (int i = 0; i < 4; ++i) {
    engine.Spawn(Sleeper(&engine, Millis(1), &finished_log, i));
  }
  engine.RunUntil(Millis(2));  // sleepers done, their slots are free
  ASSERT_EQ(finished_log.size(), 4u);
  // These spawn into recycled slots (lower slot indices than probe 0's
  // neighbors), out of slot order but in spawn order 1, 2, 3.
  for (int i = 1; i <= 3; ++i) {
    engine.Spawn(ParkWithProbe(&engine, &destroy_order, i));
  }
  engine.RunUntil(Millis(3));  // let the parked frames start and suspend
  EXPECT_EQ(engine.detached_live(), 4u);
  EXPECT_EQ(engine.DrainDetached(), 4u);
  EXPECT_EQ(destroy_order, std::vector<int>({0, 1, 2, 3}));
}

TEST(EngineTest, DetachedSlotsRecycleWithoutGrowth) {
  // Sequential spawn/complete cycles must reuse one slot, not grow the
  // registry: detached_live returns to zero after each wave.
  Engine engine;
  std::vector<int> log;
  for (int wave = 0; wave < 100; ++wave) {
    engine.Spawn(Sleeper(&engine, Millis(1), &log, wave));
    engine.Run();
    EXPECT_EQ(engine.detached_live(), 0u);
  }
  EXPECT_EQ(log.size(), 100u);
}

// ---- cancellable timers ----------------------------------------------------

// Parks on a timer at `at`; logs `tag` when the timer wakes it. The probe
// records the frame's destruction.
Task<> ParkOnTimer(Engine* engine, SimTime at, TimerId* id,
                   std::vector<int>* log, int tag, bool* destroyed) {
  struct Arm {
    Engine* engine;
    SimTime at;
    TimerId* id;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      *id = engine->ScheduleTimer(at, h);
    }
    void await_resume() const {}
  };
  DrainProbe probe{destroyed};
  co_await Arm{engine, at, id};
  log->push_back(tag);
}

TEST(EngineTest, CancelledTimerIsNeitherResumedNorCounted) {
  Engine engine;
  std::vector<int> log;
  bool destroyed[2] = {false, false};
  TimerId cancelled = 0;
  TimerId fired = 0;
  engine.Spawn(ParkOnTimer(&engine, Millis(10), &cancelled, &log, 1,
                           &destroyed[0]));
  engine.Spawn(ParkOnTimer(&engine, Millis(5), &fired, &log, 2,
                           &destroyed[1]));
  EXPECT_EQ(engine.RunUntil(Millis(1)), 2u);  // the two starts
  EXPECT_TRUE(engine.CancelTimer(cancelled));
  EXPECT_FALSE(engine.CancelTimer(cancelled));
  // The armed timer fires (one event) and queues its waiter, which runs
  // from the ring (one event). The tombstone at 10 ms adds no event, but
  // the clock still reaches it, as it would have reached a live timer.
  EXPECT_EQ(engine.Run(), 2u);
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_EQ(engine.now(), Millis(10));
  EXPECT_EQ(log, std::vector<int>({2}));
  EXPECT_FALSE(engine.CancelTimer(fired));  // too late: it fired
  EXPECT_FALSE(engine.CancelTimer(0));
  EXPECT_TRUE(destroyed[1]);
  EXPECT_FALSE(destroyed[0]);  // never woken: parked until teardown
  EXPECT_EQ(engine.detached_live(), 1u);
}

TEST(EngineTest, FiredTimerQueuesBehindTheInstantsEarlierWakeups) {
  // A sleeper and a timer due at the same instant: the sleeper was
  // scheduled first, so its heap event pops first, and the zero-delay
  // yield it makes there is queued on the ring ahead of the timer's
  // waiter. Resuming the waiter straight from the heap would run it first.
  Engine engine;
  std::vector<int> log;
  bool destroyed = false;
  TimerId id = 0;
  auto sleep_then_yield = [](Engine* eng, std::vector<int>* out) -> Task<> {
    co_await eng->Delay(Millis(5));
    co_await eng->Delay(0);
    out->push_back(3);
  };
  engine.Spawn(sleep_then_yield(&engine, &log));
  engine.Spawn(ParkOnTimer(&engine, Millis(5), &id, &log, 4, &destroyed));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({3, 4}));
}

TEST(EngineTest, TimerSlotsAreReusedAfterFireAndCancel) {
  Engine engine;
  std::vector<int> log;
  bool destroyed = false;
  TimerId previous = 0;
  for (int wave = 0; wave < 50; ++wave) {
    TimerId id = 0;
    engine.Spawn(ParkOnTimer(&engine, engine.now() + Millis(1), &id, &log,
                             wave, &destroyed));
    engine.RunUntil(engine.now());
    ASSERT_NE(id, 0u);
    // A stale id whose slot now holds this timer must not cancel it.
    EXPECT_FALSE(engine.CancelTimer(previous));
    if (wave % 2 == 1) {
      EXPECT_TRUE(engine.CancelTimer(id));
    }
    engine.Run();
    EXPECT_EQ(engine.timer_slots(), 1u);
    previous = id;
  }
  // Odd waves were cancelled; their waiters stay parked until teardown.
  EXPECT_EQ(log.size(), 25u);
  EXPECT_EQ(engine.detached_live(), 25u);
}

TEST(EngineTest, DrainDetachedWithLiveTimersReclaimsFrames) {
  // Frames parked on armed timers and on tombstoned ones: the teardown
  // pass must destroy every frame and drop every slot, and the engine
  // must keep working afterwards.
  Engine engine;
  std::vector<int> log;
  bool destroyed[4] = {false, false, false, false};
  TimerId ids[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    engine.Spawn(ParkOnTimer(&engine, Seconds(i + 1), &ids[i], &log, i,
                             &destroyed[i]));
  }
  engine.RunUntil(Millis(1));
  EXPECT_TRUE(engine.CancelTimer(ids[1]));
  EXPECT_TRUE(engine.CancelTimer(ids[3]));
  EXPECT_EQ(engine.timer_slots(), 4u);
  EXPECT_EQ(engine.DrainDetached(), 4u);
  for (bool d : destroyed) EXPECT_TRUE(d);
  EXPECT_EQ(engine.timer_slots(), 0u);
  EXPECT_TRUE(log.empty());
  // Ids from before the drain name nothing.
  for (TimerId id : ids) EXPECT_FALSE(engine.CancelTimer(id));
  bool later = false;
  TimerId fresh = 0;
  engine.Spawn(ParkOnTimer(&engine, engine.now() + Millis(1), &fresh, &log,
                           7, &later));
  engine.Run();
  EXPECT_EQ(log, std::vector<int>({7}));
  EXPECT_TRUE(later);
}

}  // namespace
}  // namespace spongefiles::sim
