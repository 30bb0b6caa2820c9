#include "cluster/disk.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace spongefiles::cluster {
namespace {

DiskConfig TestDisk() {
  DiskConfig config;
  config.avg_seek = Millis(8);
  config.avg_rotation = Millis(4);
  config.sequential_bandwidth = static_cast<double>(MiB(100));
  return config;
}

sim::Task<> DoRead(Disk* disk, uint64_t stream, uint64_t offset,
                   uint64_t bytes) {
  co_await disk->Read(stream, offset, bytes);
}

TEST(DiskTest, FirstAccessPaysSeek) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  engine.Spawn(DoRead(&disk, 1, 0, MiB(1)));
  engine.Run();
  // 12 ms seek+rotation plus 10 ms transfer of 1 MB at 100 MB/s.
  EXPECT_NEAR(ToMillis(engine.now()), 22.0, 0.5);
  EXPECT_EQ(disk.seeks(), 1u);
}

TEST(DiskTest, SequentialContinuationSkipsSeek) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  auto run = [](Disk* d) -> sim::Task<> {
    co_await d->Read(1, 0, MiB(1));
    co_await d->Read(1, MiB(1), MiB(1));
    co_await d->Read(1, MiB(2), MiB(1));
  };
  engine.Spawn(run(&disk));
  engine.Run();
  // One seek total, then pure sequential transfer.
  EXPECT_EQ(disk.seeks(), 1u);
  EXPECT_NEAR(ToMillis(engine.now()), 12 + 30, 0.5);
}

TEST(DiskTest, RandomOffsetsAlwaysSeek) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  auto run = [](Disk* d) -> sim::Task<> {
    co_await d->Write(1, 0, MiB(1));
    co_await d->Write(1, MiB(10), MiB(1));
    co_await d->Write(1, MiB(5), MiB(1));
  };
  engine.Spawn(run(&disk));
  engine.Run();
  EXPECT_EQ(disk.seeks(), 3u);
}

TEST(DiskTest, InterleavedStreamsCauseSeeks) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  // Two tasks streaming different files concurrently: every request
  // switches streams, so every request seeks. This is the contention
  // breakdown the paper's Table 1 demonstrates.
  auto stream_file = [](Disk* d, uint64_t stream) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await d->Read(stream, static_cast<uint64_t>(i) * MiB(1), MiB(1));
    }
  };
  engine.Spawn(stream_file(&disk, 1));
  engine.Spawn(stream_file(&disk, 2));
  engine.Run();
  EXPECT_EQ(disk.seeks(), 20u);
  // 20 requests x (12 + 10) ms.
  EXPECT_NEAR(ToMillis(engine.now()), 20 * 22.0, 1.0);
}

TEST(DiskTest, SoloStreamFasterThanContended) {
  Duration solo;
  Duration contended;
  {
    sim::Engine engine;
    Disk disk(&engine, TestDisk());
    auto run = [](Disk* d) -> sim::Task<> {
      for (int i = 0; i < 50; ++i) {
        co_await d->Read(1, static_cast<uint64_t>(i) * MiB(1), MiB(1));
      }
    };
    engine.Spawn(run(&disk));
    engine.Run();
    solo = engine.now();
  }
  {
    sim::Engine engine;
    Disk disk(&engine, TestDisk());
    auto run = [](Disk* d, uint64_t stream) -> sim::Task<> {
      for (int i = 0; i < 50; ++i) {
        co_await d->Read(stream, static_cast<uint64_t>(i) * MiB(1), MiB(1));
      }
    };
    engine.Spawn(run(&disk, 1));
    engine.Spawn(run(&disk, 2));
    engine.Run();
    contended = engine.now();
  }
  // Two interleaved streams take far more than 2x the solo time because of
  // the per-request seeks.
  EXPECT_GT(contended, 3 * solo);
}

TEST(DiskTest, StatsTrackBytes) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  auto run = [](Disk* d) -> sim::Task<> {
    co_await d->Read(1, 0, MiB(2));
    co_await d->Write(2, 0, MiB(3));
  };
  engine.Spawn(run(&disk));
  engine.Run();
  EXPECT_EQ(disk.bytes_read(), MiB(2));
  EXPECT_EQ(disk.bytes_written(), MiB(3));
  EXPECT_EQ(disk.requests(), 2u);
  EXPECT_EQ(disk.busy_time(), engine.now());
}

TEST(DiskTest, FifoQueueing) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  std::vector<int> order;
  auto req = [](Disk* d, std::vector<int>* log, int id) -> sim::Task<> {
    co_await d->Read(static_cast<uint64_t>(id), 0, MiB(1));
    log->push_back(id);
  };
  for (int i = 0; i < 5; ++i) engine.Spawn(req(&disk, &order, i));
  engine.Run();
  EXPECT_EQ(order, std::vector<int>({0, 1, 2, 3, 4}));
}

// A request issued at the instant a completion hands the head to the next
// queued request queues behind that request: no barging, even for a
// sequential continuation of the request that just completed.
TEST(DiskTest, SameInstantArrivalQueuesBehindHandOff) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  std::vector<std::pair<char, double>> done;  // (request, completion ms)
  size_t depth_at_handoff = 99;
  auto first = [](Disk* d, sim::Engine* e, size_t* depth,
                  std::vector<std::pair<char, double>>* log) -> sim::Task<> {
    co_await d->Read(1, 0, MiB(1));
    log->emplace_back('A', ToMillis(e->now()));
    // B holds the head but has not entered service: it counts neither as
    // waiting nor as busy.
    *depth = d->queue_depth();
    co_await d->Read(1, MiB(1), MiB(1));
    log->emplace_back('C', ToMillis(e->now()));
  };
  auto second = [](Disk* d, sim::Engine* e,
                   std::vector<std::pair<char, double>>* log) -> sim::Task<> {
    co_await d->Read(2, 0, MiB(1));
    log->emplace_back('B', ToMillis(e->now()));
  };
  engine.Spawn(first(&disk, &engine, &depth_at_handoff, &done));
  engine.Spawn(second(&disk, &engine, &done));
  engine.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 'A');
  EXPECT_EQ(done[1].first, 'B');
  EXPECT_EQ(done[2].first, 'C');
  // Each request pays 12 ms of seek and rotation plus 10 ms of transfer:
  // B moved the head away, so C seeks too.
  EXPECT_NEAR(done[0].second, 22.0, 0.01);
  EXPECT_NEAR(done[1].second, 44.0, 0.01);
  EXPECT_NEAR(done[2].second, 66.0, 0.01);
  EXPECT_EQ(disk.seeks(), 3u);
  EXPECT_EQ(depth_at_handoff, 0u);
}

TEST(DiskTest, QueueDepthCountsWaitingAndInService) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  for (int i = 0; i < 3; ++i) {
    engine.Spawn(DoRead(&disk, static_cast<uint64_t>(i), 0, MiB(1)));
  }
  std::vector<size_t> depths;
  auto probe = [](Disk* d, sim::Engine* e,
                  std::vector<size_t>* log) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      log->push_back(d->queue_depth());
      co_await e->Delay(Millis(22));
    }
  };
  engine.SpawnAt(Millis(1), probe(&disk, &engine, &depths));
  engine.Run();
  // One in service and two waiting, then one fewer per 22 ms request.
  EXPECT_EQ(depths, std::vector<size_t>({3, 2, 1, 0}));
}

// A slowdown set while a request is queued applies from its service
// start; the request already in service keeps its nominal time.
TEST(DiskTest, SlowdownAppliesFromServiceStart) {
  sim::Engine engine;
  Disk disk(&engine, TestDisk());
  std::vector<double> done;
  auto req = [](Disk* d, sim::Engine* e, uint64_t stream,
                std::vector<double>* log) -> sim::Task<> {
    co_await d->Read(stream, 0, MiB(1));
    log->push_back(ToMillis(e->now()));
  };
  auto slow = [](Disk* d, sim::Engine* e) -> sim::Task<> {
    co_await e->Delay(Millis(5));
    d->SetSlowdown(2.0);
  };
  engine.Spawn(req(&disk, &engine, 1, &done));
  engine.Spawn(req(&disk, &engine, 2, &done));
  engine.Spawn(slow(&disk, &engine));
  engine.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 22.0, 0.01);
  EXPECT_NEAR(done[1], 22.0 + 2 * 22.0, 0.01);
  EXPECT_EQ(disk.busy_time(), Millis(66));
}

// Ending a simulation with requests in service and queued destroys every
// frame: the callers' (through the engine) and the disk's service
// coroutine (through the disk), in either destruction order. Under the
// sanitizer build a leaked frame fails this test.
TEST(DiskTest, TeardownWithQueuedRequestsReclaimsFrames) {
  struct Alive {
    int* count;
    explicit Alive(int* c) : count(c) { ++*count; }
    ~Alive() { --*count; }
  };
  auto req = [](Disk* d, uint64_t stream, int* alive) -> sim::Task<> {
    Alive guard(alive);
    co_await d->Read(stream, 0, MiB(1));
  };
  for (bool disk_first : {true, false}) {
    SCOPED_TRACE(disk_first ? "disk destroyed first" : "engine first");
    int alive = 0;
    auto engine = std::make_unique<sim::Engine>();
    auto disk = std::make_unique<Disk>(engine.get(), TestDisk());
    for (uint64_t i = 0; i < 3; ++i) {
      engine->Spawn(req(disk.get(), i, &alive));
    }
    engine->RunUntil(Millis(30));  // one done, one in service, one queued
    EXPECT_EQ(disk->requests(), 2u);
    EXPECT_EQ(disk->queue_depth(), 2u);
    EXPECT_EQ(alive, 2);
    if (disk_first) disk.reset();
    engine.reset();
    disk.reset();
    EXPECT_EQ(alive, 0);
  }
}

}  // namespace
}  // namespace spongefiles::cluster
