#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/units.h"
#include "pig/data_bag.h"
#include "pig/memory_manager.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::pig {
namespace {

struct BagFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  sponge::TaskContext task;
  std::unique_ptr<mapred::DiskSpiller> spiller;
  std::unique_ptr<mapred::CpuMeter> cpu;

  explicit BagFixture(const sponge::SpongeConfig& sponge = {},
                      uint64_t sponge_memory = GiB(1)) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.node.sponge_memory = sponge_memory;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              sponge);
    task = env->StartTask(0);
    spiller = std::make_unique<mapred::DiskSpiller>(
        &engine, &cluster_->node(0).fs(), "bag-test");
    cpu = std::make_unique<mapred::CpuMeter>(&engine);
  }
};

// Inserts a tuple the way the reducers do: Push, then the memory
// manager's spill upcall when the bag went over budget.
sim::Task<Status> Add(DataBag* bag, MemoryManager* manager, Tuple tuple) {
  if (!bag->Push(std::move(tuple))) co_return Status::OK();
  co_return co_await manager->MaybeSpill();
}

Tuple MakeTuple(double number, uint64_t size = 1000) {
  Tuple t;
  t.key = "g";
  t.number = number;
  t.size = size;
  return t;
}

TEST(DataBagTest, SmallBagStaysInMemory) {
  BagFixture f;
  MemoryManager manager(MiB(10));
  Status status;
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b");
    for (int i = 0; i < 100; ++i) {
      (void)co_await Add(&bag, &manager, MakeTuple(i));
    }
    EXPECT_EQ(bag.count(), 100u);
    EXPECT_EQ(bag.spilled_bytes(), 0u);
    EXPECT_GT(bag.memory_bytes(), 0u);
    double sum = 0;
    status = co_await bag.ForEach(
        [&](const Tuple& t) {
          sum += t.number;
          return Status::OK();
        },
        false);
    EXPECT_EQ(sum, 99.0 * 100 / 2);
    co_await bag.Destroy();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(DataBagTest, MemoryPressureSpillsInChunks) {
  BagFixture f;
  MemoryManager manager(MiB(1));
  Status status;
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b",
                /*spill_chunk_bytes=*/256 * kKiB);
    for (int i = 0; i < 3000; ++i) {
      status = co_await Add(&bag, &manager, MakeTuple(i, 2000));
      if (!status.ok()) co_return;
    }
    // ~6 MB through a 1 MB budget: most must be spilled in 256 KB chunks.
    EXPECT_GT(bag.spilled_bytes(), MiB(4));
    EXPECT_LE(bag.memory_bytes(), MiB(1) + 2000);
    EXPECT_GE(bag.spill_file_count(), 16u);
    EXPECT_GT(manager.spill_upcalls(), 0u);
    // All tuples still observable, exactly once.
    std::set<double> seen;
    status = co_await bag.ForEach(
        [&](const Tuple& t) {
          EXPECT_TRUE(seen.insert(t.number).second);
          return Status::OK();
        },
        false);
    EXPECT_EQ(seen.size(), 3000u);
    co_await bag.Destroy();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(DataBagTest, RespillAllowsSecondPass) {
  BagFixture f;
  MemoryManager manager(100 * kKiB);
  Status status;
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b");
    for (int i = 0; i < 500; ++i) {
      (void)co_await Add(&bag, &manager, MakeTuple(i, 2000));
    }
    uint64_t spilled_before = f.spiller->stats().bytes_spilled;
    int first_count = 0;
    status = co_await bag.ForEach(
        [&](const Tuple&) {
          ++first_count;
          return Status::OK();
        },
        /*respill=*/true);
    if (!status.ok()) co_return;
    EXPECT_EQ(first_count, 500);
    // The respill wrote the spilled portion again.
    EXPECT_GT(f.spiller->stats().bytes_spilled, spilled_before);
    int second_count = 0;
    status = co_await bag.ForEach(
        [&](const Tuple&) {
          ++second_count;
          return Status::OK();
        },
        /*respill=*/false);
    EXPECT_EQ(second_count, 500);
    co_await bag.Destroy();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(DataBagTest, SortedForEachOrdersAcrossSpills) {
  BagFixture f;
  MemoryManager manager(200 * kKiB);
  Status status;
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b",
                /*spill_chunk_bytes=*/100 * kKiB);
    // Insert in reverse so ordering is non-trivial; force heavy spilling.
    for (int i = 999; i >= 0; --i) {
      (void)co_await Add(&bag, &manager, MakeTuple(i, 2000));
    }
    double last = -1;
    int count = 0;
    status = co_await bag.SortedForEach(
        [](const Tuple& a, const Tuple& b) { return a.number < b.number; },
        [&](const Tuple& t) {
          EXPECT_GT(t.number, last);
          last = t.number;
          ++count;
          return Status::OK();
        });
    EXPECT_EQ(count, 1000);
    EXPECT_EQ(bag.count(), 0u);  // consuming traversal
    co_await bag.Destroy();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(DataBagTest, DestroyFreesDiskSpace) {
  BagFixture f;
  MemoryManager manager(50 * kKiB);
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b");
    for (int i = 0; i < 500; ++i) {
      (void)co_await Add(&bag, &manager, MakeTuple(i, 2000));
    }
    EXPECT_GT(f.cluster_->node(0).fs().used(), 0u);
    co_await bag.Destroy();
    EXPECT_EQ(f.cluster_->node(0).fs().used(), 0u);
  };
  f.engine.Spawn(run());
  f.engine.Run();
}

// A traversal that fails part-way still deletes the spill files it opened.
// Here the bag spills once to SpongeFiles whose 64 KiB chunks all land on
// local disk (no sponge memory anywhere), so reading a file's first chunk
// starts the prefetch of its second. `fn` fails on the first tuple, while
// that prefetch is in flight: a file destroyed without Delete() would be
// read after it is freed (ASan reports it) and stay on disk.
TEST(DataBagTest, FailedTraversalDeletesFilesWithPrefetchInFlight) {
  for (bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "SortedForEach" : "ForEach");
    sponge::SpongeConfig sponge;
    sponge.chunk_size = 64 * kKiB;
    BagFixture f(sponge, /*sponge_memory=*/0);
    mapred::SpongeSpiller spiller(f.env.get(), &f.task, "bag-test");
    MemoryManager manager(200 * kKiB);
    Status status;
    auto run = [&]() -> sim::Task<> {
      DataBag bag(&manager, &spiller, f.cpu.get(), "b",
                  /*spill_chunk_bytes=*/MiB(1));
      for (int i = 0; i < 150; ++i) {
        (void)co_await Add(&bag, &manager, MakeTuple(i, 2000));
      }
      EXPECT_EQ(bag.spill_file_count(), 1u);
      EXPECT_GT(f.cluster_->node(0).fs().used(), 2 * 64 * kKiB);
      auto fail = [](const Tuple&) { return Internal("stop"); };
      if (sorted) {
        status = co_await bag.SortedForEach(
            [](const Tuple& a, const Tuple& b) { return a.number < b.number; },
            fail);
      } else {
        status = co_await bag.ForEach(fail, /*respill=*/false);
      }
      EXPECT_EQ(f.cluster_->node(0).fs().used(), 0u);
      co_await bag.Destroy();
    };
    f.engine.Spawn(run());
    f.engine.Run();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
}

TEST(MemoryManagerTest, SpillsLargestBagFirst) {
  BagFixture f;
  MemoryManager manager(MiB(1));
  auto run = [&]() -> sim::Task<> {
    DataBag small(&manager, f.spiller.get(), f.cpu.get(), "small");
    DataBag big(&manager, f.spiller.get(), f.cpu.get(), "big");
    for (int i = 0; i < 100; ++i) {
      (void)co_await Add(&small, &manager, MakeTuple(i, 1000));
    }
    for (int i = 0; i < 900; ++i) {
      (void)co_await Add(&big, &manager, MakeTuple(i, 1000));
    }
    // Pushing past the budget spills the big bag, not the small one.
    for (int i = 0; i < 200; ++i) {
      (void)co_await Add(&big, &manager, MakeTuple(i, 1000));
    }
    EXPECT_GT(big.spilled_bytes(), 0u);
    EXPECT_EQ(small.spilled_bytes(), 0u);
    co_await small.Destroy();
    co_await big.Destroy();
  };
  f.engine.Spawn(run());
  f.engine.Run();
}

TEST(MemoryManagerTest, TracksRegistrationAndUsage) {
  BagFixture f;
  MemoryManager manager(MiB(64));
  EXPECT_EQ(manager.bag_count(), 0u);
  auto run = [&]() -> sim::Task<> {
    DataBag bag(&manager, f.spiller.get(), f.cpu.get(), "b");
    EXPECT_EQ(manager.bag_count(), 1u);
    (void)co_await Add(&bag, &manager, MakeTuple(1, 5000));
    EXPECT_GE(manager.memory_in_use(), 5000u);
    co_await bag.Destroy();
    EXPECT_EQ(manager.bag_count(), 0u);
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(manager.bag_count(), 0u);
}

}  // namespace
}  // namespace spongefiles::pig
