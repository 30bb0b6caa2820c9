// The cascade's SSD rung (ISSUE 10): with a local SSD configured, a
// SpongeFile fills local memory -> remote memory -> SSD -> disk in that
// order, round-trips bytes exactly, releases its SSD reservations on
// delete, and degrades gracefully under the two gray failures — a slowed
// SSD just takes longer, a worn one (writes fail, reads still work)
// drains while new chunks fall through to disk.

#include "sponge/sponge_file.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {
namespace {

// A small cluster whose nodes carry a local SSD. The default shape — one
// node, 2 MiB of sponge, remote memory off — makes the cascade fully
// predictable: two chunks fit in memory, the SSD takes the next
// `ssd_capacity` worth, the rest lands on disk.
struct SsdFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;
  TaskContext task;

  explicit SsdFixture(SpongeConfig config = {},
                      uint64_t ssd_capacity = MiB(2),
                      uint64_t sponge_per_node = MiB(2),
                      size_t num_nodes = 1) {
    cluster::ClusterConfig cc;
    cc.num_nodes = num_nodes;
    cc.node.sponge_memory = sponge_per_node;
    cc.node.ssd.capacity = ssd_capacity;
    config.allow_remote_memory = num_nodes > 1;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(), config);
    task = env->StartTask(0);
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  cluster::Ssd& ssd() { return cluster_->node(0).ssd(); }

  // Writes `bytes` of zeros through a file and closes it.
  void WriteAndClose(SpongeFile* file, uint64_t bytes) {
    auto run = [&]() -> sim::Task<> {
      ByteRuns data;
      data.AppendZeros(bytes);
      (void)co_await file->Append(std::move(data));
      (void)co_await file->Close();
    };
    engine.Spawn(run());
    engine.Run();
  }
};

std::string RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(SpongeSsdCascadeTest, FillsLocalMemoryThenSsdThenDisk) {
  SsdFixture f;  // 2 MiB memory, 2 MiB SSD
  SpongeFile file(f.env.get(), &f.task, "cascade");
  f.WriteAndClose(&file, MiB(6));
  auto placements = file.ChunkPlacements();
  ASSERT_EQ(placements.size(), 6u);
  EXPECT_EQ(placements[0], ChunkLocation::kLocalMemory);
  EXPECT_EQ(placements[1], ChunkLocation::kLocalMemory);
  EXPECT_EQ(placements[2], ChunkLocation::kLocalSsd);
  EXPECT_EQ(placements[3], ChunkLocation::kLocalSsd);
  EXPECT_EQ(placements[4], ChunkLocation::kLocalDisk);
  EXPECT_EQ(placements[5], ChunkLocation::kLocalDisk);
  EXPECT_EQ(file.stats().chunks_local_ssd, 2u);
  EXPECT_EQ(file.stats().bytes_local_ssd, MiB(2));
  EXPECT_EQ(f.ssd().used_bytes(), MiB(2));
  EXPECT_EQ(f.ssd().writes(), 2u);
}

TEST(SpongeSsdCascadeTest, SsdComesAfterRemoteMemory) {
  // Two nodes: the second node's pool is the remote rung and must fill
  // before the writer's own SSD takes a chunk.
  SsdFixture f(SpongeConfig{}, /*ssd_capacity=*/MiB(2),
               /*sponge_per_node=*/MiB(2), /*num_nodes=*/2);
  SpongeFile file(f.env.get(), &f.task, "order");
  f.WriteAndClose(&file, MiB(6));
  EXPECT_EQ(file.stats().chunks_local_memory, 2u);
  EXPECT_EQ(file.stats().chunks_remote_memory, 2u);
  EXPECT_EQ(file.stats().chunks_local_ssd, 2u);
  EXPECT_EQ(file.stats().chunks_local_disk, 0u);
}

TEST(SpongeSsdCascadeTest, RoundTripThroughSsdPreservesBytes) {
  SsdFixture f;
  SpongeFile file(f.env.get(), &f.task, "rt");
  std::string data = RandomData(MiB(3) + 4321, 77);  // memory + SSD chunks
  Status status;
  uint64_t read_back_checksum = 0;
  auto run = [&]() -> sim::Task<> {
    status = co_await file.AppendBytes(Slice(data));
    if (!status.ok()) co_return;
    status = co_await file.Close();
    if (!status.ok()) co_return;
    Checksum sum;
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        status = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
      auto bytes = chunk->ToBytes();
      sum.Update(Slice(bytes));
    }
    read_back_checksum = sum.digest();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(file.stats().chunks_local_ssd, 1u);
  EXPECT_GE(f.ssd().reads(), 1u);
  EXPECT_EQ(read_back_checksum, Checksum::Of(Slice(data)));
}

TEST(SpongeSsdCascadeTest, DeleteReleasesSsdReservations) {
  SsdFixture f;
  SpongeFile file(f.env.get(), &f.task, "del");
  f.WriteAndClose(&file, MiB(4));
  ASSERT_EQ(f.ssd().used_bytes(), MiB(2));
  auto run = [&]() -> sim::Task<> { co_await file.Delete(); };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(f.ssd().used_bytes(), 0u);
}

TEST(SpongeSsdCascadeTest, WornSsdFallsThroughToDisk) {
  SsdFixture f;
  FailureInjector injector(f.env.get(), /*seed=*/1);
  injector.ScheduleSsdWear(/*node=*/0, /*at=*/Seconds(1),
                           /*duration=*/Seconds(5));
  SpongeFile worn_file(f.env.get(), &f.task, "worn");
  SpongeFile fresh_file(f.env.get(), &f.task, "fresh");
  auto run = [&]() -> sim::Task<> {
    co_await f.engine.Delay(Seconds(2));  // inside the wear window
    ByteRuns data;
    data.AppendZeros(MiB(4));
    (void)co_await worn_file.Append(std::move(data));
    (void)co_await worn_file.Close();
    // Free the memory chunks, then write again after endurance "recovers"
    // (a replaced device): the SSD rung works again.
    co_await worn_file.Delete();
    co_await f.engine.Delay(Seconds(10));
    ByteRuns more;
    more.AppendZeros(MiB(4));
    (void)co_await fresh_file.Append(std::move(more));
    (void)co_await fresh_file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  // During the window every SSD write failed and the chunks landed on
  // disk; afterwards the rung absorbs them again.
  EXPECT_EQ(worn_file.stats().chunks_local_ssd, 0u);
  EXPECT_EQ(worn_file.stats().chunks_local_disk, 2u);
  EXPECT_GE(f.ssd().failed_writes(), 2u);
  EXPECT_EQ(fresh_file.stats().chunks_local_ssd, 2u);
  EXPECT_EQ(fresh_file.stats().chunks_local_disk, 0u);
}

TEST(SpongeSsdCascadeTest, SlowSsdCompletesJustLater) {
  // Identical writes against a healthy and a 10x-slowed SSD: both finish
  // with the same placements, the slow one just takes longer.
  auto timed_run = [](bool slow) {
    SsdFixture f;
    if (slow) {
      FailureInjector injector(f.env.get(), /*seed=*/1);
      injector.ScheduleSsdSlowdown(/*node=*/0, /*at=*/f.engine.now(),
                                   /*factor=*/10.0,
                                   /*duration=*/Seconds(60));
    }
    SpongeFile file(f.env.get(), &f.task, "timed");
    f.WriteAndClose(&file, MiB(4));
    EXPECT_EQ(file.stats().chunks_local_ssd, 2u);
    return f.ssd().busy_time();
  };
  Duration fast = timed_run(false);
  Duration slowed = timed_run(true);
  EXPECT_GT(slowed, fast);
}

}  // namespace
}  // namespace spongefiles::sponge
