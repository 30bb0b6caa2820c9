#include "sponge/sponge_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {
namespace {

// A 4-node single-rack cluster with small sponge pools so tests can
// exercise the whole cascade cheaply.
struct SpongeFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;
  TaskContext task;

  explicit SpongeFixture(SpongeConfig config = {},
                         uint64_t sponge_per_node = MiB(4),
                         size_t num_nodes = 4,
                         size_t nodes_per_rack = 40) {
    cluster::ClusterConfig cc;
    cc.num_nodes = num_nodes;
    cc.nodes_per_rack = nodes_per_rack;
    cc.node.sponge_memory = sponge_per_node;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(), config);
    task = env->StartTask(0);
    // Prime the tracker's free list once so queries have data.
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }
};

std::string RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(SpongeFileTest, WriteReadRoundTripPreservesBytes) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "rt");
  std::string data = RandomData(3 * MiB(1) + 12345, 99);
  Status status;
  uint64_t read_back_checksum = 0;
  uint64_t read_back_bytes = 0;
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
      read_back_bytes += bytes.size();
    }
    read_back_checksum = sum.digest();
    co_await file.Delete();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_back_bytes, data.size());
  EXPECT_EQ(read_back_checksum, Checksum::Of(Slice(data)));
}

TEST(SpongeFileTest, SmallFileUsesLocalMemory) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "small");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(2));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  auto placements = file.ChunkPlacements();
  ASSERT_EQ(placements.size(), 2u);
  for (auto p : placements) EXPECT_EQ(p, ChunkLocation::kLocalMemory);
  EXPECT_EQ(file.stats().chunks_local_memory, 2u);
}

TEST(SpongeFileTest, OverflowSpillsToRemoteMemory) {
  SpongeFixture f;  // 4 MB local pool
  SpongeFile file(f.env.get(), &f.task, "remote");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(6));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().chunks_local_memory, 4u);
  EXPECT_EQ(file.stats().chunks_remote_memory, 2u);
  EXPECT_EQ(file.stats().chunks_local_disk, 0u);
}

TEST(SpongeFileTest, FullRackFallsBackToDiskThenDfs) {
  // Tiny pools everywhere; disk nearly full so DFS gets the tail.
  SpongeConfig config;
  SpongeFixture f(config, MiB(1));
  // Fill every node's pool.
  for (size_t n = 0; n < 4; ++n) {
    (void)f.env->server(n).pool().Allocate(ChunkOwner{999, n});
  }
  // Leave only 2 MB of local disk.
  auto hog = f.cluster_->node(0).fs().Create("hog");
  ASSERT_TRUE(
      f.cluster_->node(0)
          .fs()
          .Truncate(*hog, f.cluster_->node(0).fs().capacity() - MiB(2))
          .ok());
  SpongeFile file(f.env.get(), &f.task, "cascade");
  Status status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(5));
    status = co_await file.Append(std::move(data));
    if (status.ok()) status = co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(file.stats().chunks_local_memory, 0u);
  EXPECT_EQ(file.stats().chunks_remote_memory, 0u);
  EXPECT_EQ(file.stats().chunks_local_disk, 2u);
  EXPECT_EQ(file.stats().chunks_dfs, 3u);
}

TEST(SpongeFileTest, ConsecutiveDiskChunksCoalesceIntoOneFile) {
  SpongeConfig config;
  config.allow_remote_memory = false;
  SpongeFixture f(config, 0);  // no sponge memory at all
  SpongeFile file(f.env.get(), &f.task, "disk");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(5));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().chunks_local_disk, 5u);
  EXPECT_EQ(file.stats().disk_files, 1u);
  EXPECT_EQ(f.cluster_->node(0).fs().file_count(), 1u);
}

TEST(SpongeFileTest, AffinityPrefersServersAlreadyHoldingChunks) {
  SpongeFixture f(SpongeConfig{}, MiB(2), /*num_nodes=*/6);
  // Local pool (node 0) has 2 chunks; spill 8 MB so 6 go remote.
  SpongeFile file(f.env.get(), &f.task, "affinity");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(8));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().chunks_remote_memory, 6u);
  // Affinity keeps the remote chunks on as few machines as possible:
  // 6 chunks over 2 MB pools = exactly 3 distinct remote nodes.
  std::set<size_t> remote_nodes;
  size_t total_remote = 0;
  for (size_t n = 1; n < 6; ++n) {
    auto held = f.env->server(n).pool().AllocatedChunks();
    total_remote += held.size();
    if (!held.empty()) remote_nodes.insert(n);
  }
  EXPECT_EQ(total_remote, 6u);
  EXPECT_EQ(remote_nodes.size(), 3u);
}

TEST(SpongeFileTest, RackRestrictionKeepsChunksOnRack) {
  // 4 nodes, 2 racks. Task on node 0 (rack 0); only node 1 shares the rack.
  SpongeConfig config;
  config.allow_cross_rack = false;
  SpongeFixture f(config, MiB(2), /*num_nodes=*/4, /*nodes_per_rack=*/2);
  SpongeFile file(f.env.get(), &f.task, "rack");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(8));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  // 2 local, 2 remote on node 1, rest must go to disk (not off-rack).
  EXPECT_EQ(file.stats().chunks_remote_memory, 2u);
  EXPECT_EQ(file.stats().chunks_local_disk, 4u);
  EXPECT_TRUE(f.env->server(2).pool().AllocatedChunks().empty());
  EXPECT_TRUE(f.env->server(3).pool().AllocatedChunks().empty());
}

TEST(SpongeFileTest, CrossRackAllowedWhenUnrestricted) {
  SpongeConfig config;
  config.allow_cross_rack = true;
  SpongeFixture f(config, MiB(2), /*num_nodes=*/4, /*nodes_per_rack=*/2);
  SpongeFile file(f.env.get(), &f.task, "xrack");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(8));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().chunks_remote_memory, 6u);
  EXPECT_EQ(file.stats().chunks_local_disk, 0u);
}

TEST(SpongeFileTest, StaleFreeListRetriesThenDisk) {
  // The tracker's snapshot says peers have memory, but their pools were
  // filled after the poll. Allocation must bounce off each and fall back
  // to disk without ever failing the spill.
  SpongeFixture f(SpongeConfig{}, MiB(1));
  // Poll happened in the fixture; now fill all pools behind its back.
  for (size_t n = 0; n < 4; ++n) {
    (void)f.env->server(n).pool().Allocate(ChunkOwner{999, n});
  }
  SpongeFile file(f.env.get(), &f.task, "stale");
  Status status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(2));
    status = co_await file.Append(std::move(data));
    if (status.ok()) status = co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(file.stats().chunks_local_disk, 2u);
  EXPECT_GT(file.stats().stale_list_retries, 0u);
}

TEST(SpongeFileTest, ReadBeforeCloseRejected) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "order");
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto chunk = co_await file.ReadNext();
    status = chunk.status();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SpongeFileTest, AppendAfterCloseRejected) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "order2");
  Status status;
  auto run = [&]() -> sim::Task<> {
    (void)co_await file.Close();
    ByteRuns data;
    data.AppendZeros(10);
    status = co_await file.Append(std::move(data));
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SpongeFileTest, DeleteFreesPoolChunksEverywhere) {
  SpongeFixture f;  // 4 MB pools
  SpongeFile file(f.env.get(), &f.task, "del");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(6));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
    co_await file.Delete();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  for (size_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(f.env->server(n).pool().AllocatedChunks().empty())
        << "node " << n;
    EXPECT_EQ(f.env->server(n).free_bytes(), MiB(4));
  }
}

TEST(SpongeFileTest, KilledTaskAborts) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "killed");
  Status status;
  auto run = [&]() -> sim::Task<> {
    f.task.killed = true;
    ByteRuns data;
    data.AppendZeros(MiB(1));
    status = co_await file.Append(std::move(data));
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST(SpongeFileTest, RemoteNodeCrashLosesChunksReadFails) {
  SpongeFixture f;  // 4 MB pools; 6 MB spill puts 2 chunks remote
  SpongeFile file(f.env.get(), &f.task, "crash");
  Status read_status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(6));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
    // Find the remote node that holds our chunks and crash it.
    for (size_t n = 1; n < 4; ++n) {
      if (!f.env->server(n).pool().AllocatedChunks().empty()) {
        f.env->CrashNode(n);
      }
    }
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        read_status = chunk.status();
        break;
      }
      if (chunk->empty()) break;
    }
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(read_status.code(), StatusCode::kUnavailable);
}

// The one case where a live task's *local* pool chunk is freed underneath
// it (a server-side sweep reclaiming slots): the next read of that chunk
// reports it lost.
TEST(SpongeFileTest, LocalChunkFreedUnderLiveTaskReadsAsUnavailable) {
  SpongeConfig config;
  config.allow_remote_memory = false;  // keep everything on node 0
  SpongeFixture f(config, MiB(8));
  SpongeFile file(f.env.get(), &f.task, "victim");
  Status read_status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(4));
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
    ChunkPool& pool = f.env->server(0).pool();
    auto held = pool.AllocatedChunks();
    EXPECT_EQ(held.size(), 4u);
    // Reclaim all but the task's first two slots.
    for (size_t i = 2; i < held.size(); ++i) {
      EXPECT_TRUE(pool.ForceFree(held[i].first).ok());
    }
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        read_status = chunk.status();
        break;
      }
      if (chunk->empty()) break;
    }
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().chunks_local_memory, 4u);
  // A chunk is gone; the task fails and the framework would restart it.
  EXPECT_EQ(read_status.code(), StatusCode::kUnavailable);
}

TEST(SpongeFileTest, FragmentationOnlyFromFinalPartialChunk) {
  SpongeFixture f(SpongeConfig{}, MiB(16));
  SpongeFile file(f.env.get(), &f.task, "frag");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(3) + 700 * kKiB);
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  // 4 chunks; only the last one (700 KB in a 1 MB slot) wastes memory.
  EXPECT_EQ(file.stats().total_chunks(), 4u);
  EXPECT_EQ(file.stats().fragmentation_bytes, MiB(1) - 700 * kKiB);
  // Well below 1% would need a bigger file; check the ratio bound holds
  // for a 100 MB spill instead.
  double waste = static_cast<double>(file.stats().fragmentation_bytes);
  EXPECT_LT(waste, static_cast<double>(MiB(1)));
}

TEST(SpongeFileTest, PrefetchOverlapsRemoteReads) {
  // Reading N remote chunks with prefetch should take notably less time
  // than without (transfers overlap the consumer's processing).
  auto measure = [](bool prefetch) {
    SpongeConfig config;
    config.prefetch = prefetch;
    SpongeFixture f(config, MiB(2), /*num_nodes=*/6);
    auto file = std::make_unique<SpongeFile>(f.env.get(), &f.task, "pf");
    SimTime read_time = 0;
    auto run = [&f, &file, &read_time]() -> sim::Task<> {
      ByteRuns data;
      data.AppendZeros(MiB(10));
      (void)co_await file->Append(std::move(data));
      (void)co_await file->Close();
      SimTime start = f.engine.now();
      while (true) {
        auto chunk = co_await file->ReadNext();
        if (!chunk.ok() || chunk->empty()) break;
        // Simulate per-chunk processing work.
        co_await f.engine.Delay(Millis(8));
      }
      read_time = f.engine.now() - start;
    };
    f.engine.Spawn(run());
    f.engine.Run();
    return read_time;
  };
  SimTime with_prefetch = measure(true);
  SimTime without_prefetch = measure(false);
  EXPECT_LT(with_prefetch, without_prefetch);
}

TEST(SpongeFileTest, PrefetchWindowIsSharedByTheTasksFiles) {
  // A merge's inputs reach their chunk ends together: twelve files on
  // local disk (no sponge memory), read in step like a k-way merge.
  SpongeConfig config;
  config.chunk_size = 64 * kKiB;
  SpongeFixture f(config, /*sponge_per_node=*/0);
  std::vector<std::unique_ptr<SpongeFile>> files;
  for (int i = 0; i < 12; ++i) {
    files.push_back(std::make_unique<SpongeFile>(
        f.env.get(), &f.task, "merge-input-" + std::to_string(i)));
  }
  int most_in_flight = 0;
  uint64_t chunks_read = 0;
  auto run = [&]() -> sim::Task<> {
    for (auto& file : files) {
      ByteRuns data;
      data.AppendZeros(3 * 64 * kKiB);
      EXPECT_TRUE((co_await file->Append(std::move(data))).ok());
      EXPECT_TRUE((co_await file->Close()).ok());
    }
    for (int round = 0; round < 4; ++round) {
      for (auto& file : files) {
        auto chunk = co_await file->ReadNext();
        EXPECT_TRUE(chunk.ok());
        if (chunk.ok() && !chunk->empty()) ++chunks_read;
        most_in_flight = std::max(most_in_flight, f.task.prefetches);
      }
      co_await f.engine.Delay(Seconds(1));  // every prefetch lands
    }
    for (auto& file : files) co_await file->Delete();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(chunks_read, 36u);
  EXPECT_EQ(most_in_flight, 8);
  EXPECT_EQ(f.task.prefetches, 0);
}

TEST(SpongeFileTest, AsyncWriteOverlapsWithComputation) {
  auto measure = [](bool async_write) {
    SpongeConfig config;
    config.async_write = async_write;
    SpongeFixture f(config, MiB(2), /*num_nodes=*/6);
    auto file = std::make_unique<SpongeFile>(f.env.get(), &f.task, "aw");
    SimTime total = 0;
    auto run = [&f, &file, &total]() -> sim::Task<> {
      SimTime start = f.engine.now();
      for (int i = 0; i < 10; ++i) {
        ByteRuns data;
        data.AppendZeros(MiB(1));
        (void)co_await file->Append(std::move(data));
        co_await f.engine.Delay(Millis(8));  // producer computation
      }
      (void)co_await file->Close();
      total = f.engine.now() - start;
    };
    f.engine.Spawn(run());
    f.engine.Run();
    return total;
  };
  EXPECT_LT(measure(true), measure(false));
}

TEST(SpongeFileTest, StatsCountBytes) {
  SpongeFixture f;
  SpongeFile file(f.env.get(), &f.task, "stats");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(2) + 17);
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(file.stats().bytes_written, MiB(2) + 17);
  EXPECT_EQ(file.size(), MiB(2) + 17);
  EXPECT_EQ(file.stats().total_chunks(), 3u);
}

}  // namespace
}  // namespace spongefiles::sponge
