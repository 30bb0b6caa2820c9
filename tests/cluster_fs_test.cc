#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "cluster/local_fs.h"
#include "common/units.h"
#include "sim/engine.h"

namespace spongefiles::cluster {
namespace {

struct FsFixture {
  sim::Engine engine;
  Disk disk;
  BufferCache cache;
  LocalFs fs;

  FsFixture()
      : disk(&engine, DiskConfig{}),
        cache(&engine, &disk, CacheConfig()),
        fs(&cache, GiB(10)) {}

  static BufferCacheConfig CacheConfig() {
    BufferCacheConfig config;
    config.capacity = GiB(1);
    return config;
  }
};

TEST(LocalFsTest, CreateAppendReadDelete) {
  FsFixture f;
  auto id = f.fs.Create("spill0");
  ASSERT_TRUE(id.ok());
  Status out;
  auto run = [](LocalFs* fs, uint64_t file, Status* result) -> sim::Task<> {
    Status s = co_await fs->Append(file, MiB(5));
    if (!s.ok()) {
      *result = s;
      co_return;
    }
    *result = co_await fs->Read(file, 0, MiB(5));
  };
  f.engine.Spawn(run(&f.fs, *id, &out));
  f.engine.Run();
  EXPECT_TRUE(out.ok()) << out.ToString();
  EXPECT_EQ(*f.fs.Size(*id), MiB(5));
  EXPECT_EQ(f.fs.used(), MiB(5));
  EXPECT_TRUE(f.fs.Delete(*id).ok());
  EXPECT_EQ(f.fs.used(), 0u);
  EXPECT_EQ(f.cache.cached_bytes(), 0u);
}

TEST(LocalFsTest, DuplicateNameRejected) {
  FsFixture f;
  ASSERT_TRUE(f.fs.Create("x").ok());
  EXPECT_EQ(f.fs.Create("x").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LocalFsTest, ReadPastEofFails) {
  FsFixture f;
  auto id = f.fs.Create("f");
  Status out;
  auto run = [](LocalFs* fs, uint64_t file, Status* result) -> sim::Task<> {
    (void)co_await fs->Append(file, MiB(1));
    *result = co_await fs->Read(file, MiB(1) - 10, 20);
  };
  f.engine.Spawn(run(&f.fs, *id, &out));
  f.engine.Run();
  EXPECT_EQ(out.code(), StatusCode::kOutOfRange);
}

TEST(LocalFsTest, CapacityEnforced) {
  FsFixture f;
  auto id = f.fs.Create("big");
  Status out;
  auto run = [](LocalFs* fs, uint64_t file, Status* result) -> sim::Task<> {
    *result = co_await fs->Append(file, GiB(11));
  };
  f.engine.Spawn(run(&f.fs, *id, &out));
  f.engine.Run();
  EXPECT_EQ(out.code(), StatusCode::kResourceExhausted);
}

TEST(LocalFsTest, TruncateReservesWithoutIo) {
  FsFixture f;
  auto id = f.fs.Create("dataset");
  ASSERT_TRUE(f.fs.Truncate(*id, GiB(2)).ok());
  EXPECT_EQ(*f.fs.Size(*id), GiB(2));
  EXPECT_EQ(f.fs.used(), GiB(2));
  EXPECT_EQ(f.disk.bytes_written(), 0u);
  EXPECT_EQ(f.fs.Truncate(*id, GiB(1)).code(), StatusCode::kInvalidArgument);
}

TEST(LocalFsTest, MissingFileErrors) {
  FsFixture f;
  Status append_status;
  auto run = [](LocalFs* fs, Status* out) -> sim::Task<> {
    *out = co_await fs->Append(999, 10);
  };
  f.engine.Spawn(run(&f.fs, &append_status));
  f.engine.Run();
  EXPECT_EQ(append_status.code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.Delete(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.Size(999).status().code(), StatusCode::kNotFound);
}

ClusterConfig SmallCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.nodes_per_rack = 2;
  return config;
}

TEST(ClusterTest, NodesAssignedToRacks) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  EXPECT_EQ(cluster.size(), 4u);
  EXPECT_EQ(cluster.node(0).rack(), 0u);
  EXPECT_EQ(cluster.node(1).rack(), 0u);
  EXPECT_EQ(cluster.node(2).rack(), 1u);
  EXPECT_EQ(cluster.node(3).rack(), 1u);
  EXPECT_TRUE(cluster.SameRack(0, 1));
  EXPECT_FALSE(cluster.SameRack(1, 2));
  EXPECT_EQ(cluster.RackPeers(0), (std::vector<size_t>{0, 1}));
}

TEST(ClusterTest, CacheCapacityDerivedFromMemorySplit) {
  sim::Engine engine;
  ClusterConfig config = SmallCluster();
  config.node.physical_memory = GiB(16);
  config.node.map_slots = 2;
  config.node.reduce_slots = 1;
  config.node.heap_per_slot = GiB(1);
  config.node.sponge_memory = GiB(1);
  config.node.os_reserved = MiB(512);
  Cluster cluster(&engine, config);
  // 16 - 3x1 - 1 - 0.5 = 11.5 GB.
  EXPECT_EQ(cluster.node(0).cache_capacity(), GiB(16) - GiB(4) - MiB(512));
}

TEST(ClusterTest, PinnedMemoryShrinksCache) {
  sim::Engine engine;
  ClusterConfig config = SmallCluster();
  config.node.physical_memory = GiB(16);
  config.node.pinned_memory = GiB(12);
  Cluster cluster(&engine, config);
  EXPECT_LT(cluster.node(0).cache_capacity(), GiB(1));
}

TEST(DfsTest, CreateAndReadCharged) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  Dfs dfs(&cluster);
  ASSERT_TRUE(dfs.CreateFile("input", MiB(600)).ok());
  EXPECT_EQ(*dfs.Size("input"), MiB(600));
  Status out;
  auto run = [](Dfs* fs, Status* result) -> sim::Task<> {
    *result = co_await fs->Read("input", 0, 0, MiB(300));
  };
  engine.Spawn(run(&dfs, &out));
  engine.Run();
  EXPECT_TRUE(out.ok()) << out.ToString();
  EXPECT_GT(engine.now(), 0);
}

TEST(DfsTest, BlocksSpreadAcrossNodes) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  Dfs dfs(&cluster);
  ASSERT_TRUE(dfs.CreateFile("spread", 4 * Dfs::kBlockSize).ok());
  std::set<size_t> owners;
  for (uint64_t b = 0; b < 4; ++b) {
    owners.insert(*dfs.BlockLocation("spread", b * Dfs::kBlockSize));
  }
  EXPECT_EQ(owners.size(), 4u);
}

TEST(DfsTest, AppendBlockWritesLocallyFirst) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  Dfs dfs(&cluster);
  Status out;
  auto run = [](Dfs* fs, Status* result) -> sim::Task<> {
    *result = co_await fs->AppendBlock("spill", 2, MiB(64));
  };
  engine.Spawn(run(&dfs, &out));
  engine.Run();
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(*dfs.BlockLocation("spill", 0), 2u);
  EXPECT_EQ(cluster.network().bytes_transferred(), 0u);
}

TEST(DfsTest, DeleteFreesSpace) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  Dfs dfs(&cluster);
  ASSERT_TRUE(dfs.CreateFile("tmp", MiB(256)).ok());
  uint64_t used = 0;
  for (size_t i = 0; i < cluster.size(); ++i) used += cluster.node(i).fs().used();
  EXPECT_EQ(used, MiB(256));
  ASSERT_TRUE(dfs.Delete("tmp").ok());
  used = 0;
  for (size_t i = 0; i < cluster.size(); ++i) used += cluster.node(i).fs().used();
  EXPECT_EQ(used, 0u);
  EXPECT_FALSE(dfs.Exists("tmp"));
}

TEST(DfsTest, RemoteReadUsesNetwork) {
  sim::Engine engine;
  Cluster cluster(&engine, SmallCluster());
  Dfs dfs(&cluster);
  ASSERT_TRUE(dfs.CreateFile("data", Dfs::kBlockSize).ok());
  size_t owner = *dfs.BlockLocation("data", 0);
  size_t reader = (owner + 1) % cluster.size();
  Status out;
  auto run = [](Dfs* fs, size_t node, Status* result) -> sim::Task<> {
    *result = co_await fs->Read("data", node, 0, MiB(10));
  };
  engine.Spawn(run(&dfs, reader, &out));
  engine.Run();
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(cluster.network().bytes_transferred(), MiB(10));
}

// A file of five blocks, each of a different size and on its own node:
// two from CreateFile (the second partial), three from AppendBlock (the
// last partial). Block owners are read off the nodes' disk usage, so the
// linear model below does not depend on how Dfs indexes its blocks.
struct MixedBlockFile {
  static constexpr uint64_t kSizes[] = {Dfs::kBlockSize, MiB(40), MiB(100),
                                        MiB(64), MiB(7)};

  sim::Engine engine;
  Cluster cluster;
  Dfs dfs;
  std::vector<size_t> owners;  // owners[i] holds block i

  MixedBlockFile() : cluster(&engine, Config()), dfs(&cluster) {
    EXPECT_TRUE(dfs.CreateFile("f", kSizes[0] + kSizes[1]).ok());
    auto append = [](Dfs* fs) -> sim::Task<> {
      for (size_t i = 2; i < std::size(kSizes); ++i) {
        EXPECT_TRUE((co_await fs->AppendBlock("f", 0, kSizes[i])).ok());
      }
    };
    engine.Spawn(append(&dfs));
    engine.Run();
    for (uint64_t size : kSizes) {
      for (size_t node = 0; node < cluster.size(); ++node) {
        if (cluster.node(node).fs().used() == size) owners.push_back(node);
      }
    }
    EXPECT_EQ(owners.size(), std::size(kSizes));
  }

  static ClusterConfig Config() {
    ClusterConfig config;
    config.num_nodes = 8;
    config.nodes_per_rack = 4;
    return config;
  }

  // Owner of the block covering `offset` by a walk from block 0.
  Result<size_t> LinearOwner(uint64_t offset) const {
    uint64_t end = 0;
    for (size_t i = 0; i < std::size(kSizes); ++i) {
      end += kSizes[i];
      if (offset < end) return owners[i];
    }
    return OutOfRange("offset past EOF");
  }
};

TEST(DfsTest, BlockLookupMatchesLinearScan) {
  MixedBlockFile f;
  ASSERT_EQ(f.owners.size(), std::size(MixedBlockFile::kSizes));
  const uint64_t size = *f.dfs.Size("f");
  std::vector<uint64_t> probes = {0};
  uint64_t end = 0;
  for (uint64_t block : MixedBlockFile::kSizes) {
    end += block;
    probes.push_back(end - 1);  // the block's last byte
    probes.push_back(end);      // the next block's first byte; size() last
  }
  EXPECT_EQ(end, size);
  for (uint64_t offset : probes) {
    Result<size_t> want = f.LinearOwner(offset);
    Result<size_t> got = f.dfs.BlockLocation("f", offset);
    ASSERT_EQ(got.ok(), want.ok()) << "offset " << offset;
    if (want.ok()) {
      EXPECT_EQ(*got, *want) << "offset " << offset;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
    }
  }

  // A read spanning blocks 0-2 charges the same disks, network and
  // simulated time as one read per block piece on an identical file.
  MixedBlockFile pieces;
  ASSERT_EQ(f.owners, pieces.owners);
  const uint64_t offset = Dfs::kBlockSize - MiB(10);
  const std::vector<std::pair<uint64_t, uint64_t>> parts = {
      {offset, MiB(10)}, {Dfs::kBlockSize, MiB(40)},
      {Dfs::kBlockSize + MiB(40), MiB(20)}};
  // A reader holding none of the blocks, so every piece crosses the network.
  size_t reader = 0;
  while (f.cluster.node(reader).fs().used() != 0) ++reader;

  struct Charges {
    std::vector<uint64_t> disk_read, disk_requests;
    uint64_t network = 0;
    SimTime elapsed = 0;
    bool operator==(const Charges&) const = default;
  };
  auto measure = [reader](MixedBlockFile* file,
                          std::vector<std::pair<uint64_t, uint64_t>> reads) {
    Charges before;
    for (size_t n = 0; n < file->cluster.size(); ++n) {
      before.disk_read.push_back(file->cluster.node(n).disk().bytes_read());
      before.disk_requests.push_back(file->cluster.node(n).disk().requests());
    }
    before.network = file->cluster.network().bytes_transferred();
    const SimTime start = file->engine.now();
    auto run = [](Dfs* fs, size_t node,
                  std::vector<std::pair<uint64_t, uint64_t>> ranges)
        -> sim::Task<> {
      for (auto [at, bytes] : ranges) {
        EXPECT_TRUE((co_await fs->Read("f", node, at, bytes)).ok());
      }
    };
    file->engine.Spawn(run(&file->dfs, reader, std::move(reads)));
    file->engine.Run();
    Charges delta;
    for (size_t n = 0; n < file->cluster.size(); ++n) {
      delta.disk_read.push_back(file->cluster.node(n).disk().bytes_read() -
                                before.disk_read[n]);
      delta.disk_requests.push_back(file->cluster.node(n).disk().requests() -
                                    before.disk_requests[n]);
    }
    delta.network =
        file->cluster.network().bytes_transferred() - before.network;
    delta.elapsed = file->engine.now() - start;
    return delta;
  };
  Charges whole = measure(&f, {{offset, MiB(70)}});
  Charges split = measure(&pieces, parts);
  EXPECT_EQ(whole, split);
  EXPECT_EQ(whole.network, MiB(70));
  for (size_t n = 0; n < f.cluster.size(); ++n) {
    const bool owns_a_piece = n == f.owners[0] ||
                              n == f.owners[1] ||
                              n == f.owners[2];
    if (!owns_a_piece) {
      EXPECT_EQ(whole.disk_read[n], 0u) << "node " << n;
    }
  }
  // CreateFile's blocks are uncached, so their pieces come off the disk
  // (block 2 was just appended and is served by its owner's cache).
  EXPECT_GE(whole.disk_read[f.owners[0]], MiB(10));
  EXPECT_GE(whole.disk_read[f.owners[1]], MiB(40));
}

}  // namespace
}  // namespace spongefiles::cluster
