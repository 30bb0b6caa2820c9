#include "sponge/chunk_pool.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "common/units.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace spongefiles::sponge {
namespace {

ChunkPoolConfig SmallPool() {
  ChunkPoolConfig config;
  config.pool_size = MiB(8);
  config.chunk_size = MiB(1);
  return config;
}

TEST(ChunkPoolTest, CapacityFromConfig) {
  ChunkPool pool(SmallPool());
  EXPECT_EQ(pool.total_chunks(), 8u);
  EXPECT_EQ(pool.free_chunks(), 8u);
  EXPECT_EQ(pool.free_bytes(), MiB(8));
}

TEST(ChunkPoolTest, SegmentsCappedAtTwoGigabytes) {
  // Mirrors the JVM's 2 GB mapped-file limit: a 5 GB pool needs 3 segments.
  ChunkPoolConfig config;
  config.pool_size = GiB(5);
  config.chunk_size = MiB(1);
  ChunkPool pool(config);
  EXPECT_EQ(pool.segments(), 3u);
  EXPECT_EQ(pool.total_chunks(), 5u * 1024);
}

TEST(ChunkPoolTest, AllocateAndFree) {
  ChunkPool pool(SmallPool());
  ChunkOwner owner{42, 3};
  auto handle = pool.Allocate(owner);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(pool.free_chunks(), 7u);
  EXPECT_EQ(pool.OwnerOf(*handle)->task_id, 42u);
  ASSERT_TRUE(pool.Free(*handle, owner).ok());
  EXPECT_EQ(pool.free_chunks(), 8u);
}

TEST(ChunkPoolTest, ExhaustionReturnsResourceExhausted) {
  ChunkPool pool(SmallPool());
  ChunkOwner owner{1, 0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Allocate(owner).ok());
  }
  auto overflow = pool.Allocate(owner);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChunkPoolTest, FreeingMakesChunkReusable) {
  ChunkPool pool(SmallPool());
  ChunkOwner a{1, 0};
  std::vector<ChunkHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(*pool.Allocate(a));
  ASSERT_TRUE(pool.Free(handles[3], a).ok());
  auto fresh = pool.Allocate(ChunkOwner{2, 1});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*pool.OwnerOf(*fresh), (ChunkOwner{2, 1}));
}

TEST(ChunkPoolTest, DoubleFreeRejected) {
  ChunkPool pool(SmallPool());
  ChunkOwner owner{7, 0};
  auto handle = *pool.Allocate(owner);
  ASSERT_TRUE(pool.Free(handle, owner).ok());
  EXPECT_EQ(pool.Free(handle, owner).code(), StatusCode::kFailedPrecondition);
}

TEST(ChunkPoolTest, FreeByWrongOwnerRejected) {
  ChunkPool pool(SmallPool());
  auto handle = *pool.Allocate(ChunkOwner{7, 0});
  EXPECT_EQ(pool.Free(handle, ChunkOwner{8, 0}).code(),
            StatusCode::kFailedPrecondition);
  // Same task id from a different node is a different owner.
  EXPECT_EQ(pool.Free(handle, ChunkOwner{7, 1}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ChunkPoolTest, ZeroOwnerIdRejected) {
  ChunkPool pool(SmallPool());
  EXPECT_EQ(pool.Allocate(ChunkOwner{0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChunkPoolTest, DataSurvivesUntilFree) {
  ChunkPool pool(SmallPool());
  ChunkOwner owner{5, 2};
  auto handle = *pool.Allocate(owner);
  ByteRuns* data = pool.chunk_data(handle);
  ASSERT_NE(data, nullptr);
  data->AppendLiteral(Slice(std::string_view("payload")));
  EXPECT_EQ(pool.chunk_data(handle)->size(), 7u);
  ASSERT_TRUE(pool.Free(handle, owner).ok());
  EXPECT_EQ(pool.chunk_data(handle), nullptr);
}

TEST(ChunkPoolTest, AllocatedChunksListsOwners) {
  ChunkPool pool(SmallPool());
  auto h1 = *pool.Allocate(ChunkOwner{1, 0});
  auto h2 = *pool.Allocate(ChunkOwner{2, 4});
  auto chunks = pool.AllocatedChunks();
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_TRUE((chunks[0].first == h1 && chunks[1].first == h2) ||
              (chunks[0].first == h2 && chunks[1].first == h1));
}

TEST(ChunkPoolTest, ResetFreesEverything) {
  ChunkPool pool(SmallPool());
  for (int i = 0; i < 5; ++i) (void)pool.Allocate(ChunkOwner{1, 0});
  pool.Reset();
  EXPECT_EQ(pool.free_chunks(), 8u);
  EXPECT_TRUE(pool.AllocatedChunks().empty());
}

// Chunks declared smaller than chunk_size (once carved from slabs, now a
// whole slot each) go back on Reset like full ones, and every count the
// pool keeps about them is cleared.
TEST(ChunkPoolTest, ResetDissolvesSlabsAndClearsAccounting) {
  ChunkPool pool(SmallPool());
  ChunkOwner owner{8, 1};
  (void)pool.Allocate(owner);
  (void)pool.Allocate(owner, KiB(10));
  (void)pool.Allocate(owner, KiB(200));
  ASSERT_EQ(pool.allocated_count(), 3u);
  pool.Reset();
  EXPECT_EQ(pool.free_chunks(), 8u);
  EXPECT_EQ(pool.free_bytes(), MiB(8));
  EXPECT_EQ(pool.allocated_count(), 0u);
  EXPECT_TRUE(pool.AllocatedChunks().empty());
}

TEST(ChunkPoolTest, ForceFreeIgnoresOwner) {
  ChunkPool pool(SmallPool());
  auto handle = *pool.Allocate(ChunkOwner{9, 3});
  ASSERT_TRUE(pool.ForceFree(handle).ok());
  EXPECT_EQ(pool.free_chunks(), 8u);
  EXPECT_TRUE(pool.AllocatedChunks().empty());
  EXPECT_EQ(pool.ForceFree(handle).code(), StatusCode::kFailedPrecondition);
}

TEST(ChunkPoolTest, AllocatedChunksSpansAllSegments) {
  // Two chunks per segment: five allocations land in three segments.
  ChunkPoolConfig config = SmallPool();
  config.max_segment_size = MiB(2);
  ChunkPool pool(config);
  ASSERT_EQ(pool.segments(), 4u);
  std::unordered_set<ChunkHandle> allocated;
  for (uint64_t task = 1; task <= 5; ++task) {
    allocated.insert(*pool.Allocate(ChunkOwner{task, 0}));
  }
  auto chunks = pool.AllocatedChunks();
  ASSERT_EQ(chunks.size(), 5u);
  std::unordered_set<uint32_t> segments;
  for (const auto& [handle, owner] : chunks) {
    EXPECT_TRUE(allocated.count(handle));
    EXPECT_EQ(*pool.OwnerOf(handle), owner);
    segments.insert(handle.segment);
  }
  EXPECT_EQ(segments.size(), 3u);
}

TEST(ChunkPoolTest, FragBytesCountsTheUnusedTailOfDeclaredChunks) {
  obs::Counter* frag =
      obs::Registry::Default().counter("sponge.pool.frag_bytes");
  ChunkPool pool(SmallPool());
  ChunkOwner owner{3, 0};
  const uint64_t before = frag->value();
  // A declared 10 KiB chunk still takes a whole 1 MiB slot.
  auto handle = *pool.Allocate(owner, KiB(10));
  EXPECT_EQ(frag->value() - before, MiB(1) - KiB(10));
  // Full and undeclared chunks waste nothing.
  (void)pool.Allocate(owner, MiB(1));
  (void)pool.Allocate(owner);
  EXPECT_EQ(frag->value() - before, MiB(1) - KiB(10));
  // The counter is cumulative: a free does not take the waste back.
  ASSERT_TRUE(pool.Free(handle, owner).ok());
  (void)pool.Allocate(owner, KiB(512));
  EXPECT_EQ(frag->value() - before, (MiB(1) - KiB(10)) + KiB(512));
}

TEST(ChunkPoolTest, LockModelChargesWaitPlusHold) {
  sim::Engine engine;
  ChunkPoolConfig config = SmallPool();
  config.lock_hold = Micros(2);
  ChunkPool pool(config, &engine);
  ChunkOwner owner{1, 0};
  // Back-to-back at the same instant: the first pays only its hold, the
  // second waits out that hold before paying its own.
  (void)pool.Allocate(owner);
  (void)pool.Allocate(owner);
  EXPECT_EQ(pool.TakeLockWait(), Micros(2) + Micros(4));
  EXPECT_EQ(pool.TakeLockWait(), Duration{0});  // collected exactly once
  EXPECT_EQ(pool.lock_wait_total(), Micros(6));
}

TEST(ChunkPoolTest, FreesOccupyTheLockWithoutBeingCharged) {
  sim::Engine engine;
  ChunkPoolConfig config = SmallPool();
  config.lock_hold = Micros(2);
  ChunkPool pool(config, &engine);
  ChunkOwner owner{1, 0};
  auto handle = *pool.Allocate(owner);
  (void)pool.TakeLockWait();
  // Later, a free and an allocation at the same instant: the free holds
  // the one lock, so the allocation waits out its hold, then pays its own.
  auto run = [&]() -> sim::Task<> {
    co_await engine.Delay(Micros(100));
    EXPECT_TRUE(pool.Free(handle, owner).ok());
    (void)pool.Allocate(owner);
  };
  engine.Spawn(run());
  engine.Run();
  EXPECT_EQ(pool.TakeLockWait(), Micros(4));
}

TEST(ChunkPoolTest, HandlesAndOwnersAreHashable) {
  ChunkPool pool(SmallPool());
  std::unordered_map<ChunkHandle, ChunkOwner> live;
  for (int i = 1; i <= 4; ++i) {
    ChunkOwner owner{static_cast<uint64_t>(i), 0};
    live.emplace(*pool.Allocate(owner), owner);
    live.emplace(*pool.Allocate(owner, KiB(10)), owner);
  }
  EXPECT_EQ(live.size(), 8u);
  std::unordered_map<ChunkOwner, uint64_t> held;
  for (const auto& [handle, owner] : pool.AllocatedChunks()) {
    ASSERT_TRUE(live.count(handle));
    EXPECT_EQ(live.at(handle), owner);
    ++held[owner];
  }
  EXPECT_EQ(held.size(), 4u);
  EXPECT_EQ(held.at(ChunkOwner{2, 0}), 2u);
  // The handle hash is the SplitMix64 finalizer over (segment << 32) ^
  // index; pinned so a hashed container's iteration order stays stable.
  EXPECT_EQ(std::hash<ChunkHandle>{}(ChunkHandle{0, 0}), 0u);
  EXPECT_EQ(std::hash<ChunkHandle>{}(ChunkHandle{1, 2}),
            static_cast<size_t>(0xf2c6924e7dfed23eull));
}

}  // namespace
}  // namespace spongefiles::sponge
