// Property test for the chunk pool: a naive reference model — a hash map
// of live handles with their owners — is driven through random allocate /
// free / wrong-owner free / double free / force-free / reset sequences
// alongside the real ChunkPool, and after every step the pool's books must
// agree with the model exactly: allocation count, byte conservation (free
// bytes + live chunks * chunk_size == capacity), per-task held counts, and
// the AllocatedChunks() index. Runs over several seeds, on a pool whose
// chunks span several segments and on one with a single flat segment, and
// must end with zero leaked bytes once the model drains.
//
// The model's containers are keyed by ChunkHandle and ChunkOwner through
// their std::hash specializations, so this test is also the consumer-side
// check for those hashes (collisions would surface as spurious
// "duplicate handle" failures).

#include "sponge/chunk_pool.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace spongefiles::sponge {
namespace {

void CheckBooks(const ChunkPool& pool,
                const std::unordered_map<ChunkHandle, ChunkOwner>& live,
                uint64_t capacity) {
  ASSERT_EQ(pool.allocated_count(), live.size());

  // Byte conservation: every byte is either free or in a live chunk.
  ASSERT_EQ(pool.free_bytes() + live.size() * pool.chunk_size(), capacity);

  // AllocatedChunks must list exactly the model's live set.
  auto chunks = pool.AllocatedChunks();
  ASSERT_EQ(chunks.size(), live.size());
  std::unordered_set<ChunkHandle> listed;
  for (const auto& [handle, owner] : chunks) {
    ASSERT_TRUE(listed.insert(handle).second) << "duplicate handle listed";
    auto entry = live.find(handle);
    ASSERT_TRUE(entry != live.end());
    ASSERT_EQ(entry->second, owner);
  }
}

void RunModel(uint64_t seed, uint64_t max_segment_size) {
  ChunkPoolConfig config;
  config.pool_size = MiB(4);  // 4 chunks: exhaustion is common
  config.chunk_size = MiB(1);
  config.max_segment_size = max_segment_size;
  ChunkPool pool(config);
  const uint64_t capacity = MiB(4);

  Rng rng(seed);
  std::unordered_map<ChunkHandle, ChunkOwner> live;
  std::vector<ChunkHandle> order;  // live handles, for random picks

  auto pick = [&]() -> ChunkHandle {
    return order[rng.Uniform(order.size())];
  };
  auto drop = [&](ChunkHandle handle) {
    live.erase(handle);
    for (auto& h : order) {
      if (h == handle) {
        h = order.back();
        order.pop_back();
        break;
      }
    }
  };

  for (int step = 0; step < 2000; ++step) {
    uint64_t op = rng.Uniform(100);
    if (op < 55) {  // allocate
      ChunkOwner owner{1 + rng.Uniform(6), rng.Uniform(4) == 0 ? 1u : 0u,
                       rng.Uniform(8) == 0};
      // Declared sizes: undeclared (0), partial, or a full chunk.
      uint64_t bytes = rng.Uniform(3) == 0 ? 0 : 1 + rng.Uniform(MiB(1));
      auto handle = pool.Allocate(owner, bytes);
      if (handle.ok()) {
        ASSERT_FALSE(live.count(*handle)) << "handle already live";
        auto stamped = pool.OwnerOf(*handle);
        ASSERT_TRUE(stamped.ok());
        ASSERT_EQ(*stamped, owner);
        live.emplace(*handle, owner);
        order.push_back(*handle);
      } else {
        ASSERT_EQ(handle.status().code(), StatusCode::kResourceExhausted);
        // Exhaustion with a chunk free would be a lost-capacity bug.
        ASSERT_EQ(pool.free_bytes(), 0u);
      }
    } else if (op < 80) {  // free by the rightful owner
      if (order.empty()) continue;
      ChunkHandle victim = pick();
      ASSERT_TRUE(pool.Free(victim, live.at(victim)).ok());
      drop(victim);
    } else if (op < 87) {  // free by an impostor: rejected, still live
      if (order.empty()) continue;
      ChunkHandle victim = pick();
      ChunkOwner impostor = live.at(victim);
      impostor.task_id += 1000;
      ASSERT_EQ(pool.Free(victim, impostor).code(),
                StatusCode::kFailedPrecondition);
      ASSERT_TRUE(pool.OwnerOf(victim).ok());
    } else if (op < 93) {  // force-free (the GC path)
      if (order.empty()) continue;
      ChunkHandle victim = pick();
      ASSERT_TRUE(pool.ForceFree(victim).ok());
      drop(victim);
    } else if (op < 98) {  // double free: rejected
      if (order.empty()) continue;
      ChunkHandle victim = pick();
      ChunkOwner owner = live.at(victim);
      ASSERT_TRUE(pool.Free(victim, owner).ok());
      drop(victim);
      ASSERT_FALSE(pool.Free(victim, owner).ok());
    } else {  // node crash
      pool.Reset();
      live.clear();
      order.clear();
    }
    CheckBooks(pool, live, capacity);
  }

  // Drain the model: the pool must hand every byte back.
  for (ChunkHandle handle : order) {
    ASSERT_TRUE(pool.Free(handle, live.at(handle)).ok());
  }
  EXPECT_EQ(pool.allocated_count(), 0u);
  EXPECT_EQ(pool.free_bytes(), capacity) << "leaked bytes after drain";
  EXPECT_EQ(pool.free_chunks(), pool.total_chunks());
}

// Two chunks per segment: the 4 chunks span two segments.
TEST(ChunkPoolModelTest, TieredPoolMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunModel(seed, MiB(2));
  }
}

// One segment holds the whole pool.
TEST(ChunkPoolModelTest, FlatPoolMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunModel(seed, MiB(4));
  }
}

}  // namespace
}  // namespace spongefiles::sponge
