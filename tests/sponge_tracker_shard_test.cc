// Sharded-tracker coverage: one shard per rack, gossip-fed cross-rack
// visibility. The contracts under test: a shard outage blinds only its own
// rack (other racks keep remote-memory spilling), stale digests age out of
// merged answers instead of attracting doomed allocations, a gossip
// partition degrades only the cross-rack rung and heals after reconnect
// with zero leaked chunks, and chaos schedules with shard faults stay
// deterministic per seed.

#include "sponge/memory_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

namespace spongefiles::sponge {
namespace {

// A multi-rack cluster with small sponge pools (4 one-MB chunks per node).
struct RackFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;

  explicit RackFixture(size_t num_nodes, size_t nodes_per_rack,
                       SpongeConfig config = {},
                       MemoryTrackerConfig tracker_config = {}) {
    cluster::ClusterConfig cc;
    cc.num_nodes = num_nodes;
    cc.nodes_per_rack = nodes_per_rack;
    cc.node.sponge_memory = MiB(4);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(), config,
                                      SpongeServerConfig{}, tracker_config);
    // Prime every shard's free list and run one gossip exchange.
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  Result<std::vector<FreeSpaceEntry>> QueryFrom(size_t node) {
    Result<std::vector<FreeSpaceEntry>> out = std::vector<FreeSpaceEntry>{};
    auto run = [](SpongeEnv* e, size_t from,
                  Result<std::vector<FreeSpaceEntry>>* result) -> sim::Task<> {
      *result = co_await e->tracker().Query(from);
    };
    engine.Spawn(run(env.get(), node, &out));
    engine.RunUntil(engine.now() + Seconds(1));
    return out;
  }

  // Spills 12 MiB through `file`'s cascade and closes it. Advances the
  // clock only as far as the spill needs, so gossiped digests do not age
  // out under tests that expect them fresh.
  SpongeFile::Stats Spill(SpongeFile* file) {
    bool done = false;
    auto run = [](SpongeFile* f, bool* finished) -> sim::Task<> {
      ByteRuns data;
      data.AppendZeros(MiB(12));
      (void)co_await f->Append(std::move(data));
      (void)co_await f->Close();
      *finished = true;
    };
    engine.Spawn(run(file, &done));
    const SimTime deadline = engine.now() + Minutes(10);
    while (!done && engine.now() < deadline) {
      engine.RunUntil(engine.now() + Seconds(1));
    }
    return file->stats();
  }

  uint64_t AllocatedChunksTotal() {
    uint64_t total = 0;
    for (size_t n = 0; n < cluster_->size(); ++n) {
      total += env->server(n).pool().AllocatedChunks().size();
    }
    return total;
  }
};

bool HasEntryOnRack(const std::vector<FreeSpaceEntry>& list, size_t rack) {
  for (const FreeSpaceEntry& entry : list) {
    if (entry.rack == rack) return true;
  }
  return false;
}

TEST(TrackerShardTest, ShardsHomeOnLowestNodeOfEachRack) {
  RackFixture f(/*num_nodes=*/6, /*nodes_per_rack=*/2);
  ASSERT_EQ(f.env->tracker().num_shards(), 3u);
  EXPECT_EQ(f.env->tracker().shard(0).home_node(), 0u);
  EXPECT_EQ(f.env->tracker().shard(1).home_node(), 2u);
  EXPECT_EQ(f.env->tracker().shard(2).home_node(), 4u);
}

TEST(TrackerShardTest, MergedViewCoversAllRacksAfterGossip) {
  RackFixture f(/*num_nodes=*/6, /*nodes_per_rack=*/2);
  auto list = f.QueryFrom(3);
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(HasEntryOnRack(*list, 0));
  EXPECT_TRUE(HasEntryOnRack(*list, 1));
  EXPECT_TRUE(HasEntryOnRack(*list, 2));
  // Sorted most-free-first regardless of which rack an entry came from.
  for (size_t i = 1; i < list->size(); ++i) {
    EXPECT_GE((*list)[i - 1].free_bytes, (*list)[i].free_bytes);
  }
}

TEST(TrackerShardTest, ShardOutageFailsOnlyItsOwnRacksQueries) {
  RackFixture f(/*num_nodes=*/6, /*nodes_per_rack=*/2);
  f.env->tracker().SetShardDown(0, true);
  auto blinded = f.QueryFrom(1);
  EXPECT_FALSE(blinded.ok());
  auto sighted = f.QueryFrom(2);
  ASSERT_TRUE(sighted.ok());
  EXPECT_TRUE(HasEntryOnRack(*sighted, 1));
  EXPECT_TRUE(HasEntryOnRack(*sighted, 2));
}

TEST(TrackerShardTest, ShardOutageDegradesOnlyItsRacksSpills) {
  SpongeConfig config;
  config.allow_cross_rack = true;
  RackFixture f(/*num_nodes=*/6, /*nodes_per_rack=*/2, config);
  f.env->tracker().SetShardDown(0, true);

  // A task on the blinded rack: 12 MiB = 4 local chunks, then the tracker
  // query fails and everything else falls to disk.
  TaskContext blinded_task = f.env->StartTask(0);
  SpongeFile blinded(f.env.get(), &blinded_task, "blinded");
  SpongeFile::Stats down = f.Spill(&blinded);
  EXPECT_EQ(down.chunks_local_memory, 4u);
  EXPECT_EQ(down.chunks_remote_memory, 0u);
  EXPECT_EQ(down.chunks_local_disk, 8u);

  // A task on a healthy rack keeps the full cascade: local, rack-local
  // remote, then cross-rack remote into the third rack.
  TaskContext healthy_task = f.env->StartTask(2);
  SpongeFile healthy(f.env.get(), &healthy_task, "healthy");
  SpongeFile::Stats up = f.Spill(&healthy);
  EXPECT_EQ(up.chunks_local_memory, 4u);
  EXPECT_GE(up.chunks_remote_memory, 8u);
  EXPECT_GT(up.chunks_remote_cross_rack, 0u);
  EXPECT_EQ(up.chunks_local_disk, 0u);
}

TEST(TrackerShardTest, DeadShardsDigestAgesOutOfOtherRacksAnswers) {
  MemoryTrackerConfig tracker_config;
  tracker_config.poll_period = Seconds(1);
  RackFixture f(/*num_nodes=*/6, /*nodes_per_rack=*/2, SpongeConfig{},
                tracker_config);
  f.env->tracker().Start();
  f.engine.RunUntil(f.engine.now() + Seconds(2));

  f.env->tracker().SetShardDown(0, true);
  auto still_fresh = f.QueryFrom(2);
  ASSERT_TRUE(still_fresh.ok());
  EXPECT_TRUE(HasEntryOnRack(*still_fresh, 0));

  // Past the 10 s staleness bound the dead rack vanishes from merged
  // answers; the healthy racks keep seeing each other (their digests stay
  // fresh).
  f.engine.RunUntil(f.engine.now() + Seconds(14));
  auto aged = f.QueryFrom(2);
  ASSERT_TRUE(aged.ok());
  EXPECT_FALSE(HasEntryOnRack(*aged, 0));
  EXPECT_TRUE(HasEntryOnRack(*aged, 1));
  EXPECT_TRUE(HasEntryOnRack(*aged, 2));

  f.env->StopServices();
  f.engine.Run();
}

// SpongeFile::AllocateRemote dedupes the tracker's list only against its
// affinity prefix, so a merged answer must never name a server twice —
// across gossip rounds, after a shard goes down, once its digest has aged
// out, and after it comes back.
TEST(TrackerShardTest, MergedViewListsEachServerOnce) {
  MemoryTrackerConfig tracker_config;
  tracker_config.poll_period = Seconds(1);
  RackFixture f(/*num_nodes=*/8, /*nodes_per_rack=*/2, SpongeConfig{},
                tracker_config);
  f.env->tracker().Start();
  bool saw_expired = false;
  for (int second = 0; second < 23; ++second) {
    if (second == 3) f.env->tracker().SetShardDown(0, true);
    if (second == 17) f.env->tracker().SetShardDown(0, false);
    f.engine.RunUntil(f.engine.now() + Seconds(1));
    for (size_t rack = 0; rack < f.env->tracker().num_shards(); ++rack) {
      std::vector<FreeSpaceEntry> view =
          f.env->tracker().shard(rack).MergedView(f.engine.now());
      std::set<size_t> nodes;
      for (const FreeSpaceEntry& entry : view) {
        EXPECT_TRUE(nodes.insert(entry.node).second)
            << "node " << entry.node << " listed twice by rack " << rack
            << "'s shard at second " << second;
      }
      if (rack != 0 && !HasEntryOnRack(view, 0)) saw_expired = true;
    }
  }
  // The dead shard's digest did age out of the other racks' answers.
  EXPECT_TRUE(saw_expired);

  f.env->StopServices();
  f.engine.Run();
}

TEST(TrackerShardTest, GossipPartitionHealsAndLeaksNothing) {
  MemoryTrackerConfig tracker_config;
  tracker_config.poll_period = Seconds(1);
  SpongeConfig config;
  config.allow_cross_rack = true;
  RackFixture f(/*num_nodes=*/4, /*nodes_per_rack=*/2, config,
                tracker_config);
  f.env->tracker().Start();
  f.engine.RunUntil(f.engine.now() + Seconds(2));

  // Partition rack 0's shard and let both sides' digests of each other
  // age out: cross-rack visibility is gone in both directions, but each
  // rack still answers from its own fresh polls.
  f.env->tracker().SetGossipPartitioned(0, true);
  f.engine.RunUntil(f.engine.now() + Seconds(14));
  auto rack0_view = f.QueryFrom(0);
  ASSERT_TRUE(rack0_view.ok());
  EXPECT_TRUE(HasEntryOnRack(*rack0_view, 0));
  EXPECT_FALSE(HasEntryOnRack(*rack0_view, 1));
  auto rack1_view = f.QueryFrom(2);
  ASSERT_TRUE(rack1_view.ok());
  EXPECT_FALSE(HasEntryOnRack(*rack1_view, 0));

  // A spill during the partition loses only the cross-rack rung: local,
  // then rack-local remote, then disk (no off-rack candidates visible).
  TaskContext partitioned_task = f.env->StartTask(0);
  SpongeFile partitioned(f.env.get(), &partitioned_task, "partitioned");
  SpongeFile::Stats during = f.Spill(&partitioned);
  EXPECT_EQ(during.chunks_remote_cross_rack, 0u);
  EXPECT_EQ(during.chunks_local_disk, 4u);

  // Heal. Reconnected gossip repopulates both directions within a couple
  // of rounds.
  f.env->tracker().SetGossipPartitioned(0, false);
  f.engine.RunUntil(f.engine.now() + Seconds(3));
  auto healed = f.QueryFrom(0);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(HasEntryOnRack(*healed, 1));

  // Deleting the partition-era file releases every chunk it placed — the
  // partition must not have leaked anything.
  auto cleanup = [](SpongeFile* file) -> sim::Task<> {
    co_await file->Delete();
  };
  f.engine.Spawn(cleanup(&partitioned));
  f.engine.RunUntil(f.engine.now() + Seconds(10));
  EXPECT_EQ(f.AllocatedChunksTotal(), 0u);

  f.env->StopServices();
  f.engine.Run();
}

TEST(TrackerShardTest, ChaosScheduleWithShardFaultsIsSeedDeterministic) {
  RackFixture a(/*num_nodes=*/6, /*nodes_per_rack=*/2);
  RackFixture b(/*num_nodes=*/6, /*nodes_per_rack=*/2);
  FailureInjector inj_a(a.env.get(), /*seed=*/7);
  FailureInjector inj_b(b.env.get(), /*seed=*/7);
  ChaosOptions options;
  options.start = Seconds(1);
  options.horizon = Seconds(60);
  options.num_faults = 40;
  EXPECT_EQ(inj_a.ScheduleChaos(options), inj_b.ScheduleChaos(options));
  EXPECT_EQ(inj_a.schedule(), inj_b.schedule());
  // With 40 draws over all kinds the shard faults must show up.
  bool saw_shard_fault = false;
  for (const FaultEvent& event : inj_a.schedule()) {
    if (event.kind == FaultKind::kTrackerShardOutage ||
        event.kind == FaultKind::kTrackerShardStale ||
        event.kind == FaultKind::kGossipPartition) {
      saw_shard_fault = true;
      EXPECT_LT(event.node, a.cluster_->num_racks());
    }
  }
  EXPECT_TRUE(saw_shard_fault);
}

}  // namespace
}  // namespace spongefiles::sponge
