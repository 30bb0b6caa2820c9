#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "mapred/job_tracker.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"
#include "workload/testbed.h"

namespace spongefiles {
namespace {

// --- ByteRuns::SubRange (used by rewindable spill files) ---

TEST(SubRangeTest, PreservesContentAndZeroRuns) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("header")));
  runs.AppendZeros(1000);
  runs.AppendLiteral(Slice(std::string_view("trailer")));
  ByteRuns middle = runs.SubRange(3, 1005);
  EXPECT_EQ(middle.size(), 1005u);
  // Zero runs stay unmaterialized: physical size is only the literals.
  EXPECT_EQ(middle.physical_size(), 3u + 2u);
  auto expected = runs.ToBytes();
  auto got = middle.ToBytes();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin() + 3));
}

TEST(SubRangeTest, FullAndEmptyRanges) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("abc")));
  EXPECT_EQ(runs.SubRange(0, 3).ToBytes(), runs.ToBytes());
  EXPECT_TRUE(runs.SubRange(1, 0).empty());
  EXPECT_TRUE(runs.SubRange(3, 0).empty());
}

class SubRangePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubRangePropertyTest, MatchesMaterializedSlice) {
  Rng rng(GetParam());
  ByteRuns runs;
  std::string model;
  for (int i = 0; i < 50; ++i) {
    if (rng.Bernoulli(0.5)) {
      std::string data(rng.Uniform(100) + 1, static_cast<char>(
                                                 'a' + rng.Uniform(26)));
      runs.AppendLiteral(Slice(data));
      model += data;
    } else {
      uint64_t n = rng.Uniform(200) + 1;
      runs.AppendZeros(n);
      model += std::string(n, '\0');
    }
  }
  for (int i = 0; i < 100; ++i) {
    uint64_t offset = rng.Uniform(model.size());
    uint64_t n = rng.Uniform(model.size() - offset + 1);
    auto got = runs.SubRange(offset, n).ToBytes();
    EXPECT_EQ(std::string(got.begin(), got.end()),
              model.substr(offset, n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubRangePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// --- SpongeFile round-trip across configuration space ---

struct RoundTripCase {
  bool direct_local;
  bool prefetch;
  bool async_write;
  bool affinity;
  uint64_t chunk_size;
  uint64_t sponge_per_node;
};

// Prints a case by its fields; this also names the discovered ctest cases.
// gtest would otherwise print the raw struct bytes, padding included, so
// the names changed from one test listing to the next.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << (c.direct_local ? "Direct" : "Rpc")
      << (c.prefetch ? "Prefetch" : "NoPrefetch")
      << (c.async_write ? "Async" : "Sync")
      << (c.affinity ? "Affinity" : "NoAffinity") << "_"
      << c.chunk_size / kKiB << "K_" << c.sponge_per_node / kKiB << "K";
}

class SpongeRoundTripTest
    : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SpongeRoundTripTest, ChecksumSurvivesEveryConfig) {
  const RoundTripCase& param = GetParam();
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 5;
  cc.node.sponge_memory = param.sponge_per_node;
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig config;
  config.direct_local_access = param.direct_local;
  config.prefetch = param.prefetch;
  config.async_write = param.async_write;
  config.affinity = param.affinity;
  config.chunk_size = param.chunk_size;
  sponge::SpongeEnv env(&cluster, &dfs, config);
  engine.Spawn(env.tracker().PollOnce());
  engine.Run();

  sponge::TaskContext task = env.StartTask(0);
  sponge::SpongeFile file(&env, &task, "roundtrip");
  Rng rng(99);
  Checksum written;
  Status status;
  uint64_t written_bytes = 0;
  uint64_t read_bytes = 0;
  Checksum read_back;
  auto run = [&]() -> sim::Task<> {
    // ~7.3 MB in odd-sized bursts: spans local + remote, partial chunks.
    for (int i = 0; i < 25; ++i) {
      std::string burst(123456 + rng.Uniform(234567), '\0');
      for (auto& c : burst) c = static_cast<char>(rng.Uniform(256));
      written.Update(Slice(burst));
      written_bytes += burst.size();
      status = co_await file.AppendBytes(Slice(burst));
      if (!status.ok()) co_return;
    }
    status = co_await file.Close();
    if (!status.ok()) co_return;
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        status = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
      auto bytes = chunk->ToBytes();
      read_back.Update(Slice(bytes));
      read_bytes += bytes.size();
    }
    co_await file.Delete();
  };
  engine.Spawn(run());
  engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_bytes, written_bytes);
  EXPECT_EQ(read_back.digest(), written.digest());
  // Nothing leaks anywhere in the cluster.
  for (size_t n = 0; n < cluster.size(); ++n) {
    EXPECT_TRUE(env.server(n).pool().AllocatedChunks().empty());
    EXPECT_EQ(cluster.node(n).fs().used(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SpongeRoundTripTest,
    ::testing::Values(
        RoundTripCase{true, true, true, true, MiB(1), MiB(4)},
        RoundTripCase{false, true, true, true, MiB(1), MiB(4)},
        RoundTripCase{true, false, false, true, MiB(1), MiB(4)},
        RoundTripCase{true, true, false, false, MiB(1), MiB(4)},
        RoundTripCase{true, false, true, true, KiB(256), MiB(2)},
        RoundTripCase{true, true, true, true, MiB(4), MiB(8)},
        RoundTripCase{true, true, true, true, MiB(1), 0},     // all disk
        RoundTripCase{true, true, true, true, KiB(64), MiB(1)}));

// --- Simulation determinism ---

Duration RunSeededJob(uint64_t seed) {
  workload::TestbedConfig bed_config;
  workload::Testbed bed(bed_config);
  workload::WebDatasetConfig web_config;
  web_config.total_bytes = MiB(512);
  web_config.seed = seed;
  workload::WebDataset web(&bed.dfs(), "web", web_config);
  auto result = bed.RunJob(workload::MakeAnchortextJob(
      &web, mapred::SpillMode::kSponge));
  EXPECT_TRUE(result.ok());
  return result.ok() ? result->runtime : 0;
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuntimes) {
  Duration first = RunSeededJob(7);
  Duration second = RunSeededJob(7);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentSeedsDifferentData) {
  Duration first = RunSeededJob(7);
  Duration other = RunSeededJob(8);
  // Different data, almost surely different timing.
  EXPECT_NE(first, other);
}

// --- Failure + GC integration ---

TEST(FailureIntegrationTest, CrashedAttemptChunksAreGarbageCollected) {
  // A task spills to local and remote memory, then dies without deleting,
  // while a task on another node stays alive holding one remote chunk.
  // SpongeEnv::SweepAll must reclaim the dead task's chunks on every
  // server and count the live chunk as still allocated.
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 3;
  cc.node.sponge_memory = MiB(2);
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeEnv env(&cluster, &dfs, sponge::SpongeConfig{});
  const sponge::TaskContext live = env.StartTask(2);
  ASSERT_TRUE(env.server(1)
                  .pool()
                  .Allocate(sponge::ChunkOwner{live.task_id, live.node})
                  .ok());
  engine.Spawn(env.tracker().PollOnce());
  engine.Run();

  auto task = std::make_unique<sponge::TaskContext>(env.StartTask(0));
  const uint64_t doomed = task->task_id;
  auto file = std::make_unique<sponge::SpongeFile>(&env, task.get(),
                                                   "doomed");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(5));
    (void)co_await file->Append(std::move(data));
    (void)co_await file->Close();
  };
  engine.Spawn(run());
  engine.Run();
  auto doomed_chunks = [&](size_t node) {
    uint64_t held = 0;
    for (const auto& [handle, owner] :
         env.server(node).pool().AllocatedChunks()) {
      if (owner.task_id == doomed) ++held;
    }
    return held;
  };
  uint64_t allocated = 0;
  for (size_t n = 0; n < 3; ++n) {
    // Every server holds some, so a sweep that skips one leaves a leak.
    EXPECT_GT(doomed_chunks(n), 0u) << "node " << n;
    allocated += doomed_chunks(n);
  }
  EXPECT_EQ(allocated, 5u);

  // The task dies without cleanup (its file object just goes away).
  env.EndTask(*task);

  uint64_t remaining = 0;
  auto sweep = [&]() -> sim::Task<> { remaining = co_await env.SweepAll(); };
  engine.Spawn(sweep());
  engine.Run();
  EXPECT_EQ(remaining, 1u);
  uint64_t reclaimed = 0;
  for (size_t n = 0; n < 3; ++n) {
    reclaimed += env.server(n).gc_reclaimed();
    EXPECT_EQ(doomed_chunks(n), 0u) << "node " << n;
  }
  EXPECT_EQ(reclaimed, 5u);
  const auto survivors = env.server(1).pool().AllocatedChunks();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].second.task_id, live.task_id);
}

TEST(FailureIntegrationTest, JobSurvivesMidRunNodeCrash) {
  workload::TestbedConfig bed_config;
  bed_config.sponge_memory = MiB(128);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);
  sponge::FailureInjector injector(&bed.env(), 3);
  injector.ScheduleCrash(1, Seconds(20), Seconds(5));
  auto result = bed.RunJob(
      workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output[0].number, numbers.expected_median());
}

}  // namespace
}  // namespace spongefiles
