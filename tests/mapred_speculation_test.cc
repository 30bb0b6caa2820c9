// Speculative execution end-to-end: the JobTracker watches per-attempt
// progress and launches one backup for a task lagging the wave's median,
// first attempt to commit wins, and the loser is killed and deregistered.
// These tests pin down both races deterministically — a degraded-disk
// straggler whose backup wins, and a small-split false positive whose
// original wins — plus the two properties the attempt refactor exists
// for: a killed attempt's abort can never clobber the job status (each
// primary driver reports exactly one outcome through the result channel),
// and a cancelled attempt's sponge chunks are reclaimed by the ordinary
// dead-task GC.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/dfs.h"
#include "common/table.h"
#include "common/units.h"
#include "mapred/job.h"
#include "obs/metrics.h"
#include "sponge/failure.h"
#include "workload/testbed.h"

namespace spongefiles {
namespace {

struct SpecCounters {
  uint64_t launched;
  uint64_t won;
  uint64_t cancelled;

  static SpecCounters Snapshot() {
    obs::Registry& registry = obs::Registry::Default();
    return {
        registry.counter("mapred.speculation.launched")->value(),
        registry.counter("mapred.speculation.won")->value(),
        registry.counter("mapred.speculation.cancelled")->value(),
    };
  }
};

// Tight knobs so a straggler is flagged within a couple of simulated
// seconds (the defaults are tuned for long production tasks).
mapred::SpeculationConfig AggressiveSpeculation() {
  mapred::SpeculationConfig spec;
  spec.enabled = true;
  spec.check_period = Millis(500);
  spec.min_attempt_age = Seconds(2);
  return spec;
}

struct MedianRun {
  Status status;
  Duration runtime = 0;
  std::vector<mapred::Record> output;
  std::vector<mapred::TaskStats> map_tasks;
  double expected_median = 0;
};

// Median job on an 8-node testbed with the disk under the first split's
// node running 30x slow: that map's sort/spill/merge IO crawls while its
// rack peers finish, so the speculation monitor flags it. The backup
// still pays the slow remote scan (the block lives on the sick disk) but
// escapes the 30x spill path, and commits first. Pinned memory shrinks
// the OS buffer cache to ~48 MB so the spill stream really reaches the
// disk instead of parking in write-back cache.
MedianRun RunMedianWithSlowDisk(bool speculate) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.sponge_memory = MiB(64);
  bed_config.node_memory = GiB(4);
  bed_config.pinned_memory = MiB(400);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);
  auto straggler_node = bed.dfs().BlockLocation("nums", 0);
  EXPECT_TRUE(straggler_node.ok());

  sponge::FailureInjector injector(&bed.env(), 1);
  injector.ScheduleDiskSlowdown(*straggler_node, Millis(100), /*factor=*/30.0,
                                Minutes(5));

  auto job = workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  if (speculate) job.speculation = AggressiveSpeculation();

  MedianRun run;
  run.expected_median = numbers.expected_median();
  auto result = bed.RunJob(std::move(job));
  run.status = result.status();
  if (!result.ok()) return run;
  run.runtime = result->runtime;
  run.output = result->output;
  run.map_tasks = result->map_tasks;
  return run;
}

TEST(SpeculationTest, BackupWinsForDegradedDiskStraggler) {
  SpecCounters before = SpecCounters::Snapshot();
  MedianRun run = RunMedianWithSlowDisk(/*speculate=*/true);
  SpecCounters after = SpecCounters::Snapshot();

  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.output.size(), 1u);
  EXPECT_EQ(run.output[0].number, run.expected_median);
  // One race, won by the backup; the killed original is its one
  // cancellation.
  EXPECT_EQ(after.launched - before.launched, 1u);
  EXPECT_EQ(after.won - before.won, 1u);
  EXPECT_EQ(after.cancelled - before.cancelled, 1u);
  bool backup_produced_a_map = false;
  for (const auto& stats : run.map_tasks) {
    if (stats.speculative) {
      backup_produced_a_map = true;
      EXPECT_GE(stats.attempts, 2);
      // The backup ran away from the block's (sick) node.
      EXPECT_FALSE(stats.data_local);
    }
  }
  EXPECT_TRUE(backup_produced_a_map);

  // Deterministic per seed: the identical scenario replays tick-for-tick.
  MedianRun replay = RunMedianWithSlowDisk(/*speculate=*/true);
  ASSERT_TRUE(replay.status.ok()) << replay.status.ToString();
  EXPECT_EQ(replay.runtime, run.runtime);
  EXPECT_EQ(replay.output, run.output);
}

TEST(SpeculationTest, SpeculationBeatsTheStragglerEndToEnd) {
  // Same fault with and without speculation: backups must shorten the
  // job, never change its answer.
  MedianRun plain = RunMedianWithSlowDisk(/*speculate=*/false);
  MedianRun speculated = RunMedianWithSlowDisk(/*speculate=*/true);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  ASSERT_TRUE(speculated.status.ok()) << speculated.status.ToString();
  EXPECT_EQ(plain.output, speculated.output);
  EXPECT_LT(speculated.runtime, plain.runtime);
}

// An input whose first split is a fraction of the others: its map has
// genuinely less work, so its absolute progress trails the wave median
// and the monitor flags it — a false positive. The original (nearly done)
// must commit first and the backup must die without a trace.
class SkewedSplits : public mapred::InputFormat {
 public:
  explicit SkewedSplits(cluster::Dfs* dfs) {
    (void)dfs->CreateFile("skew", kSplits * cluster::Dfs::kBlockSize);
  }

  std::vector<mapred::InputSplit> Splits() override {
    std::vector<mapred::InputSplit> splits;
    for (size_t i = 0; i < kSplits; ++i) {
      mapred::InputSplit split;
      split.dfs_file = "skew";
      split.offset = i * cluster::Dfs::kBlockSize;
      split.bytes = i == 0 ? MiB(24) : cluster::Dfs::kBlockSize;
      uint64_t records = split.bytes / KiB(10);
      split.generate = [records]() {
        std::vector<mapred::Record> out;
        out.reserve(records);
        for (uint64_t j = 0; j < records; ++j) {
          mapred::Record r;
          r.key = StrFormat("k%06d", static_cast<int>(j));
          r.number = static_cast<double>(j);
          r.size = KiB(10);
          out.push_back(std::move(r));
        }
        return out;
      };
      splits.push_back(std::move(split));
    }
    return splits;
  }

 private:
  static constexpr size_t kSplits = 8;
};

TEST(SpeculationTest, OriginalWinsAndCancelledBackupCannotClobberJob) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  workload::Testbed bed(bed_config);
  SkewedSplits input(&bed.dfs());

  mapred::JobConfig job;
  job.name = "skewed-scan";
  job.input = &input;
  job.reducer_factory = nullptr;  // map-only
  job.map_cpu_per_record = Millis(1);
  job.speculation = AggressiveSpeculation();

  SpecCounters before = SpecCounters::Snapshot();
  auto result = bed.RunJob(std::move(job));
  SpecCounters after = SpecCounters::Snapshot();

  // The killed backup aborts with a non-OK status; because only primary
  // drivers feed the attempt-result channel, the job result stays OK.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(after.launched - before.launched, 1u);
  EXPECT_EQ(after.won - before.won, 0u);
  EXPECT_EQ(after.cancelled - before.cancelled, 1u);
  ASSERT_EQ(result->map_tasks.size(), 8u);
  EXPECT_EQ(result->map_tasks[0].attempts, 2);
  for (const auto& stats : result->map_tasks) {
    EXPECT_FALSE(stats.speculative);
    EXPECT_TRUE(stats.completed);
  }
}

struct ShuffleRun {
  Status status;
  std::vector<mapred::Record> output;
  std::vector<mapred::TaskStats> reduce_tasks;
  uint64_t leaked_chunks = 0;
  uint64_t backups_won = 0;
  uint64_t backups_cancelled = 0;
};

// Sums the (integer) values of each key; integer sums are exact, so the
// result is independent of value arrival order and comparable between a
// clean run and one where a backup replaced the original attempt.
class KeySumReducer : public mapred::Reducer {
 public:
  sim::Task<Status> StartKey(std::string key) override {
    key_ = std::move(key);
    sum_ = 0;
    co_return Status::OK();
  }
  bool AddValue(mapred::Record value) override {
    sum_ += value.number;
    return false;
  }
  sim::Task<Status> FinishKey() override {
    mapred::Record out;
    out.key = key_;
    out.number = sum_;
    ctx_->output->push_back(std::move(out));
    co_return Status::OK();
  }
  sim::Task<Status> Finish() override { co_return Status::OK(); }

 private:
  std::string key_;
  double sum_ = 0;
};

// A uniform 8-partition shuffle (key = record number mod 8) on 10 nodes;
// when `degrade` is set, one reducer's NIC picks up +250 ms per transfer
// so its shuffle crawls while every other partition — same size by
// construction — commits quickly, making the straggler flag both certain
// and deterministic. Small reduce heaps force shuffle spills through the
// sponge, so the killed loser owns live chunks at kill time. Two
// properties keep the gray fault confined to the victim's shuffle:
// fetches ride raw network transfers (no RPC deadline to bust), and the
// pools are roomy enough that every reduce spills into *local* sponge
// memory — no sponge RPC ever crosses the victim's sick link, so no
// circuit breaker anywhere can trip on collateral traffic.
ShuffleRun RunUniformShuffle(bool degrade) {
  constexpr int kPartitions = 8;
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 10;
  // Each partition's ~131 MB of spills (plus merge rewrites) must fit in
  // the reducer's local pool — see the header comment.
  bed_config.sponge_memory = MiB(512);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  // 1 GB in eight 128 MB splits: the victim's crawling fetch camps on one
  // of eight source NICs at a time, so healthy attempts (and the backup)
  // keep seven fast sources and finish ~5x sooner.
  data.count = 102400;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);
  const uint64_t file_bytes = 8 * cluster::Dfs::kBlockSize;

  // A node in the reduce range [1, 8) that hosts no input block, so the
  // sick NIC touches exactly one reduce attempt and no map scans.
  size_t victim = 0;
  for (size_t node = 1; node < kPartitions && victim == 0; ++node) {
    bool holds_block = false;
    for (uint64_t off = 0; off < file_bytes;
         off += cluster::Dfs::kBlockSize) {
      auto loc = bed.dfs().BlockLocation("nums", off);
      if (loc.ok() && *loc == node) {
        holds_block = true;
        break;
      }
    }
    if (!holds_block) victim = node;
  }
  EXPECT_NE(victim, 0u) << "every candidate node holds a block";

  sponge::FailureInjector injector(&bed.env(), 1);
  constexpr Duration kWindow = Minutes(2);
  if (degrade) {
    injector.ScheduleLinkDegradation(victim, Millis(500),
                                     /*bandwidth_factor=*/0.1,
                                     /*extra_latency=*/Millis(250), kWindow);
  }

  mapred::JobConfig job;
  job.name = "uniform-shuffle";
  job.input = &numbers;
  job.num_reducers = kPartitions;
  job.spill_mode = mapred::SpillMode::kSponge;
  job.reduce_heap_bytes = MiB(2);
  job.speculation = AggressiveSpeculation();
  job.map_fn = [](const mapred::Record& in,
                  std::vector<mapred::Record>* out) {
    mapred::Record r = in;
    r.key = std::string(1, static_cast<char>(
        'a' + static_cast<uint64_t>(in.number) % kPartitions));
    out->push_back(std::move(r));
  };
  job.partitioner = [](const mapred::Record& record, int reducers) {
    return static_cast<size_t>(record.key[0] - 'a') %
           static_cast<size_t>(reducers);
  };
  job.reducer_factory = [] { return std::make_unique<KeySumReducer>(); };

  SpecCounters before = SpecCounters::Snapshot();
  ShuffleRun run;
  auto result = bed.RunJob(std::move(job));
  SpecCounters after = SpecCounters::Snapshot();
  run.backups_won = after.won - before.won;
  run.backups_cancelled = after.cancelled - before.cancelled;
  run.status = result.status();
  if (!result.ok()) return run;
  run.output = result->output;
  run.reduce_tasks = result->reduce_tasks;

  // Let the degradation window close, then GC-sweep every server and
  // count survivors: a cancelled attempt must leak nothing.
  std::optional<uint64_t> leaked = bed.SettleAndSweep(
      std::max(bed.engine().now(), Millis(500) + kWindow) + Seconds(10));
  EXPECT_TRUE(leaked.has_value()) << "GC sweep did not finish";
  run.leaked_chunks = leaked.value_or(0);
  return run;
}

TEST(SpeculationTest, CancelledAttemptLeaksNoChunksAfterGc) {
  ShuffleRun faulted = RunUniformShuffle(/*degrade=*/true);
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  // The crawling reduce was speculated and lost; its killed attempt was
  // deregistered, so the sweep finds nothing left behind.
  EXPECT_EQ(faulted.backups_won, 2u);
  EXPECT_EQ(faulted.backups_cancelled, 4u);
  EXPECT_EQ(faulted.leaked_chunks, 0u);

  ShuffleRun clean = RunUniformShuffle(/*degrade=*/false);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.leaked_chunks, 0u);
  // The aggressive monitor fires in the clean run too; the originals
  // win every race.
  EXPECT_EQ(clean.backups_won, 0u);
  EXPECT_EQ(clean.backups_cancelled, 2u);
  // Backups may race but must never change what the job computes.
  EXPECT_EQ(faulted.output, clean.output);
}

}  // namespace
}  // namespace spongefiles
