#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/units.h"
#include "mapred/job_tracker.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {
namespace {

// Where the DFS placed a split file's only block.
size_t LocationOf(cluster::Dfs* dfs, const std::string& name) {
  return *dfs->BlockLocation(name, 0);
}

// One single-block DFS file per split, all on `node`: the DFS places a
// file by its name, so candidate names (`prefix` plus a counter) that
// land elsewhere are skipped. The node then holds more splits than it
// has slots.
class HotNodeInput : public InputFormat {
 public:
  HotNodeInput(cluster::Dfs* dfs, size_t node, size_t num_splits,
               uint64_t split_bytes, const std::string& prefix = "hot")
      : split_bytes_(split_bytes) {
    for (int k = 0; names_.size() < num_splits; ++k) {
      std::string name = prefix + std::to_string(k);
      (void)dfs->CreateFile(name, split_bytes);
      if (LocationOf(dfs, name) == node) names_.push_back(name);
    }
  }

  std::vector<InputSplit> Splits() override {
    std::vector<InputSplit> out;
    for (size_t i = 0; i < names_.size(); ++i) {
      InputSplit split;
      split.dfs_file = names_[i];
      split.offset = 0;
      split.bytes = split_bytes_;
      out.push_back(std::move(split));
    }
    return out;
  }

  std::vector<std::string> names_;

 private:
  uint64_t split_bytes_;
};

struct SchedFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  std::unique_ptr<JobTracker> tracker;

  SchedFixture() {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              sponge::SpongeConfig{});
    tracker = std::make_unique<JobTracker>(env.get(), dfs.get());
  }

  // Submits a job; `out` holds its result once the engine has run it.
  void Submit(JobConfig config, Result<JobResult>* out) {
    auto run = [](JobTracker* jt, JobConfig jc,
                  Result<JobResult>* result) -> sim::Task<> {
      *result = co_await jt->Run(std::move(jc));
    };
    engine.Spawn(run(tracker.get(), std::move(config), out));
  }

  Result<JobResult> RunJob(JobConfig config) {
    Result<JobResult> result = JobResult{};
    Submit(std::move(config), &result);
    engine.Run();
    return result;
  }
};

// n splits with no DFS bytes, split i holding one record keyed "p<i>";
// with KeyPartition, record i goes to reduce partition i.
class KeyedInput : public InputFormat {
 public:
  explicit KeyedInput(size_t n) : n_(n) {}

  std::vector<InputSplit> Splits() override {
    std::vector<InputSplit> out(n_);
    for (size_t i = 0; i < n_; ++i) {
      out[i].generate = [i] {
        Record record;
        record.key = "p" + std::to_string(i);
        record.size = 1000;
        return std::vector<Record>{record};
      };
    }
    return out;
  }

 private:
  size_t n_;
};

size_t KeyPartition(const Record& record, int) {
  return static_cast<size_t>(std::stoul(record.key.substr(1)));
}

// Logs each reduce attempt as it starts: its start time, then (once its
// first key arrives) that key, which names the partition.
class StartLogReducer : public Reducer {
 public:
  using Log = std::vector<std::pair<SimTime, std::string>>;

  StartLogReducer(Log* log, SimTime now) : log_(log), index_(log->size()) {
    log->emplace_back(now, "");
  }

  sim::Task<Status> StartKey(std::string key) override {
    if ((*log_)[index_].second.empty()) (*log_)[index_].second = key;
    co_return Status::OK();
  }
  bool AddValue(Record) override { return false; }
  sim::Task<Status> FinishKey() override { co_return Status::OK(); }

 private:
  Log* log_;
  size_t index_;
};

TEST(DelaySchedulingTest, RelaxationSpreadsHotNodeWork) {
  // Twelve splits on node 0's two map slots. Past the 0.5 s wait, the six
  // free slots elsewhere take maps 2-7 at once and maps 8-11 join the
  // relaxed queue; node 0 frees first and takes 8 and 9 from its own
  // queue, then the relaxed queue puts 10 and 11 on node 1. Recorded
  // values: they pin the slot hand-off order, not just the totals.
  SchedFixture f;
  HotNodeInput input(f.dfs.get(), 0, 12, MiB(32));
  JobConfig config;
  config.input = &input;
  config.locality_wait = Millis(500);
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<size_t> nodes = {0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1};
  ASSERT_EQ(result->map_tasks.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(result->map_tasks[i].node, nodes[i]) << "map " << i;
    EXPECT_EQ(result->map_tasks[i].data_local, nodes[i] == 0) << "map " << i;
  }
  EXPECT_EQ(result->runtime, 7402252);
}

TEST(DelaySchedulingTest, StrictLocalityNeverMigrates) {
  SchedFixture f;
  HotNodeInput input(f.dfs.get(), 0, 12, MiB(32));
  JobConfig config;
  config.input = &input;
  config.locality_wait = 0;  // disable relaxation
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->map_tasks.size(); ++i) {
    EXPECT_TRUE(result->map_tasks[i].data_local);
    EXPECT_EQ(result->map_tasks[i].node,
              LocationOf(f.dfs.get(), input.names_[i]));
  }
}

TEST(DelaySchedulingTest, MigrationImprovesHotNodeMakespan) {
  // Force genuine hotness: pick a name set that all hash to one node by
  // filtering candidate names.
  SchedFixture probe;
  std::vector<std::string> hot_names;
  size_t hot_node = 0;
  {
    // Find 8 file names whose first block lands on the same node.
    int counter = 0;
    while (hot_names.size() < 8 && counter < 10000) {
      std::string name = "probe" + std::to_string(counter++);
      (void)probe.dfs->CreateFile(name, MiB(32));
      size_t node = LocationOf(probe.dfs.get(), name);
      if (hot_names.empty()) hot_node = node;
      if (node == hot_node) hot_names.push_back(name);
    }
  }
  ASSERT_EQ(hot_names.size(), 8u);

  auto run_with = [&](Duration wait) {
    SchedFixture f;
    for (const auto& name : hot_names) {
      (void)f.dfs->CreateFile(name, MiB(32));
    }
    class Named : public InputFormat {
     public:
      Named(std::vector<std::string> names) : names_(std::move(names)) {}
      std::vector<InputSplit> Splits() override {
        std::vector<InputSplit> out;
        for (const auto& name : names_) {
          InputSplit split;
          split.dfs_file = name;
          split.bytes = MiB(32);
          out.push_back(std::move(split));
        }
        return out;
      }
      std::vector<std::string> names_;
    };
    Named input(hot_names);
    JobConfig config;
    config.input = &input;
    config.locality_wait = wait;
    // CPU-bound tasks (4 s of scan work per split): otherwise the hot
    // node's single disk is the bottleneck and migration cannot help.
    config.map_scan_bandwidth = 8.0 * 1024 * 1024;
    auto result = f.RunJob(std::move(config));
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->runtime : Duration{0};
  };

  Duration strict = run_with(0);
  Duration relaxed = run_with(Seconds(1));
  // 8 tasks on one 2-slot node = 4 waves strictly; relaxation uses the
  // other 6 slots.
  EXPECT_LT(relaxed, strict);
}

TEST(DelaySchedulingTest, PinnedReducesQueueForTheirNode) {
  // Three reduces pinned to node 2, which has one reduce slot, and one
  // pinned to node 0: node 2 runs its reduces one at a time, in
  // partition order.
  SchedFixture f;
  KeyedInput input(4);
  StartLogReducer::Log log;
  JobConfig config;
  config.input = &input;
  config.num_reducers = 4;
  config.partitioner = KeyPartition;
  config.reduce_pins = {{0, 2}, {1, 2}, {2, 2}, {3, 0}};
  config.reducer_factory = [&] {
    return std::make_unique<StartLogReducer>(&log, f.engine.now());
  };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->reduce_tasks.size(), 4u);
  const std::vector<size_t> nodes = {2, 2, 2, 0};
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(result->reduce_tasks[i].node, nodes[i]) << "reduce " << i;
  }
  // Recorded start times: p0 and p3 start together; p1 and p2 each take
  // node 2's slot as the reduce before them releases it.
  const StartLogReducer::Log starts = {
      {3, "p0"}, {3, "p3"}, {968, "p1"}, {1933, "p2"}};
  EXPECT_EQ(log, starts);
  EXPECT_EQ(result->runtime, 2590);
}

TEST(DelaySchedulingTest, WaitingMapsHoldNoFrame) {
  // A map waiting for a slot is a queue entry, not a parked driver: while
  // node 0's two slots run, the live detached frames do not grow with
  // the number of maps queued behind them.
  auto live_while_waiting = [](size_t maps) {
    SchedFixture f;
    HotNodeInput input(f.dfs.get(), 0, maps, MiB(32));
    JobConfig config;
    config.input = &input;
    Result<JobResult> result = JobResult{};
    f.Submit(std::move(config), &result);
    f.engine.RunUntil(Millis(100));
    size_t live = f.engine.detached_live();
    f.engine.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return live;
  };
  size_t few = live_while_waiting(4);
  size_t many = live_while_waiting(64);
  EXPECT_EQ(many, few);
  // The two running drivers, the job itself and the wave's locality
  // deadline.
  EXPECT_EQ(many, 2u + 2u);
}

TEST(DelaySchedulingTest, CancelledWaitersFinishWithoutADriver) {
  // Maps queued behind node 0's two slots when their job is cancelled
  // report where a freed slot finds them, without a driver each: the
  // engine events after the cancel do not grow with the number queued.
  auto events_after_cancel = [](size_t maps) {
    SchedFixture f;
    HotNodeInput input(f.dfs.get(), 0, maps, MiB(32));
    JobConfig config;
    config.input = &input;
    config.locality_wait = 0;
    config.cancel = std::make_shared<bool>(false);
    std::shared_ptr<bool> cancel = config.cancel;
    Result<JobResult> result = JobResult{};
    f.Submit(std::move(config), &result);
    f.engine.RunUntil(Millis(100));
    *cancel = true;
    const uint64_t before = f.engine.events_processed();
    f.engine.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return uint64_t{0};
    EXPECT_EQ(result->map_tasks.size(), maps);
    size_t unfinished = 0;
    for (const TaskStats& stats : result->map_tasks) {
      EXPECT_EQ(stats.node, 0u);
      EXPECT_TRUE(stats.data_local);
      if (!stats.completed) ++unfinished;
    }
    EXPECT_GE(unfinished, maps - 2);
    return f.engine.events_processed() - before;
  };
  const uint64_t few = events_after_cancel(4);
  EXPECT_GT(few, 0u);
  EXPECT_EQ(events_after_cancel(64), few);
}

TEST(DelaySchedulingTest, CancelledWaitersFinishAtTheLocalityDeadline) {
  // The job is cancelled in the instant its locality deadline fires
  // (the canceller was scheduled first), while node 0's two maps still
  // run. The deadline hands each waiting map the lowest free slot, node
  // 1's, where it reports without a driver, so every one of them ends
  // there and the events from then on do not grow with the number queued.
  auto events_after_cancel = [](size_t maps) {
    SchedFixture f;
    HotNodeInput input(f.dfs.get(), 0, maps, MiB(32));
    JobConfig config;
    config.input = &input;
    config.locality_wait = Seconds(1);
    config.map_scan_bandwidth = 3.2 * 1024 * 1024;  // 10 s per split
    config.cancel = std::make_shared<bool>(false);
    auto canceller = [](std::shared_ptr<bool> flag) -> sim::Task<> {
      *flag = true;
      co_return;
    };
    f.engine.SpawnAt(Seconds(1), canceller(config.cancel));
    Result<JobResult> result = JobResult{};
    f.Submit(std::move(config), &result);
    f.engine.RunUntil(Seconds(1) - 1);
    const uint64_t before = f.engine.events_processed();
    f.engine.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return uint64_t{0};
    EXPECT_EQ(result->map_tasks.size(), maps);
    size_t relaxed = 0;
    for (const TaskStats& stats : result->map_tasks) {
      EXPECT_FALSE(stats.completed);
      if (stats.node == 0) {
        EXPECT_TRUE(stats.data_local);
      } else {
        EXPECT_EQ(stats.node, 1u);
        EXPECT_FALSE(stats.data_local);
        ++relaxed;
      }
    }
    EXPECT_EQ(relaxed, maps - 2);
    return f.engine.events_processed() - before;
  };
  const uint64_t few = events_after_cancel(4);
  EXPECT_GT(few, 0u);
  EXPECT_EQ(events_after_cancel(64), few);
}

TEST(DelaySchedulingTest, EndedWavesLeaveNoQueueEntries) {
  // Job "b" holds node 0's two map slots for ~10 s and queues a third
  // map there, so its locality deadline (60 s) is still pending when the
  // wave ends. Job "a" queues ten maps on node 0 behind it; at its 0.5 s
  // deadline six take the free slots elsewhere and four sit in the
  // relaxed queue. All of "a" then runs off node 0 and ends long before
  // node 0 frees, leaving a stale entry per map in node 0's queue. The
  // tracker must drop those when "a" ends, and "b"'s late deadline must
  // find its wave gone; a third job then needs all eight slots back.
  SchedFixture f;
  HotNodeInput long_input(f.dfs.get(), 0, 3, MiB(32), "b");
  HotNodeInput short_input(f.dfs.get(), 0, 10, MiB(8), "a");
  JobConfig long_job;
  long_job.name = "b";
  long_job.input = &long_input;
  long_job.locality_wait = Seconds(60);
  long_job.map_scan_bandwidth = 3.2 * 1024 * 1024;  // 10 s per split
  JobConfig short_job;
  short_job.name = "a";
  short_job.input = &short_input;
  short_job.locality_wait = Millis(500);
  Result<JobResult> long_result = JobResult{};
  Result<JobResult> short_result = JobResult{};
  f.Submit(std::move(long_job), &long_result);
  f.Submit(std::move(short_job), &short_result);
  f.engine.Run();
  ASSERT_TRUE(long_result.ok()) << long_result.status().ToString();
  ASSERT_TRUE(short_result.ok()) << short_result.status().ToString();
  for (const TaskStats& stats : long_result->map_tasks) {
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.node, 0u);
  }
  for (const TaskStats& stats : short_result->map_tasks) {
    EXPECT_TRUE(stats.completed);
    EXPECT_NE(stats.node, 0u);
  }
  EXPECT_LT(short_result->runtime, Seconds(10));

  // Eight one-second maps, two per node: with every slot back they all
  // run at once.
  KeyedInput input(8);
  JobConfig config;
  config.input = &input;
  config.locality_wait = 0;
  config.map_cpu_per_record = Seconds(1);
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const TaskStats& stats : result->map_tasks) {
    EXPECT_TRUE(stats.completed);
  }
  EXPECT_LT(result->runtime, Seconds(1.5));
}

}  // namespace
}  // namespace spongefiles::mapred
