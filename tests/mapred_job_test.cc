#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/units.h"
#include "mapred/job_tracker.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {
namespace {

// A deterministic input: records are pre-assigned to splits and a DFS file
// provides read timing and map placement.
class TestInput : public InputFormat {
 public:
  TestInput(cluster::Dfs* dfs, std::string name,
            std::vector<std::vector<Record>> splits, uint64_t split_bytes)
      : name_(std::move(name)),
        records_(std::move(splits)),
        split_bytes_(split_bytes) {
    auto created =
        dfs->CreateFile(name_, split_bytes_ * records_.size());
    (void)created;
  }

  std::vector<InputSplit> Splits() override {
    std::vector<InputSplit> out;
    for (size_t i = 0; i < records_.size(); ++i) {
      InputSplit split;
      split.dfs_file = name_;
      split.offset = i * split_bytes_;
      split.bytes = split_bytes_;
      const std::vector<Record>* records = &records_[i];
      split.generate = [records]() { return *records; };
      out.push_back(std::move(split));
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<std::vector<Record>> records_;
  uint64_t split_bytes_;
};

// Counts values per key (wordcount).
class CountReducer : public Reducer {
 public:
  sim::Task<Status> StartKey(std::string key) override {
    key_ = key;
    count_ = 0;
    co_return Status::OK();
  }
  bool AddValue(Record value) override {
    count_ += value.number;
    return false;
  }
  sim::Task<Status> FinishKey() override {
    Record out;
    out.key = key_;
    out.number = count_;
    ctx_->output->push_back(std::move(out));
    co_return Status::OK();
  }

 private:
  std::string key_;
  double count_ = 0;
};

// Fails its first `failures` attempts (retry-path testing).
class FlakyReducer : public CountReducer {
 public:
  explicit FlakyReducer(int* remaining_failures)
      : remaining_failures_(remaining_failures) {}

  sim::Task<Status> Finish() override {
    if (*remaining_failures_ > 0) {
      --*remaining_failures_;
      co_return Internal("injected reducer failure");
    }
    co_return Status::OK();
  }

 private:
  int* remaining_failures_;
};

struct JobFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  std::unique_ptr<JobTracker> tracker;

  explicit JobFixture(uint64_t heap = GiB(1), uint64_t sponge = MiB(32)) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.node.sponge_memory = sponge;
    cc.node.heap_per_slot = heap;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              sponge::SpongeConfig{});
    tracker = std::make_unique<JobTracker>(env.get(), dfs.get());
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  Result<JobResult> RunJob(JobConfig config) {
    Result<JobResult> result = JobResult{};
    auto run = [](JobTracker* jt, JobConfig jc,
                  Result<JobResult>* out) -> sim::Task<> {
      *out = co_await jt->Run(std::move(jc));
    };
    engine.Spawn(run(tracker.get(), std::move(config), &result));
    engine.Run();
    return result;
  }
};

std::vector<std::vector<Record>> WordSplits() {
  // 3 splits of words; counts are knowable.
  std::vector<std::vector<Record>> splits(3);
  const char* words[] = {"apple", "banana", "cherry", "apple", "banana",
                         "apple"};
  for (size_t s = 0; s < 3; ++s) {
    for (const char* w : words) {
      Record r;
      r.key = w;
      r.number = 1;
      r.size = 2000;
      splits[s].push_back(std::move(r));
    }
  }
  return splits;
}

TEST(JobTest, WordCountExactCounts) {
  JobFixture f;
  TestInput input(f.dfs.get(), "words", WordSplits(), MiB(16));
  JobConfig config;
  config.name = "wordcount";
  config.input = &input;
  config.num_reducers = 2;
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::map<std::string, double> counts;
  for (const Record& r : result->output) counts[r.key] = r.number;
  EXPECT_EQ(counts["apple"], 9);
  EXPECT_EQ(counts["banana"], 6);
  EXPECT_EQ(counts["cherry"], 3);
  EXPECT_EQ(result->map_tasks.size(), 3u);
  EXPECT_EQ(result->reduce_tasks.size(), 2u);
  EXPECT_GT(result->runtime, 0);
}

TEST(JobTest, MapOnlyJobRuns) {
  JobFixture f;
  TestInput input(f.dfs.get(), "scan", WordSplits(), MiB(16));
  JobConfig config;
  config.name = "grep";
  config.input = &input;
  config.map_fn = [](const Record&, std::vector<Record>*) {};  // no output
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->reduce_tasks.empty());
  for (const auto& stats : result->map_tasks) {
    EXPECT_EQ(stats.input_bytes, MiB(16));
    EXPECT_GT(stats.runtime, 0);
  }
}

TEST(JobTest, MapPlacementFollowsBlockLocality) {
  JobFixture f;
  const uint64_t block = cluster::Dfs::kBlockSize;
  TestInput input(f.dfs.get(), "local", WordSplits(), block);
  JobConfig config;
  config.input = &input;
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->map_tasks.size(); ++i) {
    auto location = f.dfs->BlockLocation("local", i * block);
    ASSERT_TRUE(location.ok());
    EXPECT_EQ(result->map_tasks[i].node, *location);
  }
}

TEST(JobTest, SkewedReduceSpillsWithTinyHeap) {
  // 2 MB heap -> 1.4 MB shuffle buffer; ~12 MB of records on one key must
  // spill. Disk mode: bytes land on the reduce node's local filesystem.
  JobFixture f(/*heap=*/MiB(2));
  std::vector<std::vector<Record>> splits(2);
  for (size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 600; ++i) {
      Record r;
      r.key = "hot";
      r.number = i;
      r.size = 10000;
      splits[s].push_back(std::move(r));
    }
  }
  TestInput input(f.dfs.get(), "skewed", std::move(splits), MiB(8));
  JobConfig config;
  config.name = "skew";
  config.input = &input;
  config.spill_mode = SpillMode::kDisk;
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TaskStats* straggler = result->straggler();
  ASSERT_NE(straggler, nullptr);
  EXPECT_EQ(straggler->input_records, 1200u);
  EXPECT_GT(straggler->spill.bytes_spilled, MiB(10));
  EXPECT_EQ(straggler->spill.sponge_chunks, 0u);
  // Output correct despite spilling.
  ASSERT_EQ(result->output.size(), 1u);
  EXPECT_EQ(result->output[0].number, 2 * (599.0 * 600.0 / 2));
}

TEST(JobTest, SpongeModeUsesSpongeChunks) {
  JobFixture f(/*heap=*/MiB(2), /*sponge=*/MiB(64));
  std::vector<std::vector<Record>> splits(2);
  for (size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 600; ++i) {
      Record r;
      r.key = "hot";
      r.number = 1;
      r.size = 10000;
      splits[s].push_back(std::move(r));
    }
  }
  TestInput input(f.dfs.get(), "sponge-skew", std::move(splits), MiB(8));
  JobConfig config;
  config.name = "skew-sponge";
  config.input = &input;
  config.spill_mode = SpillMode::kSponge;
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TaskStats* straggler = result->straggler();
  EXPECT_GT(straggler->spill.sponge_chunks, 10u);
  ASSERT_EQ(result->output.size(), 1u);
  EXPECT_EQ(result->output[0].number, 1200);
}

TEST(JobTest, DiskModeRespillsInMultiRoundMerge) {
  // With a tiny heap the shuffle produces many runs; the disk merge is
  // capped at io.sort.factor = 10 streams and must re-spill, so total
  // spilled bytes exceed the sponge run of the same job (the Figure 6
  // analysis: 16.1 GB vs 10.3 GB).
  auto spilled_bytes = [](SpillMode mode) {
    JobFixture f(/*heap=*/MiB(1), /*sponge=*/MiB(128));
    // 12 map outputs -> 12 shuffled runs, exceeding io.sort.factor = 10.
    std::vector<std::vector<Record>> splits(12);
    for (size_t s = 0; s < splits.size(); ++s) {
      for (int i = 0; i < 500; ++i) {
        Record r;
        r.key = "hot";
        r.number = 1;
        r.size = 10000;
        splits[s].push_back(std::move(r));
      }
    }
    TestInput input(f.dfs.get(), "respill", std::move(splits), MiB(8));
    JobConfig config;
    config.input = &input;
    config.spill_mode = mode;
    config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
    auto result = f.RunJob(std::move(config));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->straggler()->spill.bytes_spilled;
  };
  uint64_t disk = spilled_bytes(SpillMode::kDisk);
  uint64_t sponge = spilled_bytes(SpillMode::kSponge);
  EXPECT_GT(disk, sponge + sponge / 4);
}

TEST(JobTest, FlakyReduceRetriedToSuccess) {
  JobFixture f;
  TestInput input(f.dfs.get(), "flaky", WordSplits(), MiB(16));
  int failures = 2;
  JobConfig config;
  config.input = &input;
  config.reducer_factory = [&failures] {
    return std::make_unique<FlakyReducer>(&failures);
  };
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reduce_tasks[0].attempts, 3);
  std::map<std::string, double> counts;
  for (const Record& r : result->output) counts[r.key] = r.number;
  EXPECT_EQ(counts["apple"], 9);
}

TEST(JobTest, FailingJobSurfacesError) {
  JobFixture f;
  TestInput input(f.dfs.get(), "doomed", WordSplits(), MiB(16));
  int failures = 100;  // more than max_attempts
  JobConfig config;
  config.input = &input;
  config.max_attempts = 2;
  config.reducer_factory = [&failures] {
    return std::make_unique<FlakyReducer>(&failures);
  };
  auto result = f.RunJob(std::move(config));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(JobTest, FailingMapJobSurfacesErrorAfterMaxAttempts) {
  // One split names a DFS file that does not exist: every attempt of
  // that map fails its first read, so its two-attempt budget is one
  // re-run, and the job fails with the read's status.
  class MissingFileInput : public TestInput {
   public:
    using TestInput::TestInput;
    std::vector<InputSplit> Splits() override {
      std::vector<InputSplit> splits = TestInput::Splits();
      splits[1].dfs_file = "missing";
      return splits;
    }
  };
  JobFixture f;
  MissingFileInput input(f.dfs.get(), "partial", WordSplits(), MiB(16));
  JobConfig config;
  config.input = &input;
  config.max_attempts = 2;
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  obs::Counter* reruns = obs::Registry::Default().counter(
      "mapred.task.rerun.reason", {{"reason", "other"}});
  uint64_t before = reruns->value();
  auto result = f.RunJob(std::move(config));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reruns->value() - before, 1u);
}

TEST(JobTest, CancelStopsRemainingTasks) {
  JobFixture f;
  auto splits = WordSplits();
  for (int i = 0; i < 20; ++i) splits.push_back(splits[0]);
  TestInput input(f.dfs.get(), "cancellable", std::move(splits), MiB(64));
  JobConfig config;
  config.input = &input;
  config.map_fn = [](const Record&, std::vector<Record>*) {};
  config.cancel = std::make_shared<bool>(false);
  auto cancel = config.cancel;
  auto canceller = [](sim::Engine* engine, std::shared_ptr<bool> flag)
      -> sim::Task<> {
    co_await engine->Delay(Seconds(1));
    *flag = true;
  };
  f.engine.Spawn(canceller(&f.engine, cancel));
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  size_t cancelled = 0;
  for (const auto& stats : result->map_tasks) {
    if (!stats.completed) ++cancelled;
  }
  EXPECT_GT(cancelled, 0u);
}

TEST(JobTest, SlotsLimitConcurrency) {
  // 4 nodes x 2 map slots = 8 concurrent maps; 24 equal splits on a
  // no-work job should take ~3 waves.
  JobFixture f;
  std::vector<std::vector<Record>> splits(24);
  TestInput input(f.dfs.get(), "waves", std::move(splits), MiB(32));
  JobConfig config;
  config.input = &input;
  auto result = f.RunJob(std::move(config));
  ASSERT_TRUE(result.ok());
  // Every node ran at most 2 tasks at a time; total runtime is at least
  // 3x one task's runtime (24 tasks / 8 slots), at most ~2x that bound
  // given scheduling slack.
  Duration one_task = result->map_tasks[0].runtime;
  EXPECT_GE(result->runtime, 3 * one_task - Millis(10));
}

}  // namespace
}  // namespace spongefiles::mapred
