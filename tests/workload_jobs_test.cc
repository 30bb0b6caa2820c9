#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mapred/job.h"
#include "workload/testbed.h"

namespace spongefiles::workload {
namespace {

TEST(JobBuildersTest, MedianMapEmitsPaddedSortKeys) {
  Testbed bed;
  NumbersDatasetConfig data;
  data.count = 101;
  NumbersDataset numbers(&bed.dfs(), "nums", data);
  mapred::JobConfig config = MakeMedianJob(&numbers,
                                           mapred::SpillMode::kDisk);
  ASSERT_TRUE(static_cast<bool>(config.map_fn));
  mapred::Record in;
  in.number = 42;
  in.size = 100;
  std::vector<mapred::Record> out;
  config.map_fn(in, &out);
  ASSERT_EQ(out.size(), 1u);
  // Zero-padded keys sort lexicographically in numeric order.
  EXPECT_EQ(out[0].key.size(), 20u);
  mapred::Record in2;
  in2.number = 7;
  std::vector<mapred::Record> out2;
  config.map_fn(in2, &out2);
  EXPECT_LT(out2[0].key, out[0].key);
  EXPECT_EQ(config.num_reducers, 1);
}

TEST(JobBuildersTest, MedianMapMovesItsRow) {
  Testbed bed;
  NumbersDatasetConfig data;
  data.count = 101;
  NumbersDataset numbers(&bed.dfs(), "nums", data);
  mapred::JobConfig config = MakeMedianJob(&numbers,
                                           mapred::SpillMode::kDisk);
  mapred::Record in;
  in.number = 42;
  in.fields = {"carried"};
  const std::string* fields = in.fields.data();
  std::vector<mapred::Record> out;
  config.map_fn(std::move(in), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].fields.data(), fields);
  EXPECT_EQ(out[0].number, 42);
}

TEST(JobBuildersTest, AnchortextPartitionerIsolatesEnglish) {
  Testbed bed;
  WebDatasetConfig data;
  data.total_bytes = MiB(128);
  WebDataset web(&bed.dfs(), "web", data);
  mapred::JobConfig config =
      MakeAnchortextJob(&web, mapred::SpillMode::kSponge, 10, 8);
  ASSERT_TRUE(static_cast<bool>(config.partitioner));
  mapred::Record english;
  english.key = "english";
  EXPECT_EQ(config.partitioner(english, 8), 0u);
  // Other languages never land on partition 0.
  for (const char* lang : {"french", "german", "spanish", "korean"}) {
    mapred::Record r;
    r.key = lang;
    size_t p = config.partitioner(r, 8);
    EXPECT_GT(p, 0u) << lang;
    EXPECT_LT(p, 8u) << lang;
  }
}

TEST(JobBuildersTest, AnchortextProjectionShrinksTuples) {
  Testbed bed;
  WebDatasetConfig data;
  data.total_bytes = MiB(128);
  WebDataset web(&bed.dfs(), "web", data);
  mapred::JobConfig config =
      MakeAnchortextJob(&web, mapred::SpillMode::kSponge, 10, 8,
                        /*projected_size=*/4096);
  mapred::Record page = web.GenerateSplit(0)[0];
  std::vector<mapred::Record> out;
  config.map_fn(page, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size, 4096u);
  // Domain and language are projected away; only terms remain.
  EXPECT_EQ(out[0].fields.size(), page.fields.size() - 2);
  EXPECT_EQ(out[0].key, page.fields[1]);
}

TEST(JobBuildersTest, SpamQuantilesKeepsFullTuples) {
  Testbed bed;
  WebDatasetConfig data;
  data.total_bytes = MiB(128);
  WebDataset web(&bed.dfs(), "web", data);
  mapred::JobConfig config =
      MakeSpamQuantilesJob(&web, mapred::SpillMode::kDisk);
  mapred::Record page = web.GenerateSplit(0)[0];
  std::vector<mapred::Record> out;
  config.map_fn(page, &out);
  ASSERT_EQ(out.size(), 1u);
  // No projection: the full logical row shuffles.
  EXPECT_EQ(out[0].size, page.size);
  EXPECT_EQ(out[0].key, page.fields[0]);

  // The giant domain goes to partition 0, everything else elsewhere.
  mapred::Record giant;
  giant.key = WebDataset::DomainName(0);
  EXPECT_EQ(config.partitioner(giant, 8), 0u);
  mapred::Record other;
  other.key = WebDataset::DomainName(17);
  EXPECT_GT(config.partitioner(other, 8), 0u);
}

TEST(JobBuildersTest, GrepJobScansWithoutOutput) {
  Testbed bed;
  ScanDataset scan(&bed.dfs(), "grepdata", GiB(1));
  auto cancel = std::make_shared<bool>(false);
  mapred::JobConfig config = MakeGrepJob(&scan, cancel, 14.0);
  EXPECT_FALSE(static_cast<bool>(config.reducer_factory));
  EXPECT_EQ(config.cancel, cancel);
  // Scan bandwidth tuned so a 128 MB split costs ~14 s of CPU.
  double seconds = static_cast<double>(MiB(128)) / config.map_scan_bandwidth;
  EXPECT_NEAR(seconds, 14.0, 0.1);
}

TEST(CpuMeterTest, BatchesDebtIntoSleeps) {
  sim::Engine engine;
  mapred::CpuMeter meter(&engine);
  auto run = [&]() -> sim::Task<> {
    for (int i = 0; i < 1000; ++i) {
      co_await meter.Charge(Micros(10));
    }
    co_await meter.Flush();
  };
  engine.Spawn(run());
  uint64_t events = engine.Run();
  EXPECT_EQ(engine.now(), Millis(10));
  EXPECT_EQ(meter.total_charged(), Millis(10));
  // Far fewer engine events than charges (batched at >= 1 ms).
  EXPECT_LT(events, 100u);
}

TEST(CpuMeterTest, SuspendsOnlyWhenDebtReachesOneMillisecond) {
  sim::Engine engine;
  mapred::CpuMeter meter(&engine);
  struct Seen {
    SimTime now;
    uint64_t events;
  };
  std::vector<Seen> seen;
  auto run = [&]() -> sim::Task<> {
    auto note = [&] {
      seen.push_back({engine.now(), engine.events_processed()});
    };
    note();
    for (int i = 0; i < 3; ++i) {
      co_await meter.Charge(Micros(300));  // debt 300, 600, 900 us
      note();
    }
    co_await meter.Charge(Micros(250));  // 1150 us: sleeps it all off
    note();
    co_await meter.Charge(Micros(400));  // fresh debt, below 1 ms
    note();
    co_await meter.Flush();  // sleeps off the 400 us remainder
    note();
    co_await meter.Flush();  // nothing owed: no sleep
    note();
  };
  engine.Spawn(run());
  engine.Run();
  ASSERT_EQ(seen.size(), 8u);
  const Seen start = seen[0];
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(seen[i].now, start.now) << i;
    EXPECT_EQ(seen[i].events, start.events) << i;
  }
  EXPECT_EQ(seen[4].now, start.now + Micros(1150));
  EXPECT_EQ(seen[4].events, start.events + 1);
  EXPECT_EQ(seen[5].now, seen[4].now);
  EXPECT_EQ(seen[5].events, seen[4].events);
  EXPECT_EQ(seen[6].now, seen[5].now + Micros(400));
  EXPECT_EQ(seen[6].events, seen[5].events + 1);
  EXPECT_EQ(seen[7].now, seen[6].now);
  EXPECT_EQ(seen[7].events, seen[6].events);
  EXPECT_EQ(meter.total_charged(), Micros(1550));
}

TEST(JobResultTest, StragglerIsLongestReduce) {
  mapred::JobResult result;
  EXPECT_EQ(result.straggler(), nullptr);
  mapred::TaskStats a;
  a.runtime = Seconds(10);
  mapred::TaskStats b;
  b.runtime = Seconds(99);
  result.reduce_tasks = {a, b};
  ASSERT_NE(result.straggler(), nullptr);
  EXPECT_EQ(result.straggler()->runtime, Seconds(99));
}

}  // namespace
}  // namespace spongefiles::workload
