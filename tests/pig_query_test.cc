#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/random.h"
#include "common/units.h"
#include "mapred/job_tracker.h"
#include "pig/query.h"
#include "pig/udfs.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::pig {
namespace {

// Shared with mapred tests: fixed records per split over a DFS file.
class TestInput : public mapred::InputFormat {
 public:
  TestInput(cluster::Dfs* dfs, std::string name,
            std::vector<std::vector<mapred::Record>> splits,
            uint64_t split_bytes)
      : name_(std::move(name)),
        records_(std::move(splits)),
        split_bytes_(split_bytes) {
    (void)dfs->CreateFile(name_, split_bytes_ * records_.size());
  }

  std::vector<mapred::InputSplit> Splits() override {
    std::vector<mapred::InputSplit> out;
    for (size_t i = 0; i < records_.size(); ++i) {
      mapred::InputSplit split;
      split.dfs_file = name_;
      split.offset = i * split_bytes_;
      split.bytes = split_bytes_;
      const std::vector<mapred::Record>* records = &records_[i];
      split.generate = [records]() { return *records; };
      out.push_back(std::move(split));
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<std::vector<mapred::Record>> records_;
  uint64_t split_bytes_;
};

struct PigFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  std::unique_ptr<mapred::JobTracker> tracker;

  explicit PigFixture(uint64_t heap = MiB(8)) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.node.heap_per_slot = heap;
    cc.node.sponge_memory = MiB(64);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              sponge::SpongeConfig{});
    tracker = std::make_unique<mapred::JobTracker>(env.get(), dfs.get());
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  Result<mapred::JobResult> RunJob(mapred::JobConfig config) {
    Result<mapred::JobResult> result = mapred::JobResult{};
    auto run = [](mapred::JobTracker* jt, mapred::JobConfig jc,
                  Result<mapred::JobResult>* out) -> sim::Task<> {
      *out = co_await jt->Run(std::move(jc));
    };
    engine.Spawn(run(tracker.get(), std::move(config), &result));
    engine.Run();
    return result;
  }
};

// Pages with a language field and anchortext terms; term frequencies are
// planted so the exact top-k is known.
std::vector<std::vector<mapred::Record>> AnchortextSplits() {
  std::vector<std::vector<mapred::Record>> splits(3);
  Rng rng(42);
  for (size_t s = 0; s < splits.size(); ++s) {
    for (int i = 0; i < 400; ++i) {
      mapred::Record page;
      page.fields.clear();
      bool english = (i % 4) != 0;  // 75% english
      page.key = english ? "english" : "french";
      // Planted frequencies: "home" on every page, "news" on every 2nd,
      // "blog" on every 4th, plus unique noise terms.
      page.fields.push_back("home");
      if (i % 2 == 0) page.fields.push_back("news");
      if (i % 4 == 0) page.fields.push_back("blog");
      page.fields.push_back("noise" + std::to_string(rng.Next() % 100000));
      page.number = 0;
      page.size = 4000;
      splits[s].push_back(std::move(page));
    }
  }
  return splits;
}

// Without a projection the map function moves the row into the tuple: the
// output owns the input's field buffer instead of a copy of it.
TEST(PigQueryTest, MapMovesUnprojectedRow) {
  GroupByQuery query;
  query.group_key = [](const mapred::Record& r) { return r.fields[0]; };
  mapred::JobConfig config = Compile(query);
  mapred::Record row;
  row.fields = {"domain7.com", "english", "term3"};
  row.size = 10000;
  const std::string* fields = row.fields.data();
  std::vector<mapred::Record> out;
  config.map_fn(std::move(row), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].fields.data(), fields);
  EXPECT_EQ(out[0].key, "domain7.com");
  EXPECT_EQ(out[0].size, 10000u);
}

TEST(PigQueryTest, FrequentAnchortextTopKExact) {
  PigFixture f;
  auto splits = AnchortextSplits();
  TestInput input(f.dfs.get(), "web", std::move(splits), MiB(8));
  GroupByQuery query;
  query.name = "frequent-anchortext";
  query.input = &input;
  query.group_key = [](const mapred::Record& r) { return r.key; };
  // Projection: keep only the term fields (shrink logical size).
  query.project = [](const mapred::Record& r) {
    mapred::Record out = r;
    out.size = 200;
    return out;
  };
  query.udf_factory = [] { return std::make_unique<TopKUdf>(3); };
  auto result = f.RunJob(Compile(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // english pages: 3 splits x 300 = 900 pages -> home=900, news=450(ish),
  // blog=0 for english? i%4==0 pages are french, so blog is french-only.
  std::map<std::string, std::map<std::string, double>> top;
  for (const mapred::Record& r : result->output) {
    top[r.key][r.fields[0]] = r.number;
  }
  ASSERT_TRUE(top.contains("english"));
  ASSERT_TRUE(top.contains("french"));
  // english pages: i % 4 != 0 -> 300/split; of those, "news" appears when
  // i is even, i.e. i % 4 == 2 -> 100/split. french pages (i % 4 == 0,
  // 100/split) are all even, so every french page has "news" and "blog".
  EXPECT_EQ(top["english"]["home"], 900);
  EXPECT_EQ(top["english"]["news"], 300);
  EXPECT_EQ(top["french"]["home"], 300);
  EXPECT_EQ(top["french"]["news"], 300);
  EXPECT_EQ(top["french"]["blog"], 300);
}

TEST(PigQueryTest, SpamQuantilesExactOrderStatistics) {
  PigFixture f;
  // One domain with spam scores 0..999 shuffled across splits.
  std::vector<std::vector<mapred::Record>> splits(4);
  Rng rng(7);
  std::vector<int> scores(1000);
  for (int i = 0; i < 1000; ++i) scores[i] = i;
  for (int i = 999; i > 0; --i) {
    std::swap(scores[i], scores[rng.Uniform(static_cast<uint64_t>(i + 1))]);
  }
  for (int i = 0; i < 1000; ++i) {
    mapred::Record page;
    page.key = "bigdomain.com";
    page.number = scores[i];
    page.size = 10000;  // full unprojected tuple
    splits[i % 4].push_back(std::move(page));
  }
  TestInput input(f.dfs.get(), "crawl", std::move(splits), MiB(8));
  GroupByQuery query;
  query.name = "spam-quantiles";
  query.input = &input;
  query.group_key = [](const mapred::Record& r) { return r.key; };
  // No projection: the hastily-written-UDF pattern.
  query.udf_factory = [] { return std::make_unique<SpamQuantilesUdf>(); };
  auto result = f.RunJob(Compile(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<std::string, double> quantiles;
  for (const mapred::Record& r : result->output) {
    quantiles[r.fields[0]] = r.number;
  }
  EXPECT_EQ(quantiles["q0"], 0);
  EXPECT_EQ(quantiles["q25"], 249);  // floor(0.25 * 999)
  EXPECT_EQ(quantiles["q50"], 499);
  EXPECT_EQ(quantiles["q75"], 749);
  EXPECT_EQ(quantiles["q100"], 999);
}

// Numbers 1..2001 scattered over four splits, all in one group: the
// group's q50 is the exact median, 1001.
std::vector<std::vector<mapred::Record>> NumberSplits() {
  std::vector<std::vector<mapred::Record>> splits(4);
  for (int i = 1; i <= 2001; ++i) {
    mapred::Record r;
    r.key = "all";
    r.number = i;
    r.size = 3000;
    splits[static_cast<size_t>(i) % 4].push_back(std::move(r));
  }
  return splits;
}

GroupByQuery OneGroupQuantiles(mapred::InputFormat* input,
                               mapred::SpillMode mode) {
  GroupByQuery query;
  query.name = "median";
  query.input = input;
  query.spill_mode = mode;
  query.group_key = [](const mapred::Record& r) { return r.key; };
  query.udf_factory = [] { return std::make_unique<SpamQuantilesUdf>(); };
  return query;
}

double Q50(const mapred::JobResult& result) {
  for (const mapred::Record& r : result.output) {
    if (r.fields[0] == "q50") return r.number;
  }
  return -1;
}

TEST(PigQueryTest, MedianJobExact) {
  PigFixture f;
  TestInput input(f.dfs.get(), "numbers", NumberSplits(), MiB(8));
  auto result =
      f.RunJob(Compile(OneGroupQuantiles(&input, mapred::SpillMode::kDisk)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->output.size(), SpamQuantilesUdf::kQuantiles.size());
  EXPECT_EQ(result->output[0].key, "all");
  EXPECT_EQ(Q50(*result), 1001);
}

// A 2 MiB heap leaves the bag ~0.6 MiB of the ~6 MiB group, so the
// quantile pass runs the bag's external sort over spilled runs.
TEST(PigQueryTest, SpongeSpillingProducesSameAnswers) {
  const uint64_t input_bytes = 2001ull * 3000;
  auto median_with = [&](mapred::SpillMode mode) {
    PigFixture f(/*heap=*/MiB(2));  // force spilling
    TestInput input(f.dfs.get(), "numbers", NumberSplits(), MiB(8));
    auto result = f.RunJob(Compile(OneGroupQuantiles(&input, mode)));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    // The shuffle spills at most the input once; the rest is the bag's.
    EXPECT_GT(result->straggler()->spill.bytes_spilled, input_bytes);
    return Q50(*result);
  };
  EXPECT_EQ(median_with(mapred::SpillMode::kDisk), 1001);
  EXPECT_EQ(median_with(mapred::SpillMode::kSponge), 1001);
}

TEST(PigQueryTest, MultiPassUdfSpillsMoreThanInput) {
  // The Table 2 effect: a holistic multi-pass UDF on a spilled bag writes
  // its data multiple times.
  PigFixture f(/*heap=*/MiB(2));
  std::vector<std::vector<mapred::Record>> splits(2);
  for (int i = 0; i < 2000; ++i) {
    mapred::Record page;
    page.key = "english";
    page.fields = {"home", "term" + std::to_string(i % 50)};
    page.size = 5000;
    splits[static_cast<size_t>(i) % 2].push_back(std::move(page));
  }
  uint64_t input_bytes = 2000ull * 5000;
  TestInput input(f.dfs.get(), "web2", std::move(splits), MiB(8));
  GroupByQuery query;
  query.input = &input;
  query.group_key = [](const mapred::Record& r) { return r.key; };
  query.udf_factory = [] { return std::make_unique<TopKUdf>(5); };
  auto result = f.RunJob(Compile(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Shuffle spill (~1x) + bag spill (~1x) + pass-1 respill (~1x) -> ~3x.
  EXPECT_GT(result->straggler()->spill.bytes_spilled, 2 * input_bytes);
}

}  // namespace
}  // namespace spongefiles::pig
