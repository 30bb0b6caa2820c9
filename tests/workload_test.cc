#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "alloc_counter.h"
#include "common/units.h"
#include "workload/testbed.h"
#include "workload/trace.h"
#include "workload/webdata.h"

namespace spongefiles::workload {
namespace {

// A small dataset keeps these tests fast; the benches run the full 10 GB.
WebDatasetConfig SmallWeb() {
  WebDatasetConfig config;
  config.total_bytes = MiB(256);
  config.record_size = 10 * kKiB;
  return config;
}

TEST(WebDatasetTest, SplitGenerationDeterministic) {
  Testbed bed;
  WebDataset data(&bed.dfs(), "web", SmallWeb());
  auto a = data.GenerateSplit(0);
  auto b = data.GenerateSplit(0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  auto c = data.GenerateSplit(1);
  EXPECT_FALSE(c.empty());
  EXPECT_FALSE(a[0] == c[0]);
}

// A generated row owns one heap block, its field array, at 4 bytes per
// field (interned symbols); the vocabulary is interned by the constructor,
// so generating a split allocates nothing else.
TEST(WebDatasetTest, GenerateSplitAllocatesOneSmallFieldArrayPerRow) {
  Testbed bed;
  WebDatasetConfig config = SmallWeb();
  WebDataset data(&bed.dfs(), "web", config);
  const uint64_t rows = data.records_per_split();
  const uint64_t fields = 2 + config.terms_per_page;
  std::vector<mapred::Record> split;
  {
    alloc_counter::Scope count;
    split = data.GenerateSplit(0);
  }
  ASSERT_EQ(split.size(), rows);
  EXPECT_LE(alloc_counter::allocations, 1 + rows);
  EXPECT_LE(alloc_counter::bytes,
            rows * sizeof(mapred::Record) + rows * fields * 4);
}

TEST(WebDatasetTest, GiantDomainHoldsAboutThirtyPercent) {
  Testbed bed;
  WebDataset data(&bed.dfs(), "web", SmallWeb());
  std::map<std::string, int> domain_counts;
  int total = 0;
  for (size_t s = 0; s < data.num_splits(); ++s) {
    for (const auto& page : data.GenerateSplit(s)) {
      ++domain_counts[page.fields[0].str()];
      ++total;
    }
  }
  double giant = static_cast<double>(domain_counts[WebDataset::DomainName(0)]) /
                 total;
  EXPECT_GT(giant, 0.25);
  EXPECT_LT(giant, 0.38);
}

TEST(WebDatasetTest, EnglishDominatesLanguages) {
  Testbed bed;
  WebDataset data(&bed.dfs(), "web", SmallWeb());
  int english = 0;
  int total = 0;
  for (const auto& page : data.GenerateSplit(0)) {
    if (page.fields[1] == "english") ++english;
    ++total;
  }
  double fraction = static_cast<double>(english) / total;
  EXPECT_NEAR(fraction, 0.6, 0.08);
}

TEST(WebDatasetTest, RecordShape) {
  Testbed bed;
  WebDatasetConfig config = SmallWeb();
  WebDataset data(&bed.dfs(), "web", config);
  for (const auto& page : data.GenerateSplit(0)) {
    ASSERT_GE(page.fields.size(), 2u + config.terms_per_page);
    EXPECT_EQ(page.size, config.record_size);
    EXPECT_GE(page.number, 0.0);
    EXPECT_LT(page.number, 1.0);
  }
}

// Term symbols come from one table shared by every dataset; a later
// dataset with a larger vocabulary grows it under an earlier one.
TEST(WebDatasetTest, DatasetsShareAGrowingTermTable) {
  Testbed bed;
  WebDatasetConfig small = SmallWeb();
  WebDatasetConfig large = SmallWeb();
  large.vocabulary = small.vocabulary + 10000;
  WebDataset first(&bed.dfs(), "web", small);
  WebDataset second(&bed.dfs(), "web2", large);
  auto max_rank = [](const WebDataset& data) {
    size_t max = 0;
    for (const auto& page : data.GenerateSplit(0)) {
      for (size_t t = 2; t < page.fields.size(); ++t) {
        std::string_view term = page.fields[t].view();
        EXPECT_EQ(term.substr(0, 4), "term");
        max = std::max<size_t>(max, std::stoul(std::string(term.substr(4))));
      }
    }
    return max;
  };
  EXPECT_LT(max_rank(first), small.vocabulary);
  const size_t second_max = max_rank(second);
  EXPECT_GE(second_max, small.vocabulary);
  EXPECT_LT(second_max, large.vocabulary);
}

TEST(NumbersDatasetTest, ValuesAreAPermutation) {
  Testbed bed;
  NumbersDatasetConfig config;
  config.count = 20001;
  config.record_size = 10 * kKiB;
  NumbersDataset data(&bed.dfs(), "nums", config);
  auto splits = data.Splits();
  std::set<uint64_t> seen;
  for (auto& split : splits) {
    for (const auto& r : split.generate()) {
      EXPECT_TRUE(seen.insert(static_cast<uint64_t>(r.number)).second)
          << "duplicate value " << r.number;
    }
  }
  EXPECT_EQ(seen.size(), config.count);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), config.count - 1);
  EXPECT_EQ(data.expected_median(), 10000);
}

TEST(ScanDatasetTest, SplitsCoverAllBytes) {
  Testbed bed;
  ScanDataset data(&bed.dfs(), "scan", GiB(1) + MiB(3));
  auto splits = data.Splits();
  uint64_t total = 0;
  for (const auto& split : splits) total += split.bytes;
  EXPECT_EQ(total, GiB(1) + MiB(3));
  EXPECT_EQ(splits.size(), 9u);  // 8 full blocks + remainder
}

TEST(TraceTest, TaskInputsSpanManyOrdersOfMagnitude) {
  TraceConfig config;
  config.num_jobs = 3000;
  TraceSynthesizer synth(config);
  auto fig = synth.BuildFigure1();
  ASSERT_FALSE(fig.task_inputs.empty());
  double min = fig.task_inputs.front().value;
  double max = fig.task_inputs.back().value;
  EXPECT_GE(std::log10(max) - std::log10(std::max(min, 1.0)), 6.0);
  // The biggest input approaches the 105 GB cap: bigger than any node.
  EXPECT_GT(max, 50.0 * 1024 * 1024 * 1024);
}

TEST(TraceTest, ManyJobsHighlySkewed) {
  TraceConfig config;
  config.num_jobs = 3000;
  TraceSynthesizer synth(config);
  auto jobs = synth.Generate();
  int beyond = 0;
  int eligible = 0;
  int negative = 0;
  for (const auto& job : jobs) {
    if (job.reduce_input_bytes.size() < 3) continue;
    ++eligible;
    double s = job.skewness();
    if (s > 1 || s < -1) ++beyond;
    if (s < -1) ++negative;
  }
  // Figure 1(b): a big fraction beyond +/-1, with both tails present.
  EXPECT_GT(static_cast<double>(beyond) / eligible, 0.3);
  EXPECT_GT(negative, 0);
}

TEST(TraceTest, CdfsMonotone) {
  TraceSynthesizer synth(TraceConfig{.num_jobs = 500});
  auto fig = synth.BuildFigure1();
  for (const auto* cdf :
       {&fig.task_inputs, &fig.job_average_inputs, &fig.job_skewness}) {
    for (size_t i = 1; i < cdf->size(); ++i) {
      EXPECT_GE((*cdf)[i].fraction, (*cdf)[i - 1].fraction);
      EXPECT_GE((*cdf)[i].value, (*cdf)[i - 1].value);
    }
    EXPECT_DOUBLE_EQ(cdf->back().fraction, 1.0);
  }
}

TEST(TestbedTest, MatchesPaperLayout) {
  Testbed bed;
  EXPECT_EQ(bed.cluster().size(), 30u);
  EXPECT_TRUE(bed.cluster().SameRack(0, 29));
  EXPECT_EQ(bed.cluster().node(0).config().map_slots, 2);
  EXPECT_EQ(bed.cluster().node(0).config().reduce_slots, 1);
  EXPECT_EQ(bed.env().server(0).free_bytes(), GiB(1));
}

TEST(TestbedTest, RunsSmallMedianJobBothModes) {
  for (auto mode : {mapred::SpillMode::kDisk, mapred::SpillMode::kSponge}) {
    Testbed bed;
    NumbersDatasetConfig config;
    config.count = 10001;
    config.record_size = 10 * kKiB;  // ~100 MB: fits without stragglers
    NumbersDataset data(&bed.dfs(), "nums", config);
    auto result = bed.RunJob(MakeMedianJob(&data, mode));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->output.size(), 1u);
    EXPECT_EQ(result->output[0].number, 5000);
    EXPECT_GT(result->runtime, 0);
  }
}

TEST(TestbedTest, BackgroundJobReportsTaskStats) {
  Testbed bed;
  NumbersDatasetConfig config;
  config.count = 5001;
  config.record_size = 10 * kKiB;
  NumbersDataset data(&bed.dfs(), "nums", config);
  ScanDataset scan(&bed.dfs(), "grepdata", GiB(4));
  std::vector<mapred::TaskStats> grep_tasks;
  auto result = bed.RunJob(MakeMedianJob(&data, mapred::SpillMode::kSponge),
                           MakeGrepJob(&scan, nullptr, 2.0), &grep_tasks);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(grep_tasks.size(), 0u);
  for (const auto& stats : grep_tasks) {
    EXPECT_GT(stats.runtime, 0);
  }
}

}  // namespace
}  // namespace spongefiles::workload
