#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/trace.h"

namespace spongefiles::obs {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, MovesBothWaysAndTracksHighWater) {
  Gauge g;
  g.Add(5);
  g.Add(7);
  g.Sub(10);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 12);
  g.Set(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(g.max(), 12);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v);
  }
  for (uint64_t v : {1ull, 2ull, 3ull, 10ull, 63ull}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Quantile(0.5), 3u);
}

TEST(HistogramTest, BucketBoundsBracketTheValue) {
  for (uint64_t v : {64ull, 100ull, 1000ull, 123456ull, 1ull << 40,
                     (1ull << 40) + 12345ull}) {
    uint32_t index = Histogram::BucketIndex(v);
    EXPECT_LE(Histogram::BucketLowerBound(index), v);
    EXPECT_GT(Histogram::BucketLowerBound(index + 1), v);
  }
}

TEST(HistogramTest, QuantileErrorIsBounded) {
  Histogram h;
  // 1..100000: reconstructed quantiles must be within the log-linear
  // bucketing's ~1.6% relative error.
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    double expected = q * 100000.0;
    double got = static_cast<double>(h.Quantile(q));
    EXPECT_NEAR(got, expected, expected * 0.02) << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(0.0), 1u);
  EXPECT_EQ(h.Quantile(1.0), 100000u);
}

TEST(HistogramTest, SumMeanMinMax) {
  Histogram h;
  h.Record(10);
  h.Record(30);
  EXPECT_EQ(h.sum(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
}

TEST(RegistryTest, LookupReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.counter("x.count");
  Counter* b = registry.counter("x.count");
  EXPECT_EQ(a, b);
  Counter* c = registry.counter("x.count", {{"op", "read"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, LabelOrderIsSignificant) {
  Registry registry;
  Counter* ab =
      registry.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter* ba =
      registry.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_NE(ab, ba);
  EXPECT_EQ(registry.CardinalityOf("m"), 2u);
}

TEST(RegistryTest, CardinalityCountsLabelSets) {
  Registry registry;
  registry.counter("spill.bytes", {{"medium", "local-memory"}});
  registry.counter("spill.bytes", {{"medium", "remote-memory"}});
  registry.counter("spill.bytes", {{"medium", "dfs"}});
  registry.counter("other");
  EXPECT_EQ(registry.CardinalityOf("spill.bytes"), 3u);
  EXPECT_EQ(registry.CardinalityOf("other"), 1u);
  EXPECT_EQ(registry.CardinalityOf("missing"), 0u);
}

TEST(RegistryTest, ResetValuesKeepsInstrumentPointers) {
  Registry registry;
  Counter* c = registry.counter("c");
  Gauge* g = registry.gauge("g");
  Histogram* h = registry.histogram("h");
  c->Increment(7);
  g->Set(9);
  h->Record(5);
  registry.ResetValues();
  EXPECT_EQ(registry.counter("c"), c);
  EXPECT_EQ(registry.gauge("g"), g);
  EXPECT_EQ(registry.histogram("h"), h);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max(), 0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(RegistryTest, JsonSnapshotRoundTrip) {
  Registry registry;
  registry.counter("sponge.spill.bytes", {{"medium", "local-memory"}})
      ->Increment(12345);
  registry.gauge("pool.used")->Set(17);
  Histogram* h = registry.histogram("disk.queue");
  h->Record(3);
  h->Record(200);

  std::string json = registry.ToJson();
  // Deterministic: serializing twice yields the same bytes.
  EXPECT_EQ(json, registry.ToJson());
  // The snapshot carries every section with names, labels and values.
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sponge.spill.bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"medium\":\"local-memory\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool.used\",\"labels\":{},\"value\":17"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[3,1],["), std::string::npos);

  // Round-trip through a file: the bytes on disk equal the snapshot.
  std::string path = ::testing::TempDir() + "/obs_metrics_snapshot.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    read_back.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(read_back, json);
  std::remove(path.c_str());
}

// A snapshot small enough to sit in stdio's buffer is only written when
// the file is closed, so a full device shows up as a failed close.
TEST(SnapshotWriteTest, FullDeviceFailsBothWriters) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this host";
  std::fclose(probe);
  Registry registry;
  registry.counter("c")->Increment(1);
  EXPECT_FALSE(registry.WriteJsonFile("/dev/full").ok());
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.InstantEvent(0, 1, 1, "cat", "x");
  EXPECT_FALSE(tracer.WriteFile("/dev/full").ok());
}

TEST(RegistryTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&Registry::Default(), &Registry::Default());
}

}  // namespace
}  // namespace spongefiles::obs
