#include "mapred/record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace spongefiles {

struct ByteRunsTestPeer {
  static size_t RunCount(const ByteRuns& runs) { return runs.runs_.size(); }
};

namespace mapred {
namespace {

TEST(RecordSerdeTest, RoundTripSimple) {
  Record in;
  in.key = "domain.com";
  in.number = 0.75;
  in.fields = {"english", "click here"};
  in.size = 1000;
  ByteRuns wire;
  SerializeRecord(in, &wire);
  EXPECT_EQ(wire.size(), 1000u);

  RecordParser parser;
  parser.Feed(wire);
  Record out;
  ASSERT_TRUE(parser.Next(&out));
  EXPECT_EQ(out, in);
  EXPECT_FALSE(parser.Next(&out));
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(RecordSerdeTest, HeaderOnlyRecordWhenSizeSmall) {
  Record in;
  in.key = "k";
  in.size = 1;  // smaller than the header: wire size is the header size
  ByteRuns wire;
  SerializeRecord(in, &wire);
  EXPECT_EQ(wire.size(), RecordHeaderSize(in));
  RecordParser parser;
  parser.Feed(wire);
  Record out;
  ASSERT_TRUE(parser.Next(&out));
  EXPECT_EQ(out.key, "k");
  EXPECT_EQ(out.size, RecordHeaderSize(in));
}

TEST(RecordSerdeTest, EmptyFieldsAndKey) {
  Record in;
  in.size = 64;
  ByteRuns wire;
  SerializeRecord(in, &wire);
  RecordParser parser;
  parser.Feed(wire);
  Record out;
  ASSERT_TRUE(parser.Next(&out));
  EXPECT_EQ(out.key, "");
  EXPECT_TRUE(out.fields.empty());
  EXPECT_EQ(out.size, 64u);
}

TEST(RecordSerdeTest, SerializedSizeMatchesWire) {
  Record in;
  in.key = "abc";
  in.fields = {"x"};
  in.size = 500;
  ByteRuns wire;
  SerializeRecord(in, &wire);
  EXPECT_EQ(SerializedSize(in), wire.size());
}

TEST(RecordSerdeTest, RecordsSpanningChunkBoundaries) {
  // Serialize many records, then feed the stream in awkward chunk sizes.
  std::vector<Record> records;
  ByteRuns wire;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Record r;
    r.key = "key" + std::to_string(i);
    r.number = static_cast<double>(i) * 1.5;
    r.fields = {std::string(rng.Uniform(50), 'x')};
    r.size = 100 + rng.Uniform(400);
    SerializeRecord(r, &wire);
    ByteRuns one;
    SerializeRecord(r, &one);
    r.size = one.size();  // normalize for comparison
    records.push_back(std::move(r));
  }

  RecordParser parser;
  std::vector<Record> parsed;
  uint64_t offset = 0;
  Rng chunk_rng(9);
  while (offset < wire.size()) {
    uint64_t n = std::min<uint64_t>(1 + chunk_rng.Uniform(333),
                                    wire.size() - offset);
    parser.Feed(wire.SubRange(offset, n));
    offset += n;
    Record out;
    while (parser.Next(&out)) parsed.push_back(out);
  }
  ASSERT_EQ(parsed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i], records[i]) << "record " << i;
  }
}

// A record's header and zero filler are one run, so a spill stream's run
// list grows by one descriptor per record.
TEST(RecordSerdeTest, EachSerializedRecordIsOneRun) {
  constexpr int kRecords = 50;
  ByteRuns wire;
  std::vector<Record> in(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    in[i].key = "key" + std::to_string(i);
    in[i].number = i;
    in[i].fields = {"f" + std::to_string(i)};
    in[i].size = 1000 + static_cast<uint64_t>(i);
    SerializeRecord(in[i], &wire);
    EXPECT_EQ(ByteRunsTestPeer::RunCount(wire), static_cast<size_t>(i + 1));
  }
  RecordParser parser;
  parser.Feed(wire);
  Record out;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(parser.Next(&out));
    EXPECT_EQ(out, in[i]);
  }
  EXPECT_FALSE(parser.Next(&out));
}

TEST(RecordSerdeTest, NumberPrecisionPreserved) {
  Record in;
  in.key = "quantile";
  in.number = 0.12345678901234567;
  ByteRuns wire;
  SerializeRecord(in, &wire);
  RecordParser parser;
  parser.Feed(wire);
  Record out;
  ASSERT_TRUE(parser.Next(&out));
  EXPECT_DOUBLE_EQ(out.number, in.number);
}

TEST(RecordSerdeTest, ManyFields) {
  Record in;
  in.key = "multi";
  for (int i = 0; i < 100; ++i) in.fields.push_back("f" + std::to_string(i));
  ByteRuns wire;
  SerializeRecord(in, &wire);
  RecordParser parser;
  parser.Feed(wire);
  Record out;
  ASSERT_TRUE(parser.Next(&out));
  EXPECT_EQ(out.fields.size(), 100u);
  EXPECT_EQ(out.fields[99], "f99");
}

// SortRecords must reproduce std::sort's order exactly, including the
// (unspecified, but deterministic) order of records with equal keys:
// spill files and the simulated schedule depend on it.
TEST(SortRecordsTest, MatchesStdSortIncludingTies) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    std::vector<Record> records;
    size_t n = 1 + static_cast<size_t>(rng.Uniform(3000));
    for (size_t i = 0; i < n; ++i) {
      Record r;
      r.key = "k" + std::to_string(rng.Uniform(40));  // many ties
      r.number = static_cast<double>(i);              // tells ties apart
      r.fields = {std::string(rng.Uniform(40), 'x')};
      r.size = 100 + i;
      records.push_back(std::move(r));
    }
    auto by_key = [](const Record& a, const Record& b) {
      return a.key < b.key;
    };
    std::vector<Record> expected = records;
    std::sort(expected.begin(), expected.end(), by_key);
    SortRecords(&records, by_key);
    EXPECT_EQ(records, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mapred
}  // namespace spongefiles
