#include "mapred/record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/random.h"

namespace spongefiles {

struct ByteRunsTestPeer {
  static size_t RunCount(const ByteRuns& runs) { return runs.runs_.size(); }
  static size_t RunCapacity(const ByteRuns& runs) {
    return runs.runs_.capacity();
  }
  // Distinct literal buffers the handle's runs reference.
  static size_t BufferCount(const ByteRuns& runs) {
    std::set<const ByteRuns::Buffer*> buffers;
    for (const ByteRuns::Run& run : runs.runs_) {
      if (run.buffer.get() != nullptr) buffers.insert(run.buffer.get());
    }
    return buffers.size();
  }
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

// A literal buffer is one allocation, header and bytes together: a spill
// stream of web rows costs one allocation per buffer plus the growth of
// its run vector, and nothing per record.
TEST(RecordSerdeTest, SerializingWebRowsAllocatesOncePerLiteralBuffer) {
  constexpr int kRecords = 1000;
  std::vector<Record> rows(kRecords);
  Rng rng(2014);
  for (Record& row : rows) {
    std::string domain = "domain" + std::to_string(rng.Uniform(100)) + ".com";
    row.key = domain;
    row.number = rng.NextDouble();
    row.fields = {Symbol(domain), Symbol(rng.Uniform(10) == 0 ? "french"
                                                              : "english")};
    for (int t = 0; t < 6; ++t) {
      row.fields.emplace_back("term" + std::to_string(rng.Uniform(20000)));
    }
    row.size = 10 * 1024;
  }
  ByteRuns wire;
  size_t growths = 0;
  {
    alloc_counter::Scope count;
    for (const Record& row : rows) {
      size_t capacity = ByteRunsTestPeer::RunCapacity(wire);
      SerializeRecord(row, &wire);
      if (ByteRunsTestPeer::RunCapacity(wire) != capacity) ++growths;
    }
  }
  EXPECT_EQ(ByteRunsTestPeer::RunCount(wire), static_cast<size_t>(kRecords));
  const size_t buffers = ByteRunsTestPeer::BufferCount(wire);
  EXPECT_GT(buffers, 1u);
  EXPECT_LT(buffers, static_cast<size_t>(kRecords));
  EXPECT_EQ(alloc_counter::allocations, buffers + growths);
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

// The wire form is fixed: header sizes, checksums and every simulated byte
// count derive from it. These hex strings pin SerializeRecord's exact
// output for a web-crawl row (key, domain, language and six terms, plus
// zero filler) and for a 100-field row.
std::string Hex(const ByteRuns& wire) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : wire.ToBytes()) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

TEST(RecordSerdeTest, WireBytesAreGolden) {
  Record web;
  web.key = "domain7.com";
  web.number = 0.3125;
  web.fields = {"domain7.com", "english", "term0",  "term17",
                "term305",     "term4096", "term12", "term19999"};
  web.size = 160;
  ByteRuns web_wire;
  SerializeRecord(web, &web_wire);
  EXPECT_EQ(Hex(web_wire),
            "7e000000a0000000000000000b00646f6d61696e372e636f6d000000000000d4"
            "3f08000b000000646f6d61696e372e636f6d07000000656e676c697368050000"
            "007465726d30060000007465726d3137070000007465726d3330350800000074"
            "65726d34303936060000007465726d3132090000007465726d31393939390000"
            "0000000000000000000000000000000000000000000000000000000000000000");

  Record many;
  many.key = "multi";
  many.number = -2.5;
  for (int i = 0; i < 100; ++i) many.fields.push_back("f" + std::to_string(i));
  many.size = 64;  // below the header size: no filler
  ByteRuns many_wire;
  SerializeRecord(many, &many_wire);
  EXPECT_EQ(Hex(many_wire),
            "cf020000cf0200000000000005006d756c746900000000000004c06400020000"
            "0066300200000066310200000066320200000066330200000066340200000066"
            "3502000000663602000000663702000000663802000000663903000000663130"
            "0300000066313103000000663132030000006631330300000066313403000000"
            "6631350300000066313603000000663137030000006631380300000066313903"
            "0000006632300300000066323103000000663232030000006632330300000066"
            "3234030000006632350300000066323603000000663237030000006632380300"
            "0000663239030000006633300300000066333103000000663332030000006633"
            "3303000000663334030000006633350300000066333603000000663337030000"
            "0066333803000000663339030000006634300300000066343103000000663432"
            "0300000066343303000000663434030000006634350300000066343603000000"
            "6634370300000066343803000000663439030000006635300300000066353103"
            "0000006635320300000066353303000000663534030000006635350300000066"
            "3536030000006635370300000066353803000000663539030000006636300300"
            "0000663631030000006636320300000066363303000000663634030000006636"
            "3503000000663636030000006636370300000066363803000000663639030000"
            "0066373003000000663731030000006637320300000066373303000000663734"
            "0300000066373503000000663736030000006637370300000066373803000000"
            "6637390300000066383003000000663831030000006638320300000066383303"
            "0000006638340300000066383503000000663836030000006638370300000066"
            "3838030000006638390300000066393003000000663931030000006639320300"
            "0000663933030000006639340300000066393503000000663936030000006639"
            "370300000066393803000000663939");
}

// A consumer that parses into one Record reuses its field array, and a
// field's text is interned once per process, so steady-state parsing
// allocates nothing, even when the field count varies from record to
// record and the texts are longer than the small-string buffer.
TEST(RecordParserTest, NextIntoReusedRecordAllocatesNothing) {
  ByteRuns wire;
  for (int i = 0; i < 64; ++i) {
    Record r;
    r.key = "domain" + std::to_string(i % 5) + ".com";
    r.number = i;
    r.fields = {"anchortext term number " + std::to_string(i % 7)};
    if (i % 2 == 0) {
      r.fields.push_back("a second, longer anchortext phrase");
      r.fields.push_back("and a third one " + std::to_string(i % 3));
    }
    r.size = 2000;
    SerializeRecord(r, &wire);
  }
  Record out;
  RecordParser warm;
  warm.Feed(wire);
  while (warm.Next(&out)) {
  }

  RecordParser parser;
  parser.Feed(wire);
  int parsed = 0;
  {
    alloc_counter::Scope count;
    while (parser.Next(&out)) ++parsed;
  }
  EXPECT_EQ(parsed, 64);
  EXPECT_EQ(alloc_counter::allocations, 0u);
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
