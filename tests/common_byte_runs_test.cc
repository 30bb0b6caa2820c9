#include "common/byte_runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"

namespace spongefiles {

struct ByteRunsTestPeer {
  // Distinct literal buffers a handle's runs reference: header packing
  // shows up as fewer buffers than runs with literal bytes.
  static size_t BufferCount(const ByteRuns& runs) {
    std::set<const ByteRuns::Buffer*> buffers;
    for (const ByteRuns::Run& run : runs.runs_) {
      if (run.buffer.get() != nullptr) buffers.insert(run.buffer.get());
    }
    return buffers.size();
  }

  static size_t RunCount(const ByteRuns& runs) { return runs.runs_.size(); }

  // Every run is non-empty and holds a buffer exactly when it has literal
  // bytes.
  static bool WellFormed(const ByteRuns& runs) {
    return std::all_of(runs.runs_.begin(), runs.runs_.end(),
                       [](const ByteRuns::Run& run) {
                         return run.size() > 0 &&
                                (run.buffer.get() != nullptr) ==
                                    (run.length > 0);
                       });
  }

  // References held on the buffer of run `i` (which has literal bytes).
  static uint32_t Refs(const ByteRuns& runs, size_t i) {
    return runs.runs_[i].buffer->refs;
  }

  static bool SameBuffer(const ByteRuns& a, size_t i, const ByteRuns& b,
                         size_t j) {
    return a.runs_[i].buffer.get() == b.runs_[j].buffer.get();
  }

  static constexpr uint64_t kLiteralCapacity = ByteRuns::kLiteralCapacity;
};

namespace {

size_t BufferCount(const ByteRuns& runs) {
  return ByteRunsTestPeer::BufferCount(runs);
}

size_t RunCount(const ByteRuns& runs) {
  return ByteRunsTestPeer::RunCount(runs);
}

bool WellFormed(const ByteRuns& runs) {
  return ByteRunsTestPeer::WellFormed(runs);
}

std::string MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(26));
  return out;
}

TEST(ByteRunsTest, EmptyByDefault) {
  ByteRuns runs;
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(runs.size(), 0u);
  EXPECT_EQ(runs.physical_size(), 0u);
}

TEST(ByteRunsTest, LiteralRoundTrip) {
  ByteRuns runs;
  std::string data = MakeData(1000, 7);
  runs.AppendLiteral(Slice(data));
  EXPECT_EQ(runs.size(), 1000u);
  EXPECT_EQ(runs.physical_size(), 1000u);
  auto bytes = runs.ToBytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), data);
}

TEST(ByteRunsTest, ZerosAreLogicalOnly) {
  ByteRuns runs;
  runs.AppendZeros(1 << 20);
  EXPECT_EQ(runs.size(), 1u << 20);
  EXPECT_EQ(runs.physical_size(), 0u);
  uint8_t buf[16];
  runs.Read((1 << 20) - 16, 16, buf);
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
}

TEST(ByteRunsTest, MixedRunsReadAcrossBoundaries) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("head")));
  runs.AppendZeros(10);
  runs.AppendLiteral(Slice(std::string_view("tail")));
  EXPECT_EQ(runs.size(), 18u);
  auto bytes = runs.ToBytes();
  std::string expected = "head" + std::string(10, '\0') + "tail";
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), expected);

  // Partial read spanning the zero run.
  uint8_t buf[8];
  runs.Read(2, 8, buf);
  std::string got(reinterpret_cast<char*>(buf), 8);
  EXPECT_EQ(got, expected.substr(2, 8));
}

TEST(ByteRunsTest, AdjacentZeroRunsCoalesce) {
  ByteRuns runs;
  runs.AppendZeros(5);
  runs.AppendZeros(7);
  EXPECT_EQ(runs.size(), 12u);
  // Coalescing is observable through SplitPrefix producing one run cheaply;
  // here we just verify content.
  auto bytes = runs.ToBytes();
  for (uint8_t b : bytes) EXPECT_EQ(b, 0);
}

TEST(ByteRunsTest, SmallLiteralAppendsMerge) {
  ByteRuns runs;
  std::string expected;
  for (int i = 0; i < 100; ++i) {
    std::string piece = MakeData(17, static_cast<uint64_t>(i));
    runs.AppendLiteral(Slice(piece));
    expected += piece;
  }
  EXPECT_EQ(runs.size(), expected.size());
  auto bytes = runs.ToBytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), expected);
}

TEST(ByteRunsTest, CursorViewStaysWithinOneLiteralRun) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string("abcdef")));
  runs.AppendZeros(10);
  runs.AppendLiteral(Slice(std::string("xyz")));
  ByteRuns::Cursor cursor(&runs);
  auto view = [&](uint64_t n) {
    const uint8_t* p = cursor.View(n);
    return p == nullptr ? std::string("<null>")
                        : std::string(reinterpret_cast<const char*>(p), n);
  };
  EXPECT_EQ(view(3), "abc");
  EXPECT_EQ(view(6), "abcdef");
  EXPECT_EQ(view(7), "<null>");  // runs into the zero run
  cursor.Skip(2);
  EXPECT_EQ(view(4), "cdef");
  cursor.Skip(4);
  EXPECT_EQ(view(1), "<null>");  // zero runs have no bytes to view
  cursor.Skip(10);
  EXPECT_EQ(view(3), "xyz");
  EXPECT_EQ(view(0), "<null>");
}

TEST(ByteRunsTest, AppendOtherPreservesContent) {
  ByteRuns a;
  a.AppendLiteral(Slice(std::string_view("abc")));
  a.AppendZeros(3);
  ByteRuns b;
  b.AppendLiteral(Slice(std::string_view("xyz")));
  a.Append(b);
  auto bytes = a.ToBytes();
  std::string expected = "abc" + std::string(3, '\0') + "xyz";
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), expected);
}

TEST(ByteRunsTest, SplitPrefixExactBoundary) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("0123456789")));
  ByteRuns prefix = runs.SplitPrefix(4);
  EXPECT_EQ(prefix.size(), 4u);
  EXPECT_EQ(runs.size(), 6u);
  auto p = prefix.ToBytes();
  auto r = runs.ToBytes();
  EXPECT_EQ(std::string(p.begin(), p.end()), "0123");
  EXPECT_EQ(std::string(r.begin(), r.end()), "456789");
}

TEST(ByteRunsTest, SplitPrefixInsideZeroRun) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("ab")));
  runs.AppendZeros(10);
  runs.AppendLiteral(Slice(std::string_view("cd")));
  ByteRuns prefix = runs.SplitPrefix(7);
  EXPECT_EQ(prefix.size(), 7u);
  EXPECT_EQ(runs.size(), 7u);
  std::string expect_prefix = "ab" + std::string(5, '\0');
  std::string expect_rest = std::string(5, '\0') + "cd";
  auto p = prefix.ToBytes();
  auto r = runs.ToBytes();
  EXPECT_EQ(std::string(p.begin(), p.end()), expect_prefix);
  EXPECT_EQ(std::string(r.begin(), r.end()), expect_rest);
}

TEST(ByteRunsTest, SplitPrefixZeroAndFull) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("xy")));
  ByteRuns empty = runs.SplitPrefix(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(runs.size(), 2u);
  ByteRuns all = runs.SplitPrefix(2);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(runs.empty());
}

TEST(ByteRunsTest, ClearResets) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("abc")));
  runs.AppendZeros(10);
  runs.Clear();
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(runs.physical_size(), 0u);
}

// Property test: random sequences of literal/zero appends and splits keep
// content identical to a reference std::string model.
class ByteRunsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ByteRunsPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  ByteRuns runs;
  std::string model;
  for (int step = 0; step < 200; ++step) {
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      std::string data = MakeData(rng.Uniform(300) + 1, rng.Next());
      runs.AppendLiteral(Slice(data));
      model += data;
    } else if (op == 1) {
      uint64_t n = rng.Uniform(500) + 1;
      runs.AppendZeros(n);
      model += std::string(n, '\0');
    } else if (!model.empty()) {
      uint64_t n = rng.Uniform(model.size() + 1);
      ByteRuns prefix = runs.SplitPrefix(n);
      auto p = prefix.ToBytes();
      EXPECT_EQ(std::string(p.begin(), p.end()), model.substr(0, n));
      model = model.substr(n);
    }
    ASSERT_EQ(runs.size(), model.size());
  }
  auto bytes = runs.ToBytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), model);
}

// Cursor::Take against SubRange and the string model: interleaved Skip and
// Take calls over random literal and zero runs, including empty takes and
// takes that end exactly on an append boundary.
TEST_P(ByteRunsPropertyTest, CursorTakeMatchesSubRange) {
  Rng rng(GetParam());
  ByteRuns runs;
  std::string model;
  std::vector<uint64_t> boundaries;  // model size after each append
  for (int i = 0; i < 60; ++i) {
    if (rng.Uniform(2) == 0) {
      std::string data = MakeData(rng.Uniform(300) + 1, rng.Next());
      runs.AppendLiteral(Slice(data));
      model += data;
    } else {
      uint64_t n = rng.Uniform(500) + 1;
      runs.AppendZeros(n);
      model += std::string(n, '\0');
    }
    boundaries.push_back(model.size());
  }

  ByteRuns::Cursor cursor(&runs);
  size_t next_boundary = 0;
  int takes = 0;
  while (cursor.available() > 0) {
    const uint64_t at = cursor.position();
    while (boundaries[next_boundary] <= at) ++next_boundary;
    uint64_t n = 0;
    switch (rng.Uniform(4)) {
      case 0:
        break;  // Take(0) / Skip(0)
      case 1:
        n = boundaries[next_boundary] - at;
        break;
      default:
        n = rng.Uniform(std::min<uint64_t>(cursor.available(), 700)) + 1;
    }
    // View is an in-place Peek: null, or exactly the bytes Peek copies.
    if (const uint8_t* view = n > 0 ? cursor.View(n) : nullptr) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(view), n),
                model.substr(at, n))
          << "at " << at;
    }
    if (rng.Uniform(4) == 0) {
      cursor.Skip(n);
    } else {
      ByteRuns piece = cursor.Take(n);
      ByteRuns expected = runs.SubRange(at, n);
      const std::string want = model.substr(at, n);
      auto got = piece.ToBytes();
      EXPECT_EQ(std::string(got.begin(), got.end()), want) << "at " << at;
      EXPECT_EQ(piece.size(), expected.size());
      EXPECT_EQ(piece.physical_size(), expected.physical_size());
      // Literal bytes are letters, so the literal count is the non-zero
      // count.
      EXPECT_EQ(piece.physical_size(),
                static_cast<uint64_t>(std::count_if(
                    want.begin(), want.end(), [](char c) { return c != 0; })));
      EXPECT_EQ(piece.Checksum64(), expected.Checksum64());
      EXPECT_EQ(piece.Checksum64(), Checksum::Of(Slice(want)));
      ++takes;
    }
    ASSERT_EQ(cursor.position(), at + n);
  }
  EXPECT_EQ(cursor.position(), model.size());
  EXPECT_GT(takes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRunsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- zero-copy plane: copy-on-write, aliasing, accounting -----------------

std::string AsString(const ByteRuns& runs) {
  auto bytes = runs.ToBytes();
  return std::string(bytes.begin(), bytes.end());
}

TEST(ByteRunsCowTest, CopiesNeverAlias) {
  ByteRuns a;
  std::string data = MakeData(4096, 11);
  a.AppendLiteral(Slice(data));
  ByteRuns b = a;  // shares the buffer
  b.CorruptByte(100);
  std::string b_expected = data;
  b_expected[100] = static_cast<char>(b_expected[100] ^ 0xFF);
  EXPECT_EQ(AsString(a), data) << "mutating a copy changed the original";
  EXPECT_EQ(AsString(b), b_expected);
  ByteRuns c = a;  // shares the original buffer again
  a.CorruptByte(100);
  a.CorruptByte(2000);
  std::string a_expected = data;
  a_expected[100] = static_cast<char>(a_expected[100] ^ 0xFF);
  a_expected[2000] = static_cast<char>(a_expected[2000] ^ 0xFF);
  EXPECT_EQ(AsString(a), a_expected);
  EXPECT_EQ(AsString(b), b_expected)
      << "mutating the original changed the copy";
  EXPECT_EQ(AsString(c), data) << "mutating the original changed the copy";
}

TEST(ByteRunsCowTest, SubRangeIsStableAgainstParentMutation) {
  ByteRuns parent;
  std::string data = MakeData(1000, 13);
  parent.AppendLiteral(Slice(data));
  ByteRuns view = parent.SubRange(200, 300);
  EXPECT_EQ(AsString(view), data.substr(200, 300));
  parent.CorruptByte(250);  // inside the viewed range
  EXPECT_EQ(AsString(view), data.substr(200, 300))
      << "corrupting the parent changed an existing sub-range view";
  std::string parent_expected = data;
  parent_expected[250] = static_cast<char>(parent_expected[250] ^ 0xFF);
  view.CorruptByte(0);  // view offset 0 aliases parent offset 200
  EXPECT_EQ(AsString(parent), parent_expected)
      << "corrupting a view leaked into the parent";
}

TEST(ByteRunsCowTest, SplitHalvesShareButNeverAlias) {
  ByteRuns rest;
  std::string data = MakeData(1000, 17);
  rest.AppendLiteral(Slice(data));
  ByteRuns prefix = rest.SplitPrefix(400);  // cuts the single run in two
  prefix.CorruptByte(399);
  EXPECT_EQ(AsString(rest), data.substr(400))
      << "corrupting the prefix changed the remainder";
  rest.CorruptByte(0);
  EXPECT_NE(AsString(rest), data.substr(400));
  std::string p = AsString(prefix);
  EXPECT_EQ(p.substr(0, 399), data.substr(0, 399));
}

TEST(ByteRunsCowTest, AppendSharesWithoutAliasing) {
  ByteRuns src;
  std::string data = MakeData(500, 19);
  src.AppendLiteral(Slice(data));
  ByteRuns dst;
  dst.AppendZeros(8);
  dst.Append(src);
  dst.CorruptByte(8);  // first shared byte
  EXPECT_EQ(AsString(src), data) << "mutating the appender changed the source";
}

TEST(ByteRunsCowTest, SelfAppendDoublesContent) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("abc")));
  runs.AppendZeros(2);
  runs.Append(runs);
  std::string once = "abc" + std::string(2, '\0');
  EXPECT_EQ(AsString(runs), once + once);
}

TEST(ByteRunsCowTest, AppendAfterCopyGrowsOnlyOneHandle) {
  // AppendLiteral may write into a still-shared buffer's spare capacity;
  // the appended bytes are beyond the copy's view, so the copy must not
  // see them.
  ByteRuns a;
  a.AppendLiteral(Slice(std::string_view("base")));
  ByteRuns b = a;
  a.AppendLiteral(Slice(std::string_view("-more")));
  b.AppendLiteral(Slice(std::string_view("-other")));
  EXPECT_EQ(AsString(a), "base-more");
  EXPECT_EQ(AsString(b), "base-other");
}

// A buffer never reallocates: extending a literal past a shared buffer's
// capacity moves the extender's run to a fresh buffer, and the handle
// still holding the full one keeps its bytes and its digest.
TEST(ByteRunsCowTest, ExtendingPastASharedFullBufferMovesOnlyTheExtender) {
  const std::string full = MakeData(ByteRunsTestPeer::kLiteralCapacity, 31);
  ByteRuns a;
  a.AppendLiteral(Slice(full));
  ByteRuns b = a;
  ASSERT_TRUE(ByteRunsTestPeer::SameBuffer(a, 0, b, 0));
  ASSERT_EQ(ByteRunsTestPeer::Refs(b, 0), 2u);
  const uint64_t digest = b.Checksum64();

  const std::string more = MakeData(100, 32);
  a.AppendLiteral(Slice(more));
  EXPECT_EQ(RunCount(a), 1u);
  EXPECT_FALSE(ByteRunsTestPeer::SameBuffer(a, 0, b, 0));
  EXPECT_EQ(ByteRunsTestPeer::Refs(a, 0), 1u);
  EXPECT_EQ(ByteRunsTestPeer::Refs(b, 0), 1u);
  EXPECT_EQ(AsString(a), full + more);
  EXPECT_EQ(a.physical_size(), full.size() + more.size());
  EXPECT_EQ(a.Checksum64(), Checksum::Of(Slice(full + more)));
  EXPECT_EQ(AsString(b), full);
  EXPECT_EQ(b.Checksum64(), digest);
  EXPECT_EQ(b.Checksum64(), Checksum::Of(Slice(full)));

  // The moved run has spare capacity: the next small literal extends it in
  // place, and the other handle can still extend its own view.
  a.AppendLiteral(Slice(std::string("tail")));
  b.AppendLiteral(Slice(std::string("other")));
  EXPECT_EQ(AsString(a), full + more + "tail");
  EXPECT_EQ(AsString(b), full + "other");
  EXPECT_TRUE(WellFormed(a));
  EXPECT_TRUE(WellFormed(b));
}

TEST(ByteRunsCowTest, PhysicalSizeCountsPerHandleViews) {
  ByteRuns a;
  a.AppendLiteral(Slice(MakeData(100, 23)));
  a.AppendZeros(50);
  EXPECT_EQ(a.physical_size(), 100u);
  ByteRuns b = a;  // shares: each handle still reports its own view
  EXPECT_EQ(b.physical_size(), 100u);
  ByteRuns view = a.SubRange(10, 60);
  EXPECT_EQ(view.physical_size(), 60u);
  EXPECT_EQ(a.physical_size(), 100u);
  ByteRuns prefix = a.SplitPrefix(40);
  EXPECT_EQ(prefix.physical_size(), 40u);
  EXPECT_EQ(a.physical_size(), 60u);
  a.Clear();
  EXPECT_EQ(a.physical_size(), 0u);
  EXPECT_EQ(b.physical_size(), 100u);
}

TEST(ByteRunsCowTest, ChecksumMemoSurvivesSharingAndInvalidatesOnMutate) {
  ByteRuns a;
  std::string data = MakeData(10000, 29);
  a.AppendLiteral(Slice(data));
  a.AppendZeros(5000);
  uint64_t fresh = a.Checksum64();
  EXPECT_EQ(a.Checksum64(), fresh);  // memoized path
  ByteRuns b = a;                    // memo rides along
  EXPECT_EQ(b.Checksum64(), fresh);
  b.CorruptByte(1);
  EXPECT_NE(b.Checksum64(), fresh) << "mutation did not invalidate the memo";
  EXPECT_EQ(a.Checksum64(), fresh) << "mutating a copy dirtied the original";
  b.CorruptByte(1);  // flip back: content equality restores the digest
  EXPECT_EQ(b.Checksum64(), fresh);
  // The memoized digest always equals the from-scratch reference.
  auto bytes = a.ToBytes();
  EXPECT_EQ(a.Checksum64(),
            Checksum::Of(Slice(bytes.data(), bytes.size())));
}

// Record-style stream: header, zero filler, header, ... Each header is a
// few dozen literal bytes with its own run.
struct HeaderStream {
  ByteRuns runs;
  std::string bytes;              // logical content
  std::vector<uint64_t> offsets;  // where each header starts
  std::vector<uint64_t> lengths;
};

HeaderStream MakeHeaderStream(int headers) {
  HeaderStream s;
  for (int i = 0; i < headers; ++i) {
    std::string header = MakeData(24 + 4 * static_cast<size_t>(i),
                                  100 + static_cast<uint64_t>(i));
    s.offsets.push_back(s.bytes.size());
    s.lengths.push_back(header.size());
    s.runs.AppendLiteral(Slice(header));
    s.bytes += header;
    uint64_t filler = 500 + 10 * static_cast<uint64_t>(i);
    s.runs.AppendZeros(filler);
    s.bytes += std::string(filler, '\0');
  }
  return s;
}

TEST(ByteRunsPackTest, HeaderFillerStreamSharesOneBuffer) {
  HeaderStream packed = MakeHeaderStream(5);
  EXPECT_EQ(BufferCount(packed.runs), 1u);
  // The unpacked model: every header in a buffer of its own, shared in
  // from a separate handle.
  ByteRuns unpacked;
  uint64_t header_bytes = 0;
  for (size_t i = 0; i < packed.offsets.size(); ++i) {
    ByteRuns header;
    header.AppendLiteral(
        Slice(packed.bytes.substr(packed.offsets[i], packed.lengths[i])));
    unpacked.Append(header);
    uint64_t end = i + 1 < packed.offsets.size() ? packed.offsets[i + 1]
                                                 : packed.bytes.size();
    unpacked.AppendZeros(end - packed.offsets[i] - packed.lengths[i]);
    header_bytes += packed.lengths[i];
  }
  EXPECT_EQ(BufferCount(unpacked), 5u);
  EXPECT_EQ(AsString(packed.runs), packed.bytes);
  EXPECT_EQ(packed.runs.ToBytes(), unpacked.ToBytes());
  EXPECT_EQ(packed.runs.Checksum64(), unpacked.Checksum64());
  EXPECT_EQ(packed.runs.Checksum64(), Checksum::Of(Slice(packed.bytes)));
  EXPECT_EQ(packed.runs.physical_size(), unpacked.physical_size());
  EXPECT_EQ(packed.runs.physical_size(), header_bytes);
}

TEST(ByteRunsPackTest, PackingStopsWhenTheBufferIsFullOrExtended) {
  // Headers larger than the reserved capacity each need a buffer.
  ByteRuns big;
  std::string header = MakeData(4000, 7);
  for (int i = 0; i < 3; ++i) {
    big.AppendLiteral(Slice(header));
    big.AppendZeros(100);
  }
  EXPECT_EQ(BufferCount(big), 3u);
  // A copy that extended the shared buffer first keeps the other handle
  // from packing into it: its run no longer ends at the buffer's end.
  HeaderStream a = MakeHeaderStream(1);
  ByteRuns b = a.runs;
  a.runs.AppendLiteral(Slice(std::string("first")));
  b.AppendLiteral(Slice(std::string("second")));
  EXPECT_EQ(BufferCount(a.runs), 1u);
  EXPECT_EQ(BufferCount(b), 2u);
  EXPECT_EQ(AsString(a.runs), a.bytes + "first");
  EXPECT_EQ(AsString(b), a.bytes + "second");
}

TEST(ByteRunsPackTest, MutatingOnePackedHeaderLeavesNeighboursAndHandles) {
  HeaderStream s = MakeHeaderStream(4);
  ByteRuns copy = s.runs;
  ByteRuns header2 = s.runs.SubRange(s.offsets[2], s.lengths[2]);
  const std::string pristine = s.bytes;

  // Bit rot in header 1 changes exactly that byte of this handle.
  s.runs.CorruptByte(s.offsets[1] + 3);
  std::string expected = pristine;
  char& rotted = expected[s.offsets[1] + 3];
  rotted = static_cast<char>(rotted ^ 0xFF);
  EXPECT_EQ(AsString(s.runs), expected);
  EXPECT_EQ(AsString(copy), pristine);
  EXPECT_EQ(AsString(header2), pristine.substr(s.offsets[2], s.lengths[2]));

  // Flipping every byte of a handle that holds only header 2 leaves the
  // stream and its copy alone.
  for (uint64_t k = 0; k < s.lengths[2]; ++k) header2.CorruptByte(k);
  std::string flipped = pristine.substr(s.offsets[2], s.lengths[2]);
  for (char& c : flipped) c = static_cast<char>(c ^ 0xFF);
  EXPECT_EQ(AsString(header2), flipped);
  EXPECT_EQ(AsString(s.runs), expected);
  EXPECT_EQ(AsString(copy), pristine);

  // Flipping every header byte of the whole stream leaves the copy alone.
  for (size_t i = 0; i < s.offsets.size(); ++i) {
    for (uint64_t k = 0; k < s.lengths[i]; ++k) {
      s.runs.CorruptByte(s.offsets[i] + k);
      char& c = expected[s.offsets[i] + k];
      c = static_cast<char>(c ^ 0xFF);
    }
  }
  EXPECT_EQ(AsString(s.runs), expected);
  EXPECT_EQ(AsString(copy), pristine);
  EXPECT_EQ(copy.Checksum64(), Checksum::Of(Slice(pristine)));
}

// ---- runs: literal bytes followed by a zero tail ---------------------------

TEST(ByteRunsTailTest, RecordStreamHoldsOneRunPerRecord) {
  constexpr int kRecords = 40;
  HeaderStream s = MakeHeaderStream(kRecords);
  EXPECT_EQ(RunCount(s.runs), static_cast<size_t>(kRecords));
  EXPECT_TRUE(WellFormed(s.runs));
  EXPECT_EQ(AsString(s.runs), s.bytes);
  // Header packing fills each fresh buffer before starting the next,
  // exactly as when header and filler were separate runs.
  size_t buffers = 0;
  uint64_t used = 0;
  for (uint64_t length : s.lengths) {
    if (buffers == 0 || used + length > ByteRunsTestPeer::kLiteralCapacity) {
      ++buffers;
      used = 0;
    }
    used += length;
  }
  EXPECT_EQ(BufferCount(s.runs), buffers);
  EXPECT_GT(buffers, 1u);
  EXPECT_LT(buffers, static_cast<size_t>(kRecords));
}

TEST(ByteRunsTailTest, CorruptByteInZeroTailSplitsOneRunIntoTwo) {
  const std::string pristine = "abc" + std::string(10, '\0');
  for (uint64_t at : {3u, 7u, 12u}) {
    ByteRuns runs;
    runs.AppendLiteral(Slice(std::string_view("abc")));
    runs.AppendZeros(10);
    ASSERT_EQ(RunCount(runs), 1u);
    runs.CorruptByte(at);
    std::string expected = pristine;
    expected[at] = static_cast<char>(0xFF);
    EXPECT_EQ(RunCount(runs), 2u) << "at " << at;
    EXPECT_TRUE(WellFormed(runs)) << "at " << at;
    EXPECT_EQ(AsString(runs), expected) << "at " << at;
    EXPECT_EQ(runs.physical_size(), 4u);
    EXPECT_EQ(runs.Checksum64(), Checksum::Of(Slice(expected)));
  }
  // A run with no literal bytes: a flip at its first byte replaces it.
  ByteRuns zeros;
  zeros.AppendZeros(10);
  zeros.CorruptByte(0);
  EXPECT_EQ(RunCount(zeros), 1u);
  EXPECT_TRUE(WellFormed(zeros));
  EXPECT_EQ(AsString(zeros), "\xFF" + std::string(9, '\0'));
  zeros.CorruptByte(5);
  EXPECT_EQ(RunCount(zeros), 2u);
  EXPECT_EQ(zeros.physical_size(), 2u);
}

TEST(ByteRunsTailTest, CutsInsideAZeroTail) {
  auto make = [] {
    ByteRuns runs;
    runs.AppendLiteral(Slice(std::string_view("abcd")));
    runs.AppendZeros(20);
    runs.AppendLiteral(Slice(std::string_view("efg")));
    runs.AppendZeros(5);
    return runs;
  };
  const std::string model =
      "abcd" + std::string(20, '\0') + "efg" + std::string(5, '\0');

  ByteRuns split = make();
  ASSERT_EQ(RunCount(split), 2u);
  ByteRuns prefix = split.SplitPrefix(10);
  EXPECT_EQ(AsString(prefix), model.substr(0, 10));
  EXPECT_EQ(AsString(split), model.substr(10));
  EXPECT_EQ(RunCount(prefix), 1u);
  EXPECT_EQ(RunCount(split), 2u);  // 14 zeros, then "efg" and its tail
  EXPECT_EQ(prefix.physical_size(), 4u);
  EXPECT_EQ(split.physical_size(), 3u);
  EXPECT_TRUE(WellFormed(prefix));
  EXPECT_TRUE(WellFormed(split));

  ByteRuns trimmed = make();
  trimmed.TrimPrefix(10);
  EXPECT_EQ(AsString(trimmed), model.substr(10));
  EXPECT_EQ(RunCount(trimmed), 2u);
  EXPECT_EQ(trimmed.physical_size(), 3u);
  EXPECT_EQ(BufferCount(trimmed), 1u);  // the cut-off literal is released
  EXPECT_TRUE(WellFormed(trimmed));

  ByteRuns source = make();
  ByteRuns::Cursor cursor(&source);
  ByteRuns head = cursor.Take(2);
  ByteRuns tail_part = cursor.Take(6);  // "cd" and 4 zeros of the tail
  ByteRuns zeros_only = cursor.Take(10);
  ByteRuns rest = cursor.Take(cursor.available());
  EXPECT_EQ(AsString(head), "ab");
  EXPECT_EQ(AsString(tail_part), model.substr(2, 6));
  EXPECT_EQ(AsString(zeros_only), std::string(10, '\0'));
  EXPECT_EQ(AsString(rest), model.substr(18));
  EXPECT_EQ(RunCount(tail_part), 1u);
  EXPECT_EQ(RunCount(zeros_only), 1u);
  EXPECT_EQ(BufferCount(zeros_only), 0u);
  EXPECT_EQ(zeros_only.physical_size(), 0u);
  EXPECT_EQ(rest.physical_size(), 3u);
  for (const ByteRuns* piece : {&head, &tail_part, &zeros_only, &rest}) {
    EXPECT_TRUE(WellFormed(*piece));
  }
}

TEST(ByteRunsTailTest, AppendingZeroOnlyRunsExtendsTheLastRun) {
  ByteRuns runs;
  runs.AppendLiteral(Slice(std::string_view("abc")));
  ByteRuns zeros;
  zeros.AppendZeros(7);
  runs.Append(zeros);
  EXPECT_EQ(RunCount(runs), 1u);
  ByteRuns more_zeros;
  more_zeros.AppendZeros(5);
  runs.Append(std::move(more_zeros));
  EXPECT_EQ(RunCount(runs), 1u);
  EXPECT_TRUE(WellFormed(runs));
  EXPECT_EQ(AsString(runs), "abc" + std::string(12, '\0'));
  EXPECT_EQ(runs.physical_size(), 3u);
  // A literal after the tail starts the next run (packed in the buffer).
  runs.AppendLiteral(Slice(std::string_view("de")));
  EXPECT_EQ(RunCount(runs), 2u);
  EXPECT_EQ(BufferCount(runs), 1u);
}

// Property test: a web of handles derived from each other via every
// zero-copy operation must each match an independent reference model —
// sharing is never observable through content, size, or checksum. The
// model carries a per-byte literal mask because physical_size() counts
// literal bytes, which the content alone cannot tell from zero-run bytes.
class ByteRunsCowPropertyTest : public ::testing::TestWithParam<uint64_t> {};

struct RefModel {
  std::string bytes;
  std::string mask;  // '1' literal byte, '0' zero-run byte
};

TEST_P(ByteRunsCowPropertyTest, HandlesMatchIndependentModels) {
  Rng rng(GetParam());
  std::vector<ByteRuns> handles(1);
  std::vector<RefModel> models(1);
  // The loop body holds references into these vectors across push_backs
  // (capped at 12 elements), so pin the storage now.
  handles.reserve(16);
  models.reserve(16);
  for (int step = 0; step < 300; ++step) {
    size_t i = static_cast<size_t>(rng.Uniform(handles.size()));
    ByteRuns& h = handles[i];
    RefModel& m = models[i];
    switch (rng.Uniform(9)) {
      case 0: {
        std::string data = MakeData(rng.Uniform(200) + 1, rng.Next());
        h.AppendLiteral(Slice(data));
        m.bytes += data;
        m.mask += std::string(data.size(), '1');
        break;
      }
      case 1: {
        uint64_t n = rng.Uniform(300) + 1;
        h.AppendZeros(n);
        m.bytes += std::string(n, '\0');
        m.mask += std::string(n, '0');
        break;
      }
      case 2: {  // copy: new independent handle sharing every buffer
        if (handles.size() < 12) {
          handles.push_back(h);
          models.push_back(m);
        }
        break;
      }
      case 3: {  // sub-range view as a new handle
        if (!m.bytes.empty() && handles.size() < 12) {
          uint64_t off = rng.Uniform(m.bytes.size());
          uint64_t n = rng.Uniform(m.bytes.size() - off) + 1;
          handles.push_back(h.SubRange(off, n));
          models.push_back(
              RefModel{m.bytes.substr(off, n), m.mask.substr(off, n)});
        }
        break;
      }
      case 4: {  // split; keep both halves
        if (!m.bytes.empty() && handles.size() < 12) {
          uint64_t n = rng.Uniform(m.bytes.size() + 1);
          handles.push_back(h.SplitPrefix(n));
          models.push_back(
              RefModel{m.bytes.substr(0, n), m.mask.substr(0, n)});
          m.bytes = m.bytes.substr(n);
          m.mask = m.mask.substr(n);
        }
        break;
      }
      case 5:
      case 6: {  // bit rot at a random offset
        if (!m.bytes.empty()) {
          uint64_t off = rng.Uniform(m.bytes.size());
          h.CorruptByte(off);
          m.bytes[off] = static_cast<char>(m.bytes[off] ^ 0xFF);
          m.mask[off] = '1';  // a corrupted zero becomes a literal byte
        }
        break;
      }
      case 7: {  // record-style header, filler, header: packed headers
        for (int k = 0; k < 2; ++k) {
          std::string header = MakeData(rng.Uniform(60) + 12, rng.Next());
          h.AppendLiteral(Slice(header));
          m.bytes += header;
          m.mask += std::string(header.size(), '1');
          if (k == 0) {
            uint64_t filler = rng.Uniform(300) + 1;
            h.AppendZeros(filler);
            m.bytes += std::string(filler, '\0');
            m.mask += std::string(filler, '0');
          }
        }
        break;
      }
      case 8: {  // move-append a copy of some handle (maybe this one)
        size_t j = static_cast<size_t>(rng.Uniform(handles.size()));
        ByteRuns moved = handles[j];
        std::string bytes = models[j].bytes;
        std::string mask = models[j].mask;
        h.Append(std::move(moved));
        EXPECT_TRUE(moved.empty());
        EXPECT_EQ(moved.physical_size(), 0u);
        m.bytes += bytes;
        m.mask += mask;
        break;
      }
    }
    ASSERT_EQ(h.size(), m.bytes.size());
    ASSERT_TRUE(WellFormed(h));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("handle " + std::to_string(i));
    EXPECT_TRUE(WellFormed(handles[i]));
    EXPECT_EQ(AsString(handles[i]), models[i].bytes);
    EXPECT_EQ(handles[i].Checksum64(),
              Checksum::Of(Slice(models[i].bytes)));
    EXPECT_EQ(handles[i].physical_size(),
              static_cast<uint64_t>(std::count(models[i].mask.begin(),
                                               models[i].mask.end(), '1')));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRunsCowPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

TEST(ChecksumTest, ZerosMatchLiteralZeros) {
  std::string zeros(1000, '\0');
  Checksum a;
  a.Update(Slice(zeros));
  Checksum b;
  b.UpdateZeros(1000);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(ChecksumTest, OrderSensitive) {
  EXPECT_NE(Checksum::Of(Slice(std::string_view("ab"))),
            Checksum::Of(Slice(std::string_view("ba"))));
}

}  // namespace
}  // namespace spongefiles
