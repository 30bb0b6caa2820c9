#include "common/byte_runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"

namespace spongefiles {
namespace {

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
  a.TransformLiterals([](uint64_t, uint8_t* p, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) p[i] ^= 0x5a;
  });
  EXPECT_EQ(AsString(b), b_expected)
      << "transforming the original changed the copy";
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
  // AppendLiteral may grow a still-shared buffer in place; the appended
  // bytes are beyond the copy's view, so the copy must not see them.
  ByteRuns a;
  a.AppendLiteral(Slice(std::string_view("base")));
  ByteRuns b = a;
  a.AppendLiteral(Slice(std::string_view("-more")));
  b.AppendLiteral(Slice(std::string_view("-other")));
  EXPECT_EQ(AsString(a), "base-more");
  EXPECT_EQ(AsString(b), "base-other");
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

// Property test: a web of handles derived from each other via every
// zero-copy operation must each match an independent reference model —
// sharing is never observable through content, size, or checksum. The
// model carries a per-byte literal mask because TransformLiterals visits
// literal bytes that happen to be zero but never visits zero runs.
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
    switch (rng.Uniform(7)) {
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
      case 5: {
        if (!m.bytes.empty()) {
          uint64_t off = rng.Uniform(m.bytes.size());
          h.CorruptByte(off);
          m.bytes[off] = static_cast<char>(m.bytes[off] ^ 0xFF);
          m.mask[off] = '1';  // a corrupted zero becomes a literal byte
        }
        break;
      }
      case 6: {
        uint8_t key = static_cast<uint8_t>(rng.Uniform(256));
        h.TransformLiterals([key](uint64_t, uint8_t* p, uint64_t n) {
          for (uint64_t k = 0; k < n; ++k) p[k] ^= key;
        });
        for (size_t k = 0; k < m.bytes.size(); ++k) {
          if (m.mask[k] == '1') {
            m.bytes[k] = static_cast<char>(m.bytes[k] ^ key);
          }
        }
        break;
      }
    }
    ASSERT_EQ(h.size(), m.bytes.size());
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("handle " + std::to_string(i));
    EXPECT_EQ(AsString(handles[i]), models[i].bytes);
    EXPECT_EQ(handles[i].Checksum64(),
              Checksum::Of(Slice(models[i].bytes)));
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
