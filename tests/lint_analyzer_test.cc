#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/analyzer.h"
#include "lint/diagnostic.h"
#include "lint/lexer.h"

namespace spongefiles::lint {
namespace {

// Check ids of the UNWAIVED diagnostics, in line order.
std::vector<std::string> Ids(const FileReport& report) {
  std::vector<std::string> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (!d.waived) out.push_back(CheckId(d.check));
  }
  return out;
}

FileReport Analyze(const std::string& source,
                   const std::string& path = "src/fake/file.cc") {
  return AnalyzeSource(path, source);
}

// ---- check 1: coroutine-frame escapes -------------------------------------

// The regression this linter exists for: a detached coroutine holding a
// reference into a caller frame that is destroyed before the frame runs.
TEST(CoroRefTest, ReferenceParameterOnCoroutineIsFlagged) {
  FileReport r = Analyze(R"cc(
    sim::Task<> WriteSpill(const std::string& name, uint64_t bytes) {
      co_await disk->Write(bytes);
    }
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"ref"}));
}

TEST(CoroRefTest, ViewParameterIsFlagged) {
  FileReport r = Analyze(R"cc(
    sim::Task<Status> AppendBytes(Slice data);
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"ref"}));
}

TEST(CoroRefTest, ByValueParametersPass) {
  FileReport r = Analyze(R"cc(
    sim::Task<Status> AppendBlock(std::string name, uint64_t bytes);
    sim::Task<> Touch(BlockKey key, bool mark_dirty);
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

// A `&` nested in template arguments does not make the parameter itself a
// reference: a by-value std::function whose call signature takes refs is
// the caller's problem, not a frame escape.
TEST(CoroRefTest, ReferenceInsideTemplateArgumentsPasses) {
  FileReport r = Analyze(R"cc(
    sim::Task<Status> ForEach(std::function<Status(const Tuple&)> fn,
                              bool respill);
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(CoroRefTest, NonCoroutineReferenceParameterPasses) {
  FileReport r = Analyze(R"cc(
    void Observe(const std::string& name);
    Status Validate(const Config& config);
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(CoroRefTest, LambdaWithTrailingTaskReturnIsFlagged) {
  FileReport r = Analyze(R"cc(
    auto run = [](const std::string& key) -> sim::Task<> { co_return; };
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"ref"}));
}

// ---- waivers --------------------------------------------------------------

TEST(WaiverTest, WaiverOnLineAboveSuppresses) {
  FileReport r = Analyze(
      "// lint: ref-ok(awaited inline; the string outlives the frame)\n"
      "sim::Task<> Read(const std::string& name);\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_TRUE(r.diagnostics[0].waived);
  EXPECT_EQ(r.diagnostics[0].waiver_reason,
            "awaited inline; the string outlives the frame");
  EXPECT_EQ(r.unwaived(), 0u);
}

TEST(WaiverTest, WaiverOnSameLineSuppresses) {
  FileReport r = Analyze(
      "sim::Task<> Read(const std::string& name);  "
      "// lint: ref-ok(awaited inline)\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_TRUE(r.diagnostics[0].waived);
}

TEST(WaiverTest, WaiverForDifferentCheckDoesNotSuppress) {
  // The det-ok waiver does not suppress the ref diagnostic, and — since it
  // then matches nothing at all — is itself reported as an orphan.
  FileReport r = Analyze(
      "// lint: det-ok(not the right check)\n"
      "sim::Task<> Read(const std::string& name);\n");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"orphan", "ref"}));
}

TEST(WaiverTest, WaiverWithoutReasonIsItselfADiagnostic) {
  FileReport r = Analyze(
      "// lint: ref-ok\n"
      "sim::Task<> Read(const std::string& name);\n");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"waiver", "ref"}));
}

TEST(WaiverTest, WaiverForUnknownCheckIsADiagnostic) {
  FileReport r = Analyze("int x;  // lint: bogus-ok(meaningless)\n");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"waiver"}));
}

TEST(WaiverTest, EmptyWaiverMarkerIsADiagnostic) {
  FileReport r = Analyze("int x;  // lint:\n");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"waiver"}));
}

// ---- check 2: determinism hazards -----------------------------------------

// Reintroducing a wall-clock read must fail the lint tier.
TEST(DeterminismTest, SystemClockIsFlagged) {
  FileReport r = Analyze(R"cc(
    auto t0 = std::chrono::system_clock::now();
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"det"}));
}

TEST(DeterminismTest, BannedCallInExpressionIsFlagged) {
  FileReport r = Analyze(R"cc(
    uint64_t seed = time(nullptr);
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"det"}));
}

TEST(DeterminismTest, MemberNamedLikeBannedCallPasses) {
  FileReport r = Analyze(R"cc(
    Duration elapsed = stats.time();
    Duration time(int scale);
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(DeterminismTest, AllowlistedPathPasses) {
  FileReport r = AnalyzeSource("src/common/random.h", R"cc(
    #include <random>
    std::mt19937_64 engine;
  )cc",
                               AnalyzerOptions());
  EXPECT_TRUE(Ids(r).empty());
}

// ---- check 5: banned headers ----------------------------------------------

TEST(BannedHeaderTest, MutexAndThreadAreFlagged) {
  FileReport r = Analyze("#include <mutex>\n#include <thread>\n");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"header", "header"}));
  // No directory is exempt from the threading ban, the engine's included.
  EXPECT_EQ(Ids(Analyze("#include <thread>\n", "src/sim/engine.cc")),
            (std::vector<std::string>{"header"}));
}

TEST(BannedHeaderTest, OrdinaryHeadersPass) {
  FileReport r = Analyze("#include <vector>\n#include \"sim/task.h\"\n");
  EXPECT_TRUE(Ids(r).empty());
}

// Random and time headers stay banned in the engine's own directory too.
TEST(BannedHeaderTest, ThreadingAllowlistDoesNotCoverRandomOrTime) {
  EXPECT_EQ(Ids(Analyze("#include <random>\n", "src/sim/engine.cc")),
            (std::vector<std::string>{"header"}));
  EXPECT_EQ(Ids(Analyze("#include <ctime>\n", "src/sim/engine.cc")),
            (std::vector<std::string>{"header"}));
}

// ---- check 3: unordered iteration -----------------------------------------

TEST(UnorderedIterTest, IterationFeedingOrderedOutputIsFlagged) {
  FileReport r = Analyze(R"cc(
    std::unordered_map<std::string, int> counts;
    void Emit(std::vector<std::string>* out) {
      for (const auto& [key, value] : counts) {
        out->push_back(key);
      }
    }
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"iter"}));
}

TEST(UnorderedIterTest, IterationWithoutASinkPasses) {
  FileReport r = Analyze(R"cc(
    std::unordered_map<std::string, int> counts;
    int Total() {
      int total = 0;
      for (const auto& [key, value] : counts) {
        total = total + value;
      }
      return total;
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(UnorderedIterTest, OrderedContainerPasses) {
  FileReport r = Analyze(R"cc(
    std::map<std::string, int> counts;
    void Emit(std::vector<std::string>* out) {
      for (const auto& [key, value] : counts) {
        out->push_back(key);
      }
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

// ---- check 4: lock held across a suspension point -------------------------

TEST(LockAcrossAwaitTest, AwaitWhileHoldingMutexIsFlagged) {
  FileReport r = Analyze(R"cc(
    sim::Task<> Critical(Mutex* mu, Engine* engine) {
      co_await mu->Lock();
      co_await engine->Delay(Millis(1));
      mu->Unlock();
    }
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"lock"}));
}

TEST(LockAcrossAwaitTest, ReleaseBeforeNextAwaitPasses) {
  FileReport r = Analyze(R"cc(
    sim::Task<> Critical(Mutex* mu, Engine* engine) {
      co_await mu->Lock();
      mu->Unlock();
      co_await engine->Delay(Millis(1));
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(LockAcrossAwaitTest, ScopeExitDropsTheLock) {
  FileReport r = Analyze(R"cc(
    sim::Task<> Two(Mutex* mu, Engine* engine) {
      {
        co_await mu->Lock();
        mu->Unlock();
      }
      co_await engine->Delay(Millis(1));
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

// ---- check 6: unchecked Status / Result -----------------------------------

TEST(UncheckedStatusTest, DiscardedStatusCallIsFlagged) {
  FileReport r = Analyze(R"cc(
    Status Save(int x);
    void Run() {
      Save(1);
    }
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"status"}));
}

TEST(UncheckedStatusTest, AssignedStatusPasses) {
  FileReport r = Analyze(R"cc(
    Status Save(int x);
    void Run() {
      Status s = Save(1);
      if (!s.ok()) return;
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

TEST(UncheckedStatusTest, DiscardedAwaitedStatusIsFlagged) {
  FileReport r = Analyze(R"cc(
    sim::Task<Status> Flush(uint64_t file);
    sim::Task<> Run() {
      co_await Flush(1);
    }
  )cc");
  EXPECT_EQ(Ids(r), (std::vector<std::string>{"status"}));
}

TEST(UncheckedStatusTest, AwaitedPlainTaskPasses) {
  FileReport r = Analyze(R"cc(
    sim::Task<> Delay(uint64_t n);
    sim::Task<> Run() {
      co_await Delay(1);
    }
  )cc");
  EXPECT_TRUE(Ids(r).empty());
}

// ---- symbol indexing ------------------------------------------------------

TEST(SymbolIndexTest, HarvestsDeclarations) {
  LexResult lex = Lex(R"cc(
    #include "sim/task.h"
    #include "common/status.h"
    Status Open(std::string name);
    Result<uint64_t> Size(uint64_t id);
    sim::Task<Status> Flush(uint64_t file);
    sim::Task<> Delay(uint64_t n);
    std::unordered_map<uint64_t, Block> blocks_;
  )cc");
  SymbolIndex index = IndexSymbols(lex);
  EXPECT_EQ(index.status_functions.count("Open"), 1u);
  EXPECT_EQ(index.status_functions.count("Size"), 1u);
  EXPECT_EQ(index.awaitable_status_functions.count("Flush"), 1u);
  EXPECT_EQ(index.awaitable_status_functions.count("Delay"), 0u);
  EXPECT_EQ(index.unordered_names.count("blocks_"), 1u);
  EXPECT_EQ(index.quoted_includes,
            (std::vector<std::string>{"sim/task.h", "common/status.h"}));
}

TEST(SymbolIndexTest, ExpressionUsesAreNotDeclarations) {
  LexResult lex = Lex(R"cc(
    void Run() {
      return Status::OK();
      auto s = Status(StatusCode::kInternal, "x");
    }
  )cc");
  SymbolIndex index = IndexSymbols(lex);
  EXPECT_TRUE(index.status_functions.empty());
}

}  // namespace
}  // namespace spongefiles::lint
