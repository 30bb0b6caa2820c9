#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "alloc_counter.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace spongefiles::obs {
namespace {

// A hand-advanced clock: SpanGuard only needs `int64_t now() const`.
struct ManualClock {
  int64_t t = 0;
  int64_t now() const { return t; }
};

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  ManualClock clock;
  tracer.CompleteEvent(0, 5, 1, 1, "cat", "x");
  tracer.InstantEvent(1, 1, 1, "cat", "y");
  {
    SpanGuard span(&tracer, &clock, 1, 1, "cat", "z");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

// Span names longer than the small-string buffer and string args used to
// allocate even with tracing off.
TEST(TracerTest, DisabledSpanWithArgsAllocatesNothing) {
  Tracer tracer;
  ManualClock clock;
  const std::string medium = "local-memory-and-then-some";
  {
    alloc_counter::Scope count;
    SpanGuard span(&tracer, &clock, 1, 2, "mapred", "reduce.fetch_segment");
    span.Arg("medium", medium);
    span.Arg("locality", "cross-rack");
    span.Arg("bytes", uint64_t{4096});
  }
  EXPECT_EQ(alloc_counter::allocations, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, SpanGuardRecordsNestedSpans) {
  Tracer tracer;
  tracer.set_enabled(true);
  ManualClock clock;
  {
    SpanGuard outer(&tracer, &clock, 3, 7, "mapred", "outer");
    clock.t = 10;
    {
      SpanGuard inner(&tracer, &clock, 3, 7, "sponge", "inner");
      inner.Arg("bytes", uint64_t{128});
      clock.t = 25;
    }
    clock.t = 40;
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  auto inner = tracer.SpansNamed("inner");
  auto outer = tracer.SpansNamed("outer");
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(inner[0], std::make_pair(int64_t{10}, int64_t{15}));
  EXPECT_EQ(outer[0], std::make_pair(int64_t{0}, int64_t{40}));
  // The inner span is fully contained in the outer one.
  EXPECT_GE(inner[0].first, outer[0].first);
  EXPECT_LE(inner[0].first + inner[0].second,
            outer[0].first + outer[0].second);
}

TEST(TracerTest, JsonCarriesEventFieldsAndSeq) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.CompleteEvent(5, 10, 2, 9, "disk", "disk.write",
                       {TraceArg::Num("bytes", uint64_t{4096})});
  tracer.InstantEvent(7, 2, 9, "sponge", "spill.decision",
                      {TraceArg::Str("reason", "pool-full")});
  std::string json = tracer.ToJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"disk.write\",\"cat\":\"disk\",\"ph\":\"X\""
                      ",\"ts\":5,\"dur\":10,\"pid\":2,\"tid\":9,"
                      "\"args\":{\"seq\":0,\"bytes\":4096}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\",\"ts\":7"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"seq\":1,\"reason\":\"pool-full\"}"),
            std::string::npos);
}

TEST(TracerTest, ClearResetsEventsAndSequence) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.InstantEvent(1, 0, 0, "c", "a");
  tracer.Clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.InstantEvent(1, 0, 0, "c", "a");
  EXPECT_NE(tracer.ToJson().find("\"seq\":0"), std::string::npos);
}

// One small simulated scenario: two activities interleave via delays,
// each recording spans against the engine clock.
sim::Task<> Activity(sim::Engine* engine, Tracer* tracer, uint64_t pid,
                     Duration step) {
  for (int i = 0; i < 3; ++i) {
    SpanGuard span(tracer, engine, pid, 0, "test", "work");
    span.Arg("round", static_cast<uint64_t>(i));
    co_await engine->Delay(step);
  }
  tracer->InstantEvent(engine->now(), pid, 0, "test", "done");
}

std::string RunScenario() {
  sim::Engine engine;
  Tracer tracer;
  tracer.set_enabled(true);
  engine.Spawn(Activity(&engine, &tracer, 1, 10));
  engine.Spawn(Activity(&engine, &tracer, 2, 7));
  engine.Run();
  return tracer.ToJson();
}

TEST(TracerTest, IdenticalSimRunsProduceByteIdenticalTraces) {
  std::string first = RunScenario();
  std::string second = RunScenario();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Simulated timestamps (not wall clock) drive the trace: the spans at
  // pid 2 tick every 7 us.
  EXPECT_NE(first.find("\"ts\":7,"), std::string::npos);
  EXPECT_NE(first.find("\"ts\":14,"), std::string::npos);
}

TEST(TracerTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&Tracer::Default(), &Tracer::Default());
  EXPECT_FALSE(Tracer::Default().enabled());  // off unless a flag enables it
}

}  // namespace
}  // namespace spongefiles::obs
