// Chaos integration test (the robustness tentpole's end-to-end check):
// randomized gray-failure schedules — hangs, slow RPCs, slow disks, sick
// links, tracker outages, bit rot, crashes — are injected into a small
// testbed while a skewed median job runs. Under every seed the job must
// produce output byte-identical to a fault-free run (checksums catch
// corruption, task retries and the spill cascade recover everything), no
// chunk may leak once the GC has swept, the whole run must stay
// deterministic for a fixed seed, and a hung server must never deadlock
// the job (the client-side deadlines un-stick it).
//
// A second, smaller workload pins the engine's schedule itself: its
// runtime, output, event count, final clock, spilled bytes and leaked
// chunks are compared with constants, so any engine change that reorders
// events fails here rather than only in the benchmarks.
//
// The number of chaos seeds defaults low so plain ctest stays fast;
// tools/check.sh raises it via SPONGE_CHAOS_SEEDS for the sanitizer run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapred/job.h"
#include "obs/metrics.h"
#include "sponge/failure.h"
#include "workload/testbed.h"

namespace spongefiles {
namespace {

int ChaosSeeds() {
  // lint: det-ok(seed-sweep width knob, read at test startup; not simulated state)
  const char* env = std::getenv("SPONGE_CHAOS_SEEDS");
  if (env == nullptr) return 4;
  int n = std::atoi(env);
  return n < 1 ? 1 : n;
}

// The skewed median job on a small testbed (tiny sponge pools force the
// remote path, so the fault surface actually gets exercised), under a
// ten-fault chaos schedule drawn from `seed`, or none for the fault-free
// baseline (seed 0). RunChaosMedian settles the clock past every fault
// window — a sweep against a still-hung or down server would not prove
// anything — and GC-sweeps every server before counting leaked chunks.
workload::ChaosMedianRun RunChaosJob(uint64_t seed) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  // Two racks behind a 4:1 core: the chaos sweep then also exercises
  // tracker-shard outages, gossip partitions, and the cross-rack rung.
  bed_config.nodes_per_rack = 4;
  bed_config.oversubscription = 4.0;
  bed_config.sponge.allow_cross_rack = true;
  bed_config.sponge_memory = MiB(64);
  // Hedged reads stay on for both the fault-free baseline and the chaos
  // runs (so their outputs stay comparable): slow-but-alive servers are
  // raced instead of ridden into the breaker.
  bed_config.sponge.rpc.hedge_reads = true;
  // Replication is on for the whole sweep: replica writes, read failover,
  // and the tracker-driven repair loop all run under every fault schedule
  // and must never change the answer or leak a chunk.
  bed_config.sponge.replication.enabled = true;

  sponge::ChaosOptions chaos;
  chaos.start = Seconds(2);
  chaos.horizon = Seconds(90);
  chaos.num_faults = seed == 0 ? 0 : 10;
  // Fail-stop crashes (no restart): the paper's failure model, and the
  // scenario replication exists for — a crashed server's chunks must be
  // served from replicas and re-replicated by the repair loop.
  chaos.fail_stop_crashes = true;
  // RunChaosMedian runs with speculation on: backup attempts launched
  // against chaos-induced stragglers must never change the answer, and
  // their killed losers must not leak chunks past the sweep.
  workload::ChaosMedianRun run =
      workload::RunChaosMedian(bed_config, chaos, seed);
  EXPECT_TRUE(run.status.ok()) << "seed " << seed << ": "
                               << run.status.ToString();
  if (run.status.ok()) {
    EXPECT_TRUE(run.leaked_chunks.has_value())
        << "seed " << seed << ": GC sweep did not finish";
  }
  return run;
}

TEST(SpongeChaosTest, OutputMatchesFaultFreeRunAndNothingLeaks) {
  workload::ChaosMedianRun baseline = RunChaosJob(0);
  ASSERT_FALSE(baseline.output.empty());
  EXPECT_EQ(baseline.leaked_chunks, 0u);
  int seeds = ChaosSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    workload::ChaosMedianRun chaotic =
        RunChaosJob(static_cast<uint64_t>(seed));
    EXPECT_FALSE(chaotic.schedule.empty());
    // Byte-identical output: same records in the same order. Faults may
    // slow the job down but must never change what it computes.
    EXPECT_EQ(chaotic.output, baseline.output);
    EXPECT_EQ(chaotic.leaked_chunks, 0u);
  }
}

TEST(SpongeChaosTest, FixedSeedIsDeterministic) {
  workload::ChaosMedianRun first = RunChaosJob(42);
  workload::ChaosMedianRun second = RunChaosJob(42);
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.runtime, second.runtime);
  EXPECT_EQ(first.output, second.output);
}

TEST(SpongeChaosTest, HungServerDoesNotDeadlockJob) {
  // One rack peer hangs for most of the job: every RPC parked on it must
  // be timed out by the client, the breaker must eject the server, and
  // the job must still finish correctly (Testbed's internal one-day
  // deadline is the deadlock detector).
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.sponge_memory = MiB(64);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);
  sponge::FailureInjector injector(&bed.env(), 1);
  injector.ScheduleHang(/*node=*/1, /*at=*/Seconds(5),
                        /*duration=*/Minutes(10));
  auto result = bed.RunJob(
      workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->output.size(), 1u);
  EXPECT_EQ(result->output[0].number, numbers.expected_median());
}

// The attempt-race counters: mapred.speculation.{launched,won,cancelled}
// and the total over every mapred.task.rerun.reason label.
struct AttemptCounts {
  uint64_t launched = 0;
  uint64_t won = 0;
  uint64_t cancelled = 0;
  uint64_t reruns = 0;

  static AttemptCounts Now() {
    obs::Registry& registry = obs::Registry::Default();
    AttemptCounts now;
    now.launched = registry.counter("mapred.speculation.launched")->value();
    now.won = registry.counter("mapred.speculation.won")->value();
    now.cancelled = registry.counter("mapred.speculation.cancelled")->value();
    for (const char* reason : {"timeout", "checksum", "chunk-lost", "aborted",
                               "resource-exhausted", "other"}) {
      now.reruns +=
          registry.counter("mapred.task.rerun.reason", {{"reason", reason}})
              ->value();
    }
    return now;
  }

  AttemptCounts Since(const AttemptCounts& before) const {
    return {launched - before.launched, won - before.won,
            cancelled - before.cancelled, reruns - before.reruns};
  }
};

// Everything deterministic a mini-workload run produces.
struct MiniSnapshot {
  Duration runtime = 0;
  std::vector<mapred::Record> output;
  uint64_t events = 0;
  SimTime now = 0;
  uint64_t spilled = 0;
  uint64_t leaked = 0;
  // Who won each attempt race.
  AttemptCounts attempts;
};

// The skewed median job on a 4-node testbed with speculation on, spilling
// through `sponge`; a nonzero `chaos_seed` adds a six-fault chaos schedule,
// then settles the clock and GC-sweeps every server before counting leaked
// chunks.
MiniSnapshot RunMiniWorkload(uint64_t chaos_seed,
                             const sponge::SpongeConfig& sponge = {}) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 4;
  bed_config.sponge_memory = MiB(64);
  bed_config.sponge = sponge;
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 20001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);

  sponge::FailureInjector injector(&bed.env(), chaos_seed);
  if (chaos_seed != 0) {
    sponge::ChaosOptions chaos;
    chaos.start = Seconds(2);
    chaos.horizon = Seconds(60);
    chaos.num_faults = 6;
    injector.ScheduleChaos(chaos);
  }

  auto job = workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  job.speculation.enabled = true;
  job.speculation.check_period = Seconds(1);
  job.speculation.min_attempt_age = Seconds(3);
  AttemptCounts before = AttemptCounts::Now();
  auto result = bed.RunJob(std::move(job));

  MiniSnapshot snap;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    snap.runtime = result->runtime;
    snap.output = result->output;
    for (const auto& task : result->map_tasks) {
      snap.spilled += task.spill.bytes_spilled;
    }
    for (const auto& task : result->reduce_tasks) {
      snap.spilled += task.spill.bytes_spilled;
    }
  }
  if (chaos_seed != 0) {
    std::optional<uint64_t> leaked = bed.SettleAndSweep(
        std::max(bed.engine().now(), Seconds(60)) + Seconds(10));
    EXPECT_TRUE(leaked.has_value());
    snap.leaked = leaked.value_or(0);
  }
  snap.events = bed.engine().events_processed();
  snap.now = bed.engine().now();
  snap.attempts = AttemptCounts::Now().Since(before);
  return snap;
}

// The constants were recorded from the single-queue engine; a change to
// event order, tie-breaking or spawn scheduling moves at least one of them.
// The `all_paths` rows turn on every client path the default config skips
// (replica writes, hedged reads, socket-routed local chunks, synchronous
// stores), so a change to any of them moves a constant too.
// The counter columns pin who wins each attempt race: a change to which
// attempt commits (or to when a task re-runs) moves one of them.
TEST(SpongeChaosTest, MiniWorkloadScheduleIsPinned) {
  struct Expected {
    uint64_t seed;
    bool all_paths;
    Duration runtime;
    uint64_t events;
    SimTime now;
    AttemptCounts attempts;
  };
  const Expected kExpected[] = {
      {0, false, 6334158, 4511, 10010000, {0, 0, 0, 0}},
      {1, false, 6334158, 4978, 80000000, {0, 0, 0, 0}},
      {2, false, 6334043, 4980, 80000000, {0, 0, 0, 0}},
      {0, true, 7382621, 5339, 10010000, {0, 0, 0, 0}},
      {1, true, 7382621, 5806, 80000000, {0, 0, 0, 0}},
      {2, true, 7382506, 5809, 80000000, {0, 0, 0, 0}},
      // A fault costs one task a re-run.
      {23, false, 9010730, 8501, 80000000, {0, 0, 0, 1}},
  };
  sponge::SpongeConfig all_paths;
  all_paths.replication.enabled = true;
  all_paths.rpc.hedge_reads = true;
  all_paths.direct_local_access = false;
  all_paths.async_write = false;
  mapred::Record median;
  median.key = "median";
  median.number = 10000;
  for (const Expected& want : kExpected) {
    SCOPED_TRACE("chaos seed " + std::to_string(want.seed) +
                 (want.all_paths ? ", all paths" : ""));
    MiniSnapshot got = want.all_paths ? RunMiniWorkload(want.seed, all_paths)
                                      : RunMiniWorkload(want.seed);
    EXPECT_EQ(got.runtime, want.runtime);
    EXPECT_EQ(got.output, std::vector<mapred::Record>{median});
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.now, want.now);
    EXPECT_EQ(got.spilled, 409620480u);
    EXPECT_EQ(got.leaked, 0u);
    EXPECT_EQ(got.attempts.launched, want.attempts.launched);
    EXPECT_EQ(got.attempts.won, want.attempts.won);
    EXPECT_EQ(got.attempts.cancelled, want.attempts.cancelled);
    EXPECT_EQ(got.attempts.reruns, want.attempts.reruns);
  }
}

}  // namespace
}  // namespace spongefiles
