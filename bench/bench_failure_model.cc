// Section 4.3 failure analysis: (1) the closed-form probability that a
// task fails because one of the N machines holding its spilled chunks
// fails during its runtime t, P = 1 - exp(-N t / MTTF), with the paper's
// parameters (MTTF = 100 months, tasks up to ~120 minutes); and (2) an
// end-to-end injection experiment: a node holding a straggler's remote
// chunks crashes mid-job, the read fails, the framework retries the task,
// and the job still finishes with the right answer.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "sponge/failure.h"

using namespace spongefiles;
using namespace spongefiles::bench;

namespace {

void ClosedForm() {
  std::printf(
      "P(task failure) = 1 - exp(-N t / MTTF), MTTF = 100 months\n\n");
  const Duration mttf = Minutes(100.0 * 30 * 24 * 60);
  AsciiTable table({"machines N", "t = 10 min", "t = 120 min",
                    "t = 24 h"});
  for (int n : {1, 5, 10, 30, 40}) {
    table.AddRow(
        {StrFormat("%d", n),
         StrFormat("%.2e", sponge::TaskFailureProbability(
                               n, Minutes(10), mttf)),
         StrFormat("%.2e", sponge::TaskFailureProbability(
                               n, Minutes(120), mttf)),
         StrFormat("%.2e", sponge::TaskFailureProbability(
                               n, Minutes(24 * 60), mttf))});
  }
  table.Print();
  std::printf(
      "\npaper: even a 120-minute task spilling to a whole 40-node rack "
      "fails with probability ~%.0e — pre-existing failure causes "
      "dominate.\n\n",
      sponge::TaskFailureProbability(40, Minutes(120), mttf));
}

void InjectionExperiment() {
  std::printf("injection: crash a chunk-holding node mid-job\n");
  workload::TestbedConfig bed_config;
  bed_config.sponge_memory = MiB(256);  // straggler must go remote early
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = MedianCount() / 4;
  workload::NumbersDataset numbers(&bed.dfs(), "numbers", data);

  // The straggling reduce runs on node 0 (partition 0); crash one of its
  // rack peers while the job is in flight. The GC on the restarted node
  // has nothing to recover (sponge servers are stateless).
  sponge::FailureInjector injector(&bed.env(), 1);
  injector.ScheduleCrash(/*node=*/1, /*at=*/Seconds(40),
                         /*downtime=*/Seconds(5));
  injector.ScheduleCrash(/*node=*/2, /*at=*/Seconds(50),
                         /*downtime=*/Seconds(5));

  auto result = bed.RunJob(
      workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge));
  if (!result.ok()) {
    std::printf("  job failed permanently: %s\n",
                result.status().ToString().c_str());
    return;
  }
  const mapred::TaskStats* straggler = result->straggler();
  bool correct = result->output.size() == 1 &&
                 result->output[0].number == numbers.expected_median();
  std::printf(
      "  job completed in %s; straggling reduce needed %d attempt(s); "
      "median %s\n",
      FormatDuration(result->runtime).c_str(), straggler->attempts,
      correct ? "EXACT" : "WRONG");
  std::printf(
      "  (a lost chunk fails the task; the framework restarts it — "
      "section 3.1's recovery story)\n");
}

struct HungRunOutcome {
  Duration runtime = 0;
  bool correct = false;
};

HungRunOutcome RunMedianWithOptionalHang(bool hang) {
  workload::TestbedConfig bed_config;
  bed_config.sponge_memory = MiB(256);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = MedianCount() / 4;
  workload::NumbersDataset numbers(&bed.dfs(), "numbers", data);
  sponge::FailureInjector injector(&bed.env(), 1);
  if (hang) {
    // A rack peer of the straggling reduce stops answering mid-spill,
    // then comes back while the job is still running.
    injector.ScheduleHang(/*node=*/1, /*at=*/Seconds(10),
                          /*duration=*/Seconds(20));
  }
  auto result = bed.RunJob(
      workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge));
  HungRunOutcome out;
  if (!result.ok()) return out;
  out.runtime = result->runtime;
  out.correct = result->output.size() == 1 &&
                result->output[0].number == numbers.expected_median();
  return out;
}

void HungServerExperiment() {
  std::printf(
      "gray failure: a sponge server hangs (no answers, machine alive) "
      "mid-job\n");
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* timeouts = registry.counter("sponge.rpc.timeouts");
  obs::Counter* retries = registry.counter("sponge.rpc.retries");
  obs::Counter* trips =
      registry.counter("sponge.rpc.breaker", {{"event", "trip"}});
  obs::Counter* recoveries =
      registry.counter("sponge.rpc.breaker", {{"event", "recover"}});

  HungRunOutcome baseline = RunMedianWithOptionalHang(false);
  uint64_t timeouts0 = timeouts->value();
  uint64_t retries0 = retries->value();
  uint64_t trips0 = trips->value();
  uint64_t recoveries0 = recoveries->value();
  HungRunOutcome hung = RunMedianWithOptionalHang(true);
  uint64_t d_timeouts = timeouts->value() - timeouts0;
  uint64_t d_retries = retries->value() - retries0;
  uint64_t d_trips = trips->value() - trips0;
  uint64_t d_recoveries = recoveries->value() - recoveries0;

  if (baseline.runtime == 0 || hung.runtime == 0) {
    std::printf("  a run failed permanently; see above\n");
    return;
  }
  double slowdown =
      static_cast<double>(hung.runtime) / static_cast<double>(baseline.runtime);
  std::printf(
      "  fault-free: %s, hung-server: %s (%.2fx), median %s\n",
      FormatDuration(baseline.runtime).c_str(),
      FormatDuration(hung.runtime).c_str(), slowdown,
      hung.correct ? "EXACT" : "WRONG");
  std::printf(
      "  client hardening: %llu rpc timeouts, %llu retries, breaker "
      "trips=%llu recoveries=%llu\n",
      static_cast<unsigned long long>(d_timeouts),
      static_cast<unsigned long long>(d_retries),
      static_cast<unsigned long long>(d_trips),
      static_cast<unsigned long long>(d_recoveries));
  bool ejected = d_trips >= 1;
  bool rejoined = d_recoveries >= 1;
  bool bounded = slowdown < 3.0;
  std::printf(
      "  breaker ejected the sick server: %s; rejoined after half-open "
      "probe: %s; slowdown bounded (<3x): %s\n",
      ejected ? "YES" : "NO", rejoined ? "YES" : "NO",
      bounded ? "YES" : "NO");
  std::printf(
      "  (deadlines un-stick the spill cascade; the hung peer is ejected "
      "and spills fall to other servers or disk until it recovers)\n");
}

struct StragglerOutcome {
  Duration runtime = 0;
  bool correct = false;
  std::vector<mapred::Record> output;
  uint64_t leaked_chunks = 0;
};

// One median job under a fixed gray-failure schedule: the disk below the
// first split's block runs 30x slow for the whole job (the classic
// degraded-disk straggler), and short 1 s RPC-delay spikes sweep the
// sponge servers while the reduce merges. `recover` turns on the two
// recovery mechanisms this PR adds — speculative backup attempts and
// hedged remote reads — while the baseline rides the hardened
// deadline/retry/breaker path alone. The fault schedule is identical in
// both configurations.
StragglerOutcome RunStragglerJob(bool recover) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.sponge_memory = MiB(64);
  // A small OS buffer cache (~48 MB) so map spill streams really reach
  // the slow disk instead of parking in write-back cache.
  bed_config.node_memory = GiB(4);
  bed_config.pinned_memory = MiB(400);
  bed_config.sponge.rpc.hedge_reads = recover;
  // Spikes below last 300 ms; a hedge fired at the 150 ms floor can land
  // after the spike has cleared and win the race.
  bed_config.sponge.rpc.hedge_min_delay = Millis(150);
  workload::Testbed bed(bed_config);
  workload::NumbersDatasetConfig data;
  data.count = 50001;
  workload::NumbersDataset numbers(&bed.dfs(), "nums", data);
  auto block0 = bed.dfs().BlockLocation("nums", 0);
  size_t sick_node = block0.ok() ? *block0 : 0;

  sponge::FailureInjector injector(&bed.env(), 1);
  injector.ScheduleDiskSlowdown(sick_node, Millis(100), /*factor=*/30.0,
                                Minutes(5));
  // RPC-delay spikes: every 977 ms, all sponge servers answer 1 s late
  // for a 120 ms window (think a fleet-wide GC pause or a periodic
  // scraper). The window is shorter than the 150 ms hedge floor, so a
  // hedged read caught by a spike fires its duplicate after the window
  // has cleared and takes the fast copy (~150 ms); the hardened path
  // instead burns the full 500 ms deadline plus a retry. The 977 ms
  // period is co-prime with the simulation's 1 s rhythms so the windows
  // actually intersect traffic.
  for (int k = 0; k < 160; ++k) {
    for (size_t n = 0; n < bed_config.num_nodes; ++n) {
      injector.ScheduleRpcDelay(n, Millis(30000 + 977 * k), Seconds(1),
                                Millis(120));
    }
  }

  auto job = workload::MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  // Keep the lone reduce away from the sick disk's node (and prove out
  // JobConfig::reduce_pins while at it).
  size_t reduce_node = (sick_node + 4) % bed_config.num_nodes;
  job.reduce_pins.push_back({0, reduce_node});
  if (recover) {
    job.speculation.enabled = true;
    job.speculation.check_period = Millis(500);
    job.speculation.min_attempt_age = Seconds(2);
  }

  StragglerOutcome out;
  auto result = bed.RunJob(std::move(job));
  if (!result.ok()) {
    std::printf("  job failed permanently: %s\n",
                result.status().ToString().c_str());
    return out;
  }
  out.runtime = result->runtime;
  out.output = result->output;
  out.correct = result->output.size() == 1 &&
                result->output[0].number == numbers.expected_median();

  // Past every fault window, sweep the GC everywhere: no chunk may
  // survive — in particular none owned by a cancelled backup's loser.
  std::optional<uint64_t> leaked = bed.SettleAndSweep(
      std::max(bed.engine().now(), SimTime{Minutes(5)}) + Seconds(10));
  if (!leaked.has_value()) {
    std::printf("  WARNING: GC sweep did not finish\n");
  }
  out.leaked_chunks = leaked.value_or(0);
  return out;
}

void StragglerExperiment() {
  std::printf(
      "degraded-disk straggler: 30x slow disk under one map's data, plus "
      "RPC-delay spikes\n");
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* launched = registry.counter("mapred.speculation.launched");
  obs::Counter* won = registry.counter("mapred.speculation.won");
  obs::Counter* cancelled = registry.counter("mapred.speculation.cancelled");
  obs::Counter* hedge_issued = registry.counter("sponge.read.hedge.issued");
  obs::Counter* hedge_won = registry.counter("sponge.read.hedge.won");
  obs::Counter* timeouts = registry.counter("sponge.rpc.timeouts");

  uint64_t timeouts0 = timeouts->value();
  StragglerOutcome baseline = RunStragglerJob(/*recover=*/false);
  uint64_t base_timeouts = timeouts->value() - timeouts0;

  uint64_t launched0 = launched->value();
  uint64_t won0 = won->value();
  uint64_t cancelled0 = cancelled->value();
  uint64_t issued0 = hedge_issued->value();
  uint64_t hwon0 = hedge_won->value();
  timeouts0 = timeouts->value();
  StragglerOutcome recovered = RunStragglerJob(/*recover=*/true);
  uint64_t d_launched = launched->value() - launched0;
  uint64_t d_won = won->value() - won0;
  uint64_t d_cancelled = cancelled->value() - cancelled0;
  uint64_t d_issued = hedge_issued->value() - issued0;
  uint64_t d_hwon = hedge_won->value() - hwon0;
  uint64_t rec_timeouts = timeouts->value() - timeouts0;

  if (baseline.runtime == 0 || recovered.runtime == 0) {
    std::printf("  a run failed permanently; see above\n");
    return;
  }
  double improvement = 1.0 - static_cast<double>(recovered.runtime) /
                                 static_cast<double>(baseline.runtime);
  std::printf(
      "  hardened baseline: %s (%llu rpc timeouts), speculation+hedging: "
      "%s (%llu rpc timeouts)\n",
      FormatDuration(baseline.runtime).c_str(),
      static_cast<unsigned long long>(base_timeouts),
      FormatDuration(recovered.runtime).c_str(),
      static_cast<unsigned long long>(rec_timeouts));
  std::printf(
      "  runtime improvement: %.0f%% (target >= 25%%): %s\n",
      improvement * 100.0, improvement >= 0.25 ? "MET" : "MISSED");
  std::printf(
      "  speculation: launched=%llu won=%llu cancelled=%llu; hedged "
      "reads: issued=%llu won=%llu\n",
      static_cast<unsigned long long>(d_launched),
      static_cast<unsigned long long>(d_won),
      static_cast<unsigned long long>(d_cancelled),
      static_cast<unsigned long long>(d_issued),
      static_cast<unsigned long long>(d_hwon));
  bool identical = baseline.output == recovered.output &&
                   baseline.correct && recovered.correct;
  std::printf(
      "  output byte-identical across configurations: %s (median %s); "
      "leaked chunks after GC: baseline=%llu recovered=%llu\n",
      identical ? "YES" : "NO", recovered.correct ? "EXACT" : "WRONG",
      static_cast<unsigned long long>(baseline.leaked_chunks),
      static_cast<unsigned long long>(recovered.leaked_chunks));
  std::printf(
      "  (the backup map escapes the 30x spill path and commits first; "
      "hedged reads ride out the spikes without feeding the breaker)\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto obs_options = spongefiles::bench::ParseObsFlags(argc, argv);
  ClosedForm();
  InjectionExperiment();
  HungServerExperiment();
  StragglerExperiment();
  spongefiles::bench::WriteObsOutputs(obs_options);
  return 0;
}
