// Self-performance suite: wall-clock benchmarks of the simulator itself,
// the measurement side of the zero-copy data plane and event-engine fast
// path (DESIGN.md "Performance engineering").
//
// Unlike every other bench in this directory, which reports *simulated*
// quantities, this one deliberately reads the host's wall clock and RSS —
// the only place in the tree allowed to (spongelint waivers below). The
// fixed suite:
//
//   event_storm       ~1M zero-delay yields + interleaved timed events;
//                     pure engine throughput, no workload.
//   table2_spill      Median + Spam Quantiles under SpongeFile spilling at
//                     pinned dataset sizes (the Table 2 shape).
//   fig5_contention   Frequent Anchortext with a background grep on 4 GB
//                     nodes (the Figure 5 shape).
//   chaos_sweep       N seeded gray-failure runs of the skewed median job,
//                     leak-checked after a GC sweep.
//
// Dataset sizes are pinned here (not via SPONGE_BENCH_SCALE) so two runs
// always execute the identical simulation. Determinism is the acceptance
// gate:
//   --sim-out=PATH  writes only simulated quantities; byte-identical
//                   across runs for the same build (tools/perf.sh diffs
//                   it, along with --trace-out and --metrics-out
//                   snapshots).
//   --out=PATH      writes the wall-clock report (BENCH_selfperf.json).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/text_file.h"
#include "obs/json.h"
#include "sponge/failure.h"

using namespace spongefiles;
using namespace spongefiles::bench;

namespace {

struct ScenarioResult {
  std::string name;
  double wall_ms = 0;
  uint64_t engine_events = 0;  // deterministic
  SimTime sim_time = 0;        // deterministic
  // Deterministic: summed job runtimes. Unlike sim_time (the testbed's
  // final clock, often pinned by a fixed-length background workload) this
  // moves with the data plane's efficiency.
  Duration job_runtime = 0;
  uint64_t sim_bytes = 0;      // deterministic: logical bytes the data
                               // plane moved (spill accounting)
  uint64_t digest = 0;         // deterministic: FNV over scenario outputs
  bool ok = false;             // deterministic
};

// ---- event_storm -----------------------------------------------------------

sim::Task<> StormLane(sim::Engine* engine, uint64_t lane, uint64_t yields,
                      uint64_t* acc) {
  for (uint64_t i = 0; i < yields; ++i) {
    // Mostly zero-delay yields (the ring's diet) with a timed event mixed
    // in per lane per 16 iterations (keeps the heap honest).
    co_await engine->Delay((i & 15) == lane ? 1 : 0);
    *acc += lane + 1;
  }
}

ScenarioResult RunEventStorm() {
  ScenarioResult r;
  r.name = "event_storm";
  constexpr uint64_t kLanes = 8;
  constexpr uint64_t kYields = 125000;  // 8 * 125k = 1M events
  double start = WallMs();
  sim::Engine engine;
  uint64_t acc = 0;
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    engine.Spawn(StormLane(&engine, lane, kYields, &acc));
  }
  engine.Run();
  r.engine_events = engine.events_processed();
  r.sim_time = engine.now();
  r.wall_ms = WallMs() - start;
  Digest d;
  d.U64(acc);
  d.U64(engine.now());
  r.digest = d.h;
  r.ok = acc == kLanes * (kLanes + 1) / 2 * kYields;
  return r;
}

// ---- macro-job scenarios ---------------------------------------------------

// Pinned sizes: small enough that the suite finishes in minutes, large
// enough that every job spills through the sponge path.
MacroOptions PinnedOptions() {
  MacroOptions options;
  options.node_memory = GiB(4);
  options.heap_per_slot = MiB(128);
  options.sponge_memory = MiB(256);
  options.median_count = 200001;
  options.web_bytes = MiB(256);
  options.grep_bytes = GiB(1);
  return options;
}

void FoldRun(const MacroRun& run, ScenarioResult* r, Digest* d) {
  r->engine_events += run.engine_events;
  r->sim_time += run.sim_now;
  r->job_runtime += run.runtime;
  r->sim_bytes += run.total_spill.bytes_spilled + run.straggler.input_bytes;
  r->ok = r->ok && run.correct;
  d->U64(run.runtime);
  d->U64(run.total_spill.bytes_spilled);
  d->U64(run.total_spill.sponge_chunks);
  d->U64(run.straggler.input_bytes);
  d->U64(run.sim_now);
}

ScenarioResult RunTable2Spill() {
  ScenarioResult r;
  r.name = "table2_spill";
  r.ok = true;
  Digest d;
  double start = WallMs();
  for (MacroJob job : {MacroJob::kMedian, MacroJob::kSpamQuantiles}) {
    MacroRun run = RunMacro(job, mapred::SpillMode::kSponge, PinnedOptions());
    FoldRun(run, &r, &d);
  }
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

ScenarioResult RunFig5Contention() {
  ScenarioResult r;
  r.name = "fig5_contention";
  r.ok = true;
  Digest d;
  double start = WallMs();
  MacroOptions options = PinnedOptions();
  options.background_grep = true;
  MacroRun run =
      RunMacro(MacroJob::kAnchortext, mapred::SpillMode::kSponge, options);
  FoldRun(run, &r, &d);
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

// ---- chaos_sweep -----------------------------------------------------------

// The chaos test's scenario (tests/sponge_chaos_test.cc) on a one-rack
// testbed without replication, where crashed nodes restart: the skewed
// median job under a seeded gray-failure schedule (none for seed 0, the
// baseline), GC-swept afterwards and leak-counted.
workload::ChaosMedianRun RunChaosJob(uint64_t seed) {
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = 8;
  bed_config.sponge_memory = MiB(64);
  bed_config.sponge.rpc.hedge_reads = true;
  sponge::ChaosOptions chaos;
  chaos.start = Seconds(2);
  chaos.horizon = Seconds(90);
  chaos.num_faults = seed == 0 ? 0 : 10;
  workload::ChaosMedianRun run =
      workload::RunChaosMedian(bed_config, chaos, seed);
  if (!run.status.ok()) {
    std::fprintf(stderr, "chaos seed %llu failed: %s\n",
                 static_cast<unsigned long long>(seed),
                 run.status.ToString().c_str());
  }
  return run;
}

// Passed: the job finished with the right median and nothing leaked.
bool ChaosRunOk(const workload::ChaosMedianRun& run) {
  return run.correct && run.leaked_chunks == 0u;
}

void FoldChaosRun(const workload::ChaosMedianRun& run, ScenarioResult* r) {
  r->engine_events += run.events;
  r->sim_time += run.now;
  r->job_runtime += run.runtime;
  r->sim_bytes += run.spilled_bytes;
}

ScenarioResult RunChaosSweep(int seeds) {
  ScenarioResult r;
  r.name = "chaos_sweep";
  Digest d;
  double start = WallMs();
  workload::ChaosMedianRun baseline = RunChaosJob(0);
  r.ok = ChaosRunOk(baseline);
  for (int seed = 1; seed <= seeds; ++seed) {
    workload::ChaosMedianRun chaotic = RunChaosJob(static_cast<uint64_t>(seed));
    r.ok = r.ok && ChaosRunOk(chaotic) && chaotic.output == baseline.output;
    FoldChaosRun(chaotic, &r);
    d.U64(chaotic.runtime);
    d.U64(chaotic.spilled_bytes);
    d.U64(chaotic.leaked_chunks.value_or(0));
  }
  FoldChaosRun(baseline, &r);
  d.U64(baseline.runtime);
  r.wall_ms = WallMs() - start;
  r.digest = d.h;
  return r;
}

// ---- reports ---------------------------------------------------------------

// Simulated quantities only — must be byte-identical across build flavors.
std::string SimJson(const std::vector<ScenarioResult>& results) {
  std::string out = "{\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out += "    {\"name\": ";
    obs::AppendJsonEscaped(&out, r.name);
    out += ", \"engine_events\": ";
    obs::AppendJsonUint(&out, r.engine_events);
    out += ", \"sim_time_us\": ";
    obs::AppendJsonUint(&out, static_cast<uint64_t>(r.sim_time));
    out += ", \"job_runtime_us\": ";
    obs::AppendJsonUint(&out, static_cast<uint64_t>(r.job_runtime));
    out += ", \"sim_bytes\": ";
    obs::AppendJsonUint(&out, r.sim_bytes);
    out += ", \"digest\": ";
    obs::AppendJsonUint(&out, r.digest);
    out += ", \"ok\": ";
    out += r.ok ? "true" : "false";
    out += "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string WallJson(const std::vector<ScenarioResult>& results,
                     int chaos_seeds) {
  const char* flavor = "fastpath";
  double total_wall = 0;
  uint64_t total_events = 0, total_bytes = 0;
  for (const ScenarioResult& r : results) {
    total_wall += r.wall_ms;
    total_events += r.engine_events;
    total_bytes += r.sim_bytes;
  }
  std::string out = "{\n  \"bench\": \"selfperf\",\n  \"flavor\": \"";
  out += flavor;
  out += "\",\n  \"chaos_seeds\": ";
  obs::AppendJsonUint(&out, static_cast<uint64_t>(chaos_seeds));
  out += ",\n  \"build_type\": ";
  obs::AppendJsonEscaped(&out, SPONGEFILES_BUILD_TYPE);
  out += ",\n  \"host_cores\": ";
  obs::AppendJsonUint(&out, HostCores());
  out += ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    double secs = r.wall_ms / 1000.0;
    out += "    {\"name\": ";
    obs::AppendJsonEscaped(&out, r.name);
    out += ", \"wall_ms\": ";
    obs::AppendJsonDouble(&out, r.wall_ms);
    out += ", \"engine_events\": ";
    obs::AppendJsonUint(&out, r.engine_events);
    out += ", \"events_per_sec\": ";
    obs::AppendJsonDouble(&out, secs > 0 ? r.engine_events / secs : 0);
    out += ", \"sim_bytes\": ";
    obs::AppendJsonUint(&out, r.sim_bytes);
    out += ", \"sim_bytes_per_sec\": ";
    obs::AppendJsonDouble(&out, secs > 0 ? r.sim_bytes / secs : 0);
    out += ", \"ok\": ";
    out += r.ok ? "true" : "false";
    out += "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"total_wall_ms\": ";
  obs::AppendJsonDouble(&out, total_wall);
  out += ",\n  \"total_engine_events\": ";
  obs::AppendJsonUint(&out, total_events);
  double total_secs = total_wall / 1000.0;
  out += ",\n  \"events_per_sec\": ";
  obs::AppendJsonDouble(&out, total_secs > 0 ? total_events / total_secs : 0);
  out += ",\n  \"sim_bytes_per_sec\": ";
  obs::AppendJsonDouble(&out, total_secs > 0 ? total_bytes / total_secs : 0);
  out += ",\n  \"peak_rss_bytes\": ";
  obs::AppendJsonUint(&out, PeakRssBytes());
  out += "\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options = ParseObsFlags(argc, argv);
  std::string out_path = "BENCH_selfperf.json";
  std::string sim_out_path;
  int chaos_seeds = 5;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--sim-out=", 0) == 0) {
      sim_out_path = arg.substr(10);
    } else if (arg.rfind("--chaos-seeds=", 0) == 0) {
      chaos_seeds = std::atoi(arg.c_str() + 14);
      if (chaos_seeds < 1) chaos_seeds = 1;
    }
  }

  std::printf("self-perf suite (fast-path data plane)\n\n");

  std::vector<ScenarioResult> results;
  results.push_back(RunEventStorm());
  results.push_back(RunTable2Spill());
  results.push_back(RunFig5Contention());
  results.push_back(RunChaosSweep(chaos_seeds));

  AsciiTable table({"Scenario", "wall", "events", "Mev/s", "sim bytes",
                    "ok"});
  bool all_ok = true;
  for (const ScenarioResult& r : results) {
    all_ok = all_ok && r.ok;
    double secs = r.wall_ms / 1000.0;
    table.AddRow({r.name, StrFormat("%.0f ms", r.wall_ms),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(r.engine_events)),
                  StrFormat("%.2f",
                            secs > 0 ? r.engine_events / secs / 1e6 : 0.0),
                  FormatBytes(r.sim_bytes), r.ok ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\npeak RSS: %s\n", FormatBytes(PeakRssBytes()).c_str());

  if (!WriteTextFile(out_path, WallJson(results, chaos_seeds)).ok()) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  if (!sim_out_path.empty()) {
    if (!WriteTextFile(sim_out_path, SimJson(results)).ok()) {
      std::fprintf(stderr, "failed to write %s\n", sim_out_path.c_str());
      return 1;
    }
    std::printf("sim snapshot written to %s\n", sim_out_path.c_str());
  }
  WriteObsOutputs(obs_options);
  return all_ok ? 0 : 1;
}
