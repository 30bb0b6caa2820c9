// spongebench: the end-to-end benchmark of the SpongeFiles simulator.
//
// One binary, three workloads, two clocks. Host time is how long the
// simulator takes; simulated time is how fast the modelled cluster runs.
// The benchmark drives each layer only through public APIs (Testbed,
// SpongeFile, the dataset and trace constructors) with default engine and
// pool configuration, times its own calls into them, and reads the
// obs::Registry counters and public accessors afterwards.
//
//   skew_sponge  Spam Quantiles over the Zipf-skewed web dataset on the
//                30-node, 4 GB-node testbed, spilling through SpongeFiles
//                while a background grep saturates the disks (Figure 5's
//                headline case). Host time goes to the data plane.
//   skew_disk    The same job, dataset and seeds spilling to local disk
//                (stock Hadoop): multi-round io.sort.factor merges through
//                LocalFs, the buffer cache and contended disks; the sponge
//                layer is bypassed, so a sponge-side change must leave it
//                unchanged.
//   dc_replay    A 16-rack replay of Figure-1 trace jobs behind a 4:1
//                oversubscribed core with SSDs. Jobs arrive on a seeded
//                schedule (open loop in simulated time) and queue on two
//                slots per node; each task writes its spill in chunk-sized
//                SpongeFile::Append calls through the whole cascade. One
//                rack's tracker shard goes down mid-run. Millions of engine
//                events and no mapred/pig work: the engine, pool, RPC
//                client, tracker and network dominate.
//
// Every run replays a fixed number of sub-seeds derived from --seed, then
// repeats them round-robin until --seconds elapse. Simulated metrics are
// the median over the sub-seeds (identical on every repeat). Host time is
// the simulation thread's CPU time, so time the host scheduler gives to
// other processes does not count, scaled by a calibration loop timed
// around each replay to a reference host (see CalibrationCpuS):
// replay_cpu_s is a mean-sized replay at the run's median pace (CPU seconds
// per engine event), setup_s the median over every replay.
// With --trace 1 the binary runs one untraced pass
// (per-layer counters and the untraced host time) interleaved with one
// traced pass (span folds and the tracing overhead), and prints the
// per-layer metrics instead; a metric a workload never touches reads 0.
//
// The last stdout line is the result object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage: spongebench --workload W --seed N --seconds S --trace 0|1
//                    [--shape full|tiny] [--sim-out PATH]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/topology.h"
#include "common/random.h"
#include "mapred/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sponge/failure.h"
#include "sponge/sponge_file.h"
#include "workload/jobs.h"
#include "workload/testbed.h"
#include "workload/trace.h"
#include "workload/webdata.h"

using namespace spongefiles;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the calling thread. The default engine runs the whole
// simulation on this thread, so its CPU time is the simulator's cost without
// the time the host scheduler gives to other processes.
double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Both clocks from one start.
struct Stopwatch {
  Clock::time_point wall = Clock::now();
  double cpu = ThreadCpuS();
  double WallS() const { return Since(wall); }
  double CpuS() const { return ThreadCpuS() - cpu; }
};


double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr double kMiBf = 1024.0 * 1024.0;

// Percentile (q in [0, 1]) of `samples`, interpolated linearly between the
// neighbouring order statistics; 0 when empty.
double Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) * (1 - frac) +
         static_cast<double>(samples[hi]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double UsToMs(double us) { return us / 1000.0; }

// ---------------------------------------------------------------------------
// Metric catalogue. The names, units and order here are the ones
// BENCHMARK.json lists; run.py refuses a result whose names differ.

struct MetricSpec {
  std::string name;
  const char* unit;
};

std::vector<MetricSpec> EndToEndSpecs() {
  return {{"replay_cpu_s", "s"},   {"setup_s", "s"},
          {"peak_rss_mb", "MiB"},  {"sim_makespan_s", "s"},
          {"append_mean_ms", "ms"}, {"append_p99_ms", "ms"}};
}

// The spans the traced run folds (sim-time, recorded inside the layers).
constexpr const char* kSpans[] = {
    "chunk.store",   "chunk.read",     "rpc.alloc",      "rpc.write",
    "rpc.read",      "rpc.free",       "tracker.query",  "net.transfer",
    "disk.read",     "disk.write",     "ssd.write",      "map.sort_spill",
    "reduce.shuffle", "reduce.merge_round",
};

constexpr const char* kSpongeMedia[] = {"local-memory", "remote-memory",
                                        "local-ssd", "local-disk", "dfs"};

constexpr const char* kAllocReasons[] = {
    "pool-full",   "tracker-stale", "tracker-down",
    "rack-restricted", "server-sick", "rpc-timeout",
    "ssd-full",    "ssd-worn",      "affinity-hit"};

std::vector<MetricSpec> PerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"fail_frac", "ratio"},
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"mapred.host_ns_per_spilled_kb", "ns"},
      {"mapred.spill_mb.sponge", "MiB"},
      {"mapred.spill_mb.disk", "MiB"},
      {"mapred.tasks.map", "count"},
      {"mapred.tasks.reduce", "count"},
      {"mapred.merge.runs_written", "count"},
      {"mapred.straggler_s", "s"},
      {"pig.spill_amplification", "ratio"},
      {"cluster.disk.requests", "count"},
      {"cluster.disk.seeks", "count"},
      {"cluster.disk.queue_depth_p99", "count"},
      {"cluster.cache.hit_ratio", "ratio"},
      {"cluster.net.rack_mb", "MiB"},
      {"cluster.net.cross-rack_mb", "MiB"},
      {"cluster.net.uplink_util_max", "ratio"},
      {"cluster.ssd.write_mb", "MiB"},
      {"cluster.ssd.queue_depth_p99", "count"},
      {"sponge.spill_mb.local-memory", "MiB"},
      {"sponge.spill_mb.remote-memory", "MiB"},
      {"sponge.spill_mb.cross-rack", "MiB"},
      {"sponge.spill_mb.local-ssd", "MiB"},
      {"sponge.spill_mb.local-disk", "MiB"},
      {"sponge.spill_mb.dfs", "MiB"},
      {"sponge.pool.allocs", "count"},
      {"sponge.pool.alloc_failures", "count"},
      {"sponge.pool.alloc_ok_ratio", "ratio"},
      {"sponge.pool.lock_wait_ms", "ms"},
      {"sponge.pool.slabs_carved", "count"},
      {"sponge.pool.frag_mb", "MiB"},
  };
  for (const char* reason : kAllocReasons) {
    specs.push_back({std::string("sponge.alloc.") + reason, "count"});
  }
  specs.insert(specs.end(), {
                                {"sponge.alloc.stale_retries", "count"},
                                {"sponge.rpc.timeouts", "count"},
                                {"sponge.rpc.retries", "count"},
                                {"sponge.rpc.backoff_ms", "ms"},
                                {"sponge.rpc.breaker_trips", "count"},
                                {"sponge.tracker.queries", "count"},
                                {"sponge.tracker.polls", "count"},
                                {"sponge.file.close_p99_ms", "ms"},
                                {"sponge.file.delete_p99_ms", "ms"},
                                {"host.replay_cpu_raw_s", "s"},
                                {"host.calibration_ms", "ms"},
                                {"workload.build_s", "s"},
                                {"workload.datagen_s", "s"},
                                {"obs.trace_events", "count"},
                                {"obs.trace_overhead", "ratio"},
                            });
  for (const char* span : kSpans) {
    specs.push_back({std::string("trace.") + span + ".total_s", "s"});
    specs.push_back({std::string("trace.") + span + ".p99_ms", "ms"});
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Workload shapes. `full` is what BENCHMARK.json measures; `tiny` keeps the
// same structure at a size the benchmark's own test runs in seconds.

struct Shape {
  std::string name;
  // Sub-seeds replayed per run. The replay's makespan and tail latency are
  // extremes of one seeded schedule, so it needs more of them to be steady.
  size_t skew_reps = 0;
  size_t dc_reps = 0;
  // Skewed-job testbed (the paper's 30-node cluster, Figure 5 memory).
  size_t skew_nodes = 30;
  uint64_t node_memory = GiB(4);
  uint64_t heap_per_slot = GiB(1);
  uint64_t sponge_memory = GiB(1);
  uint64_t web_bytes = 0;
  uint64_t grep_bytes = 0;
  // Datacenter replay.
  size_t racks = 0;
  size_t nodes_per_rack = 0;
  size_t jobs = 0;
};

Shape FullShape() {
  Shape s;
  s.name = "full";
  s.skew_reps = 4;
  s.dc_reps = 8;
  s.web_bytes = GiB(5) / 2;
  s.grep_bytes = GiB(4096);
  s.racks = 16;
  s.nodes_per_rack = 32;
  s.jobs = 400;
  return s;
}

Shape TinyShape() {
  Shape s;
  s.name = "tiny";
  s.skew_reps = 1;
  s.dc_reps = 1;
  s.heap_per_slot = MiB(128);
  s.sponge_memory = MiB(256);
  s.web_bytes = MiB(256);
  s.grep_bytes = GiB(16);
  s.racks = 2;
  s.nodes_per_rack = 4;
  s.jobs = 10;
  return s;
}

// ---------------------------------------------------------------------------
// Span folding for the traced run: durations of the named spans are folded
// into per-name log-linear histograms, and the tracer is cleared, so memory
// stays bounded however long the simulation runs.

class SpanFolder {
 public:
  void Fold() {
    obs::Tracer& tracer = obs::Tracer::Default();
    events_ += tracer.event_count();
    for (size_t i = 0; i < std::size(kSpans); ++i) {
      for (const auto& [ts, dur] : tracer.SpansNamed(kSpans[i])) {
        durations_[i].Record(static_cast<uint64_t>(std::max<int64_t>(dur, 0)));
      }
    }
    tracer.Clear();
  }

  // Totals are per replay, like the registry counters; p99 pools them all.
  void Report(size_t replays, Metrics* out) const {
    const double n = static_cast<double>(replays);
    for (size_t i = 0; i < std::size(kSpans); ++i) {
      std::string prefix = std::string("trace.") + kSpans[i];
      (*out)[prefix + ".total_s"] =
          static_cast<double>(durations_[i].sum()) / kSecond / n;
      (*out)[prefix + ".p99_ms"] =
          UsToMs(static_cast<double>(durations_[i].Quantile(0.99)));
    }
    (*out)["obs.trace_events"] = static_cast<double>(events_) / n;
  }

 private:
  uint64_t events_ = 0;
  obs::Histogram durations_[std::size(kSpans)];
};

// Simulated period between folds.
constexpr Duration kFoldPeriod = Seconds(2);

sim::Task<> FoldLoop(sim::Engine* engine, SpanFolder* folder) {
  for (;;) {
    co_await engine->Delay(kFoldPeriod);
    folder->Fold();
  }
}

// ---------------------------------------------------------------------------
// One replay of one workload at one sub-seed.

struct RepOut {
  Metrics sim;  // simulated quantities: identical for a fixed sub-seed
  // Simulated latency samples (us), pooled over a run's sub-seeds.
  std::vector<int64_t> append_us, close_us, delete_us;
  // Host CPU seconds of the set-up, its two parts and the simulation phase;
  // wall_s is the simulation phase on the wall clock, printed for reference,
  // and cal_s the calibration loop's CPU time around the replay.
  double setup_s = 0, build_s = 0, datagen_s = 0, cpu_s = 0, wall_s = 0;
  double cal_s = 0;
  double spilled_kb = 0;  // mapred spill volume, for host ns per KB
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;  // failed checks, for the report

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
};

double CounterValue(std::string_view name, const obs::Labels& labels = {}) {
  return static_cast<double>(
      obs::Registry::Default().counter(name, labels)->value());
}

// Counters every workload reports, read once the simulation phase ends.
void ReadRegistry(cluster::Network& network, SimTime elapsed, Metrics* m) {
  obs::Registry& registry = obs::Registry::Default();
  (*m)["cluster.disk.requests"] = CounterValue("cluster.disk.requests");
  (*m)["cluster.disk.seeks"] = CounterValue("cluster.disk.seeks");
  (*m)["cluster.disk.queue_depth_p99"] = static_cast<double>(
      registry.histogram("cluster.disk.queue_depth")->Quantile(0.99));
  double hits = CounterValue("cluster.cache.hits");
  (*m)["cluster.cache.hit_ratio"] =
      Ratio(hits, hits + CounterValue("cluster.cache.misses"));
  (*m)["cluster.net.rack_mb"] =
      CounterValue("cluster.net.bytes", {{"path", "rack"}}) / kMiBf;
  (*m)["cluster.net.cross-rack_mb"] =
      CounterValue("cluster.net.bytes", {{"path", "cross-rack"}}) / kMiBf;
  Duration busiest = 0;
  for (size_t r = 0; r < network.num_racks(); ++r) {
    busiest = std::max(busiest, network.rack_uplink_busy(r));
  }
  (*m)["cluster.net.uplink_util_max"] =
      Ratio(static_cast<double>(busiest), static_cast<double>(elapsed));
  (*m)["cluster.ssd.write_mb"] =
      CounterValue("cluster.ssd.bytes", {{"op", "write"}}) / kMiBf;
  (*m)["cluster.ssd.queue_depth_p99"] = static_cast<double>(
      registry.histogram("cluster.ssd.queue_depth")->Quantile(0.99));

  for (const char* medium : kSpongeMedia) {
    (*m)[std::string("sponge.spill_mb.") + medium] =
        CounterValue("sponge.spill.bytes", {{"medium", medium}}) / kMiBf;
  }
  (*m)["sponge.spill_mb.cross-rack"] =
      CounterValue("sponge.spill.remote.bytes", {{"locality", "cross-rack"}}) /
      kMiBf;
  double allocs = CounterValue("sponge.pool.allocs");
  double alloc_failures = CounterValue("sponge.pool.alloc_failures");
  (*m)["sponge.pool.allocs"] = allocs;
  (*m)["sponge.pool.alloc_failures"] = alloc_failures;
  (*m)["sponge.pool.alloc_ok_ratio"] = Ratio(allocs, allocs + alloc_failures);
  (*m)["sponge.pool.lock_wait_ms"] =
      CounterValue("sponge.pool.lock_wait_us") / 1000.0;
  (*m)["sponge.pool.slabs_carved"] = CounterValue("sponge.pool.slabs_carved");
  (*m)["sponge.pool.frag_mb"] = CounterValue("sponge.pool.frag_bytes") / kMiBf;
  for (const char* reason : kAllocReasons) {
    (*m)[std::string("sponge.alloc.") + reason] =
        CounterValue("sponge.alloc.decisions", {{"reason", reason}});
  }
  (*m)["sponge.alloc.stale_retries"] =
      CounterValue("sponge.alloc.stale_retries");
  (*m)["sponge.rpc.timeouts"] = CounterValue("sponge.rpc.timeouts");
  (*m)["sponge.rpc.retries"] = CounterValue("sponge.rpc.retries");
  (*m)["sponge.rpc.backoff_ms"] =
      CounterValue("sponge.rpc.backoff_us") / 1000.0;
  (*m)["sponge.rpc.breaker_trips"] =
      CounterValue("sponge.rpc.breaker", {{"event", "trip"}});
  (*m)["sponge.tracker.queries"] = CounterValue("sponge.tracker.queries");
  (*m)["sponge.tracker.polls"] = CounterValue("sponge.tracker.polls");
}

// Registry bytes per sponge medium, the left side of the conservation check.
std::vector<uint64_t> RegistrySpongeBytes() {
  std::vector<uint64_t> bytes;
  for (const char* medium : kSpongeMedia) {
    bytes.push_back(obs::Registry::Default()
                        .counter("sponge.spill.bytes", {{"medium", medium}})
                        ->value());
  }
  return bytes;
}

sim::Task<> SweepAll(sponge::SpongeEnv* env, size_t nodes, bool* done) {
  for (size_t n = 0; n < nodes; ++n) (void)co_await env->server(n).GcSweep();
  *done = true;
}

// GC-sweeps every sponge server and returns the chunks still allocated
// (any is a leak), or nullopt when the sweep did not finish.
std::optional<uint64_t> SweepAndCountLeaks(sim::Engine* engine,
                                           sponge::SpongeEnv* env,
                                           size_t nodes) {
  bool done = false;
  engine->Spawn(SweepAll(env, nodes, &done));
  const SimTime deadline = engine->now() + Minutes(10);
  while (!done && engine->now() < deadline) {
    engine->RunUntil(engine->now() + Seconds(10));
  }
  if (!done) return std::nullopt;
  uint64_t live = 0;
  for (size_t n = 0; n < nodes; ++n) {
    live += env->server(n).pool().allocated_count();
  }
  return live;
}

// --- skew workloads ---------------------------------------------------------

// A spill canary: every kCanaryPeriod of simulated time, a short-lived
// task stores one chunk through the workload's own spill medium and
// deletes it. Its latency is what a spilling task on the loaded cluster
// waits for one 1 MB spill (Table 1's quantity under Figure 5's load).
// 1 MB/s of probes spread over the cluster is small next to the job's
// gigabytes: it moves skew_sponge's makespan by 0.1% and skew_disk's by 2%
// (the probes reorder the contended disk queues).
constexpr Duration kCanaryPeriod = Seconds(1);

struct Canary {
  sim::Engine* engine = nullptr;
  sponge::SpongeEnv* env = nullptr;
  mapred::SpillMode mode = mapred::SpillMode::kDisk;
  size_t nodes = 0;
  bool stop = false;
  bool idle = true;  // no probe in flight
  uint64_t probes = 0, failures = 0;
  std::vector<uint64_t> sponge_bytes = std::vector<uint64_t>(5, 0);
  struct Sample {
    SimTime start;
    Duration store, close, remove;
  };
  std::vector<Sample> samples;
};

// The node with the least free sponge memory (where the straggler spills);
// ties rotate round-robin, so disk mode, which leaves every pool idle,
// spreads its probes evenly over the disks instead of queueing on one.
size_t PickCanaryNode(const Canary& c) {
  const size_t first = c.probes % c.nodes;
  size_t best = first;
  for (size_t k = 1; k < c.nodes; ++k) {
    const size_t node = (first + k) % c.nodes;
    if (c.env->server(node).free_bytes() < c.env->server(best).free_bytes()) {
      best = node;
    }
  }
  return best;
}

sim::Task<> RunCanary(Canary* c) {
  while (!c->stop) {
    co_await c->engine->Delay(kCanaryPeriod);
    if (c->stop) break;
    c->idle = false;
    const size_t node = PickCanaryNode(*c);
    ++c->probes;
    sponge::TaskContext task = c->env->StartTask(node);
    std::unique_ptr<mapred::Spiller> spiller;
    if (c->mode == mapred::SpillMode::kSponge) {
      spiller =
          std::make_unique<mapred::SpongeSpiller>(c->env, &task, "canary");
    } else {
      spiller = std::make_unique<mapred::DiskSpiller>(
          c->engine, &c->env->cluster()->node(node).fs(), "canary");
    }
    auto file = spiller->Create("probe" + std::to_string(c->probes));
    if (!file.ok()) {
      ++c->failures;
    } else {
      ByteRuns chunk;
      chunk.AppendZeros(c->env->config().chunk_size);
      const SimTime start = c->engine->now();
      Status status = co_await (*file)->Append(std::move(chunk));
      const SimTime appended = c->engine->now();
      if (status.ok()) status = co_await (*file)->Close();
      const SimTime closed = c->engine->now();
      co_await (*file)->Delete();
      if (!status.ok()) {
        ++c->failures;
      } else {
        c->samples.push_back({start, closed - start, closed - appended,
                              c->engine->now() - closed});
        const mapred::SpillStats& s = spiller->stats();
        const uint64_t media[] = {s.sponge_bytes_local, s.sponge_bytes_remote,
                                  s.sponge_bytes_ssd, s.sponge_bytes_disk,
                                  s.sponge_bytes_dfs};
        for (size_t i = 0; i < 5; ++i) c->sponge_bytes[i] += media[i];
      }
    }
    c->env->EndTask(task);
    c->idle = true;
  }
}

RepOut RunSkewRep(mapred::SpillMode mode, uint64_t seed, const Shape& shape,
                  SpanFolder* folder) {
  RepOut out;
  obs::Registry::Default().ResetValues();
  Canary canary;

  const Stopwatch setup_start;
  workload::TestbedConfig bed_config;
  bed_config.num_nodes = shape.skew_nodes;
  bed_config.node_memory = shape.node_memory;
  bed_config.heap_per_slot = shape.heap_per_slot;
  bed_config.sponge_memory = shape.sponge_memory;
  workload::Testbed bed(bed_config);
  out.build_s = setup_start.CpuS();

  const Stopwatch data_start;
  workload::WebDatasetConfig web_config;
  web_config.total_bytes = shape.web_bytes;
  web_config.seed = seed;
  workload::WebDataset web(&bed.dfs(), "web", web_config);
  workload::ScanDataset grep(&bed.dfs(), "grepdata", shape.grep_bytes);
  mapred::JobConfig job = workload::MakeSpamQuantilesJob(&web, mode);
  mapred::JobConfig background = workload::MakeGrepJob(&grep, nullptr);
  out.datagen_s = data_start.CpuS();
  out.setup_s = setup_start.CpuS();

  sim::Engine& engine = bed.engine();
  canary.engine = &engine;
  canary.env = &bed.env();
  canary.mode = mode;
  canary.nodes = shape.skew_nodes;

  const Stopwatch run_start;
  const SimTime job_start = engine.now();
  const uint64_t events_before = engine.events_processed();
  engine.Spawn(RunCanary(&canary));
  if (folder != nullptr) engine.Spawn(FoldLoop(&engine, folder));
  Result<mapred::JobResult> result =
      bed.RunJob(std::move(job), std::move(background));
  out.cpu_s = run_start.CpuS();
  out.wall_s = run_start.WallS();
  if (folder != nullptr) folder->Fold();
  Metrics& m = out.sim;
  m["sim.events"] =
      static_cast<double>(engine.events_processed() - events_before);

  out.Check(result.ok(), "measured job failed: " +
                             (result.ok() ? "" : result.status().ToString()));
  if (!result.ok()) return out;
  const mapred::JobResult& r = *result;
  const SimTime job_end = job_start + r.runtime;
  ReadRegistry(bed.cluster().network(), r.runtime, &m);
  m["sim_makespan_s"] = ToSeconds(r.runtime);

  // The job: every task completes and the giant domain's median spam
  // score is the uniform distribution's, 0.5.
  mapred::SpillStats task_spill;
  double map_spill = 0, reduce_spill = 0;
  for (const mapred::TaskStats& t : r.map_tasks) {
    out.Check(t.completed, "map task did not complete");
    task_spill.Add(t.spill);
    map_spill += static_cast<double>(t.spill.bytes_spilled);
  }
  for (const mapred::TaskStats& t : r.reduce_tasks) {
    out.Check(t.completed, "reduce task did not complete");
    task_spill.Add(t.spill);
    reduce_spill += static_cast<double>(t.spill.bytes_spilled);
  }
  bool answer = false;
  const std::string giant = workload::WebDataset::DomainName(0);
  for (const mapred::Record& row : r.output) {
    if (row.key == giant && row.fields[0] == "q50" && row.number >= 0.45 &&
        row.number <= 0.55) {
      answer = true;
    }
  }
  out.Check(answer, "giant domain q50 outside [0.45, 0.55]");

  const bool sponge_mode = mode == mapred::SpillMode::kSponge;
  m["mapred.tasks.map"] = static_cast<double>(r.map_tasks.size());
  m["mapred.tasks.reduce"] = static_cast<double>(r.reduce_tasks.size());
  m["mapred.spill_mb.sponge"] = (sponge_mode ? reduce_spill : 0) / kMiBf;
  m["mapred.spill_mb.disk"] =
      (map_spill + (sponge_mode ? 0 : reduce_spill)) / kMiBf;
  out.spilled_kb = (map_spill + reduce_spill) / 1024.0;
  m["mapred.merge.runs_written"] = CounterValue("mapred.merge.runs_written");
  const mapred::TaskStats* straggler = r.straggler();
  if (straggler != nullptr) {
    m["mapred.straggler_s"] = ToSeconds(straggler->runtime);
    m["pig.spill_amplification"] =
        Ratio(static_cast<double>(straggler->spill.bytes_spilled),
              static_cast<double>(straggler->input_bytes));
  }

  // Canary probes that ran entirely while the measured job did.
  for (const Canary::Sample& s : canary.samples) {
    if (s.start >= job_start && s.start + s.store + s.remove <= job_end) {
      out.append_us.push_back(s.store);
      out.close_us.push_back(s.close);
      out.delete_us.push_back(s.remove);
    }
  }
  out.Check(!out.append_us.empty(), "no spill canary sample");
  out.attempted += canary.probes;
  out.failed += canary.failures;
  if (canary.failures > 0) out.problems.push_back("spill canary probes failed");

  // Conservation: the registry's per-medium sponge bytes equal what the
  // job's tasks and the canary report for themselves.
  std::vector<uint64_t> registry_bytes = RegistrySpongeBytes();
  const uint64_t task_bytes[] = {
      task_spill.sponge_bytes_local, task_spill.sponge_bytes_remote,
      task_spill.sponge_bytes_ssd, task_spill.sponge_bytes_disk,
      task_spill.sponge_bytes_dfs};
  bool conserved = true;
  for (size_t i = 0; i < 5; ++i) {
    conserved = conserved &&
                registry_bytes[i] == task_bytes[i] + canary.sponge_bytes[i];
  }
  out.Check(conserved, "sponge.spill.bytes disagrees with task SpillStats");

  // Quiesce the canary, then nothing may survive a GC sweep.
  canary.stop = true;
  const SimTime quiesce_deadline = engine.now() + Minutes(10);
  while (!canary.idle && engine.now() < quiesce_deadline) {
    engine.RunUntil(engine.now() + Seconds(1));
  }
  std::optional<uint64_t> leaks =
      SweepAndCountLeaks(&engine, &bed.env(), shape.skew_nodes);
  out.Check(leaks.has_value() && *leaks == 0,
            "chunks leaked after a GC sweep");
  return out;
}

// --- datacenter replay -----------------------------------------------------

// Per-task spill demand, scaled from the trace's reduce-input bytes so the
// replay stays tractable while keeping the Figure-1 skew shape.
constexpr uint64_t kSizeDivisor = 8;
constexpr uint64_t kMinTaskBytes = 256 * 1024;
constexpr uint64_t kMaxTaskBytes = 32ull * 1024 * 1024;
constexpr size_t kMaxTasksPerJob = 50;
constexpr uint64_t kSpongePerNode = 8ull * 1024 * 1024;
constexpr uint64_t kSsdPerNode = 16ull * 1024 * 1024;
constexpr int64_t kSlotsPerNode = 2;
constexpr SimTime kArrivalStart = Seconds(2);
constexpr SimTime kArrivalWindow = Seconds(60);
constexpr SimTime kOutageAt = Seconds(25);
constexpr Duration kOutageDuration = Seconds(30);

struct DcState {
  sim::Engine* engine = nullptr;
  sponge::SpongeEnv* env = nullptr;
  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  size_t tasks_done = 0;
  size_t tasks_failed = 0;
  std::vector<uint8_t> job_failed;
  SimTime last_completion = 0;
  std::vector<int64_t> append_us, close_us, delete_us;
  uint64_t bytes_written = 0;
  std::vector<uint64_t> media_bytes = std::vector<uint64_t>(5, 0);
};

sim::Task<> ReplayTask(DcState* st, size_t job, size_t index, size_t node,
                       uint64_t bytes) {
  sim::Engine* engine = st->engine;
  sponge::SpongeEnv* env = st->env;
  sim::Semaphore* slot = st->slots[node].get();
  co_await slot->Acquire();
  sponge::TaskContext task = env->StartTask(node);
  sponge::SpongeFile file(
      env, &task, "dc.j" + std::to_string(job) + ".t" + std::to_string(index));
  const uint64_t chunk = env->config().chunk_size;
  Status status = Status::OK();
  for (uint64_t left = bytes; left > 0 && status.ok();) {
    const uint64_t n = std::min(left, chunk);
    ByteRuns data;
    data.AppendZeros(n);
    const SimTime start = engine->now();
    status = co_await file.Append(std::move(data));
    if (n == chunk) st->append_us.push_back(engine->now() - start);
    left -= n;
  }
  if (status.ok()) {
    const SimTime start = engine->now();
    status = co_await file.Close();
    st->close_us.push_back(engine->now() - start);
  }
  const sponge::SpongeFile::Stats& s = file.stats();
  st->bytes_written += s.bytes_written;
  const uint64_t media[] = {s.bytes_local_memory, s.bytes_remote_memory,
                            s.bytes_local_ssd, s.bytes_local_disk,
                            s.bytes_dfs};
  for (size_t i = 0; i < 5; ++i) st->media_bytes[i] += media[i];
  const SimTime delete_start = engine->now();
  co_await file.Delete();
  st->delete_us.push_back(engine->now() - delete_start);
  env->EndTask(task);
  slot->Release();
  if (!status.ok()) {
    ++st->tasks_failed;
    st->job_failed[job] = 1;
  }
  ++st->tasks_done;
  st->last_completion = std::max(st->last_completion, engine->now());
}

struct TaskPlan {
  size_t job = 0;
  size_t index = 0;
  size_t node = 0;
  uint64_t bytes = 0;
  SimTime at = 0;
};

RepOut RunDcRep(uint64_t seed, const Shape& shape, SpanFolder* folder) {
  RepOut out;
  obs::Registry::Default().ResetValues();
  const size_t num_nodes = shape.racks * shape.nodes_per_rack;
  const size_t outage_rack = shape.racks / 2;

  const Stopwatch setup_start;
  cluster::TopologyConfig topo;
  topo.num_racks = shape.racks;
  topo.nodes_per_rack = shape.nodes_per_rack;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = kSpongePerNode;
  topo.node.ssd.capacity = kSsdPerNode;
  sim::Engine engine;
  cluster::Cluster cluster(&engine, cluster::MakeClusterConfig(topo));
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  sponge::SpongeEnv env(&cluster, &dfs, sponge_config);
  env.tracker().Start();
  env.StartServices();
  DcState state;
  state.engine = &engine;
  state.env = &env;
  for (size_t n = 0; n < num_nodes; ++n) {
    state.slots.push_back(
        std::make_unique<sim::Semaphore>(&engine, kSlotsPerNode));
  }
  out.build_s = setup_start.CpuS();

  // The replay plan: per-job reduce demands from the Figure-1 synthesizer,
  // each job homed on one rack (tasks round-robin over its nodes) so
  // job-level skew becomes rack-level imbalance.
  const Stopwatch data_start;
  workload::TraceConfig trace_config;
  trace_config.num_jobs = shape.jobs;
  trace_config.seed = seed;
  std::vector<workload::TraceJob> jobs =
      workload::TraceSynthesizer(trace_config).Generate();
  Rng placement(seed * 2654435761ull + 1);
  std::vector<TaskPlan> plan;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const size_t rack = placement.Uniform(shape.racks);
    const SimTime arrival =
        kArrivalStart + static_cast<SimTime>(placement.Uniform(
                            static_cast<uint64_t>(kArrivalWindow)));
    const size_t num_tasks =
        std::min(jobs[j].reduce_input_bytes.size(), kMaxTasksPerJob);
    for (size_t t = 0; t < num_tasks; ++t) {
      uint64_t bytes =
          static_cast<uint64_t>(jobs[j].reduce_input_bytes[t]) / kSizeDivisor;
      bytes = std::clamp(bytes, kMinTaskBytes, kMaxTaskBytes);
      plan.push_back({j, t, rack * shape.nodes_per_rack +
                                t % shape.nodes_per_rack,
                      bytes, arrival});
    }
  }
  state.job_failed.assign(jobs.size(), 0);
  sponge::FailureInjector injector(&env, seed);
  injector.ScheduleTrackerShardOutage(outage_rack, kOutageAt, kOutageDuration);
  out.datagen_s = data_start.CpuS();
  out.setup_s = setup_start.CpuS();

  const Stopwatch run_start;
  const uint64_t events_before = engine.events_processed();
  for (const TaskPlan& t : plan) {
    engine.SpawnAt(t.at, ReplayTask(&state, t.job, t.index, t.node, t.bytes));
  }
  if (folder != nullptr) engine.Spawn(FoldLoop(&engine, folder));
  const SimTime deadline = Minutes(24 * 60.0);
  while (state.tasks_done < plan.size() && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
  }
  out.cpu_s = run_start.CpuS();
  out.wall_s = run_start.WallS();
  if (folder != nullptr) folder->Fold();

  Metrics& m = out.sim;
  m["sim.events"] =
      static_cast<double>(engine.events_processed() - events_before);
  m["sim_makespan_s"] = ToSeconds(state.last_completion);
  ReadRegistry(cluster.network(), state.last_completion, &m);
  out.append_us = std::move(state.append_us);
  out.close_us = std::move(state.close_us);
  out.delete_us = std::move(state.delete_us);

  // Tasks and jobs: every one completes without error.
  out.attempted += plan.size() + jobs.size();
  size_t jobs_failed = 0;
  for (uint8_t f : state.job_failed) jobs_failed += f;
  const size_t unfinished = plan.size() - state.tasks_done;
  out.failed += state.tasks_failed + unfinished + jobs_failed;
  if (state.tasks_failed + unfinished > 0) {
    out.problems.push_back(std::to_string(state.tasks_failed + unfinished) +
                           " replay tasks failed or never finished");
  }

  // The outage degrades only its own rack: tracker-down decisions land on
  // the outage rack and nowhere else.
  uint64_t down_here = 0, down_elsewhere = 0;
  for (size_t r = 0; r < shape.racks; ++r) {
    uint64_t v = obs::Registry::Default()
                     .counter("sponge.spill.reason",
                              {{"rack", std::to_string(r)},
                               {"reason", "tracker-down"}})
                     ->value();
    (r == outage_rack ? down_here : down_elsewhere) += v;
  }
  out.Check(down_here > 0 && down_elsewhere == 0,
            "tracker-down decisions outside the outage rack");

  std::vector<uint64_t> registry_bytes = RegistrySpongeBytes();
  uint64_t registry_total = 0;
  bool conserved = true;
  for (size_t i = 0; i < 5; ++i) {
    registry_total += registry_bytes[i];
    conserved = conserved && registry_bytes[i] == state.media_bytes[i];
  }
  out.Check(conserved && registry_total == state.bytes_written,
            "sponge.spill.bytes disagrees with per-file bytes_written");

  std::optional<uint64_t> leaks =
      SweepAndCountLeaks(&engine, &env, num_nodes);
  out.Check(leaks.has_value() && *leaks == 0,
            "chunks leaked after a GC sweep");

  env.StopServices();
  engine.RunUntil(engine.now() + Seconds(30));
  // Reclaim the service loops while the cluster objects they reference are
  // still alive.
  engine.DrainDetached();
  return out;
}

// ---------------------------------------------------------------------------
// Passes and aggregation.

// The replays of one pass over a run's sub-seeds.
using Pass = std::vector<RepOut>;

// Mean simulation-phase host CPU time per sub-seed.
double MeanCpu(const Pass& pass) {
  double total = 0;
  for (const RepOut& rep : pass) total += rep.cpu_s;
  return Ratio(total, static_cast<double>(pass.size()));
}

uint64_t SubSeed(uint64_t seed, size_t i) { return seed * 1000 + i; }

size_t Reps(const Shape& shape, const std::string& workload) {
  return workload == "dc_replay" ? shape.dc_reps : shape.skew_reps;
}

RepOut RunRep(const std::string& workload, uint64_t sub_seed,
              const Shape& shape, SpanFolder* folder) {
  if (workload == "dc_replay") return RunDcRep(sub_seed, shape, folder);
  return RunSkewRep(workload == "skew_sponge" ? mapred::SpillMode::kSponge
                                              : mapred::SpillMode::kDisk,
                    sub_seed, shape, folder);
}

// Calibration. Other tenants of a shared host slow the simulation thread
// by up to half for minutes at a time, and the slowdown shows in its CPU
// time as well as on the wall clock. It hits pointer-chasing code over
// megabytes of nodes, which is what the simulator runs, far more than
// arithmetic. A fixed loop of that kind, timed right before and right after
// each replay, slows by nearly the same factor, so host time is reported
// relative to it: replay CPU time over the loop's, times kCalibrationRefS,
// the loop's CPU time on a quiet 4-core Xeon VM. The loop is the
// benchmark's own code, and it allocates from a buffer of its own, so no
// change to the simulator changes it and it leaves the heap the simulator
// allocates from as it found it.
constexpr double kCalibrationRefS = 0.11;
constexpr int kCalibrationInserts = 200'000;
// Room for every node the loop creates (at most one per insert).
constexpr size_t kCalibrationArenaBytes = 16u << 20;

volatile uint64_t calibration_sink = 0;

// Builds and walks a red-black tree (std::map) of pseudo-random keys.
double CalibrationCpuS() {
  static const std::unique_ptr<std::byte[]> buffer =
      std::make_unique_for_overwrite<std::byte[]>(kCalibrationArenaBytes);
  const Stopwatch sw;
  std::pmr::monotonic_buffer_resource arena(buffer.get(),
                                            kCalibrationArenaBytes);
  uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  {
    std::pmr::map<uint64_t, uint64_t> tree(&arena);
    for (int k = 0; k < kCalibrationInserts; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      tree[x % 1'000'003] += static_cast<uint64_t>(k);
    }
    for (const auto& [key, value] : tree) acc += key ^ value;
  }
  calibration_sink = acc;
  return sw.CpuS();
}

// An untraced replay between two calibration loops.
RepOut RunCalibratedRep(const std::string& workload, uint64_t sub_seed,
                        const Shape& shape) {
  const double before = CalibrationCpuS();
  RepOut rep = RunRep(workload, sub_seed, shape, nullptr);
  rep.cal_s = (before + CalibrationCpuS()) / 2;
  return rep;
}

// Whether two replays of one sub-seed simulated the same thing.
bool SameSimulation(const RepOut& a, const RepOut& b) {
  return a.sim == b.sim && a.append_us == b.append_us &&
         a.close_us == b.close_us && a.delete_us == b.delete_us;
}

// Simulated metrics of a pass: the median over sub-seeds, with latency
// percentiles taken over the pooled samples.
Metrics SimMetrics(const Pass& pass) {
  Metrics out;
  std::map<std::string, std::vector<double>> values;
  std::vector<int64_t> append, close, remove;
  for (const RepOut& rep : pass) {
    for (const auto& [k, v] : rep.sim) values[k].push_back(v);
    append.insert(append.end(), rep.append_us.begin(), rep.append_us.end());
    close.insert(close.end(), rep.close_us.begin(), rep.close_us.end());
    remove.insert(remove.end(), rep.delete_us.begin(), rep.delete_us.end());
  }
  for (auto& [k, v] : values) out[k] = Median(v);
  // The median is the model's fixed local-copy time on every seed, so the
  // mean carries the placement mix instead.
  double append_sum = 0;
  for (int64_t us : append) append_sum += static_cast<double>(us);
  out["append_mean_ms"] = Ratio(append_sum / 1000.0,
                                static_cast<double>(append.size()));
  out["append_p50_ms"] = UsToMs(Percentile(append, 0.50));
  out["append_p99_ms"] = UsToMs(Percentile(append, 0.99));
  out["sponge.file.close_p99_ms"] = UsToMs(Percentile(close, 0.99));
  out["sponge.file.delete_p99_ms"] = UsToMs(Percentile(remove, 0.99));
  out["append.samples"] = static_cast<double>(append.size());
  return out;
}

// Host times of one replay, with the sub-seed it replayed.
struct HostSample {
  size_t sub = 0;
  double cpu_s = 0, wall_s = 0, cal_s = 0;
};

// Scales a host CPU time measured next to calibration time `cal_s` to the
// reference host.
double Calibrated(double cpu_s, double cal_s) {
  return Ratio(cpu_s * kCalibrationRefS, cal_s);
}

// A run's median pace: host CPU seconds per unit of work over every replay,
// where work[i] is what sub-seed i simulates, so that sub-seeds of
// different sizes compare; 0 when no sub-seed did any work. With
// `calibrated`, each replay's CPU time is first scaled to the reference host.
double MedianPace(const std::vector<HostSample>& samples,
                  const std::vector<double>& work, bool calibrated) {
  std::vector<double> paces;
  for (const HostSample& h : samples) {
    if (work[h.sub] <= 0) continue;
    const double cpu_s = calibrated ? Calibrated(h.cpu_s, h.cal_s) : h.cpu_s;
    paces.push_back(cpu_s / work[h.sub]);
  }
  return Median(paces);
}

double MeanOf(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return Ratio(total, static_cast<double>(values.size()));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SimJson(const Metrics& sim) {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [k, v] : sim) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + k + "\": " + JsonNumber(v);
  }
  out += "\n}\n";
  return out;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string ShapeJson(const std::string& workload, uint64_t seed,
                      const Shape& shape) {
  const bool dc = workload == "dc_replay";
  std::string out = "{\"workload\": \"" + workload + "\"";
  out += ", \"shape\": \"" + shape.name + "\"";
  out += ", \"nodes\": " +
         std::to_string(dc ? shape.racks * shape.nodes_per_rack
                           : shape.skew_nodes);
  out += ", \"racks\": " + std::to_string(dc ? shape.racks : 1);
  out += ", \"jobs\": " + std::to_string(dc ? shape.jobs : 1);
  out += ", \"dataset_bytes\": " + std::to_string(dc ? 0 : shape.web_bytes);
  out += ", \"background_bytes\": " +
         std::to_string(dc ? 0 : shape.grep_bytes);
  out += ", \"node_memory\": " + std::to_string(dc ? 0 : shape.node_memory);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"sub_seeds\": " + std::to_string(Reps(shape, workload));
  out += ", \"build_type\": \"" SPONGEBENCH_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" + CompilerName() + "\"";
  out += ", \"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += "}";
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string shape = "full";
  std::string sim_out;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "spongebench: %s\nusage: spongebench --workload "
               "skew_sponge|skew_disk|dc_replay --seed N --seconds S "
               "--trace 0|1 [--shape full|tiny] [--sim-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--shape") {
      args.shape = value;
    } else if (flag == "--sim-out") {
      args.sim_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.workload != "skew_sponge" && args.workload != "skew_disk" &&
      args.workload != "dc_replay") {
    return Usage("unknown --workload");
  }
  if (!have_seed || !have_seconds || args.trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (args.shape != "full" && args.shape != "tiny") {
    return Usage("--shape must be full or tiny");
  }
  const Shape shape = args.shape == "full" ? FullShape() : TinyShape();

  std::printf("shape: %s\n",
              ShapeJson(args.workload, args.seed, shape).c_str());
  std::fflush(stdout);

  // The first untraced pass replays every sub-seed once and fixes the
  // simulated metrics. Untraced replays then go on round-robin over the
  // sub-seeds until --seconds elapse; each must reproduce its sub-seed's
  // first replay exactly (determinism is checked, not assumed). The traced
  // mode runs one untraced and one traced pass, interleaved replay by
  // replay so host noise from outside the process falls on both sides of
  // the tracing-overhead ratio alike.
  const auto start = Clock::now();
  const size_t reps = Reps(shape, args.workload);
  Pass first, traced;
  SpanFolder folder;
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t sub = SubSeed(args.seed, i);
    first.push_back(RunCalibratedRep(args.workload, sub, shape));
    if (args.trace == 1) {
      obs::Tracer::Default().Clear();
      obs::Tracer::Default().set_enabled(true);
      traced.push_back(RunRep(args.workload, sub, shape, &folder));
      obs::Tracer::Default().set_enabled(false);
      obs::Tracer::Default().Clear();
    }
  }
  const Metrics sim = SimMetrics(first);

  uint64_t attempted = 0, failed = 0;
  std::vector<HostSample> host;
  std::vector<double> setups, builds, datagens, cals;
  auto record = [&](size_t i, const RepOut& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    host.push_back({i, rep.cpu_s, rep.wall_s, rep.cal_s});
    setups.push_back(Calibrated(rep.setup_s, rep.cal_s));
    builds.push_back(Calibrated(rep.build_s, rep.cal_s));
    datagens.push_back(Calibrated(rep.datagen_s, rep.cal_s));
    cals.push_back(rep.cal_s);
    for (const std::string& p : rep.problems) {
      std::printf("check failed: %s\n", p.c_str());
    }
  };
  for (size_t i = 0; i < reps; ++i) record(i, first[i]);
  bool deterministic = true;
  for (size_t n = 0; args.trace == 0 && Since(start) < args.seconds; ++n) {
    const size_t i = n % reps;
    const RepOut rep =
        RunCalibratedRep(args.workload, SubSeed(args.seed, i), shape);
    deterministic = deterministic && SameSimulation(rep, first[i]);
    record(i, rep);
  }
  ++attempted;
  if (!deterministic) {
    ++failed;
    std::printf("check failed: a repeated replay simulated differently\n");
  }

  // Host time, every figure calibrated to the reference host and a median
  // over the run's replays. replay_cpu_s is the CPU time of a replay of the
  // sub-seeds' mean event count at the run's median pace per engine event;
  // host.replay_cpu_raw_s is the same without calibration.
  std::vector<double> events, spilled_kb;
  for (const RepOut& rep : first) {
    events.push_back(rep.sim.count("sim.events") ? rep.sim.at("sim.events")
                                                 : 0.0);
    spilled_kb.push_back(rep.spilled_kb);
  }
  std::printf("host cpu/wall/calibration s per replay:");
  for (const HostSample& h : host) {
    std::printf(" %zu:%.3f/%.3f/%.4f", h.sub, h.cpu_s, h.wall_s, h.cal_s);
  }
  std::printf("\n");

  Metrics report = sim;
  report["replay_cpu_s"] = MedianPace(host, events, true) * MeanOf(events);
  report["host.replay_cpu_raw_s"] =
      MedianPace(host, events, false) * MeanOf(events);
  report["host.calibration_ms"] = Median(cals) * 1000;
  report["setup_s"] = Median(setups);
  report["workload.build_s"] = Median(builds);
  report["workload.datagen_s"] = Median(datagens);
  report["sim.host_ns_per_event"] = MedianPace(host, events, true) * 1e9;
  report["mapred.host_ns_per_spilled_kb"] =
      MedianPace(host, spilled_kb, true) * 1e9;

  if (args.trace == 1) {
    folder.Report(traced.size(), &report);
    report["obs.trace_overhead"] =
        Ratio(MeanCpu(traced), MeanCpu(first));
    for (const RepOut& rep : traced) {
      attempted += rep.attempted;
      failed += rep.failed;
    }
    // Tracing observes; it must not change what is simulated.
    const Metrics traced_sim = SimMetrics(traced);
    auto same = [&](const char* key) {
      auto a = traced_sim.find(key), b = sim.find(key);
      return a != traced_sim.end() && b != sim.end() && a->second == b->second;
    };
    ++attempted;
    if (!same("sim_makespan_s") || !same("append_p99_ms")) {
      ++failed;
      std::printf("check failed: tracing changed the simulation\n");
    }
  }
  report["fail_frac"] =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  report["peak_rss_mb"] = PeakRssMb();

  if (!args.sim_out.empty()) {
    std::FILE* f = std::fopen(args.sim_out.c_str(), "w");
    const std::string text = SimJson(sim);
    if (f == nullptr ||
        std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "failed to write %s\n", args.sim_out.c_str());
      return 1;
    }
  }

  std::printf("replays: %zu over %zu sub-seeds, %.1f s\n", setups.size(),
              reps, Since(start));
  for (const auto& [k, v] : report) {
    std::printf("  %-36s %s\n", k.c_str(), JsonNumber(v).c_str());
  }

  const std::vector<MetricSpec> specs =
      args.trace == 0 ? EndToEndSpecs() : PerLayerSpecs();
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) line += ", ";
    auto it = report.find(specs[i].name);
    line += "\"" + specs[i].name + "\": {\"value\": " +
            JsonNumber(it == report.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
