// Crash-recovery bench (ISSUE 7 acceptance gate): k of the cluster's
// sponge servers fail-stop mid-run while hundreds of tasks are between
// their spill and read-back phases. Three same-seed scenarios run in one
// process:
//
//   baseline      no faults, replication on   (the answer key)
//   replicated    crashes,   replication on   (failover + repair save it)
//   unreplicated  crashes,   replication off  (every lost chunk re-runs)
//
// Each task writes a deterministic payload through the sponge cascade,
// waits out a compute window (the exposure that puts its chunks at risk),
// then reads everything back into a content digest. The driver retries a
// failed attempt like the job tracker does, counting each re-run through
// mapred::CountTaskRerun so the reasons land in the same
// mapred.task.rerun.reason counter the framework uses.
//
// Gates (exit 1 on any miss):
//   - both fault runs finish every task with a content digest
//     byte-identical to the fault-free baseline
//   - replicated run: ZERO re-runs attributed to lost chunks, and the
//     measured repair throughput stays within the configured budget
//   - unreplicated run: chunk-lost re-runs strictly positive (the cost
//     replication exists to avoid)
//   - no scenario leaks a chunk once every server is GC-swept
//
//   --out=PATH       wall-clock + full report (default BENCH_recovery.json)
//   --sim-out=PATH   simulated quantities only; byte-identical per seed
//   --racks=N --nodes-per-rack=N --jobs=N --crashes=K --seed=N
//   (plus the standard --trace-out= / --metrics-out= observability flags)
//
// The default shape (16 racks x 32 nodes = 512 servers, 6 crashed) keeps
// the >=500-node acceptance bar; tools/check.sh runs a small smoke shape.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/topology.h"
#include "common/random.h"
#include "common/text_file.h"
#include "mapred/task_attempt.h"
#include "obs/json.h"
#include "sponge/failure.h"
#include "sponge/repair.h"
#include "sponge/sponge_file.h"

using namespace spongefiles;
using namespace spongefiles::bench;

namespace {

struct Options {
  size_t racks = 16;
  size_t nodes_per_rack = 32;
  size_t jobs = 600;  // one spilling task per job
  size_t crashes = 6;
  uint64_t seed = 7;
  std::string out = "BENCH_recovery.json";
  std::string sim_out;
};

constexpr uint64_t kMinTaskBytes = 256 * 1024;
constexpr uint64_t kMaxTaskBytes = 2ull * 1024 * 1024;
constexpr uint64_t kSpongePerNode = 16ull * 1024 * 1024;
constexpr int64_t kSlotsPerNode = 2;
constexpr int kMaxAttempts = 4;

// Tasks arrive over this window, spill, then sit in a compute phase for
// kExposure before reading back. The crash at kCrashAt therefore lands
// squarely inside most tasks' write-to-read window — the chunks it
// destroys are ones somebody still needs.
constexpr SimTime kArrivalStart = Seconds(2);
constexpr SimTime kArrivalWindow = Seconds(18);
constexpr Duration kExposure = Seconds(25);
constexpr SimTime kCrashAt = Seconds(30);

// Deterministic payload for (seed, job): a 16-byte random literal every
// 64 KiB, zeros between — ByteRuns stays compact while every chunk still
// carries content the checksums (and the read-back digest) depend on.
ByteRuns MakePayload(uint64_t bytes, uint64_t seed) {
  ByteRuns data;
  Rng rng(seed);
  char marker[16];
  uint64_t remaining = bytes;
  while (remaining > 0) {
    for (char& c : marker) {
      c = static_cast<char>('a' + rng.Uniform(26));
    }
    uint64_t lit = std::min<uint64_t>(sizeof(marker), remaining);
    data.AppendLiteral(Slice(marker, static_cast<size_t>(lit)));
    remaining -= lit;
    uint64_t zeros = std::min<uint64_t>(64 * 1024 - lit, remaining);
    data.AppendZeros(zeros);
    remaining -= zeros;
  }
  return data;
}

uint64_t PayloadSeed(uint64_t seed, size_t job) {
  return seed * 2654435761ull + job + 1;
}

struct RecoveryState {
  sim::Engine* engine = nullptr;
  sponge::SpongeEnv* env = nullptr;
  std::vector<std::unique_ptr<sim::Semaphore>>* slots = nullptr;
  uint64_t seed = 0;
  size_t tasks_done = 0;
  size_t tasks_failed = 0;
  uint64_t attempts = 0;
  // When the last task finished: the scenario's makespan.
  SimTime last_completion = 0;
  // Wrapping sum of per-task digests: order-independent, so the combined
  // value is comparable even though crashes reorder task completions.
  uint64_t content_digest = 0;
};

// One spilling task: write, compute, read back, digest. On failure the
// driver retries the whole attempt — a fresh TaskContext and file, exactly
// like the job tracker relaunching a task — after recording the re-run
// reason through the framework's counter.
sim::Task<> RunRecoveryTask(RecoveryState* state, size_t job, size_t node,
                            uint64_t bytes) {
  sim::Semaphore* slot = (*state->slots)[node].get();
  co_await slot->Acquire();
  sponge::SpongeEnv* env = state->env;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    ++state->attempts;
    sponge::TaskContext task = env->StartTask(node);
    sponge::SpongeFile file(env, &task,
                            "rc.j" + std::to_string(job) + ".a" +
                                std::to_string(attempt));
    ByteRuns payload = MakePayload(bytes, PayloadSeed(state->seed, job));
    Status status = co_await file.Append(std::move(payload));
    if (status.ok()) status = co_await file.Close();
    if (status.ok()) co_await state->engine->Delay(kExposure);
    uint64_t task_digest = 0;
    if (status.ok()) {
      Digest d;
      uint64_t chunk_index = 0;
      while (true) {
        Result<ByteRuns> chunk = co_await file.ReadNext();
        if (!chunk.ok()) {
          status = chunk.status();
          break;
        }
        if (chunk->empty()) break;
        d.U64(chunk_index++);
        d.U64(chunk->Checksum64());
      }
      task_digest = d.h;
    }
    co_await file.Delete();
    env->EndTask(task);
    if (status.ok()) {
      Digest mix;
      mix.U64(job);
      mix.U64(task_digest);
      state->content_digest += mix.h;
      last = Status::OK();
      break;
    }
    last = status;
    if (attempt < kMaxAttempts) mapred::CountTaskRerun(status);
  }
  if (!last.ok()) ++state->tasks_failed;
  slot->Release();
  ++state->tasks_done;
  state->last_completion =
      std::max(state->last_completion, state->engine->now());
}

// The rerun/failover/replica counters are process-global; each scenario
// diffs a snapshot taken before it ran.
struct CounterSnap {
  uint64_t rerun_chunk_lost = 0;
  uint64_t rerun_checksum = 0;
  uint64_t rerun_timeout = 0;
  uint64_t failover_attempted = 0;
  uint64_t failover_won = 0;
  uint64_t failover_exhausted = 0;
  uint64_t replica_stored = 0;
  uint64_t replica_skipped = 0;
};

CounterSnap TakeSnap() {
  obs::Registry& registry = obs::Registry::Default();
  CounterSnap s;
  s.rerun_chunk_lost =
      registry.counter("mapred.task.rerun.reason", {{"reason", "chunk-lost"}})
          ->value();
  s.rerun_checksum =
      registry.counter("mapred.task.rerun.reason", {{"reason", "checksum"}})
          ->value();
  s.rerun_timeout =
      registry.counter("mapred.task.rerun.reason", {{"reason", "timeout"}})
          ->value();
  s.failover_attempted =
      registry.counter("sponge.read.failover.attempted")->value();
  s.failover_won = registry.counter("sponge.read.failover.won")->value();
  s.failover_exhausted =
      registry.counter("sponge.read.failover.exhausted")->value();
  s.replica_stored = registry.counter("sponge.replica.stored")->value();
  s.replica_skipped = registry.counter("sponge.replica.skipped")->value();
  return s;
}

struct ScenarioResult {
  size_t tasks_done = 0;
  size_t tasks_failed = 0;
  uint64_t attempts = 0;
  uint64_t content_digest = 0;
  SimTime makespan = 0;
  uint64_t engine_events = 0;
  uint64_t leaked_chunks = 0;
  bool swept = false;
  // Counter deltas for this scenario.
  uint64_t rerun_chunk_lost = 0;
  uint64_t rerun_checksum = 0;
  uint64_t rerun_timeout = 0;
  uint64_t failover_attempted = 0;
  uint64_t failover_won = 0;
  uint64_t failover_exhausted = 0;
  uint64_t replica_stored = 0;
  uint64_t replica_skipped = 0;
  // Repair-loop stats (zero when replication is off).
  uint64_t repairs_completed = 0;
  uint64_t repair_bytes = 0;
  uint64_t repair_entries_dropped = 0;
  uint64_t repair_copies_lost = 0;
  Duration repair_active = 0;
  SimTime last_repair_at = 0;
  double repair_budget = 0;  // bytes/sec
};

sim::Task<> SweepInto(sponge::SpongeEnv* env, ScenarioResult* result) {
  result->leaked_chunks = co_await env->SweepAll();
  result->swept = true;
}

ScenarioResult RunScenario(const Options& options, bool inject_crashes,
                           bool replicate) {
  ScenarioResult result;
  const size_t num_nodes = options.racks * options.nodes_per_rack;
  CounterSnap before = TakeSnap();

  cluster::TopologyConfig topo;
  topo.num_racks = options.racks;
  topo.nodes_per_rack = options.nodes_per_rack;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = kSpongePerNode;

  sim::Engine engine;
  cluster::Cluster cluster(&engine, cluster::MakeClusterConfig(topo));
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  sponge_config.rpc.hedge_reads = true;
  sponge_config.replication.enabled = replicate;
  // Generous headroom so the pressure gate never vetoes a replica: the
  // zero-re-runs gate below assumes every memory chunk got its spare copy.
  sponge_config.replication.min_free_fraction = 0.05;
  // The periodic GC must not fire mid-run: a sweep on a replica holder
  // would see the (crashed) owner node as dead and reclaim chunks a
  // still-running task needs. The bench owns its GC epoch — one explicit
  // sweep after every task has finished — mirroring the framework, where
  // the job tracker keeps task registrations alive until commit.
  sponge::SpongeServerConfig server_config;
  server_config.gc_period = Minutes(60);
  sponge::SpongeEnv env(&cluster, &dfs, sponge_config, server_config);
  env.StartServices();

  // The fault schedule: k fail-stop crashes (no restart), all in rack 1 so
  // rack-diverse replicas always have survivors to fail over to.
  sponge::FailureInjector injector(&env, options.seed);
  if (inject_crashes) {
    for (size_t i = 0; i < options.crashes; ++i) {
      injector.ScheduleCrash(options.nodes_per_rack + i, kCrashAt,
                             /*downtime=*/0);
    }
  }

  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  slots.reserve(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    slots.push_back(std::make_unique<sim::Semaphore>(&engine, kSlotsPerNode));
  }
  RecoveryState state;
  state.engine = &engine;
  state.env = &env;
  state.slots = &slots;
  state.seed = options.seed;

  // Identical plan in every scenario: sizes and arrivals from the seeded
  // Rng, tasks round-robin over all nodes (so the crashed servers are both
  // spill targets and task homes).
  Rng plan_rng(options.seed);
  for (size_t j = 0; j < options.jobs; ++j) {
    uint64_t bytes =
        kMinTaskBytes + plan_rng.Uniform(kMaxTaskBytes - kMinTaskBytes + 1);
    SimTime arrival = kArrivalStart + static_cast<SimTime>(plan_rng.Uniform(
                                          static_cast<uint64_t>(kArrivalWindow)));
    size_t node = j % num_nodes;
    engine.SpawnAt(arrival, RunRecoveryTask(&state, j, node, bytes));
  }

  const SimTime deadline = Minutes(24 * 60.0);
  while (state.tasks_done < options.jobs && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
  }
  result.makespan = state.last_completion;
  result.tasks_done = state.tasks_done;
  result.tasks_failed = state.tasks_failed;
  result.attempts = state.attempts;
  result.content_digest = state.content_digest;

  // Let the repair loop drain its queue, then judge leaks: one sweep over
  // every server (crashed ones included — their pools were reset) must
  // leave zero allocated chunks, replicas and repair copies included.
  engine.RunUntil(engine.now() + Seconds(30));
  engine.Spawn(SweepInto(&env, &result));
  engine.RunUntil(engine.now() + Seconds(30));

  result.repairs_completed = env.repair().repairs_completed();
  result.repair_bytes = env.repair().repair_bytes();
  result.repair_entries_dropped = env.repair().entries_dropped();
  result.repair_copies_lost = env.repair().copies_lost();
  result.repair_active = env.repair().active_time();
  result.last_repair_at = env.repair().last_repair_at();
  result.repair_budget = env.repair().budget_bandwidth();
  result.engine_events = engine.events_processed();

  env.StopServices();
  engine.RunUntil(engine.now() + Seconds(30));
  // Reclaim the service loops while the cluster objects are still alive.
  engine.DrainDetached();

  CounterSnap after = TakeSnap();
  result.rerun_chunk_lost = after.rerun_chunk_lost - before.rerun_chunk_lost;
  result.rerun_checksum = after.rerun_checksum - before.rerun_checksum;
  result.rerun_timeout = after.rerun_timeout - before.rerun_timeout;
  result.failover_attempted =
      after.failover_attempted - before.failover_attempted;
  result.failover_won = after.failover_won - before.failover_won;
  result.failover_exhausted =
      after.failover_exhausted - before.failover_exhausted;
  result.replica_stored = after.replica_stored - before.replica_stored;
  result.replica_skipped = after.replica_skipped - before.replica_skipped;
  return result;
}

struct BenchResult {
  ScenarioResult baseline;
  ScenarioResult replicated;
  ScenarioResult unreplicated;
  uint64_t reruns_avoided = 0;
  Duration recovery_time = 0;
  double failover_win_rate = 0;
  double repair_throughput = 0;  // bytes/sec, measured
  bool replicated_ok = false;
  bool unreplicated_ok = false;
  bool ok = false;
  uint64_t digest = 0;
  double wall_ms = 0;  // kept out of --sim-out
};

BenchResult RunBench(const Options& options) {
  BenchResult r;
  double start_wall = WallMs();

  std::printf("scenario 1/3: fault-free baseline (replication on)\n");
  r.baseline = RunScenario(options, /*inject_crashes=*/false,
                           /*replicate=*/true);
  std::printf("scenario 2/3: %zu crashes, replication ON\n", options.crashes);
  r.replicated = RunScenario(options, /*inject_crashes=*/true,
                             /*replicate=*/true);
  std::printf("scenario 3/3: %zu crashes, replication OFF\n", options.crashes);
  r.unreplicated = RunScenario(options, /*inject_crashes=*/true,
                               /*replicate=*/false);

  r.reruns_avoided =
      r.unreplicated.rerun_chunk_lost - r.replicated.rerun_chunk_lost;
  if (r.replicated.repairs_completed > 0) {
    r.recovery_time = r.replicated.last_repair_at - kCrashAt;
  }
  if (r.replicated.failover_attempted > 0) {
    r.failover_win_rate =
        static_cast<double>(r.replicated.failover_won) /
        static_cast<double>(r.replicated.failover_attempted);
  }
  if (r.replicated.repair_active > 0) {
    r.repair_throughput = static_cast<double>(r.replicated.repair_bytes) /
                          ToSeconds(r.replicated.repair_active);
  }

  const ScenarioResult& base = r.baseline;
  bool baseline_ok = base.tasks_done == options.jobs &&
                     base.tasks_failed == 0 && base.swept &&
                     base.leaked_chunks == 0;
  const ScenarioResult& on = r.replicated;
  // Pacing guarantees throughput <= budget; 5% slack covers rounding.
  bool budget_ok = on.repair_active == 0 ||
                   r.repair_throughput <= on.repair_budget * 1.05;
  r.replicated_ok = on.tasks_done == options.jobs && on.tasks_failed == 0 &&
                    on.swept && on.content_digest == base.content_digest &&
                    on.rerun_chunk_lost == 0 && on.rerun_checksum == 0 &&
                    on.leaked_chunks == 0 && budget_ok;
  const ScenarioResult& off = r.unreplicated;
  r.unreplicated_ok = off.tasks_done == options.jobs &&
                      off.tasks_failed == 0 && off.swept &&
                      off.content_digest == base.content_digest &&
                      off.rerun_chunk_lost > 0 && off.leaked_chunks == 0;
  r.ok = baseline_ok && r.replicated_ok && r.unreplicated_ok;

  Digest digest;
  for (const ScenarioResult* s : {&r.baseline, &r.replicated,
                                  &r.unreplicated}) {
    digest.U64(s->tasks_done);
    digest.U64(s->attempts);
    digest.U64(s->content_digest);
    digest.U64(static_cast<uint64_t>(s->makespan));
    digest.U64(s->rerun_chunk_lost);
    digest.U64(s->failover_won);
    digest.U64(s->replica_stored);
    digest.U64(s->repair_bytes);
    digest.U64(s->leaked_chunks);
  }
  r.digest = digest.h;

  r.wall_ms = WallMs() - start_wall;
  return r;
}

void AppendScenario(std::string* out, const char* key,
                    const ScenarioResult& s) {
  *out += "  \"";
  *out += key;
  *out += "\": {\n    \"tasks_done\": ";
  obs::AppendJsonUint(out, s.tasks_done);
  *out += ",\n    \"tasks_failed\": ";
  obs::AppendJsonUint(out, s.tasks_failed);
  *out += ",\n    \"task_attempts\": ";
  obs::AppendJsonUint(out, s.attempts);
  *out += ",\n    \"content_digest\": ";
  obs::AppendJsonUint(out, s.content_digest);
  *out += ",\n    \"makespan_us\": ";
  obs::AppendJsonUint(out, static_cast<uint64_t>(s.makespan));
  *out += ",\n    \"engine_events\": ";
  obs::AppendJsonUint(out, s.engine_events);
  *out += ",\n    \"reruns_chunk_lost\": ";
  obs::AppendJsonUint(out, s.rerun_chunk_lost);
  *out += ",\n    \"reruns_checksum\": ";
  obs::AppendJsonUint(out, s.rerun_checksum);
  *out += ",\n    \"reruns_timeout\": ";
  obs::AppendJsonUint(out, s.rerun_timeout);
  *out += ",\n    \"failover_attempted\": ";
  obs::AppendJsonUint(out, s.failover_attempted);
  *out += ",\n    \"failover_won\": ";
  obs::AppendJsonUint(out, s.failover_won);
  *out += ",\n    \"failover_exhausted\": ";
  obs::AppendJsonUint(out, s.failover_exhausted);
  *out += ",\n    \"replicas_stored\": ";
  obs::AppendJsonUint(out, s.replica_stored);
  *out += ",\n    \"replicas_skipped\": ";
  obs::AppendJsonUint(out, s.replica_skipped);
  *out += ",\n    \"repairs_completed\": ";
  obs::AppendJsonUint(out, s.repairs_completed);
  *out += ",\n    \"repair_bytes\": ";
  obs::AppendJsonUint(out, s.repair_bytes);
  *out += ",\n    \"repair_entries_dropped\": ";
  obs::AppendJsonUint(out, s.repair_entries_dropped);
  *out += ",\n    \"repair_copies_lost\": ";
  obs::AppendJsonUint(out, s.repair_copies_lost);
  *out += ",\n    \"repair_active_us\": ";
  obs::AppendJsonUint(out, static_cast<uint64_t>(s.repair_active));
  *out += ",\n    \"leaked_chunks\": ";
  obs::AppendJsonUint(out, s.leaked_chunks);
  *out += "\n  }";
}

// Simulated quantities only — byte-identical for a fixed seed and shape.
std::string SimJson(const Options& options, const BenchResult& r) {
  std::string out = "{\n";
  out += "  \"bench\": \"recovery\",\n";
  out += "  \"racks\": ";
  obs::AppendJsonUint(&out, options.racks);
  out += ",\n  \"nodes\": ";
  obs::AppendJsonUint(&out, options.racks * options.nodes_per_rack);
  out += ",\n  \"jobs\": ";
  obs::AppendJsonUint(&out, options.jobs);
  out += ",\n  \"crashes\": ";
  obs::AppendJsonUint(&out, options.crashes);
  out += ",\n  \"crash_at_us\": ";
  obs::AppendJsonUint(&out, static_cast<uint64_t>(kCrashAt));
  out += ",\n  \"seed\": ";
  obs::AppendJsonUint(&out, options.seed);
  out += ",\n";
  AppendScenario(&out, "baseline", r.baseline);
  out += ",\n";
  AppendScenario(&out, "replicated", r.replicated);
  out += ",\n";
  AppendScenario(&out, "unreplicated", r.unreplicated);
  out += ",\n  \"reruns_avoided\": ";
  obs::AppendJsonUint(&out, r.reruns_avoided);
  out += ",\n  \"recovery_time_us\": ";
  obs::AppendJsonUint(&out, static_cast<uint64_t>(r.recovery_time));
  out += ",\n  \"failover_win_rate\": ";
  obs::AppendJsonDouble(&out, r.failover_win_rate);
  out += ",\n  \"repair_throughput_bytes_per_sec\": ";
  obs::AppendJsonDouble(&out, r.repair_throughput);
  out += ",\n  \"repair_budget_bytes_per_sec\": ";
  obs::AppendJsonDouble(&out, r.replicated.repair_budget);
  out += ",\n  \"replicated_ok\": ";
  out += r.replicated_ok ? "true" : "false";
  out += ",\n  \"unreplicated_ok\": ";
  out += r.unreplicated_ok ? "true" : "false";
  out += ",\n  \"digest\": ";
  obs::AppendJsonUint(&out, r.digest);
  out += ",\n  \"ok\": ";
  out += r.ok ? "true" : "false";
  out += "\n}\n";
  return out;
}

std::string FullJson(const Options& options, const BenchResult& r) {
  std::string sim = SimJson(options, r);
  // Splice the wall-clock section in before the closing brace.
  std::string out = sim.substr(0, sim.rfind("\n}\n"));
  out += ",\n  \"build_type\": ";
  obs::AppendJsonEscaped(&out, SPONGEFILES_BUILD_TYPE);
  out += ",\n  \"host_cores\": ";
  obs::AppendJsonUint(&out, HostCores());
  out += ",\n  \"wall_ms\": ";
  obs::AppendJsonDouble(&out, r.wall_ms);
  out += ",\n  \"peak_rss_bytes\": ";
  obs::AppendJsonUint(&out, PeakRssBytes());
  out += "\n}\n";
  return out;
}

void PrintScenarioRow(AsciiTable* table, const char* name,
                      const ScenarioResult& s) {
  table->AddRow(
      {name, StrFormat("%zu/%zu", s.tasks_done - s.tasks_failed, s.tasks_done),
       StrFormat("%llu", (unsigned long long)s.attempts),
       StrFormat("%llu", (unsigned long long)s.rerun_chunk_lost),
       StrFormat("%llu/%llu", (unsigned long long)s.failover_won,
                 (unsigned long long)s.failover_attempted),
       StrFormat("%llu", (unsigned long long)s.repairs_completed),
       FormatBytes(s.repair_bytes),
       StrFormat("%llu", (unsigned long long)s.leaked_chunks),
       FormatDuration(s.makespan)});
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options = ParseObsFlags(argc, argv);
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      options.out = arg.substr(6);
    } else if (arg.rfind("--sim-out=", 0) == 0) {
      options.sim_out = arg.substr(10);
    } else if (arg.rfind("--racks=", 0) == 0) {
      options.racks = static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg.rfind("--nodes-per-rack=", 0) == 0) {
      options.nodes_per_rack =
          static_cast<size_t>(std::atoll(arg.c_str() + 17));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--crashes=", 0) == 0) {
      options.crashes = static_cast<size_t>(std::atoll(arg.c_str() + 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    }
  }
  // Crashes stay inside rack 1 so replicas (rack-diverse by preference)
  // always have survivors; losing a whole rack is out of scope here.
  if (options.racks < 2 || options.nodes_per_rack < 2 ||
      options.jobs < 1 || options.crashes < 1 ||
      options.crashes >= options.nodes_per_rack) {
    std::fprintf(stderr,
                 "need --racks>=2, --nodes-per-rack>=2, --jobs>=1, "
                 "1<=--crashes<nodes-per-rack\n");
    return 2;
  }

  std::printf(
      "recovery bench: %zu racks x %zu nodes, %zu tasks, %zu fail-stop "
      "crashes at t=%s, seed %llu\n\n",
      options.racks, options.nodes_per_rack, options.jobs, options.crashes,
      FormatDuration(kCrashAt).c_str(),
      static_cast<unsigned long long>(options.seed));

  BenchResult r = RunBench(options);

  std::printf("\n");
  AsciiTable table({"scenario", "tasks ok", "attempts", "chunk-lost reruns",
                    "failover won/try", "repairs", "repair bytes", "leaks",
                    "makespan"});
  PrintScenarioRow(&table, "baseline", r.baseline);
  PrintScenarioRow(&table, "replicated", r.replicated);
  PrintScenarioRow(&table, "unreplicated", r.unreplicated);
  table.Print();
  std::printf(
      "\nre-runs avoided by replication: %llu (off %llu vs on %llu)\n",
      static_cast<unsigned long long>(r.reruns_avoided),
      static_cast<unsigned long long>(r.unreplicated.rerun_chunk_lost),
      static_cast<unsigned long long>(r.replicated.rerun_chunk_lost));
  std::printf("recovery: last repair %s after the crash, %s re-replicated "
              "at %s/s (budget %s/s)\n",
              FormatDuration(r.recovery_time).c_str(),
              FormatBytes(r.replicated.repair_bytes).c_str(),
              FormatBytes(static_cast<uint64_t>(r.repair_throughput)).c_str(),
              FormatBytes(static_cast<uint64_t>(r.replicated.repair_budget))
                  .c_str());
  std::printf("failover win rate %.1f%%, digests %s, wall %.0f ms\n",
              r.failover_win_rate * 100.0,
              r.ok ? "byte-identical" : "MISMATCH OR GATE MISS",
              r.wall_ms);

  if (!WriteTextFile(options.out, FullJson(options, r)).ok()) {
    std::fprintf(stderr, "failed to write %s\n", options.out.c_str());
    return 1;
  }
  std::printf("report written to %s\n", options.out.c_str());
  if (!options.sim_out.empty()) {
    if (!WriteTextFile(options.sim_out, SimJson(options, r)).ok()) {
      std::fprintf(stderr, "failed to write %s\n", options.sim_out.c_str());
      return 1;
    }
    std::printf("sim snapshot written to %s\n", options.sim_out.c_str());
  }
  WriteObsOutputs(obs_options);
  return r.ok ? 0 : 1;
}
