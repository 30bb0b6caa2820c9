#ifndef SPONGEFILES_WORKLOAD_TESTBED_H_
#define SPONGEFILES_WORKLOAD_TESTBED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "mapred/job_tracker.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"
#include "workload/jobs.h"

namespace spongefiles::workload {

// The evaluation testbed of section 4.2.2: 30 nodes in one rack, two map
// slots and one reduce slot per node, 1 GB heaps, 1 GB sponge memory, and
// the microbenchmark machines' disk/network characteristics. Experiments
// vary node memory (4 vs 16 GB), sponge size, and heap size.
struct TestbedConfig {
  size_t num_nodes = 30;
  // 40 keeps the default testbed single-rack like the paper's; smaller
  // values split it into racks (tracker shards, rack-local spill rungs).
  size_t nodes_per_rack = 40;
  // 0 leaves the core non-blocking; > 0 meters cross-rack transfers at
  // nodes_per_rack * bandwidth / oversubscription per rack uplink.
  double oversubscription = 0;
  uint64_t node_memory = 16ull * 1024 * 1024 * 1024;
  uint64_t heap_per_slot = 1024ull * 1024 * 1024;
  uint64_t sponge_memory = 1024ull * 1024 * 1024;
  uint64_t pinned_memory = 0;
  // Per-node local SSD for the cascade's SSD rung; capacity 0 (default)
  // means no SSD — every placement identical to the pre-SSD testbed.
  cluster::SsdConfig ssd;
  sponge::SpongeConfig sponge;
};

// Owns the full simulated stack and provides synchronous helpers that
// spin the event loop (one Testbed per experiment run).
class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Engine& engine() { return engine_; }
  cluster::Cluster& cluster() { return *cluster_; }
  cluster::Dfs& dfs() { return *dfs_; }
  sponge::SpongeEnv& env() { return *env_; }
  mapred::JobTracker& tracker() { return *tracker_; }

  // Runs `config` to completion and returns its result. When
  // `background` is set, that job is submitted right after the measured
  // one (soaking up the idle slots, per section 4.2.3) and cancelled once
  // the measured job finishes; its completed task stats are appended to
  // `background_tasks` when provided.
  Result<mapred::JobResult> RunJob(
      mapred::JobConfig config,
      std::optional<mapred::JobConfig> background = std::nullopt,
      std::vector<mapred::TaskStats>* background_tasks = nullptr);

  // The leak check every fault run ends with: runs the clock to
  // `settle_at` (past every fault window, so no sweep meets a hung or
  // down server), GC-sweeps every server (SpongeEnv::SweepAll) and runs
  // 10 s more. Returns the chunks still allocated, or nullopt if the
  // sweep did not finish in those 10 s.
  std::optional<uint64_t> SettleAndSweep(SimTime settle_at);

 private:
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs_;
  std::unique_ptr<sponge::SpongeEnv> env_;
  std::unique_ptr<mapred::JobTracker> tracker_;
};

// One run of the chaos-median scenario (RunChaosMedian). Everything past
// `status` is left empty when the job failed.
struct ChaosMedianRun {
  Status status;
  Duration runtime = 0;
  std::vector<mapred::Record> output;
  // The output is exactly the dataset's median.
  bool correct = false;
  std::vector<sponge::FaultEvent> schedule;
  // Map and reduce tasks' SpillStats::bytes_spilled.
  uint64_t spilled_bytes = 0;
  // The engine's event count and clock after the sweep.
  uint64_t events = 0;
  SimTime now = 0;
  // SettleAndSweep's verdict: nullopt when the sweep did not finish.
  std::optional<uint64_t> leaked_chunks;
};

// The chaos scenario the fault checks share: the skewed median job over
// 50,001 numbers on a testbed built from `bed_config`, with speculation on
// (backups launched against fault-induced stragglers), under a
// `chaos`-shaped schedule drawn from `seed`. `num_faults = 0` is the
// fault-free baseline. After the job, the clock settles 10 s past
// max(job end, chaos.horizon) and every server is GC-swept.
ChaosMedianRun RunChaosMedian(const TestbedConfig& bed_config,
                              const sponge::ChaosOptions& chaos,
                              uint64_t seed);

}  // namespace spongefiles::workload

#endif  // SPONGEFILES_WORKLOAD_TESTBED_H_
