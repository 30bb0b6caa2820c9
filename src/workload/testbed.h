#ifndef SPONGEFILES_WORKLOAD_TESTBED_H_
#define SPONGEFILES_WORKLOAD_TESTBED_H_

#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "mapred/job_tracker.h"
#include "sim/engine.h"
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

 private:
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs_;
  std::unique_ptr<sponge::SpongeEnv> env_;
  std::unique_ptr<mapred::JobTracker> tracker_;
};

}  // namespace spongefiles::workload

#endif  // SPONGEFILES_WORKLOAD_TESTBED_H_
