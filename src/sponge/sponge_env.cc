#include "sponge/sponge_env.h"

#include "sponge/repair.h"

namespace spongefiles::sponge {

namespace {

// Seeds the deterministic backoff jitter of every hardened call.
constexpr uint64_t kRpcJitterSeed = 0x5f0a9e;

}  // namespace

SpongeEnv::~SpongeEnv() = default;

SpongeEnv::SpongeEnv(cluster::Cluster* cluster, cluster::Dfs* dfs,
                     const SpongeConfig& config,
                     const SpongeServerConfig& server_config,
                     const MemoryTrackerConfig& tracker_config)
    : cluster_(cluster),
      dfs_(dfs),
      config_(config),
      health_(cluster->engine(), config.rpc.hedge_min_delay),
      rpc_rng_(kRpcJitterSeed) {
  servers_.reserve(cluster->size());
  for (size_t i = 0; i < cluster->size(); ++i) {
    ChunkPoolConfig node_pool;
    node_pool.pool_size = cluster->node(i).config().sponge_memory;
    node_pool.chunk_size = config.chunk_size;
    servers_.push_back(std::make_unique<SpongeServer>(
        cluster->engine(), &cluster->network(), &registry_, i, node_pool,
        server_config));
    server_ptrs_.push_back(servers_.back().get());
  }
  for (auto& server : servers_) server->SetPeers(&server_ptrs_);
  // One tracker shard per rack, homed on the rack's lowest-numbered node
  // (any node works; shards are stateless — the paper suggests leader
  // election via ZooKeeper for placement). Single-rack clusters get
  // exactly the old single tracker on node 0.
  tracker_ = std::make_unique<MemoryTracker>(cluster->engine(),
                                             &cluster->network(),
                                             &server_ptrs_, tracker_config);
  repair_ = std::make_unique<RepairService>(this);
}

void SpongeEnv::StartServices() {
  tracker_->Start();
  for (auto& server : servers_) server->StartGc();
  if (config_.replication.enabled) {
    // Crash recovery rides on the tracker's poll loop: the shard that
    // stops hearing from a server reports the death, the repair service
    // restores the two-copy invariant for its chunks.
    RepairService* repair = repair_.get();
    tracker_->SetDeathListener(
        [repair](size_t node) { repair->NotifyServerDeath(node); });
  }
}

void SpongeEnv::StopServices() {
  tracker_->Shutdown();
  for (auto& server : servers_) server->Shutdown();
  repair_->Shutdown();
}

TaskContext SpongeEnv::StartTask(size_t node) {
  TaskContext task;
  task.task_id = registry_.Register(node);
  task.node = node;
  return task;
}

void SpongeEnv::EndTask(const TaskContext& task) {
  registry_.Deregister(task.task_id);
}

sim::Task<uint64_t> SpongeEnv::SweepAll() {
  uint64_t allocated = 0;
  for (auto& server : servers_) {
    (void)co_await server->GcSweep();
    allocated += server->pool().allocated_count();
  }
  co_return allocated;
}

std::vector<size_t> SpongeEnv::ReplicaTargets(
    const std::vector<FreeSpaceEntry>& view, size_t primary_rack,
    const std::function<bool(size_t)>& skip) {
  std::vector<size_t> targets;
  for (const bool diverse : {true, false}) {
    for (const FreeSpaceEntry& entry : view) {
      if ((cluster_->rack_of(entry.node) != primary_rack) != diverse) {
        continue;
      }
      if (skip(entry.node)) continue;
      const uint64_t capacity =
          servers_[entry.node]->pool().total_chunks() * config_.chunk_size;
      const auto min_free = static_cast<uint64_t>(
          config_.replication.min_free_fraction *
          static_cast<double>(capacity));
      if (entry.free_bytes < min_free ||
          entry.free_bytes < config_.chunk_size) {
        continue;
      }
      targets.push_back(entry.node);
    }
  }
  return targets;
}

}  // namespace spongefiles::sponge
