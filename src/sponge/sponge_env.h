#ifndef SPONGEFILES_SPONGE_SPONGE_ENV_H_
#define SPONGEFILES_SPONGE_SPONGE_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/random.h"
#include "common/units.h"
#include "sponge/memory_tracker.h"
#include "sponge/rpc_client.h"
#include "sponge/sponge_server.h"
#include "sponge/task_registry.h"

namespace spongefiles::sponge {

class RepairService;

// Chunk replication: place a second copy of every memory-resident chunk on
// another server when pool pressure allows, so a fail-stop crash of the
// holder costs a failover read instead of a task re-run. Off by default —
// it spends memory and network to buy durability, the opposite trade from
// the paper's baseline.
struct ReplicationConfig {
  bool enabled = false;
  // Pressure gate: a candidate server qualifies as a replica target only
  // while its digest-reported free space is at least this fraction of a
  // node's pool. Replication is strictly best-effort — under pressure the
  // spare copy is skipped rather than crowding out foreground spills.
  double min_free_fraction = 0.25;
};

// Knobs governing SpongeFile behaviour; defaults match the paper's
// implementation choices (1 MB chunks, rack-local remote spilling, chunk
// prefetch on read, asynchronous writes to non-local media, direct
// shared-memory access for local chunks).
struct SpongeConfig {
  uint64_t chunk_size = 1024ull * 1024;
  // When false, even local chunks are stored through the local sponge
  // server over a socket (Table 1's second column) instead of directly
  // through shared memory.
  bool direct_local_access = true;
  // Adds the cross-rack rung to the cascade: local memory -> rack-local
  // remote memory -> cross-rack remote memory -> disk. Off by default (the
  // paper's rack-local policy, respecting oversubscribed cross-rack
  // links); when on, cross-rack servers are tried only after every
  // rack-local candidate is exhausted.
  bool allow_cross_rack = false;
  // Prefer remote servers already hosting chunks of this task.
  bool affinity = true;
  // Prefetch the next non-local chunk during sequential reads.
  bool prefetch = true;
  // Overlap non-local chunk writes with the writer's computation.
  bool async_write = true;
  // Disable remote memory entirely (local pool then disk).
  bool allow_remote_memory = true;
  // Client-side hardening of remote sponge operations (deadlines,
  // retries, circuit breaker, hedged reads); see rpc_client.h.
  RpcPolicy rpc;
  // Chunk replication and crash recovery (see ReplicationConfig above).
  ReplicationConfig replication;
};

// The per-task view a SpongeFile needs: identity for chunk ownership and
// the node whose pool / disk / NIC it uses. `killed` supports failure
// injection: spilling tasks observe it at operation boundaries.
// `sponge_affinity` is the set of remote servers already holding any of
// this task's chunks — the paper's allocation preference that keeps a
// task's failure footprint small; it is task-wide, shared by all of the
// task's SpongeFiles, as is `prefetches`, the chunk prefetches the task's
// files have in flight.
struct TaskContext {
  uint64_t task_id = 0;
  size_t node = 0;
  bool killed = false;
  std::vector<size_t> sponge_affinity;
  int prefetches = 0;
};

// Wires together everything SpongeFiles need on a cluster: one sponge
// server per node, the memory tracker, the task registry, and the DFS
// last-resort target. Owns the sponge services; the cluster substrate is
// borrowed.
class SpongeEnv {
 public:
  SpongeEnv(cluster::Cluster* cluster, cluster::Dfs* dfs,
            const SpongeConfig& config,
            const SpongeServerConfig& server_config = {},
            const MemoryTrackerConfig& tracker_config = {});

  SpongeEnv(const SpongeEnv&) = delete;
  SpongeEnv& operator=(const SpongeEnv&) = delete;
  ~SpongeEnv();  // defined in .cc: RepairService is incomplete here

  // Starts the tracker poll loop, each server's GC loop, and (when
  // replication is enabled) hooks the tracker's death detection up to the
  // repair service.
  void StartServices();
  // Stops the loops (lets Engine::Run drain).
  void StopServices();

  cluster::Cluster* cluster() { return cluster_; }
  cluster::Dfs* dfs() { return dfs_; }
  sim::Engine* engine() { return cluster_->engine(); }
  TaskRegistry& registry() { return registry_; }
  MemoryTracker& tracker() { return *tracker_; }
  SpongeServer& server(size_t node) { return *servers_[node]; }
  std::vector<SpongeServer*>* servers() { return &server_ptrs_; }
  const SpongeConfig& config() const { return config_; }
  // Shared per-server circuit-breaker state for every SpongeFile client in
  // this environment, and the seeded Rng their backoff jitter draws from.
  HealthBoard& health() { return health_; }
  Rng& rpc_rng() { return rpc_rng_; }
  ReplicaDirectory& replicas() { return registry_.replicas(); }
  RepairService& repair() { return *repair_; }

  // Replica targets from `view`, in the one order both the write path and
  // repair use: servers off `primary_rack` first (a whole-rack failure —
  // the switch, a PDU — then still leaves one copy), same-rack ones after.
  // A server qualifies only while `view` shows at least
  // ReplicationConfig::min_free_fraction of its pool, and at least one
  // chunk, free: replicas only consume slack. `skip` is the caller's own
  // exclusions.
  std::vector<size_t> ReplicaTargets(const std::vector<FreeSpaceEntry>& view,
                                     size_t primary_rack,
                                     const std::function<bool(size_t)>& skip);

  // Registers a task with the registry and hands out its context.
  TaskContext StartTask(size_t node);
  void EndTask(const TaskContext& task);

  // GC-sweeps every server in node order, one sweep after another, and
  // returns the chunks still allocated across the cluster (after the
  // faults have cleared, any survivor of a finished workload is a leak).
  sim::Task<uint64_t> SweepAll();

  // Simulates a machine failure: its sponge contents are lost.
  void CrashNode(size_t node) { servers_[node]->Crash(); }
  void RestartNode(size_t node) { servers_[node]->Restart(); }

 private:
  cluster::Cluster* cluster_;
  cluster::Dfs* dfs_;
  SpongeConfig config_;
  HealthBoard health_;
  Rng rpc_rng_;
  TaskRegistry registry_;
  std::vector<std::unique_ptr<SpongeServer>> servers_;
  std::vector<SpongeServer*> server_ptrs_;
  std::unique_ptr<MemoryTracker> tracker_;
  std::unique_ptr<RepairService> repair_;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_SPONGE_ENV_H_
