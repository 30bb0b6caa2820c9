#ifndef SPONGEFILES_SPONGE_SPONGE_SERVER_H_
#define SPONGEFILES_SPONGE_SPONGE_SERVER_H_

#include <cstdint>
#include <memory>

#include "cluster/network.h"
#include "common/byte_runs.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sponge/chunk_pool.h"
#include "sponge/task_registry.h"

namespace spongefiles::sponge {

// Size of a control message on the wire: sponge-server allocate, read,
// free and liveness requests and responses, and tracker polls and queries.
inline constexpr uint64_t kRpcMessageBytes = 256;

struct SpongeServerConfig {
  // Period between garbage-collection sweeps.
  Duration gc_period = Seconds(30);
};

// The per-node sponge server. It shares the node's chunk pool with local
// tasks, exports its free space to the memory tracker, serves allocation /
// write / read / free requests from remote tasks, and garbage-collects
// chunks owned by dead tasks. The server is stateless: all durable state
// is the pool metadata itself.
class SpongeServer {
 public:
  SpongeServer(sim::Engine* engine, cluster::Network* network,
               TaskRegistry* registry, size_t node_id,
               const ChunkPoolConfig& pool_config,
               const SpongeServerConfig& config);

  SpongeServer(const SpongeServer&) = delete;
  SpongeServer& operator=(const SpongeServer&) = delete;

  size_t node_id() const { return node_id_; }
  ChunkPool& pool() { return *pool_; }
  bool alive() const { return alive_; }

  // Free sponge memory right now (what the tracker's poll reads).
  uint64_t free_bytes() const { return pool_->free_bytes(); }

  // --- remote operations (called by tasks on other nodes; `from` is the
  // --- caller's node, used to charge network time) ---
  //
  // All parameters are taken BY VALUE: a caller running under
  // CallWithDeadline may abandon the operation and destroy its own frame
  // while the op is still parked on this (possibly hung) server, so the
  // op must own every piece of state it touches after resuming.

  // Allocates one chunk for `owner`; RESOURCE_EXHAUSTED when full — the
  // caller then tries the next server on its (possibly stale) free list.
  // `bytes` is the declared spill size (0 = undeclared), which the pool
  // uses only for its fragmentation count.
  sim::Task<Result<ChunkHandle>> RemoteAllocate(size_t from, ChunkOwner owner,
                                                uint64_t bytes = 0);

  // Ships `data` from node `from` into chunk `handle`.
  sim::Task<Status> RemoteWrite(size_t from, ChunkHandle handle,
                                ChunkOwner owner, ByteRuns data);

  // Reads chunk `handle` back to node `from`.
  sim::Task<Result<ByteRuns>> RemoteRead(size_t from, ChunkHandle handle,
                                         ChunkOwner owner);

  sim::Task<Status> RemoteFree(size_t from, ChunkHandle handle,
                               ChunkOwner owner);

  // Liveness probe used by peer servers' GC: is `task_id` alive on this
  // node? `from` pays for the RPC.
  sim::Task<bool> RemoteIsTaskAlive(size_t from, uint64_t task_id);

  // --- local operations (same-node tasks through shared memory; no
  // --- server involvement, hence no IPC cost — the SpongeFile charges the
  // --- raw memory copy itself) ---
  // The caller should collect pool().TakeLockWait() afterwards and pay it
  // as a Delay — the simulated pool-lock convoy (see ChunkPoolConfig).
  Result<ChunkHandle> LocalAllocate(const ChunkOwner& owner,
                                    uint64_t bytes = 0) {
    if (!alive_) return Unavailable("sponge server down");
    return pool_->Allocate(owner, bytes);
  }
  Status LocalFree(ChunkHandle handle, const ChunkOwner& owner) {
    return pool_->Free(handle, owner);
  }

  // --- garbage collection ---

  // Provides the peer list GcSweep consults for remote liveness checks.
  void SetPeers(std::vector<SpongeServer*>* peers) { peers_ = peers; }

  // Starts the periodic GC loop; it runs until Shutdown().
  void StartGc();

  // One sweep: frees chunks whose owner is dead. Local owners are checked
  // against the local process table; remote owners via the owning node's
  // server. Returns the number of chunks reclaimed.
  sim::Task<uint64_t> GcSweep();

  // Simulated machine failure: pool contents are lost; subsequent remote
  // operations fail UNAVAILABLE.
  void Crash();
  // The server restarts empty (it is stateless).
  void Restart();

  // --- gray failures ---

  // Hung server: the process is alive (liveness at the machine level still
  // passes) but every RPC parks after its request arrives and answers
  // nothing until the hang clears — the failure mode that motivates
  // client-side deadlines. Clearing the hang releases parked requests,
  // which then complete normally (their clients have typically given up).
  void SetHung(bool hung);
  bool hung() const { return hung_; }

  // Slow server: adds `delay` of server-side processing to every RPC
  // (GC-pausing JVM, an overloaded host). 0 restores nominal speed.
  void set_rpc_extra_delay(Duration delay) {
    rpc_extra_delay_ = delay < 0 ? 0 : delay;
  }

  void Shutdown() { stopping_ = true; }

  // --- statistics ---
  uint64_t remote_allocations() const { return remote_allocations_; }
  uint64_t failed_allocations() const { return failed_allocations_; }
  uint64_t gc_reclaimed() const { return gc_reclaimed_; }

 private:
  // Awaited by every remote operation after its request reaches the
  // server (deliberately after the network hop, so an abandoned request
  // never wedges a NIC pipe): pays the injected slow-server delay and
  // parks while the server is hung.
  sim::Task<> FaultPoint();

  sim::Task<> GcLoop();

  sim::Engine* engine_;
  cluster::Network* network_;
  TaskRegistry* registry_;
  size_t node_id_;
  SpongeServerConfig config_;
  std::unique_ptr<ChunkPool> pool_;
  std::vector<SpongeServer*>* peers_ = nullptr;

  bool alive_ = true;
  bool stopping_ = false;
  bool gc_running_ = false;

  bool hung_ = false;
  Duration rpc_extra_delay_ = 0;
  // Requests park on this event while hung. Cleared events are retired,
  // not destroyed: handles scheduled by Set() may still be in the engine
  // queue when a new hang begins.
  std::unique_ptr<sim::Event> hang_cleared_;
  std::vector<std::unique_ptr<sim::Event>> retired_hang_events_;

  uint64_t remote_allocations_ = 0;
  uint64_t failed_allocations_ = 0;
  uint64_t gc_reclaimed_ = 0;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_SPONGE_SERVER_H_
