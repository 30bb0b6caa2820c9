#include "sponge/sponge_server.h"

#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::sponge {

namespace {

// Copy rate between a request buffer and the pool on the server side.
constexpr double kServerCopyBandwidth = 2.0 * 1024 * 1024 * 1024;

obs::Counter* RpcCounter(const char* op) {
  static obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* const alloc =
      registry.counter("sponge.server.rpcs", {{"op", "alloc"}});
  static obs::Counter* const write =
      registry.counter("sponge.server.rpcs", {{"op", "write"}});
  static obs::Counter* const read =
      registry.counter("sponge.server.rpcs", {{"op", "read"}});
  static obs::Counter* const free =
      registry.counter("sponge.server.rpcs", {{"op", "free"}});
  static obs::Counter* const liveness =
      registry.counter("sponge.server.rpcs", {{"op", "liveness"}});
  switch (op[0]) {
    case 'a': return alloc;
    case 'w': return write;
    case 'r': return read;
    case 'f': return free;
    default: return liveness;
  }
}

}  // namespace

SpongeServer::SpongeServer(sim::Engine* engine, cluster::Network* network,
                           TaskRegistry* registry, size_t node_id,
                           const ChunkPoolConfig& pool_config,
                           const SpongeServerConfig& config)
    : engine_(engine),
      network_(network),
      registry_(registry),
      node_id_(node_id),
      config_(config),
      pool_(std::make_unique<ChunkPool>(pool_config, engine)) {}

sim::Task<> SpongeServer::FaultPoint() {
  if (rpc_extra_delay_ > 0) co_await engine_->Delay(rpc_extra_delay_);
  // Loop: the server may be re-hung between this frame's wake-up being
  // scheduled and it actually running.
  while (hung_) {
    co_await hang_cleared_->Wait();
  }
}

void SpongeServer::SetHung(bool hung) {
  if (hung == hung_) return;
  hung_ = hung;
  if (hung) {
    if (hang_cleared_ != nullptr) {
      retired_hang_events_.push_back(std::move(hang_cleared_));
    }
    hang_cleared_ = std::make_unique<sim::Event>(engine_);
  } else if (hang_cleared_ != nullptr) {
    hang_cleared_->Set();
  }
}

sim::Task<Result<ChunkHandle>> SpongeServer::RemoteAllocate(size_t from,
                                                            ChunkOwner owner,
                                                            uint64_t bytes) {
  RpcCounter("alloc")->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_,
                      owner.task_id, "rpc", "rpc.alloc");
  span.Arg("from", static_cast<uint64_t>(from));
  // Request hop, server-side work, response hop: the pool mutation
  // happens at the server, between the hops, so an error response still
  // pays the return trip.
  co_await network_->Transfer(from, node_id_, kRpcMessageBytes);
  co_await FaultPoint();
  Result<ChunkHandle> handle =
      alive_ ? pool_->Allocate(owner, bytes)
             : Result<ChunkHandle>(Unavailable("sponge server down"));
  if (alive_) {
    if (handle.ok()) {
      ++remote_allocations_;
    } else {
      ++failed_allocations_;
    }
    // The RPC pays the pool-lock convoy it just experienced: the server
    // thread held (and possibly waited for) the pool's lock.
    Duration lock_wait = pool_->TakeLockWait();
    if (lock_wait > 0) co_await engine_->Delay(lock_wait);
  }
  co_await network_->Transfer(node_id_, from, kRpcMessageBytes);
  co_return handle;
}

sim::Task<Status> SpongeServer::RemoteWrite(size_t from, ChunkHandle handle,
                                            ChunkOwner owner, ByteRuns data) {
  RpcCounter("write")->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_,
                      owner.task_id, "rpc", "rpc.write");
  span.Arg("from", static_cast<uint64_t>(from));
  span.Arg("bytes", data.size());
  // The chunk payload travels over the network, then the server moves it
  // into the pool slot. The simulated server-side copy charges time (the
  // real system memcpys socket buffer -> pool segment); on the host the
  // pool slot takes the caller's shared buffers by move.
  co_await network_->Transfer(from, node_id_, data.size());
  co_await FaultPoint();
  if (!alive_) co_return Unavailable("sponge server down");
  auto holder = pool_->OwnerOf(handle);
  if (!holder.ok() || !(*holder == owner)) {
    co_return FailedPrecondition("chunk not owned by caller");
  }
  co_await engine_->Delay(
      TransferTime(data.size(), kServerCopyBandwidth));
  *pool_->chunk_data(handle) = std::move(data);
  co_return Status::OK();
}

sim::Task<Result<ByteRuns>> SpongeServer::RemoteRead(size_t from,
                                                     ChunkHandle handle,
                                                     ChunkOwner owner) {
  RpcCounter("read")->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_,
                      owner.task_id, "rpc", "rpc.read");
  span.Arg("from", static_cast<uint64_t>(from));
  // Request message to the server.
  co_await network_->Transfer(from, node_id_, kRpcMessageBytes);
  co_await FaultPoint();
  if (!alive_) co_return Unavailable("sponge server down");
  auto holder = pool_->OwnerOf(handle);
  if (!holder.ok() || !(*holder == owner)) {
    co_return FailedPrecondition("chunk not owned by caller");
  }
  ByteRuns* data = pool_->chunk_data(handle);
  co_await engine_->Delay(
      TransferTime(data->size(), kServerCopyBandwidth));
  // Hand the reader a shared view of the slot (O(runs), no payload copy);
  // copy-on-write keeps it stable if the slot is later corrupted or reused.
  ByteRuns copy = *data;
  co_await network_->Transfer(node_id_, from, copy.size());
  co_return copy;
}

sim::Task<Status> SpongeServer::RemoteFree(size_t from, ChunkHandle handle,
                                           ChunkOwner owner) {
  RpcCounter("free")->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_,
                      owner.task_id, "rpc", "rpc.free");
  span.Arg("from", static_cast<uint64_t>(from));
  // Request hop, free at the server, response hop (see RemoteAllocate).
  co_await network_->Transfer(from, node_id_, kRpcMessageBytes);
  co_await FaultPoint();
  Status result = alive_ ? pool_->Free(handle, owner)
                         : Unavailable("sponge server down");
  co_await network_->Transfer(node_id_, from, kRpcMessageBytes);
  co_return result;
}

sim::Task<bool> SpongeServer::RemoteIsTaskAlive(size_t from,
                                                uint64_t task_id) {
  RpcCounter("liveness")->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_, task_id,
                      "rpc", "rpc.is_task_alive");
  span.Arg("from", static_cast<uint64_t>(from));
  // Request hop, registry lookup at the server, response hop (see
  // RemoteAllocate).
  co_await network_->Transfer(from, node_id_, kRpcMessageBytes);
  co_await FaultPoint();
  bool task_alive = alive_ && registry_->IsAliveOn(task_id, node_id_);
  co_await network_->Transfer(node_id_, from, kRpcMessageBytes);
  co_return task_alive;
}

void SpongeServer::StartGc() {
  if (gc_running_) return;
  gc_running_ = true;
  engine_->Spawn(GcLoop());
}

sim::Task<> SpongeServer::GcLoop() {
  while (!stopping_) {
    co_await engine_->Delay(config_.gc_period);
    if (stopping_) break;
    if (alive_) co_await GcSweep();
  }
  gc_running_ = false;
}

sim::Task<uint64_t> SpongeServer::GcSweep() {
  static obs::Counter* const gc_reclaimed_counter =
      obs::Registry::Default().counter("sponge.server.gc_reclaimed");
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_id_, 0, "gc",
                      "gc.sweep");
  uint64_t reclaimed = 0;
  // Cache liveness verdicts per owner so a task holding many chunks costs
  // one probe, not one per chunk.
  std::unordered_map<uint64_t, bool> verdicts;
  for (const auto& [handle, owner] : pool_->AllocatedChunks()) {
    auto it = verdicts.find(owner.task_id);
    bool live;
    if (it != verdicts.end()) {
      live = it->second;
    } else if (owner.node == node_id_) {
      // Local process: consult the local process table directly.
      live = registry_->IsAliveOn(owner.task_id, node_id_);
      verdicts[owner.task_id] = live;
    } else if (peers_ != nullptr && owner.node < peers_->size() &&
               (*peers_)[owner.node]->alive()) {
      // Remote process: ask the sponge server on the owner's node to check
      // on our behalf.
      live = co_await (*peers_)[owner.node]->RemoteIsTaskAlive(
          node_id_, owner.task_id);
      verdicts[owner.task_id] = live;
    } else {
      // Owner's node is gone; the task cannot be alive.
      live = false;
      verdicts[owner.task_id] = live;
    }
    if (!live) {
      // The owner may have freed this chunk while we awaited the probe.
      auto still_owned = pool_->OwnerOf(handle);
      if (still_owned.ok() && *still_owned == owner) {
        (void)pool_->ForceFree(handle);
        ++reclaimed;
      }
    }
  }
  gc_reclaimed_ += reclaimed;
  gc_reclaimed_counter->Increment(reclaimed);
  span.Arg("reclaimed", reclaimed);
  co_return reclaimed;
}

void SpongeServer::Crash() {
  alive_ = false;
  pool_->Reset();
}

void SpongeServer::Restart() {
  alive_ = true;
}

}  // namespace spongefiles::sponge
