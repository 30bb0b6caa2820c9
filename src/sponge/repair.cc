#include "sponge/repair.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sponge/rpc_client.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {

namespace {

// Re-replication budget, as a fraction of the rack uplink rate (the NIC
// rate when the core is unmetered).
constexpr double kRepairBandwidthFraction = 0.10;
// Deadline on a repair's chunk write. No task waits on a repair, so a slow
// target gets four times a foreground attempt's kRpcDeadline before the
// copy is left to a later pass.
constexpr Duration kRepairWriteDeadline = Seconds(2);

struct RepairMetrics {
  obs::Counter* chunks;
  obs::Counter* bytes;
  obs::Counter* deaths;
  obs::Counter* lost;
};

const RepairMetrics& Metrics() {
  static obs::Registry& registry = obs::Registry::Default();
  static const RepairMetrics metrics = {
      registry.counter("sponge.repair.chunks"),
      registry.counter("sponge.repair.bytes"),
      registry.counter("sponge.repair.deaths_handled"),
      registry.counter("sponge.repair.copies_lost"),
  };
  return metrics;
}

}  // namespace

double RepairService::budget_bandwidth() const {
  const cluster::NetworkConfig& net = env_->cluster()->network().config();
  // "Fraction of rack uplink": when the core is metered that is the shared
  // cross-rack pipe; on a non-blocking core the NIC rate is the bound.
  double uplink = net.cross_rack_bandwidth > 0 ? net.cross_rack_bandwidth
                                               : net.bandwidth;
  return uplink * kRepairBandwidthFraction;
}

void RepairService::NotifyServerDeath(size_t node) {
  if (stopping_) return;
  queue_.push_back(node);
  if (!draining_) {
    draining_ = true;
    sim::Task<> drain = Drain();
    env_->engine()->Spawn(std::move(drain));
  }
}

sim::Task<> RepairService::Drain() {
  while (!queue_.empty() && !stopping_) {
    size_t dead = queue_.front();
    queue_.erase(queue_.begin());
    co_await RepairNode(dead);
    Metrics().deaths->Increment();
  }
  draining_ = false;
}

sim::Task<> RepairService::RepairNode(size_t dead_node) {
  ReplicaDirectory& directory = env_->registry().replicas();
  // Ids are snapshotted up front; everything below re-reads the directory
  // per entry because deletes and commits run concurrently with repair.
  std::vector<uint64_t> affected = directory.ChunksOn(dead_node);
  for (uint64_t chunk_id : affected) {
    if (stopping_) co_return;
    directory.DropLocation(chunk_id, dead_node);
    const ReplicatedChunk* entry = directory.Find(chunk_id);
    if (entry == nullptr) continue;  // deleted while we worked
    if (!env_->registry().IsAlive(entry->owner_task)) {
      // Dead owner: its surviving slots belong to the GC sweep, and no one
      // will ever read this chunk again — just forget the pairing.
      directory.Forget(chunk_id);
      ++entries_dropped_;
      continue;
    }
    if (entry->locations.empty()) {
      // Both copies died before repair could run. The owning task will see
      // UNAVAILABLE on its next read and the framework re-runs it — the
      // cost replication usually amortizes away.
      Metrics().lost->Increment();
      ++copies_lost_;
      directory.Forget(chunk_id);
      ++entries_dropped_;
      continue;
    }
    if (entry->locations.size() >= 2) continue;  // still fully replicated
    co_await RepairEntry(chunk_id);
  }
}

sim::Task<> RepairService::RepairEntry(uint64_t chunk_id) {
  SimTime started = env_->engine()->now();
  ReplicaDirectory& directory = env_->registry().replicas();
  const ReplicatedChunk* entry = directory.Find(chunk_id);
  if (entry == nullptr || entry->locations.empty()) co_return;
  const ReplicaLocation source = entry->locations.front();
  const uint64_t checksum = entry->checksum;
  const uint64_t owner_task = entry->owner_task;

  SpongeServer& survivor = env_->server(source.node);
  if (!survivor.alive()) {
    directory.DropLocation(chunk_id, source.node);
    co_return;
  }
  // Verify the survivor's slot before shipping it anywhere: a GC sweep
  // may have reassigned it, and bit rot may have corrupted it.
  // Re-replicating garbage would turn one lost chunk into two lies.
  Result<ChunkOwner> holder = survivor.pool().OwnerOf(source.handle);
  if (!holder.ok() || !(*holder == source.owner)) {
    directory.DropLocation(chunk_id, source.node);
    co_return;
  }
  ByteRuns data = *survivor.pool().chunk_data(source.handle);
  if (data.Checksum64() != checksum) co_return;

  // Pick the new home from the tracker's freshest view: alive, not already
  // holding a copy, first in the replica-target order.
  const std::vector<size_t> targets = env_->ReplicaTargets(
      env_->tracker().snapshot(), env_->cluster()->rack_of(source.node),
      [this, &source](size_t node) {
        return node == source.node || !env_->server(node).alive();
      });
  if (targets.empty()) co_return;  // cluster under pressure; stay single-copy
  const size_t target = targets.front();

  // The new copy is a replica owned by the same attempt, so GC reclaims it
  // with the attempt whether or not anyone ever reads it. The owner's node
  // (where GC directs its liveness probe) comes from the registry, not the
  // stale location record.
  Result<size_t> owner_node = env_->registry().NodeOf(owner_task);
  if (!owner_node.ok()) co_return;  // owner died while we verified
  ChunkOwner new_owner{owner_task, *owner_node, /*replica=*/true};

  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), source.node,
                      owner_task, "repair", "repair.chunk");
  span.Arg("bytes", data.size());
  span.Arg("target", static_cast<uint64_t>(target));

  // The survivor pushes the copy: allocate on the target, then ship the
  // bytes. Plain deadline calls, no retries — repair is best-effort
  // background work and another pass costs nothing but time. An abandoned
  // or half-finished slot is owned by the task and GC'd with it.
  sim::Task<Result<ChunkHandle>> alloc_op =
      env_->server(target).RemoteAllocate(source.node, new_owner,
                                          data.size());
  Result<ChunkHandle> slot = co_await CallWithDeadline<Result<ChunkHandle>>(
      env_->engine(), kRpcDeadline, std::move(alloc_op));
  if (!slot.ok()) {
    active_time_ += env_->engine()->now() - started;
    co_return;
  }
  const uint64_t bytes = data.size();
  sim::Task<Status> write_op = env_->server(target).RemoteWrite(
      source.node, *slot, new_owner, std::move(data));
  Status stored = co_await CallWithDeadline<Status>(
      env_->engine(), kRepairWriteDeadline, std::move(write_op));
  if (!stored.ok()) {
    active_time_ += env_->engine()->now() - started;
    co_return;
  }

  // Publish the new location; a no-op if a concurrent Delete forgot the
  // entry (the orphan copy is then GC fodder, never served).
  directory.AddLocation(chunk_id, {target, *slot, new_owner});
  ++repairs_completed_;
  repair_bytes_ += bytes;
  last_repair_at_ = env_->engine()->now();
  Metrics().chunks->Increment();
  Metrics().bytes->Increment(bytes);
  env_->cluster()->network().NoteRepairTraffic(source.node, target, bytes);

  // Budget pacing: idle after the copy until the loop's average rate drops
  // under the cap. The transfer itself took extra time on top, so the
  // measured throughput is strictly below budget_bandwidth.
  Duration pace = TransferTime(bytes, budget_bandwidth());
  co_await env_->engine()->Delay(pace);
  active_time_ += env_->engine()->now() - started;
}

}  // namespace spongefiles::sponge
