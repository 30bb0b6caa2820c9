#include "sponge/sponge_file.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::sponge {

namespace {

// Raw copy rate into the node's mapped shared-memory pool.
constexpr double kSharedMemoryBandwidth = 1.0 * 1024 * 1024 * 1024;

// Per-medium spill accounting. These are the counters the benches check
// against the SpillStats the tasks report: both are incremented on the same
// code path, once per stored chunk.
struct MediumMetrics {
  obs::Counter* bytes;
  obs::Counter* chunks;
};

const MediumMetrics& MediumMetricsFor(ChunkLocation location) {
  static obs::Registry& registry = obs::Registry::Default();
  static const MediumMetrics metrics[] = {
      {registry.counter("sponge.spill.bytes", {{"medium", "local-memory"}}),
       registry.counter("sponge.spill.chunks", {{"medium", "local-memory"}})},
      {registry.counter("sponge.spill.bytes", {{"medium", "remote-memory"}}),
       registry.counter("sponge.spill.chunks",
                        {{"medium", "remote-memory"}})},
      {registry.counter("sponge.spill.bytes", {{"medium", "local-ssd"}}),
       registry.counter("sponge.spill.chunks", {{"medium", "local-ssd"}})},
      {registry.counter("sponge.spill.bytes", {{"medium", "local-disk"}}),
       registry.counter("sponge.spill.chunks", {{"medium", "local-disk"}})},
      {registry.counter("sponge.spill.bytes", {{"medium", "dfs"}}),
       registry.counter("sponge.spill.chunks", {{"medium", "dfs"}})},
  };
  return metrics[static_cast<size_t>(location)];
}

// Why the allocation cascade moved past (or preferred) a placement, in the
// cluster-wide counters' registration order; kDecisionReasons names each.
enum class Decision {
  kPoolFull,
  kTrackerStale,
  kTrackerDown,
  kRackRestricted,
  kServerSick,
  kRpcTimeout,
  kSsdFull,
  kSsdWorn,
  kAffinityHit,
};
constexpr const char* kDecisionReasons[] = {
    "pool-full", "tracker-stale", "tracker-down",
    "rack-restricted", "server-sick", "rpc-timeout",
    "ssd-full", "ssd-worn", "affinity-hit"};
constexpr size_t kNumDecisionReasons = std::size(kDecisionReasons);
static_assert(static_cast<size_t>(Decision::kAffinityHit) + 1 ==
              kNumDecisionReasons);

obs::Counter* DecisionCounter(size_t reason) {
  static const auto counters = [] {
    std::array<obs::Counter*, kNumDecisionReasons> made{};
    for (size_t i = 0; i < kNumDecisionReasons; ++i) {
      made[i] = obs::Registry::Default().counter(
          "sponge.alloc.decisions",
          {{"reason", std::string(kDecisionReasons[i])}});
    }
    return made;
  }();
  return counters[reason];
}

// Per-rack decision counters, registered the first time a (rack, reason)
// pair occurs so the snapshot carries no zero-valued pairs.
obs::Counter* RackDecisionCounter(size_t rack, size_t reason) {
  static std::vector<std::array<obs::Counter*, kNumDecisionReasons>> by_rack;
  if (rack >= by_rack.size()) by_rack.resize(rack + 1);
  obs::Counter*& counter = by_rack[rack][reason];
  if (counter == nullptr) {
    counter = obs::Registry::Default().counter(
        "sponge.spill.reason",
        {{"rack", std::to_string(rack)},
         {"reason", std::string(kDecisionReasons[reason])}});
  }
  return counter;
}

// Remote-memory placements split by rack locality (the cross-rack rung).
const MediumMetrics& RemoteLocalityMetricsFor(bool cross_rack) {
  static obs::Registry& registry = obs::Registry::Default();
  static const MediumMetrics metrics[] = {
      {registry.counter("sponge.spill.remote.bytes",
                        {{"locality", "rack-local"}}),
       registry.counter("sponge.spill.remote.chunks",
                        {{"locality", "rack-local"}})},
      {registry.counter("sponge.spill.remote.bytes",
                        {{"locality", "cross-rack"}}),
       registry.counter("sponge.spill.remote.chunks",
                        {{"locality", "cross-rack"}})},
  };
  return metrics[cross_rack ? 1 : 0];
}

// Replication write-path accounting.
struct ReplicaMetrics {
  obs::Counter* stored;
  obs::Counter* bytes;
  obs::Counter* skipped;
};

const ReplicaMetrics& ReplicaMetricsAll() {
  static obs::Registry& registry = obs::Registry::Default();
  static const ReplicaMetrics metrics = {
      registry.counter("sponge.replica.stored"),
      registry.counter("sponge.replica.bytes"),
      registry.counter("sponge.replica.skipped"),
  };
  return metrics;
}

// Read-failover accounting: attempted = primary lost with a replica on
// record, won = the replica served the bytes, exhausted = every copy gone.
obs::Counter* FailoverCounter(std::string_view which) {
  static obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* const attempted =
      registry.counter("sponge.read.failover.attempted");
  static obs::Counter* const won =
      registry.counter("sponge.read.failover.won");
  static obs::Counter* const exhausted =
      registry.counter("sponge.read.failover.exhausted");
  if (which == "attempted") return attempted;
  if (which == "won") return won;
  return exhausted;
}

obs::Counter* CorruptionCounter() {
  static obs::Counter* const counter =
      obs::Registry::Default().counter("sponge.chunk.corruptions");
  return counter;
}

// Records why the allocation cascade moved past (or preferred) a placement:
// a counter bump (cluster-wide and per-rack) plus, when tracing, an instant
// event on the task's trace track.
void SpillDecision(SpongeEnv* env, const TaskContext* task, Decision reason) {
  const auto index = static_cast<size_t>(reason);
  DecisionCounter(index)->Increment();
  // The per-rack breakdown is what lets a tracker-shard outage be pinned
  // to its rack: only that rack's tracker-down count moves.
  RackDecisionCounter(env->cluster()->rack_of(task->node), index)
      ->Increment();
  obs::Tracer& tracer = obs::Tracer::Default();
  if (tracer.enabled()) {
    tracer.InstantEvent(
        env->engine()->now(), task->node, task->task_id, "sponge",
        "spill.decision",
        {obs::TraceArg::Str("reason", kDecisionReasons[index])});
  }
}

}  // namespace

const char* ChunkLocationName(ChunkLocation location) {
  switch (location) {
    case ChunkLocation::kLocalMemory:
      return "local-memory";
    case ChunkLocation::kRemoteMemory:
      return "remote-memory";
    case ChunkLocation::kLocalSsd:
      return "local-ssd";
    case ChunkLocation::kLocalDisk:
      return "local-disk";
    case ChunkLocation::kDfs:
      return "dfs";
  }
  return "?";
}

SpongeFile::SpongeFile(SpongeEnv* env, TaskContext* task, std::string name)
    : env_(env), task_(task), name_(std::move(name)) {}

SpongeFile::~SpongeFile() {
  // Deliberately no cleanup here: freeing remote chunks takes simulated
  // time, which a destructor cannot spend. Tasks delete their SpongeFiles
  // explicitly; the sponge servers' GC reclaims anything a buggy or dead
  // task leaves behind (that path is what section 3.1.3 describes).
}

sim::Task<Status> SpongeFile::Append(ByteRuns data) {
  if (state_ != State::kWriting) {
    co_return FailedPrecondition("append on closed SpongeFile");
  }
  if (task_->killed) co_return Aborted("task killed");
  if (!pending_error_.ok()) co_return pending_error_;

  size_ += data.size();
  stats_.bytes_written += data.size();
  buffer_.Append(data);
  const uint64_t chunk_size = env_->config().chunk_size;
  while (buffer_.size() >= chunk_size) {
    ByteRuns chunk = buffer_.SplitPrefix(chunk_size);
    CO_RETURN_IF_ERROR(co_await StoreChunk(std::move(chunk)));
    if (task_->killed) co_return Aborted("task killed");
  }
  co_return Status::OK();
}

// lint: ref-ok(awaited inline by the writer; the record buffer outlives the append)
sim::Task<Status> SpongeFile::AppendBytes(Slice data) {
  ByteRuns runs;
  runs.AppendLiteral(data);
  co_return co_await Append(std::move(runs));
}

sim::Task<Status> SpongeFile::WaitForPendingStore() {
  if (pending_store_ != nullptr) {
    co_await pending_store_->Wait();
    pending_store_.reset();
  }
  co_return pending_error_;
}

sim::Task<Status> SpongeFile::StoreChunk(ByteRuns chunk) {
  // One store may be in flight; wait for it so placement decisions see
  // up-to-date pool state and disk chunks coalesce in order.
  CO_RETURN_IF_ERROR(co_await WaitForPendingStore());

  size_t index = chunks_.size();
  chunks_.emplace_back();

  // Placement is decided synchronously; only the data movement is
  // overlapped with the caller.
  if (env_->config().async_write) {
    auto event = std::make_unique<sim::Event>(env_->engine());
    sim::Event* raw = event.get();
    pending_store_ = std::move(event);
    auto store = [](SpongeFile* file, size_t slot, ByteRuns data,
                    sim::Event* done) -> sim::Task<> {
      Status status = co_await file->StoreIntoRecord(slot, std::move(data));
      if (!status.ok() && file->pending_error_.ok()) {
        file->pending_error_ = status;
      }
      done->Set();
    };
    env_->engine()->Spawn(store(this, index, std::move(chunk), raw));
    co_return Status::OK();
  }
  co_return co_await StoreIntoRecord(index, std::move(chunk));
}

sim::Task<Status> SpongeFile::StoreIntoRecord(size_t index, ByteRuns chunk) {
  ChunkRecord& record = chunks_[index];
  record.size = chunk.size();
  const SpongeConfig& config = env_->config();
  ChunkOwner owner{task_->task_id, task_->node};
  SpongeServer& local = env_->server(task_->node);

  // One span per stored chunk, covering the whole allocate->write cascade;
  // the medium arg is attached where placement is decided.
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), task_->node,
                      task_->task_id, "sponge", "chunk.store");
  span.Arg("bytes", record.size);

  // Checksum the chunk so every read — from any medium — can detect
  // corruption. The hash rides along with the copy, so no simulated time is
  // charged.
  record.checksum = chunk.Checksum64();

  // Copy-on-write view of the stored representation, kept only when
  // replication is on: memory placements below may move `chunk` into a
  // pool slot, and the replica write needs the bytes afterwards.
  ByteRuns replica_copy;
  if (config.replication.enabled) replica_copy = chunk;

  // 1. Local sponge memory.
  Result<ChunkHandle> handle = local.LocalAllocate(owner, chunk.size());
  {
    // Pay the simulated pool-lock convoy the allocation just went through.
    Duration lock_wait = local.pool().TakeLockWait();
    if (lock_wait > 0) co_await env_->engine()->Delay(lock_wait);
  }
  if (handle.ok()) {
    bool stored_locally = true;
    if (config.direct_local_access) {
      // Mapped shared memory: a raw copy into the pool.
      co_await env_->engine()->Delay(
          TransferTime(chunk.size(), kSharedMemoryBandwidth));
      *local.pool().chunk_data(*handle) = std::move(chunk);
    } else {
      // Through the local sponge server over a socket (Table 1 column 2).
      // Hardened like a remote write: a hung local server must not park
      // the task; on failure, release the slot and fall down the cascade.
      // (`slot`, not `handle`: factory captures must be trivially
      // destructible — see rpc_client.h.)
      ChunkHandle slot = *handle;
      Status stored = co_await HardenedCall<Status>(
          env_->engine(), &env_->health(), &env_->rpc_rng(), task_->node,
          [this, &local, &owner, slot, &chunk] {
            return local.RemoteWrite(task_->node, slot, owner, chunk);
          });
      if (!stored.ok()) {
        stored_locally = false;
        (void)local.LocalFree(*handle, owner);
        SpillDecision(env_, task_,
                      IsRpcTimeout(stored) ? Decision::kRpcTimeout
                                           : Decision::kServerSick);
      }
    }
    if (stored_locally) {
      record.node = task_->node;
      record.handle = *handle;
      CommitPlacement(record, ChunkLocation::kLocalMemory, &span);
      // A crash wipes the local pool even though (in this sim) the task
      // itself keeps running, so local-memory chunks want a replica too.
      if (config.replication.enabled) {
        co_await ReplicateChunk(index, std::move(replica_copy));
      }
      co_return Status::OK();
    }
  } else {
    SpillDecision(env_, task_, Decision::kPoolFull);
  }

  // 2. Remote sponge memory: first the rack-local rung, then — only when
  // the config allows it and every rack-local candidate is exhausted — the
  // cross-rack rung over the oversubscribed core. Each iteration allocates
  // a slot somewhere and tries the (hardened) write; a server that accepts
  // the allocation but then fails the write is bounced and the next
  // candidate tried, until both rungs run dry and we fall to disk.
  if (config.allow_remote_memory) {
    const int passes = config.allow_cross_rack ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      const bool cross_rack = pass == 1;
      while (true) {
        auto allocated = co_await AllocateRemote(cross_rack, chunk.size());
        if (!allocated.ok()) break;
        auto [target, remote_handle] = *allocated;
        Status stored = co_await HardenedCall<Status>(
            env_->engine(), &env_->health(), &env_->rpc_rng(), target,
            [this, target, remote_handle, &owner, &chunk] {
              return env_->server(target).RemoteWrite(task_->node,
                                                      remote_handle, owner,
                                                      chunk);
            });
        if (!stored.ok()) {
          SpillDecision(env_, task_,
                        IsRpcTimeout(stored) ? Decision::kRpcTimeout
                                             : Decision::kServerSick);
          Bounce(target);
          continue;
        }
        if (std::find(task_->sponge_affinity.begin(),
                      task_->sponge_affinity.end(),
                      target) == task_->sponge_affinity.end()) {
          task_->sponge_affinity.push_back(target);
        }
        record.node = target;
        record.handle = remote_handle;
        CommitPlacement(record, ChunkLocation::kRemoteMemory, &span);
        if (cross_rack) {
          ++stats_.chunks_remote_cross_rack;
          stats_.bytes_remote_cross_rack += record.size;
        }
        RemoteLocalityMetricsFor(cross_rack).bytes->Increment(record.size);
        RemoteLocalityMetricsFor(cross_rack).chunks->Increment();
        span.Arg("locality", cross_rack ? "cross-rack" : "rack-local");
        span.Arg("node", static_cast<uint64_t>(target));
        if (config.replication.enabled) {
          co_await ReplicateChunk(index, std::move(replica_copy));
        }
        co_return Status::OK();
      }
    }
  }

  // Disk, SSD and DFS chunks keep their bytes in the record.
  record.data = std::move(chunk);

  // 3. Local SSD: the middle rung between remote memory and the spindle,
  // on nodes that have one. Capacity is reserved up-front (released on
  // Delete); a worn device whose program op fails just falls through to
  // disk.
  cluster::Node& self = env_->cluster()->node(task_->node);
  if (self.has_ssd()) {
    cluster::Ssd& ssd = self.ssd();
    if (!ssd.TryReserve(record.size)) {
      SpillDecision(env_, task_, Decision::kSsdFull);
    } else {
      Status written = co_await ssd.Write(record.size);
      if (written.ok()) {
        CommitPlacement(record, ChunkLocation::kLocalSsd, &span);
        co_return Status::OK();
      }
      ssd.Release(record.size);
      SpillDecision(env_, task_, Decision::kSsdWorn);
    }
  }

  // 4. Local disk, appending to the previous on-disk chunk when there is
  // one so on-disk data stays contiguous and file-system metadata
  // operations stay rare.
  cluster::LocalFs& fs = env_->cluster()->node(task_->node).fs();
  if (index > 0 && chunks_[index - 1].location == ChunkLocation::kLocalDisk) {
    const ChunkRecord& prev = chunks_[index - 1];
    const uint64_t file = prev.fs_file;
    const uint64_t offset = prev.offset + prev.size;
    Status appended = co_await fs.Append(file, record.size);
    if (appended.ok()) {
      record.fs_file = file;
      record.offset = offset;
      CommitPlacement(record, ChunkLocation::kLocalDisk, &span);
      co_return Status::OK();
    }
  } else {
    Result<uint64_t> file =
        fs.Create(name_ + ".spill" + std::to_string(index));
    if (file.ok()) {
      Status appended = co_await fs.Append(*file, record.size);
      if (appended.ok()) {
        record.fs_file = *file;
        ++stats_.disk_files;
        CommitPlacement(record, ChunkLocation::kLocalDisk, &span);
        co_return Status::OK();
      }
      (void)fs.Delete(*file);
    }
  }

  // 5. The distributed filesystem, as a last resort.
  record.dfs_name = name_ + ".dfs" + std::to_string(index);
  Status stored =
      co_await env_->dfs()->AppendBlock(record.dfs_name, task_->node,
                                        record.size);
  if (!stored.ok()) co_return stored;
  CommitPlacement(record, ChunkLocation::kDfs, &span);
  co_return Status::OK();
}

void SpongeFile::CommitPlacement(ChunkRecord& record, ChunkLocation location,
                                 obs::SpanGuard<sim::Engine>* span) {
  record.location = location;
  const uint64_t size = record.size;
  // Each medium's {chunks, bytes} Stats fields, in ChunkLocation order.
  static constexpr std::pair<uint64_t Stats::*, uint64_t Stats::*> kFields[] =
      {{&Stats::chunks_local_memory, &Stats::bytes_local_memory},
       {&Stats::chunks_remote_memory, &Stats::bytes_remote_memory},
       {&Stats::chunks_local_ssd, &Stats::bytes_local_ssd},
       {&Stats::chunks_local_disk, &Stats::bytes_local_disk},
       {&Stats::chunks_dfs, &Stats::bytes_dfs}};
  const auto [chunks, bytes] = kFields[static_cast<size_t>(location)];
  ++(stats_.*chunks);
  stats_.*bytes += size;
  // A memory chunk occupies a whole pool slot whatever its size.
  if (location == ChunkLocation::kLocalMemory ||
      location == ChunkLocation::kRemoteMemory) {
    stats_.fragmentation_bytes += env_->config().chunk_size - size;
  }
  MediumMetricsFor(location).bytes->Increment(size);
  MediumMetricsFor(location).chunks->Increment();
  span->Arg("medium", ChunkLocationName(location));
}

sim::Task<Status> SpongeFile::LoadFreeList() {
  if (free_list_loaded_) co_return Status::OK();
  Result<std::vector<FreeSpaceEntry>> list =
      co_await env_->tracker().Query(task_->node);
  free_list_loaded_ = true;
  if (!list.ok()) {
    free_list_.clear();
    co_return list.status();
  }
  free_list_ = std::move(*list);
  SPONGE_CHECK(free_list_.size() <= UINT16_MAX)
      << "free list of " << free_list_.size() << " entries";

  // The walk relies on MergedView listing each server once (a rack's
  // digest carries only that rack's servers). Load stamps shared by every
  // file check that without a per-file bitmap.
  static std::vector<uint64_t> listed_at;
  static uint64_t load = 0;
  ++load;
  listed_at.resize(std::max(listed_at.size(), env_->cluster()->size()));

  // Split the list into the two rungs, each in tracker order: rack-local
  // entries fill walk_ from the front, off-rack ones from the back (then
  // reversed into order). The task's own node is no candidate.
  walk_.resize(free_list_.size());
  size_t local = 0;
  size_t off_rack = walk_.size();
  for (size_t i = 0; i < free_list_.size(); ++i) {
    const size_t node = free_list_[i].node;
    SPONGE_CHECK(listed_at[node] != load)
        << "tracker listed node " << node << " twice";
    listed_at[node] = load;
    if (node == task_->node) continue;
    const auto at = static_cast<uint16_t>(i);
    if (env_->cluster()->SameRack(node, task_->node)) {
      walk_[local++] = at;
    } else {
      walk_[--off_rack] = at;
    }
  }
  std::reverse(walk_.begin() + off_rack, walk_.end());
  walk_.erase(walk_.begin() + local, walk_.begin() + off_rack);
  cross_begin_ = walk_end_[0] = static_cast<uint16_t>(local);
  walk_end_[1] = static_cast<uint16_t>(walk_.size());
  co_return Status::OK();
}

void SpongeFile::Bounce(size_t node) {
  if (bounced_.empty()) bounced_.resize(env_->cluster()->size(), false);
  bounced_[node] = true;
}

sim::Task<Result<std::pair<size_t, ChunkHandle>>>
SpongeFile::AllocateRemote(bool cross_rack, uint64_t bytes) {
  const SpongeConfig& config = env_->config();
  // Checked here too so that only the loading call pays for a frame.
  if (!free_list_loaded_ && !(co_await LoadFreeList()).ok()) {
    // The tracker is an optimization, not a dependency: with no free
    // list we can still try affinity nodes, and otherwise fall to disk.
    SpillDecision(env_, task_, Decision::kTrackerDown);
  }

  // Each pass walks one locality rung: the rack-local pass only considers
  // same-rack servers, the cross-rack pass only off-rack ones (anything
  // rack-local was already exhausted by then).
  auto in_rung = [&](size_t node) {
    return node != task_->node &&
           env_->cluster()->SameRack(node, task_->node) != cross_rack;
  };

  // Candidate order: affinity nodes first (fewer distinct machines hold
  // this task's data, shrinking its failure footprint), then the rung's
  // part of the tracker's list, less the affinity prefix. The task's other
  // files only append to its affinity list, so the prefix is the list's
  // first `prefix` entries for the whole call.
  const std::vector<size_t>& affinity = task_->sponge_affinity;
  const size_t prefix = config.affinity ? affinity.size() : 0;

  // An off-rack candidate skipped with no cross-rack rung to catch it
  // later is the paper's rack restriction biting: counted for each
  // off-rack affinity node and list entry on every rack-local call.
  if (!cross_rack && !config.allow_cross_rack) {
    for (size_t a = 0; a < prefix; ++a) {
      if (affinity[a] != task_->node &&
          !env_->cluster()->SameRack(affinity[a], task_->node)) {
        SpillDecision(env_, task_, Decision::kRackRestricted);
      }
    }
    for (size_t i = cross_begin_; i < walk_.size(); ++i) {
      SpillDecision(env_, task_, Decision::kRackRestricted);
    }
  }

  // A list entry seen dead (bounced, or its estimate below one chunk: both
  // permanent for this file) leaves the walk for good. walk_[begin, kept)
  // holds the live entries passed so far and walk_[next, end) the ones
  // not yet looked at.
  const size_t begin = cross_rack ? cross_begin_ : 0;
  uint16_t& rung_end = walk_end_[cross_rack ? 1 : 0];
  const size_t end = rung_end;
  size_t kept = begin;
  size_t next = begin;
  std::optional<std::pair<size_t, ChunkHandle>> found;
  ChunkOwner owner{task_->task_id, task_->node};
  for (size_t a = 0; a < prefix || next < end;) {
    size_t node;
    FreeSpaceEntry* estimate;  // the tracker's entry; nullptr if unlisted
    if (a < prefix) {
      node = affinity[a++];
      if (!in_rung(node) || bounced(node)) continue;
      auto listed = std::find_if(
          free_list_.begin(), free_list_.end(),
          [node](const FreeSpaceEntry& entry) { return entry.node == node; });
      estimate = listed == free_list_.end() ? nullptr : &*listed;
      // Skip servers the estimate says cannot hold one more chunk.
      if (estimate != nullptr && estimate->free_bytes < config.chunk_size) {
        continue;
      }
    } else {
      const uint16_t at = walk_[next++];
      estimate = &free_list_[at];
      node = estimate->node;
      if (bounced(node) || estimate->free_bytes < config.chunk_size) continue;
      walk_[kept++] = at;
      if (std::find(affinity.begin(), affinity.begin() + prefix, node) !=
          affinity.begin() + prefix) {
        continue;
      }
    }
    // Circuit breaker: a server with an open breaker is skipped (but not
    // permanently bounced — it may recover and later chunks can use it).
    // An AllowRequest "true" on an open breaker is the half-open probe;
    // the HardenedCall below always settles it via RecordSuccess/Failure.
    if (!env_->health().AllowRequest(node)) {
      SpillDecision(env_, task_, Decision::kServerSick);
      continue;
    }
    Result<ChunkHandle> handle = co_await HardenedCall<Result<ChunkHandle>>(
        env_->engine(), &env_->health(), &env_->rpc_rng(), node,
        [this, node, &owner, bytes] {
          return env_->server(node).RemoteAllocate(task_->node, owner, bytes);
        });
    if (handle.ok()) {
      if (estimate != nullptr) {
        estimate->free_bytes = estimate->free_bytes >= config.chunk_size
                                   ? estimate->free_bytes - config.chunk_size
                                   : 0;
      }
      if (config.affinity &&
          std::find(task_->sponge_affinity.begin(),
                    task_->sponge_affinity.end(),
                    node) != task_->sponge_affinity.end()) {
        SpillDecision(env_, task_, Decision::kAffinityHit);
      }
      found.emplace(node, *handle);
      break;
    }
    // Stale list entry (dead or full server) or a sick one that
    // timed out through its retries: remember it is unusable and move on —
    // the paper's "try the rest of the servers in the free list one at a
    // time".
    static obs::Counter* const stale_retries_counter =
        obs::Registry::Default().counter("sponge.alloc.stale_retries");
    ++stats_.stale_list_retries;
    stale_retries_counter->Increment();
    const Status& why = handle.status();
    if (IsRpcTimeout(why)) {
      SpillDecision(env_, task_, Decision::kRpcTimeout);
    } else if (why.code() == StatusCode::kUnavailable) {
      SpillDecision(env_, task_, Decision::kServerSick);
    } else {
      SpillDecision(env_, task_, Decision::kTrackerStale);
    }
    if (estimate != nullptr) estimate->free_bytes = 0;
    Bounce(node);
  }
  // The dropped entries left a gap behind the cursor; the unvisited tail
  // closes it.
  if (kept < next) {
    std::copy(walk_.begin() + next, walk_.begin() + end,
              walk_.begin() + kept);
  }
  rung_end = static_cast<uint16_t>(kept + (end - next));
  if (!found) co_return NotFound("no remote sponge server with free memory");
  co_return *found;
}

sim::Task<Status> SpongeFile::Close() {
  if (state_ == State::kDeleted) {
    co_return FailedPrecondition("close on deleted SpongeFile");
  }
  if (state_ == State::kClosed) co_return pending_error_;
  if (!buffer_.empty()) {
    ByteRuns rest = std::move(buffer_);
    buffer_.Clear();
    Status stored = co_await StoreChunk(std::move(rest));
    if (!stored.ok()) co_return stored;
  }
  CO_RETURN_IF_ERROR(co_await WaitForPendingStore());
  state_ = State::kClosed;
  co_return Status::OK();
}

sim::Task<Result<ByteRuns>> SpongeFile::FetchChunk(size_t index) {
  Result<ByteRuns> fetched = co_await FetchChunkRaw(index);
  if (fetched.ok() && fetched->Checksum64() != chunks_[index].checksum) {
    // Bit rot, a stolen pool slot, a buggy server — whatever happened,
    // the chunk is gone. Surface it as lost (UNAVAILABLE) so failover —
    // and failing that, the framework's task retry — regenerates it;
    // never return bad bytes.
    CorruptionCounter()->Increment();
    fetched = Unavailable("chunk checksum mismatch");
  }
  // Failover: a primary lost to a crash, an open breaker, or corruption
  // is served from the replica before the loss reaches the framework (and
  // turns into a task re-run). Only UNAVAILABLE qualifies — other errors
  // (aborted task, corrupt record) are not a lost copy.
  if (!fetched.ok() &&
      fetched.status().code() == StatusCode::kUnavailable &&
      chunks_[index].replica_id != 0) {
    FailoverCounter("attempted")->Increment();
    Result<ByteRuns> replica = co_await FetchFromReplica(index);
    if (replica.ok()) {
      FailoverCounter("won")->Increment();
      ++stats_.replica_failovers;
      fetched = std::move(replica);
    } else {
      FailoverCounter("exhausted")->Increment();
    }
  }
  co_return fetched;
}

sim::Task<> SpongeFile::ReplicateChunk(size_t index, ByteRuns chunk) {
  ChunkRecord& record = chunks_[index];
  const SpongeConfig& config = env_->config();

  // Pressure gate and candidate list both come from the same tracker
  // snapshot the cascade uses, so replication never queries twice.
  (void)co_await LoadFreeList();
  const std::vector<size_t> candidates = env_->ReplicaTargets(
      free_list_, env_->cluster()->rack_of(record.node),
      [this, &record](size_t node) {
        return node == record.node || node == task_->node || bounced(node);
      });

  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), task_->node,
                      task_->task_id, "sponge", "chunk.replicate");
  span.Arg("bytes", record.size);

  // Replicas share the task's id (GC reclaims them with the attempt) but
  // carry the replica mark so their ownership is distinct from the
  // primary's.
  ChunkOwner replica_owner{task_->task_id, task_->node, /*replica=*/true};
  for (size_t node : candidates) {
    if (!env_->health().AllowRequest(node)) continue;
    Result<ChunkHandle> handle = co_await HardenedCall<Result<ChunkHandle>>(
        env_->engine(), &env_->health(), &env_->rpc_rng(), node,
        [this, node, &replica_owner, &record] {
          return env_->server(node).RemoteAllocate(task_->node, replica_owner,
                                                   record.size);
        });
    if (!handle.ok()) continue;
    // `slot`, not `handle`: factory captures must be trivially
    // destructible — see rpc_client.h.
    ChunkHandle slot = *handle;
    Status stored = co_await HardenedCall<Status>(
        env_->engine(), &env_->health(), &env_->rpc_rng(), node,
        [this, node, slot, &replica_owner, &chunk] {
          return env_->server(node).RemoteWrite(task_->node, slot,
                                                replica_owner, chunk);
        });
    // A half-written slot is GC fodder; move to the next candidate.
    if (!stored.ok()) continue;
    for (FreeSpaceEntry& entry : free_list_) {
      if (entry.node == node && entry.free_bytes >= config.chunk_size) {
        entry.free_bytes -= config.chunk_size;
        break;
      }
    }
    ReplicaDirectory& directory = env_->replicas();
    record.replica_id =
        directory.Register(task_->task_id, record.size, record.checksum);
    directory.AddLocation(
        record.replica_id,
        {record.node, record.handle,
         ChunkOwner{task_->task_id, task_->node, /*replica=*/false}});
    directory.AddLocation(record.replica_id, {node, slot, replica_owner});
    ++stats_.chunks_replicated;
    stats_.bytes_replicated += record.size;
    ReplicaMetricsAll().stored->Increment();
    ReplicaMetricsAll().bytes->Increment(record.size);
    span.Arg("node", static_cast<uint64_t>(node));
    co_return;
  }
  // Best effort only: under pressure (or with every candidate sick) the
  // chunk simply stays single-copy and a loss falls back to a task re-run.
  ReplicaMetricsAll().skipped->Increment();
}

sim::Task<Result<ByteRuns>> SpongeFile::FetchFromReplica(size_t index) {
  ChunkRecord& record = chunks_[index];
  const ReplicatedChunk* entry = env_->replicas().Find(record.replica_id);
  if (entry == nullptr) {
    co_return Unavailable("replica directory entry gone");
  }
  // Copy: repair and GC mutate the directory across the awaits below.
  const std::vector<ReplicaLocation> locations = entry->locations;
  for (const ReplicaLocation& location : locations) {
    if (location.node == record.node && location.handle == record.handle) {
      continue;  // the copy that just failed
    }
    if (!env_->server(location.node).alive()) continue;
    if (!env_->health().AllowRequest(location.node)) continue;
    Result<ByteRuns> fetched =
        co_await ReadRemote(location.node, location.handle, location.owner);
    if (!fetched.ok()) continue;
    // The replica is verified independently of the primary read: a
    // corrupted primary must not be "rescued" by an equally bad copy.
    if (fetched->Checksum64() != record.checksum) {
      CorruptionCounter()->Increment();
      continue;
    }
    co_return fetched;
  }
  co_return Unavailable("all replica copies lost");
}

sim::Task<Result<ByteRuns>> SpongeFile::ReadRemote(size_t node,
                                                   ChunkHandle handle,
                                                   ChunkOwner owner) {
  SpongeServer* server = &env_->server(node);
  co_return co_await HardenedCall<Result<ByteRuns>>(
      env_->engine(), &env_->health(), &env_->rpc_rng(), node,
      [this, server, handle, owner] {
        return server->RemoteRead(task_->node, handle, owner);
      });
}

sim::Task<> SpongeFile::FreeRemote(size_t node, ChunkHandle handle,
                                   ChunkOwner owner) {
  // Best effort, one attempt under deadline, and none at all for dead or
  // breaker-open servers: the GC sweep is the backstop for anything a free
  // misses.
  if (!env_->server(node).alive() || env_->health().IsOpen(node)) co_return;
  // Named local, not a temporary argument (see rpc_client.h).
  sim::Task<Status> free_op =
      env_->server(node).RemoteFree(task_->node, handle, owner);
  (void)co_await CallWithDeadline<Status>(env_->engine(), kRpcDeadline,
                                          std::move(free_op));
}

sim::Task<Result<ByteRuns>> SpongeFile::FetchChunkRaw(size_t index) {
  ChunkRecord& record = chunks_[index];
  const SpongeConfig& config = env_->config();
  ChunkOwner owner{task_->task_id, task_->node};
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), task_->node,
                      task_->task_id, "sponge", "chunk.read");
  span.Arg("medium", ChunkLocationName(record.location));
  span.Arg("bytes", record.size);
  switch (record.location) {
    case ChunkLocation::kLocalMemory: {
      ByteRuns* data =
          env_->server(record.node).pool().chunk_data(record.handle);
      if (data == nullptr) {
        co_return Unavailable("local chunk lost");
      }
      if (config.direct_local_access) {
        co_await env_->engine()->Delay(
            TransferTime(record.size, kSharedMemoryBandwidth));
        co_return *data;
      }
      co_return co_await ReadRemote(record.node, record.handle, owner);
    }
    case ChunkLocation::kRemoteMemory: {
      if (!env_->server(record.node).alive()) {
        co_return Unavailable("remote sponge server down");
      }
      // Breaker gate: a known-sick server is not worth the deadline wait —
      // report the chunk lost so the framework's retry kicks in.
      if (!env_->health().AllowRequest(record.node)) {
        SpillDecision(env_, task_, Decision::kServerSick);
        co_return Unavailable("sponge server circuit open");
      }
      Result<ByteRuns> fetched =
          co_await ReadRemote(record.node, record.handle, owner);
      if (!fetched.ok() &&
          fetched.status().code() != StatusCode::kUnavailable) {
        // FAILED_PRECONDITION / NOT_FOUND from the server means our slot
        // is gone (e.g. a crash-restart cycle); to the reader that is the
        // same lost chunk.
        co_return Unavailable("remote chunk lost: " +
                              fetched.status().message());
      }
      co_return fetched;
    }
    case ChunkLocation::kLocalSsd: {
      // Reads still work on a worn device (wear kills program ops, not
      // page reads); a slow SSD just stretches the transfer.
      cluster::Ssd& ssd = env_->cluster()->node(task_->node).ssd();
      Status read = co_await ssd.Read(record.size);
      if (!read.ok()) co_return read;
      co_return record.data;
    }
    case ChunkLocation::kLocalDisk: {
      cluster::LocalFs& fs = env_->cluster()->node(task_->node).fs();
      Status read = co_await fs.Read(record.fs_file, record.offset,
                                     record.size);
      if (!read.ok()) co_return read;
      co_return record.data;
    }
    case ChunkLocation::kDfs: {
      Status read = co_await env_->dfs()->Read(record.dfs_name, task_->node,
                                               0, record.size);
      if (!read.ok()) co_return read;
      co_return record.data;
    }
  }
  co_return Internal("corrupt chunk record");
}

void SpongeFile::MaybePrefetch(size_t index) {
  // A k-way merge over many SpongeFiles reaches its inputs' chunk ends
  // together; one prefetch per file would then put k chunk reads on the
  // wire at once, and past ~60 MB (the 500 ms RPC deadline at 1 Gb/s) the
  // late ones time out, retry into the queue and fail the task. Eight
  // chunks in flight per task keep the link busy well inside the deadline;
  // a file past the window reads its next chunk when asked.
  constexpr int kMaxPrefetchesPerTask = 8;
  if (!env_->config().prefetch) return;
  if (index >= chunks_.size()) return;
  // Local-memory chunks are already a memory copy away; prefetching them
  // buys nothing (the paper prefetches the next non-local chunk).
  if (chunks_[index].location == ChunkLocation::kLocalMemory) return;
  if (task_->prefetches >= kMaxPrefetchesPerTask) return;
  ++task_->prefetches;
  prefetch_done_ = std::make_unique<sim::Event>(env_->engine());
  prefetch_index_ = index;
  prefetch_active_ = true;
  auto fetch = [](SpongeFile* file, size_t slot,
                  sim::Event* done) -> sim::Task<> {
    file->prefetch_result_ = co_await file->FetchChunk(slot);
    --file->task_->prefetches;
    done->Set();
  };
  env_->engine()->Spawn(fetch(this, index, prefetch_done_.get()));
}

sim::Task<Result<ByteRuns>> SpongeFile::ReadNext() {
  if (state_ != State::kClosed) {
    co_return FailedPrecondition("read before Close (or after Delete)");
  }
  if (task_->killed) co_return Aborted("task killed");
  if (next_read_ >= chunks_.size()) co_return ByteRuns{};

  size_t index = next_read_++;
  Result<ByteRuns> result{ByteRuns{}};
  if (prefetch_active_ && prefetch_index_ == index) {
    co_await prefetch_done_->Wait();
    prefetch_active_ = false;
    result = std::move(prefetch_result_);
    prefetch_result_ = ByteRuns{};
  } else {
    result = co_await FetchChunk(index);
  }
  // Kick off the next chunk's fetch before handing this one back, so the
  // caller's processing overlaps the next transfer.
  MaybePrefetch(next_read_);
  co_return result;
}

sim::Task<> SpongeFile::Delete() {
  if (state_ == State::kDeleted) co_return;
  obs::SpanGuard span(&obs::Tracer::Default(), env_->engine(), task_->node,
                      task_->task_id, "sponge", "file.delete");
  span.Arg("chunks", static_cast<uint64_t>(chunks_.size()));
  (void)co_await WaitForPendingStore();
  if (prefetch_active_) {
    co_await prefetch_done_->Wait();
    prefetch_active_ = false;
  }
  state_ = State::kDeleted;
  ChunkOwner owner{task_->task_id, task_->node};
  std::vector<uint64_t> deleted_files;
  for (ChunkRecord& record : chunks_) {
    switch (record.location) {
      case ChunkLocation::kLocalMemory:
        (void)env_->server(record.node).LocalFree(record.handle, owner);
        break;
      case ChunkLocation::kRemoteMemory:
        co_await FreeRemote(record.node, record.handle, owner);
        break;
      case ChunkLocation::kLocalSsd:
        env_->cluster()->node(task_->node).ssd().Release(record.size);
        record.data.Clear();
        break;
      case ChunkLocation::kLocalDisk: {
        // Coalesced chunks share one file; delete it once.
        if (std::find(deleted_files.begin(), deleted_files.end(),
                      record.fs_file) == deleted_files.end()) {
          (void)env_->cluster()->node(task_->node).fs().Delete(
              record.fs_file);
          deleted_files.push_back(record.fs_file);
        }
        record.data.Clear();
        break;
      }
      case ChunkLocation::kDfs:
        (void)env_->dfs()->Delete(record.dfs_name);
        record.data.Clear();
        break;
    }
    if (record.replica_id != 0) {
      // Free the extra copies (the primary was handled above) and drop the
      // directory entry so repair stops maintaining it. Best effort like
      // the primary frees: GC is the backstop.
      const ReplicatedChunk* entry = env_->replicas().Find(record.replica_id);
      if (entry != nullptr) {
        const std::vector<ReplicaLocation> locations = entry->locations;
        for (const ReplicaLocation& location : locations) {
          if (location.node == record.node &&
              location.handle == record.handle) {
            continue;  // the primary copy, already freed
          }
          if (location.node == task_->node) {
            (void)env_->server(location.node).LocalFree(location.handle,
                                                        location.owner);
          } else {
            co_await FreeRemote(location.node, location.handle,
                                location.owner);
          }
        }
      }
      env_->replicas().Forget(record.replica_id);
    }
  }
}

std::vector<ChunkLocation> SpongeFile::ChunkPlacements() const {
  std::vector<ChunkLocation> out;
  out.reserve(chunks_.size());
  for (const ChunkRecord& record : chunks_) out.push_back(record.location);
  return out;
}

}  // namespace spongefiles::sponge
