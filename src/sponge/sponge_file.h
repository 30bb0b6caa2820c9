#ifndef SPONGEFILES_SPONGE_SPONGE_FILE_H_
#define SPONGEFILES_SPONGE_SPONGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_runs.h"
#include "common/status.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {

// Where a chunk ended up in the allocation cascade.
enum class ChunkLocation {
  kLocalMemory,
  kRemoteMemory,
  kLocalSsd,
  kLocalDisk,
  kDfs,
};

const char* ChunkLocationName(ChunkLocation location);

// A SpongeFile: the paper's distributed-memory spill target. A logical
// byte array with exactly one writer and one reader, written once front to
// back, closed, read back sequentially once, then deleted. Chunks are
// placed by the cascade: local sponge memory -> remote sponge memory on
// the same rack (servers already hosting this task's chunks first) ->
// remote sponge memory across racks (only when allow_cross_rack is set) ->
// the node's local SSD (when it has one: NodeConfig::ssd.capacity > 0) ->
// local disk (coalescing consecutive disk chunks into one growing file) ->
// the distributed filesystem as the last resort.
//
// Reads prefetch the next non-local-memory chunk (up to a per-task window
// across all of the task's files) and writes to non-local media are
// asynchronous (one outstanding store), overlapping IO with the spilling
// task's computation. A read through a sponge server is one hardened call
// (ReadRemote); a read it gives up on reports the chunk lost (after
// replica failover, when the chunk has a replica), and the framework
// re-runs the owning task.
class SpongeFile {
 public:
  struct Stats {
    uint64_t bytes_written = 0;
    uint64_t chunks_local_memory = 0;
    uint64_t chunks_remote_memory = 0;
    uint64_t chunks_local_ssd = 0;
    uint64_t chunks_local_disk = 0;   // coalesced count: appends, not files
    uint64_t chunks_dfs = 0;
    // Logical bytes stored on each medium; the sum equals bytes_written
    // once the file is closed.
    uint64_t bytes_local_memory = 0;
    uint64_t bytes_remote_memory = 0;
    uint64_t bytes_local_ssd = 0;
    uint64_t bytes_local_disk = 0;
    uint64_t bytes_dfs = 0;
    // Cross-rack subset of the remote-memory totals above (the cascade's
    // third rung; zero unless SpongeConfig::allow_cross_rack).
    uint64_t chunks_remote_cross_rack = 0;
    uint64_t bytes_remote_cross_rack = 0;
    uint64_t disk_files = 0;
    uint64_t stale_list_retries = 0;  // allocation attempts that bounced
    // Replication: memory chunks that got a second copy, the logical bytes
    // those copies carry, and reads served from a replica after the
    // primary copy was lost.
    uint64_t chunks_replicated = 0;
    uint64_t bytes_replicated = 0;
    uint64_t replica_failovers = 0;
    // Memory occupied by in-memory chunk slots beyond the logical bytes
    // stored in them (internal fragmentation, paper section 4.2.3).
    uint64_t fragmentation_bytes = 0;
    uint64_t total_chunks() const {
      return chunks_local_memory + chunks_remote_memory + chunks_local_ssd +
             chunks_local_disk + chunks_dfs;
    }
  };

  // `name` must be unique per task (it names disk spill files).
  SpongeFile(SpongeEnv* env, TaskContext* task, std::string name);
  ~SpongeFile();

  SpongeFile(const SpongeFile&) = delete;
  SpongeFile& operator=(const SpongeFile&) = delete;

  // --- write phase ---

  // Appends `data`; buffers internally and stores a chunk whenever a full
  // chunk_size accumulates. Fails if the file is closed, the task was
  // killed, or a prior asynchronous store failed.
  sim::Task<Status> Append(ByteRuns data);

  // Convenience for literal payloads.
  // lint: ref-ok(awaited inline by the writer; the record buffer outlives the append)
  sim::Task<Status> AppendBytes(Slice data);

  // Flushes the partial buffer as a final chunk and waits for outstanding
  // asynchronous stores. Idempotent.
  sim::Task<Status> Close();

  // --- read phase (only after Close) ---

  // Returns the next chunk's content, or an empty ByteRuns at end of
  // file. Consumes the file: a chunk can be read only once.
  sim::Task<Result<ByteRuns>> ReadNext();

  // --- teardown ---

  // Frees every chunk (pool slots locally and via RPC remotely, disk and
  // DFS files through their filesystems). Idempotent.
  sim::Task<> Delete();

  uint64_t size() const { return size_; }
  const Stats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  // Chunk placement summary, in write order (tests and diagnostics).
  std::vector<ChunkLocation> ChunkPlacements() const;

 private:
  enum class State { kWriting, kClosed, kDeleted };

  struct ChunkRecord {
    // Defaulted so a record whose store failed entirely is still safe for
    // Delete() to walk (an empty dfs_name delete is a no-op).
    ChunkLocation location = ChunkLocation::kDfs;
    size_t node = 0;          // memory chunks: owning server
    ChunkHandle handle;       // memory chunks: pool slot
    uint64_t fs_file = 0;     // local-disk chunks: LocalFs id
    std::string dfs_name;     // DFS chunks
    uint64_t offset = 0;      // within the (coalesced) disk file
    uint64_t size = 0;
    ByteRuns data;            // content for disk/DFS chunks
    // Checksum of the chunk's bytes, verified on every read; a mismatch
    // means the chunk is lost.
    uint64_t checksum = 0;
    // ReplicaDirectory entry id when this chunk has a second copy;
    // 0 means unreplicated (reads have no failover).
    uint64_t replica_id = 0;
  };

  // Decides placement for one full buffer and stores it (possibly
  // asynchronously). Appends the record synchronously so ordering and
  // coalescing stay correct.
  sim::Task<Status> StoreChunk(ByteRuns chunk);

  // The store cascade: places chunk `index` on the first medium that
  // takes it.
  sim::Task<Status> StoreIntoRecord(size_t index, ByteRuns chunk);

  // Records that `record` landed on `location` (memory callers set its
  // node and handle first): the record's location, the Stats and registry
  // counters of its medium, and the store span's medium arg.
  void CommitPlacement(ChunkRecord& record, ChunkLocation location,
                       obs::SpanGuard<sim::Engine>* span);

  // Loads this file's working copy of the tracker's free list on first
  // use and splits it into the walk's two rungs; later calls return OK at
  // once. The loading call returns the tracker's error, leaving an empty
  // list.
  sim::Task<Status> LoadFreeList();

  // Walks the candidate servers (affinity nodes first, then the rung's
  // part of the tracker's free list) issuing allocation RPCs until one
  // succeeds; NOT_FOUND when every candidate is full or ineligible.
  // Bounced attempts (stale list) are counted and the bounced server is
  // skipped for later chunks.
  // `cross_rack` selects the locality rung: false walks same-rack
  // candidates only, true off-rack only. `bytes` is the chunk's actual
  // size, declared to the target's pool for its fragmentation count.
  sim::Task<Result<std::pair<size_t, ChunkHandle>>> AllocateRemote(
      bool cross_rack, uint64_t bytes);

  // Marks `node` as a server that rejected this file; AllocateRemote and
  // replication skip it for later chunks.
  void Bounce(size_t node);
  bool bounced(size_t node) const {
    return node < bounced_.size() && bounced_[node];
  }

  sim::Task<Status> WaitForPendingStore();

  // Best-effort second copy of a memory-resident chunk on another server
  // (rack-diverse from the primary when possible, pressure-gated by the
  // tracker's free-space digests). On success, registers the pair in the
  // replica directory and stamps the record's replica_id. Failure is
  // silent — the chunk simply stays single-copy.
  sim::Task<> ReplicateChunk(size_t index, ByteRuns chunk);

  // Fetches chunk `index`'s content, charging media time. A primary lost
  // to a crash, open breaker, or checksum mismatch fails over to the
  // replica before surfacing UNAVAILABLE.
  sim::Task<Result<ByteRuns>> FetchChunk(size_t index);
  sim::Task<Result<ByteRuns>> FetchChunkRaw(size_t index);

  // Reads the surviving copy of a replicated chunk, checksum-verified
  // independently of the primary read.
  sim::Task<Result<ByteRuns>> FetchFromReplica(size_t index);

  // One read of the memory copy `owner` holds at `node`/`handle` through
  // that node's sponge server, under HardenedCall (rpc_client.h): the one
  // remote-read path, for remote chunks, their replicas, and local chunks
  // routed over the socket.
  sim::Task<Result<ByteRuns>> ReadRemote(size_t node, ChunkHandle handle,
                                         ChunkOwner owner);

  // Best-effort free of the copy at `node`/`handle`: skipped for a dead or
  // breaker-open server, else one attempt under the RPC deadline.
  sim::Task<> FreeRemote(size_t node, ChunkHandle handle, ChunkOwner owner);

  void MaybePrefetch(size_t index);

  SpongeEnv* env_;
  TaskContext* task_;
  std::string name_;
  State state_ = State::kWriting;

  ByteRuns buffer_;
  uint64_t size_ = 0;
  std::vector<ChunkRecord> chunks_;

  // Remote allocation state. `free_list_` is this file's working copy of
  // the tracker snapshot, in tracker order: successful allocations
  // decrement the entry and bounced ones zero it, so exhausted servers are
  // not re-tried per chunk.
  bool free_list_loaded_ = false;
  // Bounds in walk_ (below): the rack-local rung is walk_[0, walk_end_[0])
  // and the cross-rack rung walk_[cross_begin_, walk_end_[1]). Declared
  // beside the flag, they fill its padding instead of growing the file.
  uint16_t cross_begin_ = 0;
  uint16_t walk_end_[2] = {0, 0};
  std::vector<FreeSpaceEntry> free_list_;
  // The list part of AllocateRemote's walk, split once per file: indices
  // into free_list_ of the entries not yet seen dead, each rung in tracker
  // order. walk_ keeps its size, so walk_.size() - cross_begin_ is the
  // list's off-rack count.
  std::vector<uint16_t> walk_;
  // Per node: a server that rejected us (sized on the first bounce).
  std::vector<bool> bounced_;

  // Async write state: at most one store in flight.
  std::unique_ptr<sim::Event> pending_store_;
  Status pending_error_;

  // Read state.
  size_t next_read_ = 0;
  std::unique_ptr<sim::Event> prefetch_done_;
  size_t prefetch_index_ = 0;
  Result<ByteRuns> prefetch_result_{ByteRuns{}};
  bool prefetch_active_ = false;

  Stats stats_;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_SPONGE_FILE_H_
