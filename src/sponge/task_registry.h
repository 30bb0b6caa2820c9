#ifndef SPONGEFILES_SPONGE_TASK_REGISTRY_H_
#define SPONGEFILES_SPONGE_TASK_REGISTRY_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sponge/chunk_pool.h"

namespace spongefiles::sponge {

// One physical copy of a replicated chunk: which server's pool holds it,
// under what slot and owner identity. The owner identity is stored in full
// (including the replica flag) so reads and frees of the copy pass the
// server-side ownership check.
struct ReplicaLocation {
  size_t node = 0;
  ChunkHandle handle;
  ChunkOwner owner;
};

// Directory entry for one chunk that has (or had) a second copy. The
// checksum is the stored representation's — any location whose content no
// longer hashes to it is corrupt and unusable.
struct ReplicatedChunk {
  uint64_t chunk_id = 0;
  uint64_t owner_task = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
  std::vector<ReplicaLocation> locations;  // [0] is the original primary
};

// Tracks where replicated chunks live: the write path registers an entry
// per successfully replicated chunk, reads consult it to fail over when the
// primary is lost, and the repair service prunes dead locations and adds
// re-replicated ones. The directory is bookkeeping only — pool slots are
// still owned by the chunks' tasks, and the GC sweep (keyed on task
// liveness) reclaims them with or without a directory entry. A std::map
// keeps iteration order deterministic.
class ReplicaDirectory {
 public:
  // Creates an entry and returns its id (never 0; 0 in a chunk record
  // means "not replicated").
  uint64_t Register(uint64_t owner_task, uint64_t size, uint64_t checksum);

  // Both are no-ops on an unknown id: a repair can race a Delete that
  // already forgot the entry.
  void AddLocation(uint64_t chunk_id, const ReplicaLocation& location);
  void DropLocation(uint64_t chunk_id, size_t node);

  void Forget(uint64_t chunk_id);

  // Borrowed pointer, invalidated by Forget of the same id (and by nothing
  // else); callers that await between lookup and use must re-Find.
  const ReplicatedChunk* Find(uint64_t chunk_id) const;

  // Ids of every entry with a location on `node` (dead-server repair scan),
  // in id order.
  std::vector<uint64_t> ChunksOn(size_t node) const;

  size_t size() const { return chunks_.size(); }
  const std::map<uint64_t, ReplicatedChunk>& chunks() const {
    return chunks_;
  }

 private:
  uint64_t next_id_ = 1;
  std::map<uint64_t, ReplicatedChunk> chunks_;
};

// Tracks which tasks are alive on which node. This stands in for the OS
// process table each sponge server consults to decide whether a local
// process still exists; the garbage collector uses it to find chunks
// owned by dead tasks.
class TaskRegistry {
 public:
  // Registers a live task running on `node`; returns a fresh task id
  // (never 0; 0 marks a free chunk slot).
  uint64_t Register(size_t node);

  // Marks the task dead (normal exit or crash).
  void Deregister(uint64_t task_id);

  // Whether `task_id` is alive *on `node`* — a sponge server can only
  // check processes on its own machine, so callers must direct the query
  // to the right node (remote queries go through that node's server).
  bool IsAliveOn(uint64_t task_id, size_t node) const;

  // Node where the task was registered (dead tasks are forgotten).
  Result<size_t> NodeOf(uint64_t task_id) const;

  // Liveness regardless of node (the repair service's view: it only needs
  // to know whether re-replicating for this owner is still worthwhile).
  bool IsAlive(uint64_t task_id) const { return tasks_.contains(task_id); }

  size_t live_count() const { return tasks_.size(); }

  // The chunk-replica directory rides on the registry: both are the
  // cluster-wide "who owns what" bookkeeping that every sponge component
  // already has a path to.
  ReplicaDirectory& replicas() { return replicas_; }
  const ReplicaDirectory& replicas() const { return replicas_; }

 private:
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, size_t> tasks_;  // id -> node
  ReplicaDirectory replicas_;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_TASK_REGISTRY_H_
