#ifndef SPONGEFILES_SPONGE_MEMORY_TRACKER_H_
#define SPONGEFILES_SPONGE_MEMORY_TRACKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/network.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sponge/sponge_server.h"

namespace spongefiles::sponge {

// Free-space snapshot for one sponge server, as reported by a poll (or, for
// cross-rack entries, by a gossiped digest).
struct FreeSpaceEntry {
  size_t node = 0;
  uint64_t free_bytes = 0;
  size_t rack = 0;
};

// Shard gossip runs every kGossipPeriod, and merged answers drop any
// remote-rack digest older than kMaxDigestAge (both in memory_tracker.cc).
struct MemoryTrackerConfig {
  Duration poll_period = Seconds(1);
};

// Compact free-space summary of one rack, exchanged between tracker shards
// during anti-entropy gossip. `version` is the owning shard's poll counter;
// merges keep the higher version, so digests only move forward no matter
// what order gossip delivers them in.
struct RackDigest {
  size_t rack = 0;
  uint64_t version = 0;
  SimTime built_at = 0;
  uint64_t total_free = 0;
  // Largest-free-first, at most kDigestEntries (memory_tracker.cc).
  std::vector<FreeSpaceEntry> top;
};

// One tracker shard: owns a single rack, polls only that rack's sponge
// servers, and keeps a digest table for every other rack fed by gossip.
// The shard home is the rack's lowest-numbered node, so queries from rack
// members never cross the core.
class TrackerShard {
 public:
  TrackerShard(sim::Engine* engine, cluster::Network* network,
               std::vector<SpongeServer*> members, size_t rack,
               size_t num_racks);

  TrackerShard(const TrackerShard&) = delete;
  TrackerShard& operator=(const TrackerShard&) = delete;

  // One poll round over this rack's live servers; rebuilds the rack free
  // list and this rack's own digest.
  sim::Task<> PollOnce();

  // Fresh (last-poll) free list for this shard's own rack, most free first.
  const std::vector<FreeSpaceEntry>& rack_list() const { return rack_list_; }

  // Everything this shard knows: its own digest plus gossiped ones. Entries
  // with version == 0 are unheard-from racks.
  const std::vector<RackDigest>& digests() const { return digests_; }

  // Keeps `digest` iff it is newer than what the table already holds.
  void MergeDigest(const RackDigest& digest);

  // Cluster-wide answer from this shard's bounded-staleness view: the own
  // rack's fresh list plus, for every other rack, the digest's top entries
  // — unless the digest is older than kMaxDigestAge, in which case
  // the rack is omitted entirely. Sorted most-free-first, node-ascending.
  std::vector<FreeSpaceEntry> MergedView(SimTime now) const;

  // Death detection: the poll loop is the one component that regularly
  // talks to every server on the rack, so an alive -> dead transition
  // observed by PollOnce (the sim's stand-in for a poll RPC timing out) is
  // where a fail-stop crash becomes actionable. The listener fires once
  // per transition, from inside the polling coroutine; a server that
  // restarts and dies again fires again.
  void SetDeathListener(std::function<void(size_t node)> listener) {
    death_listener_ = std::move(listener);
  }

  size_t rack() const { return rack_; }
  size_t home_node() const { return home_node_; }
  uint64_t polls_completed() const { return polls_completed_; }
  uint64_t queries_served() const { return queries_served_; }
  uint64_t digests_merged() const { return digests_merged_; }
  void RecordQuery() { ++queries_served_; }

  // --- gray failures ---

  // Shard outage: this rack's queries fail UNAVAILABLE and its polling and
  // gossip stop. Other racks keep their last digest of this rack until it
  // ages past the staleness bound, then drop it.
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Staleness spike: polling pauses but queries still answer.
  void SetPollPaused(bool paused) { poll_paused_ = paused; }
  bool poll_paused() const { return poll_paused_; }

  // Gossip partition: the shard keeps serving its own rack from fresh
  // polls, but exchanges no digests — its view of other racks (and theirs
  // of it) ages out until the partition heals.
  void SetGossipPartitioned(bool partitioned) {
    gossip_partitioned_ = partitioned;
  }
  bool gossip_partitioned() const { return gossip_partitioned_; }

 private:
  sim::Engine* engine_;
  cluster::Network* network_;
  std::vector<SpongeServer*> members_;
  size_t rack_;
  size_t home_node_;

  std::vector<FreeSpaceEntry> rack_list_;
  std::vector<RackDigest> digests_;  // indexed by rack
  // Last liveness observed per member (parallel to members_), for
  // edge-triggered death detection.
  std::vector<uint8_t> member_alive_;
  std::function<void(size_t node)> death_listener_;
  bool down_ = false;
  bool poll_paused_ = false;
  bool gossip_partitioned_ = false;
  uint64_t polls_completed_ = 0;
  uint64_t queries_served_ = 0;
  uint64_t digests_merged_ = 0;
};

// The sharded memory tracker: one TrackerShard per rack plus the gossip
// loop that stitches their views together. Replaces the paper's single
// cluster-wide tracker — same deliberately-stale free list contract, but
// polls stay rack-local (no poll RPC ever crosses the core), a shard
// outage blinds only its own rack, and cross-rack visibility degrades
// gracefully through the digest staleness bound instead of failing whole.
// On a single-rack cluster this degenerates to exactly the old tracker:
// one shard on node 0, no gossip.
class ShardedMemoryTracker {
 public:
  ShardedMemoryTracker(sim::Engine* engine, cluster::Network* network,
                       std::vector<SpongeServer*>* servers,
                       const MemoryTrackerConfig& config);

  ShardedMemoryTracker(const ShardedMemoryTracker&) = delete;
  ShardedMemoryTracker& operator=(const ShardedMemoryTracker&) = delete;

  // Launches every shard's polling loop and the gossip loop.
  void Start();
  void Shutdown() { stopping_ = true; }

  // One full round: every live shard polls its rack, then one anti-entropy
  // exchange propagates the digests (tests prime the free list with this).
  sim::Task<> PollOnce();

  // Client query from `from_node`: one rack-local RPC to the node's own
  // shard, answered from the shard's bounded-staleness merged view.
  // UNAVAILABLE while that shard is down — callers degrade to an empty
  // free list (spills fall through to disk) rather than blocking.
  sim::Task<Result<std::vector<FreeSpaceEntry>>> Query(size_t from_node);

  // Union of all shards' fresh rack lists, without RPC cost (tests and
  // diagnostics). Rebuilt on demand.
  const std::vector<FreeSpaceEntry>& snapshot() const;

  // Complete cluster-coverage rounds: the minimum over shards, so a wedged
  // shard shows up as the whole tracker falling behind.
  uint64_t polls_completed() const;

  // Installs `listener` on every shard (each shard watches its own rack).
  void SetDeathListener(std::function<void(size_t node)> listener) {
    for (auto& shard : shards_) shard->SetDeathListener(listener);
  }

  size_t num_shards() const { return shards_.size(); }
  TrackerShard& shard(size_t rack) { return *shards_[rack]; }
  const TrackerShard& shard(size_t rack) const { return *shards_[rack]; }

  uint64_t gossip_rounds() const { return gossip_rounds_; }

  // --- gray failures ---

  // Whole-tracker outage/pause: applied to every shard (the legacy chaos
  // events from PR 2 keep their meaning).
  void SetDown(bool down);
  bool down() const;
  void SetPollPaused(bool paused);

  // Per-shard variants, promoted into FailureInjector chaos schedules.
  void SetShardDown(size_t rack, bool down) { shards_[rack]->SetDown(down); }
  void SetShardPollPaused(size_t rack, bool paused) {
    shards_[rack]->SetPollPaused(paused);
  }
  void SetGossipPartitioned(size_t rack, bool partitioned) {
    shards_[rack]->SetGossipPartitioned(partitioned);
  }

 private:
  sim::Task<> ShardPollLoop(TrackerShard* shard);
  sim::Task<> GossipLoop();
  // One anti-entropy round: shard i exchanges full digest sets with shard
  // (i + step) % R, with `step` rotating 1..R-1 each round so every pair
  // meets periodically. Down or partitioned shards sit the round out.
  sim::Task<> GossipRound();
  sim::Task<> Exchange(TrackerShard* a, TrackerShard* b);
  uint64_t DigestWireBytes(const TrackerShard& shard) const;

  sim::Engine* engine_;
  cluster::Network* network_;
  MemoryTrackerConfig config_;
  std::vector<std::unique_ptr<TrackerShard>> shards_;
  mutable std::vector<FreeSpaceEntry> snapshot_cache_;
  bool stopping_ = false;
  bool running_ = false;
  uint64_t gossip_rounds_ = 0;
  uint64_t gossip_step_ = 1;
};

// The facade keeps the original name: the rest of the tree (and the test
// prime idiom) talks to "the memory tracker" regardless of shard count.
using MemoryTracker = ShardedMemoryTracker;

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_MEMORY_TRACKER_H_
