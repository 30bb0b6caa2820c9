#include "sponge/memory_tracker.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::sponge {

namespace {

// Wire size per gossiped digest header and per carried free-space entry;
// the digest is compact by construction (top-N entries, not the full rack).
constexpr uint64_t kGossipDigestBytes = 32;
constexpr uint64_t kGossipEntryBytes = 24;
// Top-N free-space entries carried per rack digest.
constexpr size_t kDigestEntries = 16;
// Anti-entropy round period: each round every shard exchanges its full
// digest set with one rotating partner, so new information reaches every
// shard in O(log num_racks) rounds.
constexpr Duration kGossipPeriod = Seconds(1);
// Staleness bound: merged answers drop any remote-rack digest older than
// this, so a dead or partitioned shard's rack fades from other racks'
// cross-rack candidates instead of attracting doomed allocations.
constexpr Duration kMaxDigestAge = Seconds(10);

void SortFreeList(std::vector<FreeSpaceEntry>* list) {
  std::sort(list->begin(), list->end(),
            [](const FreeSpaceEntry& a, const FreeSpaceEntry& b) {
              if (a.free_bytes != b.free_bytes) {
                return a.free_bytes > b.free_bytes;
              }
              return a.node < b.node;
            });
}

}  // namespace

TrackerShard::TrackerShard(sim::Engine* engine, cluster::Network* network,
                           std::vector<SpongeServer*> members, size_t rack,
                           size_t num_racks)
    : engine_(engine),
      network_(network),
      members_(std::move(members)),
      rack_(rack) {
  SPONGE_CHECK(!members_.empty()) << "rack " << rack << " has no servers";
  home_node_ = members_.front()->node_id();
  member_alive_.assign(members_.size(), 1);
  digests_.resize(num_racks);
  for (size_t r = 0; r < num_racks; ++r) digests_[r].rack = r;
}

sim::Task<> TrackerShard::PollOnce() {
  static obs::Counter* const polls_counter =
      obs::Registry::Default().counter("sponge.tracker.polls");
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, home_node_, 0,
                      "tracker", "tracker.poll");
  span.Arg("rack", static_cast<uint64_t>(rack_));
  static obs::Counter* const deaths_counter =
      obs::Registry::Default().counter("sponge.tracker.deaths_detected");
  std::vector<FreeSpaceEntry> fresh;
  for (size_t i = 0; i < members_.size(); ++i) {
    SpongeServer* server = members_[i];
    if (!server->alive()) {
      // In real life this poll RPC would time out; the edge (server was
      // alive last round, is not now) is the shard detecting a fail-stop
      // crash. Fires the death listener exactly once per transition.
      if (member_alive_[i] != 0) {
        member_alive_[i] = 0;
        deaths_counter->Increment();
        if (death_listener_) death_listener_(server->node_id());
      }
      continue;
    }
    member_alive_[i] = 1;
    // The poll is a request hop, the member filling in its free-byte
    // count, and a response hop (the same two Transfers Network::Rpc is
    // made of, so the timing is unchanged); the read sits between the
    // hops because that is when the member composes the response.
    if (server->node_id() != home_node_) {
      co_await network_->Transfer(home_node_, server->node_id(),
                                  kRpcMessageBytes);
    }
    uint64_t free = server->free_bytes();
    if (server->node_id() != home_node_) {
      co_await network_->Transfer(server->node_id(), home_node_,
                                  kRpcMessageBytes);
    }
    if (free > 0) {
      fresh.push_back({server->node_id(), free, rack_});
    }
  }
  SortFreeList(&fresh);
  rack_list_ = std::move(fresh);
  ++polls_completed_;
  polls_counter->Increment();

  // Rebuild this rack's own digest from the fresh list.
  RackDigest& own = digests_[rack_];
  own.version = polls_completed_;
  own.built_at = engine_->now();
  own.total_free = 0;
  own.top.clear();
  for (const FreeSpaceEntry& entry : rack_list_) {
    own.total_free += entry.free_bytes;
    if (own.top.size() < kDigestEntries) own.top.push_back(entry);
  }
  span.Arg("entries", static_cast<uint64_t>(rack_list_.size()));
}

void TrackerShard::MergeDigest(const RackDigest& digest) {
  if (digest.rack == rack_) return;  // own rack is always poll-fresh
  RackDigest& held = digests_[digest.rack];
  if (digest.version <= held.version) return;
  held = digest;
  ++digests_merged_;
}

std::vector<FreeSpaceEntry> TrackerShard::MergedView(SimTime now) const {
  std::vector<FreeSpaceEntry> view = rack_list_;
  for (const RackDigest& digest : digests_) {
    if (digest.rack == rack_ || digest.version == 0) continue;
    if (now - digest.built_at > kMaxDigestAge) continue;
    view.insert(view.end(), digest.top.begin(), digest.top.end());
  }
  SortFreeList(&view);
  return view;
}

ShardedMemoryTracker::ShardedMemoryTracker(
    sim::Engine* engine, cluster::Network* network,
    std::vector<SpongeServer*>* servers, const MemoryTrackerConfig& config)
    : engine_(engine), network_(network), config_(config) {
  size_t num_racks = network->num_racks();
  std::vector<std::vector<SpongeServer*>> by_rack(num_racks);
  for (SpongeServer* server : *servers) {
    by_rack[network->rack_of(server->node_id())].push_back(server);
  }
  shards_.reserve(num_racks);
  for (size_t r = 0; r < num_racks; ++r) {
    shards_.push_back(std::make_unique<TrackerShard>(
        engine, network, std::move(by_rack[r]), r, num_racks));
  }
}

void ShardedMemoryTracker::Start() {
  if (running_) return;
  running_ = true;
  for (auto& shard : shards_) engine_->Spawn(ShardPollLoop(shard.get()));
  if (shards_.size() > 1) engine_->Spawn(GossipLoop());
}

sim::Task<> ShardedMemoryTracker::ShardPollLoop(TrackerShard* shard) {
  while (!stopping_) {
    if (!shard->down() && !shard->poll_paused()) co_await shard->PollOnce();
    co_await engine_->Delay(config_.poll_period);
  }
}

sim::Task<> ShardedMemoryTracker::GossipLoop() {
  while (!stopping_) {
    co_await engine_->Delay(kGossipPeriod);
    if (stopping_) break;
    co_await GossipRound();
  }
}

uint64_t ShardedMemoryTracker::DigestWireBytes(
    const TrackerShard& shard) const {
  uint64_t bytes = 0;
  for (const RackDigest& digest : shard.digests()) {
    if (digest.version == 0) continue;
    bytes += kGossipDigestBytes +
             kGossipEntryBytes * digest.top.size();
  }
  return std::max<uint64_t>(bytes, kGossipDigestBytes);
}

sim::Task<> ShardedMemoryTracker::Exchange(TrackerShard* a, TrackerShard* b) {
  static obs::Counter* const exchanges_counter =
      obs::Registry::Default().counter("sponge.tracker.gossip.exchanges");
  static obs::Counter* const digest_bytes_counter =
      obs::Registry::Default().counter("sponge.tracker.gossip.bytes");
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, a->home_node(), 0,
                      "tracker", "tracker.gossip");
  span.Arg("peer_rack", static_cast<uint64_t>(b->rack()));
  // Zero-cost yield: each exchange initiation is its own event, anchored at
  // the initiating shard, rather than a continuation of the previous
  // exchange's completion (which ends at a *different* shard's home). The
  // parallel port sends exchange kick-offs as messages for the same reason.
  co_await engine_->Delay(0);
  // Full digest-set exchange (standard anti-entropy): both sides walk away
  // with the element-wise newest of the two tables. a's table is snapshotted
  // before the first hop (it is the request payload), each merge happens
  // when its message arrives at the destination shard, and the two
  // Transfers are exactly what Network::Rpc was made of, so the timing is
  // unchanged.
  uint64_t request = DigestWireBytes(*a);
  std::vector<RackDigest> a_table = a->digests();
  co_await network_->Transfer(a->home_node(), b->home_node(), request);
  for (const RackDigest& digest : a_table) {
    if (digest.version > 0) b->MergeDigest(digest);
  }
  uint64_t response = DigestWireBytes(*b);
  std::vector<RackDigest> b_table = b->digests();
  co_await network_->Transfer(b->home_node(), a->home_node(), response);
  for (const RackDigest& digest : b_table) {
    if (digest.version > 0) a->MergeDigest(digest);
  }
  exchanges_counter->Increment();
  digest_bytes_counter->Increment(request + response);
}

sim::Task<> ShardedMemoryTracker::GossipRound() {
  static obs::Counter* const rounds_counter =
      obs::Registry::Default().counter("sponge.tracker.gossip.rounds");
  const size_t num = shards_.size();
  if (num < 2) co_return;
  const size_t step = gossip_step_;
  gossip_step_ = gossip_step_ % (num - 1) + 1;
  for (size_t i = 0; i < num; ++i) {
    TrackerShard* a = shards_[i].get();
    TrackerShard* b = shards_[(i + step) % num].get();
    if (a->down() || b->down()) continue;
    if (a->gossip_partitioned() || b->gossip_partitioned()) continue;
    co_await Exchange(a, b);
  }
  ++gossip_rounds_;
  rounds_counter->Increment();
}

sim::Task<> ShardedMemoryTracker::PollOnce() {
  for (auto& shard : shards_) {
    if (!shard->down() && !shard->poll_paused()) co_await shard->PollOnce();
  }
  co_await GossipRound();
}

sim::Task<Result<std::vector<FreeSpaceEntry>>> ShardedMemoryTracker::Query(
    size_t from_node) {
  static obs::Counter* const queries_counter =
      obs::Registry::Default().counter("sponge.tracker.queries");
  queries_counter->Increment();
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, from_node, 0,
                      "tracker", "tracker.query");
  TrackerShard& shard = *shards_[network_->rack_of(from_node)];
  span.Arg("rack", static_cast<uint64_t>(shard.rack()));
  if (from_node != shard.home_node()) {
    // Always a rack-local hop: the shard home lives on the caller's rack.
    co_await network_->Rpc(from_node, shard.home_node(),
                           kRpcMessageBytes,
                           kRpcMessageBytes * 4);
  }
  if (shard.down()) {
    // The caller paid the round trip only to find nobody home (in real
    // life a connection refusal / timeout).
    co_return Unavailable("memory tracker shard down");
  }
  shard.RecordQuery();
  co_return shard.MergedView(engine_->now());
}

const std::vector<FreeSpaceEntry>& ShardedMemoryTracker::snapshot() const {
  snapshot_cache_.clear();
  for (const auto& shard : shards_) {
    snapshot_cache_.insert(snapshot_cache_.end(), shard->rack_list().begin(),
                           shard->rack_list().end());
  }
  SortFreeList(&snapshot_cache_);
  return snapshot_cache_;
}

uint64_t ShardedMemoryTracker::polls_completed() const {
  uint64_t min_polls = shards_.empty() ? 0 : shards_[0]->polls_completed();
  for (const auto& shard : shards_) {
    min_polls = std::min(min_polls, shard->polls_completed());
  }
  return min_polls;
}

void ShardedMemoryTracker::SetDown(bool down) {
  for (auto& shard : shards_) shard->SetDown(down);
}

bool ShardedMemoryTracker::down() const {
  for (const auto& shard : shards_) {
    if (!shard->down()) return false;
  }
  return !shards_.empty();
}

void ShardedMemoryTracker::SetPollPaused(bool paused) {
  for (auto& shard : shards_) shard->SetPollPaused(paused);
}

}  // namespace spongefiles::sponge
