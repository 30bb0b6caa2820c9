#ifndef SPONGEFILES_SPONGE_REPAIR_H_
#define SPONGEFILES_SPONGE_REPAIR_H_

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace spongefiles::sponge {

class SpongeEnv;

// Tracker-driven re-replication: when a TrackerShard detects a dead sponge
// server, the repair service walks the replica directory for chunks that
// had a copy there, drops the dead locations, and — for chunks of live
// tasks left with a single surviving copy — has the survivor push a fresh
// replica to a new server, restoring the two-copy invariant before a
// second failure can make the chunk unrecoverable.
//
// Repair is deliberately background-class traffic. One serialized drain
// loop processes dead servers in notification order, and after each copied
// chunk the loop idles long enough that its long-run throughput never
// exceeds kRepairBandwidthFraction (repair.cc) of the rack uplink rate
// (the NIC rate when the core is unmetered) — foreground spills are never
// starved no matter how many chunks a crash orphans.
//
// Races are resolved by construction, not locks: every step re-reads the
// directory after an await, a survivor's slot is re-verified (owner and
// checksum) immediately before copying, and a repair that loses against a
// concurrent Delete/commit leaves at worst one orphan replica owned by the
// (now dead) task — which the ordinary GC sweep reclaims.
class RepairService {
 public:
  explicit RepairService(SpongeEnv* env) : env_(env) {}

  RepairService(const RepairService&) = delete;
  RepairService& operator=(const RepairService&) = delete;

  // Called by the tracker's death listener; enqueues the dead server and
  // starts the drain loop if it is idle. Cheap and non-blocking.
  void NotifyServerDeath(size_t node);

  void Shutdown() { stopping_ = true; }

  // The throughput ceiling the pacing enforces, in bytes/second.
  double budget_bandwidth() const;

  // --- statistics (cross-checked by bench_recovery) ---
  uint64_t repairs_completed() const { return repairs_completed_; }
  uint64_t repair_bytes() const { return repair_bytes_; }
  // Directory entries forgotten because their owner was already dead (GC
  // owns those slots) plus entries that lost every location.
  uint64_t entries_dropped() const { return entries_dropped_; }
  // Entries whose last copy died before repair could run: the failure
  // replication exists to prevent, when it loses the race.
  uint64_t copies_lost() const { return copies_lost_; }
  // Wall (simulated) time the drain loop spent repairing, pacing included;
  // repair_bytes / active_time is the measured repair throughput and is
  // <= budget_bandwidth by construction.
  Duration active_time() const { return active_time_; }
  SimTime last_repair_at() const { return last_repair_at_; }

 private:
  sim::Task<> Drain();
  sim::Task<> RepairNode(size_t dead_node);
  sim::Task<> RepairEntry(uint64_t chunk_id);

  SpongeEnv* env_;
  std::vector<size_t> queue_;
  bool draining_ = false;
  bool stopping_ = false;

  uint64_t repairs_completed_ = 0;
  uint64_t repair_bytes_ = 0;
  uint64_t entries_dropped_ = 0;
  uint64_t copies_lost_ = 0;
  Duration active_time_ = 0;
  SimTime last_repair_at_ = 0;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_REPAIR_H_
