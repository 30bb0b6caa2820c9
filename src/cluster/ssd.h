#ifndef SPONGEFILES_CLUSTER_SSD_H_
#define SPONGEFILES_CLUSTER_SSD_H_

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// Local-SSD timing model: a flash device with per-request latency, a
// bandwidth far above the spinning disk, internal channel parallelism
// (no head to contend for — concurrent streams do NOT collapse into
// random IO the way Disk does), and a bounded capacity. It is the middle
// rung the spill cascade inserts between remote memory and local disk
// (DESIGN.md §14): slower than a network round-trip to a rack peer's
// memory, an order of magnitude faster than the seek-bound spindle.
struct SsdConfig {
  // Usable capacity reserved for spill chunks. 0 = the node has no SSD
  // (the default — every existing topology is unchanged until a bench or
  // experiment opts in with --ssd-gb).
  uint64_t capacity = 0;
  // Per-request flash translation + controller latency.
  Duration read_latency = Micros(80);
  Duration write_latency = Micros(25);
  // Transfer rates in bytes/second (reads faster than writes, as for
  // real NAND: program ops are slower than page reads).
  double read_bandwidth = 2.0 * 1024 * 1024 * 1024;
  double write_bandwidth = 1.0 * 1024 * 1024 * 1024;
  // Internal parallelism: requests served concurrently before queueing.
  int channels = 4;
};

// A node's local SSD serving requests over `channels` lanes. Capacity is
// tracked by reservation (TryReserve/Release) so the cascade can gate on
// space before paying the write. Gray failures: SetSlowdown stretches
// service times (thermal throttling, a congested controller); SetWorn
// models exhausted program/erase endurance — writes fail UNAVAILABLE
// after paying their latency, while reads of already-stored data still
// succeed, so a worn device drains gracefully as the cascade falls
// through to disk.
class Ssd {
 public:
  // `node` is the owning node's id, used only to label trace spans.
  Ssd(sim::Engine* engine, const SsdConfig& config, size_t node = 0)
      : engine_(engine),
        config_(config),
        node_(node),
        queue_(engine, config.channels < 1 ? 1 : config.channels) {}

  Ssd(const Ssd&) = delete;
  Ssd& operator=(const Ssd&) = delete;

  sim::Task<Status> Read(uint64_t bytes);
  sim::Task<Status> Write(uint64_t bytes);

  // Capacity accounting. TryReserve claims space for a chunk about to be
  // written (false when it doesn't fit); Release returns it on delete.
  bool TryReserve(uint64_t bytes);
  void Release(uint64_t bytes);

  bool present() const { return config_.capacity > 0; }
  uint64_t capacity() const { return config_.capacity; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t free_bytes() const { return config_.capacity - used_bytes_; }

  size_t node() const { return node_; }
  size_t queue_depth() const { return queue_.waiters() + busy_; }

  // Gray-failure injection (chaos kSsdSlowdown / kSsdWear).
  void SetSlowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }
  double slowdown() const { return slowdown_; }
  void SetWorn(bool worn) { worn_ = worn; }
  bool worn() const { return worn_; }

  // --- statistics ---
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t failed_writes() const { return failed_writes_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  Duration busy_time() const { return busy_time_; }

 private:
  sim::Task<Status> Access(uint64_t bytes, bool is_write);

  sim::Engine* engine_;
  SsdConfig config_;
  size_t node_;
  sim::Semaphore queue_;
  double slowdown_ = 1.0;
  bool worn_ = false;

  uint64_t used_bytes_ = 0;
  int busy_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t failed_writes_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_SSD_H_
