#ifndef SPONGEFILES_CLUSTER_DISK_H_
#define SPONGEFILES_CLUSTER_DISK_H_

#include <cstdint>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// Mechanical-disk timing model (one spindle, one head). Matches the paper's
// testbed: 7200 RPM SATA drives whose throughput collapses under concurrent
// streams because every stream switch costs a seek.
struct DiskConfig {
  // Average seek (arm movement) plus controller overhead.
  Duration avg_seek = Micros(8000);
  // Average rotational delay: half a revolution at 7200 RPM is ~4.17 ms.
  Duration avg_rotation = Micros(4170);
  // Sequential transfer rate in bytes/second.
  double sequential_bandwidth = 62.0 * 1024 * 1024;
};

// A single disk serving requests FIFO. A request on the same stream at the
// next sequential offset continues without a seek; anything else pays
// seek + rotation. Contention between streams therefore degrades the disk
// into random IO, which is the effect Table 1 and Figures 4-6 hinge on.
class Disk {
 public:
  // `node` is the owning node's id, used only to label trace spans.
  Disk(sim::Engine* engine, const DiskConfig& config, size_t node = 0)
      : engine_(engine), config_(config), node_(node), queue_(engine, 1) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Performs one request: waits for the head, seeks if needed, transfers.
  // `stream` identifies the file; `offset` is the position within it.
  sim::Task<> Access(uint64_t stream, uint64_t offset, uint64_t bytes,
                     bool is_write);

  sim::Task<> Read(uint64_t stream, uint64_t offset, uint64_t bytes) {
    return Access(stream, offset, bytes, /*is_write=*/false);
  }
  sim::Task<> Write(uint64_t stream, uint64_t offset, uint64_t bytes) {
    return Access(stream, offset, bytes, /*is_write=*/true);
  }

  // Pending + in-service request count (for load-aware callers and tests).
  size_t queue_depth() const { return queue_.waiters() + busy_; }

  // Owning node id (labels trace spans).
  size_t node() const { return node_; }

  // Gray-failure injection: multiplies every request's service time
  // (seek + rotation + transfer) by `factor` >= 1 — a sick spindle,
  // firmware-level retries, or a congested controller. 1.0 restores
  // nominal speed. Takes effect for requests entering service afterwards.
  void SetSlowdown(double factor) {
    slowdown_ = factor < 1.0 ? 1.0 : factor;
  }
  double slowdown() const { return slowdown_; }

  // --- statistics ---
  uint64_t seeks() const { return seeks_; }
  uint64_t requests() const { return requests_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  Duration busy_time() const { return busy_time_; }

 private:
  sim::Engine* engine_;
  DiskConfig config_;
  size_t node_;
  sim::Semaphore queue_;
  double slowdown_ = 1.0;

  // Head position: the stream and offset a request can continue without
  // seeking from.
  uint64_t last_stream_ = ~0ull;
  uint64_t next_offset_ = 0;

  int busy_ = 0;
  uint64_t seeks_ = 0;
  uint64_t requests_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_DISK_H_
