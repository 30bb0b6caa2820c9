#ifndef SPONGEFILES_CLUSTER_DISK_H_
#define SPONGEFILES_CLUSTER_DISK_H_

#include <coroutine>
#include <cstdint>

#include "common/units.h"
#include "obs/trace.h"
#include "sim/engine.h"
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
//
// A request is an awaiter that lives in the awaiting coroutine's frame and
// queues in place, so a request allocates nothing. One service coroutine
// per disk, resumed by engine events, completes the request in service,
// hands the head to the first queued request through a same-instant event
// (no barging: a request arriving meanwhile queues behind it) and resumes
// the completed request's caller directly. Service time is computed when a
// request enters service, never at arrival.
class Disk {
 public:
  // One request, awaited in place: `co_await disk.Read(...)`.
  class [[nodiscard]] Request {
   public:
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() const {}

   private:
    friend class Disk;
    Request(Disk* disk, uint64_t stream, uint64_t offset, uint64_t bytes,
            bool is_write);

    Disk* disk_;
    uint64_t stream_;
    uint64_t offset_;
    uint64_t bytes_;
    bool is_write_;
    std::coroutine_handle<> caller_;
    Request* next_ = nullptr;  // FIFO link while queued
    // Covers queue wait plus service time, making disk queueing contention
    // directly visible in traces. It ends when the caller's co_await
    // expression does, the instant the request completes.
    obs::SpanGuard<sim::Engine> span_;
  };

  // `node` is the owning node's id, used only to label trace spans.
  Disk(sim::Engine* engine, const DiskConfig& config, size_t node = 0);
  ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Performs one request: waits for the head, seeks if needed, transfers.
  // `stream` identifies the file; `offset` is the position within it.
  Request Access(uint64_t stream, uint64_t offset, uint64_t bytes,
                 bool is_write) {
    return Request(this, stream, offset, bytes, is_write);
  }
  Request Read(uint64_t stream, uint64_t offset, uint64_t bytes) {
    return Access(stream, offset, bytes, /*is_write=*/false);
  }
  Request Write(uint64_t stream, uint64_t offset, uint64_t bytes) {
    return Access(stream, offset, bytes, /*is_write=*/true);
  }

  // Pending + in-service request count (for load-aware callers and tests).
  // A request handed the head but not yet in service counts in neither.
  size_t queue_depth() const { return waiting_ + busy_; }

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
  // Admits an arriving request: starts it when the head is free, else
  // queues it behind the waiting ones.
  void Arrive(Request* request);
  // Puts serving_ into service and schedules its completion.
  void StartService();
  // The service coroutine; see the class comment.
  sim::Task<> Serve();

  sim::Engine* engine_;
  DiskConfig config_;
  size_t node_;
  double slowdown_ = 1.0;
  std::coroutine_handle<> serve_;

  // The request in service, or handed the head and about to enter it;
  // null when the disk is idle (and then nothing waits).
  Request* serving_ = nullptr;
  Request* waiting_head_ = nullptr;
  Request* waiting_tail_ = nullptr;
  size_t waiting_ = 0;

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
