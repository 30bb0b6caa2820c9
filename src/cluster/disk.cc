#include "cluster/disk.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::cluster {

namespace {

obs::Counter* DiskBytesCounter(bool is_write) {
  static obs::Counter* const read = obs::Registry::Default().counter(
      "cluster.disk.bytes", {{"op", "read"}});
  static obs::Counter* const write = obs::Registry::Default().counter(
      "cluster.disk.bytes", {{"op", "write"}});
  return is_write ? write : read;
}

}  // namespace

sim::Task<> Disk::Access(uint64_t stream, uint64_t offset, uint64_t bytes,
                         bool is_write) {
  static obs::Counter* const requests_counter =
      obs::Registry::Default().counter("cluster.disk.requests");
  static obs::Counter* const seeks_counter =
      obs::Registry::Default().counter("cluster.disk.seeks");
  static obs::Histogram* const queue_depth_histogram =
      obs::Registry::Default().histogram("cluster.disk.queue_depth");

  // The span covers queue wait plus service time, making disk queueing
  // contention directly visible in traces.
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_, 0, "disk",
                      is_write ? "disk.write" : "disk.read");
  span.Arg("bytes", bytes);
  queue_depth_histogram->Record(queue_depth());

  co_await queue_.Acquire();
  ++busy_;
  Duration cost = 0;
  if (stream != last_stream_ || offset != next_offset_) {
    cost += config_.avg_seek + config_.avg_rotation;
    ++seeks_;
    seeks_counter->Increment();
    span.Arg("seek", uint64_t{1});
  }
  cost += TransferTime(bytes, config_.sequential_bandwidth);
  if (slowdown_ > 1.0) {
    cost = static_cast<Duration>(static_cast<double>(cost) * slowdown_);
    span.Arg("slowdown", static_cast<uint64_t>(slowdown_));
  }
  ++requests_;
  requests_counter->Increment();
  DiskBytesCounter(is_write)->Increment(bytes);
  if (is_write) {
    bytes_written_ += bytes;
  } else {
    bytes_read_ += bytes;
  }
  busy_time_ += cost;
  last_stream_ = stream;
  next_offset_ = offset + bytes;
  co_await engine_->Delay(cost);
  --busy_;
  queue_.Release();
}

}  // namespace spongefiles::cluster
