#include "cluster/ssd.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::cluster {

namespace {

obs::Counter* SsdBytesCounter(bool is_write) {
  static obs::Counter* const read =
      obs::Registry::Default().counter("cluster.ssd.bytes", {{"op", "read"}});
  static obs::Counter* const write =
      obs::Registry::Default().counter("cluster.ssd.bytes", {{"op", "write"}});
  return is_write ? write : read;
}

}  // namespace

sim::Task<Status> Ssd::Read(uint64_t bytes) {
  return Access(bytes, /*is_write=*/false);
}

sim::Task<Status> Ssd::Write(uint64_t bytes) {
  return Access(bytes, /*is_write=*/true);
}

bool Ssd::TryReserve(uint64_t bytes) {
  if (bytes > config_.capacity - used_bytes_) return false;
  used_bytes_ += bytes;
  return true;
}

void Ssd::Release(uint64_t bytes) {
  used_bytes_ = bytes > used_bytes_ ? 0 : used_bytes_ - bytes;
}

sim::Task<Status> Ssd::Access(uint64_t bytes, bool is_write) {
  static obs::Counter* const requests_counter =
      obs::Registry::Default().counter("cluster.ssd.requests");
  static obs::Counter* const failed_writes_counter =
      obs::Registry::Default().counter("cluster.ssd.failed_writes");
  static obs::Histogram* const queue_depth_histogram =
      obs::Registry::Default().histogram("cluster.ssd.queue_depth");

  // The span covers channel wait plus service time, like Disk's.
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, node_, 0, "ssd",
                      is_write ? "ssd.write" : "ssd.read");
  span.Arg("bytes", bytes);
  queue_depth_histogram->Record(queue_depth());

  co_await queue_.Acquire();
  ++busy_;
  Duration cost;
  Status result = Status::OK();
  if (is_write && worn_) {
    // Endurance exhausted: the program op fails after its latency (the
    // controller still tries) without moving any data.
    cost = config_.write_latency;
    ++failed_writes_;
    failed_writes_counter->Increment();
    span.Arg("worn", uint64_t{1});
    result = Unavailable("ssd worn out");
  } else if (is_write) {
    cost = config_.write_latency +
           TransferTime(bytes, config_.write_bandwidth);
    ++writes_;
    bytes_written_ += bytes;
    SsdBytesCounter(true)->Increment(bytes);
  } else {
    cost = config_.read_latency + TransferTime(bytes, config_.read_bandwidth);
    ++reads_;
    bytes_read_ += bytes;
    SsdBytesCounter(false)->Increment(bytes);
  }
  if (slowdown_ > 1.0) {
    cost = static_cast<Duration>(static_cast<double>(cost) * slowdown_);
    span.Arg("slowdown", static_cast<uint64_t>(slowdown_));
  }
  requests_counter->Increment();
  busy_time_ += cost;
  co_await engine_->Delay(cost);
  --busy_;
  queue_.Release();
  co_return result;
}

}  // namespace spongefiles::cluster
