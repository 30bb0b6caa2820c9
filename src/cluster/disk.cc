#include "cluster/disk.h"

#include "obs/metrics.h"

namespace spongefiles::cluster {

namespace {

struct DiskCounters {
  obs::Counter* requests;
  obs::Counter* seeks;
  obs::Counter* read_bytes;
  obs::Counter* write_bytes;
  obs::Histogram* queue_depth;
};

const DiskCounters& Counters() {
  static const DiskCounters counters = {
      obs::Registry::Default().counter("cluster.disk.requests"),
      obs::Registry::Default().counter("cluster.disk.seeks"),
      obs::Registry::Default().counter("cluster.disk.bytes",
                                       {{"op", "read"}}),
      obs::Registry::Default().counter("cluster.disk.bytes",
                                       {{"op", "write"}}),
      obs::Registry::Default().histogram("cluster.disk.queue_depth"),
  };
  return counters;
}

// Suspends the service coroutine and continues in `caller` without an
// engine event (symmetric transfer).
struct ResumeCaller {
  std::coroutine_handle<> caller;
  bool await_ready() const { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<>) const {
    return caller;
  }
  void await_resume() const {}
};

}  // namespace

Disk::Request::Request(Disk* disk, uint64_t stream, uint64_t offset,
                       uint64_t bytes, bool is_write)
    : disk_(disk),
      stream_(stream),
      offset_(offset),
      bytes_(bytes),
      is_write_(is_write),
      span_(&obs::Tracer::Default(), disk->engine_, disk->node_, 0, "disk",
            is_write ? "disk.write" : "disk.read") {
  span_.Arg("bytes", bytes);
}

void Disk::Request::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  disk_->Arrive(this);
}

Disk::Disk(sim::Engine* engine, const DiskConfig& config, size_t node)
    : engine_(engine), config_(config), node_(node) {
  serve_ = Serve().Release();
}

Disk::~Disk() { serve_.destroy(); }

void Disk::Arrive(Request* request) {
  Counters().queue_depth->Record(queue_depth());
  if (serving_ == nullptr) {
    serving_ = request;
    StartService();
    return;
  }
  if (waiting_tail_ != nullptr) {
    waiting_tail_->next_ = request;
  } else {
    waiting_head_ = request;
  }
  waiting_tail_ = request;
  ++waiting_;
}

void Disk::StartService() {
  const DiskCounters& counters = Counters();
  Request& request = *serving_;
  ++busy_;
  Duration cost = 0;
  if (request.stream_ != last_stream_ || request.offset_ != next_offset_) {
    cost += config_.avg_seek + config_.avg_rotation;
    ++seeks_;
    counters.seeks->Increment();
    request.span_.Arg("seek", uint64_t{1});
  }
  cost += TransferTime(request.bytes_, config_.sequential_bandwidth);
  if (slowdown_ > 1.0) {
    cost = static_cast<Duration>(static_cast<double>(cost) * slowdown_);
    request.span_.Arg("slowdown", static_cast<uint64_t>(slowdown_));
  }
  ++requests_;
  counters.requests->Increment();
  if (request.is_write_) {
    counters.write_bytes->Increment(request.bytes_);
    bytes_written_ += request.bytes_;
  } else {
    counters.read_bytes->Increment(request.bytes_);
    bytes_read_ += request.bytes_;
  }
  busy_time_ += cost;
  last_stream_ = request.stream_;
  next_offset_ = request.offset_ + request.bytes_;
  engine_->ScheduleHandle(engine_->now() + cost, serve_);
}

sim::Task<> Disk::Serve() {
  for (;;) {
    // Every resumption is an engine event: the hand-off to serving_ while
    // nothing is in service, else serving_'s completion.
    if (busy_ == 0) {
      StartService();
      co_await std::suspend_always{};
      continue;
    }
    Request* done = serving_;
    --busy_;
    serving_ = waiting_head_;
    if (serving_ != nullptr) {
      waiting_head_ = serving_->next_;
      if (waiting_head_ == nullptr) waiting_tail_ = nullptr;
      --waiting_;
      engine_->ScheduleHandle(engine_->now(), serve_);
    }
    co_await ResumeCaller{done->caller_};
  }
}

}  // namespace spongefiles::cluster
