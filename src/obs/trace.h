#ifndef SPONGEFILES_OBS_TRACE_H_
#define SPONGEFILES_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace spongefiles::obs {

// The tracing half of the observability subsystem: spans ("X" complete
// events) and instant events stamped with simulated time plus a
// monotonically increasing sequence number, exported as Chrome
// trace_event JSON so a run opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// Conventions (see DESIGN.md "Observability"):
//   pid  = node id (Perfetto renders one process lane per node)
//   tid  = task id (0 for node-level services: disk, sponge server, GC)
//   cat  = layer: "sponge" | "rpc" | "disk" | "net" | "dfs" | "mapred" |
//          "tracker" | "gc"
//   ts   = sim::Engine simulated time (already microseconds, the unit
//          trace_event expects)
// Every event carries args.seq, the global emission sequence number; two
// runs of the same deterministic simulation produce byte-identical files.
//
// Tracing is off by default and every recording call is a cheap
// early-return when disabled, so instrumentation can stay on hot paths.

// One span/instant argument. Numeric args are stored pre-rendered so the
// hot path does no allocation beyond the digits.
struct TraceArg {
  std::string key;
  std::string value;
  bool quoted = true;  // false: emit raw (numbers)

  static TraceArg Str(std::string key, std::string value) {
    return TraceArg{std::move(key), std::move(value), true};
  }
  static TraceArg Num(std::string key, uint64_t value) {
    return TraceArg{std::move(key), std::to_string(value), false};
  }
  static TraceArg Num(std::string key, int64_t value) {
    return TraceArg{std::move(key), std::to_string(value), false};
  }
};

using TraceArgs = std::vector<TraceArg>;

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Drops all recorded events and resets the sequence counter (fresh run).
  void Clear();

  size_t event_count() const { return events_.size(); }

  // A span covering [ts, ts + dur]. Most callers use SpanGuard instead.
  void CompleteEvent(int64_t ts, int64_t dur, uint64_t pid, uint64_t tid,
                     const char* category, std::string name,
                     TraceArgs args = {});

  // A zero-duration point event (spill decisions, GC reclaims).
  void InstantEvent(int64_t ts, uint64_t pid, uint64_t tid,
                    const char* category, std::string name,
                    TraceArgs args = {});

  // {"traceEvents":[...]} — the Chrome trace_event array format.
  std::string ToJson() const;

  Status WriteFile(const std::string& path) const;

  // Returns events matching `name` as (ts, dur) pairs, in emission order
  // (test support; instants have dur 0).
  std::vector<std::pair<int64_t, int64_t>> SpansNamed(
      const std::string& name) const;

  static Tracer& Default();

 private:
  struct Event {
    char phase;  // 'X' or 'i'
    int64_t ts;
    int64_t dur;
    uint64_t pid;
    uint64_t tid;
    const char* category;
    std::string name;
    TraceArgs args;
    uint64_t seq;
  };

  bool enabled_ = false;
  uint64_t next_seq_ = 0;
  std::vector<Event> events_;
};

// RAII span: records the clock at construction and emits a complete event
// at destruction. `Clock` is anything with `int64_t now() const` —
// sim::Engine in this repo (obs deliberately does not depend on sim).
// When the tracer is disabled the guard is inert and costs two branches.
template <typename Clock>
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const Clock* clock, uint64_t pid, uint64_t tid,
            const char* category, std::string name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        clock_(clock),
        pid_(pid),
        tid_(tid),
        category_(category) {
    if (tracer_ != nullptr) {
      name_ = std::move(name);
      start_ = clock_->now();
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  // Attaches an argument to the span (no-op when tracing is disabled).
  void Arg(std::string key, std::string value) {
    if (tracer_ != nullptr) {
      args_.push_back(TraceArg::Str(std::move(key), std::move(value)));
    }
  }
  void Arg(std::string key, uint64_t value) {
    if (tracer_ != nullptr) {
      args_.push_back(TraceArg::Num(std::move(key), value));
    }
  }

  ~SpanGuard() {
    if (tracer_ != nullptr) {
      tracer_->CompleteEvent(start_, clock_->now() - start_, pid_, tid_,
                             category_, std::move(name_), std::move(args_));
    }
  }

 private:
  Tracer* tracer_;
  const Clock* clock_;
  uint64_t pid_;
  uint64_t tid_;
  const char* category_;
  std::string name_;
  int64_t start_ = 0;
  TraceArgs args_;
};

}  // namespace spongefiles::obs

#endif  // SPONGEFILES_OBS_TRACE_H_
