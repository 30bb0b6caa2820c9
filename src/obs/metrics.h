#ifndef SPONGEFILES_OBS_METRICS_H_
#define SPONGEFILES_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace spongefiles::obs {

// The metrics half of the observability subsystem: a process-wide registry
// of named counters, gauges and histograms, each optionally
// qualified by a small set of labels ({medium=remote-memory}, {op=read}).
// Instruments are cheap enough for simulator hot paths — recording is a
// few integer operations on a cached pointer; the string-keyed lookup
// happens once, at instrument-creation time. Snapshots serialize to JSON
// deterministically, sorted by (name, labels), so a snapshot does not
// depend on which call site happened to touch an instrument first.
//
// Naming convention (see DESIGN.md "Observability"):
//   <layer>.<component>.<metric>   e.g. sponge.spill.bytes, cluster.disk.seeks
// with labels for dimensions whose cardinality is small and bounded.

// An ordered list of key=value qualifiers. Order is significant: the same
// pairs in a different order name a different instrument, so call sites
// should use one canonical order.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event/byte counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  friend class Registry;
  uint64_t value_ = 0;
};

// A value that can move both ways (pool occupancy, queue depth). Tracks
// its high-water mark.
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    if (value_ > max_) max_ = value_;
  }
  void Add(int64_t d) {
    value_ += d;
    if (value_ > max_) max_ = value_;
  }
  void Sub(int64_t d) { Add(-d); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }

 private:
  friend class Registry;
  int64_t value_ = 0;
  int64_t max_ = 0;
};

// HDR-style log-linear histogram over non-negative integer samples
// (bytes, microseconds). Values below 2^kLinearBits are recorded exactly;
// above that, each power-of-two range is split into 2^kLinearBits linear
// sub-buckets, bounding the relative error of any reconstructed value by
// 2^-kLinearBits (~1.6%). Memory is a few KB regardless of range.
class Histogram {
 public:
  static constexpr uint32_t kLinearBits = 6;  // 64 sub-buckets per octave

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Approximate quantile (q in [0,1]): the representative value of the
  // bucket containing the q-th sample, clamped to [min, max]. Exact for
  // values < 2^kLinearBits.
  uint64_t Quantile(double q) const;

  // Non-empty (lower_bound, count) pairs in increasing value order.
  std::vector<std::pair<uint64_t, uint64_t>> NonEmptyBuckets() const;

  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(uint32_t index);

 private:
  friend class Registry;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Owns every instrument. Lookup by (name, labels) returns a stable pointer
// valid for the registry's lifetime; repeated lookups return the same
// instrument. Requesting an existing name with a different instrument kind
// is a programming error and aborts.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name, const Labels& labels = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {});
  Histogram* histogram(std::string_view name, const Labels& labels = {});

  size_t size() const { return entries_.size(); }

  // Distinct label sets registered under `name` (cardinality audits).
  size_t CardinalityOf(std::string_view name) const;

  // Zeroes every instrument's value but keeps the instruments themselves,
  // so pointers cached by instrumentation sites stay valid across runs.
  void ResetValues();

  // Deterministic JSON snapshot, instruments sorted by (name, labels):
  // {"counters":[{"name":...,"labels":{...},"value":N}, ...],
  //  "gauges":[...], "histograms":[...]}
  std::string ToJson() const;

  Status WriteJsonFile(const std::string& path) const;

  // The process-wide registry the instrumentation in src/{cluster,sponge,
  // mapred} records into.
  static Registry& Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels, Kind kind);

  std::vector<std::unique_ptr<Entry>> entries_;  // creation order
  std::unordered_map<std::string, Entry*> index_;  // key: name + labels
};

}  // namespace spongefiles::obs

#endif  // SPONGEFILES_OBS_METRICS_H_
