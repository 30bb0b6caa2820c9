#include "pig/udfs.h"

#include <algorithm>
#include <limits>
#include <list>
#include <unordered_map>

namespace spongefiles::pig {

namespace {

// Space-saving heavy-hitter sketch (Metwally et al.) with the stream-
// summary structure: buckets of equal counts kept in ascending order, so
// increments and minimum-eviction are both O(1).
class SpaceSaving {
 public:
  explicit SpaceSaving(size_t capacity) : capacity_(capacity) {}

  void Add(const std::string& item) {
    auto it = entries_.find(item);
    if (it != entries_.end()) {
      Increment(it);
      return;
    }
    if (entries_.size() < capacity_) {
      // Fresh entry with count 1: lives in the first bucket.
      if (buckets_.empty() || buckets_.front().count != 1) {
        buckets_.push_front(Bucket{1, {}});
      }
      buckets_.front().terms.push_front(item);
      entries_[item] = {buckets_.begin(), buckets_.front().terms.begin()};
      return;
    }
    // Evict any entry from the minimum bucket; the newcomer inherits its
    // count (the classic overestimation floor) plus one.
    auto min_bucket = buckets_.begin();
    std::string victim = min_bucket->terms.front();
    auto victim_entry = entries_.find(victim);
    // Rename the victim's slot to the new item, then increment it.
    *victim_entry->second.term_it = item;
    entries_[item] = victim_entry->second;
    entries_.erase(victim_entry);
    Increment(entries_.find(item));
  }

  std::vector<std::string> Candidates() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    // lint: iter-ok(hash-order list is sorted immediately below)
    for (const auto& [item, entry] : entries_) out.push_back(item);
    // The sketch map is unordered; sort so downstream passes never see
    // hash order.
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Bucket {
    uint64_t count;
    std::list<std::string> terms;
  };
  struct Entry {
    std::list<Bucket>::iterator bucket_it;
    std::list<std::string>::iterator term_it;
  };

  void Increment(std::unordered_map<std::string, Entry>::iterator it) {
    Entry& entry = it->second;
    auto bucket = entry.bucket_it;
    uint64_t next_count = bucket->count + 1;
    auto next = std::next(bucket);
    if (next == buckets_.end() || next->count != next_count) {
      next = buckets_.insert(next, Bucket{next_count, {}});
    }
    next->terms.splice(next->terms.begin(), bucket->terms, entry.term_it);
    entry.bucket_it = next;
    entry.term_it = next->terms.begin();
    if (bucket->terms.empty()) buckets_.erase(bucket);
  }

  size_t capacity_;
  std::list<Bucket> buckets_;  // ascending by count
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace

sim::Task<Status> TopKUdf::Apply(std::string group, DataBag* bag,
                                 mapred::ReduceContext* ctx) {
  // Pass 1: sketch the candidate heavy hitters (re-spill: pass 2 follows).
  SpaceSaving sketch(kSketchCapacity);
  CO_RETURN_IF_ERROR(co_await bag->ForEach(
      [&](const Tuple& tuple) {
        for (const std::string& term : tuple.fields) sketch.Add(term);
        return Status::OK();
      },
      /*respill=*/true));

  // Pass 2: exact counts for the candidates only.
  std::vector<std::string> candidates = sketch.Candidates();
  std::unordered_map<std::string, uint64_t> exact;
  exact.reserve(candidates.size());
  for (const std::string& c : candidates) exact[c] = 0;
  CO_RETURN_IF_ERROR(co_await bag->ForEach(
      [&](const Tuple& tuple) {
        for (const std::string& term : tuple.fields) {
          auto it = exact.find(term);
          if (it != exact.end()) ++it->second;
        }
        return Status::OK();
      },
      /*respill=*/false));

  std::vector<std::pair<uint64_t, std::string>> ranked;
  ranked.reserve(exact.size());
  // lint: iter-ok(ranked is fully sorted by a total order before any output)
  for (auto& [term, count] : exact) ranked.push_back({count, term});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t i = 0; i < std::min(k_, ranked.size()); ++i) {
    mapred::Record out;
    out.key = group;
    out.fields = {ranked[i].second};
    out.number = static_cast<double>(ranked[i].first);
    ctx->output->push_back(std::move(out));
  }
  co_return Status::OK();
}

sim::Task<Status> SpamQuantilesUdf::Apply(std::string group,
                                          DataBag* bag,
                                          mapred::ReduceContext* ctx) {
  const uint64_t n = bag->count();
  if (n == 0) co_return Status::OK();
  // Target positions, in ascending order (kQuantiles is ascending).
  std::array<uint64_t, kQuantiles.size()> positions;
  for (size_t i = 0; i < kQuantiles.size(); ++i) {
    positions[i] =
        static_cast<uint64_t>(kQuantiles[i] * static_cast<double>(n - 1));
  }
  size_t next = 0;
  uint64_t index = 0;
  std::array<double, kQuantiles.size()> values{};
  CO_RETURN_IF_ERROR(co_await bag->SortedForEach(
      [](const Tuple& a, const Tuple& b) { return a.number < b.number; },
      [&](const Tuple& tuple) {
        while (next < positions.size() && positions[next] == index) {
          values[next] = tuple.number;
          ++next;
        }
        ++index;
        return Status::OK();
      }));
  for (size_t i = 0; i < kQuantiles.size(); ++i) {
    mapred::Record out;
    out.key = group;
    out.number = values[i];
    out.fields = {"q" + std::to_string(static_cast<int>(
                            kQuantiles[i] * 100))};
    ctx->output->push_back(std::move(out));
  }
  co_return Status::OK();
}

sim::Task<Status> PigReducer::Start(mapred::ReduceContext* ctx) {
  ctx_ = ctx;
  manager_ = std::make_unique<MemoryManager>(static_cast<uint64_t>(
      kBagMemoryFraction * static_cast<double>(ctx->heap_bytes)));
  co_return Status::OK();
}

sim::Task<Status> PigReducer::StartKey(std::string key) {
  group_ = key;
  bag_ = std::make_unique<DataBag>(manager_.get(), ctx_->spiller, ctx_->cpu,
                                   "group." + key,
                                   /*spill_chunk_bytes=*/10ull * 1024 * 1024,
                                   kPerTupleCpu);
  co_return Status::OK();
}

bool PigReducer::AddValue(mapred::Record value) {
  return bag_->Push(std::move(value));
}

sim::Task<Status> PigReducer::Spill() { return manager_->MaybeSpill(); }

sim::Task<Status> PigReducer::FinishKey() {
  std::unique_ptr<Udf> udf = udf_factory_();
  Status applied = co_await udf->Apply(group_, bag_.get(), ctx_);
  co_await bag_->Destroy();
  bag_.reset();
  co_return applied;
}

}  // namespace spongefiles::pig
