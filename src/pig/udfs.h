#ifndef SPONGEFILES_PIG_UDFS_H_
#define SPONGEFILES_PIG_UDFS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapred/job.h"
#include "pig/data_bag.h"
#include "pig/memory_manager.h"

namespace spongefiles::pig {

// A holistic user-defined function applied to one group's bag in the
// reduce phase. UDFs may take multiple passes over the bag (each pass over
// spilled data re-spills it, since spill files are read-once).
class Udf {
 public:
  virtual ~Udf() = default;

  virtual sim::Task<Status> Apply(std::string group, DataBag* bag,
                                  mapred::ReduceContext* ctx) = 0;
};

// The paper's Frequent Anchortext UDF: the k most frequent anchortext
// terms per group. Two passes: a space-saving sketch proposes candidate
// heavy hitters, then an exact counting pass over the candidates picks the
// true top k. Terms are the tuple's `fields`.
// Emits one record per top term: key=group, fields={term}, number=count.
class TopKUdf : public Udf {
 public:
  // Entries the space-saving sketch tracks in pass 1.
  static constexpr size_t kSketchCapacity = 4096;

  explicit TopKUdf(size_t k) : k_(k) {}

  sim::Task<Status> Apply(std::string group, DataBag* bag,
                          mapred::ReduceContext* ctx) override;

 private:
  size_t k_;
};

// The paper's Spam Quantiles UDF: orders the group's tuples by spam score
// (the `number` column) via the bag's external sort and reports the
// quantiles below. Deliberately holds full, unprojected tuples — the
// hastily-written-UDF pattern section 4.2.1 describes.
// Emits one record per quantile: key=group, number=score,
// fields={"q<percent>"}.
class SpamQuantilesUdf : public Udf {
 public:
  // Reported quantiles, ascending: min, quartiles, max.
  static constexpr std::array<double, 5> kQuantiles = {0.0, 0.25, 0.5, 0.75,
                                                       1.0};

  sim::Task<Status> Apply(std::string group, DataBag* bag,
                          mapred::ReduceContext* ctx) override;
};

// The generic Pig reduce-side runner: one spillable bag per group, then
// the UDF. This is what a Pig GROUP BY ... FOREACH ... compiles to.
class PigReducer : public mapred::Reducer {
 public:
  // Share of the reduce heap the bags' memory manager may fill.
  static constexpr double kBagMemoryFraction = 0.3;
  // The UDF's processing cost per tuple per pass; Pig's interpreted
  // pipeline typically burns on the order of 100 us per tuple.
  static constexpr Duration kPerTupleCpu = Micros(120);

  explicit PigReducer(std::function<std::unique_ptr<Udf>()> udf_factory)
      : udf_factory_(std::move(udf_factory)) {}

  sim::Task<Status> Start(mapred::ReduceContext* ctx) override;
  sim::Task<Status> StartKey(std::string key) override;
  bool AddValue(mapred::Record value) override;
  sim::Task<Status> Spill() override;
  sim::Task<Status> FinishKey() override;

 private:
  std::function<std::unique_ptr<Udf>()> udf_factory_;
  std::unique_ptr<MemoryManager> manager_;
  std::unique_ptr<DataBag> bag_;
  std::string group_;
};

}  // namespace spongefiles::pig

#endif  // SPONGEFILES_PIG_UDFS_H_
