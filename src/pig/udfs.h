#ifndef SPONGEFILES_PIG_UDFS_H_
#define SPONGEFILES_PIG_UDFS_H_

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
  explicit TopKUdf(size_t k, size_t sketch_capacity = 4096)
      : k_(k), sketch_capacity_(sketch_capacity) {}

  sim::Task<Status> Apply(std::string group, DataBag* bag,
                          mapred::ReduceContext* ctx) override;

 private:
  size_t k_;
  size_t sketch_capacity_;
};

// The paper's Spam Quantiles UDF: orders the group's tuples by spam score
// (the `number` column) via the bag's external sort and reports the
// requested quantiles. Deliberately holds full, unprojected tuples — the
// hastily-written-UDF pattern section 4.2.1 describes.
// Emits one record per quantile: key=group, number=score,
// fields={"q<percent>"}.
class SpamQuantilesUdf : public Udf {
 public:
  explicit SpamQuantilesUdf(std::vector<double> quantiles = {0.0, 0.25, 0.5,
                                                             0.75, 1.0})
      : quantiles_(std::move(quantiles)) {}

  sim::Task<Status> Apply(std::string group, DataBag* bag,
                          mapred::ReduceContext* ctx) override;

 private:
  std::vector<double> quantiles_;
};

// The median MapReduce job's reducer: a single reduce task receives every
// number (one key), accumulates them in a spillable bag, and finds the
// exact median via sorted traversal. Emits key="median", number=value.
class MedianReducer : public mapred::Reducer {
 public:
  sim::Task<Status> Start(mapred::ReduceContext* ctx) override;
  sim::Task<Status> StartKey(std::string key) override;
  bool AddValue(mapred::Record value) override;
  sim::Task<Status> Spill() override;
  sim::Task<Status> FinishKey() override;

 private:
  std::unique_ptr<MemoryManager> manager_;
  std::unique_ptr<DataBag> bag_;
};

// The generic Pig reduce-side runner: one spillable bag per group, then
// the UDF. This is what a Pig GROUP BY ... FOREACH ... compiles to.
// `per_tuple_cpu` is the UDF's processing cost per tuple per pass; Pig's
// interpreted pipeline typically burns on the order of 100 us per tuple.
class PigReducer : public mapred::Reducer {
 public:
  explicit PigReducer(std::function<std::unique_ptr<Udf>()> udf_factory,
                      double bag_memory_fraction = 0.3,
                      Duration per_tuple_cpu = Micros(120))
      : udf_factory_(std::move(udf_factory)),
        bag_memory_fraction_(bag_memory_fraction),
        per_tuple_cpu_(per_tuple_cpu) {}

  sim::Task<Status> Start(mapred::ReduceContext* ctx) override;
  sim::Task<Status> StartKey(std::string key) override;
  bool AddValue(mapred::Record value) override;
  sim::Task<Status> Spill() override;
  sim::Task<Status> FinishKey() override;

 private:
  std::function<std::unique_ptr<Udf>()> udf_factory_;
  double bag_memory_fraction_;
  Duration per_tuple_cpu_;
  std::unique_ptr<MemoryManager> manager_;
  std::unique_ptr<DataBag> bag_;
  std::string group_;
};

}  // namespace spongefiles::pig

#endif  // SPONGEFILES_PIG_UDFS_H_
