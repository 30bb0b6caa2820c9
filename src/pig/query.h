#ifndef SPONGEFILES_PIG_QUERY_H_
#define SPONGEFILES_PIG_QUERY_H_

#include <functional>
#include <memory>
#include <string>

#include "mapred/job.h"
#include "pig/udfs.h"

namespace spongefiles::pig {

// A Pig-Latin "GROUP input BY key; FOREACH group GENERATE Udf(bag)" query,
// compiled into one MapReduce job: the map phase extracts the group key
// (optionally projecting each tuple down to the needed columns — the spam
// quantiles query deliberately skips this step), the reduce phase feeds
// each group's bag to the UDF.
struct GroupByQuery {
  std::string name = "pig-query";
  mapred::InputFormat* input = nullptr;
  std::function<std::string(const mapred::Record&)> group_key;
  // Null: no projection (full tuples shuffle and fill the bags).
  std::function<mapred::Record(const mapred::Record&)> project;
  std::function<std::unique_ptr<Udf>()> udf_factory;
  mapred::SpillMode spill_mode = mapred::SpillMode::kDisk;
  int num_reducers = 1;
};

// Translates the query to a MapReduce job config (the Pig-to-Hadoop
// compilation step of section 2.1.1).
mapred::JobConfig Compile(const GroupByQuery& query);

}  // namespace spongefiles::pig

#endif  // SPONGEFILES_PIG_QUERY_H_
