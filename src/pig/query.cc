#include "pig/query.h"

#include <string>
#include <utility>

namespace spongefiles::pig {

mapred::JobConfig Compile(const GroupByQuery& query) {
  mapred::JobConfig config;
  config.name = query.name;
  config.input = query.input;
  config.num_reducers = query.num_reducers;
  config.spill_mode = query.spill_mode;

  auto group_key = query.group_key;
  auto project = query.project;
  config.map_fn = [group_key, project](mapred::Record in,
                                       std::vector<mapred::Record>* out) {
    // The key first: without a projection the row itself becomes the
    // tuple.
    std::string key = group_key(in);
    mapred::Record tuple = project ? project(in) : std::move(in);
    tuple.key = std::move(key);
    out->push_back(std::move(tuple));
  };

  auto udf_factory = query.udf_factory;
  config.reducer_factory = [udf_factory]() -> std::unique_ptr<mapred::Reducer> {
    return std::make_unique<PigReducer>(udf_factory);
  };
  return config;
}

}  // namespace spongefiles::pig
