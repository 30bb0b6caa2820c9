#ifndef SPONGEFILES_MAPRED_MAP_TASK_H_
#define SPONGEFILES_MAPRED_MAP_TASK_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/dfs.h"
#include "mapred/job.h"
#include "mapred/merger.h"
#include "mapred/spill.h"
#include "mapred/task_attempt.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// The sorted, partitioned output of one completed map task, left on the
// map node's local disk for reduce tasks to fetch (stock Hadoop behaviour;
// the paper's modification is on the reduce side).
struct MapOutput {
  size_t node = 0;
  // One sorted run per reduce partition; null when the partition is empty.
  std::vector<std::unique_ptr<DiskSpillFile>> partitions;
  std::vector<uint64_t> partition_records;
  // Keeps the spill-stats storage the partition files point into alive.
  std::unique_ptr<DiskSpiller> spiller;
};

// Everything one successful map attempt produces; the attempt's driver
// moves it into the logical task's slot when the attempt commits.
struct MapAttemptResult {
  MapOutput output;
  TaskStats stats;
};

// Runs one map attempt: streams the split from the DFS, applies the map
// function, sorts output in the io.sort.mb buffer (spilling full buffers
// to local disk, section 2.1.2), and merges the spills into the final
// partitioned output. The attempt supplies identity (spill-file prefixes
// are attempt-unique, so concurrent attempts never collide), the kill
// flag checked at operation boundaries, and the progress counters the
// speculation monitor reads.
class MapTask {
 public:
  MapTask(sponge::SpongeEnv* env, cluster::Dfs* dfs, const JobConfig* config,
          const InputSplit* split, TaskAttempt* attempt);

  sim::Task<Result<MapAttemptResult>> Run();

 private:
  size_t PartitionOf(const Record& record) const;

  // Sorts the buffer by (partition, key) and spills one sorted run per
  // non-empty partition to local disk.
  sim::Task<Status> SortAndSpill();

  // Writes `source` into a new local-disk run named `name`.
  sim::Task<Result<std::unique_ptr<DiskSpillFile>>> WriteDiskRun(
      std::string name, RecordSource* source);

  sponge::SpongeEnv* env_;
  cluster::Dfs* dfs_;
  const JobConfig* config_;
  const InputSplit* split_;
  TaskAttempt* attempt_;
  size_t node_;

  // Sort buffer: records per partition plus total logical bytes.
  std::vector<std::vector<Record>> buffer_;
  uint64_t buffer_bytes_ = 0;

  // Spilled sorted runs, per partition, across spills.
  std::vector<std::vector<std::unique_ptr<DiskSpillFile>>> spilled_;
  std::vector<uint64_t> partition_records_;
  std::unique_ptr<DiskSpiller> spiller_;
  int spill_count_ = 0;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_MAP_TASK_H_
