#ifndef SPONGEFILES_MAPRED_REDUCE_TASK_H_
#define SPONGEFILES_MAPRED_REDUCE_TASK_H_

#include <memory>
#include <vector>

#include "mapred/job.h"
#include "mapred/map_task.h"
#include "mapred/merger.h"
#include "mapred/task_attempt.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// Everything one successful reduce attempt produces.
struct ReduceAttemptResult {
  std::vector<Record> output;
  TaskStats stats;
};

// Runs one reduce attempt (section 2.1.2 semantics):
//   1. shuffle: fetch this partition from every map output; segments live
//      in the in-memory buffer (shuffle_buffer_fraction of the heap) and
//      overflow is merged and spilled through the task's spiller;
//   2. with reduce_retain_fraction = 0, the remaining in-memory segments
//      are spilled too;
//   3. while more than merge_factor segments remain, the smallest
//      merge_factor are k-way merged into a new spilled run (multi-round
//      merging exists to bound concurrent disk streams; SpongeFile
//      spilling reports an unbounded factor, so this loop never runs and
//      the merge happens in a single round);
//   4. the final merge streams key groups into the Reducer.
class ReduceTask {
 public:
  ReduceTask(sponge::SpongeEnv* env, const JobConfig* config,
             std::vector<MapOutput>* map_outputs, size_t partition,
             TaskAttempt* attempt);

  sim::Task<Result<ReduceAttemptResult>> Run();

 private:
  // Fetches one map output's partition into a fresh in-memory segment
  // through an independent read cursor (concurrent attempts of this
  // partition shuffle the same map-side files), spilling the buffer first
  // if it would overflow.
  sim::Task<Status> FetchSegment(MapOutput* output);

  // Merges all in-memory segments into one spilled run.
  sim::Task<Status> SpillMemorySegments();

  sim::Task<Status> IntermediateMergeRounds();

  sim::Task<Status> DriveReducer(RecordSource* stream,
                                 std::vector<Record>* job_output,
                                 TaskStats* stats);

  std::unique_ptr<Spiller> MakeSpiller();

  // This task's JVM heap (per-job override or the node's slot default).
  uint64_t ReduceHeap() const;

  sponge::SpongeEnv* env_;
  const JobConfig* config_;
  std::vector<MapOutput>* map_outputs_;
  size_t partition_;
  TaskAttempt* attempt_;
  size_t node_;

  std::unique_ptr<Spiller> spiller_;
  std::unique_ptr<Reducer> reducer_;

  std::vector<std::unique_ptr<SpillFile>> memory_segments_;
  uint64_t memory_bytes_ = 0;
  std::vector<std::unique_ptr<SpillFile>> spilled_segments_;
  int next_run_ = 0;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_REDUCE_TASK_H_
