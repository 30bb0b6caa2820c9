#ifndef SPONGEFILES_PIG_DATA_BAG_H_
#define SPONGEFILES_PIG_DATA_BAG_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mapred/job.h"
#include "mapred/merger.h"
#include "mapred/spill.h"
#include "sim/task.h"

namespace spongefiles::pig {

// Pig's tuple is the same wire record the MapReduce layer moves around.
using Tuple = mapred::Record;

class MemoryManager;

// Pig's primary intermediate-data structure (section 2.1.3): an insert-and-
// iterate collection registered with the memory manager, which spills
// (portions of) large bags when the JVM reports memory pressure. Spills go
// through the task's Spiller in chunks of C (10 MB by default), so they
// land on disk or in SpongeFiles depending on the experiment.
//
// Spill files have SpongeFile semantics (read once), so a multi-pass UDF
// re-spills the data it reads when it needs another pass — this is why the
// evaluation's holistic UDFs spill ~3x their input (Table 2).
class DataBag {
 public:
  // `per_tuple_cpu` is charged for every tuple an iteration touches.
  DataBag(MemoryManager* manager, mapred::Spiller* spiller,
          mapred::CpuMeter* cpu, std::string name,
          uint64_t spill_chunk_bytes = 10ull * 1024 * 1024,
          Duration per_tuple_cpu = Micros(1));
  ~DataBag();

  DataBag(const DataBag&) = delete;
  DataBag& operator=(const DataBag&) = delete;

  // Inserts a tuple. Returns true when the memory manager is now over
  // budget, in which case the caller must await the manager's MaybeSpill
  // (the spill upcall; skipping it when under budget spares its frames).
  bool Push(Tuple tuple);

  // One pass over every tuple (spilled portions first, then in-memory).
  // With `respill`, tuples read from consumed spill files are written to
  // fresh ones so another pass remains possible; without it the spilled
  // portion is gone afterwards.
  sim::Task<Status> ForEach(std::function<Status(const Tuple&)> fn,
                            bool respill);

  // Consuming sorted traversal: external sort (each <= C-sized spill chunk
  // is sorted into a run, in-memory tuples form one more run, then a k-way
  // merge streams tuples through `fn` in `less` order). The bag is empty
  // afterwards.
  sim::Task<Status> SortedForEach(
      std::function<bool(const Tuple&, const Tuple&)> less,
      std::function<Status(const Tuple&)> fn);

  // Moves in-memory tuples into spill files in C-sized chunks (the memory
  // manager's spill hook). Leaves the bag logically intact.
  sim::Task<Status> SpillMemory();

  // Deletes all spill files and drops in-memory contents.
  sim::Task<> Destroy();

  uint64_t count() const { return count_; }
  uint64_t memory_bytes() const { return memory_bytes_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint64_t total_bytes() const { return memory_bytes_ + spilled_bytes_; }
  size_t spill_file_count() const { return spill_files_.size(); }
  const std::string& name() const { return name_; }

 private:
  // Writes `pending` (if any) to a fresh closed spill file appended to
  // `out`, and leaves `pending` empty.
  sim::Task<Status> WriteSpillFile(
      ByteRuns* pending,
      std::vector<std::unique_ptr<mapred::SpillFile>>* out);

  // Serializes `tuples` into spill files of at most spill_chunk_bytes each.
  sim::Task<Status> SpillTuples(std::vector<Tuple> tuples,
                                std::vector<std::unique_ptr<mapred::SpillFile>>*
                                    out);

  MemoryManager* manager_;
  mapred::Spiller* spiller_;
  mapred::CpuMeter* cpu_;
  std::string name_;
  uint64_t spill_chunk_bytes_;
  Duration per_tuple_cpu_;

  std::vector<Tuple> memory_;
  uint64_t memory_bytes_ = 0;
  std::vector<std::unique_ptr<mapred::SpillFile>> spill_files_;
  uint64_t spilled_bytes_ = 0;
  uint64_t count_ = 0;
  uint64_t next_spill_ = 0;
  bool destroyed_ = false;
};

}  // namespace spongefiles::pig

#endif  // SPONGEFILES_PIG_DATA_BAG_H_
