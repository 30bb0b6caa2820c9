#ifndef SPONGEFILES_PIG_MEMORY_MANAGER_H_
#define SPONGEFILES_PIG_MEMORY_MANAGER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/task.h"

namespace spongefiles::pig {

class DataBag;

// Pig's memory manager (section 2.1.3): tracks every registered bag,
// estimates aggregate usage against the JVM's bag-memory budget, and — on
// the low-memory upcall — spills the largest bags first until usage drops
// below the budget.
class MemoryManager {
 public:
  explicit MemoryManager(uint64_t memory_limit_bytes)
      : limit_(memory_limit_bytes) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  void Register(DataBag* bag);
  void Unregister(DataBag* bag);

  // The JVM low-memory upcall: called by bags after growth. Spills the
  // largest registered bags (largest first, matching Pig's policy) until
  // in-memory usage fits the budget again.
  sim::Task<Status> MaybeSpill();

  uint64_t memory_in_use() const;
  // Whether MaybeSpill would spill now.
  bool over_budget() const { return memory_in_use() > limit_; }
  uint64_t limit() const { return limit_; }
  size_t bag_count() const { return bags_.size(); }
  uint64_t spill_upcalls() const { return spill_upcalls_; }

 private:
  uint64_t limit_;
  std::vector<DataBag*> bags_;
  uint64_t spill_upcalls_ = 0;
};

}  // namespace spongefiles::pig

#endif  // SPONGEFILES_PIG_MEMORY_MANAGER_H_
