#include "pig/memory_manager.h"

#include <algorithm>

#include "pig/data_bag.h"

namespace spongefiles::pig {

void MemoryManager::Register(DataBag* bag) { bags_.push_back(bag); }

void MemoryManager::Unregister(DataBag* bag) {
  bags_.erase(std::remove(bags_.begin(), bags_.end(), bag), bags_.end());
}

uint64_t MemoryManager::memory_in_use() const {
  uint64_t total = 0;
  for (const DataBag* bag : bags_) total += bag->memory_bytes();
  return total;
}

sim::Task<Status> MemoryManager::MaybeSpill() {
  if (!over_budget()) co_return Status::OK();
  ++spill_upcalls_;
  // Largest bags first: one big spill frees more memory per file created.
  std::vector<DataBag*> order = bags_;
  std::sort(order.begin(), order.end(), [](DataBag* a, DataBag* b) {
    return a->memory_bytes() > b->memory_bytes();
  });
  for (DataBag* bag : order) {
    if (memory_in_use() <= limit_) break;
    if (bag->memory_bytes() == 0) continue;
    CO_RETURN_IF_ERROR(co_await bag->SpillMemory());
  }
  co_return Status::OK();
}

}  // namespace spongefiles::pig
