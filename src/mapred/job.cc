#include "mapred/job.h"

namespace spongefiles::mapred {

sim::Task<> CpuMeter::Flush() {
  if (debt_ > 0) {
    Duration sleep = debt_;
    debt_ = 0;
    co_await engine_->Delay(sleep);
  }
}

const TaskStats* JobResult::straggler() const {
  const TaskStats* worst = nullptr;
  for (const TaskStats& stats : reduce_tasks) {
    if (worst == nullptr || stats.runtime > worst->runtime) worst = &stats;
  }
  return worst;
}

}  // namespace spongefiles::mapred
