#include "sim/sync.h"

namespace spongefiles::sim {

void Event::Set() {
  if (set_) return;
  set_ = true;
  while (!waiters_.empty()) {
    engine_->ScheduleHandle(engine_->now(), waiters_.front());
    waiters_.pop_front();
  }
}

void Semaphore::Release(int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!waiters_.empty()) {
      // Hand the permit directly to the longest waiter; permits_ stays
      // unchanged so late arrivals cannot barge past it.
      engine_->ScheduleHandle(engine_->now(), waiters_.front());
      waiters_.pop_front();
    } else {
      ++permits_;
    }
  }
}

void WaitGroup::Done() {
  --count_;
  if (count_ <= 0) event_.Set();
}

}  // namespace spongefiles::sim
