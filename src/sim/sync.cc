#include "sim/sync.h"

namespace spongefiles::sim {

WaitNode::~WaitNode() {
  if (list_ != nullptr) list_->Remove(this);
}

WaitList::~WaitList() {
  for (WaitNode* node = head_; node != nullptr;) {
    WaitNode* next = node->next_;
    node->list_ = nullptr;
    node->prev_ = node->next_ = nullptr;
    node = next;
  }
}

void WaitList::Push(WaitNode* node, std::coroutine_handle<> h) {
  node->handle = h;
  node->list_ = this;
  node->prev_ = tail_;
  node->next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->next_ = node;
  } else {
    head_ = node;
  }
  tail_ = node;
  ++size_;
}

WaitNode* WaitList::Pop() {
  WaitNode* node = head_;
  Remove(node);
  return node;
}

void WaitList::Remove(WaitNode* node) {
  (node->prev_ != nullptr ? node->prev_->next_ : head_) = node->next_;
  (node->next_ != nullptr ? node->next_->prev_ : tail_) = node->prev_;
  node->list_ = nullptr;
  node->prev_ = node->next_ = nullptr;
  --size_;
}

void Event::Set() {
  if (set_) return;
  set_ = true;
  while (!waiters_.empty()) {
    engine_->ScheduleHandle(engine_->now(), waiters_.Pop()->handle);
  }
}

void Semaphore::Release(int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!waiters_.empty()) {
      // Hand the permit directly to the longest waiter; permits_ stays
      // unchanged so late arrivals cannot barge past it.
      engine_->ScheduleHandle(engine_->now(), waiters_.Pop()->handle);
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
