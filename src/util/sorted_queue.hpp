// A min-queue kept as one sorted run with a consumed-head index: top/pop
// read and advance the head, push scans back from the tail. Built for the
// Network's delivery queues, whose pushes land in order or a few entries
// before the tail (DESIGN.md §4, "Driver hot paths"). `Less` must be a
// strict total order; pop order and for_each order are that order.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace abcl::util {

template <typename Entry, typename Less>
class SortedQueue {
 public:
  bool empty() const { return head_ == v_.size(); }
  std::size_t size() const { return v_.size() - head_; }

  const Entry& top() const {
    ABCL_DCHECK(!empty());
    return v_[head_];
  }

  void pop() {
    ABCL_DCHECK(!empty());
    if (++head_ == v_.size()) clear();  // drained: restart at slot 0
  }

  void push(const Entry& e) {
    // Drop the consumed prefix only when it would save a reallocation.
    if (v_.size() == v_.capacity() && head_ >= v_.size() / 2) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    std::size_t i = v_.size();
    while (i > head_ && Less{}(e, v_[i - 1])) --i;
    ABCL_DCHECK(i == head_ || Less{}(v_[i - 1], e));
    ABCL_DCHECK(i == v_.size() || Less{}(e, v_[i]));
    v_.insert(v_.begin() + static_cast<std::ptrdiff_t>(i), e);
  }

  void clear() {
    v_.clear();
    head_ = 0;
  }

  // Visits the live entries in pop order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = head_; i < v_.size(); ++i) f(v_[i]);
  }

 private:
  std::vector<Entry> v_;
  std::size_t head_ = 0;  // v_[0, head_) is already popped
};

}  // namespace abcl::util
