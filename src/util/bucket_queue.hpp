// Bucketed monotone-friendly priority queue (calendar/ladder hybrid).
//
// The simulation's two hot min-queues — the serial Machine's ready
// structure and the Network's per-destination delivery queues — are keyed
// on simulated time (`sim::Instr`) and consumed almost monotonically:
// pops advance with the global clock and pushes land a bounded lookahead
// into the future. A binary heap pays O(log n) sifts per operation for a
// generality those workloads never use. BucketQueue instead spreads
// entries over a ring of time buckets (width adapted to the observed key
// span) and lazily sorts only the bucket currently being drained, giving
// amortized O(1) push/pop on monotone streams while remaining correct —
// exact (key, tie-break) pop order — for arbitrary inputs:
//
//  * push: O(1) — index the ring by (key - base) / width, or append to the
//    far-future overflow tier when the key lies beyond the ring.
//  * pop/top: advance to the first non-empty bucket and drain it in sorted
//    order; the sort is amortized against the pushes that filled it. When
//    the ring empties, the overflow tier is re-based into a fresh ring
//    whose width is recomputed from the tier's key span.
//  * late pushes (key below the active bucket, which conservative drivers
//    produce only across window boundaries) clamp into the active bucket;
//    ordering stays exact because comparisons always use the true key.
//
// Determinism contract: pop order is the strict total order induced by
// `Less` (whose primary component must be the key `KeyFn` extracts), so a
// BucketQueue and a binary heap over the same pushes pop identically (the
// tests check it against std::priority_queue).
// kInstrInf-sized keys are valid: all bucket math is overflow-safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace abcl::util {

// Entry: element type. KeyFn: stateless functor mapping Entry -> uint64
// time key. Less: stateless strict-weak total order over Entry whose
// primary component is the key (ties broken deterministically).
template <typename Entry, typename KeyFn, typename Less>
class BucketQueue {
 public:
  explicit BucketQueue(std::size_t nbuckets = 64) : nb_(nbuckets) {
    ABCL_CHECK(nb_ >= 2);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Entry e) {
    ++size_;
    bucket_push(std::move(e));
  }

  // Smallest entry under Less. Logically const: bucket bookkeeping (lazy
  // sort, cursor advance, overflow re-base) is mutable.
  const Entry& top() const {
    ABCL_DCHECK(size_ > 0);
    ensure_top();
    return ring_[cur_][active_pos_];
  }

  void pop() {
    ABCL_DCHECK(size_ > 0);
    --size_;
    ensure_top();
    auto& b = ring_[cur_];
    if (++active_pos_ == b.size()) {
      b.clear();  // keeps capacity for the bucket's next pass
      active_pos_ = 0;
      active_sorted_ = true;
    }
    --ring_count_;
  }

  void clear() {
    size_ = 0;
    for (auto& b : ring_) b.clear();
    overflow_.clear();
    ring_count_ = 0;
    cur_ = 0;
    active_pos_ = 0;
    active_sorted_ = true;
  }

  // Visits every live entry in unspecified order (checkpoint serialization
  // sorts canonically on its own). The consumed prefix [0, active_pos_) of
  // the active bucket holds already-popped entries awaiting their lazy
  // erase; buckets behind the cursor are empty (pop clears a drained bucket
  // and bucket_push clamps at-or-behind-cursor keys into the active one).
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const std::vector<Entry>& b = ring_[i];
      for (std::size_t j = i == cur_ ? active_pos_ : 0; j < b.size(); ++j) {
        f(b[j]);
      }
    }
    for (const Entry& e : overflow_) f(e);
  }

 private:
  // True when `k` falls inside the ring's covered span [base_, base_+span).
  // span can reach 2^64 (kInstrInf-wide re-base), hence the 128-bit compare.
  bool in_ring(std::uint64_t k) const {
    return k >= base_ &&
           static_cast<unsigned __int128>(k - base_) < ring_span_;
  }

  void bucket_push(Entry e) {
    const std::uint64_t k = KeyFn{}(e);
    if (ring_.empty()) ring_.resize(nb_);
    if (ring_count_ == 0 && overflow_.empty()) {
      // Empty queue: re-anchor the ring at this key so the steady
      // push-one/pop-one pattern never touches the overflow tier.
      base_ = k;
      cur_ = 0;
      active_pos_ = 0;
      ring_span_ = static_cast<unsigned __int128>(nb_) * width_;
    }
    if (!in_ring(k) && k >= base_) {
      overflow_.push_back(std::move(e));
      return;
    }
    // k < base_ (a late push) or a bucket at/behind the cursor: clamp into
    // the active bucket — every earlier bucket is empty, and comparisons
    // always use true keys, so pop order is unaffected.
    std::size_t idx = k < base_ ? cur_ : (k - base_) / width_;
    if (idx <= cur_) {
      auto& b = ring_[cur_];
      if (active_sorted_) {
        // Positioned insert into the live suffix, keeping the draining
        // bucket sorted. Marking it dirty instead would re-sort the whole
        // bucket on the next pop — the classic calendar-queue pathology
        // when the steady-state reinsertion stride is smaller than the
        // bucket width, turning amortized O(1) pops into O(b log b).
        b.insert(std::upper_bound(
                     b.begin() + static_cast<std::ptrdiff_t>(active_pos_),
                     b.end(), e, Less{}),
                 std::move(e));
        ++ring_count_;
        return;
      }
      if (active_pos_ > 0) {
        // Drop the consumed prefix before mixing in new entries, so the
        // eventual sort cannot resurrect already-popped elements.
        b.erase(b.begin(),
                b.begin() + static_cast<std::ptrdiff_t>(active_pos_));
        active_pos_ = 0;
      }
      idx = cur_;
    }
    ring_[idx].push_back(std::move(e));
    ++ring_count_;
  }

  void ensure_top() const {
    if (ring_count_ == 0) rebase_from_overflow();
    while (ring_[cur_].empty()) {
      ++cur_;
      active_pos_ = 0;
      active_sorted_ = false;
    }
    if (!active_sorted_) {
      auto& b = ring_[cur_];
      if (active_pos_ > 0) {
        b.erase(b.begin(),
                b.begin() + static_cast<std::ptrdiff_t>(active_pos_));
        active_pos_ = 0;
      }
      std::sort(b.begin(), b.end(), Less{});
      active_sorted_ = true;
    }
  }

  // The ring drained; re-anchor it at the overflow tier's minimum with a
  // width that spreads the tier across all nb_ buckets. Every deferred
  // entry fits: (hi - lo) / width <= nb_ - 1 by construction.
  void rebase_from_overflow() const {
    ABCL_DCHECK(!overflow_.empty());
    std::uint64_t lo = KeyFn{}(overflow_.front());
    std::uint64_t hi = lo;
    for (const Entry& e : overflow_) {
      const std::uint64_t k = KeyFn{}(e);
      if (k < lo) lo = k;
      if (k > hi) hi = k;
    }
    base_ = lo;
    width_ = (hi - lo) / nb_ + 1;
    ring_span_ = static_cast<unsigned __int128>(nb_) * width_;
    cur_ = 0;
    active_pos_ = 0;
    active_sorted_ = false;
    for (Entry& e : overflow_) {
      ring_[(KeyFn{}(e) - base_) / width_].push_back(std::move(e));
    }
    ring_count_ = overflow_.size();
    overflow_.clear();
  }

  std::size_t nb_;
  std::size_t size_ = 0;

  // All mutable: top() is observably const but re-bases, advances the
  // cursor and sorts lazily.
  mutable std::vector<std::vector<Entry>> ring_;  // lazily sized to nb_
  mutable std::vector<Entry> overflow_;           // keys beyond the ring
  mutable std::uint64_t base_ = 0;                // ring time origin
  mutable std::uint64_t width_ = 1;               // per-bucket key span
  mutable unsigned __int128 ring_span_ = 0;       // nb_ * width_
  mutable std::size_t ring_count_ = 0;            // entries in the ring
  mutable std::size_t cur_ = 0;                   // active bucket index
  mutable std::size_t active_pos_ = 0;   // consumed prefix of ring_[cur_]
  mutable bool active_sorted_ = true;
};

}  // namespace abcl::util
