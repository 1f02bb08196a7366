// Bucket priority queue over routing-grid cells: the A* open list of the
// selective router (src/pnr/route.cpp).
//
// Pops (f, cell) pairs in exactly the order a
// std::priority_queue<std::pair<double, int>, ..., std::greater<>> would:
// ascending f, ties broken by ascending cell. There is one bucket per
// distinct f, kept in a small array sorted by descending f (so the minimum
// is at the back) and found by binary search. Each bucket holds its cells in
// a two-level bitset over the grid, so the smallest cell of the smallest f
// pops with two count-trailing-zeros. Empty buckets return their bitset slot
// to a free list; every free slot is all-zero.
//
// A bitset cannot hold the same (f, cell) twice, where a heap would pop it
// twice. push() therefore rejects an identical pair with InternalError
// instead of silently merging it; the router never produces one (see the
// relax margin in route.cpp). f must not be NaN; -0.0 and +0.0 share a
// bucket, as the heap also orders them as equal.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace warp::pnr {

class BucketQueue {
 public:
  explicit BucketQueue(int cells)
      : leaf_words_((static_cast<std::size_t>(cells) + 63) / 64),
        summary_words_((leaf_words_ + 63) / 64),
        stride_(summary_words_ + leaf_words_) {}

  bool empty() const { return buckets_.empty(); }

  void push(double f, int cell) {
    auto it = std::lower_bound(buckets_.begin(), buckets_.end(), f,
                               [](const Bucket& b, double key) { return b.f > key; });
    if (it == buckets_.end() || it->f != f) it = buckets_.insert(it, Bucket{f, take_slot(), 0});
    std::uint64_t* words = slot_words(it->slot);
    const std::size_t w = static_cast<std::size_t>(cell) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (cell & 63);
    std::uint64_t& leaf = words[summary_words_ + w];
    if (leaf & bit) throw common::InternalError("BucketQueue: identical (f, cell) pushed twice");
    leaf |= bit;
    words[w >> 6] |= std::uint64_t{1} << (w & 63);
    ++it->count;
  }

  /// Removes and returns the smallest (f, cell). The queue must not be empty.
  std::pair<double, int> pop() {
    Bucket& b = buckets_.back();
    std::uint64_t* words = slot_words(b.slot);
    std::size_t s = 0;
    while (words[s] == 0) ++s;
    const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(words[s]));
    std::uint64_t& leaf = words[summary_words_ + w];
    const int cell = static_cast<int>(w * 64 + static_cast<std::size_t>(std::countr_zero(leaf)));
    leaf &= leaf - 1;
    if (leaf == 0) words[s] &= words[s] - 1;
    const double f = b.f;
    if (--b.count == 0) {
      free_slots_.push_back(b.slot);
      buckets_.pop_back();
    }
    return {f, cell};
  }

  void clear() {
    for (const Bucket& b : buckets_) {
      std::uint64_t* words = slot_words(b.slot);
      for (std::size_t s = 0; s < summary_words_; ++s) {
        for (; words[s] != 0; words[s] &= words[s] - 1) {
          words[summary_words_ + s * 64 + static_cast<std::size_t>(std::countr_zero(words[s]))] = 0;
        }
      }
      free_slots_.push_back(b.slot);
    }
    buckets_.clear();
  }

 private:
  struct Bucket {
    double f;
    std::uint32_t slot;
    std::uint32_t count;
  };

  std::uint64_t* slot_words(std::uint32_t slot) { return bits_.data() + slot * stride_; }

  std::uint32_t take_slot() {
    if (free_slots_.empty()) {
      free_slots_.push_back(static_cast<std::uint32_t>(bits_.size() / stride_));
      bits_.resize(bits_.size() + stride_, 0);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  std::size_t leaf_words_;
  std::size_t summary_words_;
  std::size_t stride_;             // words per slot: summary, then leaves
  std::vector<Bucket> buckets_;    // descending f; back() holds the minimum
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace warp::pnr
