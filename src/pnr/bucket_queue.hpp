// Bucket priority queue over routing-grid cells: the A* open list of the
// selective router (src/pnr/route.cpp).
//
// Pops (f, cell) pairs in exactly the order a
// std::priority_queue<std::pair<double, int>, ..., std::greater<>> would:
// ascending f, ties broken by ascending cell.
//
// It is a radix heap over f. Each f maps to a 64-bit key whose unsigned order
// is f's order (key_of). The queue keeps a base key: the current minimum
// once anything has popped. Cells whose key equals the base sit in a
// two-level bitset over the grid, so the smallest of them pops with two
// count-trailing-zeros. Every other entry sits in radix bucket i, where i is
// the highest bit in which its key differs from the base. A push therefore
// finds its bucket from the minimum in O(1), with one XOR and one
// count-leading-zeros; no search, no insert into a sorted array, and no
// extra cost for the many near-unique non-integer f of a congested search.
//
// When the base bitset runs empty, pop() advances: the lowest non-empty
// bucket holds the minimum, which becomes the new base, and that bucket's
// entries are re-placed against it. They share every bit above i with the
// new base, so each lands in the bitset or in a lower bucket, and entries in
// higher buckets stay valid. An entry thus moves at most 64 times, and in
// the router about half a time on average.
//
// A heap pops a repeated identical (f, cell) twice, where the bitset would
// merge it. push() therefore rejects an identical pair with InternalError
// instead; the router never produces one (see the relax margin in
// route.cpp). The check costs one compare per push: the queue records each
// cell's lowest f since the last clear(), and only a push at or above it
// (which A* never makes) searches the pair's bucket. f must not be NaN;
// -0.0 and +0.0 share a key and pop as +0.0, which the heap orders as equal.
#pragma once

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
      : summary_words_((static_cast<std::size_t>(cells) + 64 * 64 - 1) / (64 * 64)),
        bits_(summary_words_ + (static_cast<std::size_t>(cells) + 63) / 64, 0),
        lowest_f_(static_cast<std::size_t>(cells), 0.0),
        lowest_epoch_(static_cast<std::size_t>(cells), 0) {}

  bool empty() const { return size_ == 0; }

  void push(double f, int cell) {
    const std::uint64_t key = key_of(f);
    const std::size_t c = static_cast<std::size_t>(cell);
    if (lowest_epoch_[c] != epoch_) {
      lowest_epoch_[c] = epoch_;
      lowest_f_[c] = f;
    } else if (f < lowest_f_[c]) {
      lowest_f_[c] = f;
    } else if (contains(key, cell)) {
      throw common::InternalError("BucketQueue: identical (f, cell) pushed twice");
    }
    if (key < base_) rebase(key);
    place(key, cell);
    ++size_;
  }

  /// Removes and returns the smallest (f, cell). The queue must not be empty.
  std::pair<double, int> pop() {
    if (base_count_ == 0) advance();
    std::size_t s = 0;
    while (bits_[s] == 0) ++s;
    const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(bits_[s]));
    std::uint64_t& leaf = bits_[summary_words_ + w];
    const int cell = static_cast<int>(w * 64 + static_cast<std::size_t>(std::countr_zero(leaf)));
    leaf &= leaf - 1;
    if (leaf == 0) bits_[s] &= bits_[s] - 1;
    --base_count_;
    --size_;
    return {value_of(base_), cell};
  }

  void clear() {
    for (std::uint64_t m = nonempty_; m != 0; m &= m - 1) buckets_[std::countr_zero(m)].clear();
    nonempty_ = 0;
    for (std::size_t s = 0; s < summary_words_; ++s) {
      for (; bits_[s] != 0; bits_[s] &= bits_[s] - 1) {
        bits_[summary_words_ + s * 64 + static_cast<std::size_t>(std::countr_zero(bits_[s]))] = 0;
      }
    }
    base_ = kMinKey;
    base_count_ = 0;
    size_ = 0;
    ++epoch_;
  }

 private:
  struct Entry {
    std::uint64_t key;
    int cell;
  };

  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kMinKey = 0x000FFFFFFFFFFFFFull;  // key_of(-inf)

  // Flips negative doubles whole and sets the sign bit of the rest, so
  // unsigned key order is f order; adding 0.0 turns -0.0 into +0.0.
  static std::uint64_t key_of(double f) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(f + 0.0);
    return (b & kSignBit) ? ~b : b | kSignBit;
  }
  static double value_of(std::uint64_t key) {
    return std::bit_cast<double>((key & kSignBit) ? key & ~kSignBit : ~key);
  }

  // Files an entry against the current base; key >= base_.
  void place(std::uint64_t key, int cell) {
    if (key == base_) {
      const std::size_t w = static_cast<std::size_t>(cell) >> 6;
      bits_[summary_words_ + w] |= std::uint64_t{1} << (cell & 63);
      bits_[w >> 6] |= std::uint64_t{1} << (w & 63);
      ++base_count_;
      return;
    }
    const int i = 63 - std::countl_zero(key ^ base_);
    buckets_[i].push_back({key, cell});
    nonempty_ |= std::uint64_t{1} << i;
  }

  // The base bitset is empty: make the lowest bucket's minimum the base and
  // re-place that bucket's entries below it.
  void advance() {
    std::vector<Entry>& bucket = buckets_[std::countr_zero(nonempty_)];
    nonempty_ &= nonempty_ - 1;
    std::uint64_t min = bucket.front().key;
    for (const Entry& e : bucket) min = e.key < min ? e.key : min;
    base_ = min;
    for (const Entry& e : bucket) place(e.key, e.cell);
    bucket.clear();
  }

  // A push below the base (never from A*, whose f only grows from the last
  // pop): re-file every entry against the new, lower base.
  void rebase(std::uint64_t key) {
    std::vector<Entry> all;
    for (std::uint64_t m = nonempty_; m != 0; m &= m - 1) {
      std::vector<Entry>& bucket = buckets_[std::countr_zero(m)];
      all.insert(all.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    nonempty_ = 0;
    for (std::size_t s = 0; s < summary_words_; ++s) {
      for (; bits_[s] != 0; bits_[s] &= bits_[s] - 1) {
        const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(bits_[s]));
        for (std::uint64_t& leaf = bits_[summary_words_ + w]; leaf != 0; leaf &= leaf - 1) {
          all.push_back({base_, static_cast<int>(w * 64 + static_cast<std::size_t>(
                                                              std::countr_zero(leaf)))});
        }
      }
    }
    base_ = key;
    base_count_ = 0;
    for (const Entry& e : all) place(e.key, e.cell);
  }

  bool contains(std::uint64_t key, int cell) const {
    if (key < base_) return false;
    if (key == base_) {
      return (bits_[summary_words_ + (static_cast<std::size_t>(cell) >> 6)] >> (cell & 63)) & 1;
    }
    for (const Entry& e : buckets_[63 - std::countl_zero(key ^ base_)]) {
      if (e.key == key && e.cell == cell) return true;
    }
    return false;
  }

  std::size_t summary_words_;
  std::vector<std::uint64_t> bits_;  // cells at the base: summary words, then leaves
  std::vector<double> lowest_f_;     // per cell: lowest f pushed since clear() ...
  std::vector<std::uint32_t> lowest_epoch_;  // ... valid when stamped with epoch_
  std::uint32_t epoch_ = 1;
  std::uint64_t base_ = kMinKey;
  std::size_t base_count_ = 0;
  std::size_t size_ = 0;
  std::uint64_t nonempty_ = 0;       // bit i set: buckets_[i] holds entries
  std::vector<Entry> buckets_[64];
};

}  // namespace warp::pnr
