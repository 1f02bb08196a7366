// Bit-packed, levelized evaluation of a mapped LUT netlist in lane blocks.
//
// The scalar engine (techmap::LutNetlist::evaluate) walks the LUT array
// once per loop iteration over std::vector<bool> — fine for cross-checking,
// but it makes the simulator, not the modeled hardware, the bottleneck when
// a kernel runs millions of iterations. This engine compiles the netlist
// once into a flat evaluation plan and then evaluates up to W*64 loop
// iterations per pass (the lane-block width W is 1, 2 or 4 words),
// SIMD-within-a-register style: every net owns a contiguous block of W
// std::uint64_t lane words whose bit j of word g is the net's value in
// iteration g*64+j of the current block.
//
// Compilation (PackedEvaluator's constructor) is width-independent:
//   - every net gets an integer lane slot: slot 0 is constant 0, slot 1 is
//     constant 1, slots [2, 2+inputs) are the primary inputs, and each
//     surviving LUT gets a fresh slot — no NetRef dispatch or string
//     lookups remain in the evaluation loop;
//   - constant fanins are folded into the truth table (cofactoring), LUTs
//     that reduce to a constant or a wire are folded away entirely (their
//     slot aliases the source), and the rest are canonicalized to exactly
//     kLutInputs fanins (unused pins point at the constant-0 lane);
//   - each node's truth table is expanded to eight per-row lane masks, so
//     evaluation is a branchless three-level mux tree over packed words;
//   - every net gets a stage: the highest stage among the inputs in its
//     fan-in cone, where the caller tags each MAC-result input with its
//     MAC's index and every other input with stage -1;
//   - surviving nodes are re-sorted by (stage, mux-tree level) and their
//     slots renumbered in evaluation order, so run(first, last) evaluates
//     one contiguous stage range (the caller sets a MAC's result between
//     ranges), and within a stage a node's fanins live in the contiguous
//     slot range of the previous levels so wide lane blocks stream
//     through the lane array mostly sequentially.
//
// The LUT array must be emitted in topological (levelized) order — the
// mapper guarantees this, and the constructor rejects arrays that are not
// (a fanin reading a later LUT would silently evaluate stale lanes).
//
// Evaluation is instantiated per width from one templated kernel: W=1 is
// the original one-word SWAR pass, W=2/4 unroll the mux tree over lane
// pairs/quads (with SSE2 and AVX2 variants where the toolchain provides
// them), and choose_width() implements the heuristic auto mode keyed on
// plan size and trip count.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "techmap/techmap.hpp"

namespace warp::hwsim {

/// Bits per lane word: one bit lane per loop iteration.
inline constexpr unsigned kPackedWordBits = 64;

/// Widest supported lane block, in 64-bit words (W=4: 256 iterations/pass).
inline constexpr unsigned kMaxPackedWidth = 4;

/// Iterations per pass at the widest block.
inline constexpr unsigned kMaxPackedLanes = kMaxPackedWidth * kPackedWordBits;

/// One compiled LUT: fanin lane slots and the truth table as lane masks
/// (mask[m] is all-ones iff truth bit m is set).
struct PackedNode {
  std::uint32_t out = 0;
  std::array<std::uint32_t, techmap::kLutInputs> in{};
  std::array<std::uint64_t, 1u << techmap::kLutInputs> mask{};
};

/// Lane-block engine knob, plumbed from WarpSystemConfig down to the
/// executor so benchmark harnesses can pin or sweep the width.
struct PackedOptions {
  /// Lane-block width in 64-bit words (width*64 iterations per fabric
  /// pass): 1, 2 or 4. 0 selects the width automatically per run from the
  /// plan size and trip count (PackedEvaluator::choose_width).
  unsigned width = 0;
};

class PackedEvaluator {
 public:
  /// Stage of nets that depend on no staged input.
  static constexpr int kBaseStage = -1;

  /// Compiles the evaluation plan. `input_stage` tags each primary input
  /// with its stage (kBaseStage or a non-negative stage index); empty
  /// means every input is kBaseStage. Throws common::InternalError when
  /// the LUT array is not topologically ordered or references are out of
  /// range.
  explicit PackedEvaluator(const techmap::LutNetlist& netlist,
                           const std::vector<int>& input_stage = {});

  static constexpr bool width_supported(unsigned width) {
    return width == 1 || width == 2 || width == 4;
  }

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_outputs() const { return output_slot_.size(); }
  /// LUTs surviving constant/wire folding (the per-pass work).
  std::size_t node_count() const { return nodes_.size(); }
  /// Stages run from kBaseStage to num_stages() - 1.
  int num_stages() const { return static_cast<int>(stage_begin_.size()) - 2; }
  /// Stage of netlist output `index`: the highest staged input it reads.
  int output_stage(std::size_t index) const {
    assert(index < output_stage_.size());
    return output_stage_[index];
  }

  /// Active lane-block width in words, and iterations per pass.
  unsigned width() const { return width_; }
  unsigned lanes() const { return width_ * kPackedWordBits; }

  /// Select the lane-block width (1, 2 or 4). Re-lays the lane array; all
  /// input lanes must be set again before the next run().
  void set_width(unsigned width);

  /// Heuristic auto width for a run of `trip` iterations: the widest block
  /// that still gets at least two full passes, narrowed for very large
  /// plans whose lane working set would outgrow the cache.
  unsigned choose_width(std::uint64_t trip) const;

  /// Narrowest supported width whose block holds `lanes` iterations,
  /// capped at `max_width`.
  static unsigned covering_width(std::uint64_t lanes, unsigned max_width) {
    unsigned width = 1;
    while (width < max_width && std::uint64_t{width} * kPackedWordBits < lanes) width <<= 1;
    return width;
  }

  /// Set word `word` of primary input `input`'s lane block (bit j = value
  /// in block iteration word*64+j).
  void set_input(std::size_t input, unsigned word, std::uint64_t lanes) {
    assert(input < num_inputs_);
    assert(word < width_);
    lanes_[(2 + input) * width_ + word] = lanes;
  }

  /// Set the full lane block (width() words) of primary input `input`.
  void set_input_block(std::size_t input, const std::uint64_t* words) {
    assert(input < num_inputs_);
    for (unsigned w = 0; w < width_; ++w) {
      lanes_[(2 + input) * width_ + w] = words[w];
    }
  }

  /// Evaluate all nodes for the width()*64 packed iterations.
  void run() { run(kBaseStage, num_stages() - 1); }
  /// Evaluate only the nodes whose stage lies in [first_stage, last_stage].
  /// Every input of those stages, and every earlier stage, must be current.
  void run(int first_stage, int last_stage);

  /// Lane word `word` of netlist output `index` after run().
  std::uint64_t output(std::size_t index, unsigned word = 0) const {
    assert(index < output_slot_.size());
    assert(word < width_);
    return lanes_[output_slot_[index] * width_ + word];
  }

 private:
  // Each pass evaluates nodes_[begin, end).
  template <unsigned W>
  void run_pass(std::size_t begin, std::size_t end);       // unrolled, any width
  template <unsigned W>
  void run_pass_sse2(std::size_t begin, std::size_t end);  // W == 2/4, 128-bit halves
  void run_pass_avx2(std::size_t begin, std::size_t end);  // W == 4, one 256-bit register

  std::vector<PackedNode> nodes_;  // sorted by (stage, level)
  // nodes_ index where stage s begins is stage_begin_[s + 1]; the last
  // entry is nodes_.size().
  std::vector<std::size_t> stage_begin_;
  std::vector<std::uint64_t> lanes_;  // num_slots_ * kMaxPackedWidth words
  std::vector<std::uint32_t> output_slot_;  // per netlist output, resolved
  std::vector<int> output_stage_;           // per netlist output
  std::size_t num_inputs_ = 0;
  std::uint32_t num_slots_ = 0;
  unsigned width_ = 1;
};

}  // namespace warp::hwsim
