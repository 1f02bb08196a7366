#include "hwsim/packed_eval.hpp"

#include <algorithm>
#include <numeric>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "common/strings.hpp"

namespace warp::hwsim {
namespace {

using techmap::NetRef;

/// Cofactor `truth` over `n` inputs with input `k` fixed to `v`.
std::uint8_t cofactor(std::uint8_t truth, unsigned n, unsigned k, bool v) {
  std::uint8_t out = 0;
  for (unsigned m = 0; m < (1u << (n - 1)); ++m) {
    const unsigned low = m & ((1u << k) - 1u);
    const unsigned high = (m >> k) << (k + 1);
    const unsigned full = high | (static_cast<unsigned>(v) << k) | low;
    if ((truth >> full) & 1u) out |= static_cast<std::uint8_t>(1u << m);
  }
  return out;
}

/// Sentinel for LUT ids whose slot has not been assigned yet. A fanin that
/// resolves to this is a forward reference: the array is not topological.
constexpr std::uint32_t kUnassigned = ~0u;

}  // namespace

PackedEvaluator::PackedEvaluator(const techmap::LutNetlist& netlist,
                                 const std::vector<int>& input_stage) {
  num_inputs_ = netlist.primary_inputs.size();
  if (!input_stage.empty() && input_stage.size() != num_inputs_) {
    throw common::InternalError("packed_eval: input stage count mismatch");
  }

  // Slot 0/1 hold the constant lanes; inputs follow; surviving LUTs after.
  const std::uint32_t first_node_slot = static_cast<std::uint32_t>(2 + num_inputs_);
  std::vector<std::uint32_t> lut_slot(netlist.luts.size(), kUnassigned);
  std::uint32_t next_slot = first_node_slot;

  auto slot_of = [&](const NetRef& ref) -> std::uint32_t {
    switch (ref.kind) {
      case NetRef::Kind::kConst0: return 0;
      case NetRef::Kind::kConst1: return 1;
      case NetRef::Kind::kPrimaryInput:
        if (ref.index < 0 || static_cast<std::size_t>(ref.index) >= num_inputs_) {
          throw common::InternalError(
              common::format("packed_eval: primary-input reference %d out of range", ref.index));
        }
        return 2 + static_cast<std::uint32_t>(ref.index);
      case NetRef::Kind::kLut: {
        if (ref.index < 0 || static_cast<std::size_t>(ref.index) >= lut_slot.size()) {
          throw common::InternalError(
              common::format("packed_eval: LUT reference %d out of range", ref.index));
        }
        const std::uint32_t slot = lut_slot[static_cast<std::size_t>(ref.index)];
        if (slot == kUnassigned) {
          throw common::InternalError(common::format(
              "packed_eval: LUT array is not topologically ordered (forward "
              "reference to LUT %d)", ref.index));
        }
        return slot;
      }
    }
    throw common::InternalError("packed_eval: bad NetRef kind");
  };

  nodes_.reserve(netlist.luts.size());
  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    const techmap::Lut& lut = netlist.luts[i];
    std::array<std::uint32_t, techmap::kLutInputs> slots{};
    unsigned n = lut.num_inputs;
    std::uint8_t truth = lut.truth;
    for (unsigned k = 0; k < n; ++k) slots[k] = slot_of(lut.inputs[k]);

    // Fold constant fanins into the truth table.
    for (unsigned k = 0; k < n;) {
      if (slots[k] <= 1) {
        truth = cofactor(truth, n, k, slots[k] == 1);
        for (unsigned j = k + 1; j < n; ++j) slots[j - 1] = slots[j];
        --n;
      } else {
        ++k;
      }
    }

    const std::uint8_t full = static_cast<std::uint8_t>((1u << (1u << n)) - 1u);
    if ((truth & full) == 0 || (truth & full) == full) {  // constant: alias the lane
      lut_slot[i] = (truth & 1u) ? 1u : 0u;
      continue;
    }
    if (n == 1 && (truth & 0x3u) == 0x2u) {  // wire: alias the fanin
      lut_slot[i] = slots[0];
      continue;
    }

    // Canonicalize to kLutInputs fanins: unused pins read the constant-0
    // lane and the truth table repeats over the missing dimensions.
    PackedNode node;
    node.out = next_slot++;
    for (unsigned k = 0; k < techmap::kLutInputs; ++k) {
      node.in[k] = (k < n) ? slots[k] : 0u;
    }
    const unsigned wrap = (1u << n) - 1u;
    for (unsigned m = 0; m < (1u << techmap::kLutInputs); ++m) {
      node.mask[m] = ((truth >> (m & wrap)) & 1u) ? ~0ull : 0ull;
    }
    nodes_.push_back(node);
    lut_slot[i] = node.out;
  }

  // Stage every slot (constants and unstaged inputs: kBaseStage), then
  // reorder surviving nodes by (stage, mux-tree level) and renumber their
  // slots in the new evaluation order. Within a stage a level-L node's
  // fanins then live in the contiguous slot range of levels < L, so wide
  // lane blocks stream through the lane array mostly sequentially instead
  // of hopping in the mapper's emission order. The order stays topological
  // (every edge keeps or raises the stage and raises the level), so one
  // forward pass, or consecutive stage ranges, stay correct.
  std::vector<int> slot_stage(next_slot, kBaseStage);
  int max_stage = kBaseStage;
  for (std::size_t i = 0; i < input_stage.size(); ++i) {
    if (input_stage[i] < kBaseStage) {
      throw common::InternalError("packed_eval: input stage below the base stage");
    }
    slot_stage[2 + i] = input_stage[i];
    max_stage = std::max(max_stage, input_stage[i]);
  }
  {
    std::vector<unsigned> slot_level(next_slot, 0);
    for (const PackedNode& n : nodes_) {
      unsigned level = 0;
      int stage = kBaseStage;
      for (const std::uint32_t in : n.in) {
        level = std::max(level, slot_level[in]);
        stage = std::max(stage, slot_stage[in]);
      }
      slot_level[n.out] = level + 1;
      slot_stage[n.out] = stage;
    }
    std::vector<std::uint32_t> order(nodes_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const std::uint32_t oa = nodes_[a].out, ob = nodes_[b].out;
      if (slot_stage[oa] != slot_stage[ob]) return slot_stage[oa] < slot_stage[ob];
      return slot_level[oa] < slot_level[ob];
    });
    std::vector<std::uint32_t> remap(next_slot);
    std::iota(remap.begin(), remap.end(), 0u);
    std::uint32_t slot = first_node_slot;
    for (const std::uint32_t i : order) remap[nodes_[i].out] = slot++;

    std::vector<PackedNode> reordered;
    reordered.reserve(nodes_.size());
    stage_begin_.assign(static_cast<std::size_t>(max_stage) + 3, 0);
    for (const std::uint32_t i : order) {
      PackedNode node = nodes_[i];
      ++stage_begin_[static_cast<std::size_t>(slot_stage[node.out]) + 2];
      node.out = remap[node.out];
      for (std::uint32_t& in : node.in) in = remap[in];
      reordered.push_back(node);
    }
    std::partial_sum(stage_begin_.begin(), stage_begin_.end(), stage_begin_.begin());
    nodes_ = std::move(reordered);
    std::vector<int> remapped_stage(next_slot, kBaseStage);
    for (std::uint32_t s = 0; s < next_slot; ++s) remapped_stage[remap[s]] = slot_stage[s];
    slot_stage = std::move(remapped_stage);
    for (std::uint32_t& slot_ref : lut_slot) {
      if (slot_ref != kUnassigned) slot_ref = remap[slot_ref];
    }
  }

  num_slots_ = next_slot;
  // Sized once for the widest block, so a width change only re-lays the
  // two constant slots.
  lanes_.assign(std::size_t{num_slots_} * kMaxPackedWidth, 0);
  lanes_[1] = ~0ull;

  output_slot_.resize(netlist.outputs.size());
  output_stage_.resize(netlist.outputs.size());
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    output_slot_[i] = slot_of(netlist.outputs[i].source);
    output_stage_[i] = slot_stage[output_slot_[i]];
  }
}

void PackedEvaluator::set_width(unsigned width) {
  if (!width_supported(width)) {
    throw common::InternalError(
        common::format("packed_eval: unsupported lane-block width %u", width));
  }
  if (width == width_) return;
  width_ = width;
  std::fill_n(lanes_.begin(), width, 0ull);              // constant-0 block
  std::fill_n(lanes_.begin() + width, width, ~0ull);     // constant-1 block
}

unsigned PackedEvaluator::choose_width(std::uint64_t trip) const {
  // Wider blocks vectorize the mux-tree work but slightly increase the
  // executor's per-block transpose and unpack cost, so they only win when
  // the plan carries real logic. Thin plans (wire-dominated kernels after
  // folding) are stream-IO-bound: measured on the paper kernels, W>1 costs
  // a few percent there, so they stay at one word.
  if (nodes_.size() < 192) return 1;
  // Only full blocks run packed: demand at least two full passes so short
  // trips don't degenerate into an all-scalar tail at a wide block.
  unsigned width = kMaxPackedWidth;
  while (width > 1 &&
         trip < std::uint64_t{2} * width * kPackedWordBits) {
    width >>= 1;
  }
  // Very large plans: the lane array alone is num_slots * width * 8 bytes;
  // stay narrower so the per-pass working set (lanes + masks) keeps some
  // cache locality.
  if (nodes_.size() > 16384 && width > 2) width = 2;
  return width;
}

template <unsigned W>
void PackedEvaluator::run_pass(std::size_t begin, std::size_t end) {
  // The mux tree below is written out for 3-input LUTs; a wider fabric LUT
  // needs another select level here (and 2^K masks above).
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  std::uint64_t* lanes = lanes_.data();
  for (std::size_t i = begin; i < end; ++i) {
    const PackedNode& n = nodes_[i];
    const std::uint64_t* pa = lanes + std::size_t{n.in[0]} * W;
    const std::uint64_t* pb = lanes + std::size_t{n.in[1]} * W;
    const std::uint64_t* pc = lanes + std::size_t{n.in[2]} * W;
    std::uint64_t* out = lanes + std::size_t{n.out} * W;
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t a = pa[w];
      const std::uint64_t b = pb[w];
      const std::uint64_t c = pc[w];
      const std::uint64_t na = ~a, nb = ~b, nc = ~c;
      // Three-level mux tree: select truth rows by input 0, then 1, then 2.
      const std::uint64_t s0 = (na & n.mask[0]) | (a & n.mask[1]);
      const std::uint64_t s1 = (na & n.mask[2]) | (a & n.mask[3]);
      const std::uint64_t s2 = (na & n.mask[4]) | (a & n.mask[5]);
      const std::uint64_t s3 = (na & n.mask[6]) | (a & n.mask[7]);
      const std::uint64_t u0 = (nb & s0) | (b & s1);
      const std::uint64_t u1 = (nb & s2) | (b & s3);
      out[w] = (nc & u0) | (c & u1);
    }
  }
}

// Vector variants of the same mux tree, one 128/256-bit op per level
// instead of W unrolled word ops. Dispatch (run() below) prefers, per
// width, the widest unit the build provides: SSE2 is part of baseline
// x86-64 so W=2/4 always vectorize there; AVX2 (e.g. -DWARP_NATIVE=ON)
// does W=4 in single registers; elsewhere the unrolled template runs.
#if defined(__SSE2__)
// One 128-bit op per mux level; W=4 runs the same kernel over both halves.
template <unsigned W>
void PackedEvaluator::run_pass_sse2(std::size_t begin, std::size_t end) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  static_assert(W == 2 || W == 4);
  std::uint64_t* lanes = lanes_.data();
  const auto bcast = [](std::uint64_t m) {
    return _mm_set1_epi64x(static_cast<long long>(m));
  };
  for (std::size_t i = begin; i < end; ++i) {
    const PackedNode& n = nodes_[i];
    const std::uint64_t* pa = lanes + std::size_t{n.in[0]} * W;
    const std::uint64_t* pb = lanes + std::size_t{n.in[1]} * W;
    const std::uint64_t* pc = lanes + std::size_t{n.in[2]} * W;
    std::uint64_t* po = lanes + std::size_t{n.out} * W;
    for (unsigned h = 0; h < W / 2; ++h) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + 2 * h));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + 2 * h));
      const __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pc + 2 * h));
      // _mm_andnot_si128(x, y) = ~x & y, so the ~a/~b/~c factors fold in.
      const __m128i s0 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[0])),
                                      _mm_and_si128(a, bcast(n.mask[1])));
      const __m128i s1 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[2])),
                                      _mm_and_si128(a, bcast(n.mask[3])));
      const __m128i s2 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[4])),
                                      _mm_and_si128(a, bcast(n.mask[5])));
      const __m128i s3 = _mm_or_si128(_mm_andnot_si128(a, bcast(n.mask[6])),
                                      _mm_and_si128(a, bcast(n.mask[7])));
      const __m128i u0 = _mm_or_si128(_mm_andnot_si128(b, s0), _mm_and_si128(b, s1));
      const __m128i u1 = _mm_or_si128(_mm_andnot_si128(b, s2), _mm_and_si128(b, s3));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(po + 2 * h),
                       _mm_or_si128(_mm_andnot_si128(c, u0), _mm_and_si128(c, u1)));
    }
  }
}
#endif

#if defined(__AVX2__)
void PackedEvaluator::run_pass_avx2(std::size_t begin, std::size_t end) {
  static_assert(techmap::kLutInputs == 3, "packed mux tree assumes 3-input LUTs");
  std::uint64_t* lanes = lanes_.data();
  for (std::size_t i = begin; i < end; ++i) {
    const PackedNode& n = nodes_[i];
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[0]} * 4));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[1]} * 4));
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes + std::size_t{n.in[2]} * 4));
    const auto bcast = [](std::uint64_t m) {
      return _mm256_set1_epi64x(static_cast<long long>(m));
    };
    // _mm256_andnot_si256(x, y) = ~x & y, so the ~a/~b/~c factors fold in.
    const __m256i s0 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[0])),
                                       _mm256_and_si256(a, bcast(n.mask[1])));
    const __m256i s1 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[2])),
                                       _mm256_and_si256(a, bcast(n.mask[3])));
    const __m256i s2 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[4])),
                                       _mm256_and_si256(a, bcast(n.mask[5])));
    const __m256i s3 = _mm256_or_si256(_mm256_andnot_si256(a, bcast(n.mask[6])),
                                       _mm256_and_si256(a, bcast(n.mask[7])));
    const __m256i u0 =
        _mm256_or_si256(_mm256_andnot_si256(b, s0), _mm256_and_si256(b, s1));
    const __m256i u1 =
        _mm256_or_si256(_mm256_andnot_si256(b, s2), _mm256_and_si256(b, s3));
    const __m256i out =
        _mm256_or_si256(_mm256_andnot_si256(c, u0), _mm256_and_si256(c, u1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + std::size_t{n.out} * 4), out);
  }
}
#endif

void PackedEvaluator::run(int first_stage, int last_stage) {
  first_stage = std::max(first_stage, kBaseStage);
  last_stage = std::min(last_stage, num_stages() - 1);
  if (first_stage > last_stage) return;
  const std::size_t begin = stage_begin_[static_cast<std::size_t>(first_stage + 1)];
  const std::size_t end = stage_begin_[static_cast<std::size_t>(last_stage + 2)];
  switch (width_) {
    case 1:
      run_pass<1>(begin, end);
      return;
    case 2:
#if defined(__SSE2__)
      run_pass_sse2<2>(begin, end);
#else
      run_pass<2>(begin, end);
#endif
      return;
    case 4:
#if defined(__AVX2__)
      run_pass_avx2(begin, end);
#elif defined(__SSE2__)
      run_pass_sse2<4>(begin, end);
#else
      run_pass<4>(begin, end);
#endif
      return;
  }
  throw common::InternalError("packed_eval: bad active width");
}

}  // namespace warp::hwsim
