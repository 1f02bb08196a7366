#include "hwsim/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hpp"
#include "common/strings.hpp"

namespace warp::hwsim {

using synth::HwKernel;
using techmap::PortSpec;

const char* scalar_reason_name(ScalarReason reason) {
  switch (reason) {
    case ScalarReason::kNone: return "none";
    case ScalarReason::kAccFeedback: return "acc_feedback";
    case ScalarReason::kMacOrder: return "mac_order";
    case ScalarReason::kStreamHazard: return "stream_hazard";
    case ScalarReason::kVerify: return "verify";
    case ScalarReason::kForced: return "forced";
  }
  return "unknown";
}

KernelExecutor::KernelExecutor(const HwKernel& kernel, const fabric::FabricConfig& config,
                               PackedOptions packed)
    : kernel_(kernel), config_(config) {
  set_packed_options(packed);
  bind_ports();
  compile_packed_plan();
}

void KernelExecutor::compile_packed_plan() {
  if (kernel_reason_ != ScalarReason::kNone) return;
  // Each MAC result is a plan stage; everything else enters at the base.
  std::vector<int> input_stage(input_bindings_.size(), PackedEvaluator::kBaseStage);
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    if (input_bindings_[i].kind == InputBinding::Kind::kMacResult) {
      input_stage[i] = static_cast<int>(input_bindings_[i].a);
    }
  }
  packed_.emplace(config_.netlist, input_stage);
  // The scalar engine reads MAC m's operands with results 0..m-1 final and
  // the rest zero. Staged evaluation reproduces that only when no operand
  // cone reaches result m or later.
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    for (const OutputGroup* group : {&mac_a_groups_[m], &mac_b_groups_[m]}) {
      for (const OutputBit& ob : *group) {
        if (packed_->output_stage(ob.output_index) >= static_cast<int>(m)) {
          packed_.reset();
          kernel_reason_ = ScalarReason::kMacOrder;
          return;
        }
      }
    }
  }
}

void KernelExecutor::set_packed_options(PackedOptions packed) {
  if (packed.width != 0 && !PackedEvaluator::width_supported(packed.width)) {
    throw common::InternalError(
        common::format("executor: unsupported packed lane-block width %u", packed.width));
  }
  packed_options_ = packed;
}

void KernelExecutor::bind_ports() {
  const auto& netlist = config_.netlist;
  const auto& ir = kernel_.ir;

  // Flattened (stream, tap) index space for batched tap scratch buffers.
  tap_base_.resize(ir.streams.size());
  unsigned total_taps = 0;
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    tap_base_[s] = total_taps;
    total_taps += ir.streams[s].burst;
  }
  block_taps_.resize(total_taps);
  tap_values_.resize(ir.streams.size());
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    tap_values_[s].assign(ir.streams[s].burst, 0);
  }

  // Structured port descriptors carried on the mapped netlist (computed by
  // techmap); derive them locally for netlists built by hand.
  std::vector<PortSpec> input_ports = netlist.input_ports;
  std::vector<PortSpec> output_ports = netlist.output_ports;
  if (input_ports.size() != netlist.primary_inputs.size()) {
    input_ports.resize(netlist.primary_inputs.size());
    for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
      input_ports[i] = techmap::parse_port_name(netlist.primary_inputs[i]);
    }
  }
  if (output_ports.size() != netlist.outputs.size()) {
    output_ports.resize(netlist.outputs.size());
    for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
      output_ports[i] = techmap::parse_port_name(netlist.outputs[i].name);
    }
  }

  mac_result_bits_.assign(kernel_.mac_ops.size(), {});
  input_bindings_.resize(netlist.primary_inputs.size());
  for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
    const PortSpec& spec = input_ports[i];
    InputBinding binding;
    binding.a = spec.a;
    binding.b = spec.b;
    binding.bit = spec.bit;
    switch (spec.kind) {
      case PortSpec::Kind::kStream:
        binding.kind = InputBinding::Kind::kStream;
        if (spec.a >= ir.streams.size() || spec.b >= ir.streams[spec.a].burst) {
          throw common::InternalError("executor: stream input out of range: " +
                                      netlist.primary_inputs[i]);
        }
        binding.tap_index = static_cast<int>(tap_base_[spec.a] + spec.b);
        break;
      case PortSpec::Kind::kLiveIn:
        binding.kind = InputBinding::Kind::kLiveIn;
        break;
      case PortSpec::Kind::kIv:
        binding.kind = InputBinding::Kind::kIv;
        for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
          if (ir.iv_regs[p].first == spec.a) binding.iv_pos = static_cast<int>(p);
        }
        break;
      case PortSpec::Kind::kMacResult:
        binding.kind = InputBinding::Kind::kMacResult;
        if (spec.a >= mac_result_bits_.size()) {
          throw common::InternalError("executor: MAC result input out of range: " +
                                      netlist.primary_inputs[i]);
        }
        mac_result_bits_[spec.a].emplace_back(i, spec.bit);
        break;
      case PortSpec::Kind::kAccState:
        binding.kind = InputBinding::Kind::kAccState;
        kernel_reason_ = ScalarReason::kAccFeedback;  // cross-iteration recurrence
        break;
      default:
        throw common::InternalError("executor: unknown input port " +
                                    netlist.primary_inputs[i]);
    }
    input_bindings_[i] = binding;
  }
  livein_cache_.assign(input_bindings_.size(), 0);

  // Output index tables: one bit-list per consumed word, so reading a word
  // is a gather over its own bits instead of an O(outputs) scan.
  write_groups_.assign(kernel_.write_outputs.size(), {});
  mac_a_groups_.assign(kernel_.mac_ops.size(), {});
  mac_b_groups_.assign(kernel_.mac_ops.size(), {});
  acc_next_groups_.assign(ir.accumulators.size(), {});
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    const PortSpec& spec = output_ports[i];
    OutputBit ob;
    ob.bit = spec.bit;
    ob.output_index = static_cast<std::uint32_t>(i);
    ob.source = netlist.outputs[i].source;
    switch (spec.kind) {
      case PortSpec::Kind::kWrite: {
        int w = -1;
        for (std::size_t k = 0; k < kernel_.write_outputs.size(); ++k) {
          if (kernel_.write_outputs[k].stream == spec.a &&
              kernel_.write_outputs[k].tap == spec.b) {
            w = static_cast<int>(k);
          }
        }
        if (w < 0) {
          throw common::InternalError("executor: write output without a kernel slot: " +
                                      netlist.outputs[i].name);
        }
        write_groups_[static_cast<std::size_t>(w)].push_back(ob);
        break;
      }
      case PortSpec::Kind::kMacA:
        if (spec.a >= mac_a_groups_.size()) {
          throw common::InternalError("executor: MAC A output out of range");
        }
        mac_a_groups_[spec.a].push_back(ob);
        break;
      case PortSpec::Kind::kMacB:
        if (spec.a >= mac_b_groups_.size()) {
          throw common::InternalError("executor: MAC B output out of range");
        }
        mac_b_groups_[spec.a].push_back(ob);
        break;
      case PortSpec::Kind::kAccNext:
        if (spec.a >= acc_next_groups_.size()) {
          throw common::InternalError("executor: accumulator output out of range");
        }
        acc_next_groups_[spec.a].push_back(ob);
        break;
      default:
        throw common::InternalError("executor: unknown output port " +
                                    netlist.outputs[i].name);
    }
  }

  for (const auto& w : ir.writes) {
    write_node_[(static_cast<std::uint32_t>(w.stream) << 16) | w.tap] = w.node;
  }

  iv_step_.resize(ir.iv_regs.size());
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) iv_step_[p] = ir.iv_regs[p].second;

  inputs_.assign(netlist.primary_inputs.size(), false);
  mac_results_.assign(kernel_.mac_ops.size(), 0);
  iv_planes_.resize(ir.iv_regs.size());
  write_words_.resize(kernel_.write_outputs.size());
}

std::uint32_t KernelExecutor::read_group_word(const OutputGroup& group,
                                              const std::vector<bool>& lut_values) const {
  std::uint32_t word = 0;
  for (const OutputBit& ob : group) {
    if (techmap::resolve_ref(ob.source, lut_values, inputs_)) word |= 1u << ob.bit;
  }
  return word;
}

int KernelExecutor::find_write_node(unsigned stream, unsigned tap) const {
  const auto it = write_node_.find((stream << 16) | tap);
  if (it == write_node_.end()) {
    throw common::InternalError("executor: no DFG node for write output");
  }
  return it->second;
}

std::uint32_t KernelExecutor::iv_value(int iv_pos, std::uint64_t iter) const {
  if (iv_pos < 0) return 0;
  return iv_init_[static_cast<std::size_t>(iv_pos)] +
         static_cast<std::uint32_t>(
             static_cast<std::int64_t>(iv_step_[static_cast<std::size_t>(iv_pos)]) *
             static_cast<std::int64_t>(iter));
}

bool KernelExecutor::streams_hazard_free(const KernelInvocation& invocation,
                                         unsigned block_lanes) const {
  const auto& ir = kernel_.ir;
  if (invocation.trip == 0) return true;
  const std::int64_t last_iter = static_cast<std::int64_t>(invocation.trip) - 1;
  const std::int64_t window =
      static_cast<std::int64_t>(std::min<std::uint64_t>(block_lanes, invocation.trip));

  struct Range {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  std::vector<Range> ranges(ir.streams.size());
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    const std::int64_t base = invocation.stream_bases[s];
    std::int64_t lo = base;
    std::int64_t hi = base;
    for (const std::int64_t it : {std::int64_t{0}, last_iter}) {
      for (const std::int64_t t :
           {std::int64_t{0}, static_cast<std::int64_t>(stream.burst) - 1}) {
        const std::int64_t addr = base +
                                  static_cast<std::int64_t>(stream.stride_bytes) * it +
                                  t * static_cast<std::int64_t>(stream.tap_stride_bytes);
        lo = std::min(lo, addr);
        hi = std::max(hi, addr);
      }
    }
    hi += stream.elem_bytes - 1;
    // Addresses that wrap 32 bits defeat the interval analysis: fall back.
    if (lo < 0 || hi >= (std::int64_t{1} << 32)) return false;
    ranges[s] = {lo, hi};
  }

  for (std::size_t ws = 0; ws < ir.streams.size(); ++ws) {
    if (!ir.streams[ws].is_write) continue;
    for (std::size_t rs = 0; rs < ir.streams.size(); ++rs) {
      if (ir.streams[rs].is_write) continue;
      if (ranges[ws].hi < ranges[rs].lo || ranges[rs].hi < ranges[ws].lo) continue;

      // Overlapping ranges are only safe for the exact in-place pattern,
      // where a write from iteration i can alias a read from iteration
      // j > i only at solutions of stride*(j-i) == tap_stride*(tw-tr); a
      // solution within one block distance makes batching unsafe.
      const auto& w = ir.streams[ws];
      const auto& r = ir.streams[rs];
      if (invocation.stream_bases[ws] != invocation.stream_bases[rs] ||
          w.stride_bytes != r.stride_bytes || w.tap_stride_bytes != r.tap_stride_bytes ||
          w.elem_bytes != r.elem_bytes) {
        return false;
      }
      if (w.stride_bytes == 0) return false;
      for (const auto& wo : kernel_.write_outputs) {
        if (wo.stream != ws) continue;
        for (unsigned tr = 0; tr < r.burst; ++tr) {
          const std::int64_t diff =
              (static_cast<std::int64_t>(wo.tap) - static_cast<std::int64_t>(tr)) *
              static_cast<std::int64_t>(w.tap_stride_bytes);
          // The write of iteration i and the read of iteration i+d sit
          // diff - stride*d bytes apart; their elem-byte intervals overlap
          // when that gap is smaller than an element. d == 0 (same
          // iteration) is safe: both engines read before writing.
          for (std::int64_t d = 1; d < window; ++d) {
            const std::int64_t gap = diff - static_cast<std::int64_t>(w.stride_bytes) * d;
            if (gap > -w.elem_bytes && gap < w.elem_bytes) return false;
          }
        }
      }
    }
  }
  return true;
}

unsigned KernelExecutor::select_packed_width(const KernelInvocation& invocation) const {
  // A pinned width is honored as-is (hazards drop to scalar); auto mode
  // starts from the trip/plan-size heuristic and narrows the block until
  // its hazard window closes.
  if (packed_options_.width != 0) {
    return streams_hazard_free(invocation, packed_options_.width * kPackedWordBits)
               ? packed_options_.width
               : 0;
  }
  unsigned width = packed_->choose_width(invocation.trip);
  while (width != 0 && !streams_hazard_free(invocation, width * kPackedWordBits)) {
    width >>= 1;
  }
  return width;
}

common::Result<KernelRunResult> KernelExecutor::run(sim::Memory& memory,
                                                    const KernelInvocation& invocation,
                                                    bool verify_against_dfg) {
  using Result = common::Result<KernelRunResult>;
  const auto& ir = kernel_.ir;
  if (invocation.stream_bases.size() != ir.streams.size()) {
    return Result::error("invocation stream base count mismatch");
  }
  if (invocation.acc_init.size() != ir.accumulators.size()) {
    return Result::error("invocation accumulator init count mismatch");
  }

  // Accumulator state (both MAC-held and fabric-held).
  std::vector<std::uint32_t> acc = invocation.acc_init;

  // Per-run tables: induction-variable initial values and cached live-ins,
  // so the per-iteration paths never touch the live_in hash map.
  iv_init_.assign(ir.iv_regs.size(), 0);
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
    const auto it = invocation.live_in.find(ir.iv_regs[p].first);
    iv_init_[p] = (it != invocation.live_in.end()) ? it->second : 0;
  }
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    if (input_bindings_[i].kind != InputBinding::Kind::kLiveIn) continue;
    const auto it = invocation.live_in.find(input_bindings_[i].a);
    livein_cache_[i] = (it != invocation.live_in.end()) ? it->second : 0;
  }

  KernelRunResult result;
  result.scalar_reason = verify_against_dfg            ? ScalarReason::kVerify
                         : engine_ == EvalEngine::kScalar ? ScalarReason::kForced
                                                          : kernel_reason_;
  unsigned width = 0;
  if (result.scalar_reason == ScalarReason::kNone) {
    width = select_packed_width(invocation);
    if (width == 0) result.scalar_reason = ScalarReason::kStreamHazard;
  }
  std::uint64_t iter = 0;
  if (width != 0) {
    // Full blocks at the selected width, then the remainder as one masked
    // block at the narrowest width that holds it.
    packed_->set_width(width);
    const std::uint64_t block = std::uint64_t{width} * kPackedWordBits;
    for (; iter + block <= invocation.trip; iter += block) {
      run_packed_block(memory, invocation, iter, static_cast<unsigned>(block), acc);
    }
    if (iter != 0) result.packed_width = width;
    if (iter < invocation.trip) {
      const auto rest = static_cast<unsigned>(invocation.trip - iter);
      packed_->set_width(PackedEvaluator::covering_width(rest, width));
      run_packed_block(memory, invocation, iter, rest, acc);
      result.packed_width = std::max(result.packed_width, packed_->width());
      iter = invocation.trip;
    }
    result.packed_iterations = iter;
  }
  for (; iter < invocation.trip; ++iter) {
    run_scalar_iter(memory, invocation, iter, acc, verify_against_dfg);
    ++result.scalar_iterations;
  }

  const unsigned ii = kernel_.initiation_interval();
  result.wcla_cycles = static_cast<std::uint64_t>(ii) * invocation.trip +
                       config_.pipeline_stages() + kStartupCycles;
  result.clock_mhz = config_.fabric_clock_mhz();
  result.time_ns = static_cast<double>(result.wcla_cycles) * 1000.0 / result.clock_mhz;
  result.acc_final = acc;
  return result;
}

void KernelExecutor::run_scalar_iter(sim::Memory& memory, const KernelInvocation& invocation,
                                     std::uint64_t iter, std::vector<std::uint32_t>& acc,
                                     bool verify_against_dfg) {
  const auto& ir = kernel_.ir;
  const auto& netlist = config_.netlist;

  // Accumulator values at iteration start: what the fabric's AccState
  // inputs and the golden model both observe.
  acc_start_of_iter_ = acc;

  // 1. DADG: fetch read-stream taps.
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    const std::uint32_t base =
        invocation.stream_bases[s] +
        static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                   static_cast<std::int64_t>(iter));
    for (unsigned t = 0; t < stream.burst; ++t) {
      const std::uint32_t addr =
          base + t * static_cast<std::uint32_t>(stream.tap_stride_bytes);
      switch (stream.elem_bytes) {
        case 1: tap_values_[s][t] = memory.read8(addr); break;
        case 2: tap_values_[s][t] = memory.read16(addr); break;
        default: tap_values_[s][t] = memory.read32(addr); break;
      }
    }
  }

  // 2. Evaluate fabric + MAC (MAC ops in order, refreshing the fabric
  //    between them because operands may depend on earlier results).
  auto load_inputs = [&] {
    for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
      const InputBinding& binding = input_bindings_[i];
      std::uint32_t word = 0;
      switch (binding.kind) {
        case InputBinding::Kind::kStream:
          word = tap_values_[binding.a][binding.b];
          break;
        case InputBinding::Kind::kLiveIn:
          word = livein_cache_[i];
          break;
        case InputBinding::Kind::kIv:
          word = iv_value(binding.iv_pos, iter);
          break;
        case InputBinding::Kind::kMacResult:
          word = mac_results_[binding.a];
          break;
        case InputBinding::Kind::kAccState:
          word = acc_start_of_iter_[binding.a];
          break;
      }
      inputs_[i] = (word >> binding.bit) & 1u;
    }
  };

  std::fill(mac_results_.begin(), mac_results_.end(), 0);
  load_inputs();
  std::vector<bool> lut_values = netlist.evaluate(inputs_);
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    const std::uint32_t a = read_group_word(mac_a_groups_[m], lut_values);
    const std::uint32_t b = read_group_word(mac_b_groups_[m], lut_values);
    const std::uint32_t product = a * b;
    if (kernel_.mac_ops[m].accumulate) {
      acc[static_cast<std::size_t>(kernel_.mac_ops[m].acc_index)] += product;
    } else {
      mac_results_[m] = product;  // indexed by global MAC-op number
      // Refresh fabric with the new MAC result.
      load_inputs();
      lut_values = netlist.evaluate(inputs_);
    }
  }

  // 3. Stream writes.
  for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
    const auto& out = kernel_.write_outputs[w];
    const auto& stream = ir.streams[out.stream];
    const std::uint32_t base =
        invocation.stream_bases[out.stream] +
        static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                   static_cast<std::int64_t>(iter));
    const std::uint32_t addr =
        base + out.tap * static_cast<std::uint32_t>(stream.tap_stride_bytes);
    const std::uint32_t value = read_group_word(write_groups_[w], lut_values);
    switch (stream.elem_bytes) {
      case 1: memory.write8(addr, static_cast<std::uint8_t>(value)); break;
      case 2: memory.write16(addr, static_cast<std::uint16_t>(value)); break;
      default: memory.write32(addr, value); break;
    }
    if (verify_against_dfg) {
      decompile::Dfg::Inputs golden;
      for (const auto& [reg, value_in] : invocation.live_in) golden.live_in[reg] = value_in;
      for (std::size_t s = 0; s < ir.streams.size(); ++s) {
        for (unsigned t = 0; t < ir.streams[s].burst; ++t) {
          golden.stream_in[(static_cast<std::uint32_t>(s) << 16) | t] = tap_values_[s][t];
        }
      }
      // Accumulator live-ins observe the value at iteration start.
      for (std::size_t k = 0; k < ir.accumulators.size(); ++k) {
        golden.live_in[ir.accumulators[k].reg] = acc_start_of_iter_[k];
      }
      for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
        golden.live_in.erase(ir.iv_regs[p].first);  // iv regs enter the DFG as kIv nodes
        golden.iv[ir.iv_regs[p].first] = iv_value(static_cast<int>(p), iter);
      }
      const std::uint32_t expect = ir.dfg.eval(
          find_write_node(static_cast<unsigned>(out.stream), out.tap), golden);
      std::uint32_t masked = expect;
      if (stream.elem_bytes == 1) masked &= 0xFFu;
      if (stream.elem_bytes == 2) masked &= 0xFFFFu;
      std::uint32_t got = value;
      if (stream.elem_bytes == 1) got &= 0xFFu;
      if (stream.elem_bytes == 2) got &= 0xFFFFu;
      if (got != masked) {
        throw common::InternalError(common::format(
            "fabric/DFG mismatch at iter %llu stream %u tap %u: fabric=0x%x dfg=0x%x",
            static_cast<unsigned long long>(iter), out.stream, out.tap, got, masked));
      }
    }
  }

  // 4. Fabric-held accumulator updates.
  for (const auto& out : kernel_.acc_outputs) {
    if (out.via_mac) continue;
    acc[out.acc_index] = read_group_word(acc_next_groups_[out.acc_index], lut_values);
  }
}

void KernelExecutor::unpack_group(const OutputGroup& group, std::uint64_t* words) const {
  const unsigned width = packed_->width();
  std::fill(words, words + packed_->lanes(), 0);
  for (const OutputBit& ob : group) {
    for (unsigned w = 0; w < width; ++w) {
      words[ob.bit * width + w] = packed_->output(ob.output_index, w);
    }
  }
  common::transpose64_unblocked(words, width);
}

void KernelExecutor::run_packed_block(sim::Memory& memory, const KernelInvocation& invocation,
                                      std::uint64_t iter0, unsigned active,
                                      std::vector<std::uint32_t>& acc) {
  const auto& ir = kernel_.ir;
  const unsigned width = packed_->width();
  const unsigned block_lanes = packed_->lanes();

  // 1. Batched DADG reads: the active iterations of every read tap, loaded
  //    one word per iteration (inactive lanes zero) and block-transposed in
  //    place into lane blocks (the width words at row b*width = the lane
  //    block of tap bit b).
  for (std::size_t s = 0; s < ir.streams.size(); ++s) {
    const auto& stream = ir.streams[s];
    if (stream.is_write) continue;
    for (unsigned t = 0; t < stream.burst; ++t) {
      auto& words = block_taps_[tap_base_[s] + t];
      const std::uint32_t tap_offset =
          invocation.stream_bases[s] + t * static_cast<std::uint32_t>(stream.tap_stride_bytes);
      for (unsigned j = 0; j < active; ++j) {
        const std::uint32_t addr =
            tap_offset +
            static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                       static_cast<std::int64_t>(iter0 + j));
        switch (stream.elem_bytes) {
          case 1: words[j] = memory.read8(addr); break;
          case 2: words[j] = memory.read16(addr); break;
          default: words[j] = memory.read32(addr); break;
        }
      }
      std::fill(words.begin() + active, words.begin() + block_lanes, 0);
      common::transpose64_blocked(words.data(), width);
    }
  }

  // Induction-variable lane blocks, one row set per iv reg.
  for (std::size_t p = 0; p < ir.iv_regs.size(); ++p) {
    auto& planes = iv_planes_[p];
    for (unsigned j = 0; j < active; ++j) planes[j] = iv_value(static_cast<int>(p), iter0 + j);
    std::fill(planes.begin() + active, planes.begin() + block_lanes, 0);
    common::transpose64_blocked(planes.data(), width);
  }

  // 2. Wire the lane blocks to the fabric inputs. MAC-result inputs are
  //    set at their stage barrier below.
  for (std::size_t i = 0; i < input_bindings_.size(); ++i) {
    const InputBinding& binding = input_bindings_[i];
    switch (binding.kind) {
      case InputBinding::Kind::kStream:
        packed_->set_input_block(
            i, &block_taps_[static_cast<std::size_t>(binding.tap_index)][binding.bit * width]);
        break;
      case InputBinding::Kind::kLiveIn: {
        const std::uint64_t lane = ((livein_cache_[i] >> binding.bit) & 1u) ? ~0ull : 0ull;
        for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, lane);
        break;
      }
      case InputBinding::Kind::kIv:
        if (binding.iv_pos >= 0) {
          packed_->set_input_block(
              i, &iv_planes_[static_cast<std::size_t>(binding.iv_pos)][binding.bit * width]);
        } else {
          for (unsigned w = 0; w < width; ++w) packed_->set_input(i, w, 0);
        }
        break;
      case InputBinding::Kind::kMacResult:
        break;
      case InputBinding::Kind::kAccState:
        throw common::InternalError("executor: accumulator feedback on the packed path");
    }
  }

  // 3. Evaluate stage by stage with each MAC as a barrier, in MAC order
  //    (the scalar engine's order): run the stages MAC m's operands need,
  //    multiply per lane, then either sum the active lanes' products into
  //    the accumulator (in iteration order) or transpose them into the
  //    MAC-result inputs that stage m reads.
  std::array<std::uint64_t, kMaxPackedLanes> words_a{};  // operands A, then products
  std::array<std::uint64_t, kMaxPackedLanes> words_b{};
  int next_stage = PackedEvaluator::kBaseStage;
  for (std::size_t m = 0; m < kernel_.mac_ops.size(); ++m) {
    const int stage = static_cast<int>(m);
    packed_->run(next_stage, stage - 1);
    next_stage = stage;
    unpack_group(mac_a_groups_[m], words_a.data());
    unpack_group(mac_b_groups_[m], words_b.data());
    const synth::MacOp& op = kernel_.mac_ops[m];
    if (op.accumulate) {
      std::uint32_t sum = 0;
      for (unsigned j = 0; j < active; ++j) {
        sum += static_cast<std::uint32_t>(words_a[j]) *
               static_cast<std::uint32_t>(words_b[j]);
      }
      acc[static_cast<std::size_t>(op.acc_index)] += sum;
      continue;
    }
    for (unsigned j = 0; j < block_lanes; ++j) {
      const std::uint32_t product = static_cast<std::uint32_t>(words_a[j]) *
                                    static_cast<std::uint32_t>(words_b[j]);
      words_a[j] = product;
    }
    common::transpose64_blocked(words_a.data(), width);
    for (const auto& [input, bit] : mac_result_bits_[m]) {
      packed_->set_input_block(input, &words_a[bit * width]);
    }
  }
  packed_->run(next_stage, packed_->num_stages() - 1);

  // 4. Stream writes of the active lanes, in iteration-major order (the
  //    scalar engine's order, in case two write taps alias).
  if (!kernel_.write_outputs.empty()) {
    for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
      unpack_group(write_groups_[w], write_words_[w].data());
    }
    for (unsigned j = 0; j < active; ++j) {
      for (std::size_t w = 0; w < kernel_.write_outputs.size(); ++w) {
        const auto& out = kernel_.write_outputs[w];
        const auto& stream = ir.streams[out.stream];
        const std::uint32_t addr =
            invocation.stream_bases[out.stream] +
            static_cast<std::uint32_t>(static_cast<std::int64_t>(stream.stride_bytes) *
                                       static_cast<std::int64_t>(iter0 + j)) +
            out.tap * static_cast<std::uint32_t>(stream.tap_stride_bytes);
        const std::uint32_t value = static_cast<std::uint32_t>(write_words_[w][j]);
        switch (stream.elem_bytes) {
          case 1: memory.write8(addr, static_cast<std::uint8_t>(value)); break;
          case 2: memory.write16(addr, static_cast<std::uint16_t>(value)); break;
          default: memory.write32(addr, value); break;
        }
      }
    }
  }

  // 5. Fabric-held accumulator outputs without state feedback recompute the
  //    same function every iteration; the final value is the last active
  //    lane's.
  const unsigned last_word = (active - 1) / kPackedWordBits;
  const unsigned last_bit = (active - 1) % kPackedWordBits;
  for (const auto& out : kernel_.acc_outputs) {
    if (out.via_mac) continue;
    std::uint32_t word = 0;
    for (const OutputBit& ob : acc_next_groups_[out.acc_index]) {
      const std::uint64_t lane = packed_->output(ob.output_index, last_word);
      word |= static_cast<std::uint32_t>((lane >> last_bit) & 1u) << ob.bit;
    }
    acc[out.acc_index] = word;
  }
}

}  // namespace warp::hwsim
