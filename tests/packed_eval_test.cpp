// Packed-evaluation engine tests: the lane-block engine must agree
// bit-exactly with the scalar reference on random mapped netlists, on
// hand-built netlists exercising constant/wire folding and MAC stage
// barriers, and on full kernel executions at every trip (masked partial
// blocks included); and the experiment harness must stay
// golden-output-exact now that the packed engine backs the default
// executor path.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "decompile/cfg.hpp"
#include "decompile/extract.hpp"
#include "decompile/liveness.hpp"
#include "experiments/harness.hpp"
#include "hwsim/executor.hpp"
#include "hwsim/packed_eval.hpp"
#include "isa/assembler.hpp"
#include "pnr/pnr.hpp"
#include "techmap/techmap.hpp"

namespace warp::hwsim {
namespace {

synth::GateNetlist random_gate_netlist(common::Rng& rng, unsigned inputs, unsigned gates,
                                       unsigned outputs) {
  synth::GateNetlist net;
  std::vector<int> pool = {net.const0(), net.const1()};
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(net.add_input("x" + std::to_string(i)));
  for (unsigned g = 0; g < gates; ++g) {
    const int a = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    const int b = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
    int id;
    switch (rng.below(4)) {
      case 0: id = net.gate_and(a, b); break;
      case 1: id = net.gate_or(a, b); break;
      case 2: id = net.gate_xor(a, b); break;
      default: id = net.gate_not(a); break;
    }
    pool.push_back(id);
  }
  for (unsigned o = 0; o < outputs; ++o) {
    net.add_output("o" + std::to_string(o),
                   pool[pool.size() - 1 - (o % std::min<std::size_t>(pool.size(), 8))]);
  }
  return net;
}

/// Drive `frames` through both engines and require bit-exact agreement at
/// every supported lane-block width (64/128/256 frames per packed pass).
void expect_engines_agree(const techmap::LutNetlist& netlist,
                          const std::vector<std::vector<bool>>& frames) {
  PackedEvaluator packed(netlist);
  ASSERT_EQ(packed.num_inputs(), netlist.primary_inputs.size());
  ASSERT_EQ(packed.num_outputs(), netlist.outputs.size());

  std::vector<std::vector<bool>> scalar_out(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    scalar_out[f] = netlist.evaluate_outputs(frames[f]);
  }

  for (const unsigned width : {1u, 2u, 4u}) {
    packed.set_width(width);
    ASSERT_EQ(packed.lanes(), width * kPackedWordBits);
    const std::size_t block_lanes = packed.lanes();
    for (std::size_t block = 0; block < frames.size(); block += block_lanes) {
      const std::size_t n = std::min<std::size_t>(block_lanes, frames.size() - block);
      for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
        for (unsigned w = 0; w < width; ++w) {
          std::uint64_t lane = 0;
          for (std::size_t j = 0; j < kPackedWordBits; ++j) {
            const std::size_t f = block + w * kPackedWordBits + j;
            if (f < frames.size() && frames[f][i]) lane |= 1ull << j;
          }
          packed.set_input(i, w, lane);
        }
      }
      packed.run();
      for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t lane = packed.output(o, static_cast<unsigned>(j / kPackedWordBits));
          ASSERT_EQ(((lane >> (j % kPackedWordBits)) & 1u) != 0, scalar_out[block + j][o])
              << "width " << width << " output " << o << " frame " << block + j;
        }
      }
    }
  }
}

TEST(PackedEval, MatchesScalarOnRandomMappedNetlists) {
  common::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    auto net = random_gate_netlist(rng, 10, 80, 8);
    auto mapped = techmap::techmap(net);
    ASSERT_TRUE(mapped.is_ok()) << mapped.message();

    std::vector<std::vector<bool>> frames(1000);
    for (auto& frame : frames) {
      frame.resize(mapped.value().primary_inputs.size());
      for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = rng.chance(0.5);
    }
    expect_engines_agree(mapped.value(), frames);

    // The mapped scalar reference itself must agree with the gate level, so
    // packed == mapped == gates transitively.
    for (int f = 0; f < 16; ++f) {
      const auto& frame = frames[static_cast<std::size_t>(f)];
      const auto gate_values = net.evaluate(frame);
      const auto lut_out = mapped.value().evaluate_outputs(frame);
      for (std::size_t o = 0; o < net.outputs().size(); ++o) {
        ASSERT_EQ(lut_out[o],
                  gate_values[static_cast<std::size_t>(net.outputs()[o].gate)]);
      }
    }
  }
}

TEST(PackedEval, FoldsConstantsAndWires) {
  // Hand-built netlist exercising every folding case: constant fanins,
  // constant LUTs, wire LUTs, inverters, and outputs that reference
  // constants and primary inputs directly.
  using techmap::NetRef;
  techmap::LutNetlist netlist;
  netlist.primary_inputs = {"a", "b"};
  const NetRef in_a{NetRef::Kind::kPrimaryInput, 0};
  const NetRef in_b{NetRef::Kind::kPrimaryInput, 1};
  const NetRef c0{NetRef::Kind::kConst0, -1};
  const NetRef c1{NetRef::Kind::kConst1, -1};

  techmap::Lut and_c1;  // a AND 1 -> wire to a after folding
  and_c1.inputs = {in_a, c1, NetRef{}};
  and_c1.num_inputs = 2;
  and_c1.truth = 0x8;  // AND
  netlist.luts.push_back(and_c1);

  techmap::Lut or_c1;  // b OR 1 -> constant 1
  or_c1.inputs = {in_b, c1, NetRef{}};
  or_c1.num_inputs = 2;
  or_c1.truth = 0xE;  // OR
  netlist.luts.push_back(or_c1);

  techmap::Lut inv;  // NOT of the folded wire
  inv.inputs = {NetRef{NetRef::Kind::kLut, 0}, NetRef{}, NetRef{}};
  inv.num_inputs = 1;
  inv.truth = 0x1;
  netlist.luts.push_back(inv);

  techmap::Lut xo;  // (wire a) XOR (const 1 lut) XOR b
  xo.inputs = {NetRef{NetRef::Kind::kLut, 0}, NetRef{NetRef::Kind::kLut, 1}, in_b};
  xo.num_inputs = 3;
  xo.truth = 0x96;  // 3-input XOR
  netlist.luts.push_back(xo);

  netlist.outputs.push_back({"wire", NetRef{NetRef::Kind::kLut, 0}});
  netlist.outputs.push_back({"konst", NetRef{NetRef::Kind::kLut, 1}});
  netlist.outputs.push_back({"inv", NetRef{NetRef::Kind::kLut, 2}});
  netlist.outputs.push_back({"xor3", NetRef{NetRef::Kind::kLut, 3}});
  netlist.outputs.push_back({"pass", in_b});
  netlist.outputs.push_back({"zero", c0});

  PackedEvaluator packed(netlist);
  // Folding leaves only the inverter and the xor as real nodes.
  EXPECT_EQ(packed.node_count(), 2u);

  common::Rng rng(11);
  std::vector<std::vector<bool>> frames(256);
  for (auto& frame : frames) frame = {rng.chance(0.5), rng.chance(0.5)};
  expect_engines_agree(netlist, frames);
}

/// Random LutNetlist built directly (not through techmap), with constant
/// and primary-input fanins sprinkled in so folding paths stay covered.
techmap::LutNetlist random_lut_netlist(common::Rng& rng, unsigned num_inputs, unsigned num_luts,
                                       unsigned num_outputs) {
  using techmap::NetRef;
  techmap::LutNetlist netlist;
  for (unsigned i = 0; i < num_inputs; ++i) {
    netlist.primary_inputs.push_back("x" + std::to_string(i));
  }
  for (unsigned l = 0; l < num_luts; ++l) {
    techmap::Lut lut;
    lut.num_inputs = 1 + rng.below(techmap::kLutInputs);
    for (unsigned k = 0; k < lut.num_inputs; ++k) {
      switch (rng.below(8)) {
        case 0: lut.inputs[k] = NetRef{NetRef::Kind::kConst0, -1}; break;
        case 1: lut.inputs[k] = NetRef{NetRef::Kind::kConst1, -1}; break;
        case 2: case 3:
          lut.inputs[k] =
              NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(rng.below(num_inputs))};
          break;
        default:
          lut.inputs[k] = (l == 0)
              ? NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(rng.below(num_inputs))}
              : NetRef{NetRef::Kind::kLut, static_cast<int>(rng.below(l))};
          break;
      }
    }
    lut.truth = static_cast<std::uint8_t>(rng.below(1u << (1u << lut.num_inputs)));
    netlist.luts.push_back(lut);
  }
  for (unsigned o = 0; o < num_outputs; ++o) {
    netlist.outputs.push_back(
        {"o" + std::to_string(o),
         NetRef{NetRef::Kind::kLut, static_cast<int>(rng.below(num_luts))}});
  }
  return netlist;
}

std::vector<std::vector<bool>> random_frames(common::Rng& rng, std::size_t count,
                                             std::size_t inputs) {
  std::vector<std::vector<bool>> frames(count);
  for (auto& frame : frames) {
    frame.resize(inputs);
    for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = rng.chance(0.5);
  }
  return frames;
}

TEST(PackedEval, PropertyRandomLutNetlists) {
  common::Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const unsigned num_inputs = 2 + rng.below(8);
    const auto netlist = random_lut_netlist(rng, num_inputs, 1 + rng.below(40), 6);
    expect_engines_agree(netlist, random_frames(rng, 1000, num_inputs));
  }
}

TEST(PackedEval, StagedRunsMatchScalarWithMacResultInputs) {
  // Random netlists whose last inputs stand in for MAC results. At barrier
  // m, staged input m is recomputed from a netlist output of an earlier
  // stage (the MAC operand) mixed with per-frame data. The scalar side
  // re-evaluates the whole netlist at every barrier, as the executor's
  // scalar engine does; the packed side runs each stage range once. They
  // must agree on every output at every width, with a partial last block.
  common::Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    const unsigned base_inputs = 2 + rng.below(6);
    const unsigned stages = 1 + rng.below(4);
    const unsigned num_inputs = base_inputs + stages;
    const auto netlist = random_lut_netlist(rng, num_inputs, 8 + rng.below(60), 10);
    std::vector<int> input_stage(num_inputs, PackedEvaluator::kBaseStage);
    for (unsigned m = 0; m < stages; ++m) input_stage[base_inputs + m] = static_cast<int>(m);
    PackedEvaluator packed(netlist, input_stage);
    ASSERT_EQ(packed.num_stages(), static_cast<int>(stages));

    // Barrier m's operand: a random output of a stage below m, if any.
    std::vector<int> operand(stages, -1);
    for (unsigned m = 0; m < stages; ++m) {
      std::vector<int> candidates;
      for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
        if (packed.output_stage(o) < static_cast<int>(m)) candidates.push_back(static_cast<int>(o));
      }
      if (!candidates.empty()) {
        operand[m] = candidates[rng.below(static_cast<std::uint32_t>(candidates.size()))];
      }
    }

    const auto frames = random_frames(rng, 300, num_inputs);
    std::vector<std::vector<bool>> expect(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      std::vector<bool> in = frames[f];
      for (unsigned m = 0; m < stages; ++m) in[base_inputs + m] = false;
      for (unsigned m = 0; m < stages; ++m) {
        const bool from_operand =
            operand[m] >= 0 && netlist.evaluate_outputs(in)[static_cast<std::size_t>(operand[m])];
        in[base_inputs + m] = from_operand != frames[f][base_inputs + m];
      }
      expect[f] = netlist.evaluate_outputs(in);
    }

    for (const unsigned width : {1u, 2u, 4u}) {
      packed.set_width(width);
      for (std::size_t block = 0; block < frames.size(); block += packed.lanes()) {
        auto frame_lanes = [&](std::size_t input, unsigned w) {
          std::uint64_t lane = 0;
          for (unsigned j = 0; j < kPackedWordBits; ++j) {
            const std::size_t f = block + w * kPackedWordBits + j;
            if (f < frames.size() && frames[f][input]) lane |= 1ull << j;
          }
          return lane;
        };
        for (unsigned i = 0; i < base_inputs; ++i) {
          for (unsigned w = 0; w < width; ++w) packed.set_input(i, w, frame_lanes(i, w));
        }
        int next_stage = PackedEvaluator::kBaseStage;
        for (unsigned m = 0; m < stages; ++m) {
          packed.run(next_stage, static_cast<int>(m) - 1);
          next_stage = static_cast<int>(m);
          for (unsigned w = 0; w < width; ++w) {
            const std::uint64_t from_operand =
                operand[m] >= 0 ? packed.output(static_cast<std::size_t>(operand[m]), w) : 0;
            packed.set_input(base_inputs + m, w, from_operand ^ frame_lanes(base_inputs + m, w));
          }
        }
        packed.run(next_stage, packed.num_stages() - 1);
        const std::size_t n = std::min<std::size_t>(packed.lanes(), frames.size() - block);
        for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
          for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t lane =
                packed.output(o, static_cast<unsigned>(j / kPackedWordBits));
            ASSERT_EQ(((lane >> (j % kPackedWordBits)) & 1u) != 0, expect[block + j][o])
                << "trial " << trial << " width " << width << " output " << o << " frame "
                << block + j;
          }
        }
      }
    }
  }
}

TEST(PackedEval, RejectsNonTopologicalLutArrays) {
  // A LUT whose fanin references a later LUT would silently read stale
  // lanes in a forward evaluation pass; the constructor must refuse it.
  using techmap::NetRef;
  techmap::LutNetlist netlist;
  netlist.primary_inputs = {"a"};
  techmap::Lut forward;  // reads LUT 1 before it is defined
  forward.inputs = {NetRef{NetRef::Kind::kLut, 1}, NetRef{}, NetRef{}};
  forward.num_inputs = 1;
  forward.truth = 0x1;
  netlist.luts.push_back(forward);
  techmap::Lut inv;
  inv.inputs = {NetRef{NetRef::Kind::kPrimaryInput, 0}, NetRef{}, NetRef{}};
  inv.num_inputs = 1;
  inv.truth = 0x1;
  netlist.luts.push_back(inv);
  netlist.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 0}});
  EXPECT_THROW(PackedEvaluator{netlist}, common::InternalError);

  // Out-of-range references are rejected too, not read out of bounds.
  techmap::LutNetlist oob;
  oob.primary_inputs = {"a"};
  techmap::Lut bad;
  bad.inputs = {NetRef{NetRef::Kind::kLut, 7}, NetRef{}, NetRef{}};
  bad.num_inputs = 1;
  bad.truth = 0x1;
  oob.luts.push_back(bad);
  oob.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 0}});
  EXPECT_THROW(PackedEvaluator{oob}, common::InternalError);
}

TEST(PackedEval, ChooseWidthHeuristic) {
  // Thin plans (wire-dominated kernels) are IO-bound: auto stays at one
  // word regardless of trip. Plans with real logic widen with the trip,
  // but never so wide that fewer than two full passes fit.
  common::Rng rng(5);
  auto small = techmap::techmap(random_gate_netlist(rng, 8, 40, 4));
  ASSERT_TRUE(small.is_ok());
  PackedEvaluator small_eval(small.value());
  ASSERT_LT(small_eval.node_count(), 192u);
  EXPECT_EQ(small_eval.choose_width(1u << 20), 1u);

  // A netlist whose every LUT survives folding (3-input XOR chains).
  using techmap::NetRef;
  techmap::LutNetlist big;
  big.primary_inputs = {"x0", "x1", "x2"};
  for (int l = 0; l < 400; ++l) {
    techmap::Lut lut;
    lut.num_inputs = 3;
    lut.truth = 0x96;  // 3-input XOR: never constant, never a wire
    for (unsigned k = 0; k < 3; ++k) {
      lut.inputs[k] = (l == 0) ? NetRef{NetRef::Kind::kPrimaryInput, static_cast<int>(k)}
                               : NetRef{NetRef::Kind::kLut, l - 1 - static_cast<int>(k) % l};
    }
    big.luts.push_back(lut);
  }
  big.outputs.push_back({"o", NetRef{NetRef::Kind::kLut, 399}});
  PackedEvaluator big_eval(big);
  ASSERT_GE(big_eval.node_count(), 192u);
  EXPECT_EQ(big_eval.choose_width(100), 1u);      // < 2 passes at W=2
  EXPECT_EQ(big_eval.choose_width(300), 2u);      // 2 passes at W=2, not at W=4
  EXPECT_EQ(big_eval.choose_width(1u << 20), 4u); // plenty of trip
  for (const std::uint64_t trip : {0ull, 63ull, 512ull, 1ull << 30}) {
    EXPECT_TRUE(PackedEvaluator::width_supported(big_eval.choose_width(trip))) << trip;
  }
}

// ---- Full-kernel equivalence through the executor -------------------------

struct Built {
  std::shared_ptr<synth::HwKernel> kernel;
  std::shared_ptr<fabric::FabricConfig> config;
  decompile::KernelIR ir;
};

Built build_kernel(const std::string& source, const std::string& label) {
  auto prog = isa::assemble(source, isa::CpuConfig::full());
  EXPECT_TRUE(prog.is_ok()) << prog.message();
  const std::uint32_t target = prog.value().label(label);
  auto cfg = decompile::Cfg::build(decompile::decode_program(prog.value().words));
  std::uint32_t branch = 0;
  for (const auto& fi : cfg.instrs()) {
    if (fi.valid && isa::is_conditional_branch(fi.instr.op) &&
        fi.pc + static_cast<std::uint32_t>(fi.imm) == target && fi.pc > target) {
      branch = fi.pc;
    }
  }
  decompile::Liveness live(cfg);
  auto ir = decompile::extract_kernel(cfg, live, branch, target);
  EXPECT_TRUE(ir.is_ok()) << ir.message();
  synth::SynthOptions so;
  so.csd_max_terms = 2;
  auto kernel = synth::synthesize(ir.value(), so);
  EXPECT_TRUE(kernel.is_ok()) << kernel.message();
  auto mapped = techmap::techmap(kernel.value().fabric);
  EXPECT_TRUE(mapped.is_ok()) << mapped.message();
  auto pnr = pnr::place_and_route(mapped.value(), fabric::FabricGeometry());
  EXPECT_TRUE(pnr.is_ok()) << pnr.message();
  Built built;
  built.ir = ir.value();
  built.kernel = std::make_shared<synth::HwKernel>(std::move(kernel).value());
  built.config = std::make_shared<fabric::FabricConfig>(std::move(pnr).value().config);
  return built;
}

constexpr const char* kTransform = R"(
  li r2, 0x1000
  li r3, 0x4000
  li r4, 200
loop:
  lwi r5, r2, 0
  bslli r6, r5, 3
  xori r6, r6, 0x5A5A
  addi r6, r6, 13
  swi r6, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

TEST(PackedExecutor, MatchesScalarEngineOnKernelRun) {
  auto built = build_kernel(kTransform, "loop");
  KernelInvocation invocation;
  invocation.trip = 200;  // three full blocks + one masked 8-lane block
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x4000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[3] = 0x4000;
  invocation.live_in[4] = 200;

  common::Rng rng(3);
  sim::Memory mem_packed(1 << 16);
  sim::Memory mem_scalar(1 << 16);
  for (unsigned i = 0; i < 200; ++i) {
    const std::uint32_t v = rng.next_u32();
    mem_packed.write32(0x1000 + 4 * i, v);
    mem_scalar.write32(0x1000 + 4 * i, v);
  }

  KernelExecutor packed_exec(*built.kernel, *built.config);
  ASSERT_TRUE(packed_exec.packed_supported());
  auto packed_result = packed_exec.run(mem_packed, invocation);
  ASSERT_TRUE(packed_result.is_ok()) << packed_result.message();
  EXPECT_EQ(packed_result.value().packed_iterations, 200u);
  EXPECT_EQ(packed_result.value().scalar_iterations, 0u);
  EXPECT_EQ(packed_result.value().scalar_reason, ScalarReason::kNone);

  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();
  EXPECT_EQ(scalar_result.value().packed_iterations, 0u);
  EXPECT_EQ(scalar_result.value().scalar_reason, ScalarReason::kForced);

  for (unsigned i = 0; i < 200; ++i) {
    ASSERT_EQ(mem_packed.read32(0x4000 + 4 * i), mem_scalar.read32(0x4000 + 4 * i)) << i;
  }
  EXPECT_EQ(packed_result.value().acc_final, scalar_result.value().acc_final);
  EXPECT_EQ(packed_result.value().wcla_cycles, scalar_result.value().wcla_cycles);
}

TEST(PackedExecutor, WidthSweepMatchesScalarEngine) {
  // Pinned lane-block widths: every width must agree with the scalar
  // engine bit-exactly and run the whole trip packed: full blocks of
  // width*64 plus one masked block for the remainder.
  auto built = build_kernel(kTransform, "loop");
  KernelInvocation invocation;
  invocation.trip = 600;  // W=4: two 256-lane blocks + an 88-lane masked block
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x4000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[3] = 0x4000;
  invocation.live_in[4] = 600;

  common::Rng rng(17);
  std::vector<std::uint32_t> data(600);
  for (auto& v : data) v = rng.next_u32();

  sim::Memory mem_scalar(1 << 16);
  for (unsigned i = 0; i < 600; ++i) mem_scalar.write32(0x1000 + 4 * i, data[i]);
  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();

  for (const unsigned width : {1u, 2u, 4u}) {
    sim::Memory mem(1 << 16);
    for (unsigned i = 0; i < 600; ++i) mem.write32(0x1000 + 4 * i, data[i]);
    KernelExecutor exec(*built.kernel, *built.config, hwsim::PackedOptions{width});
    ASSERT_TRUE(exec.packed_supported());
    auto result = exec.run(mem, invocation);
    ASSERT_TRUE(result.is_ok()) << result.message();
    EXPECT_EQ(result.value().packed_iterations, 600u) << width;
    EXPECT_EQ(result.value().packed_width, width);
    EXPECT_EQ(result.value().scalar_iterations, 0u) << width;
    for (unsigned i = 0; i < 600; ++i) {
      ASSERT_EQ(mem.read32(0x4000 + 4 * i), mem_scalar.read32(0x4000 + 4 * i))
          << "width " << width << " word " << i;
    }
    EXPECT_EQ(result.value().acc_final, scalar_result.value().acc_final);
    EXPECT_EQ(result.value().wcla_cycles, scalar_result.value().wcla_cycles);
  }

  // set_packed_options re-pins on a live executor and validates its input.
  KernelExecutor exec(*built.kernel, *built.config);
  EXPECT_THROW(exec.set_packed_options(hwsim::PackedOptions{3}), common::InternalError);
  EXPECT_THROW((KernelExecutor{*built.kernel, *built.config, hwsim::PackedOptions{8}}),
               common::InternalError);
}

TEST(PackedExecutor, InPlaceTransformStaysPacked) {
  // Read and write the same array in place: the hazard analysis must prove
  // the block-batched engine safe (same address read-then-written within
  // each iteration only).
  constexpr const char* kInPlace = R"(
    li r2, 0x1000
    li r4, 150
  loop:
    lwi r5, r2, 0
    xori r5, r5, 0x3C3C
    swi r5, r2, 0
    addi r2, r2, 4
    addi r4, r4, -1
    bne r4, loop
    halt
  )";
  auto built = build_kernel(kInPlace, "loop");
  KernelInvocation invocation;
  invocation.trip = 150;
  invocation.stream_bases.assign(built.ir.streams.size(), 0x1000);
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[4] = 150;

  sim::Memory mem(1 << 16);
  for (unsigned i = 0; i < 150; ++i) mem.write32(0x1000 + 4 * i, i * 2654435761u);

  KernelExecutor executor(*built.kernel, *built.config);
  auto result = executor.run(mem, invocation);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().packed_iterations, 150u);
  for (unsigned i = 0; i < 150; ++i) {
    EXPECT_EQ(mem.read32(0x1000 + 4 * i), (i * 2654435761u) ^ 0x3C3Cu) << i;
  }
}

TEST(PackedExecutor, SubElementStrideFallsBackToScalar) {
  // In-place word loop advancing 2 bytes per iteration: the write of
  // iteration i partially overlaps the read of iteration i+1 (no exact
  // address collision, just byte-range overlap), so the packed engine must
  // refuse the block batching and match the scalar engine exactly.
  constexpr const char* kOverlapping = R"(
    li r2, 0x1000
    li r4, 150
  loop:
    lwi r5, r2, 0
    xori r5, r5, 0x7711
    swi r5, r2, 0
    addi r2, r2, 2
    addi r4, r4, -1
    bne r4, loop
    halt
  )";
  auto built = build_kernel(kOverlapping, "loop");
  KernelInvocation invocation;
  invocation.trip = 150;
  invocation.stream_bases.assign(built.ir.streams.size(), 0x1000);
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  invocation.live_in[2] = 0x1000;
  invocation.live_in[4] = 150;

  sim::Memory mem_scalar(1 << 16);
  common::Rng seed_rng(9);
  for (unsigned i = 0; i < 200; ++i) {
    mem_scalar.write32(0x1000 + 4 * i, seed_rng.next_u32());
  }

  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  auto scalar_result = scalar_exec.run(mem_scalar, invocation);
  ASSERT_TRUE(scalar_result.is_ok()) << scalar_result.message();

  // The hazard must hold at auto and at every pinned width: the write of
  // iteration i partially overlaps the read of i+1 no matter how wide the
  // block is.
  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    // Fresh copy of the original data (the scalar run transformed its own
    // copy in place).
    sim::Memory mem_auto(1 << 16);
    common::Rng rng(9);
    for (unsigned i = 0; i < 200; ++i) mem_auto.write32(0x1000 + 4 * i, rng.next_u32());
    KernelExecutor exec(*built.kernel, *built.config, hwsim::PackedOptions{width});
    auto result = exec.run(mem_auto, invocation);
    ASSERT_TRUE(result.is_ok()) << result.message();
    EXPECT_EQ(result.value().packed_iterations, 0u) << width;  // hazard: stays scalar
    EXPECT_EQ(result.value().packed_width, 0u) << width;
    EXPECT_EQ(result.value().scalar_reason, ScalarReason::kStreamHazard) << width;
    for (unsigned i = 0; i < 200; ++i) {
      ASSERT_EQ(mem_auto.read32(0x1000 + 4 * i), mem_scalar.read32(0x1000 + 4 * i))
          << "width " << width << " word " << i;
    }
  }
}

TEST(PackedExecutor, HarnessBenchmarksStayGolden) {
  // Regression for the whole methodology: all six paper workloads must
  // still report ok (golden outputs bit-exact on both runs) with the packed
  // engine backing the default executor path.
  const auto results = experiments::run_all_benchmarks(experiments::default_options());
  ASSERT_EQ(results.size(), 6u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
    EXPECT_TRUE(result.warped) << result.name << ": " << result.warp_detail;
  }
}

TEST(PackedExecutor, FirEngagesWideAutoWidthEndToEnd) {
  // fir exists precisely to drive the packed engine's wide widths through
  // the whole executor: LUT-heavy (hundreds of surviving plan nodes, above
  // the auto mode's thin-plan cutoff) and feedback-free (no accumulators,
  // no MAC, no in-place hazard), with a long trip. Auto mode must therefore
  // pick a lane block wider than one word — no other registered workload
  // reaches W>1 end-to-end without pinning.
  const auto& fir = workloads::workload_by_name("fir");
  auto flowed = experiments::flow_workload(fir, experiments::default_options(), 1u << 20);
  ASSERT_TRUE(flowed.is_ok()) << flowed.message();
  KernelExecutor* exec = flowed.value().system->wcla().executor();
  ASSERT_TRUE(exec->packed_supported()) << "fir must be packed-eligible";
  EXPECT_GE(exec->packed_node_count(), 192u) << "fir must be LUT-heavy";
  sim::Memory& mem = flowed.value().system->data_mem();
  auto result = exec->run(mem, flowed.value().invocation);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_GT(result.value().packed_width, 1u) << "auto mode stayed narrow";
  EXPECT_GT(result.value().packed_iterations, 0u);
}

TEST(PackedExecutor, AllWorkloadsBitExactAtEveryWidth) {
  // Acceptance gate for the lane-block engine: every registered workload
  // (the paper kernels plus crc and fir) is run through the full warp flow,
  // then its captured invocation is re-executed at every pinned width and
  // in auto mode and compared word-for-word against the scalar reference.
  // The accumulator-state recurrences (canrdr, crc) must fall back to the
  // scalar engine at every width, say why, and still match; every other
  // kernel, idct's MAC-staged plan included, must run entirely packed.
  for (const auto& workload : workloads::extended_workloads()) {
    const bool recurrence = workload.name == "canrdr" || workload.name == "crc";
    // Full flow, then two invocations: the stub's own (the short trip the
    // paper flow really runs) and one with the trip stretched (within the
    // data BRAM, keeping packed eligibility) so wide blocks engage.
    auto flowed =
        experiments::flow_workload(workload, experiments::default_options(), 2048);
    ASSERT_TRUE(flowed.is_ok()) << flowed.message();
    KernelExecutor* exec = flowed.value().system->wcla().executor();
    sim::Memory& mem = flowed.value().system->data_mem();
    const KernelInvocation real = flowed.value().system->wcla().invocation();
    const std::vector<std::uint32_t> snapshot = mem.snapshot_words();

    for (const KernelInvocation* invocation : {&real, &flowed.value().invocation}) {
      const std::string label = workload.name + " trip " + std::to_string(invocation->trip);
      mem.load_words(0, snapshot);
      exec->set_engine(KernelExecutor::EvalEngine::kScalar);
      auto scalar_result = exec->run(mem, *invocation);
      ASSERT_TRUE(scalar_result.is_ok()) << label;
      const std::uint64_t scalar_sum = mem.checksum_words();
      exec->set_engine(KernelExecutor::EvalEngine::kAuto);

      for (const unsigned width : {0u, 1u, 2u, 4u}) {
        mem.load_words(0, snapshot);
        exec->set_packed_options(hwsim::PackedOptions{width});
        auto result = exec->run(mem, *invocation);
        ASSERT_TRUE(result.is_ok()) << label << " width " << width;
        EXPECT_EQ(mem.checksum_words(), scalar_sum) << label << " width " << width;
        EXPECT_EQ(result.value().acc_final, scalar_result.value().acc_final)
            << label << " width " << width;
        EXPECT_EQ(exec->packed_supported(), !recurrence) << label;
        EXPECT_EQ(result.value().scalar_reason,
                  recurrence ? ScalarReason::kAccFeedback : ScalarReason::kNone)
            << label << " width " << width;
        if (!exec->packed_supported()) {
          EXPECT_EQ(result.value().packed_iterations, 0u)
              << label << " must stay on the scalar fallback";
        } else {
          EXPECT_EQ(result.value().scalar_iterations, 0u) << label << " width " << width;
        }
      }
    }
  }
}


/// Memory image and result of one executor run on a copy of `image`.
struct EngineRun {
  std::vector<std::uint32_t> memory;
  KernelRunResult result;
};

EngineRun run_on_copy(KernelExecutor& exec, const std::vector<std::uint32_t>& image,
                      const KernelInvocation& invocation) {
  sim::Memory mem(image.size() * 4);
  mem.load_words(0, image);
  auto result = exec.run(mem, invocation);
  EXPECT_TRUE(result.is_ok()) << result.message();
  return {mem.snapshot_words(), result.is_ok() ? result.value() : KernelRunResult{}};
}

/// Require a packed-engine run to match the scalar reference run exactly.
void expect_same_run(const EngineRun& packed, const EngineRun& scalar, const std::string& label) {
  EXPECT_EQ(packed.memory, scalar.memory) << label;
  EXPECT_EQ(packed.result.acc_final, scalar.result.acc_final) << label;
  EXPECT_EQ(packed.result.wcla_cycles, scalar.result.wcla_cycles) << label;
}

constexpr const char* kTwoMacs = R"(
  li r2, 0x1000
  li r3, 0x4000
  li r4, 100
loop:
  lwi r5, r2, 0
  mul r6, r5, r5
  xori r6, r6, 0x5A5A
  mul r7, r6, r5
  swi r7, r3, 0
  addi r2, r2, 4
  addi r3, r3, 4
  addi r4, r4, -1
  bne r4, loop
  halt
)";

/// Swap MAC ops 0 and 1: their HwKernel entries and every netlist port
/// that names them (operand outputs and result inputs).
void swap_first_two_macs(synth::HwKernel& kernel, techmap::LutNetlist& netlist) {
  std::swap(kernel.mac_ops[0], kernel.mac_ops[1]);
  auto rename = [](std::string& name) {
    const techmap::PortSpec spec = techmap::parse_port_name(name);
    const char* prefix = spec.kind == techmap::PortSpec::Kind::kMacA      ? "macA"
                         : spec.kind == techmap::PortSpec::Kind::kMacB    ? "macB"
                         : spec.kind == techmap::PortSpec::Kind::kMacResult ? "mac"
                                                                             : nullptr;
    if (prefix == nullptr || spec.a > 1) return;
    name = prefix + std::to_string(1 - spec.a) + "[" + std::to_string(spec.bit) + "]";
  };
  for (std::string& name : netlist.primary_inputs) rename(name);
  for (auto& output : netlist.outputs) rename(output.name);
  netlist.annotate_ports();
}

TEST(PackedExecutor, MacStagesMatchScalarAndOrderViolationFallsBack) {
  // Two chained MACs whose results feed the fabric: MAC 1's operand reads
  // MAC 0's result, so the staged plan runs packed. Swapping the two MACs
  // makes MAC 0's operand read the later MAC's result, which staged
  // evaluation cannot reproduce: the kernel must report kMacOrder and
  // still match the scalar engine.
  auto built = build_kernel(kTwoMacs, "loop");
  ASSERT_EQ(built.kernel->mac_ops.size(), 2u);
  ASSERT_FALSE(built.kernel->mac_ops[0].accumulate);
  ASSERT_FALSE(built.kernel->mac_ops[1].accumulate);

  KernelInvocation invocation;
  invocation.trip = 100;
  for (const auto& stream : built.ir.streams) {
    invocation.stream_bases.push_back(stream.is_write ? 0x4000 : 0x1000);
  }
  invocation.acc_init.assign(built.ir.accumulators.size(), 0);
  for (auto reg : built.ir.live_in_regs) invocation.live_in[reg] = 0;
  common::Rng rng(41);
  std::vector<std::uint32_t> image((1 << 16) / 4, 0);
  for (unsigned i = 0; i < 100; ++i) image[0x1000 / 4 + i] = rng.next_u32();

  KernelExecutor scalar_exec(*built.kernel, *built.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  const EngineRun scalar = run_on_copy(scalar_exec, image, invocation);
  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    KernelExecutor exec(*built.kernel, *built.config, PackedOptions{width});
    const EngineRun packed = run_on_copy(exec, image, invocation);
    expect_same_run(packed, scalar, "staged width " + std::to_string(width));
    EXPECT_EQ(packed.result.scalar_reason, ScalarReason::kNone) << width;
    EXPECT_EQ(packed.result.packed_iterations, 100u) << width;
  }

  synth::HwKernel swapped = *built.kernel;
  fabric::FabricConfig swapped_config = *built.config;
  swap_first_two_macs(swapped, swapped_config.netlist);
  KernelExecutor swapped_scalar(swapped, swapped_config);
  swapped_scalar.set_engine(KernelExecutor::EvalEngine::kScalar);
  KernelExecutor swapped_auto(swapped, swapped_config);
  EXPECT_FALSE(swapped_auto.packed_supported());
  const EngineRun packed = run_on_copy(swapped_auto, image, invocation);
  expect_same_run(packed, run_on_copy(swapped_scalar, image, invocation), "swapped");
  EXPECT_NE(packed.memory, scalar.memory) << "swapping the MACs must change the kernel";
  EXPECT_EQ(packed.result.scalar_reason, ScalarReason::kMacOrder);
  EXPECT_EQ(packed.result.packed_iterations, 0u);
  EXPECT_EQ(packed.result.scalar_iterations, 100u);
}

/// A hand-built kernel touching every masked-block path: one read stream
/// (s0, tap stride 160 bytes) and one write stream whose tap 1 lands 160
/// bytes past the matching read; two chained fabric-feeding MACs, an
/// accumulating MAC (acc 0) and a fabric-held accumulator (acc 1) with no
/// state feedback, whose final value is the last iteration's.
struct SweepKernel {
  synth::HwKernel kernel;
  fabric::FabricConfig config;
};

SweepKernel build_sweep_kernel() {
  synth::GateNetlist net;
  auto bus = [&](const std::string& prefix) {
    std::array<int, 32> bits{};
    for (unsigned i = 0; i < 32; ++i) {
      bits[i] = net.add_input(prefix + "[" + std::to_string(i) + "]");
    }
    return bits;
  };
  const auto s = bus("s0t0");
  const auto iv = bus("iv2");
  const auto li = bus("li5");
  const auto mac0 = bus("mac0");
  const auto mac1 = bus("mac1");
  auto out = [&](const std::string& prefix, unsigned i, int gate) {
    net.add_output(prefix + "[" + std::to_string(i) + "]", gate);
  };
  for (unsigned i = 0; i < 32; ++i) {
    out("macA0", i, s[i]);
    out("macB0", i, net.gate_or(iv[i], i == 0 ? net.const1() : net.const0()));
    out("macA1", i, net.gate_xor(mac0[i], li[i]));
    out("macB1", i, s[(i + 5) % 32]);
    // Nonzero on all-zero inputs, so a masked block that summed its
    // inactive lanes would show.
    out("macA2", i, net.gate_xor(mac1[i], li[i]));
    out("macB2", i, net.gate_and(net.gate_not(s[i]), li[i]));
    out("w1t1", i, net.gate_xor(net.gate_xor(mac1[i], s[(i + 3) % 32]), iv[i]));
    out("accnext1", i, net.gate_xor(s[i], mac0[(i + 7) % 32]));
  }
  auto mapped = techmap::techmap(net);
  EXPECT_TRUE(mapped.is_ok()) << mapped.message();

  SweepKernel sweep;
  decompile::KernelIR& ir = sweep.kernel.ir;
  decompile::Stream read;
  read.stride_bytes = 4;
  read.tap_stride_bytes = 160;
  decompile::Stream write = read;
  write.burst = 2;
  write.is_write = true;
  ir.streams = {read, write};
  ir.accumulators.resize(2);
  ir.iv_regs = {{2, 3}};
  synth::MacOp feeds_fabric;
  synth::MacOp accumulates;
  accumulates.accumulate = true;
  accumulates.acc_index = 0;
  sweep.kernel.mac_ops = {feeds_fabric, feeds_fabric, accumulates};
  sweep.kernel.write_outputs.push_back({1, 1, {}});
  sweep.kernel.acc_outputs.push_back({0, true, {}});
  sweep.kernel.acc_outputs.push_back({1, false, {}});
  sweep.kernel.mac_cycles_per_iter = 3;
  sweep.kernel.mem_accesses_per_iter = 2;
  sweep.config.netlist = std::move(mapped).value();
  return sweep;
}

TEST(PackedExecutor, MaskedTripSweepMatchesScalar) {
  // Every trip from 1 to 257 at every width, in two layouts:
  //   - disjoint streams: every trip runs entirely packed, the remainder
  //     as one masked block at the narrowest width that holds it;
  //   - in place: the write of iteration i lands on the read of iteration
  //     i+40. A trip of at most 40 fits in one masked block with no alias
  //     inside it and runs packed; a longer trip's window reaches the
  //     alias and must fall back with kStreamHazard.
  const SweepKernel sweep = build_sweep_kernel();
  KernelExecutor scalar_exec(sweep.kernel, sweep.config);
  scalar_exec.set_engine(KernelExecutor::EvalEngine::kScalar);
  std::vector<std::unique_ptr<KernelExecutor>> execs;
  for (const unsigned width : {0u, 1u, 2u, 4u}) {
    execs.push_back(
        std::make_unique<KernelExecutor>(sweep.kernel, sweep.config, PackedOptions{width}));
    ASSERT_TRUE(execs.back()->packed_supported());
  }
  constexpr std::uint32_t kBase = 0x1000;
  constexpr std::uint64_t kAliasDistance = 40;
  common::Rng rng(43);
  std::vector<std::uint32_t> image((1 << 14) / 4, 0);
  for (std::size_t i = kBase / 4; i < kBase / 4 + 600; ++i) image[i] = rng.next_u32();

  for (const bool in_place : {false, true}) {
    KernelInvocation invocation;
    invocation.stream_bases = {kBase, in_place ? kBase : kBase + 0x2000};
    invocation.live_in[2] = 0x9E37;
    invocation.live_in[5] = 0x00C0FFEE;
    invocation.acc_init = {7, 0xFFFFFFFFu};
    for (std::uint64_t trip = 1; trip <= 257; ++trip) {
      invocation.trip = trip;
      const EngineRun scalar = run_on_copy(scalar_exec, image, invocation);
      for (const auto& exec : execs) {
        const unsigned width = exec->packed_options().width;
        const std::string label = std::string(in_place ? "in-place" : "disjoint") + " trip " +
                                  std::to_string(trip) + " width " + std::to_string(width);
        const EngineRun packed = run_on_copy(*exec, image, invocation);
        expect_same_run(packed, scalar, label);
        const KernelRunResult& result = packed.result;
        if (in_place && trip > kAliasDistance) {
          EXPECT_EQ(result.scalar_reason, ScalarReason::kStreamHazard) << label;
          EXPECT_EQ(result.scalar_iterations, trip) << label;
          continue;
        }
        EXPECT_EQ(result.scalar_reason, ScalarReason::kNone) << label;
        EXPECT_EQ(result.packed_iterations, trip) << label;
        EXPECT_EQ(result.scalar_iterations, 0u) << label;
        if (width != 0) {
          const unsigned expect_width = trip >= width * kPackedWordBits
                                            ? width
                                            : PackedEvaluator::covering_width(trip, width);
          EXPECT_EQ(result.packed_width, expect_width) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace warp::hwsim
