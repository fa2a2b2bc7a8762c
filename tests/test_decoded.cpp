// The decoded engine's contract: byte-identical observable results to the
// reference interpreter (the oracle), for every program either can run.
//
//  * DecodedProgram::decode fuses the dominant static idioms and never
//    fuses across a branch target;
//  * randomized IrBuilder programs (ALU soup, packet I/O, diamonds,
//    bounded loops, stateful calls, scratch memory) produce field-equal
//    RunResults, equal conservative cycle totals, and equal scratch state
//    under both engines, across many seeds;
//  * every registered NF target produces identical per-packet results and
//    class keys under both engines;
//  * monitor reports are byte-identical decoded-vs-reference across the
//    full execution-knob grid (shards x threads x grouping x batch).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/bolt.h"
#include "core/classkey.h"
#include "core/targets.h"
#include "hw/models.h"
#include "ir/builder.h"
#include "ir/decoded.h"
#include "ir/interp.h"
#include "monitor/monitor.h"
#include "monitor/report.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "support/random.h"

namespace bolt {
namespace {

using ir::DOp;
using ir::DecodedInterpreter;
using ir::DecodedProgram;
using ir::Interpreter;
using ir::IrBuilder;
using ir::Label;
using ir::Program;
using ir::Reg;
using ir::RunResult;

std::vector<std::uint8_t> bytes_of(const net::Packet& p) {
  return {p.bytes().begin(), p.bytes().end()};
}

std::vector<std::pair<perf::PcvId, std::uint64_t>> pcv_items(
    const perf::PcvBinding& b) {
  return {b.begin(), b.end()};
}

/// Field-by-field equality of everything a RunResult observes. The label
/// tables differ by object but intern in execution order, so raw ids are
/// directly comparable; names are compared too as a belt-and-braces check.
void expect_equal_results(const RunResult& dec, const RunResult& ref,
                          const std::string& ctx) {
  EXPECT_EQ(dec.verdict, ref.verdict) << ctx;
  EXPECT_EQ(dec.out_port, ref.out_port) << ctx;
  EXPECT_EQ(dec.instructions, ref.instructions) << ctx;
  EXPECT_EQ(dec.mem_accesses, ref.mem_accesses) << ctx;
  EXPECT_EQ(dec.stateless_instructions, ref.stateless_instructions) << ctx;
  EXPECT_EQ(dec.stateless_accesses, ref.stateless_accesses) << ctx;
  EXPECT_EQ(pcv_items(dec.pcvs), pcv_items(ref.pcvs)) << ctx;
  EXPECT_EQ(dec.calls, ref.calls) << ctx;
  EXPECT_EQ(dec.class_tags, ref.class_tags) << ctx;
  EXPECT_EQ(dec.loop_trips, ref.loop_trips) << ctx;
  EXPECT_EQ(dec.class_tag_names(), ref.class_tag_names()) << ctx;
  EXPECT_EQ(dec.class_label(), ref.class_label()) << ctx;
  EXPECT_EQ(dec.loop_trips_map(), ref.loop_trips_map()) << ctx;
}

// --- decode pass -------------------------------------------------------------

std::size_t count_dop(const DecodedProgram& dp, DOp op) {
  std::size_t n = 0;
  for (const auto& ins : dp.code) n += (ins.op == op) ? 1 : 0;
  return n;
}

TEST(Decode, FusesTheDominantStaticIdioms) {
  IrBuilder b("fuse");
  const Reg x = b.load_pkt_at(12, 2);       // const + load  -> kLoadPktI
  const Reg y = b.add_imm(x, 5);            // const + add   -> kAddI
  // const + load + const + and -> kLoadPktMaskI (emitted in that order;
  // nesting the calls would leave the order to argument evaluation).
  const Reg lv = b.load_pkt_at(14, 2);
  const Reg mk = b.imm(0x1fff);
  const Reg m = b.band(lv, mk);
  Label big = b.make_label();
  b.br_true(b.gtu(y, m), big);              // cmp + br      -> kGtUBr
  b.drop();
  b.bind(big);
  Label tiny = b.make_label();
  b.br_true(b.ltu(y, b.imm(100)), tiny);    // const+cmp+br  -> kLtUIBr
  b.forward(y);
  b.bind(tiny);
  b.forward_imm(7);                         // const + fwd   -> kForwardI
  const Program p = b.finish();

  const DecodedProgram dp = DecodedProgram::decode(p);
  EXPECT_EQ(count_dop(dp, DOp::kLoadPktI), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kAddI), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kLoadPktMaskI), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kGtUBr), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kLtUIBr), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kForwardI), 1u);
  // 1+1+3+1+2+1 members fused away; every decoded target is in range.
  EXPECT_EQ(dp.fused_away, 9u);
  EXPECT_EQ(dp.code.size(), p.code.size() - dp.fused_away);
  for (const auto& ins : dp.code) {
    EXPECT_LT(ins.t, dp.code.size());
    EXPECT_LT(ins.f, dp.code.size());
  }
}

TEST(Decode, BranchTargetBlocksFusion) {
  // The branch lands on the kAdd, so the const+add pair must NOT fuse (a
  // jump into the middle of a superinstruction would skip the const).
  IrBuilder b("mid");
  const Reg x = b.load_pkt_at(0, 1);
  Label mid = b.make_label();
  b.br_true(x, mid);
  const Reg c = b.imm(9);
  b.bind(mid);
  const Reg s = b.add(x, c);  // branch target: stays unfused
  b.forward(s);
  const Program p = b.finish();

  const DecodedProgram dp = DecodedProgram::decode(p);
  EXPECT_EQ(count_dop(dp, DOp::kAddI), 0u);
  EXPECT_EQ(count_dop(dp, DOp::kAdd), 1u);

  // And both engines agree on both paths through it.
  for (const std::uint8_t first : {0, 1}) {
    std::vector<std::uint8_t> bytes(60, 0);
    bytes[0] = first;
    net::Packet pd(bytes, 1000), pr(bytes, 1000);
    DecodedInterpreter dec(p, nullptr);
    Interpreter ref(p, nullptr);
    RunResult rd = dec.run(pd), rr = ref.run(pr);
    expect_equal_results(rd, rr, "first=" + std::to_string(first));
    EXPECT_EQ(rd.out_port, first ? first + 0u : 9u);
  }
}

TEST(Decode, MaskFusionRequiresDistinctLoadAndMaskRegisters) {
  // kLoadPktMaskI caches the loaded value across the mask const; when the
  // load writes the same register the mask const lives in, decode must
  // fall back (here: fuse const+load and const+and separately instead).
  Program p;
  p.name = "alias";
  p.num_regs = 2;
  auto ins = [](ir::Op op, ir::Reg dst, ir::Reg a, ir::Reg b,
                std::int64_t imm = 0, std::uint8_t width = 0) {
    ir::Instr i;
    i.op = op;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.imm = imm;
    i.width = width;
    return i;
  };
  // The mask const clobbers the load's destination register (r1), so the
  // masked result is 0xff & 0xff — a quad that cached the loaded value
  // would compute pkt[12..14) & 0xff instead.
  p.code.push_back(ins(ir::Op::kConst, 0, ir::kNoReg, ir::kNoReg, 12));
  p.code.push_back(ins(ir::Op::kLoadPkt, 1, 0, ir::kNoReg, 0, 2));
  p.code.push_back(ins(ir::Op::kConst, 1, ir::kNoReg, ir::kNoReg, 0xff));
  p.code.push_back(ins(ir::Op::kAnd, 0, 1, 1));
  p.code.push_back(ins(ir::Op::kForward, ir::kNoReg, 0, ir::kNoReg));
  p.validate();

  const DecodedProgram dp = DecodedProgram::decode(p);
  EXPECT_EQ(count_dop(dp, DOp::kLoadPktMaskI), 0u);
  EXPECT_EQ(count_dop(dp, DOp::kLoadPktI), 1u);
  EXPECT_EQ(count_dop(dp, DOp::kAndI), 1u);

  net::Packet pd = net::packet_for_tuple(net::tuple_for_index(3), 1000, 0);
  net::Packet pr = pd;
  DecodedInterpreter dec(p, nullptr);
  Interpreter ref(p, nullptr);
  const RunResult rd = dec.run(pd), rr = ref.run(pr);
  expect_equal_results(rd, rr, "alias");
  EXPECT_EQ(rd.out_port, 0xffu);  // the clobbered-register semantics
}

TEST(Decode, StepBudgetStillGuardsRunaways) {
  IrBuilder b("inf");
  Label loop = b.make_label();
  b.bind(loop);
  b.jmp(loop);
  const Program p = b.finish();
  ir::InterpreterOptions opts;
  opts.max_steps = 1000;
  DecodedInterpreter dec(p, nullptr, opts);
  net::Packet pkt = net::packet_for_tuple(net::tuple_for_index(1), 1000, 0);
  EXPECT_DEATH(dec.run(pkt), "step budget");
}

// --- randomized differential -------------------------------------------------

/// Deterministic stateful stub: cost, results, case label, and PCVs are
/// pure functions of (method, args), so two independent instances behave
/// identically under both engines.
class DiffEnv final : public ir::StatefulEnv {
 public:
  ir::CallOutcome call(std::int64_t method, std::uint64_t a0, std::uint64_t a1,
                       const net::Packet&, ir::CostMeter& meter) override {
    meter.metered_instructions(5 + method % 7);
    meter.mem_read(ir::kArenaBase + (a0 % 32) * 8, 8);
    if ((a0 ^ a1) & 1) meter.mem_write(ir::kArenaBase + 256, 8);
    ir::CallOutcome out;
    out.v0 = a0 * 3 + a1;
    out.v1 = static_cast<std::uint64_t>(method) ^ a1;
    static const char* const kCases[3] = {"hit", "miss", "full"};
    out.case_label = kCases[(a0 + a1) % 3];
    out.pcvs.set(static_cast<perf::PcvId>(method % 4), (a0 % 13) + 1);
    return out;
  }
};

/// A random but always-terminating program: ALU soup over a live-value
/// pool, packet loads/stores, forward-only diamonds, bounded counted
/// loops, scratch memory, stateful calls, and class tags — enough to hit
/// every fusion pattern and every unfused opcode.
Program random_program(support::Rng& rng, bool with_calls) {
  IrBuilder b("rand" + std::to_string(rng.below(1u << 30)));
  b.set_scratch_slots(8);
  std::vector<Reg> vals;
  vals.push_back(b.load_pkt_at(rng.below(16), 1));
  vals.push_back(b.load_pkt_at(16 + rng.below(16), 2));
  vals.push_back(b.imm(rng.below(1u << 20)));
  vals.push_back(b.pkt_len());
  auto pick = [&] { return vals[rng.below(vals.size())]; };

  const std::size_t ops = 12 + rng.below(28);
  int loops = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    switch (rng.below(18)) {
      case 0: vals.push_back(b.add(pick(), pick())); break;
      case 1: vals.push_back(b.sub(pick(), pick())); break;
      case 2: vals.push_back(b.mul(pick(), pick())); break;
      case 3: vals.push_back(b.band(pick(), pick())); break;
      case 4: vals.push_back(b.bxor(pick(), pick())); break;
      case 5: vals.push_back(b.bnot(pick())); break;
      case 6: vals.push_back(b.add_imm(pick(), rng.below(1000))); break;
      case 7: vals.push_back(b.and_imm(pick(), (1u << (1 + rng.below(16))) - 1)); break;
      case 8: vals.push_back(b.shr_imm(pick(), 1 + rng.below(7))); break;
      case 9: vals.push_back(b.eq_imm(pick(), rng.below(256))); break;
      case 10: vals.push_back(b.load_pkt_at(rng.below(40), 1 + rng.below(2))); break;
      case 11: b.store_pkt_at(40 + rng.below(16), pick(), 1); break;
      case 12: vals.push_back(b.load_mem(b.imm(rng.below(8)))); break;
      case 13: b.store_mem(b.imm(rng.below(8)), pick()); break;
      case 14: {  // forward-only diamond (exercises cmp+br fusions)
        Label skip = b.make_label();
        const Reg cond = rng.below(2) ? b.eq_imm(pick(), rng.below(64))
                                      : b.ltu(pick(), pick());
        rng.below(2) ? b.br_true(cond, skip) : b.br_false(cond, skip);
        if (rng.below(2)) b.class_tag("arm" + std::to_string(i));
        vals.push_back(b.add_imm(pick(), 1 + rng.below(9)));
        b.bind(skip);
        break;
      }
      case 15: {  // bounded counted loop with a loop_head annotation
        if (loops++ >= 2) break;
        const auto slot = b.local();
        b.store_local(slot, b.imm(0));
        const Reg limit = b.and_imm(pick(), 7);
        Label head = b.make_label(), done = b.make_label();
        b.bind(head);
        b.loop_head("L" + std::to_string(i));
        const Reg it = b.load_local(slot);
        b.br_false(b.ltu(it, limit), done);
        vals.push_back(b.bxor(pick(), it));
        b.store_local(slot, b.add_imm(it, 1));
        b.jmp(head);
        b.bind(done);
        break;
      }
      case 16:
        if (with_calls) {
          auto [v0, v1] = b.call(1 + rng.below(4), pick(), pick());
          vals.push_back(v0);
          vals.push_back(v1);
        }
        break;
      default: b.class_tag("t" + std::to_string(rng.below(4))); break;
    }
  }
  if (rng.below(2)) b.class_tag("exit");
  switch (rng.below(3)) {
    case 0: b.forward(pick()); break;
    case 1: b.forward_imm(rng.below(16)); break;
    default: b.drop(); break;
  }
  return b.finish();
}

TEST(DecodedDifferential, RandomProgramsMatchTheReferenceOracle) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    support::Rng rng(0xb01d + seed);
    const bool with_calls = seed % 2 == 0;
    const Program p = random_program(rng, with_calls);

    ir::InterpreterOptions opts;
    opts.rx_instructions = 24;
    opts.rx_accesses = 2;
    opts.tx_instructions = 33;
    opts.tx_accesses = 3;
    opts.drop_instructions = 10;
    opts.drop_accesses = 1;

    DiffEnv env_d, env_r;
    hw::ConservativeModel sink_d, sink_r;
    ir::InterpreterOptions opts_d = opts, opts_r = opts;
    opts_d.sink = &sink_d;
    opts_r.sink = &sink_r;
    DecodedInterpreter dec(p, with_calls ? &env_d : nullptr, opts_d);
    Interpreter ref(p, with_calls ? &env_r : nullptr, opts_r);

    for (int i = 0; i < 40; ++i) {
      net::Packet pd = net::packet_for_tuple(
          net::tuple_for_index(rng.below(500)), 1'000'000 + i, rng.below(4));
      net::Packet pr = pd;
      sink_d.begin_packet();
      sink_r.begin_packet();
      RunResult rd = dec.run(pd), rr = ref.run(pr);
      const std::string ctx =
          p.name + " seed=" + std::to_string(seed) + " pkt=" + std::to_string(i);
      expect_equal_results(rd, rr, ctx);
      EXPECT_EQ(bytes_of(pd), bytes_of(pr)) << ctx;  // identical rewrites
      EXPECT_EQ(sink_d.packet_cycles(), sink_r.packet_cycles()) << ctx;
    }
    EXPECT_EQ(dec.scratch(), ref.scratch()) << p.name;
    EXPECT_EQ(sink_d.total_cycles(), sink_r.total_cycles()) << p.name;
  }
}

// --- registered NF targets ---------------------------------------------------

std::vector<net::Packet> target_workload(const std::string& name,
                                         std::size_t count) {
  if (name == "bridge") {
    net::BridgeSpec spec;
    spec.stations = 200;
    spec.broadcast_fraction = 0.15;
    spec.packet_count = count;
    return net::bridge_traffic(spec);
  }
  net::ZipfSpec spec;
  spec.flow_pool = 256;
  spec.skew = 1.1;
  spec.packet_count = count;
  return net::zipf_traffic(spec);
}

TEST(DecodedDifferential, EveryRegisteredTargetMatchesTheReference) {
  for (const std::string& name : core::named_targets()) {
    // Two independent instances of the same target (stateful NFs mutate
    // their state as they run, so the engines must not share one).
    perf::PcvRegistry reg_d, reg_r;
    core::NfTarget tgt_d, tgt_r;
    ASSERT_TRUE(core::make_named_target(name, reg_d, tgt_d));
    ASSERT_TRUE(core::make_named_target(name, reg_r, tgt_r));

    hw::ConservativeModel sink_d, sink_r;
    auto run_d = tgt_d.make_runner(nf::framework_full(), &sink_d,
                                   ir::EngineKind::kDecoded);
    auto run_r = tgt_r.make_runner(nf::framework_full(), &sink_r,
                                   ir::EngineKind::kReference);
    EXPECT_TRUE(run_d->uses_decoded_engine()) << name;
    EXPECT_FALSE(run_r->uses_decoded_engine()) << name;

    const auto packets = target_workload(name, 1500);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      net::Packet pd = packets[i], pr = packets[i];
      const RunResult rd = run_d->process(pd);
      const RunResult rr = run_r->process(pr);
      const std::string ctx = name + " pkt=" + std::to_string(i);
      expect_equal_results(rd, rr, ctx);
      EXPECT_EQ(bytes_of(pd), bytes_of(pr)) << ctx;
      EXPECT_EQ(core::class_key_of(rd, &tgt_d.methods()),
                core::class_key_of(rr, &tgt_r.methods()))
          << ctx;
      if (::testing::Test::HasFailure()) return;  // one dump is enough
    }
    EXPECT_EQ(sink_d.total_cycles(), sink_r.total_cycles()) << name;
  }
}

// --- monitor report byte-identity over the knob grid -------------------------

TEST(DecodedDifferential, MonitorReportsAreByteIdenticalAcrossTheKnobGrid) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator gen(reg);
  const core::GenerationResult result = gen.generate(target.analysis());

  net::ZipfSpec spec;
  spec.flow_pool = 256;
  spec.skew = 1.1;
  spec.packet_count = 2000;
  const auto packets = net::zipf_traffic(spec);

  // The oracle: reference engine, plain single-threaded run.
  monitor::MonitorOptions ref_opts;
  ref_opts.partitions = 8;
  ref_opts.threads = 1;
  ref_opts.engine = ir::EngineKind::kReference;
  std::vector<std::uint32_t> ref_attr;
  const std::string ref_json = monitor::report_to_json(
      monitor::MonitorEngine(result.contract, reg, ref_opts)
          .run(packets, monitor::MonitorEngine::named_factory("nat"),
               &ref_attr));

  for (const std::size_t shards : {std::size_t(0), std::size_t(2)}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
      for (const auto grouping : {monitor::ShardGrouping::kRoundRobin,
                                  monitor::ShardGrouping::kLongestQueueFirst}) {
        for (const std::size_t batch : {std::size_t(1), std::size_t(64)}) {
          monitor::MonitorOptions opts;
          opts.partitions = 8;
          opts.shards = shards;
          opts.threads = threads;
          opts.grouping = grouping;
          opts.batch = batch;
          opts.engine = ir::EngineKind::kDecoded;
          std::vector<std::uint32_t> attr;
          const std::string json = monitor::report_to_json(
              monitor::MonitorEngine(result.contract, reg, opts)
                  .run(packets, monitor::MonitorEngine::named_factory("nat"),
                       &attr));
          EXPECT_EQ(json, ref_json)
              << "shards=" << shards << " threads=" << threads
              << " grouping=" << static_cast<int>(grouping)
              << " batch=" << batch;
          EXPECT_EQ(attr, ref_attr);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bolt
