#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "hw/models.h"
#include "ir/builder.h"
#include "nf/framework.h"
#include "symbex/executor.h"
#include "symbex/expr.h"
#include "symbex/solver.h"

namespace bolt::symbex {
namespace {

TEST(Expr, ConstantFolding) {
  const ExprPtr a = Expr::constant(6);
  const ExprPtr b = Expr::constant(7);
  const ExprPtr prod = Expr::binary(ExprOp::kMul, a, b);
  ASSERT_TRUE(prod->is_const());
  EXPECT_EQ(prod->const_value(), 42u);
}

TEST(Expr, Identities) {
  SymbolTable syms;
  const ExprPtr x = Expr::symbol(syms.fresh("x", 32));
  EXPECT_TRUE(Expr::binary(ExprOp::kAdd, x, Expr::constant(0)) == x);
  EXPECT_TRUE(Expr::binary(ExprOp::kMul, x, Expr::constant(1)) == x);
  const ExprPtr zero = Expr::binary(ExprOp::kXor, x, x);
  ASSERT_TRUE(zero->is_const());
  EXPECT_EQ(zero->const_value(), 0u);
  const ExprPtr one = Expr::binary(ExprOp::kEq, x, x);
  ASSERT_TRUE(one->is_const());
  EXPECT_EQ(one->const_value(), 1u);
}

TEST(Expr, EvalUnderAssignment) {
  SymbolTable syms;
  const SymId x = syms.fresh("x", 16);
  const ExprPtr e = Expr::binary(
      ExprOp::kAdd, Expr::binary(ExprOp::kMul, Expr::symbol(x), Expr::constant(3)),
      Expr::constant(4));
  Assignment a{{x, 10}};
  EXPECT_EQ(e->eval(a), 34u);
}

TEST(Expr, LogicalNotOfComparisons) {
  SymbolTable syms;
  const ExprPtr x = Expr::symbol(syms.fresh("x", 8));
  const ExprPtr lt = Expr::binary(ExprOp::kLtU, x, Expr::constant(5));
  const ExprPtr not_lt = logical_not(lt);
  Assignment a{{0, 5}};
  EXPECT_EQ(lt->eval(a), 0u);
  EXPECT_EQ(not_lt->eval(a), 1u);
}

TEST(Expr, CollectSymbolsAndConstants) {
  SymbolTable syms;
  const SymId x = syms.fresh("x", 8);
  const SymId y = syms.fresh("y", 8);
  const ExprPtr e = Expr::binary(ExprOp::kAdd, Expr::symbol(x),
                                 Expr::binary(ExprOp::kMul, Expr::symbol(y),
                                              Expr::constant(9)));
  std::vector<SymId> ids;
  e->collect_symbols(ids);
  EXPECT_EQ(ids.size(), 2u);
  std::vector<std::uint64_t> consts;
  e->collect_constants(consts);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(consts[0], 9u);
}

class SolverTest : public ::testing::Test {
 protected:
  SymbolTable syms;
};

TEST_F(SolverTest, SimpleEquality) {
  const SymId x = syms.fresh("x", 16);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kEq, Expr::symbol(x), Expr::constant(0x0800))};
  const auto r = solver.solve(cs);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(x), 0x0800u);
}

TEST_F(SolverTest, ContradictionIsUnsat) {
  const SymId x = syms.fresh("x", 16);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kEq, Expr::symbol(x), Expr::constant(1)),
      Expr::binary(ExprOp::kEq, Expr::symbol(x), Expr::constant(2))};
  EXPECT_EQ(solver.solve(cs).status, SolveStatus::kUnsat);
}

TEST_F(SolverTest, RangeConstraints) {
  const SymId x = syms.fresh("x", 16);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kGeU, Expr::symbol(x), Expr::constant(5000)),
      Expr::binary(ExprOp::kLtU, Expr::symbol(x), Expr::constant(6000)),
      Expr::binary(ExprOp::kNe, Expr::symbol(x), Expr::constant(5000))};
  const auto r = solver.solve(cs);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_GT(r.model.at(x), 5000u);
  EXPECT_LT(r.model.at(x), 6000u);
}

TEST_F(SolverTest, EmptyRangeIsUnsat) {
  const SymId x = syms.fresh("x", 16);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kGtU, Expr::symbol(x), Expr::constant(10)),
      Expr::binary(ExprOp::kLtU, Expr::symbol(x), Expr::constant(5))};
  EXPECT_EQ(solver.solve(cs).status, SolveStatus::kUnsat);
}

TEST_F(SolverTest, ShiftedFieldEquality) {
  // (x >> 4) == 4 && (x & 0xf) == 5  — the IPv4 version/ihl pattern.
  const SymId x = syms.fresh("ver_ihl", 8);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kEq,
                   Expr::binary(ExprOp::kShr, Expr::symbol(x), Expr::constant(4)),
                   Expr::constant(4)),
      Expr::binary(ExprOp::kEq,
                   Expr::binary(ExprOp::kAnd, Expr::symbol(x), Expr::constant(0xf)),
                   Expr::constant(5))};
  const auto r = solver.solve(cs);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(x), 0x45u);
}

TEST_F(SolverTest, WidthBoundsRespected) {
  const SymId x = syms.fresh("x", 8);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kGtU, Expr::symbol(x), Expr::constant(300))};
  // An 8-bit symbol can never exceed 300.
  EXPECT_EQ(solver.solve(cs).status, SolveStatus::kUnsat);
}

TEST_F(SolverTest, MultiSymbolSystem) {
  const SymId x = syms.fresh("x", 8);
  const SymId y = syms.fresh("y", 8);
  Solver solver(syms);
  std::vector<ExprPtr> cs = {
      Expr::binary(ExprOp::kEq,
                   Expr::binary(ExprOp::kAdd, Expr::symbol(x), Expr::symbol(y)),
                   Expr::constant(10)),
      Expr::binary(ExprOp::kEq, Expr::symbol(x), Expr::constant(3))};
  const auto r = solver.solve(cs);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.at(x), 3u);
  EXPECT_EQ(r.model.at(y), 7u);
}

// --- executor ---------------------------------------------------------------

TEST(Executor, EnumeratesBothSidesOfABranch) {
  ir::IrBuilder b("two_paths");
  const ir::Reg et = b.load_pkt_at(12, 2);
  ir::Label is_ip = b.make_label();
  b.br_true(b.eq_imm(et, 0x0800), is_ip);
  b.class_tag("not_ip");
  b.drop();
  b.bind(is_ip);
  b.class_tag("ip");
  b.forward_imm(1);
  const ir::Program p = b.finish();

  Executor ex({&p}, {});
  auto paths = ex.run();
  ASSERT_EQ(paths.size(), 2u);
  ex.solve_inputs(paths);
  int forwards = 0;
  for (const auto& path : paths) {
    EXPECT_TRUE(path.solved);
    if (path.action == PathAction::kForward) ++forwards;
  }
  EXPECT_EQ(forwards, 1);
}

TEST(Executor, InfeasiblePathsArePruned) {
  ir::IrBuilder b("pruned");
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label a = b.make_label();
  ir::Label contradiction = b.make_label();
  b.br_true(b.eq_imm(x, 5), a);
  b.drop();
  b.bind(a);
  // x == 5 here, so x == 6 is infeasible.
  b.br_true(b.eq_imm(x, 6), contradiction);
  b.forward_imm(0);
  b.bind(contradiction);
  b.forward_imm(9);
  const ir::Program p = b.finish();

  Executor ex({&p}, {});
  const auto paths = ex.run();
  EXPECT_EQ(paths.size(), 2u);  // x!=5 drop; x==5 forward. No third path.
  EXPECT_GE(ex.stats().pruned_branches, 1u);
}

TEST(Executor, ModelsForkPerOutcome) {
  ir::IrBuilder b("model_fork");
  const auto [found, value] = b.call(0, ir::kNoReg, ir::kNoReg);
  (void)value;
  ir::Label hit = b.make_label();
  b.br_true(found, hit);
  b.class_tag("miss");
  b.drop();
  b.bind(hit);
  b.class_tag("hit");
  b.forward_imm(0);
  const ir::Program p = b.finish();

  std::map<std::int64_t, SymbolicModel> models;
  models[0] = [](SymbolTable& symbols, const ExprPtr&, const ExprPtr&) {
    std::vector<ModelOutcome> outs;
    ModelOutcome hit_case;
    hit_case.case_label = "hit";
    hit_case.ret0 = Expr::constant(1);
    hit_case.ret1 = Expr::symbol(symbols.fresh("value", 16));
    outs.push_back(hit_case);
    ModelOutcome miss_case;
    miss_case.case_label = "miss";
    miss_case.ret0 = Expr::constant(0);
    outs.push_back(miss_case);
    return outs;
  };
  Executor ex({&p}, std::move(models));
  auto paths = ex.run();
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& path : paths) {
    ASSERT_EQ(path.calls.size(), 1u);
    if (path.action == PathAction::kForward) {
      EXPECT_EQ(path.calls[0].case_label, "hit");
      EXPECT_EQ(path.class_tags, std::vector<std::string>{"hit"});
    } else {
      EXPECT_EQ(path.calls[0].case_label, "miss");
    }
  }
}

TEST(Executor, LoopsUnrollWithTripCounts) {
  // for (i = 0; i < pkt[0]; i++) {}; pkt[0] constrained <= 3 by width/branch
  ir::IrBuilder b("loop");
  const auto i_slot = b.local("i");
  b.store_local(i_slot, b.imm(0));
  const ir::Reg limit = b.load_pkt_at(0, 1);
  ir::Label too_big = b.make_label();
  b.br_false(b.leu(limit, b.imm(3)), too_big);
  ir::Label loop = b.make_label();
  ir::Label done = b.make_label();
  b.bind(loop);
  b.loop_head("n");
  const ir::Reg i = b.load_local(i_slot);
  b.br_false(b.ltu(i, limit), done);
  b.store_local(i_slot, b.add_imm(i, 1));
  b.jmp(loop);
  b.bind(done);
  b.forward_imm(0);
  b.bind(too_big);
  b.drop();
  const ir::Program p = b.finish();

  Executor ex({&p}, {});
  auto paths = ex.run();
  // limit = 0,1,2,3 (distinct unrolls) + the too_big path.
  ASSERT_EQ(paths.size(), 5u);
  ex.solve_inputs(paths);
  std::set<std::uint64_t> trips;
  for (const auto& path : paths) {
    if (path.action == PathAction::kForward) {
      trips.insert(path.loop_trips.at(0));
    }
  }
  EXPECT_EQ(trips.size(), 4u);
}

TEST(Executor, ChainSharesThePacket) {
  // NF1 forwards IPv4 only; NF2 branches on the same field: the incompatible
  // combination must not appear.
  ir::IrBuilder b1("nf1");
  const ir::Reg et1 = b1.load_pkt_at(12, 2);
  ir::Label fwd1 = b1.make_label();
  b1.br_true(b1.eq_imm(et1, 0x0800), fwd1);
  b1.class_tag("drop_non_ip");
  b1.drop();
  b1.bind(fwd1);
  b1.class_tag("fwd_ip");
  b1.forward_imm(0);
  const ir::Program p1 = b1.finish();

  ir::IrBuilder b2("nf2");
  const ir::Reg et2 = b2.load_pkt_at(12, 2);
  ir::Label ip2 = b2.make_label();
  b2.br_true(b2.eq_imm(et2, 0x0800), ip2);
  b2.class_tag("non_ip");
  b2.drop();
  b2.bind(ip2);
  b2.class_tag("ip");
  b2.forward_imm(0);
  const ir::Program p2 = b2.finish();

  Executor ex({&p1, &p2}, {});
  auto paths = ex.run();
  ASSERT_EQ(paths.size(), 2u);  // non-IP dropped at NF1; IP through both.
  for (const auto& path : paths) {
    if (path.action == PathAction::kForward) {
      EXPECT_EQ(path.class_tags,
                (std::vector<std::string>{"nf1:fwd_ip", "nf2:ip"}));
    }
  }
}

TEST(Executor, SolveProducesRunnablePacketFields) {
  ir::IrBuilder b("fields");
  const ir::Reg et = b.load_pkt_at(12, 2);
  ir::Label yes = b.make_label();
  b.br_true(b.eq_imm(et, 0x0806), yes);
  b.drop();
  b.bind(yes);
  b.forward_imm(0);
  const ir::Program p = b.finish();

  Executor ex({&p}, {});
  auto paths = ex.run();
  ex.solve_inputs(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(path.solved);
    if (path.action == PathAction::kForward) {
      ASSERT_EQ(path.fields.size(), 1u);
      EXPECT_EQ(path.model.at(path.fields[0].sym), 0x0806u);
    }
  }
}

// --- branch-join pruning ----------------------------------------------------

/// A program that loads packet byte 0, branches on `byte0 == 7` into two
/// arms that rejoin, and forwards: `arm_a` builds the taken arm, `arm_b`
/// the other. `prefix` runs before the load.
template <typename Prefix, typename ArmA, typename ArmB>
ir::Program two_arms(const Prefix& prefix, const ArmA& arm_a,
                     const ArmB& arm_b) {
  ir::IrBuilder b("two_arms");
  prefix(b);
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label a = b.make_label();
  ir::Label other = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), a, other);
  b.bind(a);
  arm_a(b, x);
  b.jmp(join);
  b.bind(other);
  arm_b(b, x);
  b.jmp(join);
  b.bind(join);
  b.forward_imm(0);
  return b.finish();
}

const auto kNoPrefix = [](ir::IrBuilder&) {};
const auto kAluWork = [](ir::IrBuilder& b, ir::Reg x) {
  (void)b.add(b.add(b.add(x, x), x), x);
};
const auto kReloadByte0 = [](ir::IrBuilder& b, ir::Reg) {
  (void)b.load_pkt_at(0, 1);
};

TEST(BranchJoin, DominatedArmIsDropped) {
  // Same re-read of the (resident) byte in both arms, extra ALU work in
  // one: that arm covers the other on every metric.
  const ir::Program p = two_arms(
      kNoPrefix,
      [](ir::IrBuilder& b, ir::Reg x) { kReloadByte0(b, x); kAluWork(b, x); },
      kReloadByte0);
  Executor ex({&p}, {});
  const auto paths = ex.run();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(ex.stats().merged_states, 1u);
  EXPECT_EQ(ex.stats().revived_states, 0u);
  // The costlier arm is the one kept: load + compare + branch (5), reload
  // + three adds + jump (6), forward (2).
  EXPECT_EQ(paths[0].symbex_instructions, 13u);
}

TEST(BranchJoin, NeitherArmDominatesSoBothAreKept) {
  // More instructions on one side, more memory accesses on the other.
  const ir::Program p = two_arms(kNoPrefix, kAluWork, kReloadByte0);
  Executor ex({&p}, {});
  EXPECT_EQ(ex.run().size(), 2u);
  EXPECT_EQ(ex.stats().merged_states, 0u);
}

TEST(BranchJoin, DifferentCacheLineOrderBlocksThePrune) {
  // Both arms re-touch a resident line (each a sure L1 hit), but different
  // ones: the packet line is most recent, so re-reading the local leaves a
  // different LRU order than re-reading the packet. Every count alone
  // would let the first arm (extra ALU work) dominate.
  std::int32_t slot = -1;
  const auto prefix = [&slot](ir::IrBuilder& b) {
    slot = b.local("touched");
    b.store_local(slot, b.imm(0));
  };
  const ir::Program p = two_arms(
      prefix,
      [&slot](ir::IrBuilder& b, ir::Reg x) {
        (void)b.load_local(slot);
        kAluWork(b, x);
      },
      kReloadByte0);
  Executor ex({&p}, {});
  EXPECT_EQ(ex.run().size(), 2u);
  EXPECT_EQ(ex.stats().merged_states, 0u);
}

TEST(BranchJoin, LineProbesCountNotJustAccesses) {
  // Packet lines 0 and 1 are resident. The taken arm reads one byte of
  // line 1 and adds; the other arm reads two bytes straddling lines 0 and
  // 1 — one access, but two L1 probes, which costs more cycles than the
  // add. Neither arm covers the other.
  const auto prefix = [](ir::IrBuilder& b) { (void)b.load_pkt_at(70, 1); };
  const ir::Program p = two_arms(
      prefix,
      [](ir::IrBuilder& b, ir::Reg x) {
        (void)b.add(b.load_pkt_at(70, 1), x);
      },
      [](ir::IrBuilder& b, ir::Reg) { (void)b.load_pkt_at(63, 2); });
  Executor ex({&p}, {});
  EXPECT_EQ(ex.run().size(), 2u);
  EXPECT_EQ(ex.stats().merged_states, 0u);
}

TEST(BranchJoin, AnArmWhoseAccessMayMissIsNeverDropped) {
  // Both arms touch the same fresh line (no earlier probe proves it
  // resident), the taken arm with extra work. The cheaper arm might pay a
  // DRAM access, so the rule does not argue about it and keeps both.
  std::int32_t slot = -1;
  const auto prefix = [&slot](ir::IrBuilder& b) { slot = b.local("fresh"); };
  const ir::Program p = two_arms(
      prefix,
      [&slot](ir::IrBuilder& b, ir::Reg x) {
        (void)b.load_local(slot);
        kAluWork(b, x);
      },
      [&slot](ir::IrBuilder& b, ir::Reg) { (void)b.load_local(slot); });
  Executor ex({&p}, {});
  EXPECT_EQ(ex.run().size(), 2u);
  EXPECT_EQ(ex.stats().merged_states, 0u);
}

TEST(BranchJoin, DifferentValuesInALocalBlockThePrune) {
  std::int32_t slot = -1;
  auto store = [&slot](std::uint64_t value) {
    return [&slot, value](ir::IrBuilder& b, ir::Reg) {
      b.store_local(slot, b.imm(value));
    };
  };
  // The local's line is touched up front, so each arm's store is a sure
  // L1 hit; only the stored value tells the arms apart.
  const auto prefix = [&slot](ir::IrBuilder& b) {
    slot = b.local("result");
    b.store_local(slot, b.imm(0));
  };
  {
    const ir::Program p = two_arms(prefix, store(1), store(2));
    Executor ex({&p}, {});
    EXPECT_EQ(ex.run().size(), 2u);
    EXPECT_EQ(ex.stats().merged_states, 0u);
  }
  {
    // The control: the same value in both arms merges.
    const ir::Program p = two_arms(prefix, store(1), store(1));
    Executor ex({&p}, {});
    EXPECT_EQ(ex.run().size(), 1u);
    EXPECT_EQ(ex.stats().merged_states, 1u);
  }
}

TEST(BranchJoin, DifferentValuesInALiveRegisterBlockThePrune) {
  for (const std::uint64_t other : {2, 1}) {
    SCOPED_TRACE(other);
    ir::IrBuilder b("live_register");
    const ir::Reg port = b.reg();
    const ir::Reg x = b.load_pkt_at(0, 1);
    ir::Label a = b.make_label();
    ir::Label not_a = b.make_label();
    ir::Label join = b.make_label();
    b.br(b.eq_imm(x, 7), a, not_a);
    b.bind(a);
    b.assign(port, b.imm(1));
    b.jmp(join);
    b.bind(not_a);
    b.assign(port, b.imm(other));
    b.jmp(join);
    b.bind(join);
    b.forward(port);  // `port` is live at the join
    const ir::Program p = b.finish();
    Executor ex({&p}, {});
    EXPECT_EQ(ex.run().size(), other == 1 ? 1u : 2u);
  }
}

TEST(BranchJoin, BranchingOnTheSameByteAgainRevivesTheDroppedArm) {
  // byte0 == 7 takes the costlier arm, which is kept; after the join the
  // program re-reads byte 0 and branches on byte0 == 9, which only the
  // dropped arm (byte0 != 7) can satisfy. The branch names the poisoned
  // symbol, so the dropped arm is explored after all and the "nine" class
  // survives.
  ir::IrBuilder b("revive");
  const ir::Reg x = b.load_pkt_at(0, 1);             // 2 IC, 1 MA
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);                // 3 IC
  b.bind(heavy);
  (void)b.add(b.add(b.add(x, x), x), x);             // 3 IC
  b.jmp(join);                                       // 1 IC
  b.bind(light);
  b.jmp(join);                                       // 1 IC
  b.bind(join);
  const ir::Reg again = b.load_pkt_at(0, 1);         // 2 IC, 1 MA
  ir::Label nine = b.make_label();
  ir::Label other = b.make_label();
  b.br(b.eq_imm(again, 9), nine, other);             // 3 IC
  b.bind(nine);
  b.class_tag("nine");
  b.forward_imm(1);                                  // 2 IC
  b.bind(other);
  b.class_tag("other");
  b.forward_imm(0);                                  // 2 IC
  const ir::Program p = b.finish();

  perf::PcvRegistry reg;
  dslib::MethodTable no_methods;
  core::NfAnalysis analysis;
  analysis.name = "revive";
  analysis.programs = {&p};
  analysis.methods = &no_methods;
  core::BoltOptions opts;
  opts.framework = nf::framework_none();
  core::ContractGenerator gen(reg, opts);
  const core::GenerationResult result = gen.generate(analysis);
  EXPECT_EQ(result.executor_stats.merged_states, 1u);
  EXPECT_EQ(result.executor_stats.revived_states, 1u);
  // heavy/other, light/other, light/nine (heavy/nine is infeasible).
  EXPECT_EQ(result.total_paths, 3u);

  // By hand: two accesses to one packet line, DRAM then L1.
  const hw::CycleCosts cc;
  auto expect_entry = [&](const std::string& cls, std::int64_t ic) {
    SCOPED_TRACE(cls);
    const perf::ContractEntry* e = result.contract.find(cls);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->perf.get(perf::Metric::kInstructions).constant_term(), ic);
    EXPECT_EQ(e->perf.get(perf::Metric::kMemoryAccesses).constant_term(), 2);
    EXPECT_EQ(e->perf.get(perf::Metric::kCycles).constant_term(),
              ic * static_cast<std::int64_t>(cc.cons_alu) +
                  static_cast<std::int64_t>(cc.cons_dram + cc.cons_l1));
  };
  expect_entry("nine", 2 + 3 + 1 + 2 + 3 + 2);       // light arm
  expect_entry("other", 2 + 3 + 3 + 1 + 2 + 3 + 2);  // heavy arm, the max
  ASSERT_EQ(result.contract.entries().size(), 2u);
}

/// Class tags of the solvable paths of `p`, sorted.
std::vector<std::string> classes_of(const ir::Program& p, ExecutorStats* stats) {
  Executor ex({&p}, {});
  std::vector<PathResult> paths = ex.run();
  ex.solve_inputs(paths);
  std::vector<std::string> out;
  for (const PathResult& path : paths) {
    if (path.solved) out.push_back(path.class_label());
  }
  std::sort(out.begin(), out.end());
  *stats = ex.stats();
  return out;
}

TEST(BranchJoin, ReadingAByteOneArmWroteRevivesTheDroppedArm) {
  // The costlier arm zeroes byte 1; after the join byte 1 is read and
  // tested. In the kept state it is the constant 0, so only the dropped
  // arm can reach "nine" — the read overlaps a poisoned range.
  ir::IrBuilder b("write_then_read");
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);
  b.bind(heavy);
  b.store_pkt_at(0, b.imm(0), 1);  // byte 0's line is resident: a sure hit
  b.store_pkt_at(1, b.imm(0), 1);
  b.jmp(join);
  b.bind(light);
  b.jmp(join);
  b.bind(join);
  ir::Label nine = b.make_label();
  b.br_true(b.eq_imm(b.load_pkt_at(1, 1), 9), nine);
  b.class_tag("other");
  b.forward_imm(0);
  b.bind(nine);
  b.class_tag("nine");
  b.forward_imm(1);
  const ir::Program p = b.finish();

  ExecutorStats stats;
  EXPECT_EQ(classes_of(p, &stats),
            (std::vector<std::string>{"nine", "other", "other"}));
  EXPECT_EQ(stats.merged_states, 1u);
  EXPECT_EQ(stats.revived_states, 1u);
}

TEST(BranchJoin, PrefixConstraintsCarryThePoisonToTiedSymbols) {
  // byte1 == byte0 is required up front; the arms split on byte0 == 7 and
  // the continuation tests byte1 == 9. No arm constraint names byte 1, but
  // the prefix ties it to byte 0, so the test on byte 1 must still revive
  // the dropped arm (only it can have byte1 == 9).
  ir::IrBuilder b("tied");
  const ir::Reg y = b.load_pkt_at(1, 1);
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label untied = b.make_label();
  b.br_false(b.eq(x, y), untied);
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);
  b.bind(heavy);
  (void)b.add(b.add(x, x), x);
  b.jmp(join);
  b.bind(light);
  b.jmp(join);
  b.bind(join);
  ir::Label nine = b.make_label();
  b.br_true(b.eq_imm(y, 9), nine);
  b.class_tag("other");
  b.forward_imm(0);
  b.bind(nine);
  b.class_tag("nine");
  b.forward_imm(1);
  b.bind(untied);
  b.class_tag("untied");
  b.drop();
  const ir::Program p = b.finish();

  ExecutorStats stats;
  EXPECT_EQ(classes_of(p, &stats),
            (std::vector<std::string>{"nine", "other", "other", "untied"}));
  EXPECT_EQ(stats.merged_states, 1u);
  EXPECT_EQ(stats.revived_states, 1u);
}

/// Branches on byte 0; the taken arm reads byte 61 (adding `len >= 62`)
/// and adds; after the join, `tail` runs and the path forwards.
template <typename Tail>
ir::Program length_bound_in_arm(const Tail& tail) {
  ir::IrBuilder b("length_bound");
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);
  b.bind(heavy);
  (void)b.add(b.load_pkt_at(61, 1), x);  // byte 61 shares byte 0's line
  b.jmp(join);
  b.bind(light);
  b.jmp(join);
  b.bind(join);
  ir::Label big = b.make_label();
  b.br_true(b.gtu(tail(b), b.imm(100)), big);
  b.class_tag("small");
  b.forward_imm(0);
  b.bind(big);
  b.class_tag("big");
  b.forward_imm(1);
  return b.finish();
}

TEST(BranchJoin, LaterLengthBoundsDoNotReviveTheDroppedArm) {
  // Reading byte 62 adds `len >= 63`, which implies the kept arm's
  // `len >= 62`: any input of the dropped arm, lengthened if need be, is
  // covered by the kept arm.
  const ir::Program p = length_bound_in_arm(
      [](ir::IrBuilder& b) { return b.load_pkt_at(62, 1); });
  ExecutorStats stats;
  EXPECT_EQ(classes_of(p, &stats), (std::vector<std::string>{"big", "small"}));
  EXPECT_EQ(stats.merged_states, 1u);
  EXPECT_EQ(stats.revived_states, 0u);
}

TEST(BranchJoin, ReadingTheLengthAfterAnArmBoundedItRevives) {
  // The kept arm requires len >= 62; the continuation tests the length
  // itself, so dropped-arm inputs shorter than that need their own paths.
  const ir::Program p =
      length_bound_in_arm([](ir::IrBuilder& b) { return b.pkt_len(); });
  ExecutorStats stats;
  EXPECT_EQ(classes_of(p, &stats),
            (std::vector<std::string>{"big", "big", "small", "small"}));
  EXPECT_EQ(stats.merged_states, 1u);
  EXPECT_EQ(stats.revived_states, 1u);
}

TEST(BranchJoin, ArmLengthBoundsPoisonSymbolsTiedToTheLength) {
  // A length field check up front ties len to `total` (len == total + 14),
  // so the kept arm's len >= 62 means total >= 48. The continuation tests
  // only `total`, never the length, yet "small" (total 46, len 60) is
  // reachable through the dropped arm alone: the arm's bound must poison
  // the length and, through the tie, `total`.
  ir::IrBuilder b("length_field");
  const ir::Reg total = b.load_pkt_at(16, 2);
  ir::Label bad = b.make_label();
  b.br_false(b.eq(b.pkt_len(), b.add_imm(total, 14)), bad);
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);
  b.bind(heavy);
  (void)b.add(b.load_pkt_at(61, 1), x);  // byte 61 shares byte 0's line
  b.jmp(join);
  b.bind(light);
  b.jmp(join);
  b.bind(join);
  ir::Label small = b.make_label();
  b.br_true(b.ltu(total, b.imm(47)), small);
  b.class_tag("big");
  b.forward_imm(0);
  b.bind(small);
  b.class_tag("small");
  b.forward_imm(1);
  b.bind(bad);
  b.class_tag("bad");
  b.drop();
  const ir::Program p = b.finish();

  ExecutorStats stats;
  EXPECT_EQ(classes_of(p, &stats),
            (std::vector<std::string>{"bad", "big", "big", "small"}));
  EXPECT_EQ(stats.merged_states, 1u);
  EXPECT_EQ(stats.revived_states, 1u);
}

TEST(BranchJoin, AnArmItsLengthBoundMakesInfeasibleNeverStandsIn) {
  // Packets longer than 63 bytes are dropped up front. The costlier arm
  // then reads byte 63, which needs len >= 64: it has no inputs at the
  // join, so the cheaper arm must go on alone rather than be dropped.
  ir::IrBuilder b("short_only");
  ir::Label long_packet = b.make_label();
  b.br_true(b.gtu(b.pkt_len(), b.imm(63)), long_packet);
  const ir::Reg x = b.load_pkt_at(0, 1);
  ir::Label heavy = b.make_label();
  ir::Label light = b.make_label();
  ir::Label join = b.make_label();
  b.br(b.eq_imm(x, 7), heavy, light);
  b.bind(heavy);
  (void)b.add(b.load_pkt_at(63, 1), x);
  b.jmp(join);
  b.bind(light);
  b.jmp(join);
  b.bind(join);
  b.class_tag("short");
  b.forward_imm(0);
  b.bind(long_packet);
  b.class_tag("long");
  b.drop();
  const ir::Program p = b.finish();

  Executor ex({&p}, {});
  std::vector<PathResult> paths = ex.run();
  ex.solve_inputs(paths);
  ASSERT_EQ(paths.size(), 2u);
  for (const PathResult& path : paths) {
    SCOPED_TRACE(path.class_label());
    EXPECT_TRUE(path.solved);
  }
  EXPECT_EQ(ex.stats().merged_states, 0u);
  EXPECT_EQ(ex.stats().pruned_branches, 1u);
}

/// `text` with every run of spaces squeezed to one and no space before a
/// line break.
std::string squeeze(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == ' ' && !out.empty() && out.back() == ' ') continue;
    if (c == '\n' && !out.empty() && out.back() == ' ') out.pop_back();
    out += c;
  }
  return out;
}

TEST(BranchJoin, RouterPathReportsMatchPin) {
  // What `bolt paths <nf>` prints: the uncoalesced per-path contract and
  // the executor's counters. Pinned to the output of the multi-threaded
  // executor this serial one replaced.
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"router",
       "Performance contract for router\n"
       "Input Class Instructions Memory Accesses Cycles\n"
       "-------------- ------------ --------------- ------\n"
       "invalid #0 166 16 1376\n"
       "invalid #1 173 17 1394\n"
       "invalid #2 178 18 1408\n"
       "ip_options #0 474 82 2844\n"
       "ip_options #1 464 80 2816\n"
       "ip_options #2 499 88 2918\n"
       "ip_options #3 489 86 2890\n"
       "ip_options #4 249 28 1982\n"
       "ip_options #5 274 34 2056\n"
       "ip_options #6 299 40 2130\n"
       "ip_options #7 324 46 2204\n"
       "ip_options #8 349 52 2278\n"
       "ip_options #9 374 58 2352\n"
       "ip_options #10 399 64 2426\n"
       "ip_options #11 424 70 2500\n"
       "ip_options #12 439 74 2546\n"
       "ip_options #13 449 76 2770\n"
       "no_options 238 24 1748\n"
       "paths 18 pruned 2 probes 64 hits 33 misses 31 merged 11 revived 0"},
      {"fw+router",
       "Performance contract for fw+router\n"
       "Input Class Instructions Memory Accesses Cycles\n"
       "-------------------------------------------- ------------ "
       "--------------- ------\n"
       "firewall:denied #0 186 18 1424\n"
       "firewall:denied #1 200 19 1456\n"
       "firewall:denied #2 212 20 1484\n"
       "firewall:invalid #0 166 16 1376\n"
       "firewall:invalid #1 173 17 1394\n"
       "firewall:ip_options 178 17 1404\n"
       "firewall:no_options/static_router:invalid 441 43 2426\n"
       "firewall:no_options/static_router:no_options 501 49 2374\n"
       "paths 8 pruned 3 probes 17 hits 9 misses 8 merged 0 revived 0"},
  };
  for (const auto& [nf, pinned] : pins) {
    SCOPED_TRACE(nf);
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(nf, reg, target));
    core::BoltOptions options;
    options.coalesce = false;
    const core::GenerationResult r =
        core::ContractGenerator(reg, options).generate(target.analysis());
    const ExecutorStats& s = r.executor_stats;
    EXPECT_EQ(squeeze(r.contract.str_all(reg)) + "paths " +
                  std::to_string(r.total_paths) + " pruned " +
                  std::to_string(s.pruned_branches) + " probes " +
                  std::to_string(s.solver_calls) + " hits " +
                  std::to_string(s.feas_cache_hits) + " misses " +
                  std::to_string(s.feas_cache_misses) + " merged " +
                  std::to_string(s.merged_states) + " revived " +
                  std::to_string(s.revived_states),
              pinned);
  }
}

}  // namespace
}  // namespace bolt::symbex
