// The compiled-expression VM's contract: bytecode evaluation (scalar and
// batch) is bit-identical to the tree-walk PerfExpr::eval on any
// polynomial — randomized shapes up to degree >= 3, empty and constant
// expressions, negative and overflow-adjacent coefficients, and every
// registered target's generated contract at the PCV rows the monitor
// builds — and the compiler actually folds/factors (instruction-count
// sanity checks). PerfExpr::eval is the reference; the monitor only ever
// evaluates through the VM.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/partition.h"
#include "perf/expr_vm.h"
#include "perf/perf_expr.h"
#include "support/random.h"

namespace bolt::perf {
namespace {

/// Builds a random polynomial over `pcv_count` PCVs (ids 0..pcv_count-1).
PerfExpr random_poly(support::Rng& rng, std::size_t pcv_count,
                     std::size_t max_terms, int max_degree,
                     std::int64_t max_coeff) {
  PerfExpr e;
  const std::size_t terms = rng.below(max_terms + 1);
  for (std::size_t t = 0; t < terms; ++t) {
    Monomial m;
    const int degree = static_cast<int>(rng.below(max_degree + 1));
    for (int d = 0; d < degree; ++d) {
      m = m * Monomial::pcv(static_cast<PcvId>(rng.below(pcv_count)));
    }
    std::int64_t c = static_cast<std::int64_t>(rng.below(
        static_cast<std::uint64_t>(max_coeff)));
    if (rng.chance(0.2)) c = -c;  // contracts are non-negative; the VM is not
    e += PerfExpr::term(c, m);
  }
  return e;
}

PcvBinding random_binding(support::Rng& rng, std::size_t pcv_count,
                          std::uint64_t max_value) {
  PcvBinding b;
  for (PcvId id = 0; id < pcv_count; ++id) {
    if (rng.chance(0.25)) continue;  // unbound PCVs read as 0
    b.set(id, rng.below(max_value + 1));
  }
  return b;
}

TEST(ExprVm, EmptyAndConstantExpressions) {
  const CompiledExpr zero = CompiledExpr::compile(PerfExpr{});
  EXPECT_EQ(zero.eval(PcvBinding{}), 0);
  EXPECT_EQ(zero.slot_count(), 0u);

  const CompiledExpr c = CompiledExpr::compile(PerfExpr::constant(882));
  EXPECT_EQ(c.eval(PcvBinding{}), 882);
  EXPECT_EQ(c.instruction_count(), 1u);  // folds to a single kConst

  const CompiledExpr neg = CompiledExpr::compile(PerfExpr::constant(-7));
  EXPECT_EQ(neg.eval(PcvBinding{}), -7);
}

TEST(ExprVm, Table4ShapeMatchesTreeWalkAndFactors) {
  // 245*e + 144*c + 36*t + 82*e*c + 19*e*t + 882 (paper Table 4).
  const PcvId e = 0, c = 1, t = 2;
  PerfExpr expr;
  expr += PerfExpr::term(245, Monomial::pcv(e));
  expr += PerfExpr::term(144, Monomial::pcv(c));
  expr += PerfExpr::term(36, Monomial::pcv(t));
  expr += PerfExpr::term(82, Monomial::pcv(e) * Monomial::pcv(c));
  expr += PerfExpr::term(19, Monomial::pcv(e) * Monomial::pcv(t));
  expr += PerfExpr::constant(882);

  const CompiledExpr vm = CompiledExpr::compile(expr);
  support::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const PcvBinding bind = random_binding(rng, 3, 1 << 20);
    ASSERT_EQ(vm.eval(bind), expr.eval(bind)) << vm.str();
  }
  // Horner on e: e*(245 + 82*c + 19*t) + 144*c + 36*t + 882.
  // Naive term-by-term is 6 multiplies for the products alone plus adds;
  // the factored form needs at most 5 multiplies and 5 adds + loads/consts.
  EXPECT_LE(vm.instruction_count(), 20u) << vm.str();
}

TEST(ExprVm, RandomizedEquivalenceScalar) {
  support::Rng rng(1234);
  for (int round = 0; round < 400; ++round) {
    // Degree up to 4, coefficients up to 2^40, bindings up to 2^5: products
    // stay within int64 (overflow-adjacent, but defined in the tree walk).
    const PerfExpr expr = random_poly(rng, 6, 10, 4, std::int64_t{1} << 40);
    const CompiledExpr vm = CompiledExpr::compile(expr);
    for (int i = 0; i < 20; ++i) {
      const PcvBinding bind = random_binding(rng, 6, 31);
      ASSERT_EQ(vm.eval(bind), expr.eval(bind))
          << "round " << round << ": " << vm.str();
    }
  }
}

TEST(ExprVm, RandomizedEquivalenceBatch) {
  support::Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    const PerfExpr expr = random_poly(rng, 5, 8, 3, std::int64_t{1} << 32);
    const CompiledExpr vm = CompiledExpr::compile(expr);
    const std::size_t stride = 5;
    // An odd batch size exercises the partial trailing lane block.
    const std::size_t count = 1 + rng.below(300);
    std::vector<std::uint64_t> slots(stride * count);
    std::vector<PcvBinding> binds(count);
    for (std::size_t row = 0; row < count; ++row) {
      binds[row] = random_binding(rng, 5, 63);
      for (const auto& [id, v] : binds[row].values()) {
        slots[row * stride + id] = v;
      }
    }
    std::vector<std::int64_t> out(count);
    vm.eval_batch(slots.data(), stride, count, out.data());
    for (std::size_t row = 0; row < count; ++row) {
      ASSERT_EQ(out[row], expr.eval(binds[row])) << "round " << round;
    }
  }
}

TEST(ExprVm, CseSharesRepeatedStructure) {
  // (1 + e*c) appears in two places once factored: e*c*t + e*c + 5.
  const PcvId e = 0, c = 1, t = 2;
  PerfExpr expr;
  expr += PerfExpr::term(1, Monomial::pcv(e) * Monomial::pcv(c) * Monomial::pcv(t));
  expr += PerfExpr::term(1, Monomial::pcv(e) * Monomial::pcv(c));
  expr += PerfExpr::constant(5);
  const CompiledExpr vm = CompiledExpr::compile(expr);
  // Loads e, c, t at most once each.
  support::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const PcvBinding bind = random_binding(rng, 3, 1 << 10);
    ASSERT_EQ(vm.eval(bind), expr.eval(bind)) << vm.str();
  }
  EXPECT_LE(vm.instruction_count(), 9u) << vm.str();
}

/// The tree-walk binding of a dense PCV row (unset PCVs read as 0).
PcvBinding binding_of(const std::uint64_t* row, std::size_t stride) {
  PcvBinding b;
  for (std::size_t s = 0; s < stride; ++s) {
    if (row[s] != 0) b.set(static_cast<PcvId>(s), row[s]);
  }
  return b;
}

class ContractVm : public ::testing::TestWithParam<std::string> {};

TEST_P(ContractVm, BatchEvalMatchesTreeWalkOnWitnessAndRandomRows) {
  const std::string name = GetParam();
  PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target(name, reg, target));
  core::ContractGenerator gen(reg);
  const core::GenerationResult result = gen.generate(target.analysis());
  const monitor::MonitorOptions opts;
  const monitor::CompiledContract compiled(result.contract, reg, opts);
  const std::size_t stride = compiled.slot_stride;

  // Witness rows: every solved path's witness packet stepped through the
  // monitor's own partition runner, so the rows are exactly the dense PCV
  // rows the monitor evaluates bounds over.
  monitor::PartitionRunner runner(compiled, opts,
                                  monitor::MonitorEngine::named_factory(name));
  std::vector<std::uint64_t> slots;
  for (const core::PathReport& path : result.path_reports) {
    if (!path.solved) continue;
    runner.step(path.input);
    slots.resize(slots.size() + stride);
    runner.fill_row(slots.data() + slots.size() - stride);
  }
  const std::size_t witness_rows = slots.size() / stride;
  ASSERT_GT(witness_rows, 0u);
  // Random rows on top, spanning small trip counts to large occupancies.
  support::Rng rng(0xC0117AC7u);
  for (std::size_t r = 0; r < 256; ++r) {
    for (std::size_t s = 0; s < stride; ++s) {
      slots.push_back(rng.chance(0.3) ? 0 : rng.below(std::uint64_t{1} << 16));
    }
  }
  const std::size_t rows = slots.size() / stride;

  std::vector<std::int64_t> out(rows);
  BatchScratch scratch;
  for (std::size_t e = 0; e < compiled.bounds.size(); ++e) {
    const ContractEntry& entry = result.contract.entries()[e];
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      compiled.bounds[e][mi].eval_batch(slots.data(), stride, rows,
                                        out.data(), scratch);
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(out[r],
                  entry.perf.get(m).eval(
                      binding_of(slots.data() + r * stride, stride)))
            << entry.input_class << " metric " << mi << " row " << r
            << (r < witness_rows ? " (witness)" : " (random)");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, ContractVm, ::testing::ValuesIn(core::named_targets()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& c : id) {
        if (c == '+' || c == '-') c = '_';
      }
      return id;
    });

}  // namespace
}  // namespace bolt::perf
