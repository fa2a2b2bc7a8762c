// Property tests for hash-consed expression interning.
//
// The interner's contract: structural equality <=> pointer equality, the
// smart-constructor folds behave exactly as the un-interned seed did, the
// precomputed hash is structural (identical across construction orders),
// and the DAG walks that exploit sharing (collect_symbols /
// collect_constants / eval_flat) agree with the naive definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "support/random.h"
#include "symbex/expr.h"

namespace bolt::symbex {
namespace {

/// Deterministic random expression DAG over `syms`. Identical rng state
/// builds an identical structure — the interner must return identical
/// pointers for the two builds.
ExprPtr random_expr(support::Rng& rng, const std::vector<SymId>& syms,
                    int depth) {
  if (depth == 0 || rng.chance(0.3)) {
    if (rng.chance(0.6)) return Expr::symbol(syms[rng.below(syms.size())]);
    return Expr::constant(rng.below(1 << 20));
  }
  static const ExprOp ops[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                               ExprOp::kAnd, ExprOp::kOr,  ExprOp::kXor,
                               ExprOp::kShl, ExprOp::kShr, ExprOp::kEq,
                               ExprOp::kNe,  ExprOp::kLtU, ExprOp::kGeU};
  const ExprOp op = ops[rng.below(12)];
  ExprPtr a = random_expr(rng, syms, depth - 1);
  ExprPtr b = random_expr(rng, syms, depth - 1);
  return Expr::binary(op, a, b);
}

/// Structural comparison that does NOT rely on interning.
bool structurally_equal(ExprPtr a, ExprPtr b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ExprKind::kConst: return a->const_value() == b->const_value();
    case ExprKind::kSym: return a->sym_id() == b->sym_id();
    case ExprKind::kUnary:
      return a->op() == b->op() && structurally_equal(a->lhs(), b->lhs());
    case ExprKind::kBinary:
      return a->op() == b->op() && structurally_equal(a->lhs(), b->lhs()) &&
             structurally_equal(a->rhs(), b->rhs());
  }
  return false;
}

class InternPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InternPropertyTest, StructuralEqualityIsPointerEquality) {
  const std::vector<SymId> syms = {0, 1, 2, 3};
  // Build the same random DAG twice from identical rng state.
  support::Rng rng_a(GetParam());
  support::Rng rng_b(GetParam());
  for (int i = 0; i < 50; ++i) {
    const ExprPtr a = random_expr(rng_a, syms, 3);
    const ExprPtr b = random_expr(rng_b, syms, 3);
    ASSERT_TRUE(structurally_equal(a, b));
    EXPECT_EQ(a, b) << "same structure must intern to the same node";
    EXPECT_EQ(a->hash(), b->hash());
  }
  // And in the other direction: pointer equality implies structural
  // equality trivially, but distinct structures must not alias.
  support::Rng rng_c(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 50; ++i) {
    const ExprPtr a = random_expr(rng_c, syms, 3);
    const ExprPtr b = random_expr(rng_c, syms, 3);
    if (a == b) {
      EXPECT_TRUE(structurally_equal(a, b));
    }
    if (!structurally_equal(a, b)) {
      EXPECT_NE(a, b);
    }
  }
}

TEST_P(InternPropertyTest, EvalFlatMatchesEvalMap) {
  const std::vector<SymId> syms = {0, 1, 2};
  support::Rng rng(GetParam() * 7919 + 1);
  for (int i = 0; i < 30; ++i) {
    const ExprPtr e = random_expr(rng, syms, 3);
    Assignment map_model;
    std::uint64_t flat[3];
    for (SymId s : syms) {
      const std::uint64_t v = rng.next();
      map_model[s] = v;
      flat[s] = v;
    }
    EXPECT_EQ(e->eval(map_model), e->eval_flat(flat));
  }
}

TEST_P(InternPropertyTest, HashIsStructuralNotPositional) {
  const std::vector<SymId> syms = {0, 1};
  support::Rng rng(GetParam() + 17);
  const ExprPtr e = random_expr(rng, syms, 3);
  // Interleave unrelated constructions, then rebuild: same node, same hash.
  for (int i = 0; i < 20; ++i) (void)Expr::constant(rng.next());
  support::Rng rng2(GetParam() + 17);
  const ExprPtr e2 = random_expr(rng2, syms, 3);
  EXPECT_EQ(e, e2);
  EXPECT_EQ(e->hash(), e2->hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// ------------------------------------------- seed smart-constructor folds --

TEST(InternFolds, ConstantFoldingMatchesApplyOp) {
  support::Rng rng(0xf01d);
  static const ExprOp ops[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                               ExprOp::kAnd, ExprOp::kOr,  ExprOp::kXor,
                               ExprOp::kShl, ExprOp::kShr, ExprOp::kEq,
                               ExprOp::kNe,  ExprOp::kLtU, ExprOp::kLeU,
                               ExprOp::kGtU, ExprOp::kGeU};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next(), b = rng.next();
    const ExprOp op = ops[rng.below(14)];
    const ExprPtr e =
        Expr::binary(op, Expr::constant(a), Expr::constant(b));
    ASSERT_TRUE(e->is_const());
    EXPECT_EQ(e->const_value(), apply_op(op, a, b));
  }
  const ExprPtr n = Expr::unary(ExprOp::kNot, Expr::constant(5));
  ASSERT_TRUE(n->is_const());
  EXPECT_EQ(n->const_value(), ~5ULL);
}

TEST(InternFolds, AlgebraicIdentitiesUnchangedFromSeed) {
  const ExprPtr x = Expr::symbol(1000);
  const ExprPtr zero = Expr::constant(0);
  const ExprPtr one = Expr::constant(1);
  // Right-constant identities.
  EXPECT_EQ(Expr::binary(ExprOp::kAdd, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kSub, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kOr, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kXor, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kShl, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kShr, x, zero), x);
  EXPECT_EQ(Expr::binary(ExprOp::kMul, x, zero), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kAnd, x, zero), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kMul, x, one), x);
  EXPECT_EQ(Expr::binary(ExprOp::kAnd, x, Expr::constant(~0ULL)), x);
  // Left-constant identities.
  EXPECT_EQ(Expr::binary(ExprOp::kAdd, zero, x), x);
  EXPECT_EQ(Expr::binary(ExprOp::kOr, zero, x), x);
  EXPECT_EQ(Expr::binary(ExprOp::kXor, zero, x), x);
  EXPECT_EQ(Expr::binary(ExprOp::kMul, zero, x), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kAnd, zero, x), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kMul, one, x), x);
  // Same-operand folds (now reach any structurally shared operand).
  const ExprPtr sum = Expr::binary(ExprOp::kAdd, x, one);
  const ExprPtr sum2 = Expr::binary(ExprOp::kAdd, x, one);
  EXPECT_EQ(sum, sum2);
  EXPECT_EQ(Expr::binary(ExprOp::kSub, sum, sum2), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kXor, sum, sum2), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kAnd, sum, sum2), sum);
  EXPECT_EQ(Expr::binary(ExprOp::kOr, sum, sum2), sum);
  EXPECT_EQ(Expr::binary(ExprOp::kEq, sum, sum2), one);
  EXPECT_EQ(Expr::binary(ExprOp::kLeU, sum, sum2), one);
  EXPECT_EQ(Expr::binary(ExprOp::kGeU, sum, sum2), one);
  EXPECT_EQ(Expr::binary(ExprOp::kNe, sum, sum2), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kLtU, sum, sum2), zero);
  EXPECT_EQ(Expr::binary(ExprOp::kGtU, sum, sum2), zero);
}

TEST(InternFolds, LogicalNotNegatesComparisonsStructurally) {
  const ExprPtr x = Expr::symbol(1001);
  const ExprPtr k = Expr::constant(7);
  EXPECT_EQ(logical_not(Expr::binary(ExprOp::kEq, x, k)),
            Expr::binary(ExprOp::kNe, x, k));
  EXPECT_EQ(logical_not(Expr::binary(ExprOp::kLtU, x, k)),
            Expr::binary(ExprOp::kGeU, x, k));
  EXPECT_EQ(logical_not(Expr::binary(ExprOp::kGtU, x, k)),
            Expr::binary(ExprOp::kLeU, x, k));
  // Non-comparisons fall back to (e == 0).
  const ExprPtr sum = Expr::binary(ExprOp::kAdd, x, k);
  EXPECT_EQ(logical_not(sum),
            Expr::binary(ExprOp::kEq, sum, Expr::constant(0)));
}

// ------------------------------------------------------------- DAG walks --

TEST(InternWalks, CollectVisitsSharedSubgraphsOnce) {
  const ExprPtr x = Expr::symbol(1002);
  const ExprPtr shared = Expr::binary(ExprOp::kMul, x, Expr::constant(3));
  // Diamond: (x*3) + (x*3 ^ 5) — x appears below two shared parents.
  const ExprPtr e = Expr::binary(
      ExprOp::kAdd, shared,
      Expr::binary(ExprOp::kXor, shared, Expr::constant(5)));
  std::vector<SymId> syms;
  e->collect_symbols(syms);
  EXPECT_EQ(syms, std::vector<SymId>{1002});  // once, not three times
  std::vector<std::uint64_t> consts;
  e->collect_constants(consts);
  std::sort(consts.begin(), consts.end());
  EXPECT_EQ(consts, (std::vector<std::uint64_t>{3, 5}));
}

TEST(InternWalks, SymMaskCoversAllSymbols) {
  const ExprPtr e = Expr::binary(ExprOp::kAdd, Expr::symbol(3),
                                 Expr::binary(ExprOp::kXor, Expr::symbol(70),
                                              Expr::constant(1)));
  EXPECT_NE(e->sym_mask() & (1ULL << 3), 0u);
  EXPECT_NE(e->sym_mask() & (1ULL << (70 % 64)), 0u);
  EXPECT_FALSE(Expr::constant(9)->has_symbols());
  EXPECT_TRUE(e->has_symbols());
}

// ---------------------------------------------------------- concurrency --

TEST(InternConcurrency, ParallelBuildersConvergeOnIdenticalNodes) {
  // 8 threads interning the same expression family must all observe the
  // same pointers (exercises the sharded table under contention; run
  // under TSan in CI).
  constexpr int kThreads = 8;
  constexpr int kExprs = 400;
  std::vector<std::vector<ExprPtr>> built(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &built] {
      auto& out = built[static_cast<std::size_t>(t)];
      out.reserve(kExprs);
      for (int i = 0; i < kExprs; ++i) {
        const ExprPtr e = Expr::binary(
            ExprOp::kEq,
            Expr::binary(ExprOp::kAnd, Expr::symbol(static_cast<SymId>(i % 7)),
                         Expr::constant(0xff)),
            Expr::constant(static_cast<std::uint64_t>(i)));
        out.push_back(e);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(built[0], built[static_cast<std::size_t>(t)]);
  }
}

// ------------------------------------------------------ symbol snapshots --

TEST(SymbolSnapshot, MatchesLiveTableAndStaysImmutable) {
  SymbolTable table;
  const SymId a = table.fresh("a", 8);
  const SymId b = table.fresh("b", 16);
  const SymbolTable::Snapshot snap = table.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.name(a), "a");
  EXPECT_EQ(snap.width_bits(b), 16);
  EXPECT_EQ(snap.max_value(a), 0xffu);
  // Later mints are not visible in the old snapshot...
  const SymId c = table.fresh("c", 32);
  EXPECT_EQ(snap.size(), 2u);
  // ...but a fresh snapshot sees them, and unchanged tables share the
  // cached snapshot storage (one lock, no copy).
  const SymbolTable::Snapshot snap2 = table.snapshot();
  ASSERT_EQ(snap2.size(), 3u);
  EXPECT_EQ(snap2.name(c), "c");
  EXPECT_EQ(snap2.max_value(c), 0xffffffffu);
  const SymbolTable::Snapshot snap3 = table.snapshot();
  EXPECT_EQ(&snap3.name(c), &snap2.name(c));
}

}  // namespace
}  // namespace bolt::symbex
