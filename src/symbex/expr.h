// Symbolic expressions for the BOLT-repro symbolic execution engine.
//
// Expressions form an immutable, *hash-consed* DAG over 64-bit values:
// constants, symbols (unknown inputs: packet fields, packet length, ingress
// port, timestamp, and values returned by stateful models), and the IR's
// ALU/compare operators. Smart constructors fold constants and apply cheap
// algebraic simplifications so path constraints stay small.
//
// Hash consing: every node is interned in a global sharded arena, so
// structurally equal expressions are POINTER-equal (`a == b` decides
// structural equality in O(1)). Each node carries a precomputed structural
// hash (stable across runs — it depends only on structure, never on
// addresses) and a symbol-set bloom mask. ExprPtr is a plain raw pointer:
// nodes are immortal for the process lifetime, never refcounted, and copies
// are free — which is exactly what the symbolic executor's fork-heavy inner
// loop wants.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/arena.h"

namespace bolt::symbex {

enum class ExprOp : std::uint8_t {
  kAdd, kSub, kMul, kAnd, kOr, kXor, kShl, kShr, kNot,
  kEq, kNe, kLtU, kLeU, kGtU, kGeU,
};

const char* expr_op_name(ExprOp op);

enum class ExprKind : std::uint8_t { kConst, kSym, kUnary, kBinary };

using SymId = std::uint32_t;

class Expr;
/// Interned: equal structure <=> equal pointer. Never freed, never owned.
using ExprPtr = const Expr*;

using Assignment = std::map<SymId, std::uint64_t>;

class Expr {
 public:
  // Factory functions (the only way to create expressions). Results are
  // interned: calling a factory twice with the same arguments returns the
  // same pointer. Thread-safe.
  static ExprPtr constant(std::uint64_t value);
  static ExprPtr symbol(SymId id);
  static ExprPtr unary(ExprOp op, ExprPtr a);
  static ExprPtr binary(ExprOp op, ExprPtr a, ExprPtr b);

  ExprKind kind() const { return kind_; }
  bool is_const() const { return kind_ == ExprKind::kConst; }
  bool is_sym() const { return kind_ == ExprKind::kSym; }

  std::uint64_t const_value() const;  ///< requires is_const()
  SymId sym_id() const;               ///< requires is_sym()
  ExprOp op() const { return op_; }
  ExprPtr lhs() const { return a_; }
  ExprPtr rhs() const { return b_; }

  /// Precomputed structural hash: depends only on the expression's shape
  /// and values, so it is identical across runs and thread interleavings.
  /// Used for feasibility-memo keys and the intern table itself.
  std::uint64_t hash() const { return hash_; }

  /// Bloom mask of the symbols below this node (bit `id % 64`). A cheap
  /// "which inputs can this depend on" filter: disjoint masks guarantee
  /// disjoint symbol sets.
  std::uint64_t sym_mask() const { return sym_mask_; }
  bool has_symbols() const { return sym_mask_ != 0; }

  /// Evaluates under a concrete assignment; aborts on unassigned symbols.
  std::uint64_t eval(const Assignment& assignment) const;

  /// Evaluates against a flat SymId-indexed value array (the solver's
  /// search/repair hot path; every symbol in the DAG must be covered).
  std::uint64_t eval_flat(const std::uint64_t* values) const;

  /// Collects the distinct symbol ids of the DAG into `out`, each once, in
  /// first-visit (depth-first, left-to-right) order. Shared subgraphs are
  /// visited once.
  void collect_symbols(std::vector<SymId>& out) const;

  /// Collects the distinct constants of the DAG (used by the solver's
  /// candidate-value harvesting). Shared subgraphs are visited once.
  void collect_constants(std::vector<std::uint64_t>& out) const;

  std::string str(
      const std::function<std::string(SymId)>& sym_name = nullptr) const;

 private:
  template <typename, std::size_t>
  friend class support::ChunkArena;
  friend class ExprInterner;

  Expr() = default;

  ExprKind kind_ = ExprKind::kConst;
  ExprOp op_ = ExprOp::kAdd;
  std::uint64_t value_ = 0;  // const value or symbol id
  ExprPtr a_ = nullptr;
  ExprPtr b_ = nullptr;
  std::uint64_t hash_ = 0;
  std::uint64_t sym_mask_ = 0;
};

/// Depth-first, left-to-right visit of every symbol *occurrence*
/// (duplicates included — shared subgraphs are revisited). This is the
/// canonical traversal order shared by path signatures, the executor's
/// canonical renumbering, and the solver repair loop's escape
/// randomization (which picks uniformly over occurrences); keep them in
/// lockstep by keeping this the only implementation.
template <typename Fn>
void visit_symbol_occurrences(ExprPtr e, const Fn& fn) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case ExprKind::kConst:
      return;
    case ExprKind::kSym:
      fn(e->sym_id());
      return;
    case ExprKind::kUnary:
      visit_symbol_occurrences(e->lhs(), fn);
      return;
    case ExprKind::kBinary:
      visit_symbol_occurrences(e->lhs(), fn);
      visit_symbol_occurrences(e->rhs(), fn);
      return;
  }
}

/// Truthiness helpers: a *constraint* is an expression meaning "e != 0".
ExprPtr logical_not(ExprPtr e);  ///< (e == 0)
/// Applies the comparison/ALU semantics concretely (shared by the expression
/// folder, the interpreter cross-checks, and the solver).
std::uint64_t apply_op(ExprOp op, std::uint64_t a, std::uint64_t b);

/// Number of distinct expression nodes interned so far (diagnostic).
std::size_t interned_expr_count();

/// Registry of symbols with names and bit widths (domain [0, 2^width)).
///
/// Thread-safe: symbols may be minted on one thread while others read
/// names and widths. Entries are append-only (stored in a deque so
/// references stay stable across concurrent fresh() calls); rebuild()
/// replaces the whole table and must only be called from a single thread
/// between pipeline phases (the executor's canonical renumbering pass).
///
/// Hot-path readers should take a Snapshot once per solve instead of
/// paying a shared_mutex acquisition per name()/width_bits() lookup.
class SymbolTable {
 public:
  /// An immutable view of the table at snapshot time. Lock-free to read;
  /// symbols minted after the snapshot are not visible (re-snapshot when
  /// an id is out of range).
  class Snapshot {
   public:
    Snapshot() = default;
    std::size_t size() const { return entries_ ? entries_->size() : 0; }
    const std::string& name(SymId id) const;
    int width_bits(SymId id) const;
    std::uint64_t max_value(SymId id) const;

   private:
    friend class SymbolTable;
    struct Entry {
      std::string name;
      int width_bits = 0;
    };
    std::shared_ptr<const std::vector<Entry>> entries_;
  };

  SymId fresh(const std::string& name, int width_bits);
  const std::string& name(SymId id) const;
  int width_bits(SymId id) const;
  std::uint64_t max_value(SymId id) const;
  std::size_t size() const;

  /// Takes (or reuses) an immutable snapshot: one lock acquisition, O(1)
  /// when the table has not changed since the last snapshot.
  Snapshot snapshot() const;

  /// Replaces the table contents with `entries` (name, width pairs).
  /// Single-threaded use only; invalidates previously returned ids.
  void rebuild(std::vector<std::pair<std::string, int>> entries);

 private:
  struct Entry {
    std::string name;
    int width_bits = 0;
  };
  mutable std::shared_mutex mutex_;
  std::deque<Entry> entries_;
  std::uint64_t version_ = 0;  // bumped by fresh()/rebuild()
  mutable std::uint64_t snapshot_version_ = ~0ULL;
  mutable std::shared_ptr<const std::vector<Snapshot::Entry>> snapshot_cache_;
};

}  // namespace bolt::symbex
