// Constraint solver for path constraints (the reproduction's Z3/STP).
//
// NF path constraints are shallow: equalities and unsigned comparisons over
// packet-field symbols, often through a few arithmetic/masking steps. The
// solver therefore combines three techniques, cheapest first:
//   1. constant folding (done already by Expr's smart constructors),
//   2. interval + exclusion propagation per symbol, with backward
//      propagation through invertible unary chains (+c, -c, <<c, >>c,
//      & contiguous-mask), which decides most constraints outright, and
//   3. guided concrete search: candidate values harvested from the
//      constraint DAG (constants, interval endpoints) plus bounded random
//      probing, re-evaluating all constraints concretely.
//
// The result is three-valued: kSat (with a model), kUnsat (proved empty by
// propagation), or kUnknown (search exhausted its budget). Callers treat
// kUnknown conservatively: branch feasibility checks keep the path alive.
//
// Hot-path machinery for the symbolic executor:
//   * DomainStore — the propagated interval state, carried *in* each
//     exploration state and extended one constraint at a time
//     (propagate_into), so a fork's feasibility check no longer re-derives
//     the whole path's domains from scratch. Derived-expression "views"
//     are keyed on interned expression pointers (structural equality is
//     pointer equality), not strings.
//   * a per-solver memo of search verdicts keyed on the structural hash of
//     the constraint set — sibling paths across an NF chain re-test
//     identical header-guard sets constantly, and the memo answers those
//     in O(1).
//   * search/repair run on a flat SymId-indexed value array instead of a
//     std::map (the Assignment map survives only at API boundaries).
//
// A Solver instance is cheap to construct and NOT shareable across threads
// (it owns mutable scratch + the memo); the executor builds one per run.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/random.h"
#include "support/span.h"
#include "symbex/expr.h"

namespace bolt::symbex {

enum class SolveStatus { kSat, kUnsat, kUnknown };

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  Assignment model;  ///< valid when status == kSat
};

struct SolverOptions {
  std::uint64_t seed = 0x5eed;
  int random_probes = 4'000;       ///< random assignments tried in search
  int per_symbol_candidates = 64;  ///< cap on harvested candidates per symbol
  bool memoize = true;             ///< cache quick-check search verdicts
};

/// Interval + exclusion domain of one symbol or derived expression.
struct Domain {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~0ULL;
  std::vector<std::uint64_t> excluded;  // small set of != values
  bool empty() const { return lo > hi; }
};

/// Propagated domain state of a constraint set, built one constraint at a
/// time. Copy it when a path forks; the copy is two vector clones.
/// Incrementally folding constraint N+1 into the store yields exactly the
/// state a batch propagation over all N+1 constraints would (propagation
/// is a single pass of commutative interval intersections).
/// Sparse concrete assignment: (symbol, value) pairs, sorted by symbol.
using Witness = std::vector<std::pair<SymId, std::uint64_t>>;

struct DomainStore {
  /// Per-symbol domains, indexed by SymId and grown lazily. Slots start at
  /// the full 64-bit range; readers clamp `hi` by the symbol's width on
  /// access (so untouched slots need no initialization pass).
  std::vector<Domain> by_sym;
  /// Derived-expression domains ("views"), keyed by interned pointer.
  /// Linear scan: constraint sets are shallow and short.
  std::vector<std::pair<ExprPtr, Domain>> views;
  /// The last satisfying assignment a feasibility check found for this
  /// constraint set. Forks inherit it: a child's check warm-starts from
  /// the parent's witness, so it usually costs one evaluation of the set
  /// (old constraints are still satisfied; only the new branch constraint
  /// can fail, and targeted repair fixes that) instead of a candidate
  /// search from scratch.
  Witness witness;
  /// Sorted distinct symbols of the propagated constraints, maintained by
  /// propagate_into so feasibility checks never re-walk the whole set.
  std::vector<SymId> syms;
  /// Constraints [0, checked_upto) are known satisfied by `witness`
  /// (established the last time a check rebuilt the witness). A later
  /// check therefore only needs to evaluate the appended suffix.
  std::size_t checked_upto = 0;
  /// Some propagated constraint emptied a domain: definitely unsat.
  bool infeasible = false;
  /// A literally constant-false constraint was added (the executor's
  /// legacy fast path: reported as infeasible but not counted as a solver
  /// prune).
  bool const_false = false;
};

class Solver {
 public:
  struct Counters {
    std::uint64_t quick_checks = 0;  ///< feasibility probes issued
    /// Constraint-set memo (batch quick_check only — the incremental path
    /// keeps its witness a function of the path, see
    /// quick_check_incremental).
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    /// Incremental probes settled by the verified-prefix witness fast
    /// path vs. probes that had to run the bounded search. Deterministic:
    /// both are pure functions of the (deterministic) exploration tree.
    std::uint64_t witness_hits = 0;
    std::uint64_t witness_searches = 0;
  };

  Solver(const SymbolTable& symbols, SolverOptions options = {});

  /// Full solve: propagation + search. `hint` (optional) seeds the search
  /// with a previously found witness — the executor passes each path's
  /// final exploration witness, which usually satisfies the set outright.
  SolveResult solve(support::Span<const ExprPtr> constraints,
                    const Witness* hint = nullptr) const;

  /// Quick feasibility probe with a reduced search budget (used on every
  /// symbolic branch, so it must be fast).
  SolveStatus quick_check(support::Span<const ExprPtr> constraints) const;

  /// Folds one new constraint into `store` (interval propagation only).
  /// Sets store.infeasible when the constraint empties a domain. No-op on
  /// stores that are already infeasible.
  void propagate_into(DomainStore& store, ExprPtr constraint) const;

  /// quick_check against domains already carried in `store` (propagation
  /// is NOT re-run — the caller kept `store` in sync via propagate_into).
  /// Returns kUnsat if the store is infeasible; otherwise tries the
  /// carried witness (+ targeted repair of the constraints the witness
  /// misses), falling back to the bounded search to distinguish kSat from
  /// kUnknown. Updates store.witness on success.
  ///
  /// Deliberately does NOT consult the constraint-set memo: a memo hit
  /// would skip the witness update, so a path's witness, which seeds the
  /// final input solve, would depend on which other paths were probed
  /// first, not on the path alone. The witness/verified-prefix cache
  /// carried in the store is this path's dedup mechanism instead.
  SolveStatus quick_check_incremental(DomainStore& store,
                                      support::Span<const ExprPtr> constraints) const;

  const Counters& counters() const { return counters_; }

 private:
  /// Batch propagation; returns false if some domain became empty.
  bool propagate(support::Span<const ExprPtr> constraints,
                 DomainStore& store) const;

  /// Constrains `e` (which must reduce to a symbol through an invertible
  /// chain) so that its value lies in [lo, hi]. Returns false on empty.
  bool constrain(ExprPtr e, std::uint64_t lo, std::uint64_t hi,
                 DomainStore& store) const;

  /// Concrete search. `hint` seeds the initial assignment; `witness_out`
  /// (optional) receives the satisfying assignment on success;
  /// `repair_first` runs the targeted repair phase before the candidate
  /// odometer (the quick-check ordering: when a warm-started assignment
  /// fails, usually exactly one constraint is broken and inverting its
  /// chain is far cheaper than enumerating candidate combinations);
  /// `syms_hint` is the precomputed sorted symbol set (DomainStore::syms)
  /// when the caller maintained one. The candidate/harvest machinery is
  /// built lazily — a warm start that satisfies the set outright allocates
  /// nothing.
  bool search(support::Span<const ExprPtr> constraints,
              const DomainStore& store, int probes, Assignment* model,
              const Witness* hint = nullptr, Witness* witness_out = nullptr,
              bool repair_first = false,
              const std::vector<SymId>* syms_hint = nullptr) const;

  /// Memoized search wrapper for batch quick_check: verdicts are cached
  /// per constraint-set hash (sibling batch callers re-test identical
  /// sets). The incremental flavour bypasses this — see
  /// quick_check_incremental.
  SolveStatus checked_search(support::Span<const ExprPtr> constraints,
                             const DomainStore& store, int probes,
                             const std::vector<SymId>* syms_hint = nullptr) const;

  /// WalkSAT-style repair: mutates the flat model so that `constraint`
  /// becomes true, inverting the constraint's expression chain bit-exactly
  /// where possible (through +c, -c, <<, >>, &mask, ^c and one branch of
  /// |/&). Returns false when no repair rule applies.
  bool repair(ExprPtr constraint, std::uint64_t* model,
              support::Rng& rng) const;
  /// Assigns `target` to the symbol at the bottom of expression `e`,
  /// preserving bits that `e` does not observe. Helper of repair().
  bool invert_assign(ExprPtr e, std::uint64_t target, std::uint64_t* model,
                     support::Rng& rng) const;

  /// Width-clamped read of a symbol's domain (lazily defaulted).
  void read_domain(const DomainStore& store, SymId id, std::uint64_t& lo,
                   std::uint64_t& hi,
                   const std::vector<std::uint64_t>** excluded) const;

  std::uint64_t max_value(SymId id) const;

  const SymbolTable& symbols_;
  SolverOptions options_;
  mutable std::unordered_map<std::uint64_t, SolveStatus> feas_memo_;
  mutable std::vector<std::uint64_t> flat_;  ///< search/repair scratch
  mutable std::vector<SymId> sym_scratch_;   ///< propagate_into scratch
  mutable Counters counters_;
};

}  // namespace bolt::symbex
