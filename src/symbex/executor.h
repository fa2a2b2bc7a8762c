// Symbolic executor over the IR (the reproduction's KLEE).
//
// Explores every feasible path through one stateless NF program — or a
// *chain* of programs executed back to back, which implements the paper's
// joint chain analysis (§3.4) — forking at symbolic branches and at each
// modelled stateful call's abstract-state cases. Loop headers are trip-
// counted per path so the contract generator can fold unrolled loop
// families back into closed forms.
//
// Branch-join dominance pruning (docs/ARCHITECTURE.md, "Branch-join
// pruning in the executor"): when both arms of a branch are feasible and
// rejoin through straight-line code, both run inline to the join. If they
// leave identical live registers, locals, scratch and cache-line recency,
// and one arm's instruction, multiply, access and line-probe counts each
// cover the other's (with every probe of the cheaper arm a proven L1
// hit), only the costlier arm continues, provided the solver still finds
// a witness for it at the join. The dropped state rides along as a
// revival record, with the packet ranges and symbols its arm made
// different as "poison"; if the kept state or any descendant touches the
// poison, the dropped state is explored after all. A loop that forks on a per-trip byte (the static
// router's IP options) therefore grows its path count with the trip count,
// not with 2^trips, and every contract stays the same.
//
// Hot-path architecture (the "recompute the contract after an NF change"
// inner loop):
//   * expressions are hash-consed (symbex/expr.h), so forking a state
//     copies raw pointers, and feasibility machinery compares and hashes
//     constraints in O(1);
//   * each exploration state carries the solver's propagated interval
//     domains (solver::DomainStore), so a fork's feasibility check only
//     propagates the one new branch constraint instead of re-deriving the
//     whole path's domains;
//   * exploration is serial: one LIFO stack of pending states (newest
//     first, so memory use stays DFS-like) and one solver. With branch-join
//     pruning no registered target has more than a few dozen paths, so
//     going wide inside one generation cost more than it saved.
// Completed paths are canonicalized after exploration: the output order is
// the structural-signature order, not the order paths were explored in.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ir/program.h"
#include "symbex/expr.h"
#include "symbex/model.h"
#include "symbex/path.h"
#include "symbex/solver.h"

namespace bolt::symbex {

struct ExecutorOptions {
  /// Path budget. Truncation is *canonical*: when exploration completes
  /// more paths than this, the paths with the smallest structural
  /// signatures are kept (the canonical prefix of the sorted path set),
  /// the rest are counted in `ExecutorStats::truncated_paths`. A tight
  /// budget therefore bounds memory and output size, not exploration
  /// time — every path is still visited once.
  std::size_t max_paths = 4096;
  std::uint64_t max_steps_per_path = 100'000;
  std::uint64_t max_loop_trips = 64;     ///< per loop header per path
  bool prune_infeasible = true;          ///< solver-check each fork
  /// No code reads this; it goes with the next benchmark change.
  std::size_t threads = 0;
  SolverOptions solver;
  /// Initial contents of NF-local scratch memory. Scratch is configuration,
  /// not input, so the executor treats it concretely (the P1/P2/P3
  /// microprograms chase pointers through it).
  std::vector<std::uint64_t> scratch_init;
};

struct ExecutorStats {
  std::size_t completed_paths = 0;   ///< paths returned (post-truncation)
  std::size_t truncated_paths = 0;   ///< completed but evicted by max_paths
  std::size_t pruned_branches = 0;   ///< forks proved infeasible
  std::size_t abandoned_paths = 0;   ///< loop/step budget exceeded
  std::size_t solver_unknowns = 0;   ///< feasibility checks that timed out
  // Hot-path instrumentation: probes and the witness/verified-prefix
  // cache are pure functions of the exploration tree.
  std::size_t solver_calls = 0;      ///< feasibility probes issued
  std::size_t feas_cache_hits = 0;   ///< settled by the carried witness
  std::size_t feas_cache_misses = 0; ///< required an actual bounded search
  // Branch-join pruning.
  std::size_t merged_states = 0;     ///< dominated arms dropped at a join
  std::size_t revived_states = 0;    ///< dropped arms explored after all
};

class Executor {
 public:
  /// `programs` is a chain executed in order while each forwards; a single
  /// NF is a chain of length one. `models` maps method id -> symbolic model
  /// and is shared by all programs in the chain.
  Executor(std::vector<const ir::Program*> programs,
           std::map<std::int64_t, SymbolicModel> models,
           ExecutorOptions options = {});

  /// Exhaustively executes and returns all completed paths (unsolved;
  /// run `solve_inputs` afterwards or let the bolt pipeline do it).
  ///
  /// Exploration pops pending states newest first off one stack and
  /// prunes forks with one Solver. Completed paths are then
  /// *canonicalized*: sorted by a structural signature and their symbols
  /// renumbered in first-use order over that ordering. Call run() at most
  /// once per Executor instance (canonicalization rebuilds the symbol
  /// table).
  std::vector<PathResult> run();

  /// Solves each path's constraints for a concrete input (paper Alg. 2,
  /// GetInputsForPath). Marks paths `solved` and fills `model`.
  void solve_inputs(std::vector<PathResult>& paths) const;

  const ExecutorStats& stats() const { return stats_; }
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

 private:
  struct State;    // defined in executor.cpp
  struct Revival;  // a dropped arm and its poison, in executor.cpp
  struct Explore;  // one run's stack, solver, result sink and instruction
                   // semantics, in executor.cpp

  /// Static facts of one kBr for branch-join pruning.
  struct BranchJoin {
    std::int32_t join = -1;     ///< first pc both arms reach, or -1
    std::vector<ir::Reg> live;  ///< registers live at `join`
  };

  void enter_program(State& s, std::size_t index) const;
  /// Records a stretch of accesses the executor cannot see in `s`'s
  /// cache-line recency.
  static void mark_unseen(State& s);
  /// Deterministic post-pass over paths *already in canonical signature
  /// order* (run()'s result sink maintains that order): renumbers symbols
  /// in first-use order and rewrites every expression (see run()).
  void canonicalize(std::vector<PathResult>& paths);

  std::vector<const ir::Program*> programs_;
  /// joins_[program][pc]: the branch-join facts of each kBr (default
  /// elsewhere), computed once at construction.
  std::vector<std::vector<BranchJoin>> joins_;
  std::map<std::int64_t, SymbolicModel> models_;
  ExecutorOptions options_;
  SymbolTable symbols_;
  ExecutorStats stats_;
};

}  // namespace bolt::symbex
