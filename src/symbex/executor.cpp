#include "symbex/executor.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "ir/cost.h"
#include "ir/cycle_meter.h"
#include "support/assert.h"
#include "support/cache.h"

namespace bolt::symbex {

std::string PathResult::class_label() const {
  std::string out;
  for (const auto& tag : class_tags) {
    if (!out.empty()) out += '/';
    out += tag;
  }
  return out.empty() ? "(untagged)" : out;
}

ModelOutcome fresh_value_outcome(SymbolTable& symbols, const std::string& label,
                                 const std::string& sym_name, int width_bits) {
  ModelOutcome outcome;
  outcome.case_label = label;
  outcome.ret0 = Expr::symbol(symbols.fresh(sym_name, width_bits));
  return outcome;
}

struct Executor::State {
  std::size_t prog_index = 0;
  std::size_t pc = 0;
  std::uint64_t steps = 0;
  std::vector<ExprPtr> regs;
  std::vector<ExprPtr> locals;
  std::vector<ExprPtr> scratch;  // shared layout, copied on fork
  PathResult path;
  /// The solver's propagated domains over path.constraints, maintained
  /// incrementally: every constraint pushed onto the path is folded in at
  /// push time, so feasibility checks never re-propagate the whole set.
  DomainStore inc;
  // Packet field symbols (shared packet across a chain).
  std::map<std::pair<std::uint64_t, std::uint8_t>, SymId> field_syms;
  // Packet writes, newest last.
  std::vector<std::tuple<std::uint64_t, std::uint8_t, ExprPtr>> writes;

  // What the branch-join rule compares besides path.symbex_instructions
  // and path.symbex_accesses (counted from the path's start):
  std::uint64_t muls = 0;           ///< kMul instructions
  std::uint64_t probes = 0;         ///< L1 line probes of stateless accesses
  std::uint64_t unsure_probes = 0;  ///< ... not provably L1 hits
  /// Cache-line recency of the stateless accesses, LRU first. kUnseen
  /// stands for each stretch of accesses the executor cannot see
  /// (framework rx/tx, stateful calls).
  std::vector<std::uint64_t> recency;
  /// Dropped arms this state stands in for (shared with every descendant).
  std::vector<std::shared_ptr<Revival>> revivals;
};

/// An arm dropped at a branch join, kept aside until the state that
/// dominated it touches what the two arms left different.
struct Executor::Revival {
  State dropped;  ///< the dominated arm, parked at the join
  /// Poison: packet byte ranges [lo, hi) of fields and writes either arm
  /// created, and (sorted) the symbols of either arm's constraints closed
  /// over every constraint that shares a symbol with them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::vector<SymId> syms;
  /// An arm bounded the length but the bounds were left out of `syms`
  /// (see poison()): reading the length revives.
  bool len_read = false;
  bool revived = false;  ///< pushed back for exploration already
};

namespace {

/// Visits every symbol a path references (via the canonical occurrence
/// traversal in expr.h), in a deterministic order that depends only on
/// the path's structure (never on global symbol ids).
template <typename Fn>
void visit_path_symbols(const PathResult& p, const Fn& fn) {
  for (const PacketField& f : p.fields) fn(f.sym);
  if (p.has_len_sym) fn(p.len_sym);
  if (p.has_port_sym) fn(p.port_sym);
  if (p.has_time_sym) fn(p.time_sym);
  for (const ExprPtr& c : p.constraints) visit_symbol_occurrences(c, fn);
  for (const PathCall& c : p.calls) {
    visit_symbol_occurrences(c.arg0, fn);
    visit_symbol_occurrences(c.arg1, fn);
    visit_symbol_occurrences(c.ret0, fn);
    visit_symbol_occurrences(c.ret1, fn);
  }
  visit_symbol_occurrences(p.out_port, fn);
}

/// First-use local symbol numbering for path signatures. Paths reference a
/// handful of symbols, so a flat vector beats a std::map.
struct LocalNamer {
  std::vector<SymId> order;  // index == local number
  std::size_t local_of(SymId id) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return i;
    }
    order.push_back(id);
    return order.size() - 1;
  }
};

/// Appends exactly what Expr::str would produce (with symbols named
/// "s<local#>") without building any intermediate strings — signatures are
/// computed once per completed path and were the hottest string code in
/// exploration.
void append_sig_expr(ExprPtr e, LocalNamer& names, std::string& out) {
  switch (e->kind()) {
    case ExprKind::kConst:
      out += std::to_string(e->const_value());
      return;
    case ExprKind::kSym:
      out += 's';
      out += std::to_string(names.local_of(e->sym_id()));
      return;
    case ExprKind::kUnary:
      out += "~(";
      append_sig_expr(e->lhs(), names, out);
      out += ')';
      return;
    case ExprKind::kBinary:
      out += '(';
      append_sig_expr(e->lhs(), names, out);
      out += ' ';
      out += expr_op_name(e->op());
      out += ' ';
      append_sig_expr(e->rhs(), names, out);
      out += ')';
      return;
  }
}

/// A structural key for a path that does not depend on global symbol ids:
/// every symbol is named by its first-use index *within this path*, so the
/// key is the same whatever symbols other paths minted first.
std::string path_signature(const PathResult& p) {
  LocalNamer names;

  std::string sig;
  sig.reserve(256);
  sig += p.action == PathAction::kForward ? 'F' : 'D';
  for (const std::string& tag : p.class_tags) {
    sig += '|';
    sig += tag;
  }
  for (const auto& [loop, trips] : p.loop_trips) {
    sig += ";L" + std::to_string(loop) + "=" + std::to_string(trips);
  }
  for (const PacketField& f : p.fields) {
    sig += ";f" + std::to_string(f.offset) + ":" + std::to_string(f.width);
  }
  // Register input symbols first so local numbering matches the canonical
  // visit order exactly.
  visit_path_symbols(p, [&names](SymId id) { (void)names.local_of(id); });
  for (const ExprPtr& c : p.constraints) {
    sig += ";c";
    append_sig_expr(c, names, sig);
  }
  for (const PathCall& c : p.calls) {
    sig += ";m" + std::to_string(c.method) + "=" + c.case_label;
    if (c.arg0 != nullptr) { sig += ",a0:"; append_sig_expr(c.arg0, names, sig); }
    if (c.arg1 != nullptr) { sig += ",a1:"; append_sig_expr(c.arg1, names, sig); }
    if (c.ret0 != nullptr) { sig += ",r0:"; append_sig_expr(c.ret0, names, sig); }
    if (c.ret1 != nullptr) { sig += ",r1:"; append_sig_expr(c.ret1, names, sig); }
  }
  if (p.out_port != nullptr) {
    sig += ";o";
    append_sig_expr(p.out_port, names, sig);
  }
  return sig;
}

/// The recency-list token for a stretch of unseen accesses (line numbers
/// stay below 2^58).
constexpr std::uint64_t kUnseen = ~0ULL;

/// Instructions that end straight-line code for the branch-join rule: they
/// fork, label the path, count a loop trip or end the program.
bool ends_straight_line(ir::Op op) {
  switch (op) {
    case ir::Op::kBr: case ir::Op::kCall: case ir::Op::kClassTag:
    case ir::Op::kLoopHead: case ir::Op::kForward: case ir::Op::kDrop:
      return true;
    default:
      return false;
  }
}

/// Pcs that straight-line execution from `pc` visits, ending with the
/// first instruction that ends straight-line code (included, not run).
std::vector<std::size_t> straight_walk(const ir::Program& p, std::size_t pc) {
  std::vector<std::size_t> out;
  while (pc < p.code.size() && out.size() <= p.code.size()) {
    out.push_back(pc);
    const ir::Instr& ins = p.code[pc];
    if (ends_straight_line(ins.op)) break;
    pc = ins.op == ir::Op::kJmp ? static_cast<std::size_t>(ins.t) : pc + 1;
  }
  return out;
}

/// Registers live on entry to each pc (classic backward dataflow; every
/// named operand counts as a use, which can only over-approximate).
std::vector<std::vector<std::uint64_t>> live_in(const ir::Program& p) {
  const std::size_t n = p.code.size();
  const std::size_t words = (static_cast<std::size_t>(p.num_regs) + 63) / 64;
  std::vector<std::vector<std::uint64_t>> in(n, std::vector<std::uint64_t>(words));
  auto bit = [](std::vector<std::uint64_t>& set, ir::Reg r, bool on) {
    if (r == ir::kNoReg) return;
    const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(r) % 64);
    std::uint64_t& w = set[static_cast<std::size_t>(r) / 64];
    w = on ? (w | mask) : (w & ~mask);
  };
  std::vector<std::uint64_t> cur(words);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t pc = n; pc-- > 0;) {
      const ir::Instr& ins = p.code[pc];
      std::fill(cur.begin(), cur.end(), 0);
      auto flow_from = [&](std::size_t succ) {
        if (succ >= n) return;
        for (std::size_t w = 0; w < words; ++w) cur[w] |= in[succ][w];
      };
      switch (ins.op) {
        case ir::Op::kBr:
          flow_from(static_cast<std::size_t>(ins.t));
          flow_from(static_cast<std::size_t>(ins.f));
          break;
        case ir::Op::kJmp: flow_from(static_cast<std::size_t>(ins.t)); break;
        case ir::Op::kForward: case ir::Op::kDrop: break;
        default: flow_from(pc + 1); break;
      }
      bit(cur, ins.dst, false);
      bit(cur, ins.dst2, false);
      bit(cur, ins.a, true);
      bit(cur, ins.b, true);
      if (cur != in[pc]) {
        in[pc] = cur;
        changed = true;
      }
    }
  }
  return in;
}

}  // namespace

Executor::Executor(std::vector<const ir::Program*> programs,
                   std::map<std::int64_t, SymbolicModel> models,
                   ExecutorOptions options)
    : programs_(std::move(programs)),
      models_(std::move(models)),
      options_(std::move(options)) {
  BOLT_CHECK(!programs_.empty(), "executor needs at least one program");
  for (const ir::Program* p : programs_) p->validate();

  // Branch joins: the first pc both arms of a kBr reach through
  // straight-line code, with the registers live there.
  for (const ir::Program* p : programs_) {
    std::vector<BranchJoin>& joins = joins_.emplace_back(p->code.size());
    std::vector<std::vector<std::uint64_t>> live;  // computed on demand
    for (std::size_t pc = 0; pc < p->code.size(); ++pc) {
      const ir::Instr& ins = p->code[pc];
      if (ins.op != ir::Op::kBr) continue;
      const std::vector<std::size_t> t_walk =
          straight_walk(*p, static_cast<std::size_t>(ins.t));
      for (std::size_t at : straight_walk(*p, static_cast<std::size_t>(ins.f))) {
        if (std::find(t_walk.begin(), t_walk.end(), at) == t_walk.end()) continue;
        if (at == pc) break;  // both arms loop straight back: no join
        if (live.empty()) live = live_in(*p);
        joins[pc].join = static_cast<std::int32_t>(at);
        for (ir::Reg r = 0; r < p->num_regs; ++r) {
          const std::size_t i = static_cast<std::size_t>(r);
          if ((live[at][i / 64] >> (i % 64)) & 1) joins[pc].live.push_back(r);
        }
        break;
      }
    }
  }
}

void Executor::enter_program(State& s, std::size_t index) const {
  s.prog_index = index;
  s.pc = 0;
  const ir::Program& p = *programs_[index];
  s.regs.assign(static_cast<std::size_t>(p.num_regs), nullptr);
  s.locals.assign(static_cast<std::size_t>(p.num_locals), Expr::constant(0));
  if (p.scratch_slots > 0 && s.scratch.empty()) {
    s.scratch.resize(p.scratch_slots, Expr::constant(0));
    for (std::size_t i = 0;
         i < std::min(options_.scratch_init.size(), p.scratch_slots); ++i) {
      s.scratch[i] = Expr::constant(options_.scratch_init[i]);
    }
  }
  mark_unseen(s);  // framework tx of the previous NF, rx of this one
}

/// One exploration run: the pending states, the solver that prunes forks,
/// the completed paths, and the instruction semantics that connect them.
struct Executor::Explore {
  Executor& ex;
  Solver solver;
  /// Pending states, newest last: popping the newest keeps memory use
  /// DFS-like.
  std::vector<State> stack;
  /// Completed paths keyed by their structural signature (see complete()).
  std::multimap<std::string, PathResult> results;

  /// Where a state stood when a branch forked it: the branch constraint is
  /// the first arm constraint.
  struct ArmMark {
    std::uint64_t instructions, accesses, muls, probes, unsure_probes;
    std::size_t constraints, fields, writes;
  };
  static ArmMark mark(const State& st) {
    return ArmMark{st.path.symbex_instructions, st.path.symbex_accesses,
                   st.muls, st.probes, st.unsure_probes,
                   st.path.constraints.size() - 1, st.path.fields.size(),
                   st.writes.size()};
  }

  // Appends a constraint to a state's path AND folds it into the state's
  // cached solver domains, keeping the two in lockstep. Propagating here —
  // once, where the constraint is born — is what makes every later
  // feasibility check O(new constraint) instead of O(whole path).
  void add_constraint(State& st, ExprPtr c) {
    touch_expr(st, c);
    st.path.constraints.push_back(c);
    if (ex.options_.prune_infeasible) solver.propagate_into(st.inc, c);
  }

  void ensure_len_sym(State& st) {
    if (!st.path.has_len_sym) {
      st.path.len_sym = ex.symbols_.fresh("pkt.len", 16);
      st.path.has_len_sym = true;
      const ExprPtr len = Expr::symbol(st.path.len_sym);
      add_constraint(st, Expr::binary(ExprOp::kGeU, len, Expr::constant(60)));
      add_constraint(st, Expr::binary(ExprOp::kLeU, len, Expr::constant(1514)));
    }
  }

  // Feasibility probe for a candidate extension of a path: the new
  // constraints were already folded into st.inc by add_constraint, so
  // propagation contradictions are already known, and the bounded
  // sat-search is memoized per constraint-set hash inside the solver.
  // kUnsat only when propagation proved the path empty.
  SolveStatus verdict(State& st) {
    if (!ex.options_.prune_infeasible) return SolveStatus::kUnknown;
    if (st.inc.const_false) return SolveStatus::kUnsat;  // constant-false fast path
    if (st.inc.infeasible) {
      ++ex.stats_.pruned_branches;
      return SolveStatus::kUnsat;
    }
    // No constraint since the last check, which found a witness.
    if (st.inc.checked_upto == st.path.constraints.size()) return SolveStatus::kSat;
    const SolveStatus status =
        solver.quick_check_incremental(st.inc, st.path.constraints);
    if (status == SolveStatus::kUnknown) ++ex.stats_.solver_unknowns;
    return status;
  }

  // kSat and kUnknown both keep the path alive.
  bool feasible(State& st) { return verdict(st) != SolveStatus::kUnsat; }

  // Sinks a completed path into the signature-ordered result set. The
  // max_paths budget truncates *canonically*: the set keeps the
  // `max_paths` smallest signatures seen so far and evicts the largest,
  // so the final set is the canonical prefix of the full sorted path set,
  // whatever order the paths completed in.
  void complete(State& st) {
    st.path.witness = std::move(st.inc.witness);
    std::string sig = path_signature(st.path);
    if (results.size() >= ex.options_.max_paths) {
      ++ex.stats_.truncated_paths;
      if (results.empty()) return;  // a zero budget keeps nothing
      auto last = std::prev(results.end());
      if (sig >= last->first) return;  // beyond the canonical prefix
      results.erase(last);
    }
    results.emplace(std::move(sig), std::move(st.path));
  }

  // --- the conservative L1 as far as the executor can see it -------------

  /// One stateless access: probes each line it spans, moving it to the
  /// MRU end of the recency list. A probe is a sure hit when the line was
  /// probed before with no unseen accesses since and fewer than `ways`
  /// other lines of its set in between (LRU stack distance < ways).
  static void access(State& st, std::uint64_t addr, std::uint32_t size) {
    constexpr std::size_t kWays = ir::ConservativeCycleMeter::kL1Ways;
    constexpr std::size_t kSets = ir::ConservativeCycleMeter::kL1Sets;
    const std::uint64_t first = support::line_of(addr);
    const std::uint64_t last = support::line_of(addr + size - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
      ++st.probes;
      bool sure = false;
      bool unseen = false;
      std::size_t same_set = 0;
      for (std::size_t i = st.recency.size(); i-- > 0;) {
        const std::uint64_t tok = st.recency[i];
        if (tok == line) {
          sure = !unseen && same_set < kWays;
          st.recency.erase(st.recency.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        if (tok == kUnseen) {
          unseen = true;
        } else if (tok % kSets == line % kSets) {
          ++same_set;
        }
      }
      if (!sure) ++st.unsure_probes;
      st.recency.push_back(line);
    }
  }

  // --- revival -------------------------------------------------------------

  void revive(Revival& r) {
    r.revived = true;
    ++ex.stats_.revived_states;
    stack.push_back(std::move(r.dropped));
  }

  /// Revives every pending record of `st` whose poison `hit` reports
  /// touched, and forgets records that are no longer pending.
  template <typename Hit>
  void touch(State& st, const Hit& hit) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < st.revivals.size(); ++i) {
      Revival& r = *st.revivals[i];
      if (!r.revived && hit(r)) revive(r);
      if (r.revived) continue;
      if (keep != i) st.revivals[keep] = std::move(st.revivals[i]);
      ++keep;
    }
    st.revivals.resize(keep);
  }

  void touch_expr(State& st, ExprPtr e) {
    if (st.revivals.empty() || e == nullptr) return;
    std::vector<SymId> named;
    e->collect_symbols(named);
    if (named.empty()) return;
    touch(st, [&named](const Revival& r) {
      for (SymId id : named) {
        if (std::binary_search(r.syms.begin(), r.syms.end(), id)) return true;
      }
      return false;
    });
  }

  void touch_range(State& st, std::uint64_t offset, std::uint8_t width) {
    if (st.revivals.empty()) return;
    touch(st, [&](const Revival& r) {
      for (const auto& [lo, hi] : r.ranges) {
        if (offset < hi && lo < offset + width) return true;
      }
      return false;
    });
  }

  void touch_len_read(State& st) {
    if (st.revivals.empty()) return;
    touch(st, [](const Revival& r) { return r.len_read; });
  }

  // --- branch-join pruning -------------------------------------------------

  /// Runs a state through its arm's straight-line code up to `join`.
  /// False if the state died there (step budget).
  bool run_arm(State& st, std::size_t join) {
    while (st.pc != join) {
      if (!step(st)) return false;
    }
    return true;
  }

  /// True if arm `a` (state `sa` forked at `ma`) costs at least what arm
  /// `b` does under the conservative model, whatever the cycle costs:
  /// no fewer plain instructions, multiplies, accesses or line probes, and
  /// every probe of `b` a sure L1 hit (so `b` pays L1 at most per probe,
  /// `a` at least).
  static bool covers(const State& sa, const ArmMark& ma, const State& sb,
                     const ArmMark& mb) {
    const std::uint64_t a_mul = sa.muls - ma.muls, b_mul = sb.muls - mb.muls;
    const std::uint64_t a_ic = sa.path.symbex_instructions - ma.instructions;
    const std::uint64_t b_ic = sb.path.symbex_instructions - mb.instructions;
    return a_ic - a_mul >= b_ic - b_mul && a_mul >= b_mul &&
           sa.path.symbex_accesses - ma.accesses >=
               sb.path.symbex_accesses - mb.accesses &&
           sa.probes - ma.probes >= sb.probes - mb.probes &&
           sb.unsure_probes == mb.unsure_probes;
  }

  /// True if `c` is `len >= k` or `len <= k` on `st`'s length symbol:
  /// the bounds field loads past byte 60 and the length's creation add.
  static bool is_len_bound(const State& st, ExprPtr c) {
    return st.path.has_len_sym && c->kind() == ExprKind::kBinary &&
           (c->op() == ExprOp::kGeU || c->op() == ExprOp::kLeU) &&
           c->lhs()->kind() == ExprKind::kSym &&
           c->lhs()->sym_id() == st.path.len_sym && c->rhs()->is_const();
  }

  /// Fills `r`'s poison from the arms of `kept` and `dropped`.
  static void poison(Revival& r, const State& kept, const ArmMark& mk,
                     const State& dropped, const ArmMark& md) {
    // Symbols of either arm's constraints, closed over every constraint
    // (shared prefix included) that mentions one of them: a prefix
    // constraint can tie an arm symbol to one the continuation reads.
    std::vector<std::vector<SymId>> named;
    std::vector<bool> in_arm, bound;
    auto gather = [&](const State& st, std::size_t from, std::size_t arm_from) {
      const std::vector<ExprPtr>& cs = st.path.constraints;
      for (std::size_t i = from; i < cs.size(); ++i) {
        cs[i]->collect_symbols(named.emplace_back());
        in_arm.push_back(i >= arm_from);
        bound.push_back(is_len_bound(st, cs[i]));
      }
    };
    gather(kept, 0, mk.constraints);
    gather(dropped, md.constraints, md.constraints);

    // Length bounds added in an arm. If every constraint on the kept
    // path's length is a bound, an input that took the dropped arm still
    // has a covering input after any later lower bound: the same input
    // with its length raised to the kept arm's largest lower bound (and
    // the arm's other poisoned symbols from the kept arm's model). So the
    // bounds stay out of the seeds and only reading the length revives.
    // Any other constraint on the length can tie it to other symbols, so
    // the bounds then seed the closure like every other arm constraint.
    bool arm_bounds = false;
    bool only_bounds = true;
    for (std::size_t i = 0; i < named.size(); ++i) {
      arm_bounds = arm_bounds || (in_arm[i] && bound[i]);
      const bool on_kept_len =
          i < kept.path.constraints.size() && kept.path.has_len_sym &&
          std::find(named[i].begin(), named[i].end(), kept.path.len_sym) !=
              named[i].end();
      if (on_kept_len && !bound[i]) only_bounds = false;
    }
    r.len_read = arm_bounds && only_bounds;

    std::vector<bool> taken(named.size(), false);
    std::vector<SymId>& syms = r.syms;
    auto take = [&](std::size_t i) {
      taken[i] = true;
      for (SymId id : named[i]) {
        if (std::find(syms.begin(), syms.end(), id) == syms.end()) syms.push_back(id);
      }
    };
    for (std::size_t i = 0; i < named.size(); ++i) {
      if (in_arm[i] && !(bound[i] && r.len_read)) take(i);
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (std::size_t i = 0; i < named.size(); ++i) {
        if (taken[i]) continue;
        for (SymId id : named[i]) {
          if (std::find(syms.begin(), syms.end(), id) != syms.end()) {
            take(i);
            grew = true;
            break;
          }
        }
      }
    }
    std::sort(syms.begin(), syms.end());

    auto arm_ranges = [&r](const State& st, const ArmMark& m) {
      for (std::size_t i = m.fields; i < st.path.fields.size(); ++i) {
        const PacketField& f = st.path.fields[i];
        r.ranges.emplace_back(f.offset, f.offset + f.width);
      }
      for (std::size_t i = m.writes; i < st.writes.size(); ++i) {
        const auto& [off, width, value] = st.writes[i];
        r.ranges.emplace_back(off, off + width);
      }
    };
    arm_ranges(kept, mk);
    arm_ranges(dropped, md);
  }

  /// Both arms of a branch are feasible and rejoin at `bj.join`: runs each
  /// inline to the join and, if one dominates, continues only that one
  /// (in `s`) with the other parked in a revival record. False if `s` has
  /// nothing left to run.
  bool join_arms(State& s, State f, const BranchJoin& bj) {
    ArmMark ms = mark(s), mf = mark(f);
    const std::size_t join = static_cast<std::size_t>(bj.join);
    // An arm dies on the step budget, or when a length bound one of its
    // loads added since the fork empties its path.
    const SolveStatus vs = run_arm(s, join) ? verdict(s) : SolveStatus::kUnsat;
    const SolveStatus vf = run_arm(f, join) ? verdict(f) : SolveStatus::kUnsat;
    if (vs == SolveStatus::kUnsat) {
      if (vf != SolveStatus::kUnsat) s = std::move(f);
      return vf != SolveStatus::kUnsat;
    }
    if (vf == SolveStatus::kUnsat) return true;

    bool same = s.locals == f.locals && s.scratch == f.scratch &&
                s.recency == f.recency;
    for (std::size_t i = 0; same && i < bj.live.size(); ++i) {
      const std::size_t r = static_cast<std::size_t>(bj.live[i]);
      same = s.regs[r] == f.regs[r];
    }
    // Only an arm with a witness may stand in for the other.
    const bool keep_t = same && vs == SolveStatus::kSat && covers(s, ms, f, mf);
    const bool keep_f = same && vf == SolveStatus::kSat && covers(f, mf, s, ms);
    if (!keep_t && !keep_f) {
      stack.push_back(std::move(f));
      return true;
    }
    if (!keep_t) {
      std::swap(s, f);
      std::swap(ms, mf);
    }
    auto record = std::make_shared<Revival>();
    poison(*record, s, ms, f, mf);
    record->dropped = std::move(f);
    s.revivals.push_back(std::move(record));
    ++ex.stats_.merged_states;
    return true;
  }

  bool branch(State& s, const ir::Instr& ins, ExprPtr cond) {
    if (cond->is_const()) {
      s.pc = static_cast<std::size_t>(cond->const_value() != 0 ? ins.t : ins.f);
      return true;
    }
    // Fork: the true arm continues in place and the false arm is pushed,
    // unless both are feasible and rejoin, in which case join_arms decides.
    const BranchJoin& bj = ex.joins_[s.prog_index][s.pc];
    State false_state = s;
    add_constraint(false_state, logical_not(cond));
    false_state.pc = static_cast<std::size_t>(ins.f);
    const bool f_ok = feasible(false_state);
    add_constraint(s, cond);
    const bool t_ok = feasible(s);
    s.pc = static_cast<std::size_t>(ins.t);
    if (t_ok && f_ok && bj.join >= 0) return join_arms(s, std::move(false_state), bj);
    if (f_ok) stack.push_back(std::move(false_state));
    return t_ok;
  }

  // --- one instruction -----------------------------------------------------

  /// Executes the instruction at s.pc. False when the state is finished:
  /// completed, abandoned, infeasible, or consumed by a fork.
  bool step(State& s) {
    const ir::Program& prog = *ex.programs_[s.prog_index];
    BOLT_CHECK(s.pc < prog.code.size(), prog.name + ": symbolic pc escape");
    if (++s.steps > ex.options_.max_steps_per_path) {
      ++ex.stats_.abandoned_paths;
      return false;
    }
    const ir::Instr& ins = prog.code[s.pc];
    std::size_t next = s.pc + 1;

    if (!ir::is_annotation(ins.op)) {
      ++s.path.symbex_instructions;
      if (ir::is_memory_op(ins.op)) ++s.path.symbex_accesses;
    }

    auto R = [&](ir::Reg r) -> const ExprPtr& {
      BOLT_CHECK(r >= 0 && s.regs[static_cast<std::size_t>(r)] != nullptr,
                 prog.name + ": read of undefined register");
      return s.regs[static_cast<std::size_t>(r)];
    };
    auto setR = [&](ir::Reg r, ExprPtr v) {
      s.regs[static_cast<std::size_t>(r)] = v;
    };
    auto concrete_u64 = [&](const ExprPtr& e, const char* what) {
      BOLT_CHECK(e->is_const(), prog.name + ": symbolic " + what +
                                    " not supported by the executor");
      return e->const_value();
    };

    switch (ins.op) {
      case ir::Op::kConst:
        setR(ins.dst, Expr::constant(static_cast<std::uint64_t>(ins.imm)));
        break;
      case ir::Op::kMov:
        setR(ins.dst, R(ins.a));
        break;
      case ir::Op::kNot:
        setR(ins.dst, Expr::unary(ExprOp::kNot, R(ins.a)));
        break;
      case ir::Op::kAdd: setR(ins.dst, Expr::binary(ExprOp::kAdd, R(ins.a), R(ins.b))); break;
      case ir::Op::kSub: setR(ins.dst, Expr::binary(ExprOp::kSub, R(ins.a), R(ins.b))); break;
      case ir::Op::kMul:
        ++s.muls;
        setR(ins.dst, Expr::binary(ExprOp::kMul, R(ins.a), R(ins.b)));
        break;
      case ir::Op::kAnd: setR(ins.dst, Expr::binary(ExprOp::kAnd, R(ins.a), R(ins.b))); break;
      case ir::Op::kOr:  setR(ins.dst, Expr::binary(ExprOp::kOr, R(ins.a), R(ins.b))); break;
      case ir::Op::kXor: setR(ins.dst, Expr::binary(ExprOp::kXor, R(ins.a), R(ins.b))); break;
      case ir::Op::kShl: setR(ins.dst, Expr::binary(ExprOp::kShl, R(ins.a), R(ins.b))); break;
      case ir::Op::kShr: setR(ins.dst, Expr::binary(ExprOp::kShr, R(ins.a), R(ins.b))); break;
      case ir::Op::kEq:  setR(ins.dst, Expr::binary(ExprOp::kEq, R(ins.a), R(ins.b))); break;
      case ir::Op::kNe:  setR(ins.dst, Expr::binary(ExprOp::kNe, R(ins.a), R(ins.b))); break;
      case ir::Op::kLtU: setR(ins.dst, Expr::binary(ExprOp::kLtU, R(ins.a), R(ins.b))); break;
      case ir::Op::kLeU: setR(ins.dst, Expr::binary(ExprOp::kLeU, R(ins.a), R(ins.b))); break;
      case ir::Op::kGtU: setR(ins.dst, Expr::binary(ExprOp::kGtU, R(ins.a), R(ins.b))); break;
      case ir::Op::kGeU: setR(ins.dst, Expr::binary(ExprOp::kGeU, R(ins.a), R(ins.b))); break;

      case ir::Op::kLoadPkt: {
        const std::uint64_t offset = concrete_u64(R(ins.a), "packet offset");
        const std::uint8_t width = ins.width;
        touch_range(s, offset, width);
        access(s, ir::kPacketBase + offset, width);
        // Most recent overlapping write wins; require exact ranges.
        ExprPtr from_write = nullptr;
        for (auto it = s.writes.rbegin(); it != s.writes.rend(); ++it) {
          const auto& [woff, wwidth, wexpr] = *it;
          const bool overlap =
              offset < woff + wwidth && woff < offset + width;
          if (!overlap) continue;
          BOLT_CHECK(woff == offset && wwidth == width,
                     prog.name + ": partially overlapping packet access");
          from_write = wexpr;
          break;
        }
        if (from_write != nullptr) {
          setR(ins.dst, from_write);
          break;
        }
        const auto key = std::make_pair(offset, width);
        auto it = s.field_syms.find(key);
        SymId sym;
        if (it != s.field_syms.end()) {
          sym = it->second;
        } else {
          for (const auto& [k, v] : s.field_syms) {
            const bool overlap =
                offset < k.first + k.second && k.first < offset + width;
            BOLT_CHECK(!overlap || (k.first == offset && k.second == width),
                       prog.name + ": partially overlapping packet fields");
          }
          sym = ex.symbols_.fresh("pkt[" + std::to_string(offset) + ":" +
                                      std::to_string(width) + "]",
                                  8 * width);
          s.field_syms.emplace(key, sym);
          s.path.fields.push_back(PacketField{offset, width, sym});
          if (offset + width > 60) {
            ensure_len_sym(s);
            add_constraint(
                s, Expr::binary(ExprOp::kGeU, Expr::symbol(s.path.len_sym),
                                Expr::constant(offset + width)));
          }
        }
        setR(ins.dst, Expr::symbol(sym));
        break;
      }
      case ir::Op::kStorePkt: {
        const std::uint64_t offset = concrete_u64(R(ins.a), "packet offset");
        access(s, ir::kPacketBase + offset, ins.width);
        s.writes.emplace_back(offset, ins.width, R(ins.b));
        break;
      }
      case ir::Op::kPktLen: {
        touch_len_read(s);
        ensure_len_sym(s);
        setR(ins.dst, Expr::symbol(s.path.len_sym));
        break;
      }
      case ir::Op::kPktPort: {
        if (!s.path.has_port_sym) {
          s.path.port_sym = ex.symbols_.fresh("pkt.port", 16);
          s.path.has_port_sym = true;
        }
        setR(ins.dst, Expr::symbol(s.path.port_sym));
        break;
      }
      case ir::Op::kPktTime: {
        if (!s.path.has_time_sym) {
          s.path.time_sym = ex.symbols_.fresh("pkt.time", 64);
          s.path.has_time_sym = true;
        }
        setR(ins.dst, Expr::symbol(s.path.time_sym));
        break;
      }
      case ir::Op::kLoadLocal:
        access(s, ir::kLocalsBase + 8 * static_cast<std::uint64_t>(ins.imm), 8);
        setR(ins.dst, s.locals[static_cast<std::size_t>(ins.imm)]);
        break;
      case ir::Op::kStoreLocal:
        access(s, ir::kLocalsBase + 8 * static_cast<std::uint64_t>(ins.imm), 8);
        s.locals[static_cast<std::size_t>(ins.imm)] = R(ins.a);
        break;
      case ir::Op::kLoadMem: {
        const std::uint64_t slot = concrete_u64(R(ins.a), "scratch index");
        BOLT_CHECK(slot < s.scratch.size(),
                   prog.name + ": scratch load out of range");
        access(s, ir::kScratchBase + 8 * slot, 8);
        setR(ins.dst, s.scratch[slot]);
        break;
      }
      case ir::Op::kStoreMem: {
        const std::uint64_t slot = concrete_u64(R(ins.a), "scratch index");
        BOLT_CHECK(slot < s.scratch.size(),
                   prog.name + ": scratch store out of range");
        access(s, ir::kScratchBase + 8 * slot, 8);
        s.scratch[slot] = R(ins.b);
        break;
      }

      case ir::Op::kCall: {
        auto mit = ex.models_.find(ins.imm);
        BOLT_CHECK(mit != ex.models_.end(),
                   prog.name + ": no symbolic model for method " +
                       std::to_string(ins.imm));
        const ExprPtr arg0 = ins.a != ir::kNoReg ? R(ins.a) : nullptr;
        const ExprPtr arg1 = ins.b != ir::kNoReg ? R(ins.b) : nullptr;
        touch_expr(s, arg0);
        touch_expr(s, arg1);
        mark_unseen(s);  // the method's own accesses
        std::vector<ModelOutcome> outcomes = mit->second(ex.symbols_, arg0, arg1);
        BOLT_CHECK(!outcomes.empty(), "model produced no outcomes");

        // Fork one state per feasible outcome onto the stack.
        bool continued = false;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          ModelOutcome& outcome = outcomes[i];
          State candidate = (i + 1 == outcomes.size() && !continued)
                                ? std::move(s)
                                : s;  // last reuse avoids one copy
          for (const ExprPtr& c : outcome.constraints) {
            add_constraint(candidate, c);
          }
          if (!outcome.constraints.empty() && !feasible(candidate)) {
            continue;
          }
          PathCall call;
          call.method = ins.imm;
          call.case_label = outcome.case_label;
          call.arg0 = arg0;
          call.arg1 = arg1;
          call.ret0 = outcome.ret0 != nullptr ? outcome.ret0 : Expr::constant(0);
          call.ret1 = outcome.ret1 != nullptr ? outcome.ret1 : Expr::constant(0);
          candidate.path.calls.push_back(call);
          if (ins.dst != ir::kNoReg) {
            candidate.regs[static_cast<std::size_t>(ins.dst)] = call.ret0;
          }
          if (ins.dst2 != ir::kNoReg) {
            candidate.regs[static_cast<std::size_t>(ins.dst2)] = call.ret1;
          }
          candidate.pc = next;
          stack.push_back(std::move(candidate));
          continued = true;
        }
        return false;  // all outcomes pushed onto the stack
      }

      case ir::Op::kBr:
        return branch(s, ins, R(ins.a));
      case ir::Op::kJmp:
        next = static_cast<std::size_t>(ins.t);
        break;

      case ir::Op::kForward: {
        if (s.prog_index + 1 < ex.programs_.size()) {
          // Chain hand-off: next NF sees the (possibly rewritten) packet.
          ex.enter_program(s, s.prog_index + 1);
          return true;
        }
        touch_expr(s, R(ins.a));
        s.path.action = PathAction::kForward;
        s.path.out_port = R(ins.a);
        complete(s);
        return false;
      }
      case ir::Op::kDrop:
        s.path.action = PathAction::kDrop;
        complete(s);
        return false;

      case ir::Op::kClassTag: {
        std::string tag = prog.class_tags[static_cast<std::size_t>(ins.imm)];
        if (ex.programs_.size() > 1) tag = prog.name + ":" + tag;
        s.path.class_tags.push_back(std::move(tag));
        break;
      }
      case ir::Op::kLoopHead: {
        // Loop ids are namespaced per program within a chain.
        const std::int64_t loop_key =
            static_cast<std::int64_t>(s.prog_index) * 1000 + ins.imm;
        const std::uint64_t trips = ++s.path.loop_trips[loop_key];
        if (trips > ex.options_.max_loop_trips) {
          ++ex.stats_.abandoned_paths;
          return false;
        }
        break;
      }
    }
    s.pc = next;
    return true;
  }
};

void Executor::mark_unseen(State& s) {
  if (s.recency.empty() || s.recency.back() != kUnseen) {
    s.recency.push_back(kUnseen);
  }
}

std::vector<PathResult> Executor::run() {
  Explore explore{*this, Solver(symbols_, options_.solver), {}, {}};
  explore.stack.emplace_back();
  enter_program(explore.stack.back(), 0);
  while (!explore.stack.empty()) {
    State s = std::move(explore.stack.back());
    explore.stack.pop_back();
    while (explore.step(s)) {
    }
  }

  // The feasibility cache on the exploration path is the witness/verified-
  // prefix cache; the constraint-set memo is bypassed there, so these
  // counters are functions of the exploration tree.
  const Solver::Counters& c = explore.solver.counters();
  stats_.solver_calls = c.quick_checks;
  stats_.feas_cache_hits = c.witness_hits;
  stats_.feas_cache_misses = c.witness_searches;
  stats_.completed_paths = explore.results.size();

  // The result sink already holds the paths in canonical signature order;
  // all that remains is the canonical symbol renumbering over that order.
  std::vector<PathResult> paths;
  paths.reserve(explore.results.size());
  for (auto& [sig, path] : explore.results) paths.push_back(std::move(path));
  canonicalize(paths);
  return paths;
}

void Executor::canonicalize(std::vector<PathResult>& paths) {
  if (paths.empty()) return;

  // The caller (run()'s result sink) already ordered the paths by their
  // structural signature; recomputing signatures and re-sorting here would
  // be pure waste on the generation hot path.

  // 1) Renumber symbols in first-use order over the sorted paths. Shared
  //    prefix symbols keep one id (the first path that uses them wins).
  std::map<SymId, SymId> remap;
  std::vector<std::pair<std::string, int>> entries;
  auto assign = [&](SymId old_id) {
    if (remap.emplace(old_id, static_cast<SymId>(entries.size())).second) {
      entries.emplace_back(symbols_.name(old_id), symbols_.width_bits(old_id));
    }
  };
  for (const PathResult& p : paths) visit_path_symbols(p, assign);

  // The remap is the identity when exploration minted the kept paths'
  // symbols in their first-use order over the signature order and minted
  // no symbol on a state that left no kept path (a pruned fork, a model
  // outcome found infeasible, an abandoned or truncated path). Then the
  // rewrite below would rebuild every node to itself, and the used symbols
  // are the dense prefix [0, n) of the table, so rebuilding the (possibly
  // truncated) entry list is all that canonicalization requires. Newest-
  // first exploration does not complete paths in signature order, so
  // whether a target takes this shortcut depends on its program.
  bool identity = true;
  for (const auto& [old_id, new_id] : remap) {
    if (old_id != new_id) {
      identity = false;
      break;
    }
  }
  if (identity) {
    symbols_.rebuild(std::move(entries));
    return;
  }

  // 2) Rewrite every expression. Interning preserves DAG sharing by
  //    construction; the memo only avoids re-walking shared subgraphs.
  std::map<ExprPtr, ExprPtr> memo;
  std::function<ExprPtr(ExprPtr)> rewrite = [&](ExprPtr e) -> ExprPtr {
    if (e == nullptr) return nullptr;
    auto it = memo.find(e);
    if (it != memo.end()) return it->second;
    ExprPtr out = nullptr;
    switch (e->kind()) {
      case ExprKind::kConst:
        out = e;
        break;
      case ExprKind::kSym: {
        auto rit = remap.find(e->sym_id());
        BOLT_CHECK(rit != remap.end(), "canonicalize: unmapped symbol");
        out = Expr::symbol(rit->second);
        break;
      }
      case ExprKind::kUnary:
        out = Expr::unary(e->op(), rewrite(e->lhs()));
        break;
      case ExprKind::kBinary:
        out = Expr::binary(e->op(), rewrite(e->lhs()), rewrite(e->rhs()));
        break;
    }
    memo.emplace(e, out);
    return out;
  };

  for (PathResult& p : paths) {
    for (ExprPtr& c : p.constraints) c = rewrite(c);
    for (PathCall& c : p.calls) {
      c.arg0 = rewrite(c.arg0);
      c.arg1 = rewrite(c.arg1);
      c.ret0 = rewrite(c.ret0);
      c.ret1 = rewrite(c.ret1);
    }
    p.out_port = rewrite(p.out_port);
    for (auto& w : p.witness) w.first = remap.at(w.first);
    std::sort(p.witness.begin(), p.witness.end());
    for (PacketField& f : p.fields) f.sym = remap.at(f.sym);
    if (p.has_len_sym) p.len_sym = remap.at(p.len_sym);
    if (p.has_port_sym) p.port_sym = remap.at(p.port_sym);
    if (p.has_time_sym) p.time_sym = remap.at(p.time_sym);
  }
  symbols_.rebuild(std::move(entries));
}

void Executor::solve_inputs(std::vector<PathResult>& paths) const {
  const Solver solver(symbols_, options_.solver);
  for (PathResult& path : paths) {
    SolveResult solved = solver.solve(
        path.constraints, path.witness.empty() ? nullptr : &path.witness);
    if (solved.status != SolveStatus::kSat) {
      path.solved = false;
      continue;
    }
    path.model = std::move(solved.model);
    path.solved = true;
    // Fill in symbols the constraints never mentioned.
    auto ensure = [&](SymId id, std::uint64_t fallback) {
      if (path.model.find(id) == path.model.end()) path.model[id] = fallback;
    };
    std::uint64_t min_len = 60;
    for (const PacketField& f : path.fields) {
      ensure(f.sym, 0);
      min_len = std::max(min_len, f.offset + f.width);
    }
    if (path.has_len_sym) {
      ensure(path.len_sym, min_len);
      path.model[path.len_sym] = std::max(path.model[path.len_sym], min_len);
    }
    if (path.has_port_sym) ensure(path.port_sym, 0);
    if (path.has_time_sym) ensure(path.time_sym, 1'000'000'000ULL);
    for (const PathCall& call : path.calls) {
      std::vector<SymId> syms;
      if (call.ret0 != nullptr) call.ret0->collect_symbols(syms);
      if (call.ret1 != nullptr) call.ret1->collect_symbols(syms);
      for (SymId id : syms) ensure(id, 0);
    }
  }
}

}  // namespace bolt::symbex
