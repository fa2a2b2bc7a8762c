#include "symbex/solver.h"

#include <algorithm>

#include "support/assert.h"
#include "support/hash.h"
#include "support/random.h"

namespace bolt::symbex {

using support::mix64;

namespace {

/// Structural-hash key of a constraint set (order-sensitive; constraint
/// vectors are built deterministically along a path, so sibling paths that
/// re-derive the same guard sequence produce the same key).
std::uint64_t constraint_set_key(support::Span<const ExprPtr> constraints) {
  std::uint64_t key = 0xcbf29ce484222325ULL ^ constraints.size();
  for (const ExprPtr& c : constraints) {
    key = mix64(key * 0x100000001b3ULL ^ c->hash());
  }
  return key;
}

}  // namespace

Solver::Solver(const SymbolTable& symbols, SolverOptions options)
    : symbols_(symbols), options_(options) {}

std::uint64_t Solver::max_value(SymId id) const {
  return symbols_.max_value(id);
}

void Solver::read_domain(const DomainStore& store, SymId id, std::uint64_t& lo,
                         std::uint64_t& hi,
                         const std::vector<std::uint64_t>** excluded) const {
  const std::uint64_t width_max = max_value(id);
  if (id < store.by_sym.size()) {
    const Domain& d = store.by_sym[id];
    lo = d.lo;
    hi = std::min(d.hi, width_max);
    if (excluded != nullptr) *excluded = &d.excluded;
  } else {
    lo = 0;
    hi = width_max;
    if (excluded != nullptr) *excluded = nullptr;
  }
}

bool Solver::constrain(ExprPtr e, std::uint64_t lo, std::uint64_t hi,
                       DomainStore& store) const {
  if (lo > hi) return false;
  switch (e->kind()) {
    case ExprKind::kConst:
      return e->const_value() >= lo && e->const_value() <= hi;
    case ExprKind::kSym: {
      const SymId id = e->sym_id();
      if (id >= store.by_sym.size()) store.by_sym.resize(id + 1);
      Domain& d = store.by_sym[id];
      d.hi = std::min(d.hi, max_value(id));  // width clamp, idempotent
      d.lo = std::max(d.lo, lo);
      d.hi = std::min(d.hi, hi);
      return !d.empty();
    }
    case ExprKind::kUnary:
      // ~x in [lo,hi]  <=>  x in [~hi,~lo]
      return constrain(e->lhs(), ~hi, ~lo, store);
    case ExprKind::kBinary:
      break;
  }
  // Binary: propagate through op with a constant on one side where the
  // inversion is exact. Anything else is left to the search phase.
  ExprPtr a0 = e->lhs();
  ExprPtr b0 = e->rhs();
  // Commutative ops with the constant on the left: swap.
  const bool swap = a0->is_const() && !b0->is_const() &&
                    (e->op() == ExprOp::kAdd || e->op() == ExprOp::kMul ||
                     e->op() == ExprOp::kAnd || e->op() == ExprOp::kOr ||
                     e->op() == ExprOp::kXor);
  ExprPtr a = swap ? b0 : a0;
  ExprPtr b = swap ? a0 : b0;
  if (b->is_const()) {
    const std::uint64_t c = b->const_value();
    switch (e->op()) {
      case ExprOp::kAdd: {
        // x + c in [lo,hi]: exact when the window doesn't wrap.
        const std::uint64_t nlo = lo - c;
        const std::uint64_t nhi = hi - c;
        if (nlo <= nhi) return constrain(a, nlo, nhi, store);
        return true;  // wrapped: imprecise, defer to search
      }
      case ExprOp::kSub: {
        const std::uint64_t nlo = lo + c;
        const std::uint64_t nhi = hi + c;
        if (nlo <= nhi) return constrain(a, nlo, nhi, store);
        return true;
      }
      case ExprOp::kShr: {
        // (x >> c) in [lo,hi] => x in [lo<<c, (hi<<c)|ones(c)] when no overflow.
        const std::uint64_t shift = c & 63;
        if (shift == 0) return constrain(a, lo, hi, store);
        if (hi <= (~0ULL >> shift)) {
          const std::uint64_t ones = (1ULL << shift) - 1;
          return constrain(a, lo << shift, (hi << shift) | ones, store);
        }
        return true;
      }
      case ExprOp::kShl: {
        const std::uint64_t shift = c & 63;
        if (shift == 0) return constrain(a, lo, hi, store);
        // (x << s) in [lo,hi] => x in [ceil(lo / 2^s), hi >> s].
        // Exact for the small header-arithmetic shifts NF constraints use
        // (wraparound would need x near 2^64, which field widths exclude).
        const std::uint64_t nlo = (lo + (1ULL << shift) - 1) >> shift;
        const std::uint64_t nhi = hi >> shift;
        if (nlo > nhi) return false;
        return constrain(a, nlo, nhi, store);
      }
      case ExprOp::kAnd:
        // The masked value can never exceed the mask.
        if (lo > c) return false;
        return true;  // exact bit pinning is left to the search phase
      default:
        return true;
    }
  }
  return true;
}

void Solver::propagate_into(DomainStore& store, ExprPtr c) const {
  if (store.infeasible) return;  // empty stays empty under intersection
  if (c->is_const()) {
    if (c->const_value() == 0) {
      store.const_false = true;
      store.infeasible = true;
    }
    return;
  }
  // Fold the constraint's symbols into the store's sorted symbol set once,
  // at add time, so feasibility checks never re-walk the whole set.
  sym_scratch_.clear();
  c->collect_symbols(sym_scratch_);
  for (const SymId id : sym_scratch_) {
    auto it = std::lower_bound(store.syms.begin(), store.syms.end(), id);
    if (it == store.syms.end() || *it != id) store.syms.insert(it, id);
  }
  if (c->kind() != ExprKind::kBinary) return;

  // Derived-expression view domains: comparisons against constants are
  // intersected per *interned* left-hand expression (pointer identity ==
  // structural identity). This catches contradictions the per-symbol pass
  // cannot invert — e.g. a chained NF re-deriving (x & 0xf) and branching
  // the other way, or a loop whose continuation bound conflicts with an
  // earlier exit bound.
  auto view_constrain = [&](ExprPtr expr, ExprOp op, std::uint64_t k) {
    if (expr->is_const()) return true;  // folded elsewhere
    Domain* d = nullptr;
    for (auto& [ve, vd] : store.views) {
      if (ve == expr) {
        d = &vd;
        break;
      }
    }
    if (d == nullptr) {
      store.views.emplace_back(expr, Domain{});
      d = &store.views.back().second;
    }
    switch (op) {
      case ExprOp::kEq:
        d->lo = std::max(d->lo, k);
        d->hi = std::min(d->hi, k);
        break;
      case ExprOp::kNe:
        d->excluded.push_back(k);
        break;
      case ExprOp::kLtU:
        if (k == 0) return false;
        d->hi = std::min(d->hi, k - 1);
        break;
      case ExprOp::kLeU:
        d->hi = std::min(d->hi, k);
        break;
      case ExprOp::kGtU:
        if (k == ~0ULL) return false;
        d->lo = std::max(d->lo, k + 1);
        break;
      case ExprOp::kGeU:
        d->lo = std::max(d->lo, k);
        break;
      default:
        return true;
    }
    if (d->empty()) return false;
    if (d->lo == d->hi) {
      for (const std::uint64_t x : d->excluded) {
        if (x == d->lo) return false;
      }
    }
    return true;
  };

  // Truthiness of the asserted constraint itself: `c` holds, so its value
  // is non-zero, i.e. >= 1 unsigned. Recorded as a view on c's own interned
  // node so that a later negation of the same guard — the executor emits
  // `(guard) == 0` for the false arm of a compound disjunction it cannot
  // mirror into a single comparison — contradicts it by pointer identity.
  // The per-symbol pass cannot catch this pair: a disjunction pins no
  // individual symbol's interval, so X ∧ (X == 0) used to survive all the
  // way to the bounded search and come back kUnknown (the fw→NAT
  // firewall:no_options/nat:invalid path).
  if (!view_constrain(c, ExprOp::kGeU, 1)) {
    store.infeasible = true;
    return;
  }

  ExprPtr a = c->lhs();
  ExprPtr b = c->rhs();
  // Normalise to have the constant on the right where possible.
  const bool const_right = b->is_const();
  const bool const_left = a->is_const();
  if (!const_right && !const_left) return;
  ExprPtr var = const_right ? a : b;
  const std::uint64_t k = (const_right ? b : a)->const_value();
  // Mirror the operator if the constant is on the left.
  ExprOp op = c->op();
  if (const_left) {
    switch (op) {
      case ExprOp::kLtU: op = ExprOp::kGtU; break;
      case ExprOp::kLeU: op = ExprOp::kGeU; break;
      case ExprOp::kGtU: op = ExprOp::kLtU; break;
      case ExprOp::kGeU: op = ExprOp::kLeU; break;
      default: break;  // kEq/kNe are symmetric
    }
  }
  if (!view_constrain(var, op, k)) {
    store.infeasible = true;
    return;
  }
  bool ok = true;
  switch (op) {
    case ExprOp::kEq:
      ok = constrain(var, k, k, store);
      break;
    case ExprOp::kNe:
      if (var->is_sym()) {
        const SymId id = var->sym_id();
        if (id >= store.by_sym.size()) store.by_sym.resize(id + 1);
        Domain& d = store.by_sym[id];
        d.hi = std::min(d.hi, max_value(id));
        d.excluded.push_back(k);
        if (d.lo == d.hi && d.lo == k) ok = false;
      }
      break;
    case ExprOp::kLtU:
      ok = k != 0 && constrain(var, 0, k - 1, store);
      break;
    case ExprOp::kLeU:
      ok = constrain(var, 0, k, store);
      break;
    case ExprOp::kGtU:
      ok = k != ~0ULL && constrain(var, k + 1, ~0ULL, store);
      break;
    case ExprOp::kGeU:
      ok = constrain(var, k, ~0ULL, store);
      break;
    default:
      break;
  }
  if (!ok) store.infeasible = true;
}

bool Solver::propagate(support::Span<const ExprPtr> constraints,
                       DomainStore& store) const {
  for (const ExprPtr& c : constraints) {
    propagate_into(store, c);
    if (store.infeasible) return false;
  }
  return true;
}

bool Solver::invert_assign(ExprPtr e, std::uint64_t target,
                           std::uint64_t* model, support::Rng& rng) const {
  switch (e->kind()) {
    case ExprKind::kConst:
      return e->const_value() == target;
    case ExprKind::kSym: {
      const SymId id = e->sym_id();
      model[id] = target & max_value(id);
      return true;
    }
    case ExprKind::kUnary:
      return invert_assign(e->lhs(), ~target, model, rng);
    case ExprKind::kBinary:
      break;
  }
  ExprPtr a0 = e->lhs();
  ExprPtr b0 = e->rhs();
  const bool const_left = a0->is_const() && !b0->is_const();
  ExprPtr var = const_left ? b0 : a0;
  ExprPtr konst = const_left ? a0 : b0;
  if (!konst->is_const()) {
    // Two variable sides: fix one at its current value, solve the other.
    ExprPtr hold = rng.chance(0.5) ? a0 : b0;
    ExprPtr move = hold == a0 ? b0 : a0;
    const std::uint64_t held = hold->eval_flat(model);
    std::uint64_t sub_target;
    switch (e->op()) {
      case ExprOp::kAdd: sub_target = target - held; break;
      case ExprOp::kXor: sub_target = target ^ held; break;
      case ExprOp::kSub:
        sub_target = move == a0 ? target + held : held - target;
        break;
      default:
        return false;
    }
    return invert_assign(move, sub_target, model, rng);
  }
  const std::uint64_t c = konst->const_value();
  const std::uint64_t current = var->eval_flat(model);
  switch (e->op()) {
    case ExprOp::kAdd:
      return invert_assign(var, target - c, model, rng);
    case ExprOp::kSub:
      return invert_assign(var, const_left ? c - target : target + c, model, rng);
    case ExprOp::kXor:
      return invert_assign(var, target ^ c, model, rng);
    case ExprOp::kShl: {
      const std::uint64_t s = c & 63;
      // Preserve the low bits the shift discards.
      const std::uint64_t low = s == 0 ? 0 : current & ((1ULL << s) - 1);
      return invert_assign(var, (target >> s) | low, model, rng);
    }
    case ExprOp::kShr: {
      const std::uint64_t s = c & 63;
      const std::uint64_t low = s == 0 ? 0 : current & ((1ULL << s) - 1);
      return invert_assign(var, (target << s) | low, model, rng);
    }
    case ExprOp::kAnd:
      // Set the masked bits to the target, keep the rest.
      if ((target & ~c) != 0) return false;  // impossible under this mask
      return invert_assign(var, (current & ~c) | (target & c), model, rng);
    case ExprOp::kOr:
      if ((target & c) != c) return false;  // the const bits are always set
      return invert_assign(var, (current & c) | (target & ~c), model, rng);
    case ExprOp::kMul:
      if (c != 0 && target % c == 0) {
        return invert_assign(var, target / c, model, rng);
      }
      return false;
    default:
      return false;
  }
}

bool Solver::repair(ExprPtr constraint, std::uint64_t* model,
                    support::Rng& rng) const {
  // Make `constraint` truthy under `model`.
  if (constraint->kind() == ExprKind::kBinary) {
    const ExprOp op = constraint->op();
    ExprPtr a = constraint->lhs();
    ExprPtr b = constraint->rhs();
    switch (op) {
      case ExprOp::kOr: {
        // Satisfy one branch (comparisons yield 0/1, so truthy | works).
        ExprPtr pick = rng.chance(0.5) ? a : b;
        return repair(pick, model, rng);
      }
      case ExprOp::kAnd: {
        // Both sides must be truthy; fix a failing one.
        if (a->eval_flat(model) == 0) return repair(a, model, rng);
        if (b->eval_flat(model) == 0) return repair(b, model, rng);
        return true;
      }
      case ExprOp::kEq: case ExprOp::kNe: case ExprOp::kLtU:
      case ExprOp::kLeU: case ExprOp::kGtU: case ExprOp::kGeU: {
        const bool const_left = a->is_const() && !b->is_const();
        ExprPtr var = const_left ? b : a;
        ExprPtr other = const_left ? a : b;
        const std::uint64_t k = other->eval_flat(model);
        ExprOp norm = op;
        if (const_left) {
          switch (op) {
            case ExprOp::kLtU: norm = ExprOp::kGtU; break;
            case ExprOp::kLeU: norm = ExprOp::kGeU; break;
            case ExprOp::kGtU: norm = ExprOp::kLtU; break;
            case ExprOp::kGeU: norm = ExprOp::kLeU; break;
            default: break;
          }
        }
        std::uint64_t target = k;
        switch (norm) {
          case ExprOp::kEq: target = k; break;
          case ExprOp::kNe: target = k + 1 + rng.below(7); break;
          case ExprOp::kLtU:
            if (k == 0) return false;
            target = rng.below(k);
            break;
          case ExprOp::kLeU: target = rng.below(k + 1); break;
          case ExprOp::kGtU:
            if (k == ~0ULL) return false;
            target = k + 1 + rng.below(16);
            break;
          case ExprOp::kGeU: target = k + rng.below(16); break;
          default: break;
        }
        return invert_assign(var, target, model, rng);
      }
      default:
        break;
    }
  }
  // Fallback: the constraint itself must evaluate non-zero.
  return invert_assign(constraint, 1, model, rng);
}

bool Solver::search(support::Span<const ExprPtr> constraints,
                    const DomainStore& store, int probes, Assignment* model_out,
                    const Witness* hint, Witness* witness_out,
                    bool repair_first, const std::vector<SymId>* syms_hint) const {
  // The symbols that actually appear: precomputed by propagate_into when
  // the caller maintained a DomainStore, collected here otherwise.
  std::vector<SymId> syms_local;
  if (syms_hint == nullptr) {
    for (const ExprPtr& c : constraints) c->collect_symbols(syms_local);
    std::sort(syms_local.begin(), syms_local.end());
    syms_local.erase(std::unique(syms_local.begin(), syms_local.end()),
                     syms_local.end());
  }
  const std::vector<SymId>& syms = syms_hint != nullptr ? *syms_hint : syms_local;

  // The search/repair inner loop runs on a flat SymId-indexed array — a
  // std::map lookup per symbol per eval was the single hottest line of the
  // whole generation pipeline.
  const SymId max_id = syms.empty() ? 0 : syms.back();
  if (flat_.size() < static_cast<std::size_t>(max_id) + 1) {
    flat_.resize(static_cast<std::size_t>(max_id) + 1, 0);
  }
  std::uint64_t* model = flat_.data();

  std::vector<std::uint64_t> dom_lo(syms.size()), dom_hi(syms.size());
  std::vector<const std::vector<std::uint64_t>*> dom_excl(syms.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    read_domain(store, syms[i], dom_lo[i], dom_hi[i], &dom_excl[i]);
  }
  auto admissible = [&](std::size_t i, std::uint64_t v) {
    return v >= dom_lo[i] && v <= dom_hi[i] &&
           (dom_excl[i] == nullptr ||
            std::find(dom_excl[i]->begin(), dom_excl[i]->end(), v) ==
                dom_excl[i]->end());
  };

  // Candidate values per symbol: interval endpoints, harvested constants
  // (and neighbours), and a few fixed favourites. Built LAZILY — when a
  // warm-started initial assignment already satisfies the set (the common
  // case on the executor's fork hot path), none of this machinery runs.
  std::vector<std::uint64_t> harvested;
  bool harvested_built = false;
  auto ensure_harvested = [&] {
    if (harvested_built) return;
    harvested_built = true;
    for (const ExprPtr& c : constraints) c->collect_constants(harvested);
    std::sort(harvested.begin(), harvested.end());
    harvested.erase(std::unique(harvested.begin(), harvested.end()),
                    harvested.end());
  };
  /// First admissible value in the legacy candidate order (what
  /// candidates[i].front() used to be).
  auto front_value = [&](std::size_t i, bool& ok) -> std::uint64_t {
    ok = true;
    for (const std::uint64_t v :
         {dom_lo[i], dom_hi[i], std::uint64_t{0}, std::uint64_t{1}}) {
      if (admissible(i, v)) return v;
    }
    ensure_harvested();
    for (const std::uint64_t h : harvested) {
      if (admissible(i, h)) return h;
      if (admissible(i, h + 1)) return h + 1;
      if (admissible(i, h - 1)) return h - 1;
    }
    for (std::uint64_t v = dom_lo[i]; v <= dom_hi[i]; ++v) {
      if (admissible(i, v)) return v;
    }
    ok = false;
    return 0;
  };
  std::vector<std::vector<std::uint64_t>> candidates;
  auto build_candidates = [&]() -> bool {
    ensure_harvested();
    candidates.resize(syms.size());
    for (std::size_t i = 0; i < syms.size(); ++i) {
      auto& cand = candidates[i];
      auto push = [&](std::uint64_t v) {
        if (admissible(i, v) &&
            static_cast<int>(cand.size()) < options_.per_symbol_candidates) {
          cand.push_back(v);
        }
      };
      push(dom_lo[i]);
      push(dom_hi[i]);
      push(0);
      push(1);
      for (std::uint64_t h : harvested) {
        push(h);
        push(h + 1);
        push(h - 1);
      }
      if (cand.empty()) {
        // Domain may consist entirely of excluded endpoints; probe inward.
        for (std::uint64_t v = dom_lo[i]; v <= dom_hi[i] && cand.size() < 8;
             ++v) {
          push(v);
        }
      }
      if (cand.empty()) return false;
    }
    return true;
  };

  auto satisfied = [&] {
    for (const ExprPtr& c : constraints) {
      if (c->eval_flat(model) == 0) return false;
    }
    return true;
  };
  auto emit = [&] {
    if (model_out != nullptr) {
      for (const SymId id : syms) (*model_out)[id] = model[id];
    }
    if (witness_out != nullptr) {
      witness_out->clear();
      witness_out->reserve(syms.size());
      for (const SymId id : syms) witness_out->emplace_back(id, model[id]);
    }
    return true;
  };

  // Initial assignment: the caller's witness hint where it covers a
  // symbol, first candidate otherwise. A fork's hint is the parent path's
  // satisfying assignment, so this one evaluation usually settles it.
  {
    std::size_t hp = 0;  // hint and syms are both sorted: two-pointer merge
    for (std::size_t i = 0; i < syms.size(); ++i) {
      const SymId id = syms[i];
      if (hint != nullptr) {
        while (hp < hint->size() && (*hint)[hp].first < id) ++hp;
        if (hp < hint->size() && (*hint)[hp].first == id) {
          model[id] = (*hint)[hp].second;
          continue;
        }
      }
      bool ok = false;
      const std::uint64_t v = front_value(i, ok);
      if (!ok) return false;
      model[id] = v;
    }
  }
  if (satisfied()) return emit();

  support::Rng rng(options_.seed);

  // WalkSAT-style repair: pick a failing constraint and invert its
  // expression chain to satisfy it, occasionally randomising to escape
  // cycles. This is what cracks bit-level disjunctions (port allowlists,
  // bogon prefixes) that blind probing cannot hit — and, run first on a
  // warm-started assignment, what repairs the single new branch
  // constraint a fork added.
  auto repair_rounds = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      std::vector<ExprPtr> failing;
      for (const ExprPtr& c : constraints) {
        if (c->eval_flat(model) == 0) failing.push_back(c);
      }
      if (failing.empty()) return true;
      ExprPtr target = failing[rng.below(failing.size())];
      if (!repair(target, model, rng) || rng.chance(0.05)) {
        // Escape: randomise one involved symbol within its domain (picked
        // uniformly over symbol *occurrences*, the historical distribution).
        std::vector<SymId> involved;
        visit_symbol_occurrences(
            target, [&involved](SymId id) { involved.push_back(id); });
        if (!involved.empty()) {
          const SymId id = involved[rng.below(involved.size())];
          std::uint64_t lo, hi;
          read_domain(store, id, lo, hi, nullptr);
          model[id] =
              hi - lo == ~0ULL ? rng.next() : lo + rng.below(hi - lo + 1);
        }
      }
    }
    return false;
  };

  // Guided search: enumerate candidate combinations for small systems.
  auto odometer = [&] {
    std::uint64_t combo_budget = 1;
    for (const auto& cand : candidates) {
      combo_budget *= cand.size();
      if (combo_budget > 4096) break;
    }
    if (syms.empty() || combo_budget > 4096) return false;
    std::vector<std::size_t> idx(syms.size(), 0);
    while (true) {
      for (std::size_t i = 0; i < syms.size(); ++i) {
        model[syms[i]] = candidates[i][idx[i]];
      }
      if (satisfied()) return true;
      // Odometer increment.
      std::size_t k = 0;
      while (k < idx.size() && ++idx[k] == candidates[k].size()) {
        idx[k] = 0;
        ++k;
      }
      if (k == idx.size()) break;
    }
    return false;
  };

  if (repair_first) {
    // Quick-check ordering: the warm-started assignment broke on (usually)
    // one new constraint; targeted inversion beats candidate enumeration.
    if (repair_rounds(probes)) return emit();
    if (!build_candidates()) return false;
    if (odometer()) return emit();
  } else {
    if (!build_candidates()) return false;
    if (odometer()) return emit();
    if (repair_rounds(probes)) return emit();
  }

  // Last resort: blind random probing.
  for (int probe = 0; probe < probes; ++probe) {
    for (std::size_t i = 0; i < syms.size(); ++i) {
      std::uint64_t v;
      if (rng.chance(0.5) && !candidates[i].empty()) {
        v = candidates[i][rng.below(candidates[i].size())];
      } else if (dom_hi[i] - dom_lo[i] == ~0ULL) {
        v = rng.next();
      } else {
        v = dom_lo[i] + rng.below(dom_hi[i] - dom_lo[i] + 1);
      }
      model[syms[i]] = v;
    }
    if (satisfied()) return emit();
  }
  return false;
}

SolveStatus Solver::checked_search(support::Span<const ExprPtr> constraints,
                                   const DomainStore& store, int probes,
                                   const std::vector<SymId>* syms_hint) const {
  std::uint64_t key = 0;
  if (options_.memoize) {
    key = constraint_set_key(constraints);
    auto it = feas_memo_.find(key);
    if (it != feas_memo_.end()) {
      ++counters_.memo_hits;
      return it->second;
    }
    ++counters_.memo_misses;
  }
  const SolveStatus status =
      search(constraints, store, probes, nullptr, nullptr, nullptr,
             /*repair_first=*/false, syms_hint)
          ? SolveStatus::kSat
          : SolveStatus::kUnknown;
  if (options_.memoize) {
    if (feas_memo_.empty()) feas_memo_.reserve(64);  // skip early rehashes
    feas_memo_.emplace(key, status);
  }
  return status;
}

SolveResult Solver::solve(support::Span<const ExprPtr> constraints,
                          const Witness* hint) const {
  SolveResult result;
  DomainStore store;
  if (!propagate(constraints, store)) {
    result.status = SolveStatus::kUnsat;
    return result;
  }
  if (search(constraints, store, options_.random_probes, &result.model, hint,
             nullptr, /*repair_first=*/false, &store.syms)) {
    result.status = SolveStatus::kSat;
    return result;
  }
  result.status = SolveStatus::kUnknown;
  return result;
}

SolveStatus Solver::quick_check(support::Span<const ExprPtr> constraints) const {
  ++counters_.quick_checks;
  DomainStore store;
  if (!propagate(constraints, store)) return SolveStatus::kUnsat;
  return checked_search(constraints, store, options_.random_probes / 8,
                        &store.syms);
}

SolveStatus Solver::quick_check_incremental(
    DomainStore& store, support::Span<const ExprPtr> constraints) const {
  ++counters_.quick_checks;
  if (store.infeasible) return SolveStatus::kUnsat;

  // Verified-prefix fast path: the witness is known to satisfy
  // constraints [0, checked_upto), so only the appended suffix needs an
  // evaluation (new symbols the suffix introduced default to 0, which is
  // sound — any total assignment that satisfies everything proves sat).
  if (store.checked_upto > 0 && store.checked_upto <= constraints.size() &&
      !store.witness.empty() && !store.syms.empty()) {
    const SymId max_id = store.syms.back();
    if (flat_.size() < static_cast<std::size_t>(max_id) + 1) {
      flat_.resize(static_cast<std::size_t>(max_id) + 1, 0);
    }
    std::uint64_t* flat = flat_.data();
    {  // witness and syms are sorted: merge-assign, zero-default the rest
      std::size_t wp = 0;
      for (const SymId id : store.syms) {
        while (wp < store.witness.size() && store.witness[wp].first < id) ++wp;
        flat[id] = (wp < store.witness.size() && store.witness[wp].first == id)
                       ? store.witness[wp].second
                       : 0;
      }
    }
    bool suffix_ok = true;
    for (std::size_t i = store.checked_upto; i < constraints.size(); ++i) {
      if (constraints[i]->eval_flat(flat) == 0) {
        suffix_ok = false;
        break;
      }
    }
    if (suffix_ok) {
      ++counters_.witness_hits;
      store.witness.clear();
      store.witness.reserve(store.syms.size());
      for (const SymId id : store.syms) store.witness.emplace_back(id, flat[id]);
      store.checked_upto = constraints.size();
      return SolveStatus::kSat;
    }
  }

  // Warm start: the inherited witness satisfied every constraint but the
  // ones this fork just added; one evaluation plus targeted repair of the
  // new constraint settles the overwhelming majority of checks without
  // touching the candidate machinery. No constraint-set memo here — see
  // the header: the witness chain must be a pure function of the path.
  ++counters_.witness_searches;
  const Witness hint = store.witness;  // search rewrites store.witness
  const bool sat =
      search(constraints, store, options_.random_probes / 8, nullptr,
             hint.empty() ? nullptr : &hint, &store.witness,
             /*repair_first=*/!hint.empty(), &store.syms);
  if (sat) {
    store.checked_upto = constraints.size();
    return SolveStatus::kSat;
  }
  return SolveStatus::kUnknown;
}

}  // namespace bolt::symbex
