#include "symbex/expr.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "support/assert.h"
#include "support/hash.h"

namespace bolt::symbex {

using support::mix64;

const char* expr_op_name(ExprOp op) {
  switch (op) {
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kAnd: return "&";
    case ExprOp::kOr: return "|";
    case ExprOp::kXor: return "^";
    case ExprOp::kShl: return "<<";
    case ExprOp::kShr: return ">>";
    case ExprOp::kNot: return "~";
    case ExprOp::kEq: return "==";
    case ExprOp::kNe: return "!=";
    case ExprOp::kLtU: return "<";
    case ExprOp::kLeU: return "<=";
    case ExprOp::kGtU: return ">";
    case ExprOp::kGeU: return ">=";
  }
  return "?";
}

std::uint64_t apply_op(ExprOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case ExprOp::kAdd: return a + b;
    case ExprOp::kSub: return a - b;
    case ExprOp::kMul: return a * b;
    case ExprOp::kAnd: return a & b;
    case ExprOp::kOr: return a | b;
    case ExprOp::kXor: return a ^ b;
    case ExprOp::kShl: return a << (b & 63);
    case ExprOp::kShr: return a >> (b & 63);
    case ExprOp::kNot: return ~a;
    case ExprOp::kEq: return a == b ? 1 : 0;
    case ExprOp::kNe: return a != b ? 1 : 0;
    case ExprOp::kLtU: return a < b ? 1 : 0;
    case ExprOp::kLeU: return a <= b ? 1 : 0;
    case ExprOp::kGtU: return a > b ? 1 : 0;
    case ExprOp::kGeU: return a >= b ? 1 : 0;
  }
  BOLT_UNREACHABLE("bad ExprOp");
}

// ------------------------------------------------------------ interner --

namespace {

/// Structural hash of a prospective node; children are already interned so
/// their hashes are final. Order-sensitive in (a, b).
inline std::uint64_t node_hash(ExprKind kind, ExprOp op, std::uint64_t value,
                               ExprPtr a, ExprPtr b) {
  std::uint64_t h = static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(op) * 0xc2b2ae3d27d4eb4fULL;
  h = mix64(h ^ value);
  if (a != nullptr) h = mix64(h + 0x165667b19e3779f9ULL + a->hash());
  if (b != nullptr) h = mix64(h ^ (b->hash() * 0x27d4eb2f165667c5ULL));
  return h;
}

}  // namespace

/// Global sharded hash-consing table. Nodes live in per-shard chunk arenas
/// and are immortal; the table maps structural identity -> node. Sharded by
/// structural hash so concurrent generations (a scenario sweep) rarely
/// contend on a mutex.
class ExprInterner {
 public:
  static ExprInterner& instance() {
    static ExprInterner interner;
    return interner;
  }

  ExprPtr intern(ExprKind kind, ExprOp op, std::uint64_t value, ExprPtr a,
                 ExprPtr b) {
    const std::uint64_t h = node_hash(kind, op, value, a, b);
    Shard& shard = shards_[h & (kShards - 1)];
    const Key key{value, a, b, kind, op};
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.table.emplace(key, nullptr);
    if (!inserted) return it->second;
    Expr* e = shard.arena.create();
    e->kind_ = kind;
    e->op_ = op;
    e->value_ = value;
    e->a_ = a;
    e->b_ = b;
    e->hash_ = h;
    switch (kind) {
      case ExprKind::kConst:
        break;
      case ExprKind::kSym:
        e->sym_mask_ = 1ULL << (value & 63);
        break;
      case ExprKind::kUnary:
        e->sym_mask_ = a->sym_mask();
        break;
      case ExprKind::kBinary:
        e->sym_mask_ = a->sym_mask() | b->sym_mask();
        break;
    }
    it->second = e;
    return e;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      total += s.arena.size();
    }
    return total;
  }

 private:
  struct Key {
    std::uint64_t value;
    ExprPtr a;
    ExprPtr b;
    ExprKind kind;
    ExprOp op;
    bool operator==(const Key& o) const {
      // Children are interned, so pointer comparison IS structural
      // comparison — the whole point of hash consing.
      return value == o.value && a == o.a && b == o.b && kind == o.kind &&
             op == o.op;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          node_hash(k.kind, k.op, k.value, k.a, k.b));
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, ExprPtr, KeyHash> table;
    support::ChunkArena<Expr> arena;
  };

  static constexpr std::size_t kShards = 32;  // power of two
  Shard shards_[kShards];
};

std::size_t interned_expr_count() { return ExprInterner::instance().size(); }

// ------------------------------------------------- smart constructors --

ExprPtr Expr::constant(std::uint64_t value) {
  return ExprInterner::instance().intern(ExprKind::kConst, ExprOp::kAdd, value,
                                         nullptr, nullptr);
}

ExprPtr Expr::symbol(SymId id) {
  return ExprInterner::instance().intern(ExprKind::kSym, ExprOp::kAdd, id,
                                         nullptr, nullptr);
}

ExprPtr Expr::unary(ExprOp op, ExprPtr a) {
  BOLT_CHECK(op == ExprOp::kNot, "only kNot is unary");
  if (a->is_const()) return constant(~a->const_value());
  return ExprInterner::instance().intern(ExprKind::kUnary, op, 0, a, nullptr);
}

ExprPtr Expr::binary(ExprOp op, ExprPtr a, ExprPtr b) {
  BOLT_CHECK(op != ExprOp::kNot, "kNot is not binary");
  if (a->is_const() && b->is_const()) {
    return constant(apply_op(op, a->const_value(), b->const_value()));
  }
  // Cheap algebraic identities. These keep path constraints readable and
  // help the solver's pattern matcher; they are not meant to be exhaustive.
  if (b->is_const()) {
    const std::uint64_t c = b->const_value();
    if (c == 0) {
      switch (op) {
        case ExprOp::kAdd: case ExprOp::kSub: case ExprOp::kOr:
        case ExprOp::kXor: case ExprOp::kShl: case ExprOp::kShr:
          return a;
        case ExprOp::kMul: case ExprOp::kAnd:
          return constant(0);
        default: break;
      }
    }
    if (c == 1 && op == ExprOp::kMul) return a;
    if (c == ~0ULL && op == ExprOp::kAnd) return a;
  }
  if (a->is_const()) {
    const std::uint64_t c = a->const_value();
    if (c == 0) {
      switch (op) {
        case ExprOp::kAdd: case ExprOp::kOr: case ExprOp::kXor:
          return b;
        case ExprOp::kMul: case ExprOp::kAnd:
          return constant(0);
        default: break;
      }
    }
    if (c == 1 && op == ExprOp::kMul) return b;
  }
  // Interning makes structural equality pointer equality, so this single
  // comparison covers the seed's pointer *and* same-symbol checks (and
  // reaches any structurally shared subexpression).
  if (a == b) {
    switch (op) {
      case ExprOp::kSub: case ExprOp::kXor: return constant(0);
      case ExprOp::kAnd: case ExprOp::kOr: return a;
      case ExprOp::kEq: case ExprOp::kLeU: case ExprOp::kGeU: return constant(1);
      case ExprOp::kNe: case ExprOp::kLtU: case ExprOp::kGtU: return constant(0);
      default: break;
    }
  }
  return ExprInterner::instance().intern(ExprKind::kBinary, op, 0, a, b);
}

std::uint64_t Expr::const_value() const {
  BOLT_CHECK(is_const(), "not a constant expression");
  return value_;
}

SymId Expr::sym_id() const {
  BOLT_CHECK(is_sym(), "not a symbol");
  return static_cast<SymId>(value_);
}

std::uint64_t Expr::eval(const Assignment& assignment) const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_;
    case ExprKind::kSym: {
      auto it = assignment.find(static_cast<SymId>(value_));
      BOLT_CHECK(it != assignment.end(), "eval: unassigned symbol");
      return it->second;
    }
    case ExprKind::kUnary:
      return ~a_->eval(assignment);
    case ExprKind::kBinary:
      return apply_op(op_, a_->eval(assignment), b_->eval(assignment));
  }
  BOLT_UNREACHABLE("bad ExprKind");
}

std::uint64_t Expr::eval_flat(const std::uint64_t* values) const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_;
    case ExprKind::kSym:
      return values[value_];
    case ExprKind::kUnary:
      return ~a_->eval_flat(values);
    case ExprKind::kBinary:
      return apply_op(op_, a_->eval_flat(values), b_->eval_flat(values));
  }
  BOLT_UNREACHABLE("bad ExprKind");
}

namespace {

/// Small visited set for shared-subgraph-aware DAG walks: inline storage
/// for the common (tiny) constraint DAGs, heap overflow for pathological
/// ones. Linear scan — constraint DAGs rarely exceed a dozen nodes.
struct VisitedSet {
  static constexpr std::size_t kInline = 32;
  ExprPtr inline_slots[kInline];
  std::size_t count = 0;
  std::vector<ExprPtr> overflow;

  bool insert(ExprPtr p) {
    const std::size_t n = count < kInline ? count : kInline;
    for (std::size_t i = 0; i < n; ++i) {
      if (inline_slots[i] == p) return false;
    }
    for (const ExprPtr q : overflow) {
      if (q == p) return false;
    }
    if (count < kInline) {
      inline_slots[count++] = p;
    } else {
      overflow.push_back(p);
    }
    return true;
  }
};

/// Shared-subgraph-aware DAG walk: visits each node once (interning makes
/// shared subexpressions pointer-identical, so revisits are pure waste).
template <typename Fn>
void walk_once(ExprPtr root, VisitedSet& visited, const Fn& fn) {
  if (root == nullptr || !visited.insert(root)) return;
  fn(root);
  walk_once(root->lhs(), visited, fn);
  walk_once(root->rhs(), visited, fn);
}

}  // namespace

void Expr::collect_symbols(std::vector<SymId>& out) const {
  if (!has_symbols()) return;
  VisitedSet visited;
  walk_once(this, visited, [&out](ExprPtr e) {
    if (e->is_sym()) out.push_back(e->sym_id());
  });
}

void Expr::collect_constants(std::vector<std::uint64_t>& out) const {
  VisitedSet visited;
  walk_once(this, visited, [&out](ExprPtr e) {
    if (e->is_const()) out.push_back(e->const_value());
  });
}

std::string Expr::str(const std::function<std::string(SymId)>& sym_name) const {
  switch (kind_) {
    case ExprKind::kConst:
      return std::to_string(value_);
    case ExprKind::kSym:
      return sym_name ? sym_name(static_cast<SymId>(value_))
                      : "s" + std::to_string(value_);
    case ExprKind::kUnary:
      return "~(" + a_->str(sym_name) + ")";
    case ExprKind::kBinary:
      return "(" + a_->str(sym_name) + " " + expr_op_name(op_) + " " +
             b_->str(sym_name) + ")";
  }
  BOLT_UNREACHABLE("bad ExprKind");
}

ExprPtr logical_not(ExprPtr e) {
  // Negate comparisons structurally when possible (keeps solver patterns).
  if (e->kind() == ExprKind::kBinary) {
    switch (e->op()) {
      case ExprOp::kEq: return Expr::binary(ExprOp::kNe, e->lhs(), e->rhs());
      case ExprOp::kNe: return Expr::binary(ExprOp::kEq, e->lhs(), e->rhs());
      case ExprOp::kLtU: return Expr::binary(ExprOp::kGeU, e->lhs(), e->rhs());
      case ExprOp::kLeU: return Expr::binary(ExprOp::kGtU, e->lhs(), e->rhs());
      case ExprOp::kGtU: return Expr::binary(ExprOp::kLeU, e->lhs(), e->rhs());
      case ExprOp::kGeU: return Expr::binary(ExprOp::kLtU, e->lhs(), e->rhs());
      default: break;
    }
  }
  return Expr::binary(ExprOp::kEq, e, Expr::constant(0));
}

// --------------------------------------------------------- SymbolTable --

SymId SymbolTable::fresh(const std::string& name, int width_bits) {
  BOLT_CHECK(width_bits >= 1 && width_bits <= 64, "bad symbol width");
  const SymId id = static_cast<SymId>(entries_.size());
  entries_.push_back(Entry{name, width_bits});
  return id;
}

const std::string& SymbolTable::name(SymId id) const {
  BOLT_CHECK(id < entries_.size(), "symbol id out of range");
  return entries_[id].name;
}

int SymbolTable::width_bits(SymId id) const {
  BOLT_CHECK(id < entries_.size(), "symbol id out of range");
  return entries_[id].width_bits;
}

std::uint64_t SymbolTable::max_value(SymId id) const {
  const int w = width_bits(id);
  return w == 64 ? ~0ULL : ((1ULL << w) - 1);
}

void SymbolTable::rebuild(std::vector<std::pair<std::string, int>> entries) {
  entries_.clear();
  entries_.reserve(entries.size());
  for (auto& [name, width] : entries) {
    entries_.push_back(Entry{std::move(name), width});
  }
}

}  // namespace bolt::symbex
