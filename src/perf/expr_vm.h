// Compiled PerfExpr evaluation — the monitor's hot path.
//
// `PerfExpr::eval` walks a std::map of monomials and re-multiplies PCV
// powers per call; fine for rendering a contract table, far too slow for
// validating millions of packets against it. `CompiledExpr` flattens the
// polynomial once into a compact register-based bytecode:
//
//   * constant folding — pure-constant subexpressions collapse at compile
//     time (an all-constant contract entry compiles to a single kConst);
//   * Horner factoring — the PCV appearing in the most terms is factored
//     out recursively, so `245*e + 82*e*c + 882` compiles to
//     `e*(245 + 82*c) + 882` (one multiply fewer per extra term);
//   * common-subexpression elimination — repeated slot loads and identical
//     (op, a, b) triples share one register.
//
// Evaluation reads PCV values from a dense *slot* array indexed by PcvId
// (registry ids are interned densely, so slot i == PcvId i). The batch API
// evaluates one expression over many packets' bindings instruction-major,
// which keeps the dispatch overhead per packet near zero and lets the
// compiler vectorize the per-lane inner loops.
//
// Arithmetic is performed in wrapping uint64 (two's complement), matching
// the bit pattern the tree-walk eval produces for any input, including
// overflow-adjacent coefficients.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf/pcv.h"
#include "perf/perf_expr.h"

namespace bolt::perf {

/// Reusable register matrix for CompiledExpr::eval_batch. One instance per
/// monitor worker makes steady-state batch evaluation allocation-free: the
/// matrix grows to the largest (program x lane-block) it has seen and is
/// reused for every subsequent batch.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class CompiledExpr;
  std::vector<std::uint64_t> regs_;
};

class CompiledExpr {
 public:
  /// Compiles a polynomial. The resulting program reads PCV values from
  /// slots indexed by PcvId; `slot_count()` is 1 + the highest slot read
  /// (0 for constant expressions).
  static CompiledExpr compile(const PerfExpr& expr);

  /// Evaluates at one binding (convenience; tree-walk-compatible).
  std::int64_t eval(const PcvBinding& binding) const;

  /// Evaluates at one dense slot row. `slots` must hold at least
  /// `slot_count()` values.
  std::int64_t eval_slots(const std::uint64_t* slots) const;

  /// Evaluates over `count` bindings laid out row-major (`stride` slots per
  /// row, stride >= slot_count()), writing one result per row. This is the
  /// monitor's per-batch entry point.
  void eval_batch(const std::uint64_t* slots, std::size_t stride,
                  std::size_t count, std::int64_t* out) const;

  /// Same, but with a caller-owned register matrix: zero allocations once
  /// `scratch` has warmed up. The monitor evaluates every same-class batch
  /// through one scratch per partition.
  void eval_batch(const std::uint64_t* slots, std::size_t stride,
                  std::size_t count, std::int64_t* out,
                  BatchScratch& scratch) const;

  std::size_t slot_count() const { return slot_count_; }
  std::size_t instruction_count() const { return code_.size(); }

  /// One-line disassembly, e.g. "r0=slot[2]; r1=82*r0; ..." (tests/debug).
  std::string str() const;

 private:
  enum class Op : std::uint8_t {
    kConst,  ///< r = imm
    kSlot,   ///< r = slots[a]
    kAdd,    ///< r = r[a] + r[b]
    kMul,    ///< r = r[a] * r[b]
  };
  struct Instr {
    Op op;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint64_t imm = 0;
  };

  struct Builder;  // compile-time state (CSE memo), in expr_vm.cpp

  std::vector<Instr> code_;   ///< SSA: instruction i defines register i
  std::size_t slot_count_ = 0;
};

}  // namespace bolt::perf
